"""Tests for the fault-injection & graceful-degradation layer.

Covers the fault taxonomy end to end: plan parsing, node crashes
mid-period, forced ToPA stop-on-full, corrupted/truncated uploads through
the resilient decoder, the sched-switch side-channel tap, retry/quarantine
policy, and the byte-level determinism of the degradation accounting
across ``jobs=1`` vs ``jobs=N``.
"""

import json

import pytest

from repro.cluster.crd import TraceTaskSpec
from repro.cluster.master import ClusterMaster, RetryPolicy
from repro.cluster.node import STOP_NODE_CRASH, ClusterNode
from repro.cluster.pod import PodPhase
from repro.core.config import TraceReason, TracingRequest
from repro.experiments.scenarios import chaos_sweep, run_chaos_scenario
from repro.faults import DegradationReport, FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.hwtrace.decoder import SoftwareDecoder, encode_trace
from repro.parallel.pool import RunPool
from repro.program.workloads import get_workload
from repro.util.identity import reset_identity_counters
from repro.util.units import MSEC

pytestmark = pytest.mark.chaos


# ---------------------------------------------------------------------------
# plan parsing
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_preset_expands_to_all_classes(self):
        plan = FaultPlan.parse("chaos", seed=42)
        kinds = {spec.kind for spec in plan.specs}
        assert FaultKind.NODE_CRASH in kinds
        assert FaultKind.BUFFER_EXHAUST in kinds
        assert FaultKind.CORRUPT in kinds
        assert FaultKind.SCHED_DROP in kinds
        assert plan.seed == 42

    def test_full_atom(self):
        spec = FaultSpec.parse("crash:2@0.25/node-0*")
        assert spec.kind is FaultKind.NODE_CRASH
        assert spec.magnitude == 2.0
        assert spec.at_fraction == 0.25
        assert spec.target == "node-0*"

    def test_kind_defaults(self):
        spec = FaultSpec.parse("exhaust")
        assert spec.magnitude == 0.9
        assert spec.at_fraction == 0.5
        assert spec.target == "*"

    def test_render_roundtrip(self):
        plan = FaultPlan.parse("crash:1@0.3/node-*,corrupt:0.1,sched-delay:2")
        again = FaultPlan.parse(plan.render(), seed=plan.seed)
        assert again == plan

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("meteor-strike")

    def test_fraction_magnitude_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            FaultSpec.parse("corrupt:1.5")

    def test_at_fraction_validated(self):
        with pytest.raises(ValueError, match="at_fraction"):
            FaultSpec.parse("crash@1.5")

    def test_empty_and_none_preset_are_falsy(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("none")
        assert FaultPlan.parse("chaos")

    def test_specs_of_filters_in_order(self):
        plan = FaultPlan.parse("corrupt:0.1,crash,truncate:0.2")
        kinds = [
            s.kind
            for s in plan.specs_of(FaultKind.CORRUPT, FaultKind.TRUNCATE)
        ]
        assert kinds == [FaultKind.CORRUPT, FaultKind.TRUNCATE]


# ---------------------------------------------------------------------------
# degradation report
# ---------------------------------------------------------------------------

class TestDegradationReport:
    def test_clean_report_not_degraded(self):
        report = DegradationReport()
        report.coverage_requested = report.coverage_achieved = 3
        assert not report.degraded
        assert report.coverage_fraction == 1.0

    def test_buffer_rejections_alone_do_not_degrade(self):
        # natural stop-on-full is EXIST's designed behaviour (§3.3), not
        # a fault: bytes rejected by a full buffer must not flip the flag
        report = DegradationReport()
        report.buffer_bytes_rejected = 4096
        assert not report.degraded

    def test_any_loss_counter_degrades(self):
        for counter in (
            "nodes_crashed", "pods_killed", "buffers_exhausted",
            "bytes_dropped", "sched_records_dropped",
            "sessions_abandoned", "sessions_degraded",
        ):
            report = DegradationReport()
            setattr(report, counter, 1)
            assert report.degraded, counter

    def test_json_is_canonical(self):
        report = DegradationReport(faults="crash:1@0.5", fault_seed=7)
        report.note("crash scheduled on node-00 at +0.5 window")
        data = json.loads(report.to_json())
        assert data["faults"] == "crash:1@0.5"
        assert data["events"] == ["crash scheduled on node-00 at +0.5 window"]
        assert list(data) == sorted(data)

    def test_summary_mentions_coverage(self):
        report = DegradationReport()
        report.coverage_requested, report.coverage_achieved = 3, 2
        assert "coverage 2/3" in report.summary()


# ---------------------------------------------------------------------------
# fault paths against a live node
# ---------------------------------------------------------------------------

def _traced_node(seed=3, period_ms=100, name="node-00"):
    node = ClusterNode(name, seed=seed)
    pod = node.place_pod(get_workload("Search1"))
    session = node.trace_pod(
        pod, TracingRequest(target="Search1", period_ns=period_ms * MSEC)
    )
    return node, pod, session


class TestNodeCrash:
    def test_crash_mid_period_aborts_session_and_halts_clock(self):
        node, _, session = _traced_node()
        node.schedule_crash(node.now + 50 * MSEC)
        node.run_for(150 * MSEC)
        assert not node.alive
        assert session.stopped
        assert session.stop_reason == STOP_NODE_CRASH
        frozen = node.now
        node.run_for(20 * MSEC)  # crashed nodes don't advance
        assert node.now == frozen

    def test_restart_revives_pods_and_tracing(self):
        node, pod, _ = _traced_node()
        node.schedule_crash(node.now + 50 * MSEC)
        node.run_for(150 * MSEC)
        node.restart()
        assert node.alive
        assert node.restart_count == 1
        assert all(p.phase is PodPhase.RUNNING for p in node.pods)
        session = node.trace_pod(
            pod, TracingRequest(target="Search1", period_ns=100 * MSEC)
        )
        node.run_for(150 * MSEC)
        assert session.stopped
        assert session.segments

    def test_injected_crash_is_one_shot(self):
        node, pod, session = _traced_node()
        injector = FaultInjector(FaultPlan.parse("crash@0.5", seed=0))
        window = 100 * MSEC
        participants = [(node, pod, session, "node-00/Search1#w0")]
        injector.begin_wave(0, participants, window)
        node.run_for(window)
        injector.end_wave()
        assert not node.alive
        node.restart()
        # the spec already fired; a retry wave must not crash the node again
        injector.begin_wave(1, participants, window)
        node.run_for(window)
        injector.end_wave()
        assert node.alive


class TestBufferExhaustion:
    def test_constrain_forces_stop_on_full(self):
        node, _, session = _traced_node()
        outputs = [
            node.facility.tracers[core].output
            for core in session.plan.traced_cores
            if core in node.facility.tracers
        ]
        assert outputs
        squeezed = sum(1 for output in outputs if output.constrain(0.97) > 0)
        assert squeezed == len(outputs)
        node.run_for(150 * MSEC)
        assert session.stopped
        # the shrunken buffers rejected data instead of growing
        assert any(o.stopped for o in outputs)
        assert any(
            seg.bytes_accepted < seg.bytes_offered for seg in session.segments
        )

    def test_injector_squeeze_counts_buffers(self):
        node, pod, session = _traced_node()
        injector = FaultInjector(FaultPlan.parse("exhaust:0.97", seed=0))
        injector.begin_wave(
            0, [(node, pod, session, "node-00/Search1#w0")], 100 * MSEC
        )
        assert injector.report.buffers_exhausted > 0
        node.run_for(150 * MSEC)
        injector.end_wave()
        assert session.stopped


class TestCorruptedStream:
    def test_resilient_decode_survives_corruption(self):
        node, pod, session = _traced_node()
        node.run_for(150 * MSEC)
        raw = encode_trace(session.segments)
        injector = FaultInjector(FaultPlan.parse("corrupt:0.05", seed=1))
        mangled, dropped = injector.mangle(raw, "node-00/Search1#w0")
        assert dropped == 0  # corruption is counted by the decoder, not here
        assert len(mangled) == len(raw)
        assert mangled != raw
        decoder = SoftwareDecoder.for_processes([pod.process])
        decoded = decoder.decode(mangled, resilient=True)
        assert decoded.bytes_skipped > 0 or decoded.resyncs > 0
        assert len(decoded) > 0  # partial recovery, not an empty shrug

    def test_truncation_counts_dropped_bytes(self):
        node, pod, session = _traced_node()
        node.run_for(150 * MSEC)
        raw = encode_trace(session.segments)
        injector = FaultInjector(FaultPlan.parse("truncate:0.3", seed=1))
        mangled, dropped = injector.mangle(raw, "node-00/Search1#w0")
        assert dropped == int(len(raw) * 0.3)
        assert len(mangled) == len(raw) - dropped
        assert injector.report.bytes_dropped == dropped
        decoder = SoftwareDecoder.for_processes([pod.process])
        decoded = decoder.decode(mangled, resilient=True)
        assert len(decoded) > 0

    def test_mangle_is_deterministic_per_label(self):
        payload = bytes(range(256)) * 64
        first = FaultInjector(FaultPlan.parse("corrupt:0.1", seed=5))
        second = FaultInjector(FaultPlan.parse("corrupt:0.1", seed=5))
        assert first.mangle(payload, "a/b#w0") == second.mangle(payload, "a/b#w0")
        assert (
            first.mangle(payload, "a/b#w1")[0]
            != second.mangle(payload, "a/b#w0")[0]
        )


class TestSchedSideChannel:
    def test_drop_tap_removes_records_and_accounts(self):
        node, pod, session = _traced_node()
        injector = FaultInjector(FaultPlan.parse("sched-drop:0.9", seed=0))
        injector.begin_wave(
            0, [(node, pod, session, "node-00/Search1#w0")], 100 * MSEC
        )
        node.run_for(150 * MSEC)
        injector.end_wave()
        assert injector.report.sched_records_dropped > 0
        assert node.facility.otc.sched_fault is None  # tap removed

    def test_delay_tap_shifts_timestamps(self):
        node, pod, session = _traced_node()
        injector = FaultInjector(FaultPlan.parse("sched-delay:2.0", seed=0))
        injector.begin_wave(
            0, [(node, pod, session, "node-00/Search1#w0")], 100 * MSEC
        )
        node.run_for(150 * MSEC)
        injector.end_wave()
        assert injector.report.sched_records_delayed > 0
        assert len(session.sched_records) > 0


# ---------------------------------------------------------------------------
# end-to-end seeded chaos
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestChaosScenario:
    def test_seeded_chaos_degrades_gracefully(self):
        result = run_chaos_scenario(faults="chaos", fault_seed=0, jobs=1)
        assert result["phase"] == "Degraded"
        assert result["coverage_achieved"] < result["coverage_requested"]
        report = result["report"]
        assert report["degraded"] is True
        assert report["nodes_crashed"] >= 1
        assert report["buffers_exhausted"] > 0
        assert report["sched_records_dropped"] > 0
        assert report["sessions_abandoned"] >= 1
        # corrupted uploads surface as decode loss, honestly accounted
        assert report["bytes_dropped"] > 0 or report["decode_resyncs"] > 0
        # partial results are still merged into the structured store
        assert result["rows"]

    def test_restart_policy_recovers_coverage(self):
        result = run_chaos_scenario(
            faults="crash@0.5",
            fault_seed=0,
            retry_policy=RetryPolicy(restart_crashed_nodes=True),
        )
        report = result["report"]
        assert report["nodes_crashed"] >= 1
        assert report["nodes_restarted"] >= 1
        assert report["retry_waves"] >= 1
        assert result["coverage_achieved"] == result["coverage_requested"]

    def test_quarantine_benches_failing_node(self):
        result = run_chaos_scenario(
            faults="crash@0.5",
            fault_seed=0,
            retry_policy=RetryPolicy(
                restart_crashed_nodes=True, quarantine_threshold=1
            ),
        )
        report = result["report"]
        assert report["quarantined_nodes"]
        assert result["coverage_achieved"] < result["coverage_requested"]

    def test_chaos_sweep_aggregates(self):
        sweep = chaos_sweep([0, 1])
        assert sum(sweep["phases"].values()) == 2
        assert 0.0 <= sweep["mean_coverage_fraction"] <= 1.0
        assert len(sweep["runs"]) == 2


@pytest.mark.slow
class TestDeterminism:
    def test_jobs_invariant_report_and_rows(self):
        one = run_chaos_scenario(faults="chaos", fault_seed=0, jobs=1)
        two = run_chaos_scenario(faults="chaos", fault_seed=0, jobs=2)
        one["jobs"] = two["jobs"] = 0
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_same_seed_replays_identically(self):
        first = run_chaos_scenario(faults="chaos", fault_seed=1)
        second = run_chaos_scenario(faults="chaos", fault_seed=1)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


def _chaos_reconcile(pool, streaming):
    """One seed-5 chaos reconcile of a fresh 5-node, 5-replica Search1 fleet.

    The smallest fleet found whose corrupted uploads decoded differently on
    a reused pool when worker decoders kept earlier uploads' cr3 mappings.
    Returns the structured rows and the degradation-report JSON.
    """
    reset_identity_counters()
    master = ClusterMaster(seed=5)
    master.add_nodes(5, base_seed=5000)
    master.deploy("Search1", replicas=5)
    task = master.submit(
        TraceTaskSpec(app="Search1", reason=TraceReason.ANOMALY, period_ns=100 * MSEC)
    )
    master.reconcile(
        task, faults=FaultPlan.parse("chaos", seed=5), pool=pool, streaming=streaming
    )
    return master.sessions_for(task), task.status.degradation.to_json()


@pytest.mark.slow
class TestPersistentPoolDeterminism:
    @pytest.mark.parametrize("streaming", [True, False], ids=["streaming", "batch"])
    def test_repeated_pool_reconciles_match_jobs1(self, streaming):
        reference = _chaos_reconcile(None, streaming)
        with RunPool(max_workers=2) as pool:
            for _ in range(2):
                assert _chaos_reconcile(pool, streaming) == reference
