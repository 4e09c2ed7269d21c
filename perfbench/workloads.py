"""The benchmark's workloads.

Each workload derives all of its inputs from the ``--seed`` argument and
exposes the same life cycle to ``run.py``:

* ``setup()`` — cold preparation before the first timed operation
  (binary generation, pool start, upload capture);
* ``prepare()`` — untimed per-operation preparation (a fresh fleet);
* ``run_op(index)`` — the timed, closed-loop operation;
* ``check_op(index, result)`` — invariants, plus the operation's output
  digest and exact counters (``run.py`` compares these against the first
  operation and against ``digests.json``);
* ``work(result)`` — the operation's work units, for ``work_per_s``.

Counters are read from the program's public stats objects
(``CostLedger``, ``sim.events_fired``, ``DecodeCache.stats()``,
``PoolStats``, ``StreamStats``, ``DegradationReport``) and cover only
work the benchmark process itself observes: pool workers' kernels and
decodes show up as ``parallel.map_s`` time, not as counts.
"""

from __future__ import annotations

import hashlib
import json
import resource
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import ClusterMaster, TraceTaskSpec
from repro.cluster.crd import TaskPhase
from repro.cluster.node import ClusterNode
from repro.core import rco
from repro.core.config import TraceReason
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hwtrace.cache import process_decode_cache
from repro.hwtrace.decoder import DecodedTrace, SoftwareDecoder
from repro.parallel.pool import RunPool
from repro.parallel.workers import process_pool_stats
from repro.program.workloads import WorkloadProfile, get_workload
from repro.services import workloads as services
from repro.util.identity import reset_identity_counters
from repro.util.rng import derive_seed
from repro.util.units import MSEC

MB = 1e6
APP = "Search1"


class CheckError(Exception):
    """An operation's output broke an invariant."""


def canonical(value):
    """JSON-ready form with bytes as hex (stable for digests)."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(*parts) -> str:
    """blake2b over the canonical JSON of ``parts``."""
    text = json.dumps([canonical(part) for part in parts], sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def clear_decode_cache() -> None:
    """Empty this process's shared decode cache (broadcast to workers)."""
    process_decode_cache().clear()


def peak_rss_kb() -> int:
    """This process's peak resident set (broadcast to pool workers)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def warm_program() -> WorkloadProfile:
    """Generate the traced app's binary and path model (program layer)."""
    profile = get_workload(APP)
    profile.binary()
    profile.path_model()
    return profile


def facility_counters(master: ClusterMaster) -> Dict[str, float]:
    """Kernel and EXIST counters of the nodes this process simulated."""
    nodes = [n for n in master.nodes.values() if n.materialized]
    completed = [c for n in nodes for c in n.facility.completed]
    ledgers = [n.facility.ledger for n in nodes]
    return {
        "kernel.events": sum(n.system.sim.events_fired for n in nodes),
        "kernel.context_switches": sum(
            n.system.scheduler.total_context_switches for n in nodes
        ),
        "hwtrace.encode_segments": sum(len(c.session.segments) for c in completed),
        "core.otc.wrmsr_ops": sum(l.count("wrmsr") for l in ledgers),
        "core.otc.hook_ops": sum(l.count("hook") for l in ledgers),
        "core.otc.sidecar_records": sum(l.count("sidecar_record") for l in ledgers),
        "core.otc.control_ns": sum(n.facility.control_cpu_ns for n in nodes),
        "core.uma.reserved_bytes": sum(c.plan.total_bytes for c in completed),
        "core.uma.truncated_segments": sum(c.truncated_segments for c in completed),
    }


def modelled_overhead_permille(master: ClusterMaster, period_ns: int) -> float:
    """EXIST's modelled tracing cost: ledger ns per traced core-period, x1000."""
    nodes = [n for n in master.nodes.values() if n.materialized]
    ledger_ns = sum(n.facility.ledger.grand_total_ns for n in nodes)
    traced_cores = sum(
        len(c.plan.traced_cores) for n in nodes for c in n.facility.completed
    )
    return ledger_ns / (traced_cores * period_ns) * 1000


def cache_counters() -> Dict[str, float]:
    stats = process_decode_cache().stats()
    return {
        "hwtrace.cache_hit_rate": stats["hit_rate"],
        "hwtrace.cache_fallbacks": stats["fallbacks"],
        "hwtrace.cache_bytes": stats["current_bytes"],
    }


def reconcile_outputs(master: ClusterMaster, task) -> str:
    """Digest of a reconcile's stored uploads, rows and degradation report."""
    keys = sorted(task.status.trace_keys)
    return digest(
        [(key, master.object_store.get(key)) for key in keys],
        master.sessions_for(task),
        task.status.degradation.to_json(),
        task.status.stream,
    )


class Workload:
    """Shared defaults; see the module docstring for the life cycle."""

    name = ""
    #: fewest timed operations a run makes, whatever ``--seconds`` says
    min_ops = 1
    #: what one unit of ``work_per_s`` is
    work_unit = ""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run_op(self, index: int):
        raise NotImplementedError

    def check_op(self, index: int, result) -> Tuple[str, Optional[Dict]]:
        raise NotImplementedError

    def work(self, result) -> float:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_kb() / 1024.0

    def report(self, op_times: List[float], works: List[float]) -> Dict[str, Tuple]:
        """The workload's own metrics: name -> (value, unit, samples)."""
        return {}

    def expected_digests(self, n_ops: int) -> Optional[List[str]]:
        """Per-operation output digests from an independent path, if any."""
        return None

    def run_record(self, op_digests: List[str], op_counters: List[Dict]):
        """(outputs digest, counters) of the run, compared with digests.json."""
        return op_digests[0], op_counters[0]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# reconcile-steady
# ---------------------------------------------------------------------------

class ReconcileSteady(Workload):
    """8 one-pod Search1 nodes, 8 traced repetitions, in-process."""

    name = "reconcile-steady"
    work_unit = "traced pods"
    nodes = 8
    replicas = 8
    repetitions = 8
    period_ms = 150

    def _build_master(self) -> ClusterMaster:
        reset_identity_counters()
        master = ClusterMaster(seed=self.seed)
        master.add_nodes(self.nodes, base_seed=1000 * self.seed)
        master.deploy(APP, replicas=self.replicas)
        return master

    def _spec(self) -> TraceTaskSpec:
        return TraceTaskSpec(
            app=APP,
            reason=TraceReason.ANOMALY,
            period_ns=self.period_ms * MSEC,
            max_repetitions=self.repetitions,
        )

    def setup(self) -> None:
        warm_program()

    def prepare(self) -> None:
        # every operation is a cold reconcile: a fresh fleet and an
        # empty decode cache, as a freshly started master would have
        clear_decode_cache()
        self.master = self._build_master()
        self.task = self.master.submit(self._spec())

    def run_op(self, index: int):
        return self.master.reconcile(self.task)

    def check_op(self, index: int, task) -> Tuple[str, Optional[Dict]]:
        status = task.status
        if status.sessions_completed != self.repetitions:
            raise CheckError(
                f"{status.sessions_completed} sessions completed,"
                f" {self.repetitions} repetitions requested"
            )
        if status.phase is not TaskPhase.COMPLETE:
            raise CheckError(f"reconcile ended in phase {status.phase}")
        counters = facility_counters(self.master)
        counters["modelled_overhead_permille"] = modelled_overhead_permille(
            self.master, status.period_ns
        )
        counters.update(cache_counters())
        counters["coverage_ratio"] = (
            status.coverage_achieved / status.coverage_requested
        )
        return reconcile_outputs(self.master, task), counters

    def work(self, task) -> float:
        return task.status.sessions_completed

    def report(self, op_times, works) -> Dict[str, Tuple]:
        # a chaos reconcile may trace fewer pods than it requested
        per_pod = [t / max(1.0, pods) for t, pods in zip(op_times, works)]
        return {
            "traced_pod_s": (float(np.median(per_pod)), "s", len(per_pod)),
        }


# ---------------------------------------------------------------------------
# reconcile-chaos
# ---------------------------------------------------------------------------

class ReconcileChaos(ReconcileSteady):
    """12 nodes, 10 replicas, chaos faults, streaming, jobs=2 pool."""

    name = "reconcile-chaos"
    nodes = 12
    replicas = 10
    period_ms = 100
    jobs = 2
    faults = "chaos"

    def _spec(self) -> TraceTaskSpec:
        return TraceTaskSpec(
            app=APP, reason=TraceReason.ANOMALY, period_ns=self.period_ms * MSEC
        )

    def setup(self) -> None:
        warm_program()
        # workers fork now and inherit the warm binary copy-on-write
        self.pool = RunPool(max_workers=self.jobs)
        self.plan = FaultPlan.parse(self.faults, seed=self.seed)

    def prepare(self) -> None:
        self.pool.broadcast(clear_decode_cache)
        super().prepare()
        self._pool_before = _pool_counts()

    def run_op(self, index: int):
        return self.master.reconcile(
            self.task, faults=self.plan, pool=self.pool, streaming=True
        )

    def check_op(self, index: int, task) -> Tuple[str, Optional[Dict]]:
        status = task.status
        report = status.degradation
        if not 0 < status.coverage_achieved <= status.coverage_requested:
            raise CheckError(
                f"coverage {status.coverage_achieved}"
                f"/{status.coverage_requested}"
            )
        if status.sessions_completed != len(status.trace_keys):
            raise CheckError("uploads and completed sessions disagree")
        if status.stream is None or status.stream["uploads"] != len(status.trace_keys):
            raise CheckError("streaming ingest missed uploads")
        counters = facility_counters(self.master)
        counters.update(cache_counters())
        after = _pool_counts()
        counters.update({
            "parallel.tasks": after["tasks"] - self._pool_before["tasks"],
            "parallel.respawns": after["respawns"] - self._pool_before["respawns"],
            "streaming.chunks": status.stream["chunks"],
            "streaming.dead_letter_rate": status.stream["dead_letter_rate"],
            "faults.bytes_dropped": report.bytes_dropped,
            "faults.buffer_bytes_rejected": report.buffer_bytes_rejected,
            "faults.nodes_crashed": report.nodes_crashed,
            "coverage_ratio": status.coverage_achieved / status.coverage_requested,
        })
        return reconcile_outputs(self.master, task), counters

    def peak_rss_mb(self) -> float:
        workers = self.pool.broadcast(peak_rss_kb) if self.pool.parallel else []
        return (peak_rss_kb() + sum(workers)) / 1024.0

    def close(self) -> None:
        self.pool.close()


class ReconcilePool(ReconcileChaos):
    """The steady fleet over a jobs=2 pool, streaming, uncorrupted faults.

    It reaches the layers ``reconcile-chaos`` does — ``parallel/``,
    ``streaming/`` and the fault injector — with faults that leave the
    uploaded bytes intact (a node crash halfway, ToPA exhaustion, dropped
    sched records), so every reconcile's output is a function of the seed.
    """

    name = "reconcile-pool"
    nodes = ReconcileSteady.nodes
    replicas = ReconcileSteady.replicas
    period_ms = ReconcileSteady.period_ms
    faults = "crash@0.5,exhaust:0.9,sched-drop:0.2"

    def _spec(self) -> TraceTaskSpec:
        return ReconcileSteady._spec(self)

    def check_op(self, index: int, task) -> Tuple[str, Optional[Dict]]:
        status = task.status
        if status.sessions_completed != self.repetitions:
            raise CheckError(
                f"{status.sessions_completed} sessions completed,"
                f" {self.repetitions} repetitions requested"
            )
        if status.stream["dead_letters"]:
            raise CheckError("an uncorrupted upload was dead-lettered")
        return super().check_op(index, task)


def _pool_counts() -> Dict[str, int]:
    stats = process_pool_stats()
    if stats is None:
        return {"tasks": 0, "respawns": 0}
    return {"tasks": stats.tasks, "respawns": stats.respawns}


# ---------------------------------------------------------------------------
# trace-queries
# ---------------------------------------------------------------------------

class TraceQueries(Workload):
    """One analyst querying stored uploads back to back.

    Set-up captures one ``reconcile-steady`` reconcile and keeps its 8
    uploads.  The seed permutes which upload holds which popularity
    rank; the uploads at ranks 4 and 8 (a quarter) are corrupted.  Fixing
    the corrupted *ranks* keeps the share of queries that touch the
    resilient-decode route (~30%) the same for every seed, so p50 stays on
    the clean route and p90 on the corrupt one.
    """

    name = "trace-queries"
    work_unit = "stored MB decoded"
    #: p90 needs >= 100 samples so that >= 10 lie beyond it; the exact
    #: counters cover this many leading queries of the stream
    min_ops = 100
    counter_window = 100
    zipf_s = 1.0
    #: P(a query reads 1, 2, 3 uploads): half read two, so p50 falls
    #: inside the two-upload clean mode on every seed, not on a boundary
    #: between modes that the seed's query mix would move
    query_sizes = (0.25, 0.5, 0.25)
    corrupt_ranks = (3, 7)  # 0-based popularity ranks
    corrupt_spec = "corrupt:0.02"

    def __init__(self, seed: int):
        super().__init__(seed)
        n = ReconcileSteady.repetitions
        rng = np.random.default_rng(derive_seed(self.seed, "perfbench", "ranks"))
        #: upload index at each popularity rank
        self.by_rank = [int(i) for i in rng.permutation(n)]
        self.corrupted = sorted(self.by_rank[r] for r in self.corrupt_ranks)
        self._query_rng = np.random.default_rng(
            derive_seed(self.seed, "perfbench", "queries")
        )
        weights = 1.0 / np.arange(1, n + 1) ** self.zipf_s
        self._rank_p = weights / weights.sum()
        self.queries: List[Tuple[int, ...]] = []
        self._window: Dict[str, float] = {}

    def setup(self) -> None:
        steady = ReconcileSteady(self.seed)
        steady.setup()
        steady.prepare()
        task = steady.run_op(0)
        master = steady.master
        self.keys = list(task.status.trace_keys)
        if len(self.keys) != len(self.by_rank):
            raise CheckError(f"capture stored {len(self.keys)} uploads")
        injector = FaultInjector(FaultPlan.parse(self.corrupt_spec, seed=self.seed))
        for index in self.corrupted:
            raw, _dropped = injector.mangle(
                master.object_store.get(self.keys[index]), self.keys[index]
            )
            master.object_store.put(self.keys[index], raw)
        self.store = master.object_store
        pods = {pod.uid: pod for pod in master.deployments[APP].pods}
        uids = [key.rsplit("/", 1)[1] for key in self.keys]
        coverage = master.task_coverage[task.name]
        self.coverage = [
            [iv for ivs in coverage[uid].values() for iv in ivs] for uid in uids
        ]
        self.cr3s = [pods[uid].process.cr3 for uid in uids]
        binary = get_workload(APP).binary()
        self.decoder = SoftwareDecoder({}, cache=process_decode_cache())
        for cr3 in self.cr3s:
            self.decoder.add_binary(cr3, binary)

    def query(self, index: int) -> Tuple[int, ...]:
        """Upload indices read by query ``index`` (a pure function of seed)."""
        while len(self.queries) <= index:
            k = int(self._query_rng.choice(3, p=self.query_sizes)) + 1
            ranks = self._query_rng.choice(
                len(self._rank_p), size=k, replace=False, p=self._rank_p
            )
            self.queries.append(tuple(sorted(self.by_rank[r] for r in ranks)))
        return self.queries[index]

    def prepare(self) -> None:
        self.query(len(self.queries))

    def run_op(self, index: int):
        histogram: Counter = Counter()
        decoded: List[DecodedTrace] = []
        picks = self.query(index)
        for upload in picks:
            trace = self.decoder.decode(
                self.store.get(self.keys[upload]), resilient=True
            )
            histogram.update(trace.function_histogram())
            decoded.append(trace)
        augmented = rco.augment_traces([self.coverage[u] for u in picks])
        return picks, decoded, histogram, augmented

    @staticmethod
    def summarize(picks, decoded, histogram, augmented) -> Dict:
        """The query's deterministic output (what its digest covers)."""
        return {
            "picks": list(picks),
            "records": [len(t) for t in decoded],
            "resyncs": [t.resyncs for t in decoded],
            "skipped": [t.bytes_skipped for t in decoded],
            "histogram": sorted(histogram.items()),
            "union": augmented.union_events,
            "redundant": augmented.redundant_events,
        }

    def reference(self) -> List[DecodedTrace]:
        """Every upload decoded without the cache (the cross-check)."""
        binary = get_workload(APP).binary()
        plain = SoftwareDecoder({cr3: binary for cr3 in self.cr3s})
        return [
            plain.decode(self.store.get(key), resilient=True) for key in self.keys
        ]

    def check_op(self, index: int, result) -> Tuple[str, Optional[Dict]]:
        picks, decoded, _histogram, _augmented = result
        for upload, trace in zip(picks, decoded):
            size = len(self.store.get(self.keys[upload]))
            clean = upload not in self.corrupted
            if not 0 <= trace.bytes_skipped <= size:
                raise CheckError(f"upload {upload}: skipped bytes out of range")
            if clean and (trace.bytes_skipped or trace.resyncs):
                raise CheckError(f"clean upload {upload} needed resyncs")
            if not clean and not trace.bytes_skipped:
                raise CheckError(f"corrupted upload {upload} decoded clean")
        if index < self.counter_window:
            window = self._window
            window["hwtrace.decode_mb"] = window.get("hwtrace.decode_mb", 0.0) + sum(
                len(self.store.get(self.keys[u])) for u in picks
            ) / MB
            for name, values in (
                ("hwtrace.decode_records", [len(t) for t in decoded]),
                ("hwtrace.decode_resyncs", [t.resyncs for t in decoded]),
                ("hwtrace.decode_bytes_skipped", [t.bytes_skipped for t in decoded]),
            ):
                window[name] = window.get(name, 0) + sum(values)
            if index == self.counter_window - 1:
                window.update(cache_counters())
        return digest(self.summarize(*result)), None

    def window_counters(self) -> Dict:
        counters = dict(self._window)
        counters["hwtrace.decode_mb"] = round(counters["hwtrace.decode_mb"], 6)
        return counters

    def store_digest(self) -> str:
        return digest([(key, self.store.get(key)) for key in self.keys])

    def work(self, result) -> float:
        picks = result[0]
        return sum(len(self.store.get(self.keys[u])) for u in picks) / MB

    def expected_digests(self, n_ops: int) -> List[str]:
        reference = self.reference()
        expected = []
        for index in range(n_ops):
            picks = self.query(index)
            decoded = [reference[u] for u in picks]
            histogram: Counter = Counter()
            for trace in decoded:
                histogram.update(trace.function_histogram())
            augmented = rco.augment_traces([self.coverage[u] for u in picks])
            expected.append(
                digest(self.summarize(picks, decoded, histogram, augmented))
            )
        return expected

    def run_record(self, op_digests, op_counters):
        return (
            digest(self.store_digest(), op_digests[: self.counter_window]),
            self.window_counters(),
        )

    def report(self, op_times, works) -> Dict[str, Tuple]:
        ms = [t * 1000 for t in op_times]
        return {
            "query_p50_ms": (float(np.median(ms)), "ms", len(ms)),
            "query_p90_ms": (float(np.percentile(ms, 90)), "ms", len(ms)),
            "decode_mb_s": (sum(works) / sum(op_times), "MB/s", len(ms)),
        }


# ---------------------------------------------------------------------------
# rpc-campaign
# ---------------------------------------------------------------------------

class RpcCampaign(Workload):
    """A 32k-request retry-storm campaign of the services engine.

    Four full partitions (``partition_requests`` = 8192) per campaign
    keep one operation near 2 s, so a run times about a dozen of them;
    with 100k requests (6-7 s) a run timed three or four, and their
    median moved by a quarter from run to run.
    """

    name = "rpc-campaign"
    work_unit = "spans simulated"

    def setup(self) -> None:
        self.spec = services.CampaignSpec(
            workload="ecommerce",
            n_requests=4 * services.CampaignSpec.partition_requests,
            scenario="retry-storm",
            inflation=1.01,
            seed=self.seed,
        )
        self.partitions = services.campaign_partitions(self.spec)

    def run_op(self, index: int):
        return services.run_campaign(self.spec, jobs=1)

    def check_op(self, index: int, report) -> Tuple[str, Optional[Dict]]:
        warmup = sum(
            int(p.n_requests * self.spec.warmup_fraction) for p in self.partitions
        )
        for scheme, merged in report["schemes"].items():
            if merged["completed"] + warmup != self.spec.n_requests:
                raise CheckError(
                    f"{scheme}: {merged['completed']} of"
                    f" {self.spec.n_requests - warmup} requests completed"
                )
        counters = {
            "services.spans": report["spans_simulated"],
            "modelled_p99_ms": report["schemes"]["traced"]["p99_ms"],
        }
        return digest(services.campaign_report_json(report)), counters

    def work(self, report) -> float:
        return report["spans_simulated"]

    def report(self, op_times, works) -> Dict[str, Tuple]:
        return {"spans_per_s": (sum(works) / sum(op_times), "1/s", len(op_times))}


WORKLOADS = {
    cls.name: cls
    for cls in (
        ReconcileSteady, ReconcilePool, ReconcileChaos, TraceQueries, RpcCampaign
    )
}


def layer_patches(patcher) -> None:
    """Wrap every layer entry point the workloads reach (traced run)."""
    from repro.cluster import master as master_module
    from repro.parallel import pool as pool_module
    from repro.program import workloads as program_module
    from repro.services import engine as engine_module
    from repro.streaming import pipeline as streaming_module

    def decode_attrs(args, trace):
        return {
            "bytes": len(args[1]),
            "records": len(trace),
            "resyncs": trace.resyncs,
            "skipped": trace.bytes_skipped,
        }

    patcher.wrap(ClusterMaster, "reconcile", "cluster.reconcile")
    patcher.wrap(ClusterNode, "materialize", "cluster.materialize")
    patcher.wrap(ClusterNode, "trace_pod", "core.trace_pod")
    patcher.wrap(ClusterNode, "run_for", "kernel.run_for")
    patcher.wrap(master_module, "encode_trace", "hwtrace.encode",
                 lambda args, raw: {"bytes": len(raw)})
    patcher.wrap(master_module, "coverage_by_thread", "analysis.coverage")
    patcher.wrap(SoftwareDecoder, "decode", "hwtrace.decode", decode_attrs)
    patcher.wrap(DecodedTrace, "function_histogram", "analysis.histogram")
    patcher.wrap(rco, "augment_traces", "core.rco.augment")
    patcher.wrap(FaultInjector, "mangle", "faults.mangle")
    patcher.wrap(streaming_module.StreamingIngestor, "submit", "streaming.submit")
    patcher.wrap(streaming_module.StreamingIngestor, "finish", "streaming.finish")
    patcher.wrap(pool_module.RunPool, "__init__", "parallel.pool_start")
    patcher.wrap(pool_module.RunPool, "map", "parallel.map")
    patcher.wrap(pool_module.RunPool, "broadcast", "parallel.broadcast")
    patcher.wrap(program_module.WorkloadProfile, "binary", "program.binary")
    patcher.wrap(program_module.WorkloadProfile, "path_model", "program.binary")
    patcher.wrap(services, "run_campaign", "services.campaign")
    patcher.wrap(services, "run_vectorized", "services.engine")
    patcher.wrap(services, "diurnal_arrival_times", "services.arrivals")
    patcher.wrap(engine_module.CallProgram, "compile", "services.compile")
