"""Cluster master: deployments, the TraceTask controller, and RCO wiring.

The control plane of the reproduction: applications are deployed as pod
replicas across worker nodes; a submitted :class:`TraceTask` CRD is
reconciled by (1) asking RCO which repetitions to trace and for how long,
(2) starting node-level EXIST sessions, (3) driving the nodes through the
tracing window, and (4) uploading raw traces to the object store and the
decoded, structured results to the analytical store — the paper's §4
control and data flows end to end.

Sharded reconcile: the per-node tracing work (session start, fault
arming, retries, salvage, decode) is packaged as node-disjoint *slots*
and distributed over consistent-hash shards, each shard running as one
task on the shared persistent worker pool.  A thin coordinator keeps all
cross-node decisions (RCO sampling, timed-fault victim choice, refill
rounds, quarantine) and merges shard results in slot-index order, so
``jobs=1`` and ``jobs=N`` reconciles are byte-identical on a pristine
fleet — including fault injection, retry backoff, and coverage metrics.
Per-pod coordinator bookkeeping lives in numpy columns
(:class:`~repro.cluster.fleet.FleetIndex`), which is what lets one
master drive thousands of (lazily materialized) nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reconstruct import coverage_by_thread, thread_labels
from repro.cluster import fleet as fleet_codes
from repro.cluster.crd import TaskPhase, TraceTask, TraceTaskSpec
from repro.cluster.fleet import FleetIndex
from repro.cluster.node import (
    STOP_NODE_CRASH,
    STOP_POD_KILLED,
    ClusterNode,
)
from repro.cluster.pod import Pod
from repro.cluster.shard import ShardRing
from repro.cluster.storage import BinaryRepository, ObjectStore, StructuredStore
from repro.core.config import ExistConfig, TraceReason, TracingRequest
from repro.core.rco import CoverageMetric, Repetition, RepetitionAwareCoverageOptimizer
from repro.faults.injector import FaultInjector, TimedAssignment
from repro.faults.plan import FaultPlan
from repro.faults.report import DegradationReport
from repro.hwtrace.cache import DecodeCache, process_decode_cache
from repro.hwtrace.decoder import encode_trace, upload_session_stats
from repro.kernel.system import SystemConfig
from repro.parallel.pool import RunPool
from repro.program.workloads import WorkloadProfile, get_workload
from repro.streaming import StreamConfig, StreamingIngestor
from repro.util.units import MIB, MSEC


def _warm_worker_binary(app: str) -> None:
    """Regenerate ``app``'s memoized binary in this worker (warmup).

    Broadcast once per reconcile so the first fan-out round doesn't pay
    code generation in every worker mid-wave.
    """
    get_workload(app).binary()


@dataclass(frozen=True)
class RetryPolicy:
    """How hard reconciliation fights back against faults.

    A reconcile runs in *waves*: the initial attempt plus up to
    ``max_waves - 1`` retries.  Between waves the master backs off in
    virtual time (exponentially, capped at ``max_backoff_ms``), restarts
    crashed nodes when allowed, quarantines nodes that failed
    ``quarantine_threshold`` times, and asks RCO's spatial sampler for
    replacement replicas.
    """

    max_waves: int = 3
    backoff_base_ms: int = 25
    #: ceiling for one exponential backoff step — keeps high attempt
    #: counts from overflowing into absurd virtual-time jumps
    max_backoff_ms: int = 1000
    #: extra virtual time granted to a session still running after its
    #: window, before the master force-stops it
    straggler_timeout_ms: int = 200
    quarantine_threshold: int = 2
    restart_crashed_nodes: bool = True

    def backoff_ns(self, wave: int) -> int:
        """Backoff granted before retry wave ``wave`` (overflow-safe)."""
        if wave <= 0:
            return 0
        exponent = min(wave - 1, 62)
        ms = min(self.backoff_base_ms * (2 ** exponent), self.max_backoff_ms)
        return int(ms) * MSEC


@dataclass(frozen=True)
class SlotTask:
    """One node-disjoint unit of reconcile work (picklable)."""

    slot: int
    app: str
    pod_uid: str
    node_name: str
    reason: TraceReason
    requester: str
    period_ns: int
    window_ns: int
    #: global wave index of this slot's first attempt (0 for the initial
    #: selection, the refill round number for replacements)
    start_wave: int
    #: virtual-time backoff the node serves before its first attempt
    #: (the backoff steps of the rounds it missed)
    initial_backoff_ns: int
    #: coordinator-chosen timed faults targeting this slot's node
    assignments: Tuple[TimedAssignment, ...] = ()


@dataclass
class SlotOutcome:
    """What one slot reports back to the coordinator (picklable)."""

    slot: int
    node_name: str
    pod_uid: str
    app: str
    label: str = ""
    attempts: int = 0
    start_wave: int = 0
    achieved: bool = False
    salvaged: bool = False
    completed: bool = False
    cr3: int = 0
    raw: bytes = b""
    dropped: int = 0
    bytes_captured: float = 0.0
    rejected_bytes: float = 0.0
    records: int = 0
    functions: int = 0
    resyncs: int = 0
    bytes_skipped: int = 0
    node_failures: int = 0
    quarantined: bool = False
    #: thread label -> merged coverage intervals (profiling campaigns)
    coverage: Dict[str, list] = field(default_factory=dict)
    #: this slot's degradation deltas + chronological notes
    report: DegradationReport = field(default_factory=DegradationReport)


def _run_slot(
    node: ClusterNode,
    pod: Pod,
    slot_task: SlotTask,
    policy: RetryPolicy,
    injector: Optional[FaultInjector],
) -> SlotOutcome:
    """Run one slot's attempt loop against a live node.

    This is the former global wave body, scoped to a single node: start
    the session, arm faults, drive the window, grant straggler grace,
    classify, and retry in place after a crash (the node restarts with
    its pinned pod identities, so retries stay byte-deterministic).  All
    accounting goes to the outcome's scratch report; the coordinator
    merges scratch reports in slot order.
    """
    outcome = SlotOutcome(
        slot=slot_task.slot,
        node_name=node.name,
        pod_uid=pod.uid,
        app=pod.app,
        start_wave=slot_task.start_wave,
    )
    report = outcome.report
    failures = 0
    quarantined = False

    def register_failure() -> None:
        nonlocal failures, quarantined
        failures += 1
        if failures >= policy.quarantine_threshold and not quarantined:
            quarantined = True
            report.note(f"quarantined {node.name} after {failures} failures")

    if slot_task.initial_backoff_ns:
        node.run_for(slot_task.initial_backoff_ns)

    session = None
    crash_counted = False
    wave = slot_task.start_wave
    while wave < policy.max_waves:
        outcome.attempts += 1
        label = f"{node.name}/{pod.app}#w{wave}"
        outcome.label = label
        # a dead node is only reachable on a retry attempt: the crashed
        # node reboots (kubelet restartPolicy) unless policy or
        # quarantine forbids
        if not node.alive and policy.restart_crashed_nodes and not quarantined:
            node.restart()
            report.nodes_restarted += 1
            report.note(f"restarted {node.name}")
        request = TracingRequest(
            target=pod.app,
            reason=slot_task.reason,
            period_ns=slot_task.period_ns,
            requester=slot_task.requester,
        )
        try:
            session = node.trace_pod(pod, request)
        except RuntimeError:
            cause = "node down" if not node.alive else "pod not running"
            register_failure()
            report.note(f"session start failed on {label}: {cause}")
            session = None
            break
        outcome.cr3 = session.target.cr3
        if injector is not None:
            assignments = (
                slot_task.assignments if wave == slot_task.start_wave else ()
            )
            injector.arm_slot(
                node, pod, session, label, wave, slot_task.window_ns,
                assignments=assignments, report=report,
            )
        node.run_for(slot_task.window_ns)
        # stragglers: grant extra time, then force-stop survivors
        if not session.stopped and node.alive:
            node.run_for(policy.straggler_timeout_ms * MSEC)
        if not session.stopped and node.alive:
            node.facility.stop_tracing(session, "reconcile-timeout")
        if injector is not None:
            injector.disarm_slot(node)

        if not node.alive and not crash_counted:
            crash_counted = True
            report.nodes_crashed += 1
            report.note(f"{node.name} crashed mid-window")
        if session.stop_reason == STOP_NODE_CRASH:
            # trace bytes lived in node DRAM: unrecoverable, but the
            # replica itself comes back with the node reboot
            report.sessions_abandoned += 1
            report.note(f"abandoned {label}: node crash")
            register_failure()
            session = None
            if policy.restart_crashed_nodes and not quarantined:
                wave += 1
                continue
            break
        if session.stop_reason == STOP_POD_KILLED:
            # facility survived: salvage the partial window
            report.pods_killed += 1
            report.sessions_degraded += 1
            report.note(f"salvaged partial window of {label}")
            outcome.salvaged = True
            outcome.completed = True
            break
        outcome.achieved = True
        outcome.completed = True
        break

    outcome.node_failures = failures
    outcome.quarantined = quarantined
    if outcome.completed and session is not None:
        raw = encode_trace(session.segments)
        dropped = 0
        if injector is not None:
            raw, dropped = injector.mangle(raw, outcome.label, report=report)
        outcome.raw = raw
        outcome.dropped = dropped
        outcome.bytes_captured = session.bytes_captured
        outcome.rejected_bytes = float(
            sum(
                max(0.0, s.bytes_offered - s.bytes_accepted)
                for s in session.segments
            )
        )
        if pod.process is not None:
            outcome.coverage = coverage_by_thread(
                session.segments, thread_labels(pod.process)
            )
    return outcome


def _run_shard(payload) -> List[SlotOutcome]:
    """Run one shard's slots in a pool worker.

    Rebuilds each slot's node from its :class:`NodeSpec` (pinned
    pid/tids: no identity counters are drawn, and the rebuilt node
    produces byte-identical trace output to the coordinator's pristine
    original), runs the slot loop, and decodes in-worker against the
    fork-inherited binary cache.  Ships back compact outcomes only.
    With ``decode`` False (streaming mode) the raw bytes come back
    undecoded — the streaming ingestor owns the decode instead.
    """
    specs, slot_tasks, policy, plan, use_cache, decode = payload
    nodes = {spec.name: ClusterNode.from_spec(spec) for spec in specs}
    injector = FaultInjector(plan) if plan is not None else None
    outcomes = []
    for slot_task in slot_tasks:
        node = nodes[slot_task.node_name]
        pod = next(p for p in node.pods if p.uid == slot_task.pod_uid)
        outcome = _run_slot(node, pod, slot_task, policy, injector)
        if outcome.completed and decode:
            _decode_outcome(
                outcome,
                get_workload(slot_task.app).binary(),
                process_decode_cache() if use_cache else None,
            )
        outcomes.append(outcome)
    return outcomes


def _decode_outcome(outcome: SlotOutcome, binary, cache) -> None:
    """Write a completed outcome's upload session stats in place."""
    (
        outcome.records,
        outcome.functions,
        outcome.resyncs,
        outcome.bytes_skipped,
    ) = upload_session_stats(binary, outcome.cr3, outcome.raw, cache)


@dataclass
class Deployment:
    """An application's replica set across the cluster."""

    app: str
    profile: WorkloadProfile
    pods: List[Pod] = field(default_factory=list)

    @property
    def replicas(self) -> int:
        return len(self.pods)


@dataclass
class ManagementFootprint:
    """RCO management-pod resource usage (paper Figure 17, right side)."""

    cpu_cores: float = 0.0
    memory_bytes: int = 0

    @property
    def memory_mb(self) -> float:
        return self.memory_bytes / MIB


class ClusterMaster:
    """The Kubernetes-master stand-in hosting the EXIST control plane."""

    #: RCO management pod baseline (measured in the paper: <3e-3 cores,
    #: ~40 MB under high stress on a ten-node cluster; expanded to a
    #: thousand nodes the overhead stays below one permille)
    MGMT_BASE_MEMORY = 38 * MIB
    MGMT_CPU_PER_TASK = 2e-3
    MGMT_MEMORY_PER_TASK = int(0.2 * MIB)
    #: columnar fleet state: ~1.5 KiB/node and ~0.5 KiB/pod of arrays,
    #: watch caches, and heartbeat state — the terms that matter at
    #: multi-thousand-node scale
    MGMT_CPU_PER_NODE = 5e-8
    MGMT_MEMORY_PER_NODE = 1536
    MGMT_MEMORY_PER_POD = 512

    def __init__(
        self,
        exist_config: Optional[ExistConfig] = None,
        seed: int = 0,
        decode_cache=True,
    ):
        self.exist_config = exist_config or ExistConfig()
        #: repetition-aware decode cache shared by every task this master
        #: reconciles: True -> the process-wide cache (shared across
        #: masters and campaigns), a DecodeCache -> that instance,
        #: False/None -> uncached decode
        if decode_cache is True:
            self.decode_cache: Optional[DecodeCache] = process_decode_cache()
        elif isinstance(decode_cache, DecodeCache):
            self.decode_cache = decode_cache
        else:
            self.decode_cache = None
        self.nodes: Dict[str, ClusterNode] = {}
        self.deployments: Dict[str, Deployment] = {}
        self.rco = RepetitionAwareCoverageOptimizer(self.exist_config, seed=seed)
        self.object_store = ObjectStore()
        self.structured_store = StructuredStore()
        self.binary_repository = BinaryRepository()
        self.structured_store.create_table("traces")
        self.tasks: List[TraceTask] = []
        self._active_tasks = 0
        #: next bulk-registration index per name prefix — monotone even
        #: across node removals, so churn replacements never reuse (and
        #: thereby resurrect) a drained node's name
        self._name_floor: Dict[str, int] = {}
        #: task name -> pod uid -> {thread label: coverage intervals},
        #: recorded at reconcile time (profiling campaigns read this
        #: instead of reaching into node facilities, which may have run
        #: inside a pool worker)
        self.task_coverage: Dict[str, Dict[str, Dict[str, list]]] = {}

    # -- cluster assembly --------------------------------------------------------

    def add_node(self, node: ClusterNode) -> None:
        """Register a worker node with the master."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        prefix, _, suffix = node.name.rpartition("-")
        if prefix and suffix.isdigit():
            self._name_floor[prefix] = max(
                self._name_floor.get(prefix, 0), int(suffix) + 1
            )

    def add_nodes(
        self,
        count: int,
        prefix: str = "node",
        base_seed: int = 0,
        system_config: Optional[SystemConfig] = None,
        exist_config: Optional[ExistConfig] = None,
    ) -> List[ClusterNode]:
        """Bulk-register ``count`` lazy nodes (the scale path).

        Lazy nodes defer their kernel/facility build until a reconcile
        actually traces them, so registering thousands costs microseconds
        per node.  Names continue after the highest index *ever used*
        for the prefix (monotone across removals), which is what node
        churn and autoscaling rely on: a replacement never resurrects a
        drained node's name.
        """
        start = self._name_floor.get(prefix, 0)
        created = []
        for offset in range(count):
            index = start + offset
            node = ClusterNode(
                f"{prefix}-{index:05d}",
                system_config=system_config,
                exist_config=exist_config,
                seed=base_seed + index,
                lazy=True,
            )
            self.add_node(node)
            created.append(node)
        return created

    def remove_node(self, name: str, reschedule: bool = True) -> ClusterNode:
        """Drain one node out of the cluster (churn / scale-in).

        Its pods are evicted from their deployments; with ``reschedule``
        the replica controller immediately places fresh replacements on
        the least-loaded surviving nodes (name-ordered within a load
        tier), so a reconcile running after churn still finds its
        replica count and repeated churn doesn't pile replicas onto the
        first survivor.
        """
        node = self.nodes.pop(name)
        load: Dict[str, int] = {survivor: 0 for survivor in self.nodes}
        for deployment in self.deployments.values():
            for pod in deployment.pods:
                if pod.node_name in load:
                    load[pod.node_name] += 1
        for deployment in self.deployments.values():
            evicted = [pod for pod in deployment.pods if pod.node_name == name]
            if not evicted:
                continue
            deployment.pods = [
                pod for pod in deployment.pods if pod.node_name != name
            ]
            if reschedule and self.nodes:
                for _ in evicted:
                    target = min(sorted(load), key=load.get)
                    load[target] += 1
                    deployment.pods.append(
                        self.nodes[target].place_pod(deployment.profile)
                    )
        return node

    def deploy(
        self,
        app: str,
        replicas: int,
        node_names: Optional[Sequence[str]] = None,
    ) -> Deployment:
        """Deploy ``replicas`` pods of ``app`` round-robin across nodes."""
        profile = get_workload(app)
        targets = list(node_names or sorted(self.nodes))
        if not targets:
            raise RuntimeError("no nodes in the cluster")
        deployment = self.deployments.setdefault(
            app, Deployment(app=app, profile=profile)
        )
        # the decoder later fetches this binary keyed by the app (§4)
        if not self.binary_repository.has(app):
            self.binary_repository.register(app, profile.binary())
        for index in range(replicas):
            node = self.nodes[targets[index % len(targets)]]
            deployment.pods.append(node.place_pod(profile))
        return deployment

    # -- the TraceTask controller ---------------------------------------------------

    def submit(self, spec: TraceTaskSpec) -> TraceTask:
        """Accept a TraceTask CRD (reconcile separately)."""
        task = TraceTask(spec=spec)
        self.tasks.append(task)
        return task

    # -- sharded reconcile ------------------------------------------------------

    def _dispatch_round(
        self,
        slot_tasks: List[SlotTask],
        pods_by_uid: Dict[str, Pod],
        ring: ShardRing,
        pool: Optional[RunPool],
        policy: RetryPolicy,
        faults: Optional[FaultPlan],
        injector: Optional[FaultInjector],
        binary,
        decode: bool = True,
    ) -> List[SlotOutcome]:
        """Run one round's slots — sharded over the pool when possible.

        The worker path requires every slot node to be *rebuildable*
        (pristine: a spec rebuild is then byte-identical to the live
        object) and the repository binary to be the memoized one (workers
        regenerate it from the fork-inherited cache).  Anything else runs
        the identical slot loop in-process on the live nodes, so both
        paths produce the same outcomes.  ``decode`` False defers decode
        to the streaming ingestor: outcomes carry raw bytes, stats zero.
        """
        app = slot_tasks[0].app
        use_cache = self.decode_cache is not None
        fan_out = (
            pool is not None
            and pool.parallel
            and binary is get_workload(app).binary()
            and all(
                self.nodes[st.node_name].rebuildable for st in slot_tasks
            )
        )
        if fan_out:
            assert pool is not None
            payloads = []
            for group in ring.partition([st.node_name for st in slot_tasks]):
                if not group:
                    continue
                shard_slots = tuple(slot_tasks[i] for i in group)
                specs = tuple(
                    self.nodes[name].to_spec()
                    for name in dict.fromkeys(
                        st.node_name for st in shard_slots
                    )
                )
                payloads.append(
                    (specs, shard_slots, policy, faults, use_cache, decode)
                )
            outcomes = [
                outcome
                for shard in pool.map(_run_shard, payloads)
                for outcome in shard
            ]
            for slot_task in slot_tasks:
                self.nodes[slot_task.node_name].trace_epochs += 1
        else:
            outcomes = []
            for slot_task in slot_tasks:
                node = self.nodes[slot_task.node_name]
                pod = pods_by_uid[slot_task.pod_uid]
                outcome = _run_slot(node, pod, slot_task, policy, injector)
                if outcome.completed and decode:
                    _decode_outcome(outcome, binary, self.decode_cache)
                outcomes.append(outcome)
        outcomes.sort(key=lambda outcome: outcome.slot)
        return outcomes

    def reconcile(
        self,
        task: TraceTask,
        settle_ms: int = 50,
        pool: Optional[RunPool] = None,
        faults: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        streaming=None,
    ) -> TraceTask:
        """Run the full reconciliation loop for one task.

        ``pool`` (optional) shards the per-node tracing + decode work
        across workers; results are byte-identical to the sequential
        path.  ``faults`` (optional) arms a seeded :class:`FaultPlan`
        against the run; the reconcile then *degrades* instead of
        failing — retrying in waves per ``retry_policy``, resampling
        replacement replicas, salvaging partial windows, and attaching a
        :class:`DegradationReport` with the honest loss accounting.

        ``streaming`` switches decode from the batch wave path to the
        online ingestion pipeline (``True`` for defaults, or a
        :class:`~repro.streaming.StreamConfig`): completed slots feed
        their uploads through the bounded backpressured queue as rounds
        finish, corrupt uploads quarantine and replay, and the ingest
        accounting lands on ``task.status.stream``.  Coverage,
        degradation, and decode-loss end state is byte-identical to the
        batch path and across ``--jobs`` widths.
        """
        policy = retry_policy or RetryPolicy()
        deployment = self.deployments.get(task.spec.app)
        if deployment is None or not deployment.pods:
            task.status.phase = TaskPhase.FAILED
            task.status.message = f"app {task.spec.app!r} not deployed"
            return task

        injector = FaultInjector(faults) if faults else None
        report = (
            injector.report if injector is not None else DegradationReport()
        )

        # (1) RCO decides repetitions and period
        repetitions = [
            Repetition(
                app=pod.app,
                node=pod.node_name,
                pod_uid=pod.uid,
                priority=pod.priority,
            )
            for pod in deployment.pods
        ]
        request = TracingRequest(
            target=task.spec.app,
            reason=task.spec.reason,
            period_ns=task.spec.period_ns,
            requester=task.spec.requester,
        )
        plan = self.rco.orchestrate(request, deployment.profile, repetitions)
        selected = plan.selected
        if task.spec.max_repetitions is not None:
            selected = selected[: task.spec.max_repetitions]

        # columnar fleet state: phase transitions, retry/quarantine
        # bitmaps and coverage rollups are array ops from here on
        fleet = FleetIndex(
            uids=[pod.uid for pod in deployment.pods],
            node_names=[pod.node_name for pod in deployment.pods],
            priorities=[pod.priority for pod in deployment.pods],
        )
        slot_rows = fleet.dedupe_first_per_node(
            fleet.rows_of([r.pod_uid for r in selected])
        )
        fleet.mark_selected(slot_rows)
        coverage_requested = int(len(slot_rows))
        task.status.period_ns = plan.period_ns
        task.status.selected_pods = [str(uid) for uid in fleet.uids[slot_rows]]
        task.status.phase = TaskPhase.SCHEDULED
        self._active_tasks += 1

        n_shards = task.spec.shards or (
            pool.max_workers if pool is not None else 1
        )
        ring = ShardRing(n_shards)
        task.status.shards = ring.n_shards
        window = plan.period_ns + settle_ms * MSEC
        pods_by_uid = {pod.uid: pod for pod in deployment.pods}
        binary = self.binary_repository.fetch(task.spec.app)
        if (
            pool is not None
            and pool.parallel
            and binary is get_workload(task.spec.app).binary()
        ):
            pool.broadcast(_warm_worker_binary, (task.spec.app,))

        ingestor: Optional[StreamingIngestor] = None
        if streaming:
            config = streaming if isinstance(streaming, StreamConfig) else None
            # consumer fan-out needs workers to regenerate the binary
            # from the fork-inherited workload cache, same as shard
            # dispatch; otherwise consumers run in-process
            stream_pool = (
                pool
                if (
                    pool is not None
                    and pool.parallel
                    and binary is get_workload(task.spec.app).binary()
                )
                else None
            )
            ingestor = StreamingIngestor(
                app=task.spec.app,
                binary=binary,
                decode_cache=self.decode_cache,
                pool=stream_pool,
                config=config,
            )

        # (2+3) trace in rounds of node-disjoint slots: the initial
        # selection, then refill rounds with RCO-resampled replacements
        # on fresh nodes.  Crash retries happen *inside* a slot.
        outcomes: List[SlotOutcome] = []
        slot_counter = 0
        pending_rows = slot_rows
        round_index = 0
        while len(pending_rows) and round_index < policy.max_waves:
            task.status.phase = TaskPhase.TRACING
            initial_backoff_ns = sum(
                policy.backoff_ns(wave) for wave in range(1, round_index + 1)
            )
            round_tasks: List[SlotTask] = []
            previews: List[Tuple[str, str, str]] = []
            for row in pending_rows:
                pod = pods_by_uid[str(fleet.uids[row])]
                previews.append((
                    pod.node_name,
                    pod.uid,
                    f"{pod.node_name}/{pod.app}#w{round_index}",
                ))
            assignments: dict = {}
            if injector is not None:
                assignments = injector.assign_timed(previews, window)
            for row, (node_name, pod_uid, _label) in zip(
                pending_rows, previews
            ):
                round_tasks.append(SlotTask(
                    slot=slot_counter,
                    app=task.spec.app,
                    pod_uid=pod_uid,
                    node_name=node_name,
                    reason=task.spec.reason,
                    requester=task.spec.requester,
                    period_ns=plan.period_ns,
                    window_ns=window,
                    start_wave=round_index,
                    initial_backoff_ns=initial_backoff_ns,
                    assignments=tuple(assignments.get(node_name, ())),
                ))
                slot_counter += 1
            fleet.mark_tracing(pending_rows)

            round_outcomes = self._dispatch_round(
                round_tasks, pods_by_uid, ring, pool, policy, faults,
                injector, binary, decode=ingestor is None,
            )
            if ingestor is not None:
                # online ingestion: completed uploads enter the
                # streaming pipeline as their round finishes, in slot
                # order (round_outcomes is slot-sorted)
                for outcome in round_outcomes:
                    if outcome.completed:
                        ingestor.submit(outcome)
            # index-ordered merge: scratch reports fold in slot order, so
            # the merged accounting is independent of shard layout
            failure_codes: List[int] = []
            for outcome in round_outcomes:
                row = fleet.row_of(outcome.pod_uid)
                if outcome.achieved:
                    phase = fleet_codes.ACHIEVED
                elif outcome.salvaged:
                    phase = fleet_codes.SALVAGED
                elif outcome.attempts and outcome.node_failures:
                    phase = fleet_codes.ABANDONED
                else:
                    phase = fleet_codes.START_FAILED
                fleet.resolve(row, phase, outcome.attempts)
                failure_codes.extend(
                    [fleet.node_code(outcome.node_name)] * outcome.node_failures
                )
                scratch = outcome.report
                report.nodes_crashed += scratch.nodes_crashed
                report.nodes_restarted += scratch.nodes_restarted
                report.pods_killed += scratch.pods_killed
                report.buffers_exhausted += scratch.buffers_exhausted
                report.bytes_dropped += scratch.bytes_dropped
                report.sched_records_dropped += scratch.sched_records_dropped
                report.sched_records_delayed += scratch.sched_records_delayed
                report.sessions_degraded += scratch.sessions_degraded
                report.sessions_abandoned += scratch.sessions_abandoned
                report.events.extend(scratch.events)
            fleet.register_node_failures(
                failure_codes, policy.quarantine_threshold
            )
            outcomes.extend(round_outcomes)

            round_index += 1
            need = coverage_requested - fleet.achieved()
            if need <= 0 or round_index >= policy.max_waves:
                break
            # RCO resamples replacement replicas (§3.4) on fresh nodes,
            # avoiding pods already tried, quarantined nodes, and nodes
            # this task already traced (slots stay node-disjoint)
            replacements = self.rco.spatial.resample(
                repetitions, need, exclude=fleet.exclude_uids()
            )
            pending_rows = fleet.dedupe_first_per_node(
                fleet.rows_of([r.pod_uid for r in replacements])
            )
            fleet.mark_selected(pending_rows)
            if len(pending_rows):
                report.note(
                    f"wave {round_index}: retrying"
                    f" {len(pending_rows)} replacements"
                )

        report.retry_waves = max(
            (o.start_wave + o.attempts - 1 for o in outcomes), default=0
        )

        # (4) upload raw traces (already mangled slot-side, so every
        # decode path saw the same bytes) and persist structured rows
        task.status.phase = TaskPhase.DECODING
        if ingestor is not None:
            # drain the pipeline: flush consumer batches, replay the
            # dead-letter quarantine, and write each outcome's session
            # stats in place — the accounting loop below then runs
            # unchanged, so the end state matches batch byte for byte
            task.status.stream = ingestor.finish().to_dict()
        completed = [outcome for outcome in outcomes if outcome.completed]
        pod_coverage: Dict[str, Dict[str, list]] = {}
        for outcome in completed:
            key = f"traces/{task.name}/{outcome.pod_uid}"
            self.object_store.put(key, outcome.raw)
            task.status.trace_keys.append(key)
            task.status.bytes_captured += outcome.bytes_captured
            task.status.sessions_completed += 1
            report.decode_resyncs += outcome.resyncs
            report.bytes_dropped += outcome.bytes_skipped
            degraded_row = bool(
                outcome.salvaged or outcome.dropped or outcome.bytes_skipped
            )
            if degraded_row:
                report.records_recovered += outcome.records
                if not outcome.salvaged:
                    report.sessions_degraded += 1
                    report.note(
                        f"recovered {outcome.records} records"
                        f" from {outcome.label}"
                    )
            if outcome.coverage:
                pod_coverage[outcome.pod_uid] = outcome.coverage
            self.structured_store.insert(
                "traces",
                [
                    {
                        "task": task.name,
                        "app": outcome.app,
                        "pod": outcome.pod_uid,
                        "node": outcome.node_name,
                        "records": outcome.records,
                        "functions": outcome.functions,
                        "bytes": len(outcome.raw),
                        "period_ns": plan.period_ns,
                        "degraded": degraded_row,
                    }
                ],
            )
        self.task_coverage[task.name] = pod_coverage
        if injector is not None and report.buffers_exhausted:
            report.buffer_bytes_rejected = int(
                sum(outcome.rejected_bytes for outcome in completed)
            )

        # (5) honest accounting: coverage + the degradation report
        metric = CoverageMetric(
            requested=coverage_requested, achieved=fleet.achieved()
        )
        report.sessions_completed = len(completed)
        report.coverage_requested = metric.requested
        report.coverage_achieved = metric.achieved
        report.quarantined_nodes = fleet.quarantined_nodes()
        task.status.coverage_requested = metric.requested
        task.status.coverage_achieved = metric.achieved
        task.status.degradation = report
        if report.degraded:
            task.status.phase = TaskPhase.DEGRADED
            task.status.message = report.summary()
        else:
            task.status.phase = TaskPhase.COMPLETE
        self._active_tasks -= 1
        return task

    # -- management accounting (Fig 17) -----------------------------------------------

    def decode_cache_stats(self) -> Dict[str, object]:
        """Decode-cache counters (all-zero when caching is disabled).

        Pool fan-out caveat: forked workers warm their own (inherited)
        cache copies, so only decodes run in this process move these
        counters.
        """
        if self.decode_cache is None:
            return {
                "entries": 0,
                "current_bytes": 0,
                "max_bytes": 0,
                "hits": 0,
                "misses": 0,
                "hit_rate": 0.0,
                "evictions": 0,
                "insertions": 0,
                "bytes_saved": 0,
                "bytes_decoded": 0,
                "fallbacks": 0,
            }
        return self.decode_cache.stats()

    def management_footprint(self) -> ManagementFootprint:
        """Current RCO management-pod resource usage."""
        n_pods = sum(len(d.pods) for d in self.deployments.values())
        return ManagementFootprint(
            cpu_cores=self.MGMT_CPU_PER_TASK * max(1, self._active_tasks)
            + self.MGMT_CPU_PER_NODE * len(self.nodes),
            memory_bytes=self.MGMT_BASE_MEMORY
            + self.MGMT_MEMORY_PER_TASK * len(self.tasks)
            + self.MGMT_MEMORY_PER_NODE * len(self.nodes)
            + self.MGMT_MEMORY_PER_POD * n_pods,
        )

    def sessions_for(self, task: TraceTask) -> List[Dict]:
        """Structured-store rows produced by one task."""
        return self.structured_store.query(
            "traces", where=lambda r: r["task"] == task.name
        )
