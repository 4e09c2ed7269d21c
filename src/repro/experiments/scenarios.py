"""Scenario builders shared by benchmarks, tests, and examples.

Every efficiency experiment follows the same pattern: build a fresh node,
spawn the workload (optionally with co-located neighbours), install one
tracing scheme targeting it, run, and measure.  The helpers here make the
pattern one call, with identical seeds across schemes so measured deltas
are attributable to the scheme alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.exist import ExistScheme
from repro.kernel.system import KernelSystem, SystemConfig
from repro.kernel.task import Process
from repro.program.workloads import WorkloadProfile, get_workload
from repro.tracing.base import SchemeArtifacts, TracingScheme
from repro.tracing.ebpf import EbpfScheme
from repro.tracing.griffin import GriffinScheme
from repro.tracing.nht import NhtScheme
from repro.tracing.oracle import OracleScheme
from repro.tracing.rept import ReptScheme
from repro.tracing.stasam import StaSamScheme
from repro.util.units import SEC

#: scheme name -> zero-argument factory; the Table 2 lineup
SCHEME_FACTORIES: Dict[str, Callable[[], TracingScheme]] = {
    "Oracle": OracleScheme,
    "EXIST": ExistScheme,
    "StaSam": StaSamScheme,
    "eBPF": EbpfScheme,
    "NHT": NhtScheme,
    "REPT": ReptScheme,
    "Griffin": GriffinScheme,
}

SCHEME_ORDER = ("Oracle", "EXIST", "StaSam", "eBPF", "NHT")


def make_scheme(name: str, **kwargs) -> TracingScheme:
    """Instantiate a scheme by Table 2 name."""
    try:
        factory = SCHEME_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; known: {sorted(SCHEME_FACTORIES)}"
        ) from None
    return factory(**kwargs)  # type: ignore[call-arg]


@dataclass
class TracedRun:
    """Everything one scheme run produced."""

    scheme: str
    workload: str
    system: KernelSystem
    target: Process
    artifacts: SchemeArtifacts
    completion_ns: Optional[int] = None
    throughput_rps: Optional[float] = None


def _spawn_with_neighbours(
    system: KernelSystem,
    workload: WorkloadProfile,
    cpuset: Optional[Sequence[int]],
    neighbours: Sequence[Tuple[WorkloadProfile, Optional[Sequence[int]]]],
    seed: int,
) -> Process:
    target = workload.spawn(system, cpuset=cpuset, seed=seed)
    for index, (profile, n_cpuset) in enumerate(neighbours):
        profile.spawn(system, cpuset=n_cpuset, seed=seed + 1000 + index)
    return target


def run_traced_execution(
    workload: str | WorkloadProfile,
    scheme: str | TracingScheme,
    node: Optional[SystemConfig] = None,
    cpuset: Optional[Sequence[int]] = None,
    neighbours: Sequence[Tuple[WorkloadProfile, Optional[Sequence[int]]]] = (),
    seed: int = 7,
    deadline_s: float = 30.0,
    window_s: Optional[float] = None,
    warmup_s: float = 0.1,
) -> TracedRun:
    """Run one (workload, scheme) pair on a fresh node.

    Compute workloads run to completion (``completion_ns`` set); online
    and service workloads run a warmup then a measurement window
    (``throughput_rps`` set, default window 0.3 s).
    """
    profile = workload if isinstance(workload, WorkloadProfile) else get_workload(workload)
    system = KernelSystem(node or SystemConfig.small_node(8, seed=seed))
    target = _spawn_with_neighbours(system, profile, cpuset, neighbours, seed)
    scheme_obj = scheme if isinstance(scheme, TracingScheme) else make_scheme(scheme)
    scheme_obj.install(system, [target])

    completion = None
    throughput = None
    if profile.kind.value == "compute":
        finished = system.run_until_done([target], deadline_ns=int(deadline_s * SEC))
        if not finished:
            raise RuntimeError(
                f"{profile.name} under {scheme_obj.name} missed the "
                f"{deadline_s}s deadline"
            )
        completion = max(t.done_at for t in target.threads)
    else:
        window = window_s if window_s is not None else 0.3
        system.run_for(int(warmup_s * SEC))
        mid = system.process_requests(target)
        system.run_for(int(window * SEC))
        after = system.process_requests(target)
        throughput = (after - mid) / window

    artifacts = scheme_obj.artifacts()
    scheme_obj.uninstall()
    return TracedRun(
        scheme=scheme_obj.name,
        workload=profile.name,
        system=system,
        target=target,
        artifacts=artifacts,
        completion_ns=completion,
        throughput_rps=throughput,
    )


def _grid_cells(
    workloads: Sequence[str],
    schemes: Sequence[str],
    node: Optional[SystemConfig],
    cpuset: Optional[Sequence[int]],
    seed: int,
    scheme_kwargs: Optional[Dict[str, dict]],
    window_s: Optional[float] = None,
):
    """The (workload × scheme) cell grid shared by the table helpers."""
    from repro.parallel.matrix import MatrixCell  # lazy: avoid import cycle

    kwargs = scheme_kwargs or {}
    return [
        MatrixCell(
            workload=workload,
            scheme=name,
            seed=seed,
            node=node,
            cpuset=tuple(cpuset) if cpuset is not None else None,
            window_s=window_s,
            scheme_kwargs=tuple(sorted(kwargs.get(name, {}).items())),
        )
        for workload in workloads
        for name in schemes
    ]


def _normalize(
    schemes: Sequence[str], values: Sequence[float]
) -> Dict[str, float]:
    by_scheme = dict(zip(schemes, values))
    oracle = by_scheme.get("Oracle")
    if not oracle:
        raise ValueError("schemes must include Oracle for normalization")
    return {name: v / oracle for name, v in by_scheme.items()}


def run_compute_slowdown(
    workload: str,
    schemes: Sequence[str] = SCHEME_ORDER,
    node: Optional[SystemConfig] = None,
    cpuset: Optional[Sequence[int]] = None,
    seed: int = 7,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    pool=None,
    jobs: Optional[int] = None,
) -> Dict[str, float]:
    """Normalized completion-time slowdowns of ``workload`` per scheme.

    Returns scheme -> slowdown (1.0 = Oracle).  The Figure 13 primitive.
    Pass ``pool`` (a :class:`repro.parallel.RunPool`) or ``jobs`` to run
    the schemes on separate workers; results are identical either way.
    """
    from repro.parallel.matrix import run_matrix

    cells = _grid_cells([workload], schemes, node, cpuset, seed, scheme_kwargs)
    results = run_matrix(cells, pool=pool, jobs=jobs)
    for result in results:
        assert result.completion_ns is not None
    return _normalize(schemes, [r.completion_ns for r in results])


def run_online_throughput(
    workload: str,
    schemes: Sequence[str] = SCHEME_ORDER,
    node: Optional[SystemConfig] = None,
    cpuset: Optional[Sequence[int]] = None,
    seed: int = 7,
    window_s: float = 0.3,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    pool=None,
    jobs: Optional[int] = None,
) -> Dict[str, float]:
    """Normalized throughput of ``workload`` per scheme (Figure 14).

    Returns scheme -> normalized throughput (1.0 = Oracle, lower = worse).
    """
    from repro.parallel.matrix import run_matrix

    cells = _grid_cells(
        [workload], schemes, node, cpuset, seed, scheme_kwargs, window_s
    )
    results = run_matrix(cells, pool=pool, jobs=jobs)
    for result in results:
        assert result.throughput_rps is not None
    return _normalize(schemes, [r.throughput_rps for r in results])


def slowdown_table(
    workloads: Sequence[str],
    schemes: Sequence[str] = SCHEME_ORDER,
    node: Optional[SystemConfig] = None,
    cpuset: Optional[Sequence[int]] = None,
    seed: int = 7,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    pool=None,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """workload -> scheme -> slowdown, for table-style figures.

    The whole (workload × scheme) grid fans out at once, so parallel
    speedup scales with the full table size, not one row at a time.
    """
    from repro.parallel.matrix import run_matrix

    cells = _grid_cells(workloads, schemes, node, cpuset, seed, scheme_kwargs)
    results = run_matrix(cells, pool=pool, jobs=jobs)
    table: Dict[str, Dict[str, float]] = {}
    n_schemes = len(schemes)
    for index, workload in enumerate(workloads):
        row = results[index * n_schemes : (index + 1) * n_schemes]
        table[workload] = _normalize(schemes, [r.completion_ns for r in row])
    return table


def run_chaos_scenario(
    faults: str = "chaos",
    fault_seed: int = 0,
    app: str = "Search1",
    nodes: int = 3,
    replicas: Optional[int] = None,
    seed: int = 11,
    jobs: int = 1,
    pool=None,
    retry_policy=None,
    reset_identities: bool = True,
    decode_cache=True,
    streaming=None,
) -> Dict:
    """One seeded chaos reconcile on a fresh cluster; returns plain data.

    Builds ``nodes`` worker nodes, deploys ``replicas`` pods of ``app``
    (default: one per node, so a crashed node cannot be resampled around
    and the coverage shortfall is visible), arms the ``faults`` plan, and
    reconciles a single anomaly TraceTask.  The returned dict is fully
    JSON-serializable: phase, coverage, the DegradationReport, and the
    structured rows — byte-comparable across runs and across ``jobs``
    (identity counters are reset first unless ``reset_identities`` is
    False, so repeated in-process runs replay identically).

    ``decode_cache`` (True, False, or a
    :class:`~repro.hwtrace.cache.DecodeCache`) controls the master's
    repetition-aware decode cache.  Cache counters stay out of the
    returned dict — cached and uncached decodes are byte-identical, so
    the dict remains comparable across cache settings and ``jobs``.

    ``streaming`` (``True`` or a :class:`~repro.streaming.StreamConfig`)
    reconciles through the online ingestion pipeline instead of batch
    decode.  Like cache counters, the streaming-ingest accounting stays
    out of the returned dict: streaming and batch runs must compare
    equal, which is exactly the parity the tests assert.
    """
    from repro.cluster.crd import TraceTaskSpec
    from repro.cluster.master import ClusterMaster, RetryPolicy
    from repro.cluster.node import ClusterNode
    from repro.core.config import TraceReason
    from repro.faults import FaultPlan
    from repro.parallel.pool import RunPool
    from repro.util.identity import reset_identity_counters

    if reset_identities:
        reset_identity_counters()
    plan = FaultPlan.parse(faults, seed=fault_seed)
    policy = retry_policy or RetryPolicy(restart_crashed_nodes=False)
    master = ClusterMaster(seed=seed, decode_cache=decode_cache)
    for index in range(nodes):
        master.add_node(ClusterNode(f"node-{index:02d}", seed=seed * 100 + index))
    master.deploy(app, replicas=replicas if replicas is not None else nodes)
    task = master.submit(TraceTaskSpec(app=app, reason=TraceReason.ANOMALY))

    def _reconcile(run_pool):
        master.reconcile(
            task, pool=run_pool, faults=plan or None, retry_policy=policy,
            streaming=streaming,
        )

    if pool is not None:
        _reconcile(pool)
    elif jobs > 1:
        with RunPool(max_workers=jobs) as owned:
            _reconcile(owned)
    else:
        _reconcile(None)

    report = task.status.degradation
    return {
        "app": app,
        "faults": plan.render(),
        "fault_seed": fault_seed,
        "jobs": jobs,
        "phase": task.status.phase.value,
        "coverage_requested": task.status.coverage_requested,
        "coverage_achieved": task.status.coverage_achieved,
        "report": report.to_dict() if report is not None else None,
        "rows": [
            {key: row[key] for key in sorted(row)}
            for row in master.sessions_for(task)
        ],
    }


def chaos_sweep(
    fault_seeds: Sequence[int],
    faults: str = "chaos",
    app: str = "Search1",
    nodes: int = 3,
    replicas: Optional[int] = None,
    seed: int = 11,
    jobs: int = 1,
    decode_cache=True,
    streaming=None,
) -> Dict:
    """Run the chaos scenario across fault seeds; aggregate the damage.

    The CI chaos lane's heavier check: every seeded run must complete
    (no raise), and the sweep summary shows how loss varies with the
    seed — mean coverage fraction, total bytes dropped, and the phase
    histogram.
    """
    runs = [
        run_chaos_scenario(
            faults=faults,
            fault_seed=fault_seed,
            app=app,
            nodes=nodes,
            replicas=replicas,
            seed=seed,
            jobs=jobs,
            decode_cache=decode_cache,
            streaming=streaming,
        )
        for fault_seed in fault_seeds
    ]
    phases: Dict[str, int] = {}
    fractions = []
    bytes_dropped = 0
    for run in runs:
        phases[run["phase"]] = phases.get(run["phase"], 0) + 1
        report = run["report"] or {}
        fractions.append(report.get("coverage_fraction", 1.0))
        bytes_dropped += report.get("bytes_dropped", 0)
    return {
        "faults": faults,
        "seeds": list(fault_seeds),
        "runs": runs,
        "phases": phases,
        "mean_coverage_fraction": (
            sum(fractions) / len(fractions) if fractions else 1.0
        ),
        "total_bytes_dropped": bytes_dropped,
    }


def throughput_table(
    workloads: Sequence[str],
    schemes: Sequence[str] = SCHEME_ORDER,
    node: Optional[SystemConfig] = None,
    cpuset: Optional[Sequence[int]] = None,
    seed: int = 7,
    window_s: float = 0.3,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    pool=None,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """workload -> scheme -> normalized throughput."""
    from repro.parallel.matrix import run_matrix

    cells = _grid_cells(
        workloads, schemes, node, cpuset, seed, scheme_kwargs, window_s
    )
    results = run_matrix(cells, pool=pool, jobs=jobs)
    table: Dict[str, Dict[str, float]] = {}
    n_schemes = len(schemes)
    for index, workload in enumerate(workloads):
        row = results[index * n_schemes : (index + 1) * n_schemes]
        table[workload] = _normalize(schemes, [r.throughput_rps for r in row])
    return table
