"""Cluster-wide periodic profiling campaigns.

The paper's profiling use case (§3.4): continuous, cluster-wide software
profiles built from sampled repetitions over time — "for software
profiling demanding extended coverage, we can utilize multiple trace
repetitions in the datacenter to obtain the complete profile".  A
:class:`ProfilingCampaign` drives that: on every tick it submits
profiling TraceTasks for the apps whose turn has come, under a
core-second budget per round, and accumulates the merged coverage of
each app's behaviour cycle across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.crd import TaskPhase, TraceTask, TraceTaskSpec
from repro.cluster.master import ClusterMaster
from repro.core.config import TraceReason
from repro.core.rco import augment_traces, merge_intervals
from repro.util.units import SEC


@dataclass
class AppProgress:
    """Accumulated profiling state for one application."""

    app: str
    rounds: int = 0
    tasks: List[TraceTask] = field(default_factory=list)
    #: merged symbolic-event coverage across all rounds/repetitions
    coverage: List[tuple] = field(default_factory=list)

    def coverage_fraction(self, cycle_length: int) -> float:
        """Fraction of the behaviour cycle profiled so far."""
        return augment_traces([self.coverage]).coverage_of_cycle(cycle_length)


class ProfilingCampaign:
    """Round-robin profiling of deployed apps under a per-round budget."""

    def __init__(
        self,
        master: ClusterMaster,
        apps: Sequence[str],
        budget_core_seconds_per_round: float = 5.0,
        period_ns: Optional[int] = None,
    ):
        if not apps:
            raise ValueError("campaign needs at least one app")
        unknown = [a for a in apps if a not in master.deployments]
        if unknown:
            raise ValueError(f"apps not deployed: {unknown}")
        self.master = master
        self.apps = list(apps)
        self.budget = budget_core_seconds_per_round
        self.period_ns = period_ns
        self.progress: Dict[str, AppProgress] = {
            app: AppProgress(app=app) for app in apps
        }
        self._cursor = 0
        self.rounds_run = 0

    # -- one campaign round -------------------------------------------------------

    def run_round(self, pool=None, faults=None) -> List[TraceTask]:
        """Profile as many due apps as the round budget allows.

        ``pool`` (a :class:`repro.parallel.RunPool`) is forwarded to each
        reconcile's decode fan-out; ``faults`` (a
        :class:`repro.faults.FaultPlan`) arms fault injection on every
        reconcile of the round — degraded tasks still contribute whatever
        coverage their salvaged sessions delivered.
        """
        spent = 0.0
        submitted: List[TraceTask] = []
        for _ in range(len(self.apps)):
            app = self.apps[self._cursor % len(self.apps)]
            estimate = self._estimate_cost(app)
            if submitted and spent + estimate > self.budget:
                break  # budget exhausted; resume here next round
            self._cursor += 1
            spent += estimate
            task = self.master.submit(TraceTaskSpec(
                app=app,
                reason=TraceReason.PROFILING,
                period_ns=self.period_ns,
                requester="profiling-campaign",
            ))
            self.master.reconcile(task, pool=pool, faults=faults)
            submitted.append(task)
            self._record(app, task)
        self.rounds_run += 1
        return submitted

    def _estimate_cost(self, app: str) -> float:
        deployment = self.master.deployments[app]
        profile = deployment.profile
        period = self.period_ns or self.master.rco.temporal.period_for(profile)
        # spatial sampler traces a fraction of repetitions
        expected_reps = max(1, round(0.3 * deployment.replicas))
        return expected_reps * profile.n_threads * period / SEC

    def _record(self, app: str, task: TraceTask) -> None:
        progress = self.progress[app]
        progress.rounds += 1
        progress.tasks.append(task)
        if task.status.phase not in (TaskPhase.COMPLETE, TaskPhase.DEGRADED):
            return
        # the master records per-pod coverage at reconcile time (the
        # sessions may have run inside pool workers, so node facilities
        # are not a reliable source here)
        for per_thread in self.master.task_coverage.get(task.name, {}).values():
            for intervals in per_thread.values():
                progress.coverage.extend(intervals)
        progress.coverage = merge_intervals(progress.coverage)

    # -- reporting ---------------------------------------------------------------

    def coverage_report(self) -> Dict[str, float]:
        """app -> fraction of its behaviour cycle profiled so far."""
        report = {}
        for app, progress in self.progress.items():
            cycle = self.master.deployments[app].profile.path_model().length
            report[app] = progress.coverage_fraction(cycle)
        return report

    def decode_cache_stats(self) -> Dict[str, object]:
        """The master's decode-cache counters (all-zero when disabled)."""
        return self.master.decode_cache_stats()


# ---------------------------------------------------------------------------
# replicated campaigns (parallel fan-out)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """Picklable description of one complete campaign replica.

    Each replica builds its own cluster (masters and nodes are not
    picklable), runs ``rounds`` rounds, and reduces to the primitive
    coverage report — the unit of work for :func:`run_replicated_campaigns`.
    """

    apps: tuple
    seed: int = 0
    nodes: int = 3
    replicas_per_app: int = 3
    rounds: int = 2
    budget_core_seconds_per_round: float = 5.0
    period_ns: Optional[int] = None


def run_campaign_replica(spec: CampaignSpec) -> Dict[str, float]:
    """Build a fresh cluster, run one campaign replica, report coverage."""
    from repro.cluster.node import ClusterNode

    master = ClusterMaster(seed=spec.seed)
    for index in range(spec.nodes):
        master.add_node(
            ClusterNode(f"node-{index:02d}", seed=spec.seed * 1000 + index)
        )
    for app in spec.apps:
        master.deploy(app, replicas=spec.replicas_per_app)
    campaign = ProfilingCampaign(
        master,
        list(spec.apps),
        budget_core_seconds_per_round=spec.budget_core_seconds_per_round,
        period_ns=spec.period_ns,
    )
    for _ in range(spec.rounds):
        campaign.run_round()
    return campaign.coverage_report()


def run_replicated_campaigns(
    specs: Sequence[CampaignSpec],
    pool=None,
    jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Run independent campaign replicas, one cluster each, in parallel.

    Results come back in spec order regardless of completion order, so
    the merged view (e.g. mean coverage per app) is deterministic across
    worker counts.  The Figure 20 repetition premise at harness level:
    distinct seeds cover distinct parts of each app's behaviour cycle.
    """
    from repro.parallel.pool import RunPool

    specs = list(specs)
    if pool is not None:
        return pool.map(run_campaign_replica, specs)
    with RunPool(max_workers=jobs or 1) as owned:
        return owned.map(run_campaign_replica, specs)
