"""Process-global identity counters, resettable for replay harnesses.

Several simulation entities draw identities from module-global
``itertools.count`` streams (pids/tids, pod uids, session ids, task
names, RPC span ids).  Those streams make identities unique across every
cluster built in one interpreter — which is what experiments want — but
they also leak across *independent* runs: the second cluster built in a
process gets different pids, hence different CR3 values, hence different
trace *bytes* than the first, even with identical seeds.

Byte-level replay comparisons (the fault-injection determinism check:
same fault seed, ``jobs=1`` vs ``jobs=N``, byte-identical
DegradationReport and merged rows) therefore call
:func:`reset_identity_counters` before each run, returning every stream
to its boot value.  Only replay harnesses should do this — resetting
while entities from a previous run are still in use would mint duplicate
identities.

The RPC span-id stream is legacy-only: the vectorized service engine
derives span ids structurally from ``(request_id, call_index)`` via
:func:`repro.services.rpc.span_id_for`, so its output is
placement-invariant without any counter to rewind.
"""

from __future__ import annotations

import itertools

#: Module-global mutable state that is *deliberately* process-lifetime —
#: never reset by replay harnesses — each with the reason it is exempt.
#: This registry is the static half of the determinism contract: the
#: EX005 rule of :mod:`repro.staticcheck` fails the build when a module
#: grows mutable global state that is neither rewound by
#: :func:`reset_identity_counters` nor consciously listed here.  The
#: bar for an entry: its contents must be *output-invisible* or explicit
#: process configuration set through a documented API.  A memo is
#: output-invisible only if its value is a pure function of its key: a
#: hit returns exactly what a miss would recompute, whatever was stored
#: before.  Objects that accumulate state across calls (a decoder whose
#: cr3 mapping grows with every upload it sees) fail that bar.
PROCESS_LIFETIME_STATE = frozenset({
    # pure memoization: the key fixes the value (content-addressed decode
    # results, generated binaries and path models)
    ("repro.hwtrace.cache", "_PROCESS_CACHE"),
    ("repro.program.generator", "_BINARY_CACHE"),
    ("repro.program.path", "_PATH_CACHE"),
    # process-role marker: set once by the pool worker initializer so
    # nested RunPools degrade to in-process execution
    ("repro.parallel.pool", "_IN_WORKER"),
    # explicit configuration API (configure_transport), not ambient state
    ("repro.parallel.transport", "_MODE"),
    # the persistent process-wide worker pool (process_pool() /
    # shutdown_process_pool()): execution machinery, output-invisible —
    # results are merged by task index, never by worker or pool identity
    ("repro.parallel.workers", "_PROCESS_POOL"),
    # monotonic worker-id stream: ids only name OS processes (respawned
    # workers get fresh ids); no simulation output ever derives from them
    ("repro.parallel.workers", "_worker_ids"),
})

#: Fork-boundary *entry points*: callables whose function argument runs
#: inside a forked pool worker.  Everything (transitively) reachable
#: from a task callable passed to one of these executes in a child
#: process whose memory is thrown away after the task — only the
#: returned value ships back (through ``ShippedArrays`` or pickle).  The
#: EX008 rule of :mod:`repro.staticcheck` walks the call graph from
#: these roots and fails the build when a reachable function mutates
#: module-global state that is neither rewound by
#: :func:`reset_identity_counters` nor listed in
#: :data:`PROCESS_LIFETIME_STATE`: such writes silently diverge between
#: the parent (never sees them) and the worker (carries them into later
#: tasks) — the parent/worker divergence class PR 6 hit.
FORK_ENTRY_POINTS = frozenset({
    "repro.parallel.pool.RunPool.map",
    "repro.parallel.pool.RunPool.broadcast",
    "repro.parallel.workers.WorkerPool.map",
    "repro.parallel.workers.WorkerPool.broadcast",
    "repro.parallel.workers.process_pool",
})


def reset_identity_counters() -> None:
    """Rewind all module-global identity streams to their boot values."""
    from repro.cluster import crd, pod
    from repro.core import otc
    from repro.kernel import task
    from repro.services import rpc

    task._pid_counter = itertools.count(1000)
    task._tid_counter = itertools.count(5000)
    crd._task_counter = itertools.count(1)
    pod._pod_counter = itertools.count(1)
    otc._session_ids = itertools.count(1)
    rpc._span_counter = itertools.count(1)
