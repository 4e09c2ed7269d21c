"""Persistent work-stealing worker pool (the fork-per-wave killer).

:class:`~repro.parallel.pool.RunPool` originally built a fresh
``ProcessPoolExecutor`` per ``map`` call: every scenario matrix, decode
fan-out, and reconcile wave paid worker startup again, and on small grids
the fork tax exceeded the parallel win (``matrix_speedup`` 0.96 < 1).
This module replaces that with **one long-lived set of fork workers per
process**, shared by every pool consumer:

* **work stealing** — ``map`` assigns tasks round-robin onto per-worker
  deques (locality: a worker drains its own deque front-first), and a
  worker that runs dry *steals from the back of the longest sibling
  deque*, so one decode-heavy cell cannot straggle the whole wave while
  siblings idle;
* **warm state reuse** — workers fork once and survive across ``map``
  calls, so the process decode cache and generated binary/path caches
  stay warm from one wave to the next instead of being rebuilt per call;
* **determinism** — results are merged by task index (a pure function of
  ``(fn, items)``), and the worker reseeds the global ``random`` /
  ``numpy`` generators from ``derive_seed(base_seed, "task", index)``
  before *every* task, so even stray global-RNG use is a function of the
  task, not of which worker or completion order it drew — ``jobs=1`` vs
  ``jobs=N`` outputs stay byte-identical;
* **crash containment** — a worker that dies mid-task (OOM-kill,
  ``os._exit`` in user code) is reaped and respawned, and its in-flight
  task is re-dispatched (twice at most, then the failure surfaces);
* **idempotent shutdown** — ``close()`` is safely re-entrant, runs from
  ``atexit`` so workers are always reaped, and workers are daemonic so a
  crashed parent can never leak them.

Task exceptions do **not** poison the pool: the exception is shipped
back, remaining dispatches stop, in-flight tasks drain, and the original
exception re-raises in the parent — with every worker still alive for
the next ``map``.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.util.rng import derive_seed

T = TypeVar("T")
R = TypeVar("R")

#: re-dispatch attempts for a task whose worker died while running it
_MAX_TASK_ATTEMPTS = 2

_worker_ids = itertools.count(0)


class WorkerCrashError(RuntimeError):
    """A task repeatedly killed the worker that ran it."""


@dataclass
class PoolStats:
    """Counters the pool benchmark and the soak smoke read."""

    maps: int = 0
    tasks: int = 0
    steals: int = 0
    respawns: int = 0
    task_failures: int = 0


class _RemoteError:
    """A worker-side exception, shipped as picklable pieces."""

    __slots__ = ("exception", "formatted")

    def __init__(self, exc: BaseException):
        import traceback

        self.formatted = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        try:
            import pickle

            pickle.dumps(exc)
            self.exception: Optional[BaseException] = exc
        except Exception:
            self.exception = None

    def rebuild(self) -> BaseException:
        if self.exception is not None:
            return self.exception
        return RuntimeError(f"pool task failed:\n{self.formatted}")


def _reseed_globals(seed: int) -> None:
    import random

    import numpy as np

    random.seed(seed)
    np.random.seed(seed % (2**32 - 1))


def _apply_worker_config(config: dict) -> None:
    """Apply parent-side process configuration inside a worker.

    Persistent workers fork *once*, so configuration the parent changes
    afterwards (today: the transport mode override) must be re-synced;
    the pool broadcasts this before each ``map``.
    """
    from repro.parallel import transport

    mode = config.get("transport_mode")
    if mode is not None and transport._MODE != mode:
        transport.configure_transport(mode)


def _worker_config() -> dict:
    """Parent-side snapshot of the config workers must mirror."""
    from repro.parallel import transport

    return {"transport_mode": transport._MODE}


def _worker_main(conn: Connection, worker_id: int, base_seed: int) -> None:
    """Persistent worker loop: recv message, run, reply, repeat.

    Messages:

    * ``None`` — shut down;
    * ``("call", fn, args)`` — broadcast call (config sync, warmups);
      replies ``("call", ok, payload)``;
    * ``("tasks", fn, [(index, item), ...])`` — run a chunk of tasks;
      replies ``("tasks", [(index, ok, payload), ...])``.
    """
    from repro.parallel import pool as pool_module

    pool_module._IN_WORKER = True
    _reseed_globals(derive_seed(base_seed, "worker", worker_id))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        kind = message[0]
        if kind == "call":
            _, fn, args = message
            try:
                conn.send(("call", True, fn(*args)))
            except BaseException as exc:  # noqa: B036 - must ship anything
                conn.send(("call", False, _RemoteError(exc)))
            continue
        _, fn, batch = message
        replies = []
        for index, item in batch:
            # per-task reseed: stray global-RNG use becomes a function of
            # the task index, never of worker identity or placement
            _reseed_globals(derive_seed(base_seed, "task", index))
            try:
                replies.append((index, True, fn(item)))
            except BaseException as exc:  # noqa: B036 - must ship anything
                replies.append((index, False, _RemoteError(exc)))
        conn.send(("tasks", replies))
    try:
        conn.close()
    except OSError:  # pragma: no cover - already torn down
        pass


class _Worker:
    """One persistent fork worker and its duplex pipe."""

    def __init__(self, base_seed: int):
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.worker_id = next(_worker_ids)
        self.conn = parent_conn
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, self.worker_id, base_seed),
            daemon=True,
            name=f"repro-pool-{self.worker_id}",
        )
        self.process.start()
        child_conn.close()
        #: config snapshot last synced into this worker
        self.synced_config: Optional[dict] = None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, timeout: float = 2.0) -> None:
        try:
            if self.alive:
                self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout)
        if self.alive:  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class WorkerPool:
    """Long-lived fork workers with parent-coordinated work stealing.

    The parent owns the per-worker task deques and dispatches over pipes
    (tasks are coarse — milliseconds to seconds — so coordination cost is
    noise).  A worker finishing its chunk is handed the next index from
    its *own* deque front; when that runs dry the parent steals from the
    **back** of the longest sibling deque, which is exactly the classic
    steal-half locality argument: the back of a deque holds the work its
    owner would reach last.
    """

    def __init__(self, max_workers: int, base_seed: int = 0):
        self.base_seed = int(base_seed)
        self.stats = PoolStats()
        self._workers: List[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False
        self.grow(max_workers)

    # -- sizing ------------------------------------------------------------

    @property
    def width(self) -> int:
        """Current worker count."""
        return len(self._workers)

    def grow(self, max_workers: int) -> None:
        """Ensure at least ``max_workers`` workers exist.

        New workers fork *now*, inheriting the parent's current warm
        caches copy-on-write; existing workers are untouched.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._lock:
            while len(self._workers) < max_workers:
                self._workers.append(_Worker(self.base_seed))

    # -- mapping -----------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        chunksize: int = 1,
        width: Optional[int] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item; results in input order.

        ``width`` caps how many workers this call dispatches to (a
        ``--jobs 2`` consumer of an 8-wide shared pool uses 2); steals
        move work between the participating workers only.
        """
        from repro.parallel.transport import resolve_shipped

        items = list(items)
        if self._closed:
            raise RuntimeError("pool is closed")
        if not items:
            return []
        with self._lock:
            self.stats.maps += 1
            workers = self._workers[: width or len(self._workers)]
            self._sync_config(workers)
            chunksize = max(1, int(chunksize))
            n_workers = len(workers)

            results: List[Optional[R]] = [None] * len(items)
            deques: List[deque] = [deque() for _ in range(n_workers)]
            for index in range(len(items)):
                deques[index % n_workers].append(index)
            attempts: Dict[int, int] = {}
            #: worker slot -> batch of (index, item) currently running there
            in_flight: Dict[int, List] = {}
            failure: Optional[BaseException] = None

            def next_batch(slot: int) -> List:
                batch = []
                own = deques[slot]
                while own and len(batch) < chunksize:
                    batch.append(own.popleft())
                if not batch:
                    victim = max(range(n_workers), key=lambda v: len(deques[v]))
                    if deques[victim]:
                        self.stats.steals += 1
                        while deques[victim] and len(batch) < chunksize:
                            batch.append(deques[victim].pop())
                return [(index, items[index]) for index in batch]

            def dispatch(slot: int) -> None:
                batch = next_batch(slot)
                if batch:
                    in_flight[slot] = batch
                    workers[slot].conn.send(("tasks", fn, batch))

            def respawn(slot: int) -> None:
                self.stats.respawns += 1
                workers[slot].stop(timeout=0.5)
                replacement = _Worker(self.base_seed)
                workers[slot] = replacement
                if slot < len(self._workers):
                    self._workers[slot] = replacement

            for slot in range(n_workers):
                dispatch(slot)

            while in_flight:
                conn_to_slot = {
                    workers[slot].conn: slot for slot in in_flight
                }
                ready = connection_wait(list(conn_to_slot))
                for conn in ready:
                    slot = conn_to_slot[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        # worker died mid-batch: respawn, re-dispatch its
                        # tasks unless one of them already struck twice
                        lost = in_flight.pop(slot)
                        respawn(slot)
                        nonlocal_failure = None
                        for index, _item in lost:
                            attempts[index] = attempts.get(index, 0) + 1
                            if attempts[index] >= _MAX_TASK_ATTEMPTS:
                                nonlocal_failure = WorkerCrashError(
                                    f"task {index} killed its worker "
                                    f"{attempts[index]} times"
                                )
                        if nonlocal_failure is not None:
                            failure = failure or nonlocal_failure
                        elif failure is None:
                            for index, _item in reversed(lost):
                                deques[slot].appendleft(index)
                        if failure is None:
                            dispatch(slot)
                        continue
                    kind, payload = message[0], message[1]
                    in_flight.pop(slot)
                    assert kind == "tasks"
                    for index, ok, value in payload:
                        self.stats.tasks += 1
                        if ok:
                            # materialize shm handoffs promptly, so every
                            # segment is reclaimed inside map()
                            results[index] = resolve_shipped(value)
                        else:
                            self.stats.task_failures += 1
                            if failure is None:
                                failure = value.rebuild()
                    if failure is None:
                        dispatch(slot)

            if failure is not None:
                raise failure
            return results  # type: ignore[return-value]

    def broadcast(
        self, fn: Callable, args: tuple = (), width: Optional[int] = None
    ) -> List:
        """Run ``fn(*args)`` once in every worker (warmups, config).

        ``width`` restricts the broadcast to the first ``width`` workers —
        the same subset a ``map`` of that width dispatches over, so a
        narrow facade can warm exactly the workers it will use.
        """
        with self._lock:
            workers = self._workers if width is None else self._workers[:width]
            return self._broadcast_locked(workers, fn, args)

    def _broadcast_locked(
        self, workers: List[_Worker], fn: Callable, args: tuple
    ) -> List:
        for worker in workers:
            worker.conn.send(("call", fn, args))
        replies = []
        for worker in workers:
            _kind, ok, payload = worker.conn.recv()
            if not ok:
                raise payload.rebuild()
            replies.append(payload)
        return replies

    def _sync_config(self, workers: List[_Worker]) -> None:
        """Mirror parent-side config into stale workers (cheap no-op when
        nothing changed since the last map that used them)."""
        config = _worker_config()
        stale = [w for w in workers if w.synced_config != config]
        if not stale:
            return
        self._broadcast_locked(stale, _apply_worker_config, (config,))
        for worker in stale:
            worker.synced_config = dict(config)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Reap every worker (idempotent, re-entrant safe)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{self.width} workers"
        return f"WorkerPool({state}, stats={self.stats})"


#: the process-wide persistent pool every RunPool consumer shares;
#: created on first parallel map, reaped at interpreter exit
_PROCESS_POOL: Optional[WorkerPool] = None


def process_pool(max_workers: int, base_seed: int = 0) -> WorkerPool:
    """The process-wide persistent pool, grown to ``max_workers``.

    The first caller creates (and atexit-registers) the pool; later
    callers that need more workers grow it — the new workers fork at that
    moment and inherit whatever the parent has warm.  The pool never
    shrinks: a narrower consumer simply dispatches over a subset
    (``WorkerPool.map(width=...)``).
    """
    global _PROCESS_POOL
    if _PROCESS_POOL is None or _PROCESS_POOL.closed:
        _PROCESS_POOL = WorkerPool(max_workers, base_seed=base_seed)
        atexit.register(shutdown_process_pool)
    elif _PROCESS_POOL.width < max_workers:
        _PROCESS_POOL.grow(max_workers)
    return _PROCESS_POOL


def shutdown_process_pool() -> None:
    """Reap the process-wide pool (idempotent; runs from atexit)."""
    global _PROCESS_POOL
    pool = _PROCESS_POOL
    if pool is not None:
        pool.close()
        _PROCESS_POOL = None


def process_pool_stats() -> Optional[PoolStats]:
    """Stats of the live process-wide pool, or ``None`` if not created."""
    if _PROCESS_POOL is None or _PROCESS_POOL.closed:
        return None
    return _PROCESS_POOL.stats
