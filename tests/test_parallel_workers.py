"""Tests for the persistent work-stealing worker pool.

The contract under test: one long-lived set of fork workers serves every
:class:`RunPool` in the process (startup amortized away), a task
exception surfaces in the parent without leaking or killing workers, a
worker *crash* is contained by respawn, and shutdown is idempotent and
always reaps.
"""

import multiprocessing
import os
import time

import pytest

from repro.parallel import RunPool, configure_transport, transport_mode
from repro.parallel.pool import _fork_available
from repro.parallel.workers import (
    WorkerCrashError,
    WorkerPool,
    process_pool,
    process_pool_stats,
    shutdown_process_pool,
)

pytestmark = pytest.mark.skipif(
    not _fork_available(), reason="requires fork"
)


@pytest.fixture
def fresh_pool():
    """A private (non-singleton) pool, always reaped."""
    pool = WorkerPool(2, base_seed=7)
    yield pool
    pool.close()


def _square(x):
    return x * x


def _worker_pid(_):
    return os.getpid()


def _boom(x):
    if x == 3:
        raise ValueError(f"boom {x}")
    return x


def _die(x):
    if x == 2:
        os._exit(13)
    return x


def _uneven_sleep(x):
    time.sleep(0.03 if x == 0 else 0.001)
    return x


def _report_transport(_):
    return transport_mode()


class TestWorkerPool:
    def test_map_preserves_order(self, fresh_pool):
        assert fresh_pool.map(_square, range(10)) == [x * x for x in range(10)]

    def test_workers_persist_across_maps(self, fresh_pool):
        first = set(fresh_pool.map(_worker_pid, range(8)))
        second = set(fresh_pool.map(_worker_pid, range(8)))
        # the same forked children served both maps — no churn
        assert first == second
        assert fresh_pool.stats.respawns == 0
        assert fresh_pool.stats.maps == 2

    def test_exception_surfaces_and_pool_survives(self, fresh_pool):
        before = len(multiprocessing.active_children())
        with pytest.raises(ValueError, match="boom 3"):
            fresh_pool.map(_boom, range(8))
        # the failed map neither leaked nor killed children
        assert len(multiprocessing.active_children()) == before
        assert fresh_pool.map(_square, [5]) == [25]
        assert fresh_pool.stats.task_failures >= 1

    def test_crash_respawns_worker(self, fresh_pool):
        with pytest.raises(WorkerCrashError):
            fresh_pool.map(_die, range(5))
        assert fresh_pool.stats.respawns >= 1
        assert fresh_pool.width == 2
        # the pool is healthy again after the crash
        assert fresh_pool.map(_square, range(3)) == [0, 1, 4]

    def test_steals_counted_on_uneven_work(self, fresh_pool):
        results = fresh_pool.map(_uneven_sleep, range(12))
        assert results == list(range(12))
        assert fresh_pool.stats.steals >= 1

    def test_close_is_idempotent_and_reaps(self):
        pool = WorkerPool(2)
        children = {w.process.pid for w in pool._workers}
        pool.close()
        pool.close()
        assert pool.closed
        alive = {p.pid for p in multiprocessing.active_children()}
        assert not (children & alive)

    def test_map_after_close_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(_square, [1])

    def test_grow_adds_workers(self, fresh_pool):
        fresh_pool.grow(3)
        assert fresh_pool.width == 3
        assert fresh_pool.map(_square, range(6)) == [x * x for x in range(6)]

    def test_empty_map(self, fresh_pool):
        assert fresh_pool.map(_square, []) == []

    def test_transport_config_syncs_to_live_workers(self, fresh_pool):
        previous = configure_transport("pickle")
        try:
            assert fresh_pool.map(_report_transport, [0]) == ["pickle"]
        finally:
            configure_transport(previous)
        # restoring the parent config re-syncs the live workers too
        assert fresh_pool.map(_report_transport, [0]) == [transport_mode()]


class TestProcessPoolSingleton:
    def test_runpools_share_one_worker_set(self):
        shutdown_process_pool()
        with RunPool(max_workers=2) as first:
            shared = first._pool
            with RunPool(max_workers=2) as second:
                assert second._pool is shared
        # RunPool.close detaches without reaping the shared workers
        assert shared is not None and not shared.closed
        assert process_pool_stats() is not None
        shutdown_process_pool()
        assert process_pool_stats() is None

    def test_pool_grows_for_wider_consumers(self):
        shutdown_process_pool()
        narrow = process_pool(2)
        assert narrow.width == 2
        wide = process_pool(3)
        assert wide is narrow and wide.width == 3
        shutdown_process_pool()

    def test_shutdown_is_idempotent(self):
        process_pool(1)
        shutdown_process_pool()
        shutdown_process_pool()

    def test_fresh_pool_after_shutdown(self):
        first = process_pool(1)
        shutdown_process_pool()
        second = process_pool(1)
        assert second is not first and not second.closed
        shutdown_process_pool()


class TestRunPoolFacade:
    def test_exception_does_not_leak_children(self):
        shutdown_process_pool()
        with RunPool(max_workers=2) as pool:
            width = pool._pool.width
            before = len(multiprocessing.active_children())
            with pytest.raises(ValueError):
                pool.map(_boom, range(8))
            assert len(multiprocessing.active_children()) == before == width
            assert pool.map(_square, [2]) == [4]
        shutdown_process_pool()
        assert not multiprocessing.active_children()
