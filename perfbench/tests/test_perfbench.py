"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(span_id, name, start, end, parent=None):
    return spans.Span(span_id, name, start, end, parent, "test")


def test_self_time_on_hand_built_span_tree():
    tree = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "a.child", 2.0, 3.0, parent=1),
        # overlaps "a": the root's covered time is the union [1, 6]
        _span(3, "b", 3.0, 6.0, parent=0),
        # reaches past its parent: only the part inside "b" counts
        _span(4, "b.child", 5.0, 7.0, parent=3),
        _span(5, "other-root", 20.0, 21.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0, 5: 1.0})
    under = spans.descendants(tree, [0])
    assert [s.span_id for s in under] == [0, 1, 2, 3, 4]
    assert spans.self_time_by_name(under)["root"] == pytest.approx(5.0)


def test_wrapper_self_time_counts_as_unattributed():
    tree = [
        _span(0, "bench.op", 0.0, 10.0),
        _span(1, "cluster.reconcile", 0.5, 10.0, parent=0),
        _span(2, "kernel.run_for", 1.0, 6.0, parent=1),
        _span(3, "hwtrace.encode", 6.0, 9.0, parent=1),
    ]
    by_name = spans.self_time_by_name(tree)
    # 0.5 s before the reconcile plus 1.5 s inside it but in no stage
    assert bench_run.unattributed_share(by_name, 10.0) == pytest.approx(20.0)


def test_recorder_skips_reentry_and_foreign_processes():
    recorder = spans.SpanRecorder("test")
    recorder.enabled = True
    outer = recorder.begin("layer")
    assert recorder.begin("layer") is None  # re-entry is not counted twice
    inner = recorder.begin("child")
    recorder.end(inner)
    recorder.end(outer)
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("layer", None), ("child", 0)
    ]
    recorder._pid = -1  # as seen from a forked pool worker
    assert recorder.begin("layer") is None


def test_patcher_wraps_functions_methods_and_classmethods():
    class Target:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return cls, x

    module = type(sys)("fake_layer")
    module.function = lambda x: x * 2
    recorder = spans.SpanRecorder("test")
    patcher = spans.Patcher(recorder)
    patcher.wrap(Target, "method", "t.method", lambda args, result: {"r": result})
    patcher.wrap(Target, "build", "t.build")
    patcher.wrap(module, "function", "m.function")
    patcher.install()
    recorder.enabled = True
    assert Target().method(1) == 2
    assert Target.build(3) == (Target, 3)
    assert module.function(4) == 8
    patcher.uninstall()
    assert Target().method(1) == 2
    assert [s.name for s in recorder.spans] == ["t.method", "t.build", "m.function"]
    assert recorder.spans[0].attrs == {"r": 2}


def test_new_seed_changes_trace_queries_inputs():
    first, second = workloads.TraceQueries(7), workloads.TraceQueries(8)
    stream = [first.query(i) for i in range(50)]
    assert stream != [second.query(i) for i in range(50)]
    assert (first.by_rank, first.corrupted) != (second.by_rank, second.corrupted)
    # the query stream is a pure function of the seed
    again = workloads.TraceQueries(7)
    assert [again.query(i) for i in range(50)] == stream
    # and so is the fleet whose uploads the queries read
    seeds = [
        sorted(node.seed for node in
               workloads.ReconcileSteady(seed)._build_master().nodes.values())
        for seed in (7, 8)
    ]
    assert seeds[0] != seeds[1]


def _queries_run(flip: bool):
    args = Namespace(workload="trace-queries", seed=7, seconds=0, trace=0)
    run = bench_run.Run(args, workloads, spans)
    run.setup()
    if flip:
        store, key = run.workload.store, run.workload.keys[0]
        data = bytearray(store.get(key))
        data[len(data) // 2] ^= 0x01
        store.put(key, bytes(data))
    run.loop()
    return run, run.verify(bench_run.load_recorded("trace-queries", 7))


def test_recorded_digests_hold_and_a_one_byte_flip_fails_them():
    assert bench_run.load_recorded("trace-queries", 7) is not None
    run, _record = _queries_run(flip=False)
    assert not run.failed, run.errors[:3]
    run, _record = _queries_run(flip=True)
    assert len(run.failed) == len(run.digests)
    assert any("recorded outputs" in error for error in run.errors)
