#!/usr/bin/env python3
"""End-to-end benchmark of the EXIST reproduction.

    python3 perfbench/run.py --workload reconcile-steady --seed 7 \\
        --seconds 25 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) in a closed
loop for ``--seconds`` seconds, checks every operation's output, and
prints the metrics as the last line of standard output:

* ``--trace 0`` — the end-to-end metrics, measured with no
  instrumentation installed;
* ``--trace 1`` — the per-layer metrics: every other operation runs with
  span wrappers around each layer's public entry points, and the spans
  are written to ``.perfbench/spans-<workload>-s<seed>.json``.

All timings are host wall-clock time.  Modelled (virtual-time) figures
are printed in the report lines above the result and checked as exact
counters, never timed.
"""

from __future__ import annotations

import time

#: run start: set-up time counts from here, imports included
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
SPAN_DIR = ROOT / ".perfbench"

#: cold set-ups per run (this process plus fresh subprocesses); their
#: median is ``setup_s``
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150
#: largest share of traced operation time the layer spans may leave
#: unattributed
MAX_UNATTRIBUTED = 0.05

#: modelled (virtual-time) figures printed in the report line
MODELLED_UNITS = {
    "modelled_overhead_permille": "permille",
    "modelled_p99_ms": "ms",
    "coverage_ratio": "ratio",
}
#: spans whose self time no stage accounts for: the operation itself and
#: the one layer call that wraps a whole operation
UNSTAGED_SPANS = ("bench.op", "cluster.reconcile", "services.campaign")

#: span name -> per-layer time metric (self time per traced operation)
SPAN_METRICS = {
    "kernel.run_for": "kernel.run_for_s",
    "hwtrace.encode": "hwtrace.encode_s",
    "hwtrace.decode": "hwtrace.decode_s",
    "core.trace_pod": "core.trace_pod_s",
    "cluster.materialize": "cluster.materialize_s",
    "cluster.reconcile": "cluster.reconcile_self_s",
    "analysis.coverage": "analysis.coverage_s",
    "core.rco.augment": "core.rco.augment_s",
    "analysis.histogram": "analysis.histogram_s",
    "parallel.map": "parallel.map_s",
    "parallel.broadcast": "parallel.broadcast_s",
    "streaming.submit": "streaming.submit_s",
    "streaming.finish": "streaming.finish_s",
    "faults.mangle": "faults.mangle_s",
    "services.engine": "services.engine_s",
    "services.arrivals": "services.arrivals_s",
    "services.compile": "services.compile_s",
    "services.campaign": "services.merge_s",
}
#: spans timed during set-up (totals), added to any per-operation time
SETUP_SPAN_METRICS = {
    "program.binary": "program.binary_s",
    "parallel.pool_start": "parallel.pool_start_s",
    "faults.mangle": "faults.mangle_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up once, print the set-up time and exit (set-up sampling)",
    )
    return parser.parse_args(argv)


def metric_units():
    """(end-to-end, per-layer) metric -> unit, in BENCHMARK.json order."""
    with open(SPEC) as handle:
        spec = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def unattributed_share(self_by_name: dict, op_wall: float) -> float:
    """Share of traced operation time in no stage span, in percent."""
    unstaged = sum(self_by_name.get(name, 0.0) for name in UNSTAGED_SPANS)
    return 100.0 * unstaged / op_wall if op_wall else 0.0


def load_recorded(workload: str, seed: int):
    """The digests recorded for (workload, seed), or None."""
    if not DIGESTS.exists():
        return None
    with open(DIGESTS) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh process (cold imports and caches)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args, wl, spans):
        self.args = args
        self.spans = spans
        self.workload = wl.WORKLOADS[args.workload](args.seed)
        self.wl = wl
        self.recorder = spans.SpanRecorder(
            f"{args.workload}-s{args.seed}-{os.getpid()}"
        )
        self.patcher = None
        if args.trace:
            self.patcher = spans.Patcher(self.recorder)
            wl.layer_patches(self.patcher)
        self.op_times = []
        self.traced = []
        self.works = []
        self.digests = []
        self.counters = []
        self.failed = set()
        self.errors = []

    # -- phases ------------------------------------------------------------

    def setup(self) -> float:
        if self.patcher is not None:
            self.patcher.install()
            self.recorder.enabled = True
        span = self.recorder.begin("bench.setup")
        self.workload.setup()
        self.workload.prepare()
        self.recorder.end(span)
        self.recorder.enabled = False
        if self.patcher is not None:
            self.patcher.uninstall()
        return time.perf_counter() - T0

    def loop(self) -> None:
        workload = self.workload
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            estimate = statistics.median(self.op_times) if self.op_times else 0.0
            min_ops = workload.min_ops * (2 if self.args.trace else 1)
            if index >= min_ops and elapsed + estimate > self.args.seconds:
                break
            if index:
                workload.prepare()
            traced = bool(self.args.trace) and index % 2 == 0
            self.run_one(index, traced)
            index += 1

    def run_one(self, index: int, traced: bool) -> None:
        workload = self.workload
        if traced:
            self.patcher.install()
            self.recorder.enabled = True
        span = self.recorder.begin("bench.op")
        try:
            began = time.perf_counter()
            result = workload.run_op(index)
            elapsed = time.perf_counter() - began
        except Exception:
            self.fail(index, traceback.format_exc())
            self.digests.append(None)
            self.counters.append(None)
            return
        finally:
            self.recorder.end(span)
            self.recorder.enabled = False
            if traced:
                self.patcher.uninstall()
        self.op_times.append(elapsed)
        self.traced.append(traced)
        self.works.append(workload.work(result))
        try:
            out_digest, counters = workload.check_op(index, result)
        except self.wl.CheckError as exc:
            self.fail(index, f"check failed: {exc}")
            out_digest, counters = None, None
        self.digests.append(out_digest)
        self.counters.append(counters)

    def fail(self, index: int, message: str) -> None:
        self.failed.add(index)
        self.errors.append(f"op {index}: {message}")

    def verify(self, recorded) -> dict:
        """Compare every operation against its expected outputs."""
        n_ops = len(self.digests)
        expected = self.workload.expected_digests(n_ops)
        first = next((i for i in range(n_ops) if self.digests[i]), None)
        if first is None:
            return {}
        if expected is None:
            reference = recorded["outputs"] if recorded else self.digests[first]
            expected = [reference] * n_ops
        for index, (got, want) in enumerate(zip(self.digests, expected)):
            if got is not None and got != want:
                self.fail(index, f"output digest {got} != expected {want}")
            counters = self.counters[index]
            if counters is not None and counters != self.counters[first]:
                self.fail(index, "counters differ from the first operation")
        outputs, counters = self.workload.run_record(
            self.digests, [c for c in self.counters if c is not None] or [None]
        )
        if recorded is not None:
            mismatch = []
            if recorded["outputs"] != outputs:
                mismatch.append("outputs")
            if recorded["counters"] != counters:
                mismatch.append("counters")
            if mismatch:
                for index in range(n_ops):
                    self.fail(index, f"recorded {'/'.join(mismatch)} digest mismatch")
        return {"outputs": outputs, "counters": counters}

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, counters: dict) -> dict:
        spans_mod = self.spans
        spans = self.recorder.spans
        traced_ops = [s for s in spans if s.name == "bench.op"]
        n = len(traced_ops)
        under_ops = spans_mod.descendants(spans, [s.span_id for s in traced_ops])
        self_by_name = spans_mod.self_time_by_name(under_ops)
        values = {}
        for name, total in self_by_name.items():
            if name in SPAN_METRICS:
                values[SPAN_METRICS[name]] = total / n
        setup_roots = [s.span_id for s in spans if s.name == "bench.setup"]
        for span in spans_mod.descendants(spans, setup_roots):
            if span.name in SETUP_SPAN_METRICS:
                metric = SETUP_SPAN_METRICS[span.name]
                values[metric] = values.get(metric, 0.0) + span.duration
        values["bench.unattributed_pct"] = unattributed_share(
            self_by_name, sum(s.duration for s in traced_ops)
        )
        timed = [t for t, tr in zip(self.op_times, self.traced) if tr]
        plain = [t for t, tr in zip(self.op_times, self.traced) if not tr]
        if timed and plain:
            values["bench.trace_overhead_pct"] = 100.0 * (
                statistics.median(timed) / statistics.median(plain) - 1.0
            )
        encode = [s for s in under_ops if s.name == "hwtrace.encode"]
        values["hwtrace.encode_mb"] = sum(s.attrs["bytes"] for s in encode) / 1e6 / n
        decodes = [s for s in under_ops if s.name == "hwtrace.decode"]
        if "hwtrace.decode_mb" not in counters:
            for metric, key, scale in (
                ("hwtrace.decode_mb", "bytes", 1e6),
                ("hwtrace.decode_records", "records", 1),
                ("hwtrace.decode_resyncs", "resyncs", 1),
                ("hwtrace.decode_bytes_skipped", "skipped", 1),
            ):
                values[metric] = sum(s.attrs[key] for s in decodes) / scale / n
        for route, corrupt in (("clean", False), ("corrupt", True)):
            chosen = [s for s in decodes if bool(s.attrs["skipped"]) == corrupt]
            seconds = sum(s.duration for s in chosen)
            if seconds:
                values[f"hwtrace.decode_{route}_mb_s"] = (
                    sum(s.attrs["bytes"] for s in chosen) / 1e6 / seconds
                )
        values.update(counters)
        if values.get("kernel.run_for_s"):
            values["kernel.events_per_s"] = (
                values["kernel.events"] / values["kernel.run_for_s"]
            )
        return values

    def end_to_end(self, units, setup_samples, peak_rss_mb: float) -> dict:
        """name -> (value, unit, sample count), in the order of ``units``."""
        ops = len(self.op_times)
        # a median of per-operation rates: a ratio of sums is a mean, which
        # a few operations slowed by the host move as much as all the rest
        rates = [w / t for w, t in zip(self.works, self.op_times)]
        values = {
            "setup_s": (statistics.median(setup_samples), len(setup_samples)),
            "op_p50_ms": (1000 * statistics.median(self.op_times), ops),
            "work_per_s": (statistics.median(rates), ops),
            "peak_rss_mb": (peak_rss_mb, 1),
        }
        return {
            name: (values[name][0], unit, values[name][1])
            for name, unit in units.items()
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads as wl
    from repro.parallel.workers import shutdown_process_pool

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known:"
              f" {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    run = Run(args, wl, spans)
    try:
        setup_s = run.setup()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run.loop()
        recorded = load_recorded(args.workload, args.seed)
        record = run.verify(recorded)
        peak_rss_mb = run.workload.peak_rss_mb()
        counters = record.get("counters") or {}
        if args.trace:
            values = run.layer_metrics(counters)
        run.workload.close()
    finally:
        shutdown_process_pool()

    correct = not run.failed
    if args.trace and values["bench.unattributed_pct"] > 100 * MAX_UNATTRIBUTED:
        correct = False
        run.errors.append(
            f"{args.workload}: layer spans leave"
            f" {values['bench.unattributed_pct']:.1f}% of traced operation time"
            f" unattributed (limit {100 * MAX_UNATTRIBUTED:.0f}%)"
        )
    for line in run.errors[:20]:
        print(f"perfbench {args.workload}: {line}", file=sys.stderr)

    if args.trace:
        spans.write_spans(
            SPAN_DIR / f"spans-{args.workload}-s{args.seed}.json",
            run.recorder.spans,
        )
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in layer_units.items()
        }
    else:
        samples = [setup_s]
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(setup_sample(args.workload, args.seed))
        e2e = run.end_to_end(e2e_units, samples, peak_rss_mb)
        report = dict(e2e)
        report.update(run.workload.report(run.op_times, run.works))
        for name, unit in MODELLED_UNITS.items():
            if name in counters:
                report[name] = (counters[name], unit, 1)
        print(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "work_unit": run.workload.work_unit,
            "report": {
                name: {"value": v, "unit": u, "samples": n}
                for name, (v, u, n) in report.items()
            },
            "digests": record,
        }))
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in e2e.items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.digests),
        "failed": len(run.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
