"""Frozen golden digests of the production decode routes.

``tests/golden/decode.json`` holds blake2b digests of the
:class:`DecodedTrace` columns plus the scalar counters for a fixed set of
inputs: a clean Search1 upload decoded strict, resilient, cached and
uncached; a multi-cr3 canonical stream; a ``corrupt:0.02`` upload decoded
resilient against a decoder that maps several pods' cr3s; and the
streaming ingestor's session-stat tuples.  Any refactor of the decoder
must reproduce these digests exactly.

Regenerate (only when decoded output is *meant* to change)::

    PYTHONPATH=src python tests/test_golden_decode.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

from repro.cluster.node import ClusterNode
from repro.core.config import TracingRequest
from repro.faults import FaultInjector, FaultPlan
from repro.hwtrace.cache import DecodeCache
from repro.hwtrace.decoder import SoftwareDecoder, encode_trace
from repro.program.workloads import get_workload
from repro.streaming import StreamingIngestor
from repro.util.identity import reset_identity_counters
from repro.util.units import MSEC

GOLDEN = Path(__file__).parent / "golden" / "decode.json"

COLUMNS = ("timestamps", "cr3s", "block_ids", "function_ids")
COUNTERS = ("overflows", "unresolved", "resyncs", "bytes_skipped")

#: cr3 no decoder below maps (its chunks decode as unresolved)
FOREIGN_CR3 = 0x7777_0000


def trace_digest(decoded) -> dict:
    """Column digests and counters of one decoded trace."""
    out = {}
    for name in COLUMNS:
        column = getattr(decoded, name).astype("<i8")
        out[name] = hashlib.blake2b(column.tobytes(), digest_size=16).hexdigest()
    for name in COUNTERS:
        out[name] = int(getattr(decoded, name))
    out["records"] = len(decoded)
    return out


def _traced_fleet():
    """Three one-pod Search1 nodes; the first pod is traced 150 ms."""
    reset_identity_counters()
    nodes = [ClusterNode(f"node-{index:02d}", seed=3 + index) for index in range(3)]
    pods = [node.place_pod(get_workload("Search1")) for node in nodes]
    node = nodes[0]
    session = node.trace_pod(
        pods[0], TracingRequest(target="Search1", period_ns=100 * MSEC)
    )
    node.run_for(150 * MSEC)
    return pods, session


def _stream_stats(binary, uploads) -> list:
    """Streaming session-stat tuples of ``(cr3, raw)`` uploads, in order."""
    ingestor = StreamingIngestor(app="Search1", binary=binary)
    outcomes = []
    for slot, (cr3, raw) in enumerate(uploads):
        outcome = SimpleNamespace(
            slot=slot, cr3=cr3, label=f"upload-{slot}", raw=raw,
            records=0, functions=0, resyncs=0, bytes_skipped=0,
        )
        ingestor.submit(outcome)
        outcomes.append(outcome)
    ingestor.finish()
    return [
        [o.records, o.functions, o.resyncs, o.bytes_skipped] for o in outcomes
    ]


def compute_golden() -> dict:
    pods, session = _traced_fleet()
    target = pods[0].process
    binary = target.binary
    cr3 = target.cr3
    raw = encode_trace(session.segments)
    single = {cr3: binary}
    multi = {pod.process.cr3: binary for pod in pods}

    cache = DecodeCache()
    cached = SoftwareDecoder(single, cache=cache)
    golden = {
        "clean_strict": trace_digest(SoftwareDecoder(single).decode(raw)),
        "clean_resilient": trace_digest(
            SoftwareDecoder(single).decode(raw, resilient=True)
        ),
        "clean_cached_cold": trace_digest(cached.decode(raw, resilient=True)),
        "clean_cached_warm": trace_digest(cached.decode(raw, resilient=True)),
    }

    # the traced pod's segments re-tagged round-robin across two mapped
    # cr3s and one foreign cr3: a canonical stream with three contexts
    cr3_cycle = [cr3, pods[1].process.cr3, FOREIGN_CR3]
    mixed = encode_trace([
        dataclasses.replace(segment, cr3=cr3_cycle[index % 3])
        for index, segment in enumerate(session.segments)
    ])
    golden["multi_cr3_uncached"] = trace_digest(SoftwareDecoder(multi).decode(mixed))
    golden["multi_cr3_cached"] = trace_digest(
        SoftwareDecoder(multi, cache=DecodeCache()).decode(mixed)
    )

    # under seed 16 the multi-cr3 decoder resolves one record that the
    # single-cr3 decoder counts as unresolved
    injector = FaultInjector(FaultPlan.parse("corrupt:0.02", seed=16))
    corrupt, _dropped = injector.mangle(raw, "node-00/Search1#w0")
    golden["corrupt_multi_cr3_resilient"] = trace_digest(
        SoftwareDecoder(multi).decode(corrupt, resilient=True)
    )
    golden["corrupt_multi_cr3_resilient_cached"] = trace_digest(
        SoftwareDecoder(multi, cache=DecodeCache()).decode(corrupt, resilient=True)
    )
    golden["corrupt_single_cr3_resilient"] = trace_digest(
        SoftwareDecoder(single).decode(corrupt, resilient=True)
    )

    golden["stream_session_stats"] = _stream_stats(
        binary, [(cr3, raw), (cr3, corrupt)]
    )
    return golden


def test_decode_matches_golden():
    recorded = json.loads(GOLDEN.read_text())
    now = compute_golden()
    assert sorted(now) == sorted(recorded)
    mismatched = [name for name in sorted(now) if now[name] != recorded[name]]
    assert not mismatched, {name: (now[name], recorded[name]) for name in mismatched}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_golden(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
