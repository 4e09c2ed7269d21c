"""Golden-equality and fuzz tests for the vectorized columnar codec.

The columnar scanner (:mod:`repro.hwtrace.codec`) and the SoA decode path
must be indistinguishable from the object-level reference: identical
bytes out of the encoder, identical records/counters out of the decoder,
identical packets and resync counts out of the resilient scan — on clean
streams, corrupt streams, and arbitrary packet mixes.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hwtrace.cache import DecodeCache
from repro.hwtrace.codec import scan_stream, scan_stream_resilient
from repro.hwtrace.decoder import DecodedTrace, SoftwareDecoder, encode_trace, encode_trace_objects
from repro.hwtrace.packets import (
    OvfPacket,
    PacketError,
    PipPacket,
    PsbPacket,
    PtwPacket,
    TipPacket,
    TntPacket,
    TscPacket,
    encode_packets,
    parse_stream,
    parse_stream_resilient,
)
from repro.hwtrace.tracer import TraceSegment


def make_segment(path, *, cr3=0x1000, e0=0, e1=50, t0=100, truncate=None):
    captured = truncate if truncate is not None else e1
    return TraceSegment(
        core_id=0, pid=1, tid=2, cr3=cr3,
        t_start=t0, t_end=t0 + 100,
        event_start=e0, event_end=e1, captured_event_end=captured,
        bytes_offered=1000.0, bytes_accepted=1000.0,
        path_model=path,
    )


@pytest.fixture
def segments(tiny_path):
    return [
        make_segment(tiny_path, cr3=0x1000, e0=0, e1=400, t0=100),
        make_segment(tiny_path, cr3=0x2000, e0=3, e1=200, t0=50, truncate=90),
        make_segment(tiny_path, cr3=0x1000, e0=7, e1=7, t0=10),
        make_segment(tiny_path, cr3=0x3000, e0=5, e1=60, t0=400),
    ]


def assert_traces_equal(a: DecodedTrace, b: DecodedTrace):
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.cr3s, b.cr3s)
    assert np.array_equal(a.block_ids, b.block_ids)
    assert np.array_equal(a.function_ids, b.function_ids)
    assert a.overflows == b.overflows
    assert a.unresolved == b.unresolved
    assert a.resyncs == b.resyncs
    assert a.ptwrites == b.ptwrites


class TestGoldenEncode:
    def test_byte_identical_to_object_encoder(self, segments):
        assert encode_trace(segments) == encode_trace_objects(segments)

    def test_empty(self):
        assert encode_trace([]) == encode_trace_objects([]) == b""


class TestGoldenDecode:
    def test_strict_matches_object_path(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        data = encode_trace(segments)
        assert_traces_equal(
            decoder.decode(data), decoder.decode_objects(data)
        )

    def test_records_view_matches(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        data = encode_trace(segments)
        assert decoder.decode(data).records == decoder.decode_objects(data).records

    def test_resilient_matches_on_corrupt_streams(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        base = encode_trace(segments)
        rng = random.Random(20250806)
        for _ in range(100):
            data = bytearray(base)
            for _ in range(rng.randrange(1, 8)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data)
            vectorized = decoder.decode(data, resilient=True)
            reference = decoder.decode_objects(data, resilient=True)
            assert_traces_equal(vectorized, reference)

    def test_strict_raises_same_error(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary})
        data = bytearray(encode_trace(segments))
        data[40] = 0x01  # invalid header mid-stream
        with pytest.raises(PacketError) as vectorized_error:
            decoder.decode(bytes(data))
        with pytest.raises(PacketError) as reference_error:
            decoder.decode_objects(bytes(data))
        assert str(vectorized_error.value) == str(reference_error.value)
        assert vectorized_error.value.offset == reference_error.value.offset


class TestScanPacketEquivalence:
    ALL_TYPES = [
        PsbPacket(),
        TscPacket(1_000_000),
        PipPacket(0x7700_0000),
        TntPacket((True, False, True, True)),
        TipPacket(0x401000),
        PtwPacket(0xDEADBEEF),
        TntPacket((False,)),
        TipPacket(0x402040),
        OvfPacket(),
    ]

    def test_all_packet_types_roundtrip(self):
        data = encode_packets(self.ALL_TYPES)
        assert scan_stream(data).to_packets() == parse_stream(data)
        assert scan_stream(data).to_packets() == self.ALL_TYPES

    def test_empty_stream(self):
        scanned = scan_stream(b"")
        assert len(scanned) == 0
        assert scanned.to_packets() == []

    def test_fuzz_roundtrip_random_packet_mixes(self):
        rng = random.Random(7)
        makers = [
            lambda r: PsbPacket(),
            lambda r: OvfPacket(),
            lambda r: PipPacket(r.randrange(1 << 48)),
            lambda r: TscPacket(r.randrange(1 << 56)),
            lambda r: TipPacket(r.randrange(1 << 48)),
            lambda r: PtwPacket(r.randrange(1 << 64)),
            lambda r: TntPacket(
                tuple(bool(r.randrange(2)) for _ in range(r.randrange(1, 7)))
            ),
        ]
        for _ in range(60):
            packets = [
                rng.choice(makers)(rng) for _ in range(rng.randrange(0, 40))
            ]
            data = encode_packets(packets)
            assert scan_stream(data).to_packets() == packets

    def test_fuzz_resilient_scan_matches_object_parser(self):
        rng = random.Random(99)
        packets = [
            PsbPacket(), TscPacket(1), PipPacket(0x1000), TipPacket(0x400000),
            TntPacket((True, False)), PtwPacket(7),
            PsbPacket(), TscPacket(2), PipPacket(0x2000), TipPacket(0x400040),
        ]
        base = encode_packets(packets)
        for _ in range(200):
            data = bytearray(base)
            for _ in range(rng.randrange(1, 6)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data)
            reference, resyncs = parse_stream_resilient(data)
            scanned = scan_stream_resilient(data)
            assert scanned.to_packets() == reference
            assert scanned.resyncs == resyncs


class TestPacketErrorOffset:
    def test_offset_is_structured(self):
        with pytest.raises(PacketError) as excinfo:
            parse_stream(b"\x19\x01\x02")  # truncated TSC at offset 0
        assert excinfo.value.offset == 0
        assert "at offset 0" in str(excinfo.value)

    def test_offset_mid_stream(self):
        data = TscPacket(5).encode() + bytes([0x01])
        with pytest.raises(PacketError) as excinfo:
            parse_stream(data)
        assert excinfo.value.offset == 8

    def test_encode_errors_have_no_offset(self):
        with pytest.raises(PacketError) as excinfo:
            TipPacket(1 << 48).encode()
        assert excinfo.value.offset is None

    def test_scan_errors_carry_offset(self):
        data = TscPacket(5).encode() + bytes([0x01])
        with pytest.raises(PacketError) as excinfo:
            scan_stream(data)
        assert excinfo.value.offset == 8


class TestDecodeMany:
    def test_merges_all_fields(self, tiny_path, tiny_binary):
        stream_a = encode_trace([make_segment(tiny_path, t0=100, e1=5)])
        stream_b = encode_trace([make_segment(tiny_path, t0=50, e1=5, truncate=3)])
        stream_c = encode_packets([
            PsbPacket(), TscPacket(75), PipPacket(0x1000), PtwPacket(42),
        ])
        decoder = SoftwareDecoder({0x1000: tiny_binary})
        merged = decoder.decode_many([stream_a, stream_b, stream_c])
        assert len(merged) == 8
        assert merged.overflows == 1
        assert merged.ptwrites == [(75, 0x1000, 42)]
        times = merged.timestamps.tolist()
        assert times == sorted(times)

    def test_resilient_flag_plumbed(self, tiny_path, tiny_binary):
        clean = encode_trace([make_segment(tiny_path, t0=10, e1=20)])
        corrupt = bytearray(
            encode_trace([make_segment(tiny_path, t0=20, e1=20)])
        )
        corrupt[40] = 0x01
        decoder = SoftwareDecoder({0x1000: tiny_binary})
        with pytest.raises(PacketError):
            decoder.decode_many([clean, bytes(corrupt)])
        merged = decoder.decode_many([clean, bytes(corrupt)], resilient=True)
        assert merged.resyncs >= 1
        assert len(merged) >= 20

    def test_empty_input(self, tiny_binary):
        merged = SoftwareDecoder({0x1000: tiny_binary}).decode_many([])
        assert len(merged) == 0
        assert merged.time_span() is None


class TestSoaView:
    def test_columns_are_parallel_int64(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        decoded = decoder.decode(encode_trace(segments))
        n = len(decoded)
        for column in (
            decoded.timestamps,
            decoded.cr3s,
            decoded.block_ids,
            decoded.function_ids,
        ):
            assert column.dtype == np.int64
            assert column.shape == (n,)

    def test_histogram_matches_bincount(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        decoded = decoder.decode(encode_trace(segments))
        histogram = decoded.function_histogram()
        assert sum(histogram.values()) == len(decoded)
        counts = decoded.visit_counts(tiny_binary.n_blocks)
        assert int(counts.sum()) == len(decoded)

    def test_from_records_roundtrip(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        decoded = decoder.decode(encode_trace(segments))
        rebuilt = DecodedTrace.from_records(
            decoded.records,
            overflows=decoded.overflows,
            unresolved=decoded.unresolved,
            resyncs=decoded.resyncs,
            ptwrites=list(decoded.ptwrites),
        )
        assert_traces_equal(decoded, rebuilt)


#: one stream edit: overwrite a byte, insert bytes, or cut the tail
_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16), st.just(b"")),
)


def _mutate(base: bytes, edits) -> bytes:
    data = bytearray(base)
    for kind, position, payload in edits:
        at = position % (len(data) + 1)
        if kind == "flip" and data:
            data[at % len(data)] = payload
        elif kind == "insert":
            data[at:at] = payload
        elif kind == "truncate":
            del data[at:]
    return bytes(data)


def _fuzz_base(path) -> bytes:
    # repeated bodies under two cr3s (cache hits within one stream), a
    # truncated chunk, and a cr3 no decoder maps
    return encode_trace([
        make_segment(path, cr3=0x1000, e0=0, e1=40, t0=100),
        make_segment(path, cr3=0x2000, e0=0, e1=40, t0=200),
        make_segment(path, cr3=0x1000, e0=40, e1=90, t0=300, truncate=60),
        make_segment(path, cr3=0x3000, e0=5, e1=30, t0=400),
    ])


class TestDecodeRouteFuzz:
    """The cached and uncached routes against the object-level reference."""

    @staticmethod
    def _decoders(tiny_binary):
        mapping = {0x1000: tiny_binary, 0x2000: tiny_binary}
        return (
            SoftwareDecoder(mapping, cache=DecodeCache()),
            SoftwareDecoder(mapping),
        )

    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(_EDITS, max_size=6))
    def test_resilient_routes_agree(self, tiny_path, tiny_binary, edits):
        data = _mutate(_fuzz_base(tiny_path), edits)
        cached, uncached = self._decoders(tiny_binary)
        via_cache = cached.decode(data, resilient=True)
        plain = uncached.decode(data, resilient=True)
        reference = uncached.decode_objects(data, resilient=True)
        assert_traces_equal(via_cache, reference)
        assert_traces_equal(plain, reference)
        assert via_cache.bytes_skipped == plain.bytes_skipped <= len(data)

    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(_EDITS, max_size=6))
    def test_strict_routes_fail_together(self, tiny_path, tiny_binary, edits):
        data = _mutate(_fuzz_base(tiny_path), edits)
        cached, uncached = self._decoders(tiny_binary)
        outcomes = []
        for decode in (cached.decode, uncached.decode, uncached.decode_objects):
            try:
                outcomes.append(decode(data))
            except PacketError as error:
                outcomes.append(error)
        failed = [isinstance(outcome, PacketError) for outcome in outcomes]
        assert all(failed) or not any(failed)
        if not any(failed):
            assert_traces_equal(outcomes[0], outcomes[2])
            assert_traces_equal(outcomes[1], outcomes[2])
