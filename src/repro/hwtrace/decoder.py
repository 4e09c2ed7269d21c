"""Software trace decoder (the libipt stand-in).

Two halves:

* :func:`encode_trace` — serialize captured :class:`TraceSegment`s into a
  binary packet stream (what the hardware would have written to memory
  and the facility uploaded to object storage);
* :class:`SoftwareDecoder` — parse that stream back and reconstruct the
  control flow against the program binaries, producing a
  :class:`DecodedTrace` (timestamped block executions attributed to a
  process via PIP/CR3).

The round trip is genuine: the decoder sees only bytes and binaries, and
every reconstruction consumed by the analysis layer flows through it.

Throughput architecture: both directions are columnar.  The encoder
assembles each segment's event body from preallocated numpy byte arrays
(:func:`repro.hwtrace.codec.encode_event_records`) and the decoder scans
packet framing with numpy (:mod:`repro.hwtrace.codec`), forward-fills
TSC/PIP context over the packet columns, and resolves TIP addresses to
blocks with a sorted-array ``searchsorted`` — no per-packet or per-record
Python objects exist on the hot path.  The result is a
structure-of-arrays :class:`DecodedTrace` whose ``records`` property
remains available as an object-level compatibility view, and
:meth:`SoftwareDecoder.decode_objects` keeps the original per-packet
reference implementation for golden comparisons.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hwtrace.cache import (
    CHUNK_HEADER_BYTES,
    UNKNOWN_BINARY_FP,
    ChunkEntry,
    ChunkPlan,
    DecodeCache,
    binary_fingerprint,
    plan_chunks,
)
from repro.hwtrace.codec import (
    KIND_OVF,
    KIND_PIP,
    KIND_PTW,
    KIND_TIP,
    KIND_TNT,
    KIND_TSC,
    ScannedStream,
    encode_event_records,
    scan_stream,
    scan_stream_resilient,
)
from repro.hwtrace.packets import (
    OVF_BYTES,
    PSB_BYTES,
    OvfPacket,
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
from repro.program.binary import Binary

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: TIP header byte of an 8-byte event record (codec framing)
_TIP_HEADER_BYTE = 0x0D

#: shared entry for canonical chunks with no event records
_EMPTY_ENTRY = ChunkEntry(
    block_ids=_EMPTY_I64, function_ids=_EMPTY_I64, unresolved=0, n_records=0
)


def _valid_record_words(words: np.ndarray) -> bool:
    """True when every uint64 record word has canonical TNT/TIP framing.

    Word layout (little-endian): byte0 = TNT (even, >= 4), byte1 = TIP
    header, bytes 2..7 = 48-bit address in the word's high bits.
    """
    if words.size == 0:
        return True
    return bool(
        (
            ((words & 0x01) == 0)
            & ((words & 0xFF) >= 4)
            & ((words & 0xFF00) == _TIP_HEADER_BYTE << 8)
        ).all()
    )


def _canonical_chunks(
    data: bytes,
) -> Optional[Tuple[ChunkPlan, List[bytes], np.ndarray]]:
    """Plan a stream into PSB chunks and validate it as fully canonical.

    Returns the chunk plan, every chunk's event body (the bytes after its
    32-byte ``PSB TSC PIP`` header, trailing OVF stripped) and the
    little-endian uint64 record words of all bodies joined — or ``None``
    when the stream is empty, is not a pure canonical chunk sequence, or
    any event record is malformed.  ``None`` hands the stream to the
    packet scan, whose error semantics are definitive.
    """
    if not data:
        return None
    plan = plan_chunks(data, np.frombuffer(data, dtype=np.uint8), PSB_BYTES)
    if plan is None or not plan.all_canonical:
        return None
    bodies = [
        data[start + CHUNK_HEADER_BYTES : end - (2 if tail else 0)]
        for start, end, tail in zip(
            plan.starts.tolist(), plan.ends.tolist(), plan.tail_ovf.tolist()
        )
    ]
    joined = b"".join(bodies)
    if len(joined) % 8:
        return None
    words = np.frombuffer(joined, dtype="<u8")
    if not _valid_record_words(words):
        return None
    return plan, bodies, words


def split_canonical_stream(data: bytes) -> Optional[List[Tuple[int, bytes]]]:
    """Split a canonical upload into per-chunk ``(cr3, body)`` work units.

    Returns one entry per PSB chunk of a fully canonical stream, the body
    ready for :meth:`SoftwareDecoder.decode_chunk`, or ``None`` when the
    bytes need the full resilient scan (or a dead-letter quarantine)
    instead of incremental decode.
    """
    canonical = _canonical_chunks(data)
    if canonical is None:
        return None
    plan, bodies, _words = canonical
    return list(zip(plan.cr3s.tolist(), bodies))


def _record_addresses(words: np.ndarray) -> np.ndarray:
    """48-bit TIP address of each record word (its high 6 bytes)."""
    return (words >> np.uint64(16)).astype(np.int64)


def _chunk_entry(blocks: np.ndarray, functions: np.ndarray) -> ChunkEntry:
    """Context-free cache entry of one chunk's resolved records (-1: miss)."""
    keep = blocks >= 0
    return ChunkEntry(
        block_ids=blocks[keep].copy(),
        function_ids=functions[keep].copy(),
        unresolved=int(blocks.size - np.count_nonzero(keep)),
        n_records=int(blocks.size),
    )


def _binary_tables(binary: Binary) -> Tuple[Dict[int, int], Tuple[np.ndarray, ...]]:
    """Address map and sorted-address table of one binary.

    Both are pure functions of the binary, so they are built once and
    memoized on the instance, like its cache fingerprint: a fresh decoder
    per upload then costs a few dict stores.  The table is ``(sorted
    addresses, block id per sorted slot, function id per block id)``.
    """
    tables = getattr(binary, "_decode_tables", None)
    if tables is None:
        addresses = binary.block_addresses
        order = np.argsort(addresses)
        tables = (
            {block.address: block.block_id for block in binary.blocks},
            (addresses[order], order.astype(np.int64), binary.block_function_ids),
        )
        binary._decode_tables = tables
    return tables


def encode_trace(segments: Sequence[TraceSegment]) -> bytes:
    """Serialize captured segments into one packet stream.

    Each segment becomes ``PSB TSC PIP (TNT TIP)* [OVF]``: per captured
    symbolic event, one TNT byte carries representative conditional
    branch outcomes and one TIP carries the event's block address.  A
    truncated segment ends with an OVF packet so the decoder knows data
    was lost there.

    The event body is assembled columnar (one vectorized pass per
    segment); the bytes are identical to what per-packet object encoding
    produced.
    """
    parts: List[bytes] = []
    for segment in segments:
        parts.append(PSB_BYTES)
        parts.append(TscPacket(segment.t_start).encode())
        parts.append(PipPacket(segment.cr3).encode())
        events = segment.captured_block_ids()
        binary = segment.path_model.binary
        parts.append(
            encode_event_records(events, binary.block_addresses[events])
        )
        if segment.truncated:
            parts.append(OVF_BYTES)
    return b"".join(parts)


class DecodedRecord:
    """One reconstructed block execution (object view of one SoA row)."""

    __slots__ = ("timestamp", "cr3", "block_id", "function_id")

    def __init__(self, timestamp: int, cr3: int, block_id: int, function_id: int):
        self.timestamp = timestamp
        self.cr3 = cr3
        self.block_id = block_id
        self.function_id = function_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecodedRecord(timestamp={self.timestamp}, cr3={self.cr3:#x}, "
            f"block_id={self.block_id}, function_id={self.function_id})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecodedRecord):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.cr3 == other.cr3
            and self.block_id == other.block_id
            and self.function_id == other.function_id
        )

    def __hash__(self) -> int:
        return hash((self.timestamp, self.cr3, self.block_id, self.function_id))


class DecodedTrace:
    """Reconstruction result for one packet stream, structure-of-arrays.

    Four parallel int64 arrays hold one reconstructed block execution per
    index: ``timestamps``, ``cr3s``, ``block_ids``, ``function_ids``.
    All aggregation helpers operate on the columns directly; the
    ``records`` property materializes the old object-level view for
    callers that still want :class:`DecodedRecord` instances.
    """

    def __init__(
        self,
        timestamps: Optional[np.ndarray] = None,
        cr3s: Optional[np.ndarray] = None,
        block_ids: Optional[np.ndarray] = None,
        function_ids: Optional[np.ndarray] = None,
        overflows: int = 0,
        unresolved: int = 0,
        resyncs: int = 0,
        ptwrites: Optional[List[tuple]] = None,
        bytes_skipped: int = 0,
    ):
        self.timestamps = timestamps if timestamps is not None else _EMPTY_I64
        self.cr3s = cr3s if cr3s is not None else _EMPTY_I64
        self.block_ids = block_ids if block_ids is not None else _EMPTY_I64
        self.function_ids = function_ids if function_ids is not None else _EMPTY_I64
        #: count of OVF packets seen (data-loss points)
        self.overflows = overflows
        #: TIP addresses that matched no known binary block
        self.unresolved = unresolved
        #: PSB resynchronizations performed on corrupt input
        self.resyncs = resyncs
        #: input bytes discarded while resynchronizing past corruption
        self.bytes_skipped = bytes_skipped
        #: PTWRITE payloads, timestamped ((time, cr3, value))
        self.ptwrites: List[tuple] = ptwrites if ptwrites is not None else []

    @classmethod
    def from_records(
        cls,
        records: Sequence[DecodedRecord],
        overflows: int = 0,
        unresolved: int = 0,
        resyncs: int = 0,
        ptwrites: Optional[List[tuple]] = None,
    ) -> "DecodedTrace":
        """Build the SoA form from an object-level record sequence."""
        n = len(records)
        return cls(
            timestamps=np.fromiter((r.timestamp for r in records), np.int64, n),
            cr3s=np.fromiter((r.cr3 for r in records), np.int64, n),
            block_ids=np.fromiter((r.block_id for r in records), np.int64, n),
            function_ids=np.fromiter((r.function_id for r in records), np.int64, n),
            overflows=overflows,
            unresolved=unresolved,
            resyncs=resyncs,
            ptwrites=ptwrites,
        )

    @property
    def records(self) -> List[DecodedRecord]:
        """Object-level compatibility view (built on demand)."""
        return [
            DecodedRecord(t, c, b, f)
            for t, c, b, f in zip(
                self.timestamps.tolist(),
                self.cr3s.tolist(),
                self.block_ids.tolist(),
                self.function_ids.tolist(),
            )
        ]

    def _select(self, column: np.ndarray, cr3: Optional[int]) -> np.ndarray:
        return column if cr3 is None else column[self.cr3s == cr3]

    def block_sequence(self, cr3: Optional[int] = None) -> List[int]:
        """Ordered block ids (optionally restricted to one process)."""
        return self._select(self.block_ids, cr3).tolist()

    def function_histogram(self, cr3: Optional[int] = None) -> Dict[int, int]:
        """function_id -> occurrence count."""
        function_ids = self._select(self.function_ids, cr3)
        unique, counts = np.unique(function_ids, return_counts=True)
        return {int(f): int(c) for f, c in zip(unique, counts)}

    def visit_counts(self, n_blocks: int, cr3: Optional[int] = None) -> np.ndarray:
        """Per-block execution counts over the reconstruction."""
        block_ids = self._select(self.block_ids, cr3)
        counts = np.bincount(block_ids, minlength=n_blocks)
        if counts.size > n_blocks:
            raise IndexError(
                f"block id {int(block_ids.max())} out of range for "
                f"{n_blocks} blocks"
            )
        return counts.astype(np.int64)

    def time_span(self) -> Optional[tuple]:
        """(first, last) record timestamp, or None when empty."""
        if self.timestamps.size == 0:
            return None
        return (int(self.timestamps.min()), int(self.timestamps.max()))

    def __len__(self) -> int:
        return int(self.block_ids.size)


class SoftwareDecoder:
    """Reconstructs execution flow from packet bytes and binaries.

    ``binaries`` maps CR3 values to program binaries, mirroring how the
    production decoder fetches binaries from the binary repository keyed
    by the traced process (§4).  A TIP resolves only under a CR3 in this
    mapping, so the cluster decodes each upload with a decoder of its
    own that maps just that upload's CR3 (see :func:`upload_session_stats`).

    ``cache`` (optional) puts the repetition-aware decode cache in front
    of the canonical route: chunk bodies seen before — by *any* decoder
    sharing the cache — skip address resolution entirely (see
    :mod:`repro.hwtrace.cache`).  Results are byte-identical with and
    without it.
    """

    def __init__(
        self,
        binaries: Mapping[int, Binary],
        cache: Optional[DecodeCache] = None,
    ):
        self._binaries: Dict[int, Binary] = {}
        self._address_maps: Dict[int, Dict[int, int]] = {}
        # sorted-address tables for vectorized TIP resolution:
        # cr3 -> (sorted addresses, block id per sorted slot, function ids)
        self._tables: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # cr3 -> content fingerprint of its binary (decode-cache keying)
        self._fingerprints: Dict[int, bytes] = {}
        self.cache = cache
        for cr3, binary in binaries.items():
            self.add_binary(cr3, binary)

    def add_binary(self, cr3: int, binary: Binary) -> None:
        """Register (or replace) the binary mapped at ``cr3``.

        Replacing a binary also replaces the CR3's cache fingerprint, so
        decode-cache entries produced under the old binary can never
        resolve against the new one.
        """
        self._binaries[cr3] = binary
        self._address_maps[cr3], self._tables[cr3] = _binary_tables(binary)
        self._fingerprints[cr3] = binary_fingerprint(binary)

    @classmethod
    def for_processes(cls, processes: Iterable[object]) -> "SoftwareDecoder":
        """Build from kernel :class:`Process` objects carrying binaries."""
        mapping = {}
        for process in processes:
            binary = getattr(process, "binary", None)
            if isinstance(binary, Binary):
                mapping[process.cr3] = binary
        return cls(mapping)

    # -- vectorized path (production) --------------------------------------

    def decode(self, data: bytes, resilient: bool = False) -> DecodedTrace:
        """Parse and reconstruct one core's packet stream.

        ``resilient`` enables PSB resynchronization on corrupt input (the
        production decoder's behaviour); strict mode raises on bad
        framing, which is what tests and integrity checks want.

        Canonical streams (everything :func:`encode_trace` emits) skip the
        packet scan: every chunk's timestamp and CR3 sit in its header, so
        the records resolve in one batched pass and the header context is
        repeated over each chunk's records.  Anything else — corruption,
        truncation, PTWRITEs, hand-built packet mixes — takes the scan;
        a canonical stream has no resyncs, skipped bytes, PTWRITEs or
        mid-chunk context switches, so both give the same result.
        """
        if not data:
            return DecodedTrace()
        canonical = _canonical_chunks(data)
        if canonical is None:
            if self.cache is not None:
                self.cache.note_fallback()
            if resilient:
                return self._reconstruct(scan_stream_resilient(data))
            return self._reconstruct(scan_stream(data))
        plan, bodies, words = canonical
        overflows = int(np.count_nonzero(plan.tail_ovf))
        if self.cache is not None:
            entries = self._cached_entries(
                self.cache, plan.cr3s.tolist(), bodies, words
            )
            lengths = np.fromiter(
                (entry.block_ids.size for entry in entries), np.int64, len(entries)
            )
            return DecodedTrace(
                timestamps=np.repeat(plan.times, lengths),
                cr3s=np.repeat(plan.cr3s, lengths),
                block_ids=np.concatenate([e.block_ids for e in entries]),
                function_ids=np.concatenate([e.function_ids for e in entries]),
                overflows=overflows,
                unresolved=sum(entry.unresolved for entry in entries),
            )
        counts = np.fromiter((len(body) >> 3 for body in bodies), np.int64, len(bodies))
        record_cr3s = np.repeat(plan.cr3s, counts)
        record_times = np.repeat(plan.times, counts)
        block_ids, function_ids = self._resolve(
            _record_addresses(words), record_cr3s, plan.cr3s.tolist()
        )
        unresolved = int(np.count_nonzero(block_ids < 0))
        if unresolved:
            keep = block_ids >= 0
            record_times = record_times[keep]
            record_cr3s = record_cr3s[keep]
            block_ids = block_ids[keep]
            function_ids = function_ids[keep]
        return DecodedTrace(
            timestamps=record_times,
            cr3s=record_cr3s,
            block_ids=block_ids,
            function_ids=function_ids,
            overflows=overflows,
            unresolved=unresolved,
        )

    def decode_chunk(self, cr3: int, body: bytes) -> ChunkEntry:
        """Decode one canonical chunk *body* against ``cr3``'s binary.

        The streaming-ingest unit of work: ``body`` is everything after a
        chunk's 32-byte ``PSB TSC PIP`` header (trailing OVF stripped),
        exactly as produced by :func:`split_canonical_stream`.  Returns
        the context-free :class:`ChunkEntry` — what :meth:`decode`
        computes for the same chunk, served from the attached
        :class:`DecodeCache` when one is present.  The caller is
        responsible for having validated the body's record framing.
        """
        if not body:
            return _EMPTY_ENTRY
        key = (self._fingerprints.get(cr3, UNKNOWN_BINARY_FP), body)
        cache = self.cache
        entry = cache.get(key) if cache is not None else None
        if entry is None:
            words = np.frombuffer(body, dtype="<u8")
            entry = _chunk_entry(
                *self._resolve_addresses(cr3, _record_addresses(words))
            )
            if cache is not None:
                cache.put(key, entry)
        return entry

    def _cached_entries(
        self,
        cache: DecodeCache,
        cr3s: List[int],
        bodies: List[bytes],
        words: np.ndarray,
    ) -> List[ChunkEntry]:
        """Per-chunk results of a validated canonical stream, cache first.

        ``words`` holds the record words of all ``bodies`` joined.  Every
        non-empty body is looked up before any entry is inserted (the
        cache counters depend on that order); the missed bodies then
        resolve in one batched pass and split back per chunk.
        """
        keys = [
            (self._fingerprints.get(cr3, UNKNOWN_BINARY_FP), body)
            for cr3, body in zip(cr3s, bodies)
        ]
        entries: List[Optional[ChunkEntry]] = [
            cache.get(key) if key[1] else _EMPTY_ENTRY for key in keys
        ]
        misses = [index for index, entry in enumerate(entries) if entry is None]
        if not misses:
            return entries  # type: ignore[return-value]
        counts = np.fromiter((len(body) >> 3 for body in bodies), np.int64, len(bodies))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        rows = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in misses])
        miss_cr3s = [cr3s[i] for i in misses]
        miss_counts = counts[misses]
        blocks, functions = self._resolve(
            _record_addresses(words[rows]),
            np.repeat(np.asarray(miss_cr3s, dtype=np.int64), miss_counts),
            miss_cr3s,
        )
        boundaries = np.cumsum(miss_counts)[:-1]
        for index, chunk_blocks, chunk_functions in zip(
            misses, np.split(blocks, boundaries), np.split(functions, boundaries)
        ):
            entries[index] = entry = _chunk_entry(chunk_blocks, chunk_functions)
            cache.put(keys[index], entry)
        return entries  # type: ignore[return-value]

    def _resolve(
        self, addresses: np.ndarray, record_cr3s: np.ndarray, cr3s: Iterable[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(block_ids, function_ids) for TIP addresses, each under its
        record's CR3 (``record_cr3s``); ``cr3s`` lists the candidates.

        One :meth:`_resolve_addresses` call per candidate CR3 this decoder
        maps; unresolvable addresses come back as -1 in both columns.
        """
        candidates = sorted(set(cr3s))
        if len(candidates) == 1:
            # dominant shape (one traced process per upload): resolve the
            # whole column without building a selection mask
            return self._resolve_addresses(candidates[0], addresses)
        block_ids = np.full(addresses.size, -1, dtype=np.int64)
        function_ids = np.full(addresses.size, -1, dtype=np.int64)
        for cr3 in candidates:
            if cr3 not in self._tables:
                continue  # unknown process: every TIP stays unresolved
            selected = record_cr3s == cr3
            if not selected.any():
                continue
            blocks, functions = self._resolve_addresses(cr3, addresses[selected])
            block_ids[selected] = blocks
            function_ids[selected] = functions
        return block_ids, function_ids

    def _resolve_addresses(
        self, cr3: int, addresses: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(block_ids, function_ids) for TIP addresses under one CR3.

        Unresolvable addresses (unknown process, empty binary, or no
        block at the address) come back as -1 in both columns.  When
        every address hits — the overwhelmingly common case — the masked
        ``np.where`` blends are skipped entirely.
        """
        table = self._tables.get(cr3)
        if table is None or table[0].size == 0:
            misses = np.full(addresses.size, -1, dtype=np.int64)
            return misses, misses
        sorted_addresses, slot_block_ids, binary_function_ids = table
        slots = np.searchsorted(sorted_addresses, addresses)
        np.minimum(slots, sorted_addresses.size - 1, out=slots)
        hits = sorted_addresses[slots] == addresses
        if hits.all():
            block_ids = slot_block_ids[slots]
            return block_ids, binary_function_ids[block_ids]
        block_ids = np.where(hits, slot_block_ids[slots], -1)
        function_ids = np.where(
            hits, binary_function_ids[np.maximum(block_ids, 0)], -1
        )
        return block_ids, function_ids

    def _reconstruct(self, scanned: ScannedStream) -> DecodedTrace:
        """Turn scanned packet columns into a decoded SoA trace."""
        kinds = scanned.kinds
        values = scanned.values
        # TNT packets carry no event-level information below symbolic
        # resolution; drop their rows once so every later pass runs on
        # half the column length
        relevant = kinds != KIND_TNT
        kinds = kinds[relevant]
        values = values[relevant]
        overflows = int(np.count_nonzero(kinds == KIND_OVF))
        tip_mask = kinds == KIND_TIP
        ptw_mask = kinds == KIND_PTW
        if not tip_mask.any() and not ptw_mask.any():
            return DecodedTrace(
                overflows=overflows,
                resyncs=scanned.resyncs,
                bytes_skipped=scanned.bytes_skipped,
            )

        # forward-fill decode context over the packet sequence: each
        # packet sees the value of the last TSC / PIP at or before it
        pip_mask = kinds == KIND_PIP
        times = _forward_fill(kinds == KIND_TSC, values)
        cr3s = _forward_fill(pip_mask, values)

        ptwrites = [
            (int(t), int(c), int(v))
            for t, c, v in zip(
                times[ptw_mask], cr3s[ptw_mask], values[ptw_mask]
            )
        ]

        tip_times = times[tip_mask]
        tip_cr3s = cr3s[tip_mask]
        # candidate contexts come from the (few) PIP packets, not from a
        # sort over the per-record cr3 column; 0 is the pre-PIP default
        block_ids, function_ids = self._resolve(
            values[tip_mask].astype(np.int64),
            tip_cr3s,
            np.unique(values[pip_mask]).tolist() + [0],
        )
        keep = block_ids >= 0
        unresolved = int(block_ids.size - np.count_nonzero(keep))
        return DecodedTrace(
            timestamps=tip_times[keep],
            cr3s=tip_cr3s[keep],
            block_ids=block_ids[keep],
            function_ids=function_ids[keep],
            overflows=overflows,
            unresolved=unresolved,
            resyncs=scanned.resyncs,
            ptwrites=ptwrites,
            bytes_skipped=scanned.bytes_skipped,
        )

    def decode_many(
        self, streams: Iterable[bytes], resilient: bool = False
    ) -> DecodedTrace:
        """Decode several per-core streams and merge by timestamp.

        The merge is a single stable ``argsort`` over the concatenated
        timestamp column.  All fields merge: records, overflows,
        unresolved, resyncs, skipped bytes, and ptwrites (also
        timestamp-ordered); ``resilient`` applies to every stream.
        """
        decoded = [self.decode(s, resilient=resilient) for s in streams]
        if not decoded:
            return DecodedTrace()
        timestamps = np.concatenate([d.timestamps for d in decoded])
        order = np.argsort(timestamps, kind="stable")
        return DecodedTrace(
            timestamps=timestamps[order],
            cr3s=np.concatenate([d.cr3s for d in decoded])[order],
            block_ids=np.concatenate([d.block_ids for d in decoded])[order],
            function_ids=np.concatenate([d.function_ids for d in decoded])[order],
            overflows=sum(d.overflows for d in decoded),
            unresolved=sum(d.unresolved for d in decoded),
            resyncs=sum(d.resyncs for d in decoded),
            bytes_skipped=sum(d.bytes_skipped for d in decoded),
            ptwrites=sorted(
                (p for d in decoded for p in d.ptwrites), key=lambda p: p[0]
            ),
        )

    # -- object-level reference path ---------------------------------------

    def decode_objects(self, data: bytes, resilient: bool = False) -> DecodedTrace:
        """Reference decode via per-packet objects (the pre-columnar path).

        Semantically identical to :meth:`decode` — kept as the golden
        reference the equality tests and the codec benchmark compare the
        vectorized path against.
        """
        records: List[DecodedRecord] = []
        ptwrites: List[tuple] = []
        overflows = 0
        unresolved = 0
        current_time = 0
        current_cr3 = 0
        address_map: Optional[Dict[int, int]] = None
        binary: Optional[Binary] = None
        if resilient:
            packets, resyncs = parse_stream_resilient(data)
        else:
            packets = parse_stream(data)
            resyncs = 0
        for packet in packets:
            if isinstance(packet, TscPacket):
                current_time = packet.timestamp
            elif isinstance(packet, PipPacket):
                current_cr3 = packet.cr3
                binary = self._binaries.get(current_cr3)
                address_map = self._address_maps.get(current_cr3)
            elif isinstance(packet, TipPacket):
                if address_map is None or binary is None:
                    unresolved += 1
                    continue
                block_id = address_map.get(packet.address)
                if block_id is None:
                    unresolved += 1
                    continue
                records.append(
                    DecodedRecord(
                        timestamp=current_time,
                        cr3=current_cr3,
                        block_id=block_id,
                        function_id=binary.blocks[block_id].function_id,
                    )
                )
            elif isinstance(packet, OvfPacket):
                overflows += 1
            elif isinstance(packet, PtwPacket):
                ptwrites.append((current_time, current_cr3, packet.value))
            # PSB and TNT packets carry no event-level information here:
            # PSB is sync, TNT intra-event detail below symbolic resolution
        return DecodedTrace.from_records(
            records,
            overflows=overflows,
            unresolved=unresolved,
            resyncs=resyncs,
            ptwrites=ptwrites,
        )


def upload_session_stats(
    binary: Binary, cr3: int, raw: bytes, cache: Optional[DecodeCache] = None
) -> Tuple[int, int, int, int]:
    """``(records, functions, resyncs, bytes_skipped)`` of one upload.

    The upload decodes resilient with a decoder of its own that maps only
    the upload's ``cr3``: whatever a corrupted PIP points at, a record
    never resolves against another pod's mapping, so the stats depend on
    the upload's bytes alone — not on which uploads a pool worker or a
    long-lived master decoded before.
    """
    decoded = SoftwareDecoder({cr3: binary}, cache=cache).decode(raw, resilient=True)
    return (
        len(decoded),
        len(decoded.function_histogram()),
        decoded.resyncs,
        decoded.bytes_skipped,
    )


def encode_trace_objects(segments: Sequence[TraceSegment]) -> bytes:
    """Reference encoder via per-packet objects (the pre-columnar path).

    Byte-identical to :func:`encode_trace`; kept for golden-equality
    tests and the codec benchmark.
    """
    packets: List[object] = []
    for segment in segments:
        packets.append(PsbPacket())
        packets.append(TscPacket(segment.t_start))
        packets.append(PipPacket(segment.cr3))
        blocks = segment.path_model.binary.blocks
        for block_id in segment.captured_block_ids().tolist():
            bits = tuple(bool((block_id >> k) & 1) for k in range(4))
            packets.append(TntPacket(bits))
            packets.append(TipPacket(blocks[block_id].address))
        if segment.truncated:
            packets.append(OvfPacket())
    return encode_packets(packets)  # type: ignore[arg-type]


def _forward_fill(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-position value of the last ``mask`` slot at or before it (0 start)."""
    n = mask.size
    indices = np.where(mask, np.arange(n), -1)
    np.maximum.accumulate(indices, out=indices)
    filled = values[np.maximum(indices, 0)].astype(np.int64)
    filled[indices < 0] = 0
    return filled
