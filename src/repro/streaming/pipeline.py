"""The streaming ingestion pipeline: producers, consumers, accounting.

:class:`StreamingIngestor` is the online counterpart of the batch
reconcile's decode step.  Completed tracing slots *submit* their raw
uploads as they finish; each canonical upload is split into PSB-chunk
work units (:func:`repro.hwtrace.decoder.split_canonical_stream`), paced
through a bounded virtual-time queue by a credit-based backpressure
controller, and decoded incrementally — batched over the persistent
worker pool when one is available (competing consumers), in-process
otherwise.  Non-canonical uploads (corrupt, truncated, foreign framing)
are quarantined in a dead-letter queue and replayed through the
resilient whole-stream decoder at the end.

Determinism contract — the property everything here is built around:

* **End-state parity with batch.**  For every submitted slot outcome the
  ingestor produces exactly the ``(records, functions, resyncs,
  bytes_skipped)`` tuple the batch path's ``decode(raw,
  resilient=True)`` produces for the same bytes.  Canonical uploads
  decode chunk-by-chunk (the per-chunk results aggregate commutatively:
  record counts sum, distinct function ids union), and a canonical
  stream has zero resyncs and skipped bytes by construction; dead-letter
  replays run the *identical* resilient decode call.  Coverage,
  degradation reports, and decode-loss accounting downstream are
  therefore byte-identical.
* **Width independence.**  Queue lag, backpressure engagements, and
  occupancy come from the virtual-time simulation (fixed
  ``virtual_consumers``, integer ns), never from wall clocks or the
  worker count, so streaming stats are identical across ``--jobs``
  widths; real pool dispatch only changes wall-clock speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.hwtrace.cache import ChunkEntry, process_decode_cache
from repro.hwtrace.decoder import (
    SoftwareDecoder,
    split_canonical_stream,
    upload_session_stats,
)
from repro.program.workloads import get_workload
from repro.streaming.backpressure import CreditController
from repro.streaming.deadletter import DeadLetterQueue
from repro.streaming.queue import VirtualDecodeQueue
from repro.util.stats import percentile


def _decode_chunks(binary, cache, items) -> Iterator[Tuple[object, ChunkEntry]]:
    """``(key, ChunkEntry)`` for each chunk work unit, in order.

    ``items`` are ``(key, upload_cr3, cr3, body)``.  Each upload gets its
    own decoder mapping only the upload's cr3, so a chunk whose header
    PIP names any other cr3 decodes unresolved, exactly as the upload's
    whole-stream decode would.
    """
    decoders: Dict[object, SoftwareDecoder] = {}
    for key, upload_cr3, cr3, body in items:
        decoder = decoders.get(key)
        if decoder is None:
            decoder = SoftwareDecoder({upload_cr3: binary}, cache=cache)
            decoders[key] = decoder
        yield key, decoder.decode_chunk(cr3, body)


def _consume_chunk_batch(payload) -> List[Tuple[object, int, Tuple[int, ...], int]]:
    """Decode one consumer's batch of chunk work units in a pool worker.

    ``payload`` is ``(app, use_cache, items)`` with items as for
    :func:`_decode_chunks`.  Returns per upload key the kept record
    count, the *distinct* function ids among kept records, and the
    unresolved count — the commutative pieces session stats aggregate
    from, small enough to ride the result pipe.  Chunks of the same key
    fold together here (sums and one dedup per key) so the hot loop
    never pays a per-chunk ``np.unique``.
    """
    app, use_cache, items = payload
    records: Dict[object, int] = {}
    functions: Dict[object, List[np.ndarray]] = {}
    unresolved: Dict[object, int] = {}
    for key, entry in _decode_chunks(
        get_workload(app).binary(),
        process_decode_cache() if use_cache else None,
        items,
    ):
        if key in records:
            records[key] += entry.block_ids.size
            unresolved[key] += entry.unresolved
        else:
            records[key] = entry.block_ids.size
            functions[key] = []
            unresolved[key] = entry.unresolved
        if entry.function_ids.size:
            functions[key].append(entry.function_ids)
    return [
        (
            key,
            int(records[key]),
            tuple(
                np.unique(np.concatenate(functions[key])).tolist()
            ) if functions[key] else (),
            unresolved[key],
        )
        for key in records
    ]


def _replay_upload(payload) -> Tuple[int, int, int, int]:
    """Resilient whole-stream decode of one dead-lettered upload.

    ``payload`` is ``(app, use_cache, cr3, raw)``; returns the batch
    path's session-stat tuple for the same bytes.
    """
    app, use_cache, cr3, raw = payload
    return upload_session_stats(
        get_workload(app).binary(),
        cr3,
        raw,
        process_decode_cache() if use_cache else None,
    )


@dataclass(frozen=True)
class StreamConfig:
    """Tuning knobs of the streaming pipeline (all virtual-time).

    ``virtual_consumers`` is deliberately a fixed constant rather than
    the pool width: it parameterizes the deterministic queue simulation,
    which must not vary with ``--jobs``.
    """

    #: bounded queue size — the producer's total credit pool
    queue_capacity: int = 64
    #: occupancy at which backpressure engages
    high_watermark: int = 48
    #: occupancy at which engaged backpressure releases
    low_watermark: int = 16
    #: simulated decode workers draining the virtual queue
    virtual_consumers: int = 4
    #: producer gap between consecutive chunk enqueues
    enqueue_gap_ns: int = 2_000
    #: fixed per-chunk decode cost in the simulation
    chunk_overhead_ns: int = 10_000
    #: marginal decode cost per body byte in the simulation
    decode_ns_per_byte: int = 30
    #: producer delay per enqueue while backpressure is engaged
    stall_ns: int = 50_000
    #: chunk work units dispatched to the real consumers per flush
    batch_chunks: int = 64
    #: replay dead-lettered uploads through the resilient decoder at
    #: finish (disable only to inspect the quarantine)
    replay_dead_letters: bool = True

    def service_ns(self, body_len: int) -> int:
        """Simulated decode time of one chunk body."""
        return self.chunk_overhead_ns + body_len * self.decode_ns_per_byte


@dataclass
class StreamStats:
    """End-of-ingest accounting (virtual-time, width-independent)."""

    uploads: int = 0
    empty_uploads: int = 0
    chunks: int = 0
    chunk_bytes: int = 0
    batches: int = 0
    unresolved_records: int = 0
    dead_letters: int = 0
    dead_letters_replayed: int = 0
    dead_letter_bytes: int = 0
    max_queue_depth: int = 0
    backpressure_engagements: int = 0
    credit_waits: int = 0
    throttled_ns: int = 0
    p99_lag_ns: int = 0
    max_lag_ns: int = 0
    makespan_ns: int = 0

    @property
    def dead_letter_rate(self) -> float:
        """Fraction of uploads that hit quarantine."""
        return self.dead_letters / self.uploads if self.uploads else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (stored on ``TraceTaskStatus.stream``)."""
        return {
            "uploads": self.uploads,
            "empty_uploads": self.empty_uploads,
            "chunks": self.chunks,
            "chunk_bytes": self.chunk_bytes,
            "batches": self.batches,
            "unresolved_records": self.unresolved_records,
            "dead_letters": self.dead_letters,
            "dead_letters_replayed": self.dead_letters_replayed,
            "dead_letter_bytes": self.dead_letter_bytes,
            "dead_letter_rate": self.dead_letter_rate,
            "max_queue_depth": self.max_queue_depth,
            "backpressure_engagements": self.backpressure_engagements,
            "credit_waits": self.credit_waits,
            "throttled_ns": self.throttled_ns,
            "p99_lag_ns": self.p99_lag_ns,
            "max_lag_ns": self.max_lag_ns,
            "makespan_ns": self.makespan_ns,
        }


class _SessionAccumulator:
    """Chunk-level stats folding into one upload's session tuple.

    Function-id dedup is deferred to :meth:`as_stats` — the hot path
    only appends the per-chunk id arrays, and one ``np.unique`` over
    their concatenation at finish replaces a per-chunk dedup (set union
    is commutative either way, so shard layout still cannot matter).
    """

    __slots__ = ("records", "function_arrays")

    def __init__(self) -> None:
        self.records = 0
        self.function_arrays: List[np.ndarray] = []

    def as_stats(self) -> Tuple[int, int, int, int]:
        # a canonical stream decodes with zero resyncs / skipped bytes
        functions = (
            int(np.unique(np.concatenate(self.function_arrays)).size)
            if self.function_arrays else 0
        )
        return (int(self.records), functions, 0, 0)


class StreamingIngestor:
    """Online decode of completed tracing slots (see module docstring).

    Lifecycle: construct per reconcile, ``submit`` each completed slot
    outcome *in slot order* as its round finishes, then ``finish()`` —
    which flushes pending consumer batches, replays the dead-letter
    quarantine, writes every outcome's session stats in place, and
    returns the :class:`StreamStats`.

    ``pool`` (optional :class:`~repro.parallel.RunPool`) fans consumer
    batches and replays across the persistent workers; pass it only when
    ``binary`` is the app's memoized workload binary (workers regenerate
    it from the fork-inherited cache).  The in-process path decodes with
    ``decode_cache`` attached, mirroring the batch coordinator.
    """

    def __init__(
        self,
        app: str,
        binary,
        decode_cache=None,
        pool=None,
        config: Optional[StreamConfig] = None,
    ):
        self.config = config or StreamConfig()
        self.app = app
        self._binary = binary
        self._cache = decode_cache
        self._use_cache = decode_cache is not None
        self._pool = pool if (pool is not None and pool.parallel) else None
        self.queue = VirtualDecodeQueue(self.config.virtual_consumers)
        self.controller = CreditController(
            capacity=self.config.queue_capacity,
            high_watermark=self.config.high_watermark,
            low_watermark=self.config.low_watermark,
            stall_ns=self.config.stall_ns,
        )
        self.dead_letters = DeadLetterQueue()
        self.stats = StreamStats()
        self._clock = 0
        self._lags: List[int] = []
        self._pending: List[Tuple[object, int, int, bytes]] = []
        self._outcomes: Dict[object, object] = {}
        self._accumulators: Dict[object, _SessionAccumulator] = {}
        self._final: Dict[object, Tuple[int, int, int, int]] = {}
        self._finished = False

    # -- producer side -----------------------------------------------------

    def submit(self, outcome) -> None:
        """Ingest one completed slot outcome's raw upload.

        ``outcome`` is a :class:`~repro.cluster.master.SlotOutcome` (or
        anything exposing ``slot``, ``cr3``, ``label``, ``raw`` and the
        four session-stat fields); its stats are written at
        :meth:`finish`.
        """
        if self._finished:
            raise RuntimeError("ingestor already finished")
        key = outcome.slot
        if key in self._outcomes:
            raise ValueError(f"duplicate slot {key!r} submitted")
        self._outcomes[key] = outcome
        self.stats.uploads += 1
        raw = outcome.raw
        if not raw:
            self.stats.empty_uploads += 1
            self._final[key] = (0, 0, 0, 0)
            return
        units = split_canonical_stream(raw)
        if units is None:
            self.stats.dead_letters += 1
            self.stats.dead_letter_bytes += len(raw)
            self.dead_letters.quarantine(
                key, raw, f"non-canonical upload from {outcome.label or key}"
            )
            return
        self._accumulators[key] = _SessionAccumulator()
        config = self.config
        # hot loop: one pace/admit per chunk; everything else is hoisted
        pace = self.controller.pace
        admit = self.queue.admit
        record_lag = self._lags.append
        queue = self.queue
        gap_ns = config.enqueue_gap_ns
        overhead_ns = config.chunk_overhead_ns
        per_byte_ns = config.decode_ns_per_byte
        batch_chunks = config.batch_chunks
        clock = self._clock
        pending = self._pending
        upload_cr3 = outcome.cr3
        for cr3, body in units:
            arrival = pace(queue, clock + gap_ns)
            start, _completion = admit(
                arrival, overhead_ns + len(body) * per_byte_ns
            )
            clock = arrival
            record_lag(start - arrival)
            pending.append((key, upload_cr3, cr3, body))
            if len(pending) >= batch_chunks:
                self._clock = clock
                self._flush()
                pending = self._pending
        self._clock = clock
        self.stats.chunks += len(units)
        self.stats.chunk_bytes += sum(len(body) for _cr3, body in units)

    # -- consumer side -----------------------------------------------------

    def _flush(self) -> None:
        """Dispatch the pending chunk batch to the competing consumers."""
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        self.stats.batches += 1
        if self._pool is not None:
            width = min(len(batch), self._pool.max_workers)
            shards = [batch[offset::width] for offset in range(width)]
            results = [
                result
                for shard_results in self._pool.map(
                    _consume_chunk_batch,
                    [(self.app, self._use_cache, shard) for shard in shards],
                )
                for result in shard_results
            ]
            # aggregation is commutative (sums and distinct-id unions),
            # so shard layout cannot influence the session stats
            for key, kept, function_ids, unresolved in results:
                accumulator = self._accumulators[key]
                accumulator.records += kept
                if function_ids:
                    accumulator.function_arrays.append(
                        np.asarray(function_ids, dtype=np.int64)
                    )
                self.stats.unresolved_records += unresolved
            return
        accumulators = self._accumulators
        unresolved_total = 0
        for key, entry in _decode_chunks(self._binary, self._cache, batch):
            accumulator = accumulators[key]
            accumulator.records += entry.block_ids.size
            if entry.function_ids.size:
                accumulator.function_arrays.append(entry.function_ids)
            unresolved_total += entry.unresolved
        self.stats.unresolved_records += unresolved_total

    def _replay_dead_letters(self) -> None:
        """Resilient-decode quarantined uploads and record their stats."""
        entries = self.dead_letters.entries
        if not entries:
            return
        uploads = [(self._outcomes[e.key].cr3, e.payload) for e in entries]
        if self._pool is not None:
            results = self._pool.map(
                _replay_upload,
                [(self.app, self._use_cache, cr3, raw) for cr3, raw in uploads],
            )
        else:
            results = [
                upload_session_stats(self._binary, cr3, raw, self._cache)
                for cr3, raw in uploads
            ]
        results_by_key = {
            entry.key: tuple(result) for entry, result in zip(entries, results)
        }
        for entry, result in self.dead_letters.replay(
            lambda e: results_by_key.get(e.key)
        ):
            self._final[entry.key] = result
            self.stats.dead_letters_replayed += 1

    # -- completion --------------------------------------------------------

    def finish(self) -> StreamStats:
        """Flush, replay quarantine, write outcome stats, return stats.

        Every submitted outcome's ``records`` / ``functions`` /
        ``resyncs`` / ``bytes_skipped`` fields are written in place with
        exactly the values the batch decode path computes, so the
        reconcile's upload/accounting loop runs unchanged afterwards.
        Idempotent.
        """
        if self._finished:
            return self.stats
        self._finished = True
        self._flush()
        if self.config.replay_dead_letters:
            self._replay_dead_letters()
        for key, accumulator in self._accumulators.items():
            self._final[key] = accumulator.as_stats()
        for key, outcome in self._outcomes.items():
            final = self._final.get(key)
            if final is None:
                continue  # unreplayed dead letter: stats stay zero
            (
                outcome.records,
                outcome.functions,
                outcome.resyncs,
                outcome.bytes_skipped,
            ) = final
        stats = self.stats
        stats.max_queue_depth = self.queue.max_depth
        stats.backpressure_engagements = self.controller.engagements
        stats.credit_waits = self.controller.credit_waits
        stats.throttled_ns = self.controller.throttled_ns
        stats.makespan_ns = self.queue.makespan_ns
        if self._lags:
            stats.p99_lag_ns = int(percentile(self._lags, 99.0))
            stats.max_lag_ns = int(max(self._lags))
        return stats
