"""The checkpoint transport pipeline: payloads as real scheduled traffic.

The seed engine charged each capture a flat per-sink duration
(``Disk.write`` straight from the capture callback), which can argue
feasibility analytically but cannot *measure* it: checkpoint traffic
never shared the NIC, the wire, or the storage ingest link with
application messages.  A transport routes each captured piece through
the simulated fabric instead:

``estimate`` (the default)
    The seed behaviour, bit for bit: one sink write per capture, no
    network traffic, no backpressure.  Differential tests pin this.
``network``
    The piece is cut into frames that inject serially at the rank's NIC
    (contending with application sends for the transmit link), cross the
    wire, serialize at a shared :class:`~repro.net.network.StoragePort`
    (the aggregate ingest bottleneck of the storage target), and only
    then hit the rank's disk.
``diskless``
    Frames cross the fabric to a *buddy rank's* receive link (incast
    with application traffic on that node) and land in the buddy's
    memory at memcpy speed (a :class:`~repro.storage.DisklessSink`).

Per-frame work happens only where frames contend: the transmit link
and the storage port (or buddy link), one engine event per frame
injection.  The fabric reports a frame's arrival when it is injected
and every sink is FIFO, so the frame *reserves* its sink slot right
away (:mod:`repro.storage.ledger`) and learns its durability time;
durability then costs one event per piece, which settles the sink
(deciding injected failures in issue order) and reports the outcome.

Every rank owns a bounded drain queue.  Bytes enter at capture and
leave at frame durability.  Frames carry their durability time from
injection, so the queues drain lazily, in time order, before anything
reads them; the invariant ``enqueued == drained + in_flight`` holds at
every read (property-tested after every event).  When a capture
finds the queue past its bound, :meth:`CheckpointTransport.submit`
returns a *stall*: the seconds of reprotect charge the coordinated
engine defers into the next timeslice -- a slice whose IWS outruns the
drain bandwidth slows the application down instead of queueing
unboundedly.

The measured side of the feasibility verdict
(:meth:`~repro.feasibility.FeasibilityAnalyzer.assess_measured`) reads
a :class:`TransportStats` snapshot: achieved drain bandwidth over the
per-rank busy-interval union (mathematically bounded by the sink rate,
hence by ``TechnologyEnvelope.sustainable_bandwidth``) plus the
per-timeslice contention delay the fabric charged application messages.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.errors import CheckpointError
from repro.units import MiB

#: durability callback signature: (rank, seq, done_at-or-None)
DurableFn = Callable[[int, int, Optional[float]], None]

TRANSPORT_MODES = ("estimate", "network", "diskless")


@dataclass(frozen=True)
class TransportSpec:
    """How checkpoint payloads reach stable storage."""

    mode: str = "estimate"
    #: payload cut size; frames inject back-to-back so application
    #: messages can interleave between them at frame boundaries
    frame_bytes: int = 1 * MiB
    #: per-rank drain-queue bound; captures beyond it stall the app
    max_queue_bytes: int = 64 * MiB
    #: extra fabric hops between a compute rank and the storage port
    port_hops: int = 1

    def __post_init__(self) -> None:
        if self.mode not in TRANSPORT_MODES:
            raise CheckpointError(
                f"unknown transport mode {self.mode!r}; "
                f"expected one of {TRANSPORT_MODES}")
        if self.frame_bytes < 1:
            raise CheckpointError(
                f"frame_bytes must be >= 1, got {self.frame_bytes}")
        if self.max_queue_bytes < 1:
            raise CheckpointError(
                f"max_queue_bytes must be >= 1, got {self.max_queue_bytes}")
        if self.port_hops < 0:
            raise CheckpointError(
                f"port_hops must be >= 0, got {self.port_hops}")

    @property
    def measured(self) -> bool:
        """Whether this mode produces real traffic worth measuring."""
        return self.mode != "estimate"


def normalize_spec(
        transport: Union[None, str, TransportSpec]) -> TransportSpec:
    """``None``/string/spec -> a :class:`TransportSpec`."""
    if transport is None:
        return TransportSpec()
    if isinstance(transport, TransportSpec):
        return transport
    if isinstance(transport, str):
        return TransportSpec(mode=transport)
    raise CheckpointError(
        f"transport must be a mode string or TransportSpec, "
        f"got {transport!r}")


class DrainQueue:
    """Byte accounting for one rank's outstanding checkpoint data.

    The conservation invariant -- ``enqueued == drained + in_flight`` --
    is the drain pipeline's ledger: every byte a capture hands over is
    either already durable or still somewhere between the NIC and the
    sink, never both and never lost.  The framed transports drain it
    lazily (frames know their durability time at injection), so the
    invariant, and ``in_flight`` as of now, hold at every read after
    that catch-up drain rather than at every engine event.
    """

    __slots__ = ("enqueued_bytes", "drained_bytes", "in_flight_bytes",
                 "peak_bytes")

    def __init__(self) -> None:
        self.enqueued_bytes = 0
        self.drained_bytes = 0
        self.in_flight_bytes = 0
        self.peak_bytes = 0

    def enqueue(self, nbytes: int) -> None:
        """A capture handed ``nbytes`` to the pipeline."""
        if nbytes < 0:
            raise CheckpointError(f"negative enqueue of {nbytes} bytes")
        self.enqueued_bytes += nbytes
        self.in_flight_bytes += nbytes
        if self.in_flight_bytes > self.peak_bytes:
            self.peak_bytes = self.in_flight_bytes

    def drain(self, nbytes: int) -> None:
        """``nbytes`` reached durability and left the queue."""
        if nbytes < 0:
            raise CheckpointError(f"negative drain of {nbytes} bytes")
        if nbytes > self.in_flight_bytes:
            raise CheckpointError(
                f"draining {nbytes} bytes with only "
                f"{self.in_flight_bytes} in flight")
        self.drained_bytes += nbytes
        self.in_flight_bytes -= nbytes

    @property
    def consistent(self) -> bool:
        return (self.enqueued_bytes
                == self.drained_bytes + self.in_flight_bytes
                and self.in_flight_bytes >= 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DrainQueue in_flight={self.in_flight_bytes} "
                f"drained={self.drained_bytes}/{self.enqueued_bytes}>")


@dataclass
class TransportStats:
    """Picklable snapshot of one transport's lifetime accounting."""

    mode: str
    pieces: int = 0
    failed_pieces: int = 0
    frames: int = 0
    bytes_submitted: int = 0
    bytes_drained: int = 0
    in_flight_bytes: int = 0
    peak_queue_bytes: int = 0
    stalls: int = 0
    stall_time: float = 0.0
    #: per-rank busy-interval union, summed (seconds of active draining)
    busy_time: float = 0.0
    #: bytes_drained / busy_time (0 when nothing drained)
    achieved_bandwidth: float = 0.0
    #: fabric delay charged to application messages by checkpoint frames
    contention_delay: float = 0.0
    contended_messages: int = 0
    #: cumulative counters sampled at capture boundaries (rank 0)
    samples: list[dict] = field(default_factory=list)

    @property
    def measured(self) -> bool:
        return self.mode != "estimate"

    def per_slice_contention(self) -> list[float]:
        """Checkpoint-induced application-message delay per sampled
        timeslice (differences of the cumulative samples)."""
        out, prev = [], 0.0
        for s in self.samples:
            cur = s["contention_delay"]
            out.append(cur - prev)
            prev = cur
        return out


@dataclass
class _Piece:
    """One rank's capture in flight through the pipeline."""

    seq: int
    nbytes: int
    on_durable: DurableFn
    to_inject: int = 0
    #: the sink reservation of every frame injected so far
    records: list = field(default_factory=list)
    started_at: Optional[float] = None
    #: when the last frame injected so far becomes durable
    done_at: float = 0.0


class CheckpointTransport:
    """Base transport: drain-queue ledger plus shared accounting."""

    def __init__(self, spec: TransportSpec, engine, sinks: dict,
                 nranks: int):
        self.spec = spec
        self.engine = engine
        self.sinks = sinks
        self.nranks = nranks
        self.queues = {r: DrainQueue() for r in range(nranks)}
        self.pieces = 0
        self.failed_pieces = 0
        self.frames_sent = 0
        self.stalls = 0
        self.stall_time = 0.0
        self._busy_until = [0.0] * nranks
        self._busy_time = [0.0] * nranks
        self._samples: list[dict] = []
        self._obs_cache = None
        #: (done_at, rank, nbytes) of every frame not yet drained: frames
        #: know their durability time at injection, so the queues retire
        #: them lazily, in time order, whenever the ledger is read
        self._undrained: list[tuple[float, int, int]] = []

    # -- the coordinated engine's entry points ------------------------------

    def submit(self, rank: int, seq: int, nbytes: int,
               on_durable: DurableFn) -> float:
        """Hand one captured piece to the pipeline.

        Returns the *stall* in seconds: 0.0 when the rank's queue is
        within bounds, else the time the application must be slowed so
        the drain can catch up (charged by the caller into the next
        timeslice's overhead).
        """
        raise NotImplementedError

    def sample(self, seq: int) -> None:
        """Record one per-timeslice sample of the cumulative counters
        (called at capture boundaries; cheap, append-only)."""
        self._drain()
        self._samples.append({
            "seq": seq,
            "t": self.engine.now,
            "bytes_drained": sum(q.drained_bytes
                                 for q in self.queues.values()),
            "queue_bytes": self.queue_bytes(),
            "contention_delay": self.contention_delay(),
            "contended_messages": self.contended_messages(),
        })

    # -- accounting ---------------------------------------------------------

    def queue_bytes(self) -> int:
        """Bytes currently in flight across every rank's queue."""
        self._drain()
        return self._in_flight()

    def _in_flight(self) -> int:
        return sum(q.in_flight_bytes for q in self.queues.values())

    def _drain(self) -> None:
        """Retire every frame durable by now from its rank's queue, in
        durability order, recording the drain metrics at each frame's own
        durability time."""
        heap = self._undrained
        now = self.engine.now
        if not heap or heap[0][0] > now:
            return
        obs = self.engine.obs
        cache = self._gauge_obs(obs) if obs.enabled else None
        queues = self.queues
        heappop = heapq.heappop
        while heap and heap[0][0] <= now:
            done_at, rank, nbytes = heappop(heap)
            queues[rank].drain(nbytes)
            if cache is not None:
                cache[3].inc(nbytes)
                cache[4].inc()
                cache[7].record(done_at, nbytes)
        if cache is not None:
            cache[1].set(self._in_flight())

    def peak_queue_bytes(self) -> int:
        """The deepest any rank's drain queue ever got."""
        return max(q.peak_bytes for q in self.queues.values())

    def contention_delay(self) -> float:
        """Fabric delay charged to application messages (seconds)."""
        return 0.0

    def contended_messages(self) -> int:
        """Application-message link waits attributed to checkpoints."""
        return 0

    def busy_time(self) -> float:
        """Summed per-rank busy-interval union: seconds some piece of a
        rank's data was actively draining (inject start to durable)."""
        return sum(self._busy_time)

    def achieved_bandwidth(self) -> float:
        """Drained bytes over busy time.  Because each rank's busy union
        contains its sink's occupation, this never exceeds the sink
        bandwidth -- and hence never exceeds the envelope's
        ``sustainable_bandwidth``."""
        self._drain()
        busy = self.busy_time()
        if busy <= 0.0:
            return 0.0
        drained = sum(q.drained_bytes for q in self.queues.values())
        return drained / busy

    def snapshot(self) -> TransportStats:
        """Everything the measured feasibility verdict needs, picklable.
        Every sink settles up to now first, so its own counters account
        for each write issued so far (the end of a life reads them)."""
        now = self.engine.now
        for sink in self.sinks.values():
            sink.settle(now)
        self._drain()
        return TransportStats(
            mode=self.spec.mode,
            pieces=self.pieces,
            failed_pieces=self.failed_pieces,
            frames=self.frames_sent,
            bytes_submitted=sum(q.enqueued_bytes
                                for q in self.queues.values()),
            bytes_drained=sum(q.drained_bytes for q in self.queues.values()),
            in_flight_bytes=self.queue_bytes(),
            peak_queue_bytes=self.peak_queue_bytes(),
            stalls=self.stalls,
            stall_time=self.stall_time,
            busy_time=self.busy_time(),
            achieved_bandwidth=self.achieved_bandwidth(),
            contention_delay=self.contention_delay(),
            contended_messages=self.contended_messages(),
            samples=[dict(s) for s in self._samples],
        )

    def _note_busy(self, rank: int, start: float, end: float) -> None:
        lo = max(start, self._busy_until[rank])
        if end > lo:
            self._busy_time[rank] += end - lo
            self._busy_until[rank] = end

    def _gauge_obs(self, obs):
        cache = self._obs_cache
        if cache is None or cache[0] is not obs:
            m = obs.metrics
            cache = self._obs_cache = (
                obs,
                m.gauge("checkpoint.transport.queue_bytes"),
                m.gauge("checkpoint.transport.peak_queue_bytes"),
                m.counter("checkpoint.transport.bytes_drained"),
                m.counter("checkpoint.transport.frames"),
                m.counter("checkpoint.transport.stalls"),
                m.counter("checkpoint.transport.stall_time_s"),
                m.series("checkpoint.transport.drained_bytes"),
            )
        return cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} mode={self.spec.mode!r} "
                f"pieces={self.pieces} in_flight={self.queue_bytes()}>")


class EstimateTransport(CheckpointTransport):
    """The seed data path, verbatim: one sink write per capture.

    Event scheduling, future labels, and callback order are exactly what
    ``CheckpointEngine._write_out`` produced before transports existed,
    so estimate-mode simulations are bit-identical to the seed (the
    differential suite pins this).  No frames, no network traffic, no
    backpressure: ``submit`` always returns 0.0.
    """

    def submit(self, rank: int, seq: int, nbytes: int,
               on_durable: DurableFn) -> float:
        self.pieces += 1
        q = self.queues[rank]
        q.enqueue(nbytes)
        start = self.engine.now
        fut = self.sinks[rank].write(nbytes)

        def finish(done_at, q=q, rank=rank, seq=seq, nbytes=nbytes,
                   start=start):
            q.drain(nbytes)
            if done_at is None:
                self.failed_pieces += 1
                self._note_busy(rank, start, self.engine.now)
            else:
                self._note_busy(rank, start, done_at)
            on_durable(rank, seq, done_at)

        fut.add_callback(finish)
        return 0.0


class _FramedTransport(CheckpointTransport):
    """Shared frame machinery of the network and diskless modes.

    Per rank, pieces drain in FIFO order: frames inject back-to-back at
    the rank's NIC (the transmit link stays busy, but application
    messages interleave at frame boundaries because each frame is a
    separate injection) and cross the fabric.  The fabric reports each
    frame's arrival at injection and the rank's sink is FIFO, so the
    frame *reserves* its sink slot right then
    (:meth:`~repro.storage.Disk.reserve`) and learns when it will be
    durable: one ``_piece_durable`` event per piece, at its last frame's
    durability, settles the sink (deciding injected failures in issue
    order) and reports the outcome.  The head piece always completes
    first.
    """

    def __init__(self, spec: TransportSpec, engine, sinks: dict,
                 nranks: int, network):
        super().__init__(spec, engine, sinks, nranks)
        self.network = network
        #: per rank: submitted pieces not yet durable, oldest first;
        #: the first ``_cursor[rank]`` of them are fully injected
        self._pending: dict[int, deque] = {r: deque() for r in range(nranks)}
        self._cursor = [0] * nranks
        self._injecting = [False] * nranks
        #: effective drain rate used to convert queue excess to stall
        #: seconds -- the slower of the wire and the sink
        self._drain_rate = min(network.spec.bandwidth,
                               self._sink_rate())

    def _sink_rate(self) -> float:
        raise NotImplementedError

    def _send_frame(self, rank: int, nbytes: int):
        """Put one frame on the fabric; returns (inject_at, inject_done,
        arrival)."""
        raise NotImplementedError

    def submit(self, rank: int, seq: int, nbytes: int,
               on_durable: DurableFn) -> float:
        self._drain()
        self.pieces += 1
        q = self.queues[rank]
        q.enqueue(nbytes)
        # an empty piece still rides the pipeline (one zero-byte frame)
        # so per-rank FIFO completion order is preserved
        self._pending[rank].append(_Piece(seq=seq, nbytes=nbytes,
                                          on_durable=on_durable,
                                          to_inject=nbytes))
        stall = 0.0
        if q.in_flight_bytes > self.spec.max_queue_bytes:
            # only the part of *this* piece that overflows the bound is
            # charged, so every byte stalls the application at most once
            excess = min(nbytes, q.in_flight_bytes
                         - self.spec.max_queue_bytes)
            stall = excess / self._drain_rate
            self.stalls += 1
            self.stall_time += stall
        obs = self.engine.obs
        if obs.enabled:
            cache = self._gauge_obs(obs)
            cache[1].set(self._in_flight())
            cache[2].set(self.peak_queue_bytes())
            if stall:
                cache[5].inc()
                cache[6].inc(stall)
        if not self._injecting[rank]:
            self._injecting[rank] = True
            self._inject_next(rank)
        return stall

    # -- the frame loop -----------------------------------------------------

    def _inject_next(self, rank: int) -> None:
        pending = self._pending[rank]
        cursor = self._cursor[rank]
        if cursor == len(pending):
            self._injecting[rank] = False
            return
        piece = pending[cursor]
        frame = min(self.spec.frame_bytes, piece.to_inject)
        piece.to_inject -= frame
        self.frames_sent += 1
        inject_at, inject_done, arrival = self._send_frame(rank, frame)
        if piece.started_at is None:
            piece.started_at = inject_at
        done_at, record = self.sinks[rank].reserve(frame, arrival)
        piece.records.append(record)
        if done_at > piece.done_at:
            piece.done_at = done_at
        heapq.heappush(self._undrained, (done_at, rank, frame))
        if piece.to_inject == 0:
            self._cursor[rank] = cursor + 1
            self.engine.schedule_at(piece.done_at, self._piece_durable,
                                    rank, piece)
        # the transmit link frees at inject-done; keep the loop going
        # from there so application sends interleave between frames
        self.engine.schedule_at(inject_done, self._inject_next, rank)

    def _piece_durable(self, rank: int, piece: _Piece) -> None:
        self.sinks[rank].settle(self.engine.now)
        self._drain()
        deq = self._pending[rank]
        if not deq or deq[0] is not piece:
            raise CheckpointError(
                f"rank {rank}: piece seq {piece.seq} completed out of "
                "FIFO order")
        deq.popleft()
        self._cursor[rank] -= 1
        self._note_busy(rank, piece.started_at, piece.done_at)
        if any(record.failed for record in piece.records):
            self.failed_pieces += 1
            piece.on_durable(rank, piece.seq, None)
        else:
            piece.on_durable(rank, piece.seq, piece.done_at)

    # -- accounting ---------------------------------------------------------

    def contention_delay(self) -> float:
        return self.network.ckpt_contention_delay

    def contended_messages(self) -> int:
        return self.network.ckpt_contended_messages


class NetworkTransport(_FramedTransport):
    """Frames cross the fabric to a shared storage port, then the disk.

    The port models the storage target's aggregate ingest link: frames
    from every rank serialize there (the DMTCP-style cluster-wide
    writeback bottleneck), then queue at the rank's disk behind it.
    """

    def __init__(self, spec: TransportSpec, engine, sinks: dict,
                 nranks: int, network):
        super().__init__(spec, engine, sinks, nranks, network)
        self.port = network.open_storage_port("ckpt-storage",
                                              hops=spec.port_hops)

    def _sink_rate(self) -> float:
        rates = []
        for sink in self.sinks.values():
            if hasattr(sink, "spec"):                    # Disk
                rates.append(sink.spec.bandwidth)
            elif hasattr(sink, "aggregate_bandwidth"):   # StorageArray
                rates.append(sink.aggregate_bandwidth())
            else:
                raise CheckpointError(
                    f"network transport needs disk-like sinks, "
                    f"got {sink!r}")
        return min(rates)

    def _send_frame(self, rank: int, nbytes: int):
        return self.network.storage_send(rank, nbytes, port=self.port)


class DisklessTransport(_FramedTransport):
    """Frames cross the fabric to a buddy rank's memory.

    The buddy is the co-resident spread ``(rank + procs_per_node) %
    nranks`` mapped by the caller; here the transport only needs the
    destination rank per source.  Frames occupy the buddy's *receive*
    link (incast with application traffic on that node) and then land
    at memcpy speed via :meth:`~repro.storage.DisklessSink.reserve` --
    the wire was already simulated, so the sink charges memory copy and
    capacity only (capacity at the frame's arrival).
    """

    def __init__(self, spec: TransportSpec, engine, sinks: dict,
                 nranks: int, network, buddies: dict[int, int]):
        super().__init__(spec, engine, sinks, nranks, network)
        for rank in range(nranks):
            if buddies.get(rank) is None:
                raise CheckpointError(f"rank {rank} has no buddy")
            if not hasattr(sinks[rank], "memcpy_bandwidth"):
                raise CheckpointError(
                    f"diskless transport needs DisklessSink-like sinks, "
                    f"got {sinks[rank]!r}")
        self.buddies = buddies

    def _sink_rate(self) -> float:
        return min(sink.memcpy_bandwidth for sink in self.sinks.values())

    def _send_frame(self, rank: int, nbytes: int):
        return self.network.storage_send(rank, nbytes,
                                         dst=self.buddies[rank])


def make_transport(transport: Union[None, str, TransportSpec], *,
                   engine, network, sinks: dict, nranks: int,
                   buddies: Optional[dict[int, int]] = None
                   ) -> CheckpointTransport:
    """Build the transport a :class:`TransportSpec` (or mode string)
    asks for, wired to one job's engine/network/sinks."""
    spec = normalize_spec(transport)
    if spec.mode == "estimate":
        return EstimateTransport(spec, engine, sinks, nranks)
    if spec.mode == "network":
        return NetworkTransport(spec, engine, sinks, nranks, network)
    if buddies is None:
        buddies = {r: (r + 1) % nranks for r in range(nranks)}
    return DisklessTransport(spec, engine, sinks, nranks, network, buddies)
