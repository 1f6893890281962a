"""Diskless checkpointing: stable storage in a peer's memory.

Plank's diskless checkpointing (related work, section 7) avoids the disk
bottleneck by storing checkpoints in the memory of other nodes.  The
sink here mimics the :class:`~repro.storage.Disk` interface so the
coordinated checkpoint engine can use either interchangeably:

- a write streams over the interconnect (link latency + size/bandwidth)
  and lands in the buddy's memory at memcpy speed;
- writes from one node serialize at its NIC, like disk writes at the
  spindle;
- the buddy donates a *capacity*: exceeding it is an error -- the real
  cost of diskless checkpointing is memory, which is why the engine
  should retire old checkpoints (``release``).
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.net.models import LinkSpec, QSNET2
from repro.sim import Engine, Future
from repro.storage.ledger import FifoSink, Reservation
from repro.units import GiB


class DisklessSink(FifoSink):
    """Checkpoint sink backed by a buddy node's memory.

    Capacity is checked when a write is *issued* (when it settles), so a
    :meth:`release` that lands before a reserved frame arrives makes
    room for it, exactly as if the frame had been deposited by an event
    at its arrival.
    """

    def __init__(self, engine: Engine, link: LinkSpec = QSNET2,
                 memcpy_bandwidth: float = 2.0 * GiB,
                 capacity: int = 2 * GiB, name: str = "diskless"):
        if memcpy_bandwidth <= 0:
            raise StorageError("memcpy bandwidth must be positive")
        if capacity <= 0:
            raise StorageError("buddy capacity must be positive")
        super().__init__()
        self.engine = engine
        self.link = link
        self.memcpy_bandwidth = memcpy_bandwidth
        self.capacity = capacity
        self.name = name
        self.bytes_written = 0
        self._held = 0
        self.ops = 0

    @property
    def bytes_held(self) -> int:
        """Bytes of buddy memory in use by writes issued up to now."""
        self.settle(self.engine.now)
        return self._held

    def _stream_time(self, nbytes: int) -> float:
        return (self.link.latency + nbytes / self.link.bandwidth
                + nbytes / self.memcpy_bandwidth)

    def _memcpy_time(self, nbytes: int) -> float:
        return nbytes / self.memcpy_bandwidth

    def reserve(self, nbytes: int, at: float) -> tuple[float, Reservation]:
        """Reserve the deposit of ``nbytes`` that already crossed the
        fabric and arrive at ``at`` (the checkpoint transport simulated
        the wire itself): only the memcpy into the buddy's memory is
        charged; capacity is checked when the reservation settles."""
        return self._reserve(nbytes, at, self._memcpy_time)

    def write(self, nbytes: int) -> Future:
        """Stream ``nbytes`` to the buddy; future resolves at durability
        (in the buddy's memory)."""
        self.settle(self.engine.now)
        self._admit(nbytes)           # refuse before occupying the sink
        return self._write_now(nbytes, self._stream_time)

    def _admit(self, nbytes: int) -> None:
        if self._held + nbytes > self.capacity:
            raise StorageError(
                f"{self.name}: buddy memory exhausted "
                f"({self._held + nbytes} > {self.capacity}); release "
                "retired checkpoints first")

    def _issue(self, rec: Reservation) -> None:
        self._admit(rec.nbytes)
        self.bytes_written += rec.nbytes
        self._held += rec.nbytes
        self.ops += 1
        rec.failed = False

    def release(self, nbytes: int) -> None:
        """Retire ``nbytes`` of old checkpoints from the buddy's memory
        (writes issued up to now are settled against the old capacity
        first)."""
        held = self.bytes_held
        if nbytes < 0 or nbytes > held:
            raise StorageError(
                f"cannot release {nbytes} of {held} held bytes")
        self._held -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.units import fmt_bytes
        return (f"<DisklessSink {self.name!r} held={fmt_bytes(self._held)}"
                f"/{fmt_bytes(self.capacity)}>")
