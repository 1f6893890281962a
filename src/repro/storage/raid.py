"""RAID-0 style striping across disks: aggregate checkpoint bandwidth.

The paper argues secondary-storage arrays provide the bandwidth headroom
for frequent incremental checkpoints; a stripe set of N disks sinks
roughly N times the single-disk rate for the large sequential writes a
checkpoint produces.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.sim import Engine, Future
from repro.storage.disk import Disk
from repro.storage.ledger import Reservation
from repro.storage.models import DiskSpec, SCSI_ULTRA320


class StorageArray:
    """Stripes writes round-robin across member disks.

    A write of B bytes with stripe unit u is split into ceil(B/u) chunks
    dealt to the disks in order; the write completes when every chunk is
    durable.
    """

    def __init__(self, engine: Engine, ndisks: int,
                 spec: DiskSpec = SCSI_ULTRA320,
                 stripe_unit: int = 1 << 20, name: str = "array"):
        if ndisks < 1:
            raise StorageError(f"array needs at least one disk, got {ndisks}")
        if stripe_unit <= 0:
            raise StorageError(f"stripe unit must be positive, got {stripe_unit}")
        self.engine = engine
        self.stripe_unit = stripe_unit
        self.name = name
        self.disks = [Disk(engine, spec, name=f"{name}.d{i}")
                      for i in range(ndisks)]
        self._next = 0

    @property
    def ndisks(self) -> int:
        return len(self.disks)

    def aggregate_bandwidth(self) -> float:
        """Peak sequential bandwidth of the stripe set, B/s."""
        return sum(d.spec.bandwidth for d in self.disks)

    def reserve(self, nbytes: int, at: float) -> tuple[float, "Stripe"]:
        """Reserve a striped write issued at ``at``: each chunk reserves
        its member disk; the write completes with its last chunk."""
        if nbytes < 0:
            raise StorageError(f"negative write size {nbytes}")
        chunks = []
        done_at = at
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, self.stripe_unit)
            chunk_done, rec = self.disks[self._next].reserve(chunk, at)
            chunks.append(rec)
            done_at = max(done_at, chunk_done)
            self._next = (self._next + 1) % len(self.disks)
            remaining -= chunk
        return done_at, Stripe(chunks)

    def settle(self, now: float) -> None:
        """Settle every member disk up to ``now``."""
        for disk in self.disks:
            disk.settle(now)

    def write(self, nbytes: int) -> Future:
        """Striped write; future resolves when all chunks are durable
        (with ``None`` when an injected failure hit any chunk)."""
        now = self.engine.now
        done_at, stripe = self.reserve(nbytes, now)
        fut = Future(self.engine, label=f"{self.name}.write.done")
        if not stripe.chunks:         # nothing to write: durable now
            fut.resolve(now)
            return fut
        self.settle(now)
        self.engine.schedule_at(done_at, fut.resolve,
                                None if stripe.failed else done_at)
        return fut

    def bytes_written(self) -> int:
        """Total bytes written across the stripe set."""
        return sum(d.bytes_written for d in self.disks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StorageArray {self.name!r} ndisks={self.ndisks}>"


class Stripe:
    """A striped write's reservation: the member-disk chunks it spans."""

    __slots__ = ("chunks",)

    def __init__(self, chunks: list[Reservation]):
        self.chunks = chunks

    @property
    def failed(self) -> bool:
        """Whether an injected failure hit any chunk (once settled)."""
        return any(rec.failed for rec in self.chunks)
