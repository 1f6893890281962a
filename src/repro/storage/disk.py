"""A single disk with a serialized write queue."""

from __future__ import annotations

from repro.errors import StorageError
from repro.sim import Engine, Future
from repro.storage.ledger import FifoSink, Reservation
from repro.storage.models import DiskSpec, SCSI_ULTRA320


class Disk(FifoSink):
    """Sequential-write disk: operations queue and complete in order.

    ``write`` returns a :class:`~repro.sim.Future` resolving (with the
    completion time) when the data is on stable storage; simulated
    processes can ``yield`` it to block for durability.  Callers that
    know a write's issue time ahead (the checkpoint transport) use
    :meth:`reserve` and :meth:`settle` instead and need no event.
    """

    def __init__(self, engine: Engine, spec: DiskSpec = SCSI_ULTRA320,
                 name: str = "disk"):
        super().__init__()
        self.engine = engine
        self.spec = spec
        self.name = name
        self.bytes_written = 0
        self.ops = 0
        self.busy_time = 0.0
        self._fail_budget = 0
        self.writes_failed = 0

    def reserve(self, nbytes: int, at: float) -> tuple[float, Reservation]:
        """Reserve the write of ``nbytes`` issued at ``at``; returns its
        completion time and the reservation, whose ``failed`` flag is
        decided when it settles."""
        return self._reserve(nbytes, at, self.spec.write_time)

    def write(self, nbytes: int) -> Future:
        """Enqueue a write of ``nbytes``; returns a completion future.

        The future resolves with the completion time on success, or with
        ``None`` when the write was hit by an injected media failure (the
        data never reached stable storage; the disk still spent the
        time).
        """
        return self._write_now(nbytes, self.spec.write_time)

    def _issue(self, rec: Reservation) -> None:
        self.ops += 1
        self.busy_time += rec.duration
        if self._fail_budget > 0:
            self._fail_budget -= 1
            self.writes_failed += 1
            rec.failed = True
        else:
            self.bytes_written += rec.nbytes
            rec.failed = False
        obs = self.engine.obs
        if obs.enabled:
            m = obs.metrics
            if rec.failed:
                m.counter("storage.writes_failed").inc()
            else:
                m.counter("storage.bytes_written").inc(rec.nbytes)
                m.counter(f"storage.{self.name}.bytes_written").inc(
                    rec.nbytes)
            tracer = obs.tracer
            if tracer.enabled and tracer.wants("storage"):
                tracer.complete("disk.write", "storage", rec.start,
                                rec.duration, track=self.name,
                                bytes=rec.nbytes, failed=rec.failed)

    def fail_next_writes(self, count: int = 1) -> None:
        """Fault injection: the next ``count`` writes issued fail (their
        futures resolve with ``None`` instead of a completion time).
        Writes issued up to now settle first, so the budget only hits
        writes that reach the disk after the fault."""
        if count < 1:
            raise StorageError(f"failure count must be >= 1, got {count}")
        self.settle(self.engine.now)
        self._fail_budget += count

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the disk spent busy."""
        if elapsed <= 0:
            raise StorageError(f"non-positive elapsed time {elapsed}")
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.units import fmt_bytes
        return (f"<Disk {self.name!r} {self.spec.name} "
                f"written={fmt_bytes(self.bytes_written)} ops={self.ops}>")
