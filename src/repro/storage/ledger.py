"""Reservation ledgers: FIFO sink timing decided ahead, outcomes in order.

A FIFO sink's completion time depends only on when each write is issued
and on the writes issued before it, so a caller that already knows the
issue time -- the checkpoint transport knows a frame's arrival when it
injects the frame -- can :meth:`FifoSink.reserve` the slot right away
and learn ``done_at`` without an engine event.  What *does* depend on
state at the issue instant (an injected media failure, buddy-memory
capacity) is decided by :meth:`FifoSink.settle`, which issues every
reservation whose issue time has come, in issue order.  Anything that
changes that state (``fail_next_writes``, ``release``) settles first,
so each outcome sees exactly the state it would have seen at its own
issue time.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import StorageError
from repro.sim import Future


class Reservation:
    """One write's slot on a FIFO sink.

    The timing (``start``, ``duration``, ``done_at``) is fixed at
    reservation; ``failed`` is ``None`` until the reservation settles,
    then ``True`` when an injected media failure hit the write.
    """

    __slots__ = ("nbytes", "at", "start", "duration", "done_at", "failed")

    def __init__(self, nbytes: int, at: float, start: float,
                 duration: float):
        self.nbytes = nbytes
        self.at = at
        self.start = start
        self.duration = duration
        self.done_at = start + duration
        self.failed = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Reservation {self.nbytes}B at={self.at} "
                f"done_at={self.done_at} failed={self.failed}>")


class FifoSink:
    """The one timing path of a serialized sink: ``start = max(issue,
    free)``, ``done_at = start + duration``.  Subclasses set
    ``engine``, ``name`` and an ``ops`` count, and supply the per-write
    duration and :meth:`_issue`, the state change one write makes at
    its issue time."""

    def __init__(self) -> None:
        #: when the last reserved write completes (the next one's floor)
        self._free_at = 0.0
        #: when the last *issued* (settled) write completes
        self._issued_free_at = 0.0
        self._last_at = float("-inf")
        self._unsettled: deque = deque()

    def _reserve(self, nbytes: int, at: float,
                 duration: Callable[[int], float]
                 ) -> tuple[float, Reservation]:
        if nbytes < 0:
            raise StorageError(f"negative write size {nbytes}")
        if at < self._last_at:
            raise StorageError(
                f"{self.name}: write issued at t={at} after one at "
                f"t={self._last_at}; a FIFO sink issues in time order")
        self._last_at = at
        rec = Reservation(nbytes, at, max(at, self._free_at),
                          duration(nbytes))
        self._free_at = rec.done_at
        self._unsettled.append(rec)
        return rec.done_at, rec

    def _write_now(self, nbytes: int,
                   duration: Callable[[int], float]) -> Future:
        """Reserve and issue a write now; the future resolves at its
        completion with the completion time, or ``None`` if it failed."""
        now = self.engine.now
        done_at, rec = self._reserve(nbytes, now, duration)
        self.settle(now)
        fut = Future(self.engine, label=f"{self.name}.write#{self.ops}")
        self.engine.schedule_at(done_at, fut.resolve,
                                None if rec.failed else done_at)
        return fut

    def settle(self, now: float) -> None:
        """Issue, in order, every reservation whose issue time is at or
        before ``now``."""
        unsettled = self._unsettled
        while unsettled and unsettled[0].at <= now:
            rec = unsettled.popleft()
            self._issued_free_at = rec.done_at
            self._issue(rec)

    def _issue(self, rec: Reservation) -> None:
        raise NotImplementedError

    def queue_delay(self) -> float:
        """How long a write issued now would wait before starting (only
        writes already issued count, not reservations still ahead)."""
        now = self.engine.now
        self.settle(now)
        return max(0.0, self._issued_free_at - now)
