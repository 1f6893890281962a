"""Checkpoint objects: what gets written to stable storage.

A checkpoint carries

- the *geometry* of every data segment at capture time (kind, base,
  size, and the segment's process-unique ``sid`` so chain replay can
  follow a segment through growth and shrink), and
- *unit payloads*: per segment, the ascending indices of the saved
  units, one 64-bit content word per unit (the write-version signature
  standing in for the bytes -- see DESIGN.md on content signatures)
  and, under the bytes backend, the units' raw content.

Every checkpoint kind shares that one payload shape; only the *unit*
differs.  Full and incremental checkpoints save whole pages, dcp
checkpoints save sub-page blocks: :attr:`Checkpoint.unit_size` is
``block_size`` for ``kind == "dcp"`` and ``page_size`` otherwise, so a
page piece is simply a block piece with one block per page.

``nbytes`` models the stable-storage cost: one unit of data per saved
unit plus a small per-segment header.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError

#: modelled metadata cost per segment record
SEGMENT_HEADER_BYTES = 64


@dataclass(frozen=True)
class SegmentRecord:
    """Geometry of one data segment at capture time."""

    sid: int
    kind: str       #: SegmentKind value ("data", "bss", "heap", "mmap")
    base: int
    npages: int

    def __post_init__(self) -> None:
        if self.npages < 0:
            raise CheckpointError(f"negative page count in segment record")


@dataclass(frozen=True)
class UnitPayload:
    """Saved units of one segment: parallel index/version arrays, plus
    (under the bytes backend) the real unit contents.

    Unit ``i`` covers segment bytes ``[i * unit_size, (i + 1) *
    unit_size)``, with the unit size set by the owning checkpoint.
    ``versions`` carries one 64-bit word per saved unit -- the write
    version under the signature backend, or for dcp blocks under the
    bytes backend a truncated blake2b content digest.
    """

    sid: int
    indices: np.ndarray    #: unit indices within the segment (ascending)
    versions: np.ndarray   #: content signature per saved unit
    #: real content, shape (nunits, unit_size) uint8; None under the
    #: default signature-only backend
    unit_bytes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.versions):
            raise CheckpointError("payload index/version length mismatch")
        if self.unit_bytes is not None and len(self.unit_bytes) != len(self.indices):
            raise CheckpointError("payload byte-content length mismatch")


@dataclass(frozen=True)
class Checkpoint:
    """One rank's checkpoint: geometry + payloads."""

    seq: int
    kind: str                       #: "full", "incremental", or "dcp"
    taken_at: float
    page_size: int
    geometry: tuple[SegmentRecord, ...]
    payloads: tuple[UnitPayload, ...]
    #: sub-page block granularity (bytes); set iff ``kind == "dcp"``,
    #: whose payload units are blocks instead of pages
    block_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("full", "incremental", "dcp"):
            raise CheckpointError(f"unknown checkpoint kind {self.kind!r}")
        if self.kind == "dcp":
            if self.block_size is None:
                raise CheckpointError("dcp checkpoint needs a block size")
            if self.block_size < 1 or self.page_size % self.block_size:
                raise CheckpointError(
                    f"block size {self.block_size} must be >= 1 and divide "
                    f"the page size {self.page_size}")
        sids = {rec.sid for rec in self.geometry}
        for p in self.payloads:
            if p.sid not in sids:
                raise CheckpointError(
                    f"payload for sid {p.sid} has no geometry record")

    @property
    def unit_size(self) -> int:
        """Bytes per saved unit: the block size for dcp pieces, the page
        size otherwise."""
        return self.block_size if self.kind == "dcp" else self.page_size

    @property
    def units_saved(self) -> int:
        return sum(len(p.indices) for p in self.payloads)

    @property
    def nbytes(self) -> int:
        """Modelled size on stable storage.  The per-segment header
        amortizes a dcp piece's block bitmap, so a dcp delta at
        ``block_size == page_size`` costs exactly what the page-granular
        incremental delta would."""
        return (self.units_saved * self.unit_size
                + SEGMENT_HEADER_BYTES * len(self.geometry))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.units import fmt_bytes
        return (f"<Checkpoint seq={self.seq} {self.kind} "
                f"units={self.units_saved} ({fmt_bytes(self.nbytes)}) "
                f"t={self.taken_at:.2f}>")
