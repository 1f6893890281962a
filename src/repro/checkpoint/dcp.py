"""Differential (sub-page) checkpoints: hash blocks, save only changes.

Page-granular incremental checkpointing (section 4 of the paper) pays
for *false sharing*: one dirty byte charges a whole page to stable
storage.  The dcp mode splits every dirty page into fixed-size blocks,
hashes each block, compares against the per-page hash vector recorded
at the previous checkpoint, and emits only the blocks whose hash moved
-- the differential scheme later literature (see PAPERS.md) showed
recovers most of the page-granularity waste at a modest hash cost.

Two hashing backends, matching the address space's two content
backends:

- **signature backend** (default): a block's "hash" is its 64-bit
  write version from the page table's block rows
  (:attr:`~repro.mem.pagetable.PageTable.block_versions`).  Exact
  by construction -- a block whose bytes changed was written, so its
  version moved -- and restores are *version-identical*, so driver and
  experiment verification via ``state_signature()`` holds unchanged.
- **bytes backend** (``store_contents=True``): truncated blake2b over
  the real block bytes.  Blocks rewritten with identical content hash
  equal and are skipped -- content-hash dedup on top of write
  tracking.  Restored *content* is bit-identical; page versions are
  synthesized from hashes and carry no meaning (documented in
  DESIGN.md section 6.14).

Pages in the unconditionally-new portion of the capture mask (new
segments, heap growth, shrink-then-regrow) emit **all** their blocks
regardless of hash comparison: their baseline rows are stale or
absent, and the incremental checkpointer saves them whole for the same
reason.  This forced emit is what makes dcp at
``block_size == page_size`` byte-for-byte identical to incremental
mode.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.checkpoint.incremental import IncrementalCheckpointer
from repro.checkpoint.full import geometry_of, unit_bytes_of
from repro.checkpoint.snapshot import (Checkpoint, SEGMENT_HEADER_BYTES,
                                       UnitPayload)
from repro.errors import CheckpointError
from repro.mem import AddressSpace, Segment

#: baseline sentinel for blocks that have never been hashed; a real
#: hash colliding with it merely forces a spurious (safe) emit
NEVER_HASHED = np.uint64(0xFFFFFFFFFFFFFFFF)


def content_block_hashes(seg: Segment, pages: np.ndarray,
                         block_size: int) -> np.ndarray:
    """blake2b content hash (truncated to 64 bits) of every block of
    the given pages; shape ``(len(pages), blocks_per_page)`` uint64.
    Bytes backend only."""
    bpp = seg.page_size // block_size
    out = np.empty((len(pages), bpp), dtype=np.uint64)
    view = memoryview(seg.contents)
    for row, page in enumerate(pages):
        off = int(page) * seg.page_size
        for b in range(bpp):
            digest = hashlib.blake2b(
                view[off:off + block_size], digest_size=8).digest()
            out[row, b] = int.from_bytes(digest, "little")
            off += block_size
    return out


class DcpCheckpointer(IncrementalCheckpointer):
    """Per-process differential capture engine.

    Same observe/capture/mark_baseline contract as
    :class:`IncrementalCheckpointer`; deltas come out as ``"dcp"``
    checkpoints whose :class:`~repro.checkpoint.snapshot.UnitPayload`
    units are blocks.
    """

    def __init__(self, memory: AddressSpace, block_size: int = 256):
        super().__init__(memory)
        if block_size < 1 or memory.page_size % block_size:
            raise CheckpointError(
                f"dcp block size {block_size} must be >= 1 and divide "
                f"the page size {memory.page_size}")
        self.block_size = block_size
        self.blocks_per_page = memory.enable_block_tracking(block_size)
        #: sid -> flat per-block baseline hash vector (one uint64 per
        #: block of the segment, NEVER_HASHED where no hash exists yet)
        self._baseline: dict[int, np.ndarray] = {}
        # per-capture stats (for ckpt.dcp.* observability)
        self.last_blocks_hashed = 0
        self.last_blocks_written = 0
        #: what the page-granular incremental delta would have cost
        self.last_page_mode_nbytes = 0

    # -- hashing ---------------------------------------------------------------

    def _hashes_of(self, seg: Segment, pages: np.ndarray) -> np.ndarray:
        """Current block hash vectors for the given pages, shape
        ``(len(pages), blocks_per_page)``."""
        if seg.contents is not None:
            return content_block_hashes(seg, pages, self.block_size)
        return seg.pages.block_versions[pages]

    def _baseline_for(self, seg: Segment) -> np.ndarray:
        """The segment's baseline vector, resized to its current
        geometry (new blocks arrive as NEVER_HASHED)."""
        want = seg.npages * self.blocks_per_page
        base = self._baseline.get(seg.sid)
        if base is None:
            base = np.full(want, NEVER_HASHED, dtype=np.uint64)
            self._baseline[seg.sid] = base
        elif len(base) < want:
            grown = np.full(want, NEVER_HASHED, dtype=np.uint64)
            grown[:len(base)] = base
            base = grown
            self._baseline[seg.sid] = base
        elif len(base) > want:
            base = base[:want].copy()
            self._baseline[seg.sid] = base
        return base

    # -- capture ---------------------------------------------------------------

    def capture(self, seq: int, taken_at: float = 0.0) -> Checkpoint:
        """Produce the block-granular delta and reset the accumulator."""
        self.observe()
        bpp = self.blocks_per_page
        payloads = []
        blocks_hashed = 0
        blocks_written = 0
        pages_masked = 0
        nsegments = 0
        for seg in self.memory.data_segments():
            nsegments += 1
            if seg.npages == 0:
                continue
            mask, new = self._capture_masks(seg)
            pages = np.flatnonzero(mask)
            baseline = self._baseline_for(seg)
            if len(pages) == 0:
                continue
            pages_masked += len(pages)
            current = self._hashes_of(seg, pages)
            blocks_hashed += current.size
            base_rows = baseline.reshape(-1, bpp)[pages]
            changed = current != base_rows
            # new/grown/regrown pages: baseline is stale or absent, so
            # every block must go out -- exactly the pages incremental
            # mode saves unconditionally
            changed[new[pages]] = True
            baseline.reshape(-1, bpp)[pages] = current
            if not changed.any():
                continue
            flat = (pages[:, None] * bpp
                    + np.arange(bpp, dtype=pages.dtype))[changed]
            versions = current[changed].copy()
            blocks_written += len(flat)
            payloads.append(UnitPayload(
                sid=seg.sid,
                indices=flat.astype(np.int64),
                versions=versions,
                unit_bytes=unit_bytes_of(seg, flat, self.block_size)))
        ckpt = Checkpoint(seq=seq, kind="dcp", taken_at=taken_at,
                          page_size=self.memory.page_size,
                          geometry=geometry_of(self.memory),
                          payloads=tuple(payloads),
                          block_size=self.block_size)
        self.last_blocks_hashed = blocks_hashed
        self.last_blocks_written = blocks_written
        self.last_page_mode_nbytes = (
            pages_masked * self.memory.page_size
            + SEGMENT_HEADER_BYTES * nsegments)
        self._reset_after_capture()
        self._captures += 1
        return ckpt

    def mark_baseline(self) -> None:
        """A full checkpoint saved everything: refresh every segment's
        baseline hash vector to its current state."""
        super().mark_baseline()
        for seg in self.memory.data_segments():
            if seg.npages == 0:
                self._baseline.pop(seg.sid, None)
                continue
            base = np.empty(seg.npages * self.blocks_per_page,
                            dtype=np.uint64)
            all_pages = np.arange(seg.npages)
            base.reshape(-1, self.blocks_per_page)[:] = (
                self._hashes_of(seg, all_pages))
            self._baseline[seg.sid] = base

    def _reset_after_capture(self) -> None:
        super()._reset_after_capture()
        live = set(self._last_npages)
        for sid in [s for s in self._baseline if s not in live]:
            del self._baseline[sid]
