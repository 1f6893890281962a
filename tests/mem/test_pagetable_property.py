"""Model-based property tests for PageTable growth and shrink.

The table over-allocates geometrically and keeps a high-water mark so
the brk shrink-then-regrow cycle never copies buffers and never rescans
the whole table.  These tests drive a random op sequence against a naive
reference model (plain arrays, resized by copy) and assert the visible
state -- protection, dirty, versions, the optional dcp block rows --
plus the ``_ndirty`` invariant stay exact through every grow/shrink
round-trip, split and recycle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.mem import PageTable


class ModelTable:
    """The obviously-correct reference: copy-resized dense arrays."""

    def __init__(self, npages):
        self.protected = np.zeros(npages, dtype=bool)
        self.dirty = np.zeros(npages, dtype=bool)
        self.versions = np.zeros(npages, dtype=np.uint64)
        #: ``(npages, blocks_per_page)`` block versions, None until enabled
        self.blocks = None

    @property
    def npages(self):
        return len(self.protected)

    def cpu_write(self, lo, hi, version):
        prot = self.protected[lo:hi]
        self.dirty[lo:hi] |= prot
        self.protected[lo:hi] = False
        self.versions[lo:hi] = version

    def protect_all(self):
        self.protected[:] = True

    def protect_range(self, lo, hi, value):
        self.protected[lo:hi] = value

    def unprotect_all(self):
        self.protected[:] = False

    def reset_dirty(self):
        self.dirty[:] = False

    def resize(self, npages):
        old = self.npages
        for name in ("protected", "dirty", "versions", "blocks"):
            arr = getattr(self, name)
            if arr is None:
                continue
            new = np.zeros((npages,) + arr.shape[1:], dtype=arr.dtype)
            new[:min(old, npages)] = arr[:min(old, npages)]
            setattr(self, name, new)

    def enable_blocks(self, bpp):
        self.blocks = np.zeros((self.npages, bpp), dtype=np.uint64)

    def write_pages(self, lo, hi, version):
        """A whole-page store as the address space issues it: the page
        write plus, with block rows on, every block of every page."""
        self.cpu_write(lo, hi, version)
        if self.blocks is not None:
            self.blocks[lo:hi] = version

    def mark_blocks(self, lo, hi, version):
        self.blocks.reshape(-1)[lo:hi] = version

    def split(self, at):
        tail = ModelTable(self.npages - at)
        for name in ("protected", "dirty", "versions", "blocks"):
            arr = getattr(self, name)
            if arr is not None:
                setattr(tail, name, arr[at:].copy())
        self.resize(at)
        return tail

    def recycle(self):
        for name in ("protected", "dirty", "versions", "blocks"):
            arr = getattr(self, name)
            if arr is not None:
                arr[...] = 0


def _op_strategy():
    page = st.integers(min_value=0, max_value=64)
    return st.lists(st.one_of(
        st.tuples(st.just("cpu_write"), page, page),
        st.tuples(st.just("protect_all")),
        st.tuples(st.just("protect_range"), page, page, st.booleans()),
        st.tuples(st.just("unprotect_all")),
        st.tuples(st.just("reset_dirty")),
        st.tuples(st.just("resize"), st.integers(min_value=0, max_value=96)),
    ), min_size=1, max_size=80)


def _check(table, model):
    assert table.npages == model.npages
    np.testing.assert_array_equal(table.protected, model.protected)
    np.testing.assert_array_equal(table.dirty, model.dirty)
    np.testing.assert_array_equal(table.versions, model.versions)
    # the O(1) alarm-path counter must stay exact under every resize path
    assert table._ndirty == int(np.count_nonzero(model.dirty))
    assert table.dirty_count() == table._ndirty
    if model.blocks is None:
        assert table.blocks_per_page == 0 and table.block_versions is None
    else:
        assert table.blocks_per_page == model.blocks.shape[1]
        np.testing.assert_array_equal(table.block_versions, model.blocks)


@given(st.integers(min_value=0, max_value=48), _op_strategy())
@settings(max_examples=200, deadline=None)
def test_grow_shrink_roundtrips_preserve_state(initial, ops):
    table = PageTable(initial)
    model = ModelTable(initial)
    version = 0
    for op in ops:
        kind = op[0]
        if kind == "cpu_write":
            lo, hi = sorted((op[1], op[2]))
            hi = min(hi, table.npages)
            lo = min(lo, hi)
            version += 1
            table.cpu_write(lo, hi, version)
            model.cpu_write(lo, hi, version)
        elif kind == "protect_all":
            table.protect_all()
            model.protect_all()
        elif kind == "protect_range":
            lo, hi = sorted((op[1], op[2]))
            hi = min(hi, table.npages)
            lo = min(lo, hi)
            table.protect_range(lo, hi, value=op[3])
            model.protect_range(lo, hi, op[3])
        elif kind == "unprotect_all":
            table.unprotect_all()
            model.unprotect_all()
        elif kind == "reset_dirty":
            table.reset_dirty()
            model.reset_dirty()
        elif kind == "resize":
            table.resize(op[1])
            model.resize(op[1])
        _check(table, model)


def _block_op_strategy():
    # small tables, so shrink-then-regrow and split land on stamped rows
    page = st.integers(min_value=0, max_value=24)
    block = st.integers(min_value=0, max_value=24 * 8)
    return st.lists(st.one_of(
        st.tuples(st.just("enable_blocks"), st.integers(1, 8)),
        st.tuples(st.just("write_pages"), page, page),
        st.tuples(st.just("mark_blocks"), block, block),
        st.tuples(st.just("protect_all")),
        st.tuples(st.just("reset_dirty")),
        st.tuples(st.just("resize"), st.integers(min_value=0, max_value=32)),
        st.tuples(st.just("split"), page, st.booleans()),
        st.tuples(st.just("recycle")),
    ), min_size=1, max_size=80)


@given(st.integers(min_value=0, max_value=16), st.integers(0, 8),
       _block_op_strategy())
@settings(max_examples=300, deadline=None)
def test_block_rows_track_the_model(initial, bpp, ops):
    """Block rows live in the page table's buffers: enabled at a random
    blocks-per-page (up front, or later by an op), stamped by whole-page
    writes and flat block marks, and grown, shrunk, split and recycled
    by the same code as the page state -- equal to the copy-resized
    model after every step."""
    table = PageTable(initial)
    model = ModelTable(initial)
    if bpp:
        table.enable_blocks(bpp)
        model.enable_blocks(bpp)
    version = 0
    for op in ops:
        kind = op[0]
        if kind == "enable_blocks":
            if model.blocks is not None and model.blocks.shape[1] != op[1]:
                with pytest.raises(MappingError):
                    table.enable_blocks(op[1])
            else:
                table.enable_blocks(op[1])
                if model.blocks is None:
                    model.enable_blocks(op[1])
        elif kind == "write_pages":
            lo, hi = sorted((op[1], op[2]))
            hi = min(hi, table.npages)
            lo = min(lo, hi)
            version += 1
            table.cpu_write(lo, hi, version)
            if table.blocks_per_page:
                table.block_versions[lo:hi] = version
            model.write_pages(lo, hi, version)
        elif kind == "mark_blocks":
            if model.blocks is None:
                with pytest.raises(MappingError):
                    table.mark_blocks(0, 1, version)
                continue
            lo, hi = sorted((op[1], op[2]))
            hi = min(hi, model.blocks.size)
            lo = min(lo, hi)
            version += 1
            table.mark_blocks(lo, hi, version)
            model.mark_blocks(lo, hi, version)
        elif kind == "protect_all":
            table.protect_all()
            model.protect_all()
        elif kind == "reset_dirty":
            table.reset_dirty()
            model.reset_dirty()
        elif kind == "resize":
            table.resize(op[1])
            model.resize(op[1])
        elif kind == "split":
            at = min(op[1], table.npages)
            tail, model_tail = table.split(at), model.split(at)
            _check(tail, model_tail)
            _check(table, model)
            if op[2]:
                # carry on with the tail; the head is checked above
                table, model = tail, model_tail
        elif kind == "recycle":
            table.recycle()
            model.recycle()
        _check(table, model)


@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=39),
       st.integers(min_value=1, max_value=80))
@settings(max_examples=200, deadline=None)
def test_shrink_then_regrow_never_resurrects_state(initial, down, up):
    """Pages dropped by a shrink come back clean, unprotected, version 0,
    block rows included -- however the high-water mark and capacity
    happen to line up."""
    down = min(down, initial)
    table = PageTable(initial)
    table.enable_blocks(3)
    table.protect_all()
    table.cpu_write(0, initial, version=7)   # everything dirty, version 7
    table.mark_blocks(0, 3 * initial, 7)
    assert table._ndirty == initial
    table.resize(down)
    assert table._ndirty == down
    table.resize(up)
    # surviving prefix keeps its state; regrown tail is pristine
    keep = min(down, up)
    np.testing.assert_array_equal(table.dirty[:keep],
                                  np.ones(keep, dtype=bool))
    np.testing.assert_array_equal(table.versions[:keep],
                                  np.full(keep, 7, dtype=np.uint64))
    np.testing.assert_array_equal(table.dirty[keep:],
                                  np.zeros(up - keep, dtype=bool))
    np.testing.assert_array_equal(table.protected[keep:],
                                  np.zeros(up - keep, dtype=bool))
    np.testing.assert_array_equal(table.versions[keep:],
                                  np.zeros(up - keep, dtype=np.uint64))
    np.testing.assert_array_equal(table.block_versions[:keep],
                                  np.full((keep, 3), 7, dtype=np.uint64))
    np.testing.assert_array_equal(table.block_versions[keep:],
                                  np.zeros((up - keep, 3), dtype=np.uint64))
    assert table._ndirty == keep == int(np.count_nonzero(table.dirty))


def test_within_capacity_roundtrip_does_not_copy_buffers():
    """The no-copy fast path: shrink + regrow inside capacity must reuse
    the same backing buffers (identity), and growth past capacity must
    still preserve the live prefix."""
    table = PageTable(16)
    table.protect_all()
    table.cpu_write(0, 16, version=3)
    bufs = (table._protected_buf, table._dirty_buf, table._versions_buf)
    table.resize(4)
    table.resize(16)
    assert (table._protected_buf, table._dirty_buf,
            table._versions_buf) == bufs
    # past capacity: new buffers, surviving state carried over
    table.cpu_write(0, 4, version=9)
    table.resize(1000)
    assert table._versions_buf is not bufs[2]
    np.testing.assert_array_equal(table.versions[:4],
                                  np.full(4, 9, dtype=np.uint64))
    assert table._ndirty == int(np.count_nonzero(table.dirty))
