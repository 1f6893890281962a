"""Pinned on-disk checkpoint formats.

One small incremental store and one small dcp store, each captured by
the real checkpointers under both content backends, are written with
:func:`save_store`; the sha256 of the archive bytes and of the ordered
per-piece digests must match the pinned values exactly.  Any change to
the RCKPT1 framing, the payload codec or :func:`piece_digest` -- even
one that round-trips -- shows up here as a hash mismatch.

Segment sids come from a process-global counter, so every capture is
renumbered to sids 1, 2, ... (in geometry order) before it is stored;
everything else is the checkpointers' own output.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.checkpoint import (DcpCheckpointer, FullCheckpointer,
                              IncrementalCheckpointer)
from repro.mem import AddressSpace, Layout
from repro.storage import CheckpointStore
from repro.storage.archive import save_store

PS = 4096
BLOCK = 512


def _renumbered(ckpt, sids):
    """The checkpoint with process-global sids mapped to small ones."""
    for rec in ckpt.geometry:
        sids.setdefault(rec.sid, len(sids) + 1)
    return dataclasses.replace(
        ckpt,
        geometry=tuple(dataclasses.replace(r, sid=sids[r.sid])
                       for r in ckpt.geometry),
        payloads=tuple(dataclasses.replace(p, sid=sids[p.sid])
                       for p in ckpt.payloads))


def _store(mode, store_contents):
    """Full, two deltas (sub-page writes, heap growth, a new mapping),
    then a second full: a two-chain store with four pieces."""
    rng = np.random.default_rng(7)
    asp = AddressSpace(Layout(page_size=PS), data_size=4 * PS,
                       bss_size=2 * PS, store_contents=store_contents)
    inc = (DcpCheckpointer(asp, block_size=BLOCK) if mode == "dcp"
           else IncrementalCheckpointer(asp))
    full = FullCheckpointer()
    store = CheckpointStore(1)
    sids: dict[int, int] = {}

    def write(seg, offset, length):
        data = (rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
                if store_contents else None)
        asp.cpu_write(seg.base + offset, length, data=data)

    def put(seq, ckpt):
        ckpt = _renumbered(ckpt, sids)
        store.put(0, seq, ckpt.kind, ckpt.nbytes, payload=ckpt,
                  stored_at=float(seq))
        asp.reset_and_protect()

    write(asp.data, 0, 4 * PS)
    write(asp.bss, 100, 300)
    asp.protect_data()
    put(1, full.capture(asp, 1, taken_at=1.0))
    inc.mark_baseline()

    write(asp.data, PS + 7, 40)          # one block of page 1
    write(asp.data, 3 * PS - 10, 30)     # straddles pages 2 and 3
    asp.sbrk(2 * PS)
    write(asp.heap, 0, 100)
    put(2, inc.capture(2, taken_at=2.0))

    region = asp.mmap(3 * PS, name="tmp")
    write(region, PS, PS)
    write(asp.bss, 0, 8)
    put(3, inc.capture(3, taken_at=3.0))

    write(asp.data, 2 * PS, 64)
    put(4, full.capture(asp, 4, taken_at=4.0))
    inc.mark_baseline()
    store.mark_committed(3)
    store.mark_committed(4)
    return store


#: (mode, bytes backend) -> (sha256 of the archive, sha256 of the digests)
PINNED = {
    ("incremental", False): (
        "ed9e4cf3fe30bb03cee8cb0cb88c0db050c6db7cda2a1c0742cc25cd47e0dc7a",
        "74ccf1e72b3c51b798cb94955a0b8c919b3e728d7c90efcf4e73bce5113fd7c1"),
    ("incremental", True): (
        "27b81de521f89d084d4dff4def426a2074325218aa9fbc6b1b695706865d1cd9",
        "28027390dd8dc25f5a78807c0267580e1dd3d67d078714d0c9b8860879003df6"),
    ("dcp", False): (
        "332ce428cb90dffb36f708185f86954d3d99e101cd629744365badb06ff7bad2",
        "4f66d8dad9def90ab6b8155410b70a4e19b9f8270587a925222a26e4606fd55e"),
    ("dcp", True): (
        "5673f0ff9867ab6f3b299b864cbcbfe7d76d1ffd5ea65d5620bcf5dc31fb5e0c",
        "03909dbc265411e6c1819e775fbcaa3aa8b7bee24be2d924286ce0e21d7ef138"),
}


@pytest.mark.parametrize("mode,store_contents", sorted(PINNED),
                         ids=lambda v: str(v))
def test_archive_and_piece_digests_are_pinned(mode, store_contents,
                                              tmp_path):
    store = _store(mode, store_contents)
    kinds = [o.kind for o in store.pieces(0)]
    delta = "dcp" if mode == "dcp" else "incremental"
    assert kinds == ["full", delta, delta, "full"]
    path = save_store(store, tmp_path / "store.rckpt")
    archive_sha = hashlib.sha256(path.read_bytes()).hexdigest()
    digests_sha = hashlib.sha256(
        "\n".join(o.digest for o in store.pieces(0)).encode()).hexdigest()
    assert (archive_sha, digests_sha) == PINNED[(mode, store_contents)]
