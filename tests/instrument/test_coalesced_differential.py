"""Differential suite: the coalesced-alarm engine against the recorded
stream of the seed per-timer path.

The TimerHub promises a *bit-identical* simulation: same per-rank
timeslice boundaries, same fault and reprotect accounting, same
checkpoint piece order.  The per-timer path is gone; its output on the
paper workloads is kept as sha256 digests in
:mod:`tests.sim.dispatch_reference` (computed from both paths, which
agreed), and these tests run the workloads and assert the full streams
still match it -- the contract everything in ``repro.sim.timers`` rests
on.

Runs are short (a handful of timeslices) so the 64-rank cases stay
cheap; identity is exact, so duration adds confidence, not coverage.
"""

from dataclasses import fields

import pytest

from repro.cluster.experiment import run_experiment
from repro.instrument.records import TimesliceRecord
from repro.obs import Observability, Tracer
from tests.sim.dispatch_reference import (EVENT_DIGESTS, RECORD_DIGESTS,
                                          TRACED_CONFIGS, event_digest,
                                          record_config, record_digest,
                                          record_stream, stream_digest)


@pytest.mark.parametrize("name", ["sage-50MB", "sweep3d", "bt"])
@pytest.mark.parametrize("nranks", [8, 64])
def test_streams_identical_across_apps_and_scales(name, nranks):
    result = run_experiment(record_config(name, nranks))
    assert set(result.logs) == set(range(nranks))
    assert result.iterations > 0
    assert record_digest(result) == RECORD_DIGESTS[name, nranks], (
        f"{name} x {nranks}: the record stream diverges from the "
        f"per-timer reference")


def test_reprotect_charges_and_slice_boundaries_match():
    """Per-slice overhead (fault cost + reprotect charge) and the slice
    boundary times are part of the pinned record stream; check that a
    change to any one of them in any one record changes the digest, so
    a future record-layout change cannot silently drop them from the
    comparison above."""
    result = run_experiment(record_config("sage-50MB", 8))
    stream = record_stream(result)
    assert stream_digest(stream) == RECORD_DIGESTS["sage-50MB", 8]
    column = {f.name: i for i, f in enumerate(fields(TimesliceRecord))}
    for rank in (0, 7):
        records = result.logs[rank].records
        assert records
        assert any(rec.faults and rec.overhead_time > 0 for rec in records)
        for slot in (0, len(records) - 1):
            row = stream["records"][rank][slot]
            for name in ("t_start", "t_end", "overhead_time", "faults",
                         "iws_pages"):
                saved = row[column[name]]
                row[column[name]] = saved + 1
                assert stream_digest(stream) != RECORD_DIGESTS["sage-50MB", 8]
                row[column[name]] = saved
    assert stream_digest(stream) == RECORD_DIGESTS["sage-50MB", 8]


def test_checkpoint_piece_order_identical():
    """With a checkpoint transport attached, pieces must be emitted in
    the exact order of the per-timer path."""
    obs = Observability(tracer=Tracer(wall_clock=None))
    result = run_experiment(TRACED_CONFIGS["sage-50MB-estimate"](), obs=obs)
    assert result.ckpt_commits > 0
    # the traced stream includes every ckpt piece/frame span in emission
    # order; a bit-identical stream means identical piece order
    assert event_digest(obs.tracer) == EVENT_DIGESTS["sage-50MB-estimate"]
    ckpt_events = [e for e in obs.tracer.events
                   if e.get("cat") == "checkpoint"]
    assert ckpt_events, "expected checkpoint events in the trace"


def test_traced_streams_identical_without_checkpointing():
    obs = Observability(tracer=Tracer(wall_clock=None))
    run_experiment(TRACED_CONFIGS["sweep3d"](), obs=obs)
    assert event_digest(obs.tracer) == EVENT_DIGESTS["sweep3d"]
