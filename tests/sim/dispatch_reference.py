"""Recorded reference streams of the engine's dispatch.

The engine batches same-instant work: co-phased interval timers share
one :class:`~repro.sim.timers.TimerHub` event per epoch, and same-instant
process wakes and same-arrival message deliveries share one
:meth:`~repro.sim.Engine.schedule_coalesced` event each.  Batching may
change the host event count but never the simulation.

The reference is recorded as data: each digest below is the sha256 of
one full workload's output, computed from the seed per-event dispatch
path (one queued event per timer expiry, wake and delivery) and from the
coalesced path, which agreed.  Two kinds of stream are pinned:

* record streams -- ``final_time``, ``init_end_time``, ``iterations``,
  ``iteration_starts`` and every rank's timeslice records (slice
  boundaries, IWS, faults, reprotect charges) for three paper apps at
  8 and 64 ranks;
* traced event streams -- every span and instant of a run, in emission
  order, with and without a checkpoint transport, which pins the
  checkpoint piece and frame order too.

Any change to dispatch order shows up as a digest mismatch.  The
digests are checked by ``tests/instrument/test_coalesced_differential.py``
(plain runs) and ``tests/sim/test_batched_dispatch.py`` (runs with the
engine's dispatch tracing and profiling hooks on).
"""

import hashlib
import json
from dataclasses import astuple

from repro.cluster.experiment import paper_config
from repro.obs import Tracer, strip_wall_times


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def record_stream(result) -> dict:
    """A run's timing outcome and every rank's records, as plain data."""
    return {
        "final_time": result.final_time,
        "init_end_time": result.init_end_time,
        "iterations": result.iterations,
        "iteration_starts": result.iteration_starts,
        "records": [[list(astuple(rec)) for rec in result.logs[rank].records]
                    for rank in sorted(result.logs)],
    }


def stream_digest(stream: dict) -> str:
    """sha256 of a :func:`record_stream`."""
    return _sha256(stream)


def record_digest(result) -> str:
    """sha256 of a run's timing outcome and every rank's records."""
    return stream_digest(record_stream(result))


def event_digest(tracer: Tracer) -> str:
    """sha256 of a traced run's full event stream."""
    return _sha256(strip_wall_times(tracer.events))


def record_config(name, nranks):
    return paper_config(name, nranks=nranks, timeslice=1.0,
                        run_duration=10.0)


#: (app, ranks) -> record-stream digest
RECORD_DIGESTS = {
    ("bt", 8):
        "2c4a73ddca39347203566e6fb63afae9250cb0543f8fad1b2bafb5691525b5cb",
    ("bt", 64):
        "1f622d4780a4a691f335ab72eeabc95e0a2206b1029a37619373db20633295e9",
    ("sage-50MB", 8):
        "adbeed0814d2901763e467b091f9720a4cfa88e0628a953c28b43b767a8c29c5",
    ("sage-50MB", 64):
        "ba9e38dfd3ebdd90dbbb5302d447f364aab6fa3df5cc86179b7d491abf0beaf4",
    ("sweep3d", 8):
        "97abebaad85d1bcbfb0ed610f2627424e67e9e6743987855574290cf62b43333",
    ("sweep3d", 64):
        "9626c5f53eaf1bf753a0d9bb8661d1dd9dc35a832b1cd473c6adea771a275902",
}


#: workload -> config of a traced run
TRACED_CONFIGS = {
    "sage-50MB-estimate": lambda: paper_config(
        "sage-50MB", nranks=8, timeslice=1.0, run_duration=12.0,
        ckpt_transport="estimate"),
    "sweep3d": lambda: paper_config(
        "sweep3d", nranks=8, timeslice=1.0, run_duration=10.0),
}

#: workload -> traced event-stream digest
EVENT_DIGESTS = {
    "sage-50MB-estimate":
        "351c5ec3060b727b4c0aa4b2eb6ae8de4741f3b9721e9d1e627b11ee6e0bac09",
    "sweep3d":
        "2dc56250cec57ac02f20fcf9b310db484c69d382d8c593c3259dd560b2437f87",
}
