"""Batched same-instant dispatch: ``Engine.schedule_coalesced``
semantics, hypothesis interleavings of batched deliveries and wakes
against the order one queued event per item fires in, and full
workloads against the recorded stream of the per-event seed path.

The contract mirrors the TimerHub's: batching same-sim-time work into
one engine event may never change the simulation -- same delivery
order, same resume order, same virtual times -- only the host event
count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.experiment import run_experiment
from repro.net import Message, Network
from repro.obs import (DEFAULT_CATEGORIES, ENGINE_DISPATCH, EngineProfiler,
                       Observability, Tracer)
from repro.sim import Engine, Future, SimProcess, PRIORITY_LATE
from repro.sim.process import ProcessState
from tests.sim.dispatch_reference import (EVENT_DIGESTS, RECORD_DIGESTS,
                                          TRACED_CONFIGS, event_digest,
                                          record_config, record_digest)


# -- schedule_coalesced unit semantics ----------------------------------------

def test_same_instant_calls_share_one_event_in_join_order():
    eng = Engine()
    fired = []
    # fn is compared by identity, so callers hold one stable callable
    # (a fresh bound method like fired.append would never coalesce)
    collect = fired.append
    pending = eng.pending_events()
    ev1 = eng.schedule_coalesced(1.0, collect, "a")
    ev2 = eng.schedule_coalesced(1.0, collect, "b")
    ev3 = eng.schedule_coalesced(1.0, collect, "c")
    assert ev1 is ev2 is ev3
    assert eng.pending_events() == pending + 1
    eng.run()
    assert fired == ["a", "b", "c"]


def test_plain_event_at_same_instant_seals_the_batch():
    """An interloping ``schedule_at`` closes the open batch so later
    joins sort *after* it -- exactly where per-item events would."""
    eng = Engine()
    fired = []
    collect = fired.append
    eng.schedule_coalesced(1.0, collect, "a")
    eng.schedule_at(1.0, collect, "plain")
    eng.schedule_coalesced(1.0, collect, "b")
    assert eng.pending_events() == 3   # batch, interloper, fresh batch
    eng.run()
    assert fired == ["a", "plain", "b"]


def test_distinct_fn_time_or_priority_do_not_coalesce():
    eng = Engine()
    fired = []
    other = []
    collect, collect_other = fired.append, other.append
    eva = eng.schedule_coalesced(1.0, collect, "a")
    evb = eng.schedule_coalesced(2.0, collect, "b")             # time
    evc = eng.schedule_coalesced(2.0, collect_other, "c")       # fn
    evd = eng.schedule_coalesced(2.0, collect_other, "d",
                                 priority=PRIORITY_LATE)        # priority
    assert len({id(e) for e in (eva, evb, evc, evd)}) == 4
    eng.run()
    assert fired == ["a", "b"] and other == ["c", "d"]


def test_cancelled_batch_is_not_joined():
    """Cancelling the shared event drops every joined item; a later
    call opens a fresh batch instead of boarding the dead one."""
    eng = Engine()
    fired = []
    collect = fired.append
    ev = eng.schedule_coalesced(1.0, collect, "dropped")
    eng.schedule_coalesced(1.0, collect, "also-dropped")
    ev.cancel()
    ev2 = eng.schedule_coalesced(1.0, collect, "live")
    assert ev2 is not ev
    eng.run()
    assert fired == ["live"]


def test_batch_fired_from_inside_a_batch_opens_a_fresh_event():
    """A batch item scheduling more same-instant coalesced work must get
    a new event (the firing batch's item list is already being drained)."""
    eng = Engine()
    fired = []

    def chain(tag):
        fired.append(tag)
        if tag == "first":
            eng.schedule_coalesced(eng.now, chain, "second")
            eng.schedule_coalesced(eng.now, chain, "third")

    eng.schedule_coalesced(1.0, chain, "first")
    eng.run()
    assert fired == ["first", "second", "third"]
    assert eng.now == 1.0


# -- hypothesis: interleavings are batching-invariant -------------------------

@given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0]),
                                    st.floats(min_value=0.0, max_value=3.0,
                                              allow_nan=False)),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=3),
                          st.one_of(st.sampled_from([0, 4096]),
                                    st.integers(min_value=0,
                                                max_value=65536))),
                min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_delivery_order_identical_with_and_without_batching(sends):
    """Random (send-time, src, dst, size) interleavings, with equal
    arrivals common: the batched delivery path delivers every message
    at the arrival time ``send`` returned, in send order among equal
    arrivals -- the order one queued event per message fires in."""
    eng = Engine()
    net = Network(eng, nnodes=4)
    log = []
    sent = []           # (arrival, send order, dst, src, tag, size)

    def send(msg):
        arrival = net.send(msg)
        sent.append((arrival, len(sent), msg.dst, msg.src, msg.tag, msg.size))

    for node in range(4):
        net.attach(node, lambda m, n=node:
                   log.append((eng.now, n, m.src, m.tag, m.size)))
    for tag, (t, src, dst, size) in enumerate(sends):
        # tag doubles as a unique identity so the comparison does not
        # depend on the global Message mid counter
        eng.schedule_at(t, send, Message(src=src, dst=dst, size=size,
                                         tag=tag))
    eng.run()
    assert log == [(arrival, dst, src, tag, size) for arrival, _, dst, src,
                   tag, size in sorted(sent, key=lambda s: s[:2])]


class _PerEventWake(SimProcess):
    """The reference wake: one queued event per resolved future."""

    def _on_future(self, value):
        if self.state is ProcessState.BLOCKED:
            self._wakeup = self.engine.schedule(0.0, self._resume, value)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_wake_order_identical_with_and_without_batching(data):
    """Random future/waiter topologies with colliding resolve times:
    batched resumes happen at the same virtual times, in the same
    order, with the same values as per-process wake events."""
    nfuts = data.draw(st.integers(min_value=1, max_value=5), label="nfuts")
    nprocs = data.draw(st.integers(min_value=1, max_value=4), label="nprocs")
    # each process waits on an arbitrary sequence of future indices
    waits = [data.draw(st.lists(st.integers(min_value=0, max_value=nfuts - 1),
                                min_size=1, max_size=4), label=f"waits{p}")
             for p in range(nprocs)]
    # few distinct times so same-instant resolution collisions are common
    times = [data.draw(st.sampled_from([0.0, 1.0, 1.0, 2.0]),
                       label=f"t{f}") for f in range(nfuts)]

    def run(process_cls):
        eng = Engine()
        futs = [Future(eng, label=f"f{i}") for i in range(nfuts)]
        log = []

        def body(name, seq):
            for idx in seq:
                value = yield futs[idx]
                log.append((eng.now, name, idx, value))

        for p, seq in enumerate(waits):
            process_cls(eng, body(f"w{p}", seq), name=f"w{p}")
        for f, fut in enumerate(futs):
            eng.schedule_at(times[f], fut.resolve, f * 10)
        eng.run()
        return log

    assert run(SimProcess) == run(_PerEventWake)


# -- full workloads against the per-event reference ---------------------------
#
# The digests in tests/sim/dispatch_reference.py were computed from the
# per-event seed path and from the batched path, which agreed.  These
# runs take the engine loop's observed arms -- a dispatch instant traced
# and a profiler hook called per fired event -- which must not change
# the simulation either.

@pytest.mark.parametrize("name", ["sage-50MB", "sweep3d"])
def test_experiment_streams_identical_across_dispatch_paths(name):
    obs = Observability(
        tracer=Tracer(DEFAULT_CATEGORIES | {ENGINE_DISPATCH},
                      wall_clock=None),
        profiler=EngineProfiler())
    result = run_experiment(record_config(name, 8), obs=obs)
    assert record_digest(result) == RECORD_DIGESTS[name, 8]
    dispatched = [e for e in obs.tracer.events
                  if e.get("cat") == ENGINE_DISPATCH]
    # every fired event was both traced and seen by the profiler hook
    assert len(dispatched) == obs.profiler.events > 0


def test_traced_streams_identical_across_dispatch_paths():
    obs = Observability(tracer=Tracer(wall_clock=None),
                        profiler=EngineProfiler())
    result = run_experiment(TRACED_CONFIGS["sage-50MB-estimate"](), obs=obs)
    assert result.ckpt_commits > 0
    assert obs.profiler.events > 0
    assert event_digest(obs.tracer) == EVENT_DIGESTS["sage-50MB-estimate"]
