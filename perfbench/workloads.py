"""The benchmark's three workloads, driven through the public API.

Each workload turns a seed into inputs (:func:`make_inputs`), runs one
complete *operation* on them (:func:`run_op`) and summarizes the
simulated outputs that :func:`check` compares against the values pinned
in ``expected.json``.  Only ``recover`` has random input: the seed draws
its fault plan; ``scale`` and ``ckpt`` ignore it (the run still
records it).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.checkpoint.recovery import RecoveryManager
from repro.cluster.experiment import (paper_config, run_experiment,
                                      run_with_failures)
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.mem import AddressSpace
from repro.storage import archive

#: recover's fault windows.  Sage's mid-run dcp increments carry no
#: block data, so only a full checkpoint can be corrupted: the flip
#: lands after the full piece of slice 68 is stored (t = 69 s) and before
#: the next piece is, so it mangles that full piece.  The crash lands
#: before the next full piece (slice 72, stored at t = 73 s) can commit,
#: so the newest committed sequence still chains back to the corrupted
#: piece and recovery must walk back past it, to slice 67.
FLIP_TIMES = (69.2, 69.6)
CRASH_TIMES = (70.5, 71.5, 72.5)
RECOVER_RANKS = 8


@dataclass
class Inputs:
    workload: str
    config: object
    #: the same simulation with no checkpoint engine (ckpt's baseline)
    baseline: object = None
    plan: FaultPlan = None
    plan_key: str = ""
    flip: tuple = ()
    workdir: Path = None
    nranks: int = 0


@dataclass
class OpResult:
    """What one operation produced."""

    outputs: dict
    sim_s: float
    #: recover only: archive on disk to verified restored address spaces
    restart_s: float = 0.0
    archive_bytes: int = 0
    #: cross-disk-boundary checks that failed (recover only)
    problems: list = field(default_factory=list)
    #: exact per-workload counters taken from the results, not the trace
    counters: dict = field(default_factory=dict)


def recover_plan(seed: int) -> tuple[FaultPlan, str, tuple]:
    """The seeded FLIP-then-CRASH plan, its key in ``expected.json`` and
    the flip's ``(time, rank)``."""
    rng = random.Random(seed)
    return plan_for(rng.choice(FLIP_TIMES), rng.choice(CRASH_TIMES),
                    rng.randrange(1, RECOVER_RANKS))


def plan_for(flip_t: float, crash_t: float, flip_rank: int) -> tuple:
    """One point of recover's plan space: a FLIP on ``flip_rank`` and a
    CRASH on the rank half the job away."""
    crash_rank = (flip_rank + RECOVER_RANKS // 2) % RECOVER_RANKS
    plan = FaultPlan([
        FaultEvent(time=flip_t, kind=FaultKind.FLIP, rank=flip_rank),
        FaultEvent(time=crash_t, kind=FaultKind.CRASH, rank=crash_rank),
    ])
    key = f"flip@{flip_t}:r{flip_rank},crash@{crash_t}:r{crash_rank}"
    return plan, key, (flip_t, flip_rank)


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    if workload == "scale":
        cfg = paper_config("sage-1000MB", nranks=256, timeslice=20.0,
                           run_duration=150.0)
        return Inputs(workload, cfg, nranks=256)
    if workload == "ckpt":
        cfg = paper_config("sage-100MB", nranks=8, timeslice=1.0,
                           ckpt_transport="network",
                           ckpt_interval_slices=1, ckpt_full_every=4,
                           ckpt_mode="incremental")
        return Inputs(workload, cfg,
                      baseline=cfg.scaled(ckpt_transport=None), nranks=8)
    if workload == "recover":
        cfg = paper_config("sage-100MB", nranks=RECOVER_RANKS,
                           timeslice=1.0, ckpt_mode="dcp",
                           dcp_block_size=256)
        plan, key, flip = recover_plan(seed)
        return Inputs(workload, cfg, plan=plan, plan_key=key,
                      flip=flip, workdir=workdir, nranks=RECOVER_RANKS)
    raise ValueError(f"unknown workload {workload!r}")


# -- simulated outputs ---------------------------------------------------


def _instrument(logs_by_life) -> dict:
    slices = iws = faults = 0
    for logs in logs_by_life:
        for log in logs.values():
            recs = log.records
            slices += len(recs)
            iws += sum(r.iws_pages for r in recs)
            faults += sum(r.faults for r in recs)
    return {"instrument.slices": slices, "instrument.iws_pages": iws,
            "instrument.faults": faults}


def _transport(stats_list) -> dict:
    out = {"checkpoint.transport.frames": 0,
           "checkpoint.transport.bytes_drained": 0,
           "checkpoint.transport.stalls": 0,
           "checkpoint.transport.stall_sim_s": 0.0}
    for st in stats_list:
        if st is None:
            continue
        out["checkpoint.transport.frames"] += st.frames
        out["checkpoint.transport.bytes_drained"] += st.bytes_drained
        out["checkpoint.transport.stalls"] += st.stalls
        out["checkpoint.transport.stall_sim_s"] += st.stall_time
    return out


def _chain_digest(store) -> str:
    """sha256 over every stored piece's (rank, seq, kind, nbytes, digest)."""
    h = hashlib.sha256()
    for rank in range(store.nranks):
        for o in store.pieces(rank):
            h.update(f"{o.rank}|{o.seq}|{o.kind}|{o.nbytes}|{o.digest}\n"
                     .encode())
    return h.hexdigest()


def _span(tracer, name):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


def run_op(inp: Inputs, tracer=None) -> OpResult:
    """One complete workload operation.  ``tracer`` (tracing on) only adds
    the ``cluster`` span around the harness call; everything else is
    traced by the wrappers it installed."""
    if inp.workload == "recover":
        return _recover_op(inp, tracer)
    with _span(tracer, "cluster"):
        res = run_experiment(inp.config)
    ib = res.ib()
    outputs = {"ib_avg_mbps": ib.avg_mbps, "ib_max_mbps": ib.max_mbps,
               "iterations": res.iterations, "commits": res.ckpt_commits,
               "final_time": res.final_time}
    counters = _instrument([res.logs])
    counters.update(_transport([res.transport_stats]))
    outputs.update(counters)
    if res.ckpt is not None:
        outputs["piece_chain_sha256"] = _chain_digest(res.ckpt.store)
    return OpResult(outputs=outputs, sim_s=res.final_time,
                    counters=counters)


def recover_outputs(res) -> tuple[dict, dict]:
    """A fault run's pinned simulated outputs, and its exact counters."""
    outputs = {
        "failures": [[f.time, f.kind, list(f.victims), f.detected_at,
                      f.recovered_seq, f.recovery_life, f.lost_work,
                      f.restore_time, f.downtime, f.restarted_at]
                     for f in res.failures],
        "corruptions": [[c.detected_at, c.life, c.rank, c.seq, c.reason,
                         c.rejected_seq] for c in res.corruptions],
        "recovered_seq": (res.failures[0].recovered_seq
                          if res.failures else None),
        "lives": [[l.t_start, l.t_end, l.iterations, len(l.committed)]
                  for l in res.lives],
        "final_time": res.final_time,
    }
    counters = _instrument([l.logs for l in res.lives])
    counters.update(_transport([l.transport_stats for l in res.lives]))
    counters.update({"faults.lives": len(res.lives),
                     "faults.failures": len(res.failures),
                     "faults.corruptions_detected": len(res.corruptions)})
    outputs.update(counters)
    return outputs, counters


def run_baseline(inp: Inputs) -> None:
    """ckpt's baseline: the same simulation with no checkpoint engine."""
    run_experiment(inp.baseline)


def _recover_op(inp: Inputs, tracer) -> OpResult:
    with _span(tracer, "cluster"):
        res = run_with_failures(inp.config, inp.plan, interval_slices=1,
                                full_every=4)
    outputs, counters = recover_outputs(res)
    life0 = res.lives[0]
    seq = outputs["recovered_seq"]
    stored = {(o.rank, o.seq): (o.digest, o.stored_at)
              for r in range(life0.store.nranks)
              for o in life0.store.pieces(r)}
    nranks = life0.store.nranks
    want_sigs = ({r: life0.signatures.get((r, seq)) for r in range(nranks)}
                 if seq is not None else {})
    flip_t, flip_rank = inp.flip
    flipped = {(flip_rank, max(s for (r, s), (_, at) in stored.items()
                               if r == flip_rank and at <= flip_t))}
    corrupted = {(c.rank, c.seq) for c in res.corruptions}
    sim_s = res.final_time
    inp.workdir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="recover-", dir=inp.workdir))
    path = tmp / "life0.rckpt"
    try:
        archive.save_store(life0.store, path)
        # release the fault run (and life 0's in-memory store) before
        # the archive is read back, so both never sit in memory at once
        del res, life0
        t0 = time.perf_counter()
        loaded = archive.load_store(path)
        manager = RecoveryManager(loaded)
        best = manager.best_recovery_seq()
        spaces = manager.restore_all(best) if best is not None else {}
        restart_s = time.perf_counter() - t0
        report = archive.scan_store(path)
        archive_bytes = path.stat().st_size
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = []
    loaded_digests = {(o.rank, o.seq): o.digest
                      for r in range(loaded.nranks)
                      for o in loaded.pieces(r)}
    if loaded_digests != {k: d for k, (d, _) in stored.items()}:
        problems.append("archive digests differ from the in-memory store")
    flagged = {(p.rank, p.seq) for p in report.pieces if not p.ok}
    if flagged != flipped or corrupted != flipped:
        problems.append(f"scan flagged {sorted(flagged)}, recovery "
                        f"detected {sorted(corrupted)}, the plan corrupted "
                        f"{sorted(flipped)}")
    if best != seq:
        problems.append(f"best_recovery_seq on the archive is {best}, "
                        f"the run recovered to {seq}")
    for rank, want in want_sigs.items():
        got = spaces.get(rank)
        if (want is None or got is None or not AddressSpace.signatures_equal(
                got.state_signature(), want)):
            problems.append(f"rank {rank} restored from the archive differs "
                            f"from life 0 at seq {seq}")
    return OpResult(outputs=outputs, sim_s=sim_s, restart_s=restart_s,
                    archive_bytes=archive_bytes, problems=problems,
                    counters=counters)


# -- pinned outputs ------------------------------------------------------


EXPECTED_PATH = Path(__file__).with_name("expected.json")


def expected_for(inp: Inputs, table: dict):
    """The pinned outputs of ``inp``, or None when none are pinned."""
    entry = table.get(inp.workload)
    if inp.workload == "recover":
        return None if entry is None else entry.get(inp.plan_key)
    return entry


def normalize(outputs: dict) -> dict:
    """Outputs as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(outputs))


def check(op: OpResult, expected) -> list[str]:
    """Every way an operation's outputs differ from the pinned ones."""
    problems = list(op.problems)
    if expected is None:
        return problems + ["no pinned outputs for these inputs"]
    got = normalize(op.outputs)
    for key in sorted(set(got) | set(expected)):
        if got.get(key) != expected.get(key):
            problems.append(f"{key}: got {got.get(key)!r}, pinned "
                            f"{expected.get(key)!r}")
    return problems
