"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They are not part of the repository's test suite (``testpaths`` is
``tests``): they run real workloads and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import SPAN_NAMES, Tracer  # noqa: E402

#: the per-layer self-time metrics, one per span name
SELF_TIMES = [bench._span_metric(n) for n in SPAN_NAMES]

#: injected slowdown, as a share of the layer's measured self time
SLOWDOWN = 0.20
#: the slowed layer's share must rise by at least this much (relative,
#: median over pairs)
FLAGGED = 0.5 * SLOWDOWN
#: another layer's share may move by this much (relative, median over
#: pairs), or by SHARE_FLOOR when it is a tiny layer
OTHER_LAYER_TOLERANCE = 0.10
SHARE_FLOOR = 0.002


def _traced(inp, tracer):
    runner = bench.Runner(wl, inp, wl.expected_for(
        inp, json.loads(wl.EXPECTED_PATH.read_text())))
    rec = runner.traced(tracer)
    assert runner.failed == 0, runner.problems
    return rec


def _span_calls(tracer, name):
    return Counter(s[0] for s in tracer.spans
                   if s is not None and s[4] == tracer._op)[name]


def _sensitivity(workload, seed, span, metric, pairs):
    """Base and slowed traced operations in adjacent pairs, alternating
    which runs first; returns both lists and the injected seconds per
    operation."""
    inp = wl.make_inputs(workload, seed, HERE / "out")
    probe = Tracer()
    _traced(inp, probe)                       # warm-up
    first = _traced(inp, probe)
    calls = _span_calls(probe, span)
    per_call = SLOWDOWN * first["timings"][metric] / calls
    base, slow = [], []
    for i in range(pairs):
        order = [(base, {}), (slow, {span: per_call})]
        for out, delays in (order if i % 2 == 0 else order[::-1]):
            out.append(_traced(inp, Tracer(delays=delays)))
    return base, slow, per_call * calls


def _shares(rec, metric):
    """Each layer's self time as a share of the operation's work outside
    the slowed layer.  A phase of slower CPU stretches every layer alike
    and leaves these shares alone; the injected delay moves only the
    slowed layer's."""
    t = rec["timings"]
    rest = rec["wall"] - t[metric]
    return {k: t[k] / rest for k in SELF_TIMES}


def _check_flagged(base, slow, metric, injected):
    """The slowed layer's share rises in at least three pairs of four
    and by at least FLAGGED at the median; no other layer's share moves
    by more than its tolerance at the median.  Pairs are adjacent in
    time, so they share the machine's speed of the moment."""
    pairs = [(_shares(b, metric), _shares(s, metric))
             for b, s in zip(base, slow)]
    rises = [s[metric] / b[metric] - 1.0 for b, s in pairs]
    assert sum(r > 0 for r in rises) >= 0.75 * len(rises), rises
    assert statistics.median(rises) >= FLAGGED, rises
    for key in pairs[0][0]:
        if key == metric:
            continue
        b = statistics.median(p[0][key] for p in pairs)
        moved = statistics.median(s[key] - b_[key] for b_, s in pairs)
        limit = max(OTHER_LAYER_TOLERANCE * b, SHARE_FLOOR)
        assert abs(moved) <= limit, (key, b, moved, limit)
    # not asserted: on a machine whose CPU speed drifts by 10-20% between
    # operations, the traced wall's own move (the injected time, a few
    # percent of the operation) is inside its noise band; it is printed
    # for the record
    wall_moved = statistics.median(s["wall"] - b["wall"]
                                   for b, s in zip(base, slow))
    print(f"{metric}: share rises {[round(r, 3) for r in rises]}, "
          f"injected {injected:.4f} s/op, traced wall moved "
          f"{wall_moved:+.4f} s/op")


def test_sensitivity_net_send_on_scale():
    base, slow, injected = _sensitivity("scale", 1, "net.send",
                                        "net.send_s", pairs=6)
    _check_flagged(base, slow, "net.send_s", injected)


def test_sensitivity_piece_digest_on_recover():
    base, slow, injected = _sensitivity("recover", 1, "storage.digest",
                                        "storage.digest_s", pairs=8)
    _check_flagged(base, slow, "storage.digest_s", injected)


def test_self_times_add_up_and_exact_counters_repeat():
    inp = wl.make_inputs("ckpt", 0, HERE / "out")
    tracer = Tracer()
    a = _traced(inp, tracer)
    b = _traced(inp, tracer)
    for rec in (a, b):
        assert rec["self_sum"] == pytest.approx(rec["wall"], rel=1e-9)
    assert a["exact"] == b["exact"]
    assert a["exact"]["checkpoint.transport.frames"] > 0
    assert a["exact"]["sim.events"] > 0


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc


def test_two_traced_runs_agree_on_exact_counters():
    outs = []
    for _ in range(2):
        proc = _bench("--workload", "ckpt", "--seed", "3", "--seconds", "1",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout.splitlines()[-1]))
    units = {k: m["unit"] for k, m in outs[0]["metrics"].items()}
    exact = [k for k, u in units.items() if u in ("count", "bytes")]
    assert exact
    for key in exact:
        assert (outs[0]["metrics"][key]["value"]
                == outs[1]["metrics"][key]["value"]), key


def test_output_check_catches_a_changed_output():
    table = json.loads(wl.EXPECTED_PATH.read_text())
    pinned = table["ckpt"]
    op = wl.OpResult(outputs=dict(pinned), sim_s=1.0)
    assert wl.check(op, pinned) == []
    op.outputs["iterations"] += 1
    assert wl.check(op, pinned)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "scale", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
