"""Run one benchmark workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload recover --seed 7 --seconds 25 --trace 1

Run from the repository root.  ``--trace 0`` repeats the workload's
operation untraced and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics (see README.md).  Every operation's simulated outputs are
checked against ``expected.json``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("scale", "ckpt", "recover")
#: set-up is timed in this many fresh interpreters; the median is reported
SETUP_REPEATS = 5
#: fewest untraced operations (and untraced/traced pairs) in one run
MIN_OPS = 3
MIN_PAIRS = 2
#: untraced operations are timed in consecutive batches of at least this
#: many seconds, and a timing is the median of the batch means.  The
#: machine's CPU speed drifts in phases of several seconds; a batch this
#: long averages over a phase where a single short operation falls
#: inside one.
BATCH_SECONDS = 5.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "ok_rate": "fraction",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path, default=None,
                    help="span file of the traced run (default: "
                         "perfbench/out/trace-<workload>-<seed>.jsonl.gz)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def median(values):
    return statistics.median(values) if values else 0.0


def batches(values: list[float]) -> list[list[int]]:
    """Consecutive index groups of ``values`` each summing to at least
    BATCH_SECONDS (the last group may fall short)."""
    groups, cur, acc = [], [], 0.0
    for i, v in enumerate(values):
        cur.append(i)
        acc += v
        if acc >= BATCH_SECONDS:
            groups.append(cur)
            cur, acc = [], 0.0
    if cur:
        groups.append(cur)
    return groups


def batch_median(values: list[float], groups) -> float:
    """Median over ``groups`` of the mean of ``values`` in each."""
    return median([statistics.fmean(values[i] for i in g) for g in groups])


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure_setup(args) -> list[float]:
    """Interpreter start to workload inputs ready, in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--setup-only"],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("set-up child failed")
        times.append(t1 - t0)
    return times


class Runner:
    """Repeats one workload's operation and accumulates what it measured."""

    def __init__(self, wl, inp, expected):
        self.wl = wl
        self.inp = inp
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.sim_s: list[float] = []
        self.restarts: list[float] = []
        self.base_walls: list[float] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def _checked(self, op) -> bool:
        self.attempted += 1
        problems = self.wl.check(op, self.expected)
        if problems:
            self.fail(f"{self.inp.workload} op {self.attempted}: "
                       + "; ".join(problems[:5]))
        return not problems

    def _op(self, tracer=None):
        """One operation, or None when it raised (counted as failed)."""
        try:
            return self.wl.run_op(self.inp, tracer)
        except Exception:
            self.attempted += 1
            self.fail(traceback.format_exc())
            return None

    def warm_up(self) -> None:
        """One checked but untimed operation: the first operation in a
        process pays for growing the heap and for lazy imports, which
        later operations do not."""
        gc.collect()
        op = self._op()
        if op is not None:
            self._checked(op)

    def untraced(self) -> None:
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter()
        op = self._op()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if op is not None and self._checked(op):
            self.walls.append(wall)
            self.cpus.append(cpu)
            self.sim_s.append(op.sim_s)
            if self.inp.workload == "recover":
                self.restarts.append(op.restart_s)
        if self.inp.baseline is not None:
            gc.collect()
            t0 = time.perf_counter()
            self.wl.run_baseline(self.inp)
            self.base_walls.append(time.perf_counter() - t0)

    def traced(self, tracer):
        """One traced operation; returns its layer record or None."""
        gc.collect()
        tracer.install()
        tracer.begin_op()
        try:
            op = self._op(tracer)
        finally:
            wall = tracer.end_op()
            tracer.uninstall()
        if op is None or not self._checked(op):
            return None
        return layer_record(tracer, op, wall)


# -- per-layer metrics ---------------------------------------------------

def _span_metric(name: str) -> str:
    if name in ("bench", "cluster", "sim"):
        return f"{name}.self_s"
    return f"{name}_s"


def layer_record(tracer, op, wall) -> dict:
    """One traced operation's layer timings and exact counters."""
    from tracing import SPAN_NAMES
    selfs = tracer.self_times(tracer._op)
    timings = {_span_metric(n): selfs[n] for n in SPAN_NAMES}
    exact = {
        "mem.maps": 0, "mem.pages_protected": 0, "mpi.bytes_sent": 0,
        "checkpoint.captures_full": 0, "checkpoint.captures_incremental": 0,
        "checkpoint.bytes_captured": 0, "checkpoint.dcp.captures": 0,
        "checkpoint.dcp.blocks_hashed": 0, "checkpoint.dcp.blocks_written": 0,
        "checkpoint.bytes_restored": 0, "storage.bytes_digested": 0,
        "faults.lives": 1, "faults.failures": 0,
        "faults.corruptions_detected": 0,
    }
    exact.update(tracer.counters)
    exact.update(tracer.engine_counts())
    exact.update(tracer.network_counts())
    exact.update(op.counters)
    exact["storage.archive.bytes"] = op.archive_bytes
    exact["checkpoint.captures"] = len(tracer.capture_ms)

    def rate(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    t = timings
    timings.update({
        "sim.ns_per_event": rate(t["sim.self_s"], exact["sim.events"], 1e9),
        "mem.sweep_ns_per_page": rate(t["mem.sweep_s"],
                                      exact["mem.pages_protected"], 1e9),
        "net.ns_per_msg": rate(t["net.send_s"], exact["net.messages"], 1e9),
        "checkpoint.capture_mb_per_s": rate(
            exact["checkpoint.bytes_captured"], t["checkpoint.capture_s"],
            1e-6),
        "checkpoint.capture_p50_ms": median(tracer.capture_ms),
        "checkpoint.restore_mb_per_s": rate(
            exact["checkpoint.bytes_restored"], t["checkpoint.restore_s"],
            1e-6),
        "storage.digest_mb_per_s": rate(exact["storage.bytes_digested"],
                                        t["storage.digest_s"], 1e-6),
        "storage.archive.load_mb_per_s": rate(
            op.archive_bytes,
            tracer.span_total(tracer._op, "storage.archive.load"), 1e-6),
        "obs.traced_wall_s": wall,
    })
    # the tail percentile is 100 * (n - 10) / n for n captures
    tl = tail(tracer.capture_ms)
    timings["checkpoint.capture_tail_ms"] = tl[1] if tl else 0.0
    exact["checkpoint.dcp.write_ratio"] = rate(
        exact["checkpoint.dcp.blocks_written"],
        exact["checkpoint.dcp.blocks_hashed"])
    return {"timings": timings, "exact": exact,
            "self_sum": sum(selfs.values()), "wall": wall}


PER_LAYER_UNITS = {
    "cluster.self_s": "s", "bench.self_s": "s",
    "sim.self_s": "s", "sim.events": "count", "sim.cancelled": "count",
    "sim.timer_epochs": "count", "sim.ns_per_event": "ns",
    "mem.map_s": "s", "mem.maps": "count", "mem.sweep_s": "s",
    "mem.pages_protected": "count", "mem.sweep_ns_per_page": "ns",
    "mem.signature_s": "s",
    "instrument.slices": "count", "instrument.iws_pages": "count",
    "instrument.faults": "count",
    "mpi.send_s": "s", "mpi.bytes_sent": "bytes",
    "net.send_s": "s", "net.messages": "count", "net.bytes": "bytes",
    "net.ns_per_msg": "ns", "net.storage_send_s": "s",
    "checkpoint.capture_s": "s", "checkpoint.captures": "count",
    "checkpoint.captures_full": "count",
    "checkpoint.captures_incremental": "count",
    "checkpoint.bytes_captured": "bytes",
    "checkpoint.capture_mb_per_s": "MB/s",
    "checkpoint.capture_p50_ms": "ms", "checkpoint.capture_tail_ms": "ms",
    "checkpoint.observe_s": "s",
    "checkpoint.dcp.capture_s": "s", "checkpoint.dcp.baseline_s": "s",
    "checkpoint.dcp.captures": "count",
    "checkpoint.dcp.blocks_hashed": "count",
    "checkpoint.dcp.blocks_written": "count",
    "checkpoint.dcp.write_ratio": "fraction",
    "checkpoint.transport.frames": "count",
    "checkpoint.transport.bytes_drained": "bytes",
    "checkpoint.transport.stalls": "count",
    "checkpoint.transport.stall_sim_s": "sim-s",
    "checkpoint.restore_s": "s", "checkpoint.bytes_restored": "bytes",
    "checkpoint.restore_mb_per_s": "MB/s",
    "storage.put_s": "s", "storage.digest_s": "s",
    "storage.bytes_digested": "bytes", "storage.digest_mb_per_s": "MB/s",
    "storage.verify_s": "s", "storage.disk_write_s": "s",
    "storage.archive.save_s": "s", "storage.archive.load_s": "s",
    "storage.archive.scan_s": "s", "storage.archive.bytes": "bytes",
    "storage.archive.load_mb_per_s": "MB/s",
    "faults.lives": "count", "faults.failures": "count",
    "faults.corruptions_detected": "count",
    "obs.trace_overhead_pct": "%", "obs.traced_wall_s": "s",
    "rank_sim_s_per_s": "rank-sim-s/s", "ckpt_slowdown_x": "x",
    "ckpt_base_wall_s": "s", "restart_s": "s",
}


#: exact between runs but not between the operations of one run: the
#: archive's JSON headers carry segment ids, which a process-wide
#: counter hands out, so each later operation's archive is a few bytes
#: longer
PROCESS_HISTORY = ("storage.archive.bytes",)


def per_layer_metrics(runner: Runner, records: list[dict]) -> dict:
    """Medians of the traced operations' timings, the exact counters
    (which must agree across operations), and the untraced figures the
    traced run also measures."""
    values = {}
    for key in records[0]["timings"]:
        values[key] = median([r["timings"][key] for r in records])
    first = records[0]["exact"]
    for r in records[1:]:
        drift = sorted(k for k in first if r["exact"].get(k) != first[k]
                       and k not in PROCESS_HISTORY)
        if drift:
            runner.fail(f"exact counters drifted between operations: "
                         f"{drift}")
    values.update(first)
    for r in records:
        if abs(r["self_sum"] - r["wall"]) > 1e-6 * r["wall"]:
            runner.fail(f"layer self times sum to {r['self_sum']} s, "
                         f"traced wall is {r['wall']} s")
    untraced = median(runner.walls)
    values["obs.trace_overhead_pct"] = (
        (values["obs.traced_wall_s"] / untraced - 1.0) * 100.0
        if untraced else 0.0)
    values.update(derived_metrics(runner))
    return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]}
            for k in PER_LAYER_UNITS}


def derived_metrics(runner: Runner) -> dict:
    """Untraced figures outside the JSON end-to-end set: the throughput
    (a reciprocal of ``wall_s``), ``ckpt_slowdown_x`` with its base
    (ckpt) and ``restart_s`` (recover); 0 where they do not apply."""
    wall = batch_median(runner.walls, batches(runner.walls))
    base = median(runner.base_walls)
    return {
        "rank_sim_s_per_s": (runner.inp.nranks * median(runner.sim_s) / wall
                             if wall else 0.0),
        "ckpt_slowdown_x": wall / base if base else 0.0,
        "ckpt_base_wall_s": base,
        "restart_s": median(runner.restarts),
    }


# -- output --------------------------------------------------------------

def print_row(args, runner: Runner, metrics: dict) -> None:
    """The human-readable row: every end-to-end metric with its unit."""
    n = len(runner.walls)
    print(f"workload={args.workload} seed={args.seed} "
          f"ops={runner.attempted} timed={n} (timings: median over "
          f"{len(batches(runner.walls))} batches of >= {BATCH_SECONDS:g} s "
          f"of the batch mean)")
    for name, m in metrics.items():
        extra = ""
        if name in ("wall_s", "cpu_s"):
            samples = runner.walls if name == "wall_s" else runner.cpus
            tl = tail(samples)
            extra = (f"  p{tl[0]:.1f}={tl[1]:.4f} s" if tl
                     else "  (tail: fewer than 11 samples)")
            extra += "  samples: " + " ".join(f"{v:.3f}" for v in samples)
        print(f"  {name:18s} {m['value']:.6g} {m['unit']}{extra}")
    extra = derived_metrics(runner)
    print(f"  {'rank_sim_s_per_s':18s} {extra['rank_sim_s_per_s']:.6g} "
          f"rank-sim-s/s")
    if args.workload == "ckpt":
        print(f"  {'ckpt_slowdown_x':18s} {extra['ckpt_slowdown_x']:.6g} x  "
              f"(base: wall {median(runner.walls):.4f} s / no-checkpoint "
              f"wall {extra['ckpt_base_wall_s']:.4f} s, "
              f"{len(runner.base_walls)} samples)")
    if args.workload == "recover":
        print(f"  {'restart_s':18s} {extra['restart_s']:.6g} s  "
              f"(median of {len(runner.restarts)})")
    rate = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"  {'error_rate':18s} {rate:.6g} fraction  "
          f"({runner.failed}/{runner.attempted} failed)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources at {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as wl

    workdir = HERE / "out"
    inp = wl.make_inputs(args.workload, args.seed, workdir)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    expected = wl.expected_for(
        inp, json.loads(wl.EXPECTED_PATH.read_text()))
    runner = Runner(wl, inp, expected)
    if args.trace:
        metrics = traced_run(args, runner, workdir)
    else:
        metrics = untraced_run(args, runner)
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def untraced_run(args, runner: Runner) -> dict:
    setup = measure_setup(args)
    runner.warm_up()
    start = time.perf_counter()
    # stop only at a batch boundary, so every batch is complete
    while (len(runner.walls) < MIN_OPS
           or time.perf_counter() - start < args.seconds
           or sum(runner.walls[i] for i in batches(runner.walls)[-1])
           < BATCH_SECONDS):
        runner.untraced()
        if runner.failed and runner.attempted >= MIN_OPS:
            break
    groups = batches(runner.walls)
    values = {
        "setup_s": median(setup),
        "wall_s": batch_median(runner.walls, groups),
        "cpu_s": batch_median(runner.cpus, groups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": ((runner.attempted - runner.failed) / runner.attempted
                    if runner.attempted else 0.0),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    print_row(args, runner, metrics)
    return metrics


def traced_run(args, runner: Runner, workdir: Path) -> dict:
    from tracing import Tracer
    tracer = Tracer()
    records = []
    runner.warm_up()
    start = time.perf_counter()
    while (len(records) < MIN_PAIRS
           or time.perf_counter() - start < args.seconds):
        runner.untraced()
        rec = runner.traced(tracer)
        if rec is not None:
            records.append(rec)
        if runner.failed and runner.attempted >= 2 * MIN_PAIRS:
            break
    metrics = per_layer_metrics(runner, records) if records else {}
    out = args.trace_out or (workdir /
                             f"trace-{args.workload}-{args.seed}.jsonl.gz")
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(out)
    print(f"workload={args.workload} seed={args.seed} "
          f"traced ops={len(records)}; spans written to {out}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
