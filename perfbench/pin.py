"""Pin the simulated outputs of every benchmark input into expected.json.

    python3 perfbench/pin.py

Runs ``scale`` and ``ckpt`` once and the fault run of every point of
``recover``'s plan space, and writes what they simulated.  The pins
change only when a change is meant to alter simulated behaviour.  Each
recover plan must make recovery walk back past the corrupted piece; the
script refuses to pin one that does not.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.cluster.experiment import run_with_failures  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    workdir = Path(__file__).resolve().parent / "out"
    table: dict = {}
    for name in ("scale", "ckpt"):
        inp = wl.make_inputs(name, 0, workdir)
        table[name] = wl.normalize(wl.run_op(inp).outputs)
        print(f"pinned {name}", flush=True)
    cfg = wl.make_inputs("recover", 0, workdir).config
    table["recover"] = {}
    for flip_t, crash_t, flip_rank in itertools.product(
            wl.FLIP_TIMES, wl.CRASH_TIMES, range(1, wl.RECOVER_RANKS)):
        plan, key, _ = wl.plan_for(flip_t, crash_t, flip_rank)
        res = run_with_failures(cfg, plan, interval_slices=1,
                                full_every=4)
        outputs, _ = wl.recover_outputs(res)
        newest = res.lives[0].store.committed_sequences()[-1]
        if not outputs["corruptions"] or \
                outputs["recovered_seq"] >= newest:
            print(f"plan {key} does not walk back", file=sys.stderr)
            return 1
        table["recover"][key] = wl.normalize(outputs)
        print(f"pinned recover {key}", flush=True)
        del res
    wl.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True)
                                + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
