"""Record the correctness references the benchmark checks against.

For each seed, runs the first ``select`` and ``dse`` steps (the ones
every run reaches or replays) and stores each step's selected counter
tuple and candidate payload digest in ``perfbench/expected.json``.
Rerun only when a change is *meant* to alter those outputs, and say so
in the change::

    python3 perfbench/record_expected.py --seeds 0-9
"""

import argparse
import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Steps a run reaches or replays: one or two Algorithm 1 calls; the
# first dse grids, which the traced phase replays.
STEPS = {"select": 2, "dse": 3}


def parse_seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 7")
    args = parser.parse_args(argv)
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch_dir:
        for name, n_steps in STEPS.items():
            for seed in parse_seeds(args.seeds):
                workload = workloads.make(name, scratch_dir)
                workload.setup(seed)
                for index in range(n_steps):
                    workload.step(index)
                expected.setdefault(name, {})[str(seed)] = workload.outputs()
                print(name, seed, workload.outputs(), flush=True)
                path.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
