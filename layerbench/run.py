"""Layer-ladder benchmark: one workload, one run, one JSON line.

Run from the repository root::

    python3 layerbench/run.py --workload serve-http --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload untraced and reports its end-to-end
metrics.  ``--trace 1`` runs the workload untraced and then traced (their
p50 ratio is ``trace.overhead``), then the per-layer ladder, and reports
every per-layer metric; the spans are written to
``.layerbench/spans-<workload>-<seed>.jsonl``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; a readable
report goes before it.  ``--smoke`` shrinks every input for a quick check
of the harness itself.

The program is imported from ``src/`` of the checkout; without it the run
exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".layerbench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"layerbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # A terminated run unwinds like a failed one: servers, worker processes
    # and scratch directories are released by the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import numpy as np

    from common import (
        NullTracer,
        OracleMismatch,
        Tracer,
        nproc,
        scratch_dir,
    )
    from metrics import format_report, load_spec
    from workloads import SMOKE, WORKLOADS, Context, Scale

    if args.workload not in WORKLOADS:
        print(f"layerbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scale = SMOKE if args.smoke else Scale()
    machine = {"nproc": nproc(), "python": platform.python_version(),
               "numpy": np.__version__}
    workload = WORKLOADS[args.workload]
    spec = load_spec()
    try:
        with scratch_dir(OUTPUT / "tmp") as scratch:
            if not args.trace:
                outcome = workload(Context(args.seed, args.seconds, scratch,
                                           NullTracer(), scale))
                metrics, samples = outcome.metrics, outcome.samples
                tally, specs = outcome.tally, spec["end_to_end"]
            else:
                from ladder import traced_run

                tracer = Tracer()
                metrics, tally = traced_run(workload, args, scratch, tracer,
                                            scale)
                samples, specs = {}, spec["per_layer"]
                tracer.write(
                    OUTPUT / f"spans-{args.workload}-{args.seed}.jsonl")
    except OracleMismatch as mismatch:
        print(f"layerbench: wrong answer: {mismatch}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(format_report(args.workload, machine, metrics, specs, samples,
                        tally))
    result = {
        "correct": True,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": entry["unit"]}
                    for name, entry in specs.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
