"""Smoke check of the benchmark harness itself.

    python3 layerbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at smoke scale (``--smoke``, two
seconds), untraced and traced, and checks that the last line of each run is
the result object, correct, with every metric ``BENCHMARK.json`` names for
that mode, each with its unit and a finite value.  Then checks that the
benchmark refuses to run, without printing a result, when the program's
sources are missing.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 600


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / HERE.name / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "2",
               "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> "list[str]":
    done = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{label}: exit code {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')}")
    expected = {entry["name"]: entry["unit"]
                for entry in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric.get("unit")
               for name, metric in result.get("metrics", {}).items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(name for name in set(expected) & set(emitted)
                       if expected[name] != emitted[name])
        problems.append(f"{label}: missing {missing}, unexpected {extra}, "
                        f"wrong units {wrong}")
    for name, metric in result.get("metrics", {}).items():
        if not (isinstance(metric.get("value"), (int, float))
                and math.isfinite(metric["value"])):
            problems.append(f"{label}: {name} = {metric.get('value')!r}")
    return problems


def check_refuses_without_program(spec: dict) -> "list[str]":
    """Only BENCHMARK.json and the benchmark's own files: a clean failure."""
    bare = ROOT / ".layerbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit code {done.returncode}, "
                f"stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    from metrics import MOVES

    problems = []
    layer_names = {entry["name"] for entry in spec["per_layer"]}
    if set(MOVES) != layer_names:
        problems.append(f"metrics.MOVES and BENCHMARK.json per_layer differ: "
                        f"{sorted(set(MOVES) ^ layer_names)}")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_result(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_refuses_without_program(spec)
    print(f"refuses without sources: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
