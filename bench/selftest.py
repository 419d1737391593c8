"""Quick self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

Checks, for every workload:
  - the metric names and units printed with --trace 0 and --trace 1 are
    exactly the end_to_end and per_layer lists of BENCHMARK.json;
  - two runs with the same seed print the same output digest, and the
    traced pass prints it too;
  - two traced runs with the same seed give the same counts;
  - the oracle passes (`correct`) and no input repeats.
Also checks that run.py refuses, without a result line, to run where there
is no gvkernel source.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc


def bench(workload, trace):
    proc = run("--workload", workload, "--seed", str(SEED), "--seconds", "0",
               "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.strip().startswith("digest "))
    return json.loads(lines[-1]), digest


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        runs = {t: [bench(wl, t) for _ in range(2)] for t in (0, 1)}
        for trace, pair in runs.items():
            for result, _ in pair:
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                if got != want[trace]:
                    problems.append(f"{wl} trace={trace}: metrics differ from "
                                    f"BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}")
                if not result["correct"]:
                    problems.append(f"{wl} trace={trace}: oracle failed")
        digests = {d for pair in runs.values() for _, d in pair}
        if len(digests) != 1:
            problems.append(f"{wl}: output digests differ: {sorted(digests)}")
        counts = [{k: m["value"] for k, m in r["metrics"].items()
                   if m["unit"] == "count"} for r, _ in runs[1]]
        if counts[0] != counts[1]:
            problems.append(f"{wl}: traced counts differ between runs")
        if runs[1][0][0]["metrics"]["bench.repeat_share"]["value"] != 0:
            problems.append(f"{wl}: repeated inputs")
        print(f"{wl}: checked", flush=True)

    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "bench"))
    proc = run("--workload", "cli-models", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not refuse a directory without gvkernel")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
