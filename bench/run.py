"""gvkernel benchmark.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: cli-models, identity-suite,
contact-solve, numeric-tier (see bench/README.md for what each stresses).
One closed-loop client in one thread; every run starts fresh interpreters
through bench/worker.py, so each run pays the import and cold memos.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh processes), throughput, median and tail op latency, the share of ops
that succeeded, and peak RSS.  Times are scaled by the host's measured pace
(see pace.py): they are seconds of a host at nominal speed, and the raw
figures are printed beside them.  --trace 1 runs a fixed batch of ops untraced,
under the span tracer, and untraced again, and prints the per-layer metrics
and the tracing overhead.  Either way the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  Run records and
spans are written to bench/out/.

Exit status: 0 when the run completed (whatever the oracle said; see
`correct`), 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from pace import HostPace, pace_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("cli-models", "identity-suite", "contact-solve", "numeric-tier")
SETUP_SAMPLES = 7          # fresh processes whose set-up time is the median
SETUP_PACE_SAMPLES = 10    # reference samples taken just before each spawn
CHILD_TIMEOUT_S = 170
SIZES = range(2, 13)       # chart dimensions reported as size.<n>.p50_ms


class BenchError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float = 0.0,
          tiny: bool = False, spans_out: str = None) -> dict:
    """Run one worker; its result gets `setup_pace`, the host's pace from
    reference samples taken just before the spawn and just after set-up."""
    before = HostPace()
    before.sample(SETUP_PACE_SAMPLES)
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if tiny:
        cmd.append("--tiny")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker for {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_pace"] = pace_of(before.dur + res["warm_ref_s"])
    return res


def tail_latency(lat):
    """Highest percentile with at least ten ops beyond it: (value, rank, n)."""
    ordered = sorted(lat)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], rank, n


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- end-to-end ---------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, tiny: bool):
    samples = 3 if tiny else SETUP_SAMPLES
    probes = [spawn("probe", workload, seed, tiny=tiny) for _ in range(samples - 1)]
    res = spawn("timed", workload, seed, seconds=seconds, tiny=tiny)
    probes.append(res)
    setups = [p["setup_s"] * p["setup_pace"] for p in probes]
    lat = res["scaled_latencies"]
    ok = res["attempted"] - res["failed"]
    tail, rank, n = tail_latency(lat)
    raw_tail = tail_latency(res["latencies"])[0]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(ok / res["scaled_op_wall_s"], "1/s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": metric(tail * 1e3, "ms"),
        "ops_ok_share": metric(ok / res["attempted"], "share"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    notes = [
        f"op_tail_ms is p{100 * rank / n:.2f}: rank {rank} of {n} ops",
        f"ops_failed_share {res['failed'] / res['attempted']:.6f} "
        f"({res['failed']} of {res['attempted']})",
        f"host pace {res['pace']:.4f}; raw: {ok / res['op_wall_s']:.2f} ops/s, "
        f"p50 {statistics.median(res['latencies']) * 1e3:.4f} ms, "
        f"tail {raw_tail * 1e3:.4f} ms, set-up "
        f"{statistics.median(p['setup_s'] for p in probes):.4f} s",
        f"setup_s samples {', '.join(f'{s:.4f}' for s in setups)}",
        f"timed {res['cycles']} whole cycles in {res['elapsed_s']:.2f} s wall, "
        f"{res['op_wall_s']:.2f} s inside ops",
    ]
    return res, metrics, notes


# --- per-layer ----------------------------------------------------------------------

def per_layer(workload: str, seed: int, tiny: bool):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    # untraced, traced, untraced: the host's speed drifts over seconds, so
    # the overhead is taken against the mean of the two untraced passes
    plain = spawn("batch", workload, seed, tiny=tiny)
    traced = spawn("traced", workload, seed, tiny=tiny, spans_out=spans)
    plain_after = spawn("batch", workload, seed, tiny=tiny)
    plain_wall = (plain["scaled_op_wall_s"] + plain_after["scaled_op_wall_s"]) / 2
    traced_wall = traced["scaled_op_wall_s"]
    if not plain["digest"] == traced["digest"] == plain_after["digest"]:
        traced["unexpected"] += 1
        traced["unexpected_examples"].append(
            "traced and untraced passes disagree on the output digest")
    units = {"calls": "count", "self_s": "s", "share": "share",
             "nodes": "count", "drawn": "count", "valid": "count",
             "per_op": "calls/op"}
    metrics = {}
    for name, value in traced["trace"].items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = metric(value * traced["pace"] if unit == "s" else value,
                               unit)
    by_size = {}
    for secs, n in zip(plain["scaled_latencies"], plain["sizes"]):
        by_size.setdefault(n, []).append(secs)
    for n in SIZES:
        vals = by_size.get(n)
        metrics[f"size.{n}.p50_ms"] = metric(
            statistics.median(vals) * 1e3 if vals else 0.0, "ms")
    metrics["trace.overhead_share"] = metric(
        (traced_wall - plain_wall) / plain_wall, "share")
    metrics["bench.repeat_share"] = metric(
        traced["repeated"] / traced["attempted"], "share")
    notes = [f"batch of {traced['attempted']} ops, raw time inside ops: "
             f"{plain['op_wall_s']:.3f} s and {plain_after['op_wall_s']:.3f} s "
             f"untraced, {traced['op_wall_s']:.3f} s traced; spans in "
             f"{os.path.relpath(spans, ROOT)}"]
    return traced, metrics, notes


# --- entry point -------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool):
    if trace:
        res, metrics, notes = per_layer(workload, seed, tiny)
    else:
        res, metrics, notes = end_to_end(workload, seed, seconds, tiny)
    correct = res["unexpected"] == 0
    print(f"workload={workload} seed={seed} trace={trace} ops={res['attempted']} "
          f"correct={'yes' if correct else 'NO'}")
    print(f"  digest {res['digest']} (first {res['digest_ops']} ops)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    print(f"  repeated inputs {res['repeated']} of {res['attempted']}; "
          f"known-defect ops {res['known_defect_ops']}")
    for tag, count in sorted(res["failures"].items()):
        print(f"  failed op {tag} x{count}")
    for example in res["unexpected_examples"]:
        print(f"  ORACLE: {example}")
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  digest=res["digest"], digest_ops=res["digest_ops"],
                  failures=res["failures"], repeated=res["repeated"])
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few ops per workload (used by selftest.py)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gvkernel", "__init__.py")):
        print("bench: src/gvkernel not found next to bench/; run from a "
              "gvkernel checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace, args.tiny)
                   for w in names}
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
