"""One benchmark process: import gvkernel, build a workload, run its ops.

Started by run.py in a fresh interpreter, so every run pays the import and
starts with cold kernel memos, as a CLI user does.  Modes:

  probe    set up, then stop before the first op (a set-up time sample)
  timed    run whole cycles of ops until --seconds have passed
  batch    run the fixed digest batch untraced
  traced   run the same batch with the span tracer installed

Prints one JSON object on its last stdout line.  Op times are reported both
raw and scaled by the host's pace (see pace.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

T_START = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from pace import PACE_WARMUP, HostPace  # noqa: E402

TINY_OPS = 10  # a tiny run: this many ops spread over one cycle


def cycles_of(n: int, tiny: bool):
    """Op indices, one cycle at a time (a tiny run has one short cycle)."""
    if tiny:
        k = min(TINY_OPS, n)
        yield [i * n // k for i in range(k)]
        return
    c = 0
    while True:
        yield range(c * n, (c + 1) * n)
        c += 1


def run_op(op, call=None):
    """Time one op: (start, seconds, result).  An exception out of the
    kernel is the op's result."""
    call = call or (lambda o: o.call())
    t0 = perf_counter()
    try:
        res = call(op)
    except Exception as exc:  # the op fails; the run goes on
        res = exc
    return t0, perf_counter() - t0, res


class Tally:
    """Outcomes of the ops of one pass."""

    def __init__(self, digest_ops: int):
        self.digest_ops = digest_ops
        self.hasher = hashlib.sha256()
        self.latencies = []
        self.intervals = []
        self.sizes = []
        self.attempted = self.failed = self.unexpected = 0
        self.known_defect_ops = 0
        self.repeated = 0
        self.failures = {}
        self.seen = set()
        self.unexpected_examples = []

    def add(self, index, op, start, secs, res):
        failed, unexpected, text = op.judge(res)
        self.attempted += 1
        self.latencies.append(secs)
        self.intervals.append((start, start + secs))
        self.sizes.append(op.n)
        if op.key in self.seen:
            self.repeated += 1
        self.seen.add(op.key)
        if op.known_defect:
            self.known_defect_ops += 1
        if failed:
            self.failed += 1
            label = type(res).__name__ if isinstance(res, BaseException) \
                else "wrong-result"
            tag = f"{op.entry}:{label}"
            self.failures[tag] = self.failures.get(tag, 0) + 1
        if unexpected:
            self.unexpected += 1
            if len(self.unexpected_examples) < 5:
                self.unexpected_examples.append(f"op {index} {op.entry}: {text[:200]}")
        if self.attempted <= self.digest_ops:
            self.hasher.update(f"{index}|{op.entry}|{text}\n".encode())

    def summary(self, pace: HostPace):
        scaled = [secs * pace.factor(t0, t1)
                  for secs, (t0, t1) in zip(self.latencies, self.intervals)]
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unexpected": self.unexpected,
            "unexpected_examples": self.unexpected_examples,
            "known_defect_ops": self.known_defect_ops,
            "repeated": self.repeated,
            "failures": self.failures,
            "digest": self.hasher.hexdigest(),
            "digest_ops": self.digest_ops,
            "latencies": self.latencies,
            "scaled_latencies": scaled,
            "sizes": self.sizes,
            "op_wall_s": sum(self.latencies),
            "scaled_op_wall_s": sum(scaled),
            "pace": pace.factor(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "timed", "batch", "traced"),
                    required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--tiny", action="store_true",
                    help="a few ops from one cycle, for the self-test")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    wl = workloads.BY_NAME[args.workload]()
    cycles_iter = cycles_of(len(wl.cycle), args.tiny)
    batch_cycles = 1 if args.tiny else wl.batch_cycles
    digest_ops = batch_cycles * (min(TINY_OPS, len(wl.cycle)) if args.tiny
                                 else len(wl.cycle))

    first = wl.make(args.seed, 0)
    started = args.spawned_at if args.spawned_at is not None else T_START
    setup_s = time.monotonic() - started
    pace = HostPace()
    pace.sample(PACE_WARMUP)
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s, "warm_ref_s": pace.dur}))
        return 0

    tracer = None
    call = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        call = tracer.wrap(lambda op: op.call(), "bench.op", True)

    tally = Tally(digest_ops)
    cycles = 0
    t_begin = perf_counter()
    for indices in cycles_iter:
        for index in indices:
            op = first if index == 0 else wl.make(args.seed, index)
            if tracer is not None:
                tracer.active = True
            start, secs, res = run_op(op, call)
            if tracer is not None:
                tracer.active = False
            tally.add(index, op, start, secs, res)
            pace.after_op(secs)
        cycles += 1
        if cycles < batch_cycles:
            continue
        # --seconds is nominal-pace time, so the op count does not follow
        # the host's speed (peak RSS grows with it)
        nominal = (perf_counter() - t_begin) * pace.factor()
        if args.mode != "timed" or nominal >= args.seconds:
            break
    out = tally.summary(pace)
    out.update(setup_s=setup_s, warm_ref_s=pace.dur[:PACE_WARMUP], cycles=cycles,
               elapsed_s=perf_counter() - t_begin, pace_samples=len(pace.dur))
    if tracer is not None:
        out["trace"] = trace_summary(tracer, tally)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        tracer.uninstall()
    print(json.dumps(out))
    return 0


def trace_summary(tracer, tally):
    from tracer import JACOBI_STAGES
    calls = tracer.calls
    layer_self = tracer.layer_self_s()
    ops = max(tally.attempted, 1)
    shares = tracer.valid_shares
    drawn = tracer.points_drawn
    m = {
        "expr.arith.calls": calls["expr.arith"],
        "expr.arith.self_s": layer_self["expr.arith"],
        "expr.nodes": tracer.nodes,
        "expr.diff.calls": calls["expr.diff"],
        "expr.diff.self_s": layer_self["expr.diff"],
        "expr.sampling.valid_points.calls": calls["expr.sampling.valid_points"],
        "expr.sampling.exhausted.calls": tracer.exhausted,
        "expr.sampling.points_drawn": drawn,
        "expr.sampling.points_valid": tracer.points_valid,
        "expr.sampling.valid_share": tracer.points_valid / drawn if drawn else 0.0,
        "expr.sampling.min_valid_share": min(shares) if shares else 0.0,
        "expr.sampling.evaluate.calls": calls["expr.sampling.evaluate"],
        "expr.sampling.self_s": layer_self["expr.sampling"],
        "numpy.linalg.calls": calls["numpy.linalg"],
        "numpy.linalg.self_s": layer_self["numpy.linalg"],
        "alg.wedge.calls": calls["alg.wedge"],
        "alg.power.calls": calls["alg.power"],
        "alg.contract.calls": calls["alg.contract"],
        "alg.linear.calls": calls["alg.linear"],
        "alg.self_s": layer_self["alg"],
        "calculus.schouten.calls": calls["calculus.schouten"],
        "calculus.schouten_bruteforce.calls": calls["calculus.schouten_bruteforce"],
        "calculus.exterior_derivative.calls": calls["calculus.exterior_derivative"],
        "calculus.self_s": layer_self["calculus"],
        "duality.phi.calls": calls["duality.phi"],
        "duality.phi_inv.calls": calls["duality.phi_inv"],
        "duality.psi.calls": calls["duality.psi"],
        "duality.star.calls": calls["duality.star"],
        "duality.self_s": layer_self["duality"],
    }
    for stage in JACOBI_STAGES:
        m[f"jacobi.{stage}.calls"] = calls[f"jacobi.{stage}"]
    m["jacobi.stage_calls_per_op"] = \
        sum(calls[f"jacobi.{s}"] for s in JACOBI_STAGES) / ops
    m["jacobi.self_s"] = layer_self["jacobi"]
    m["dsl.parse.self_s"] = layer_self["dsl"]
    m["cli.execute.self_s"] = tracer.self_s["cli.execute"]
    m["cli.emit.self_s"] = tracer.self_s["cli.emit"]
    m["bench.op.self_s"] = tracer.self_s["bench.op"]
    return m


if __name__ == "__main__":
    sys.exit(main())
