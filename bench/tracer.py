"""Span tracer for the gvkernel benchmark.

Wraps the kernel's public functions and the `ScalarExpr` / `GradedElement`
operator methods at module-attribute and class level, from outside the
package: nothing in `src/gvkernel` changes.  Each wrapped call is a span
with a name, start, end and parent.  A span's self time is its duration
minus the time covered by its child spans, computed as the call returns.

Coarse spans (API functions) are kept in memory as (name, start, end,
parent) records and written out by `write_spans`.  The fine-grained ones
(scalar arithmetic, `diff`, point evaluation, multivector linear algebra)
run hundreds of thousands of times per second, so they are folded into
per-name call counts and self times instead of being stored one by one.

Tracing is off until `active` is set, so input generation and oracle checks
between ops are not counted.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name, keep the individual spans)
FUNCTION_TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("gvkernel.expr", "diff", "expr.diff", False),
    ("gvkernel.expr", "evaluate", "expr.sampling.evaluate", False),
    ("gvkernel.alg", "wedge", "alg.wedge", True),
    ("gvkernel.alg", "power", "alg.power", True),
    ("gvkernel.alg", "contract_form_into_mv", "alg.contract", True),
    ("gvkernel.alg", "contract_mv_into_form", "alg.contract", True),
    ("gvkernel.alg", "sharp", "alg.sharp", True),
    ("gvkernel.calculus", "exterior_derivative", "calculus.exterior_derivative", True),
    ("gvkernel.calculus", "schouten", "calculus.schouten", True),
    ("gvkernel.calculus", "schouten_bruteforce", "calculus.schouten_bruteforce", True),
    ("gvkernel.calculus", "lie_derivative", "calculus.lie_derivative", True),
    ("gvkernel.duality", "phi", "duality.phi", True),
    ("gvkernel.duality", "phi_inv", "duality.phi_inv", True),
    ("gvkernel.duality", "psi", "duality.psi", True),
    ("gvkernel.duality", "star", "duality.star", True),
    ("gvkernel.duality", "volume_context", "duality.volume_context", True),
    ("gvkernel.jacobi", "verify_jacobi", "jacobi.verify_jacobi", True),
    ("gvkernel.jacobi", "defining_pair", "jacobi.defining_pair", True),
    ("gvkernel.jacobi", "gv_representative", "jacobi.gv_representative", True),
    ("gvkernel.jacobi", "gv_codim1", "jacobi.gv_codim1", True),
    ("gvkernel.jacobi", "poissonize", "jacobi.poissonize", True),
    ("gvkernel.jacobi", "check_poissonization_bridge",
     "jacobi.check_poissonization_bridge", True),
    ("gvkernel.jacobi", "contact_to_jacobi", "jacobi.contact_to_jacobi", True),
    ("gvkernel.jacobi", "lcs_to_jacobi", "jacobi.lcs_to_jacobi", True),
    ("gvkernel.jacobi", "conformal_rescale", "jacobi.conformal_rescale", True),
    ("gvkernel.jacobi", "unimodularity", "jacobi.unimodularity", True),
    ("gvkernel.dsl", "parse_problem", "dsl.parse", True),
    ("gvkernel.dsl", "parse_scalar", "dsl.parse", True),
    ("gvkernel.dsl", "parse_multivector", "dsl.parse", True),
    ("gvkernel.dsl", "parse_form", "dsl.parse", True),
    ("gvkernel.cli", "execute", "cli.execute", True),
    ("gvkernel.cli", "emit", "cli.emit", True),
    ("numpy.linalg", "matrix_rank", "numpy.linalg", True),
    ("numpy.linalg", "lstsq", "numpy.linalg", True),
)

SCALAR_ARITH = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__pow__", "recip")
GRADED_LINEAR = ("__add__", "__sub__", "__neg__", "scale")

# Stages of the pipeline a CLI run goes through; `jacobi.stage_calls_per_op`
# sums their calls.
JACOBI_STAGES = ("verify_jacobi", "defining_pair", "gv_codim1", "poissonize",
                 "check_poissonization_bridge", "contact_to_jacobi",
                 "conformal_rescale")


def layer_of(name: str) -> str:
    """Span name -> layer: `expr.*` and `numpy.*` keep two parts, others one."""
    parts = name.split(".")
    if parts[0] == "expr" or parts[0] == "numpy":
        return ".".join(parts[:2])
    return parts[0]


class Tracer:
    """Collects spans and counters while `active` is true."""

    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: List[Optional[tuple]] = []
        self._child_time = [0.0]     # one accumulator per open span
        self._open = [-1]            # index of the innermost kept span
        self.nodes = 0               # ScalarExpr constructions
        self.points_drawn = 0
        self.points_valid = 0
        self.valid_shares: List[float] = []
        self.exhausted = 0
        self._in_valid_points = 0
        self._undo: List[Callable[[], None]] = []

    # -- wrapping ----------------------------------------------------------------
    def wrap(self, fn: Callable, name: str, keep: bool) -> Callable:
        tracer = self
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        child_time = self._child_time
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            child_time.append(0.0)
            if keep:
                idx = len(spans)
                spans.append(None)
                open_spans.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                self_s[name] += dur - child_time.pop()
                child_time[-1] += dur
                if keep:
                    open_spans.pop()
                    spans[idx] = (name, t0, t1, open_spans[-1])

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self) -> None:
        """Wrap every target in every loaded gvkernel module that binds it."""
        from gvkernel.alg import GradedElement
        from gvkernel.expr import Sampler, ScalarExpr

        kernel_modules = [m for n, m in sorted(sys.modules.items())
                          if m is not None and (n == "gvkernel"
                                                or n.startswith("gvkernel."))]
        for mod_name, attr, name, keep in FUNCTION_TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(original, name, keep)
            owners = [sys.modules[mod_name]] + kernel_modules
            for mod in dict.fromkeys(owners):
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, traced)

        for attr in SCALAR_ARITH:
            self._patch(ScalarExpr, attr,
                        self.wrap(ScalarExpr.__dict__[attr], "expr.arith", False))
        for attr in GRADED_LINEAR:
            self._patch(GradedElement, attr,
                        self.wrap(GradedElement.__dict__[attr], "alg.linear", False))

        tracer = self
        init = ScalarExpr.__init__

        def counting_init(obj, *args, **kwargs):
            if tracer.active:
                tracer.nodes += 1
            init(obj, *args, **kwargs)

        self._patch(ScalarExpr, "__init__", counting_init)

        draw = Sampler.draw

        def counting_draw(sampler, *args, **kwargs):
            for point in draw(sampler, *args, **kwargs):
                if tracer.active and tracer._in_valid_points:
                    tracer.points_drawn += 1
                yield point

        self._patch(Sampler, "draw", counting_draw)

        valid_points = self.wrap(Sampler.valid_points,
                                 "expr.sampling.valid_points", True)

        def counting_valid_points(sampler, chart, exprs):
            if not tracer.active:
                return valid_points(sampler, chart, exprs)
            tracer._in_valid_points += 1
            try:
                out = valid_points(sampler, chart, exprs)
            except Exception:
                tracer.exhausted += 1
                raise
            finally:
                tracer._in_valid_points -= 1
            tracer.points_valid += len(out)
            tracer.valid_shares.append(len(out) / sampler.points)
            return out

        self._patch(Sampler, "valid_points", counting_valid_points)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, secs in self.self_s.items():
            out[layer_of(name)] += secs
        return out

    def write_spans(self, path) -> None:
        """One JSON object per kept span, then one with the folded counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, t0, t1, parent = span
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
            fh.write(json.dumps({"calls": dict(sorted(self.calls.items())),
                                 "self_s": dict(sorted(self.self_s.items()))})
                     + "\n")
