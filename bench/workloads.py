"""The four benchmark workloads: seeded input generators, the timed call of
each op, and the oracle that judges its outcome.

A workload is an endless sequence of ops built from a fixed *cycle* of
entries.  Op `i` uses entry `i % len(cycle)` and is made distinct from every
other op of the run by renaming the chart variables with a prefix unique to
`(seed, i)`, and by seeded constants in its conformal factors.  Renaming
matters beyond the text: the kernel memoises derivatives by expression, so
two ops over the same variable names could share symbolic work.

The kernel only sees what a user would hand it: problem-file text for the
CLI-style workloads, and multivectors and forms for the identity suite.
Kernel functions are looked up on their modules (`gk.psi`, `cli.execute`)
at call time, so the tracer's module-level wrappers see these calls too.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import gvkernel as gk
from gvkernel import (FIXTURE_NAMES, Chart, DiffForm, DslError, ExprError,
                      MultiVector, Sampler, ScalarExpr, get_fixture)
from gvkernel import cli

WORKLOADS = ("cli-models", "identity-suite", "contact-solve", "numeric-tier")


@dataclass
class Op:
    """One benchmark operation.

    `call` is the timed part.  `judge` runs afterwards, untimed, on what
    `call` returned and gives (failed, unexpected, output text); `unexpected`
    marks an outcome the oracle does not allow, as opposed to a known
    defect.  `known_defect` names the defect this input reproduces.
    """

    entry: str
    n: int
    key: str
    call: Callable[[], object]
    judge: Callable[[object], Tuple[bool, bool, str]]
    known_defect: Optional[str] = None


@dataclass
class Workload:
    cycle: Sequence[str]              # entry names, in op order
    make: Callable[[int, int], Op]    # (seed, op index) -> op
    batch_cycles: int                 # cycles in the digest / traced batch,
                                      # and the fewest a timed run makes


# --- distinct inputs -----------------------------------------------------------

# Prefix letters: no `d` (form basis tokens are `d<var>`), no `x`/`y` (they
# end every base name, which keeps prefix + name unambiguous).
_LETTERS = "abcfghjkmnpqrstuvwz"


def _prefix(seed: int, index: int) -> str:
    digits = _LETTERS[seed % len(_LETTERS)]
    k = index
    while True:
        digits += _LETTERS[k % len(_LETTERS)]
        k //= len(_LETTERS)
        if not k:
            return digits


_NAME_RE = re.compile(r"(?<![A-Za-z0-9_/])(d/d|d)?([A-Za-z_][A-Za-z0-9_]*)")


def rename(text: str, names: Sequence[str], prefix: str) -> str:
    """Prefix every chart variable in problem text, including the `d/dv`
    and `dv` basis tokens; everything else is left alone."""
    known = set(names)

    def sub(m: re.Match) -> str:
        head, word = m.group(1) or "", m.group(2)
        if word in known:
            return head + prefix + word
        if not head and word.startswith("d") and word[1:] in known:
            return "d" + prefix + word[1:]
        return m.group(0)

    return _NAME_RE.sub(sub, text)


def _chart_names(text: str) -> List[str]:
    for line in text.splitlines():
        if line.startswith("chart "):
            return line.split()[1:]
    return []


# --- CLI-style ops ----------------------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    status: int
    output: str
    printouts: Dict[str, str]


def run_problem_text(text: str) -> CliResult:
    """What `gvkernel <file> --format structured` does with a file's text."""
    try:
        problem = gk.parse_problem(text)
    except (DslError, ExprError):
        return CliResult(2, "", {})
    report = cli.execute(problem)
    return CliResult(report.exit_status, cli.emit(report, "structured"),
                     dict(report.printouts))


def cli_op(entry: str, text: str, expect: int,
           known_defect: Optional[str] = None,
           defect_raises: Optional[str] = None,
           after_fix: Tuple[int, ...] = (),
           printout: Optional[Tuple[str, str]] = None) -> Op:
    """A problem file with a known exit status.

    For a known-defect input the oracle also accepts the statuses listed in
    `after_fix` (what a fix may turn it into) and, as a failed op, the
    exception it raises today."""
    n = len(_chart_names(text))

    def judge(res) -> Tuple[bool, bool, str]:
        if isinstance(res, BaseException):
            expected = type(res).__name__ == defect_raises
            return True, not expected, f"raised {type(res).__name__}"
        ok = res.status == expect or res.status in after_fix
        if ok and printout is not None:
            ok = res.printouts.get(printout[0]) == printout[1]
        text_out = f"exit {res.status}\n{res.output}"
        return not ok, not ok, text_out

    return Op(entry, n, text, lambda: run_problem_text(text), judge,
              known_defect)


# --- cli-models -------------------------------------------------------------------

README_GV = """\
chart x1 x2 y
pi = exp(x1*y + x2*y^2)*d/dx1^d/dx2
E = y^2*exp(x1*y + x2*y^2)*d/dx1 - y*exp(x1*y + x2*y^2)*d/dx2
run verify pair codim1
"""

BROKEN = """\
chart x1 x2 x3 x4
pi = d/dx1^d/dx2 + x2*d/dx3^d/dx4
run verify
"""

MALFORMED = """\
chart x1 x2 x3
pi = (d/dx1^d/dx2
run verify
"""

_STD = "verify pair gv codim1 poissonize"


def contact_model_text(m: int, commands: str = _STD + " bridge") -> str:
    names = [f"x{i}" for i in range(2 * m + 1)] + ["y"]
    pi = " + ".join(f"(d/dx{2 * i - 1} - x{2 * i}*d/dx0)^d/dx{2 * i}"
                    for i in range(1, m + 1))
    return (f"chart {' '.join(names)}\npi = {pi}\nE = d/dx0\n"
            f"run {commands}\n")


def lcs_model_text(m: int, commands: str = _STD) -> str:
    names = [f"x{i}" for i in range(1, 2 * m + 1)] + ["y"]
    pi = " + ".join(f"d/dx{2 * i - 1}^d/dx{2 * i}" for i in range(1, m + 1))
    return f"chart {' '.join(names)}\npi = {pi}\nrun {commands}\n"


def fixture_text(name: str) -> str:
    """A registry fixture as a problem file, as `cli.fixture_problem` builds it."""
    fx = get_fixture(name)
    lines = [f"chart {' '.join(fx.chart.vars)}", f"vol {fx.vol}", f"pi = {fx.pi}"]
    if not fx.E.is_identically_zero:
        lines.append(f"E = {fx.E}")
    lines.append("run " + " ".join(fx.commands))
    return "\n".join(lines) + "\n"


MODEL_RANKS = range(1, 6)   # contact ranks 3..11 (4..12 variables), LCS 2..10


def cli_models() -> Workload:
    base: Dict[str, Tuple[str, dict]] = {}
    for name in FIXTURE_NAMES:
        base[f"fixture:{name}"] = (fixture_text(name), {"expect": 0})
    base["readme-gv"] = (README_GV, {"expect": 0})
    for m in MODEL_RANKS:
        spec = {"expect": 0}
        if 2 * m + 2 == 12:
            # the Poisson lift adds a 13th variable, over the chart cap
            spec = {"expect": 0, "known_defect": "lift-over-max-dim",
                    "defect_raises": "ExprError", "after_fix": (1, 2)}
        base[f"contact-model-r{2 * m + 1}"] = (contact_model_text(m), spec)
    for m in MODEL_RANKS:
        base[f"lcs-model-r{2 * m}"] = (lcs_model_text(m), {"expect": 0})
    # `run verify` alone, the cheapest thing a user asks of a structure
    for m in (1, 2):
        base[f"contact-model-r{2 * m + 1}-verify"] = (
            contact_model_text(m, "verify"), {"expect": 0})
    for m in (1, 2):
        base[f"lcs-model-r{2 * m}-verify"] = (lcs_model_text(m, "verify"),
                                              {"expect": 0})
    base["broken-axiom"] = (BROKEN, {"expect": 1})
    base["malformed"] = (MALFORMED, {"expect": 2})
    cycle = tuple(base)

    def make(seed: int, index: int) -> Op:
        entry = cycle[index % len(cycle)]
        text, spec = base[entry]
        prefix = _prefix(seed, index)
        names = _chart_names(text)
        renamed = rename(text, names, prefix)
        spec = dict(spec)
        if entry == "readme-gv":
            y, x1, x2 = (prefix + v for v in ("y", "x1", "x2"))
            spec["printout"] = ("gv", f"-2*{y}^2*d{x1}^d{x2}^d{y}")
        return cli_op(entry, renamed, **spec)

    return Workload(cycle, make, batch_cycles=8)


# --- identity-suite ---------------------------------------------------------------

_SAMPLER = Sampler(seed=0, points=64, tol=1e-9)


_COEFFS = (-3, -2, -1, 1, 2, 3)


def _rand_scalar(rng: random.Random, chart: Chart, deg: int = 2) -> ScalarExpr:
    """c0 + c1*x_b + c2*x_(b+1)*x_(b+2) + ... up to degree `deg`, with random
    nonzero coefficients and a random starting variable b: random, but every
    draw is a relabelling of one pattern, so an op's cost depends on the
    grades its cycle entry fixes rather than on the luck of the draw."""
    n = chart.n
    b = rng.randrange(n)
    e = ScalarExpr.const(rng.choice(_COEFFS))
    for d in range(1, deg + 1):
        t = ScalarExpr.const(rng.choice(_COEFFS))
        for j in range(d):
            t = t * ScalarExpr.var(chart.vars[(b + d - 1 + j) % n])
        e = e + t
    return e


def _rand_terms(rng, chart, grade, nterms=2, deg=2):
    masks = [m for m in range(1 << chart.n) if m.bit_count() == grade]
    return {m: _rand_scalar(rng, chart, deg)
            for m in rng.sample(masks, min(nterms, len(masks)))}


def _rand_mv(rng, chart, grade) -> MultiVector:
    if grade == 0:
        return MultiVector.scalar(chart, _rand_scalar(rng, chart))
    return MultiVector(chart, grade, _rand_terms(rng, chart, grade))


def _rand_form(rng, chart, grade) -> DiffForm:
    if grade == 0:
        return DiffForm.scalar(chart, _rand_scalar(rng, chart))
    return DiffForm(chart, grade, _rand_terms(rng, chart, grade))


def identity_op(entry: str, n: int, residuals: Callable[[], tuple],
                key: str) -> Op:
    """An exact identity: every residual the call returns must be
    identically zero.  The call returns (values, residuals)."""

    def judge(res) -> Tuple[bool, bool, str]:
        if isinstance(res, BaseException):
            return True, True, f"raised {type(res).__name__}"
        values, resid = res
        ok = all(r.is_identically_zero for r in resid)
        return not ok, not ok, "\n".join(str(v) for v in values)

    return Op(entry, n, key, residuals, judge)


def _identity_cycle() -> Tuple[Tuple[str, int, int, int], ...]:
    """Every grade pair the acceptance-style draws can produce, once each, so
    that each cycle has the same mix of cheap and expensive identities; the
    coefficients stay random."""
    out = []
    for n in (3, 4):       # Lemma 4.2: k < n, l <= n - k
        out += [("lemma42", n, k, l) for k in range(n) for l in range(n - k + 1)]
    out += [("schouten-oracle", 4, k, l) for k in range(4) for l in range(4)]
    for n in (2, 3, 4, 5):  # duality: Eq (4) needs k + l >= n
        out += [("duality", n, k, l) for k in range(n + 1)
                for l in (range(n - k, n + 1) if k else (n,))]
    return tuple(out)


def identity_suite() -> Workload:
    shapes = _identity_cycle()
    cycle = tuple(f"{kind}-n{n}-k{k}l{l}" for kind, n, k, l in shapes)

    def make(seed: int, index: int) -> Op:
        entry = cycle[index % len(cycle)]
        kind, n, k, l = shapes[index % len(cycle)]
        rng = random.Random(f"identity-suite|{seed}|{index}")
        prefix = _prefix(seed, index)
        chart = Chart(tuple(f"{prefix}x{i}" for i in range(1, n + 1)))
        ctx = gk.volume_context(chart, DiffForm.basis(chart, range(n)), _SAMPLER)
        u, v = _rand_mv(rng, chart, k), _rand_mv(rng, chart, l)

        if kind == "lemma42":
            # Lemma 4.2: psi(U^V) = (-1)^l ([U,V] + psi(U)^V) + U^psi(V)
            sgn = (-1) ** l

            def call():
                lhs = gk.psi(ctx, gk.wedge(u, v))
                rhs = gk.schouten(u, v).scale(sgn) + \
                    gk.wedge(gk.psi(ctx, u), v).scale(sgn) + \
                    gk.wedge(u, gk.psi(ctx, v))
                return (lhs,), (lhs - rhs,)

            key = f"{entry}|{u}|{v}"
        elif kind == "schouten-oracle":
            def call():
                fast = gk.schouten(u, v)
                return (fast,), (fast - gk.schouten_bruteforce(u, v),)

            key = f"{entry}|{u}|{v}"
        else:
            # phi / phi^-1 round trips, Eq (3) and Eq (4)
            om = _rand_form(rng, chart, k)

            def call():
                pu, pv = gk.phi(ctx, u), gk.phi(ctx, v)
                qo = gk.phi_inv(ctx, om)
                eq3 = gk.contract_form_into_mv(om, ctx.top_inverse).scale(
                    (-1) ** (k * (n + 1)))
                lhs = gk.phi_inv(ctx, gk.wedge(pu, pv))
                r1 = gk.contract_form_into_mv(pu, v).scale(
                    (-1) ** ((n + k) * (l + 1)))
                r2 = gk.contract_form_into_mv(pv, u).scale(
                    (-1) ** ((n + 1) * (n + l)))
                return ((pu, qo, lhs),
                        (gk.phi_inv(ctx, pu) - u, gk.phi(ctx, qo) - om,
                         qo - eq3, lhs - r1, lhs - r2))

            key = f"{entry}|{u}|{om}|{v}"
        return identity_op(entry, n, call, key)

    return Workload(cycle, make, batch_cycles=12)


# --- contact-solve ----------------------------------------------------------------

# Per cycle two light ops, eight at n = 5 and one each at n = 7 and n = 9,
# and at least three cycles per run: both the median and the tail (ten ops
# beyond it) then fall inside the block of n = 5 ops, away from its edges,
# so neither jumps between sizes from run to run.
CONTACT_SOLVE_SIZES = (3, 3, 5, 5, 5, 5, 5, 5, 5, 5, 7, 9)


def contact_form_text(n: int, c: int) -> str:
    names = [f"x{i}" for i in range(n)]
    tail = " - ".join(f"x{2 * i}*dx{2 * i - 1}" for i in range(1, (n - 1) // 2 + 1))
    return (f"chart {' '.join(names)}\ntheta = ({c} + x1^2)*(dx0 - {tail})\n"
            f"run poissonize\n")


def contact_solve() -> Workload:
    cycle = tuple(f"contact-form-n{n}" for n in CONTACT_SOLVE_SIZES)

    def make(seed: int, index: int) -> Op:
        entry = cycle[index % len(cycle)]
        n = CONTACT_SOLVE_SIZES[index % len(cycle)]
        c = random.Random(f"contact-solve|{seed}|{index}").randint(2, 9)
        text = contact_form_text(n, c)
        return cli_op(entry, rename(text, _chart_names(text), _prefix(seed, index)),
                      expect=0)

    return Workload(cycle, make, batch_cycles=3)


# --- numeric-tier -----------------------------------------------------------------

NUMERIC_MODELS = (("lcs", 1), ("contact", 1), ("lcs", 2), ("contact", 2))

EXHAUSTED = """\
chart x1 x2 x3
pi = exp(1000 + {c}*x1^2)*d/dx1^d/dx2
run verify
"""

# contact-r3-ext, scaled by a constant, rescaled by a factor that is finite
# on 2 of the 64 default sample points.  Neither the variable names nor the
# sampler seed may change, or a different number of points survives.
THIN_RESCALE = """\
chart x0 x1 x2 y
pi = {b}*(d/dx1 - x2*d/dx0)^d/dx2
E = {b}*d/dx0
run verify rescale({c}*exp(100000*x1 + 99900))
"""


def _model_tensors(kind: str, m: int, prefix: str):
    if kind == "contact":
        text = contact_model_text(m)
    else:
        text = lcs_model_text(m)
    names = _chart_names(text)
    chart = Chart(tuple(prefix + v for v in names))
    lines = dict(line.split(" = ", 1) for line in
                 rename(text, names, prefix).splitlines() if " = " in line)
    pi = gk.parse_multivector(chart, lines["pi"])
    e = gk.parse_multivector(chart, lines["E"]) if "E" in lines else \
        MultiVector.zero(chart, 1)
    return chart, pi, e


def numeric_tier() -> Workload:
    cycle = tuple(f"{kind}-{2 * m + (kind == 'contact')}-{f}"
                  for kind, m in NUMERIC_MODELS for f in ("exp", "sin")) + \
        ("sampling-exhausted", "thin-rescale")

    def make(seed: int, index: int) -> Op:
        pos = index % len(cycle)
        entry = cycle[pos]
        rng = random.Random(f"numeric-tier|{seed}|{index}")
        prefix = _prefix(seed, index)
        half = Fraction(1, 2)
        if entry == "sampling-exhausted":
            c = rng.choice((half, 1, Fraction(3, 2), 2, 3))
            text = EXHAUSTED.format(c=c)
            return cli_op(entry, rename(text, _chart_names(text), prefix),
                          expect=1, known_defect="sampling-exhausted",
                          defect_raises="ExprError", after_fix=(2,))
        if entry == "thin-rescale":
            k = index // len(cycle)
            b = Fraction(k + 2, k + 1)
            c = 1 - Fraction(1, seed % 7 + 3)
            return cli_op(entry, THIN_RESCALE.format(b=b, c=c), expect=0,
                          known_defect="thin-sample", after_fix=(1,))
        kind, m = NUMERIC_MODELS[pos // 2]
        chart, pi, e = _model_tensors(kind, m, prefix)
        x1, x2, y = (prefix + v for v in ("x1", "x2", "y"))
        c1, c2 = rng.choice((half, 1, 2)), rng.choice((half, 1, Fraction(3, 2)))
        if entry.endswith("exp"):
            a_text = f"exp({c1}*{x1}*{y} + {c2}*{x2})"
        else:
            a_text = f"{rng.randint(2, 4)} + sin({c1}*{x1} - {y})"
        # conformal change (a pi, a E - iota_{da} pi): again a Jacobi structure
        a = gk.parse_scalar(chart, a_text)
        da = gk.exterior_derivative(DiffForm.scalar(chart, a))
        pi2 = pi.scale(a)
        e2 = e.scale(a) - gk.contract_form_into_mv(da, pi)
        rescale = f"exp({c2}*{x2} - {c1}*{y})"
        field_k = rng.randint(1, 5)
        unimodular = f"(exp({x1})^2 - exp(2*{x1}) + {field_k})*d/d{x1}"
        text = (f"chart {' '.join(chart.vars)}\npi = {pi2}\n"
                + (f"E = {e2}\n" if not e2.is_identically_zero else "")
                + f"points 256\nrun verify pair gv codim1 rescale({rescale}) "
                  f"unimodular({unimodular})\n")
        return cli_op(entry, text, expect=0)

    return Workload(cycle, make, batch_cycles=3)


BY_NAME = {
    "cli-models": cli_models,
    "identity-suite": identity_suite,
    "contact-solve": contact_solve,
    "numeric-tier": numeric_tier,
}
