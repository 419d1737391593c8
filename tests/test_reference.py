"""An independent sympy reference for the contact and LCS solves, and for
`diff`.

`contact_to_jacobi` and `lcs_to_jacobi` read (pi, E) off exterior powers.
Here the same pairs are rebuilt from sympy matrices on seeded inputs, with
no kernel code on the reference side:

  * contact: with A_ij = d theta(d/dx_i, d/dx_j) and B = A + theta theta^T,
    the flat map X -> iota_X d theta + theta(X) theta has the matrix B^T.
    Its inverse M sends a 1-form a to pi-sharp(a) + a(E) E, so E = M theta,
    the symmetric part of M is E E^T, and pi is a sign times the
    antisymmetric part of M.
  * LCS: with W_ij = Omega(d/dx_i, d/dx_j), pi is a sign times W^-1 and E
    a sign times W^-1 omega.

Each sign is fixed once, on a rational model form, by the axiom
[pi,pi] = 2 E^pi, with the Schouten bracket expanded from its definition
on decomposable terms,

    [X1^..^Xk, Y1^..^Yl] = sum_(i,j) (-1)^(i+j) [Xi,Yj] ^ (X without Xi) ^ (Y without Yj).

The axiom cannot fix the sign of the LCS pi, since (pi, E) and (-pi, -E)
both satisfy it; that sign is the normalisation that dx1^dx2 has the
bivector d/dx1^d/dx2.

The defining pair is checked the same way: each input's (pi, E) is lifted
to two more variables y1, y2 (codimension q = 2, where the sign
(-1)^(q+1) of beta matters) and rescaled by exp(x_a y1 + x_b y2), and
d alpha - beta ^ alpha and d(beta ^ (d beta)^q) of the kernel's pair are
rebuilt with a sympy exterior derivative on mask -> coefficient dicts.

`recip` is checked on seeded sums over k + x1 whose numerators lose their
constant term (the reciprocal then takes x1 out a second time): the
printed reciprocal times the sympy twin cancels to 1.

`diff` is checked against `sympy.diff` on seeded sums of polynomials times
wrapped-polynomial reciprocals, powers of exp, ln, sin and cos, each built
twice, once in kernel arithmetic and once in sympy.

The kernel's coefficients are read back through their printed form and
compared with `sympy.cancel` of the difference, after every exp atom is
replaced by a symbol; `simplify` is never called.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp

from gvkernel.alg import DiffForm
from gvkernel.dsl import parse_problem
from gvkernel.duality import volume_context
from gvkernel.expr import (Sampler, ScalarExpr, cos_, diff, exp_, ln_,
                           sin_)
from gvkernel.jacobi import (conformal_rescale, contact_to_jacobi,
                             defining_pair, lcs_to_jacobi, lift_to, verify_jacobi)


def _dsl(expr) -> str:
    """A polynomial-times-exp sympy expression in the problem-file syntax."""
    return str(expr).replace("**", "^")


def _atoms_to_symbols(expr):
    """exp(c*x) -> exp_x^c after exp(a + b) -> exp(a)*exp(b): the exp atoms
    become independent symbols, so `cancel` works in a rational field."""
    def symbol(e):
        c, v = e.args[0].as_coeff_Mul()
        return sp.Symbol(f"exp_{v}") ** c
    return sp.expand_power_exp(expr).replace(lambda e: isinstance(e, sp.exp), symbol)


def _sympified(c, names):
    """A kernel scalar, read back through its printed form."""
    names = {v: sp.Symbol(v) for v in names}
    names.update(exp=sp.exp, ln=sp.log, sin=sp.sin, cos=sp.cos)
    return sp.sympify(str(c).replace("^", "**"), locals=names)


def _read(el):
    """mask -> coefficient of a kernel element, as a sympy expression."""
    return {mask: _sympified(c, el.chart.vars) for mask, c in el.terms.items()}


def _from_kernel(el):
    return {mask: _atoms_to_symbols(c) for mask, c in _read(el).items()}


def _assert_equal(el, want):
    """The kernel element el has the coefficients want[mask] (zero when
    absent), equal as rational functions of the variables and exp atoms."""
    got = _from_kernel(el)
    for mask in set(got) | set(want):
        diff = got.get(mask, 0) - _atoms_to_symbols(want.get(mask, sp.Integer(0)))
        assert sp.cancel(diff) == 0, (mask, got.get(mask), want.get(mask))


def _bivector(P):
    n = P.shape[0]
    return {(1 << i) | (1 << j): P[i, j] for i in range(n) for j in range(i + 1, n)}


def _vector(v):
    return {1 << i: c for i, c in enumerate(v)}


def _wedge(vectors, n):
    """The wedge of vector fields (lists of n components): sorted index
    tuple -> coefficient."""
    out = {}
    for idx in itertools.permutations(range(n), len(vectors)):
        c = sp.Mul(*(v[i] for v, i in zip(vectors, idx)))
        if c != 0:
            inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
            key = tuple(sorted(idx))
            out[key] = out.get(key, 0) + (-1) ** inversions * c
    return out


def _decomposed(P):
    """The terms P_ij d/dx_i ^ d/dx_j, i < j, as pairs of vector fields with
    the coefficient on the first."""
    n = P.shape[0]
    unit = [[sp.Integer(int(a == b)) for a in range(n)] for b in range(n)]
    return [[[P[i, j] * c for c in unit[i]], unit[j]]
            for i in range(n) for j in range(i + 1, n) if P[i, j] != 0]


def _axiom_holds(xs, P, E) -> bool:
    """[pi,pi] = 2 E^pi for pi = sum_(i<j) P_ij d/dx_i ^ d/dx_j."""
    n = len(xs)

    def commutator(x, y):
        return [sum(x[b] * sp.diff(y[a], xs[b]) - y[b] * sp.diff(x[a], xs[b])
                    for b in range(n)) for a in range(n)]

    resid = {}
    terms = _decomposed(P)
    for us, vs in itertools.product(terms, repeat=2):
        for (i, u), (j, v) in itertools.product(enumerate(us), enumerate(vs)):
            rest = us[:i] + us[i + 1:] + vs[:j] + vs[j + 1:]
            for key, c in _wedge([commutator(u, v)] + rest, n).items():
                resid[key] = resid.get(key, 0) + (-1) ** (i + j) * c
    for us in terms:
        for key, c in _wedge([list(E)] + us, n).items():
            resid[key] = resid.get(key, 0) - 2 * c
    return all(sp.cancel(c) == 0 for c in resid.values())


def _only_sign(candidates) -> int:
    signs = [s for s, holds in candidates if holds]
    assert len(signs) == 1, signs
    return signs[0]


# --- contact: E = M theta, pi = sign * (M - M^T) / 2 ----------------------------

def _contact_reference(xs, theta, pi_sign):
    n = len(xs)
    th = sp.Matrix([_atoms_to_symbols(c) for c in theta])
    A = sp.Matrix(n, n, lambda i, j: _atoms_to_symbols(
        sp.diff(theta[j], xs[i]) - sp.diff(theta[i], xs[j])))
    M = (A + th * th.T).T.inv()
    E = (M * th).applyfunc(sp.cancel)
    return ((M - M.T) / 2 * pi_sign).applyfunc(sp.cancel), E, M


@functools.lru_cache(maxsize=None)
def _contact_pi_sign() -> int:
    # the model (1 + x1^2) * (dx0 - x2 dx1) on three variables
    xs = sp.symbols(["x0", "x1", "x2"])
    f = 1 + xs[1] ** 2
    theta = [f, -xs[2] * f, sp.Integer(0)]
    P, E, M = _contact_reference(xs, theta, 1)
    sym = ((M + M.T) / 2 - E * E.T).applyfunc(sp.cancel)
    assert sym == sp.zeros(3, 3)  # the reference's own consistency
    return _only_sign((s, _axiom_holds(xs, P * s, E)) for s in (1, -1))


def _contact_case(seed, n):
    """(text, variables, theta) for f * (dx0 + sum h_i dx_i), i odd, with
    h_i = s x_(i+1) + r x_i^2 + c x0: theta ^ (d theta)^m is a nonzero
    constant times f^(m+1), and f is c + x1^2, exp(x2), or their product."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)]
    xs = sp.symbols(names)
    c = rng.randint(1, 4)
    f = rng.choice([c + xs[1] ** 2, sp.exp(xs[2]), (c + xs[1] ** 2) * sp.exp(xs[n - 1])])
    theta = [f] + [sp.Integer(0)] * (n - 1)
    for i in range(1, n, 2):
        h = (rng.choice([-3, -2, -1, 1, 2, 3]) * xs[i + 1]
             + rng.randint(-2, 2) * xs[i] ** 2 + rng.randint(-2, 2) * xs[0])
        theta[i] = f * h
    terms = " + ".join(f"({_dsl(t)})*d{v}" for t, v in zip(theta, names) if t != 0)
    return f"chart {' '.join(names)}\ntheta = {terms}\n", xs, theta


_NEAR_POLE_X = sp.symbols(["x1", "x2", "x3"])
_NEAR_POLE = ("chart x1 x2 x3\n"
              "theta = exp(x3)*dx1 + exp(x1)*dx2 + x2^-1*dx3 + x3*dx2\n",
              _NEAR_POLE_X,
              [sp.exp(_NEAR_POLE_X[2]), sp.exp(_NEAR_POLE_X[0]) + _NEAR_POLE_X[2],
               1 / _NEAR_POLE_X[1]])

CONTACT_CASES = [_contact_case(seed, n) for n, seeds in ((3, range(4)), (5, range(10, 15)))
                 for seed in seeds] + [_NEAR_POLE]


@pytest.mark.parametrize("text, xs, theta", CONTACT_CASES,
                         ids=[f"n{len(c[1])}-{i}" for i, c in enumerate(CONTACT_CASES)])
def test_contact_solve_matches_the_flat_inverse(text, xs, theta):
    p = parse_problem(text)
    pi, e = contact_to_jacobi(p.chart, p.theta, Sampler())
    P, E, _ = _contact_reference(xs, theta, _contact_pi_sign())
    _assert_equal(e, _vector(E))
    _assert_equal(pi, _bivector(P))


# --- LCS: pi = sign * W^-1, E = sign * W^-1 omega ---------------------------------

def _lcs_reference(xs, omega, big, pi_sign, e_sign):
    n = len(xs)
    W = sp.zeros(n, n)
    for (i, j), c in big.items():
        W[i, j], W[j, i] = c, -c
    winv = W.applyfunc(_atoms_to_symbols).inv()
    om = sp.Matrix([_atoms_to_symbols(c) for c in omega])
    return ((winv * pi_sign).applyfunc(sp.cancel),
            (winv * om * e_sign).applyfunc(sp.cancel))


@functools.lru_cache(maxsize=None)
def _lcs_signs():
    # pi: dx1^dx2 has the bivector d/dx1^d/dx2
    xs = sp.symbols(["x1", "x2"])
    P, _ = _lcs_reference(xs, [0, 0], {(0, 1): sp.Integer(1)}, 1, 1)
    pi_sign = 1 if P[0, 1] == 1 else -1
    # E: the model F (dx1^dx2 + dx3^dx4) with F = 1 + x1^2 and omega = d ln F
    xs = sp.symbols(["x1", "x2", "x3", "x4"])
    f = 1 + xs[0] ** 2
    omega = [sp.diff(f, x) / f for x in xs]
    big = {(0, 1): f, (2, 3): f}
    candidates = []
    for s in (1, -1):
        P, E = _lcs_reference(xs, omega, big, pi_sign, s)
        candidates.append((s, _axiom_holds(xs, P, E)))
    return pi_sign, _only_sign(candidates)


def _lcs_case(seed, n):
    """(text, variables, omega, Omega) for Omega = F * Omega0, Omega0 constant
    with Pfaffian a1 a2 (or a1), and omega = d ln F, F a polynomial or an exp."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(1, n + 1)]
    xs = sp.symbols(names)
    c = rng.randint(1, 4)
    f = rng.choice([c + xs[0] ** 2, c + xs[0] ** 2 + xs[n - 1] ** 2,
                    sp.exp(xs[n - 1]), (c + xs[0] ** 2) * sp.exp(xs[1])])
    big0 = {(i, i + 1): sp.Integer(rng.choice([-3, -2, -1, 1, 2, 3]))
            for i in range(0, n, 2)}
    if n == 4:
        big0[(0, 2)] = sp.Integer(rng.randint(-2, 2))
        big0[(1, 2)] = sp.Integer(rng.randint(-2, 2))
    omega = [sp.cancel(sp.diff(f, x) / f) for x in xs]
    parts = []
    for c0, v in zip(omega, names):
        num, den = sp.fraction(c0)
        if num != 0:
            parts.append(f"({_dsl(num)})*d{v}" if den == 1
                         else f"({_dsl(num)})*({_dsl(den)})^-1*d{v}")
    om_text = " + ".join(parts)
    big_text = " + ".join(f"({c0})*d{names[i]}^d{names[j]}"
                          for (i, j), c0 in big0.items() if c0 != 0)
    text = f"chart {' '.join(names)}\nomega = {om_text}\nOmega = ({_dsl(f)})*({big_text})\n"
    return text, xs, omega, {ij: f * c0 for ij, c0 in big0.items()}


LCS_CASES = [_lcs_case(seed, n) for n, seeds in ((2, range(3)), (4, range(10, 15)))
             for seed in seeds]


@pytest.mark.parametrize("text, xs, omega, big", LCS_CASES,
                         ids=[f"n{len(c[1])}-{i}" for i, c in enumerate(LCS_CASES)])
def test_lcs_solve_matches_the_inverse_of_omega(text, xs, omega, big):
    p = parse_problem(text)
    pi, e = lcs_to_jacobi(p.chart, p.omega1, p.omega2, Sampler())
    P, E = _lcs_reference(xs, omega, big, *_lcs_signs())
    _assert_equal(e, _vector(E))
    _assert_equal(pi, _bivector(P))



# --- the defining pair: d alpha = beta ^ alpha, d(beta ^ (d beta)^q) = 0 ------

def _below(mask, i):
    """How many indices of mask lie below i."""
    return bin(mask & ((1 << i) - 1)).count("1")


def _d(form, xs):
    """Exterior derivative of a form given as mask -> coefficient:
    d(c dx_I) = sum_i dc/dx_i dx_i ^ dx_I."""
    out = {}
    for mask, c in form.items():
        for i, x in enumerate(xs):
            if not mask >> i & 1:
                key = mask | 1 << i
                out[key] = out.get(key, 0) + (-1) ** _below(mask, i) * sp.diff(c, x)
    return out


def _wedge_forms(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if not ma & mb:
                swaps = sum(_below(mb, i) for i in range(ma.bit_length()) if ma >> i & 1)
                out[ma | mb] = out.get(ma | mb, 0) + (-1) ** swaps * ca * cb
    return out


def _assert_zero(form):
    for mask, c in form.items():
        assert sp.cancel(_atoms_to_symbols(c)) == 0, (mask, c)


def _kernel_pair(chart, pi, e):
    """The kernel's pair of (pi, E) lifted to chart x (y1, y2) and rescaled by
    exp(x_a y1 + x_b y2), with x_a, x_b the first two variables."""
    ext = chart.extend("y1").extend("y2")
    sampler = Sampler()
    ctx = volume_context(ext, DiffForm.basis(ext, range(ext.n)), sampler)
    j = verify_jacobi(ctx, lift_to(ext, pi), lift_to(ext, e), sampler)
    v = [ScalarExpr.var(x) for x in (*chart.vars[:2], "y1", "y2")]
    j = conformal_rescale(j, exp_(v[0] * v[2] + v[1] * v[3]), ctx, sampler)
    assert j.q == 2
    return defining_pair(j, ctx, sampler)


PAIR_CASES = [c[0] for c in CONTACT_CASES + LCS_CASES]


@pytest.mark.parametrize("text", PAIR_CASES,
                         ids=[f"{'contact' if i < len(CONTACT_CASES) else 'lcs'}-{i}"
                              for i in range(len(PAIR_CASES))])
def test_pair_is_defining_and_gv_closed(text):
    p = parse_problem(text)
    if p.style == "theta":
        pi, e = contact_to_jacobi(p.chart, p.theta, Sampler())
    else:
        pi, e = lcs_to_jacobi(p.chart, p.omega1, p.omega2, Sampler())
    dp = _kernel_pair(p.chart, pi, e)
    xs = sp.symbols([*p.chart.vars, "y1", "y2"])
    alpha, beta = _read(dp.alpha), _read(dp.beta)
    resid = _d(alpha, xs)
    for mask, c in _wedge_forms(beta, alpha).items():
        resid[mask] = resid.get(mask, 0) - c
    _assert_zero(resid)
    dbeta = _d(beta, xs)
    gv = _wedge_forms(beta, _wedge_forms(dbeta, dbeta))
    _assert_zero(_d(gv, xs))
    kernel_gv = _read(dp.gv)
    _assert_zero({m: kernel_gv.get(m, 0) - gv.get(m, 0) for m in set(gv) | set(kernel_gv)})


# --- diff ---------------------------------------------------------------------

_DIFF_VARS = ("x1", "x2", "x3")


def _twin_polynomial(rng, constant=True):
    """A seeded polynomial in x1, x2, x3 as (kernel, sympy) twins."""
    k, s = ScalarExpr.zero(), sp.Integer(0)
    for _ in range(rng.randint(1, 3)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        exps = [rng.randint(0, 2) for _ in _DIFF_VARS]
        if not constant and not any(exps):
            exps[rng.randrange(3)] = 1
        kt, st = ScalarExpr.const(c), sp.Integer(c)
        for v, e in zip(_DIFF_VARS, exps):
            kt, st = kt * ScalarExpr.var(v) ** e, st * sp.Symbol(v) ** e
        k, s = k + kt, s + st
    return k, s


def _twin_factors(rng):
    """The factors of the seeded expressions, as (kernel, sympy) twins."""
    x = [ScalarExpr.var(v) for v in _DIFF_VARS]
    y = sp.symbols(_DIFF_VARS)
    u, us = _twin_polynomial(rng, constant=False)
    positive = 2 + x[0] ** 2 + x[1] * x[2] ** 2
    return [((2 + x[0] ** 2).recip(), 1 / (2 + y[0] ** 2)),
            ((1 + x[0] ** 2 + x[1] ** 2) ** -2, (1 + y[0] ** 2 + y[1] ** 2) ** -2),
            (exp_(u) ** 2, sp.exp(us) ** 2),
            (exp_(u) ** -1, sp.exp(us) ** -1),
            (ln_(positive, frozenset(_DIFF_VARS)), sp.log(2 + y[0] ** 2 + y[1] * y[2] ** 2)),
            (sin_(u), sp.sin(us)),
            (cos_(u), sp.cos(us))]


def _diff_case(seed):
    """A sum of two or three polynomials, each times one or two factors."""
    rng = random.Random(seed)
    factors = _twin_factors(rng)
    k, s = ScalarExpr.zero(), sp.Integer(0)
    for _ in range(rng.randint(2, 3)):
        kt, st = _twin_polynomial(rng)
        for kf, sf in rng.sample(factors, rng.randint(1, 2)):
            kt, st = kt * kf, st * sf
        k, s = k + kt, s + st
    return k, s


@pytest.mark.parametrize("seed", range(16))
def test_diff_matches_sympy(seed):
    e, ref = _diff_case(seed)
    pairs = [(e, ref)] + [(diff(e, v), sp.diff(ref, sp.Symbol(v))) for v in _DIFF_VARS]
    for got, want in pairs:  # the twins first, then each derivative
        difference = _sympified(got, _DIFF_VARS) - want
        assert sp.cancel(_atoms_to_symbols(difference)) == 0, (seed, str(e), str(got))


# --- reciprocals whose expansion cancels terms --------------------------------

def _nested_case(seed):
    """Seeded members of the a*((k + x1)^-1 - b) family and of
    a/(k + x1) - b + c*x1*x2/(k + x1), as (kernel, sympy) twins.  With
    b = 1/k, as in most seeds, the numerator over k + x1 loses its constant
    term, and what is left is a single term or shares x1."""
    rng = random.Random(seed)
    a, c = (sp.Rational(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)) for _ in range(2))
    k = rng.randint(1, 3)
    b = sp.Rational(1, k) if seed % 4 else sp.Rational(rng.randint(1, 5), rng.randint(1, 3))
    x1, x2 = sp.symbols("x1 x2")
    kx1, kx2 = ScalarExpr.var("x1"), ScalarExpr.var("x2")
    ka, kb, kc = (ScalarExpr.const(Fraction(int(r.p), int(r.q))) for r in (a, b, c))
    over = (k + kx1).recip()
    return [(ka * (over - kb), a * (1 / (k + x1) - b)),
            (ka * over - ka * kb + kc * kx1 * kx2 * over,
             a / (k + x1) - a * b + c * x1 * x2 / (k + x1))]


@pytest.mark.parametrize("seed", range(12))
def test_nested_reciprocal_inverts(seed):
    for e, ref in _nested_case(seed):
        got = _sympified(e.recip(), ("x1", "x2"))
        assert sp.cancel(got * ref - 1) == 0, (seed, str(e), str(e.recip()))
