"""Differential operators: exterior derivative, Schouten bracket, Lie derivative.

The Schouten bracket ships in two independent implementations.  The
production route peels coefficient functions off sparse terms with the
graded Leibniz rule; the oracle route expands the decomposable-term sum
over honest vector-field commutators.  The two must agree everywhere and
the test suite collides them on randomized inputs.

Base cases: [X, f] = Xf for a vector field X and function f, [f, g] = 0.
Graded antisymmetry: [U, V] = -(-1)^((k-1)(l-1)) [V, U].

The production route writes the graded Leibniz rule once, as the peel of
one term's coefficient,

    P(f, I; g, J) = sum_r (-1)^(k-r) f (d_{i_r} g) d_{I\\i_r} ^ d_J,

with k = |I|, l = |J| and 1-based positions r along the sorted indices I.
Two terms bracket as [f d_I, g d_J] = P(f, I; g, J) - (-1)^((k-1)(l-1))
P(g, J; f, I): `_peeled_term_bracket` runs one loop on both orderings.
A self-bracket [U, U] is taken over unordered pairs of distinct terms: it
is zero at odd grade, and 2 sum_{I<J} [t_I, t_J] at even grade, since a
single term's [t_I, t_I] is zero there (every wedge d_{I\\i} ^ d_I of the
peeled bracket overlaps).
"""

from __future__ import annotations

from typing import Dict, List

from .alg import (AlgebraError, DiffForm, MultiVector, _summed,
                  contract_mv_into_form, mask_indices, wedge, wedge_sign)
from .expr import Chart, ScalarExpr, diff


def exterior_derivative(omega: DiffForm) -> DiffForm:
    """Coordinate exterior derivative; the top grade maps to the zero form."""
    chart = omega.chart
    if omega.grade >= chart.n:
        return DiffForm.zero(chart, chart.n)
    out: Dict[int, List[ScalarExpr]] = {}
    for mask, coeff in omega.terms.items():
        for i, var in enumerate(chart.vars):
            if mask & (1 << i):
                continue
            d = diff(coeff, var)
            if d.is_zero_form:
                continue
            out.setdefault(mask | (1 << i), []).append(
                d if wedge_sign(1 << i, mask) > 0 else -d)
    return DiffForm(chart, omega.grade + 1, _summed(out))


def _indexed_terms(u: MultiVector) -> list:
    """Each term as (mask, its indices, coefficient), indexed once for all
    of its pairs."""
    return [(mask, mask_indices(mask), c) for mask, c in u.terms.items()]


def _peeled_term_bracket(chart: Chart, ti: tuple, tj: tuple, weight: int,
                         out: Dict[int, List[ScalarExpr]]):
    """The products of weight * [f*d_I, g*d_J] for the terms ti = (I, the
    indices of I, f) and tj = (J, the indices of J, g), appended to `out`
    (mask -> products): the peel P (module docstring) on (f, I; g, J) with
    `weight`, then on (g, J; f, I) with -(-1)^((k-1)(l-1)) * weight.  A
    derivative is taken only where its wedge does not vanish."""
    swap = weight if ((len(ti[1]) - 1) * (len(tj[1]) - 1)) % 2 else -weight
    for (imask, ivars, f), (jmask, _, g), weight in ((ti, tj, weight), (tj, ti, swap)):
        k = len(ivars)
        for r, i in enumerate(ivars, start=1):
            rest = imask & ~(1 << i)
            s = wedge_sign(rest, jmask)
            if s == 0:
                continue
            d = diff(g, chart.vars[i])
            if d.is_zero_form:
                continue
            sign = s if (k - r) % 2 == 0 else -s
            out.setdefault(rest | jmask, []).append((f * d)._scaled(sign * weight))


def schouten(u: MultiVector, v: MultiVector) -> MultiVector:
    """Schouten bracket of multivector fields, grade k+l-1.

    A self-bracket (`u is v`) follows graded antisymmetry: of odd grade it
    is zero, and of even grade [t_J, t_I] = [t_I, t_J] and [t_I, t_I] = 0,
    so each pair of terms I < J is bracketed once, with weight 2."""
    if u.chart != v.chart:
        raise AlgebraError("chart mismatch")
    chart = u.chart
    grade = max(u.grade + v.grade - 1, 0)
    self_bracket = u is v
    if self_bracket and u.grade % 2:
        return MultiVector.zero(chart, grade)
    weight = 2 if self_bracket else 1
    u_terms = _indexed_terms(u)
    v_terms = u_terms if self_bracket else _indexed_terms(v)
    out: Dict[int, List[ScalarExpr]] = {}
    for a, ti in enumerate(u_terms):
        for b, tj in enumerate(v_terms):
            if self_bracket and b <= a:
                continue
            _peeled_term_bracket(chart, ti, tj, weight, out)
    return MultiVector(chart, grade, _summed(out))


def lie_derivative(x: MultiVector, omega: DiffForm) -> DiffForm:
    """Cartan formula: L_X = iota_X d + d iota_X on forms."""
    if not x.terms:
        return DiffForm.zero(omega.chart, omega.grade)
    if x.grade != 1:
        raise AlgebraError("lie_derivative expects a vector field")
    a = contract_mv_into_form(x, exterior_derivative(omega))
    if omega.grade == 0:
        return a
    return a + exterior_derivative(contract_mv_into_form(x, omega))


# --- brute-force oracle ------------------------------------------------------

Vector = Dict[int, ScalarExpr]  # variable index -> component


def _commutator(chart: Chart, x: Vector, y: Vector) -> Vector:
    out: Vector = {}
    for a in set(x) | set(y):
        acc = ScalarExpr.zero()
        for b, xb in x.items():
            acc = acc + xb * diff(y.get(a, ScalarExpr.zero()), chart.vars[b])
        for b, yb in y.items():
            acc = acc - yb * diff(x.get(a, ScalarExpr.zero()), chart.vars[b])
        if not acc.is_zero_form:
            out[a] = acc
    return out


def _apply(chart: Chart, x: Vector, f: ScalarExpr) -> ScalarExpr:
    acc = ScalarExpr.zero()
    for b, xb in x.items():
        acc = acc + xb * diff(f, chart.vars[b])
    return acc


def _vector_mv(chart: Chart, x: Vector) -> MultiVector:
    return MultiVector(chart, 1, {1 << a: c for a, c in x.items()})


def _wedge_vectors(chart: Chart, factors: List[Vector]) -> MultiVector:
    acc = MultiVector.scalar(chart, 1)
    for f in factors:
        acc = wedge(acc, _vector_mv(chart, f))
    return acc


def _decompose(mask: int, coeff: ScalarExpr) -> List[Vector]:
    """f*d_{i1..ik} as the factor list [f d_{i1}, d_{i2}, ..., d_{ik}]."""
    idx = mask_indices(mask)
    factors: List[Vector] = [{idx[0]: coeff}]
    for i in idx[1:]:
        factors.append({i: ScalarExpr.one()})
    return factors


def _oracle_with_function(chart: Chart, factors: List[Vector], g: ScalarExpr,
                          out: Dict[int, ScalarExpr]):
    """[X1^...^Xk, g] = sum_i (-1)^(k-i) (Xi g) X1^..omit i..^Xk, accumulated."""
    k = len(factors)
    for i in range(k):
        xg = _apply(chart, factors[i], g)
        if xg.is_zero_form:
            continue
        rest = _wedge_vectors(chart, factors[:i] + factors[i + 1:])
        sign = 1 if (k - (i + 1)) % 2 == 0 else -1
        for mask, c in rest.terms.items():
            term = xg * c if sign > 0 else -(xg * c)
            acc = out.get(mask)
            out[mask] = term if acc is None else acc + term


def schouten_bruteforce(u: MultiVector, v: MultiVector) -> MultiVector:
    """Independent expansion of the decomposable-term definition.

    Cross-validation oracle: every sparse term is split into a wedge of
    vector fields (coefficient riding on the first factor) and the double
    sum over pairwise commutators is expanded literally.
    """
    if u.chart != v.chart:
        raise AlgebraError("chart mismatch")
    chart = u.chart
    grade = max(u.grade + v.grade - 1, 0)
    out: Dict[int, ScalarExpr] = {}
    for imask, f in u.terms.items():
        for jmask, g in v.terms.items():
            k = imask.bit_count()
            l = jmask.bit_count()
            if k == 0 and l == 0:
                continue
            if l == 0:
                _oracle_with_function(chart, _decompose(imask, f), g, out)
                continue
            if k == 0:
                # [f, V] = (-1)^l [V, f] by graded antisymmetry
                inner: Dict[int, ScalarExpr] = {}
                _oracle_with_function(chart, _decompose(jmask, g), f, inner)
                sgn = 1 if l % 2 == 0 else -1
                for mask, c in inner.items():
                    term = c if sgn > 0 else -c
                    acc = out.get(mask)
                    out[mask] = term if acc is None else acc + term
                continue
            xs = _decompose(imask, f)
            ys = _decompose(jmask, g)
            for i in range(k):
                for j in range(l):
                    comm = _commutator(chart, xs[i], ys[j])
                    if not comm:
                        continue
                    rest = _wedge_vectors(
                        chart, [comm] + xs[:i] + xs[i + 1:] + ys[:j] + ys[j + 1:])
                    sign = 1 if (i + j) % 2 == 0 else -1
                    for mask, c in rest.terms.items():
                        term = c if sign > 0 else -c
                        acc = out.get(mask)
                        out[mask] = term if acc is None else acc + term
    return MultiVector(chart, grade, out)
