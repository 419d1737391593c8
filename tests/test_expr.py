import copy
import dataclasses
import functools
import gc
import itertools
import math
import operator
import pickle
import random
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvkernel import expr as expr_mod
from gvkernel.expr import (MAX_POINTS, MIN_VALID_SHARE, Atom, Chart, CheckFailure,
                           CheckResult, DomainError, ExprError, InsufficientSamples, Sampler, ScalarExpr,
                           _Block, _head_block, cos_, diff, evaluate, evaluate_block,
                           exp_, is_zero, ln_, sin_, vanishing_point)

from conftest import rand_scalar

X1, X2, X3 = (ScalarExpr.var(f"x{i}") for i in (1, 2, 3))
CHART = Chart(("x1", "x2", "x3"))


class TestChart:
    def test_basic(self):
        assert CHART.n == 3
        assert CHART.index("x2") == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ExprError):
            Chart(("a", "a"))

    def test_rejects_whitespace_and_empty(self):
        with pytest.raises(ExprError):
            Chart(("a b",))
        with pytest.raises(ExprError):
            Chart(("",))

    @pytest.mark.parametrize("names", [("x(3)",), ("é",), ("x", "dx")],
                             ids=["not-an-identifier", "not-ascii", "a-chart-form"])
    def test_rejects_names_that_do_not_read_back(self, names):
        with pytest.raises(ExprError):
            Chart(names)

    def test_extend_refuses_a_variable_whose_form_is_on_the_chart(self):
        with pytest.raises(ExprError):
            Chart(("x0", "dt")).extend("t")

    def test_dimension_bounds(self):
        with pytest.raises(ExprError):
            Chart(tuple(f"v{i}" for i in range(13)))
        Chart(tuple(f"v{i}" for i in range(12)))  # boundary ok

    def test_extend_appends_positive_var(self):
        ext = CHART.extend("t")
        assert ext.vars == ("x1", "x2", "x3", "t")
        assert "t" in ext.positive


class TestNormalForm:
    def test_commutative_cancellation(self):
        assert (X1 * X2 - X2 * X1).is_zero_form

    def test_binomial(self):
        assert ((X1 + 1) ** 2 - X1 ** 2 - 2 * X1 - 1).is_zero_form

    def test_atoms_collected_not_merged(self):
        assert str(exp_(X1) * exp_(X1)) == "exp(x1)^2"

    def test_deterministic_printing(self):
        a = 1 - X2 ** 2
        b = -(X2 ** 2) + 1
        assert str(a) == str(b) == "1 - x2^2"

    def test_product_and_expansion_share_a_normal_form(self):
        e = (X1 + X2) * (X1 - X2)
        assert str(e) == str(X1 ** 2 - X2 ** 2)

    def test_negative_powers_are_monomials(self):
        t = ScalarExpr.var("t")
        assert str(t ** -1) == "t^-1"
        assert ((t ** -1) * t).is_one

    def test_recip_of_monomial(self):
        e = (ScalarExpr.const(2) * X1 ** 2).recip()
        assert str(e) == "1/2*x1^-2"

    def test_recip_of_polynomial_cancels(self):
        p = X1 ** 2 + X1
        assert (p.recip() * p).is_one
        assert str(p.recip() * (X1 ** 4 + X1 ** 3)) == "x1^2"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_of_a_multivariate_reciprocal_cancels(self, k):
        # exact division needs its leading terms in a monomial order; the
        # print order is not one, and in it (2 + x1^2 + x2^2)^2 did not
        # divide by 2 + x1^2 + x2^2
        q = (2 + X1 ** 2 + X2 ** 2).recip() ** k
        assert (q * q.recip()).is_one
        assert (q * (2 + X1 ** 2 + X2 ** 2) ** k).is_one

    def test_recip_roundtrip_nested(self):
        p = 1 + X1 ** 2
        q = p.recip() + 1          # (1 + (1+x1^2)^-1)
        r = q.recip()
        assert (r * q).is_one

    def test_zero_recip_raises(self):
        with pytest.raises(ZeroDivisionError):
            ScalarExpr.zero().recip()

    def test_recip_of_a_zero_the_normal_form_keeps_raises(self):
        # 1/p - 1/q - (x2^2 - x1^2)/(p*q) is zero, but no group divides, so
        # its normal form keeps four terms; taken over p*q they expand to
        # nothing
        p, q = (1 + X1 ** 2).recip(), (1 + X2 ** 2).recip()
        e = p - q - (X2 ** 2 - X1 ** 2) * p * q
        assert len(e._terms) == 4
        with pytest.raises(ZeroDivisionError):
            e.recip()

    def test_cube_squares_no_further_than_its_last_bit(self, monkeypatch):
        # b^3 = b * b^2; squaring past the top bit would also build b^4
        b = X1 + X2
        want = b * b * b
        degrees = []
        mul = ScalarExpr.__mul__

        def counted(x, y):
            out = mul(x, y)
            degrees.append(max(sum(e for _, e in m) for m, _ in out._terms))
            return out

        monkeypatch.setattr(ScalarExpr, "__mul__", counted)
        assert b ** 3 == want
        assert degrees and max(degrees) == 3


# The unshortcut routes: a product expanded and cancelled term by term, a sum
# and a negation normalised from their term dicts.  Operands are built
# through these alone, so a broken shortcut cannot shape both sides.
def _full_mul(a, b):
    return ScalarExpr(expr_mod._raw_mul(dict(a._terms), dict(b._terms)), a._den * b._den)


def _full_pow(a, k):
    base = a if k >= 0 else a.recip()
    out = ScalarExpr.one()
    for _ in range(abs(k)):
        out = _full_mul(out, base)
    return out


def _same(got, want):
    assert got._terms == want._terms
    assert str(got) == str(want)
    assert hash(got) == hash(want)


def _fractions(e):
    """e's terms as a monomial -> Fraction dict."""
    return {m: Fraction(c, e._den) for m, c in e._terms}


def _from_fractions(terms):
    """The normal form of a monomial -> rational dict: its coefficients
    over the lcm of their denominators."""
    den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    return ScalarExpr({m: int(c * den) for m, c in terms.items()}, den)


def _merged(*xs):
    """The expression holding the terms of every x (a later x's term
    replacing an earlier one's on the same monomial), normalised once."""
    return _from_fractions({m: c for x in xs for m, c in _fractions(x).items()})


def _fold(xs):
    """The left fold of the two-summand sum: term dicts merged in Fraction
    arithmetic and normalised after every summand, as a running sum builds
    them."""
    out = ScalarExpr.zero()
    for x in xs:
        terms = _fractions(out)
        for m, c in _fractions(x).items():
            terms[m] = terms.get(m, Fraction(0)) + c
        out = _from_fractions(terms)
    return out


_X1SQ = _full_mul(X1, X1)
_POLYS = (_fold([ScalarExpr.one(), _X1SQ]), _fold([ScalarExpr.const(2), _X1SQ]),
          _fold([ScalarExpr.one(), _X1SQ, _full_mul(X2, X2)]))
_RECIPROCALS = (*(_full_pow(p, -1) for p in _POLYS), _full_pow(_POLYS[0], -2))
_NUMERATORS = (_merged(X1, ScalarExpr.one()),     # x1 + 1
               _merged(_full_mul(X1, X1), X2))     # x1^2 + x2
# (x1^2 + 1 + x1)/(1 + x1^2): three terms over p that nothing divides, a
# normal form only this grouping reaches (TestSum)
_OVER_P = _merged(*(_full_mul(x, _RECIPROCALS[0]) for x in (_X1SQ, ScalarExpr.one(), X1)))
_FACTORS = st.one_of(
    st.builds(_full_pow, st.sampled_from([X1, X2, X3]), st.integers(-2, 3)),
    st.sampled_from([exp_(X1), sin_(X2), _NUMERATORS[0].recip(),
                     _full_pow(_NUMERATORS[1], -2), *_NUMERATORS, *_RECIPROCALS,
                     _OVER_P]))
_CONSTS = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 3]).map(
    ScalarExpr.const)


@st.composite
def _terms(draw):
    out = draw(_CONSTS)
    for f in draw(st.lists(_FACTORS, max_size=3)):
        out = _full_mul(out, f)
    return out


_OPERANDS = st.one_of(_CONSTS, _terms(),
                      st.builds(_merged, _terms(), _terms()))
# pairs (a, b), half of them with b = c / a, whose exponents cancel a's
_PAIRS = st.one_of(
    st.tuples(_OPERANDS, _OPERANDS),
    st.builds(lambda a, c: (a, _full_mul(c, a.recip())),
              _OPERANDS.filter(lambda a: a._terms), _OPERANDS))


class TestProductShortcuts:
    """A nonzero constant, and two single monomials with no wrapped
    polynomial in either, build the product's normal form directly; it must
    be the one the full expansion gives."""

    @settings(max_examples=300, deadline=None)
    @given(_PAIRS)
    def test_product_is_the_expanded_normal_form(self, pair):
        a, b = pair
        want = _full_mul(a, b)
        _same(a * b, want)
        _same(b * a, want)

    @settings(max_examples=100, deadline=None)
    @given(_OPERANDS)
    def test_sum_with_zero_and_negation(self, a):
        _same(a + 0, ScalarExpr(dict(a._terms), a._den))
        _same(0 + a, ScalarExpr(dict(a._terms), a._den))
        _same(-a, ScalarExpr({m: -c for m, c in a._terms}, a._den))
        assert a * 1 is a
        assert 1 * a is a

    def test_zero_times_anything_takes_no_term_loop(self, monkeypatch):
        a = _merged(X1, _full_mul(X2, exp_(X1)), _RECIPROCALS[0])
        calls = []
        raw_mul = expr_mod._raw_mul
        monkeypatch.setattr(expr_mod, "_raw_mul", lambda *a: calls.append(a) or raw_mul(*a))
        for zero in (0, ScalarExpr.zero(), ScalarExpr.const(Fraction(0))):
            assert (a * zero).is_zero_form and (zero * a).is_zero_form
            assert (a * zero)._den == (zero * a)._den == 1
        assert calls == []

    def test_cancelled_exponent_leaves_the_monomial(self):
        _same(X1 * _full_pow(X1, -1), ScalarExpr.one())
        _same(X1 * X2 * _full_pow(X1, -1), X2)

    def test_constant_factor_is_kept(self):
        _same(3 * (X1 * X2), _full_mul(ScalarExpr.const(3), _full_mul(X1, X2)))
        assert str(Fraction(-1, 2) * (X1 + X2)) == "-1/2*x1 - 1/2*x2"

    @staticmethod
    def _single_terms_with_reciprocals():
        """Pairs of single monomials, at least one holding a wrapped
        polynomial: one polynomial at two powers, two polynomials, and a
        plain operand, with plain exponents that cancel or add."""
        p, q, p2 = _RECIPROCALS[0], _RECIPROCALS[1], _RECIPROCALS[3]
        a = _full_mul(_full_mul(ScalarExpr.const(3), _full_mul(X1, X2)), p)
        inv_x1 = _full_pow(X1, -1)
        return [(a, p2), (a, _full_mul(inv_x1, p2)), (p, p),
                (a, _full_mul(ScalarExpr.const(Fraction(-1, 2)), q)),
                (_full_mul(inv_x1, q), _full_mul(p, exp_(X1))),
                (a, inv_x1), (a, _full_mul(exp_(X1), _full_pow(X2, 2))), (p2, X3)]

    def test_single_terms_with_reciprocals_merge(self):
        # positive powers of a wrapped polynomial are expanded, so merged
        # exponents stay negative, and a single term never divides
        for a, b in self._single_terms_with_reciprocals():
            assert len(a._terms) == len(b._terms) == 1
            want = _full_mul(a, b)
            _same(a * b, want)
            _same(b * a, want)

    def test_single_terms_with_reciprocals_skip_expansion(self, monkeypatch):
        pairs = self._single_terms_with_reciprocals()
        calls = []

        def counted(name):
            inner = getattr(expr_mod, name)

            def wrapper(*args):
                calls.append(name)
                return inner(*args)
            return wrapper

        for name in ("_raw_mul", "_cancelled"):
            monkeypatch.setattr(expr_mod, name, counted(name))
        for a, b in pairs:
            a * b
            b * a
        assert calls == []


def _assert_wrapped_negative(e):
    """Every wrapped polynomial in e, inside atom arguments too, sits at a
    negative exponent, and no monomial of its argument holds one.  Its
    argument has at least two terms and no common monomial, and each of its
    atoms spreads: it is least at 0 and greater in some term."""
    for m, _ in e._terms:
        for a, k in m:
            if a.kind == "poly":
                assert k < 0, f"{a}^{k} in {e}"
                assert all(b.kind != "poly" for mm, _ in a.arg._terms for b, _ in mm), (
                    f"wrapped polynomial inside {a}")
                monos = [dict(mm) for mm, _ in a.arg._terms]
                assert len(monos) >= 2, f"single term wrapped in {a}"
                for b in {b for mm in monos for b in mm}:
                    exps = [mm.get(b, 0) for mm in monos]
                    assert min(exps) == 0 < max(exps), f"{b} shared or not spread in {a}"
            if a.arg is not None:
                _assert_wrapped_negative(a.arg)


def _assert_reduced(e):
    """e, and every atom argument in it, holds int numerators over a
    positive int denominator, with no common factor; a wrapped polynomial's
    argument is primitive, over the denominator 1."""
    assert type(e._den) is int and e._den > 0, e._den
    assert all(type(c) is int for _, c in e._terms), e._terms
    assert math.gcd(e._den, *(c for _, c in e._terms)) == 1, f"unreduced {e}"
    for m, _ in e._terms:
        for a, _ in m:
            if a.kind == "poly":
                assert a.arg._den == 1 and math.gcd(*(c for _, c in a.arg._terms)) == 1
            if a.arg is not None:
                _assert_reduced(a.arg)


# 1/(1 + x1) - 1 + x1*x2/(1 + x1) and 1/(1 + x1) - 1: sums whose reciprocals
# expand to terms that share a monomial
_SHARING = tuple(r - 1 + x for r in [(ScalarExpr.one() + X1).recip()]
                 for x in (X1 * X2 * r, ScalarExpr.zero()))
_WRAPPED_OPERANDS = st.one_of(
    st.sampled_from([*_RECIPROCALS, _OVER_P, _full_pow(_NUMERATORS[1], -2), *_SHARING,
                     *(e.recip() for e in _SHARING)]),
    _OPERANDS)
_STEPS = st.one_of(
    st.tuples(st.sampled_from(["*", "+", "-"]), _WRAPPED_OPERANDS),
    st.tuples(st.just("**"), st.integers(-3, 3)),
    st.tuples(st.just("diff"), st.sampled_from(["x1", "x2", "x3"])),
    st.tuples(st.sampled_from(["recip", "exp", "ln"]), st.none()))


def _step(e, op, arg):
    if op in ("*", "+", "-"):
        return {"*": operator.mul, "+": operator.add, "-": operator.sub}[op](e, arg)
    if op == "**":
        return e ** arg
    if op == "diff":
        return diff(e, arg)
    if op == "recip":
        return e.recip()
    return exp_(e) if op == "exp" else ln_(1 + exp_(e))


class TestWrappedPolynomialsStayNegative:
    """The invariant that lets products skip expansion: no arithmetic,
    derivative or function call leaves a wrapped polynomial at a positive
    exponent or inside another's argument; `recip`, which alone makes
    positive powers, expands them.  `recip` also leaves every wrapped
    polynomial reduced: two terms or more, no common monomial, and a
    positive spread in each atom.  Every result is also in the reduced
    integer form (`_assert_reduced`)."""

    @settings(max_examples=300, deadline=None)
    @given(_WRAPPED_OPERANDS, st.lists(_STEPS, max_size=4))
    def test_every_result_holds_wrapped_polynomials_negatively(self, e, steps):
        _assert_wrapped_negative(e)
        _assert_reduced(e)
        for op, arg in steps:
            if len(e._terms) > 12 and op in ("*", "**"):
                continue  # keep the expansion small
            if e.is_zero_form and (op == "recip" or op == "**" and arg < 0):
                continue
            e = _step(e, op, arg)
            _assert_wrapped_negative(e)
            _assert_reduced(e)

    def test_recip_expands_what_it_unshifts(self):
        # 1/p + 1/p^2 shifts to p + 1, and 1/(x1/p) inverts p^-1: both hold
        # p^1 before recip expands it
        p = _RECIPROCALS[0]
        for e in (p + _RECIPROCALS[3], X1 * p, (X1 + p) * p):
            _assert_wrapped_negative(e.recip())
            assert (e * e.recip()).is_one

    def test_recip_takes_out_what_its_expansion_shares(self):
        # 1/(1 + x1) - 1 expands to the single term -x1 over 1 + x1, and
        # 1/(1 + x1) - 1 + x1*x2/(1 + x1) to -x1 + x1*x2, which shares x1
        assert [str(e.recip()) for e in _SHARING] == [
            "x1^-1*(-1 + x2)^-1 + (-1 + x2)^-1", "-x1^-1 - 1"]
        for e in _SHARING:
            _assert_wrapped_negative(e.recip())
            assert (e * e.recip()).is_one


_SUMMANDS = st.builds(
    lambda c, v, k, f: _full_mul(_full_mul(c, _full_pow(v, k)), f),
    st.sampled_from([1, -1, 2, Fraction(1, 2)]).map(ScalarExpr.const),
    st.sampled_from([X1, X2]), st.integers(0, 2),
    st.sampled_from([ScalarExpr.one(), exp_(X1), _full_mul(exp_(X1), _RECIPROCALS[0]),
                     *_RECIPROCALS]))


@st.composite
def _summand_lists(draw):
    """0-6 summands: fresh ones, zeros, exact negatives of earlier ones, and
    the terms of a wrapped polynomial over its reciprocal, which sum to 1."""
    xs = []
    for kind in draw(st.lists(st.sampled_from(["new", "new", "zero", "neg", "split"]),
                              max_size=6)):
        if kind == "neg" and xs:
            x = draw(st.sampled_from(xs))
            xs.append(ScalarExpr({m: -c for m, c in x._terms}, x._den))
        elif kind == "split":
            i = draw(st.integers(0, len(_POLYS) - 1))
            f = draw(st.sampled_from([ScalarExpr.one(), X2, exp_(X1)]))
            xs.extend(_full_mul(_full_mul(ScalarExpr({m: c}, _POLYS[i]._den),
                                          _RECIPROCALS[i]), f)
                      for m, c in _POLYS[i]._terms)
        else:
            xs.append(ScalarExpr.zero() if kind == "zero" else draw(_SUMMANDS))
    return xs[:6]


class TestSum:
    """`ScalarExpr.sum` builds a sum from all its summands at once; it must
    give the normal form the running sum gives, summand by summand."""

    @settings(max_examples=400, deadline=None)
    @given(_summand_lists())
    def test_sum_is_the_left_fold(self, xs):
        got = ScalarExpr.sum(xs)
        _same(got, _fold(xs))
        _same(got, functools.reduce(operator.add, xs, ScalarExpr.zero()))

    def test_cancellation_depends_on_grouping(self):
        # x1^2/p + 1/p cancels to 1 and x1/p stays apart; nothing divides
        # (x1^2 + 1 + x1)/p, so summing all terms at once would keep three
        p = _RECIPROCALS[0]
        xs = [_full_mul(_X1SQ, p), p, _full_mul(X1, p)]
        assert str(ScalarExpr.sum(xs)) == "1 + x1*(1 + x1^2)^-1"
        assert str(_fold([xs[0], _fold(xs[1:])])) == (
            "(1 + x1^2)^-1 + x1*(1 + x1^2)^-1 + x1^2*(1 + x1^2)^-1")

    def test_divided_terms_land_in_a_group_that_then_divides(self):
        # x1^2/p^2 + 1/p^2 divides to 1/p, which lands beside x1^2/p: that
        # group is tried again and divides to 1
        p = _RECIPROCALS[0]
        p2 = _RECIPROCALS[3]
        assert str(ScalarExpr.sum([_full_mul(_X1SQ, p), _full_mul(_POLYS[0], p2)])) == "1"
        a = _merged(_full_mul(_X1SQ, p), _full_mul(_X1SQ, p2))
        assert len(a._terms) == 2
        xs = [a, p2]
        got = ScalarExpr.sum(xs)
        assert got.is_one
        _same(got, _fold(xs))
        _same(got, a + p2)

    @settings(max_examples=50, deadline=None)
    @given(_SUMMANDS)
    def test_empty_lone_and_zero_summands(self, e):
        assert ScalarExpr.sum([]).is_zero_form
        assert ScalarExpr.sum([e]) is e
        assert ScalarExpr.sum([e, ScalarExpr.zero()]) is e
        assert ScalarExpr.sum([0, e, 0]) is e


# The cancellation loop without the spread test and the pass flag, as the
# oracle: every group sharing a reciprocal is divided until the division
# fails, and the loop stops at the first pass that leaves the terms equal.
# It multiplies monomials by its own product, not the kernel's, and divides
# in Fraction arithmetic, so it checks the kernel's integer division (which
# ends at the first leading coefficient that does not divide) independently.
def _ref_monomial(exps):
    """The monomial of an atom -> exponent dict: zero exponents dropped,
    atoms in key order."""
    return tuple(sorted(((a, e) for a, e in exps.items() if e),
                        key=lambda p: p[0].key))


def _ref_times(m1, m2):
    exps = dict(m1)
    for a, e in m2:
        exps[a] = exps.get(a, 0) + e
    return _ref_monomial(exps)


def _reference_exact_div(num, den):
    rem, quo = {m: Fraction(c) for m, c in num.items()}, {}
    lead_den = max(den, key=expr_mod._lead_key)
    cd, dexp = Fraction(den[lead_den]), dict(lead_den)
    while rem:
        lead = max(rem, key=expr_mod._lead_key)
        nexp = dict(lead)
        for a, e in dexp.items():
            if nexp.get(a, 0) < e:
                return None
            nexp[a] = nexp.get(a, 0) - e
        t = _ref_monomial(nexp)
        c = rem[lead] / cd
        quo[t] = quo.get(t, Fraction(0)) + c
        for m, cden in den.items():
            mm = _ref_times(m, t)
            c2 = rem.get(mm, Fraction(0)) - c * cden
            if c2:
                rem[mm] = c2
            elif mm in rem:
                del rem[mm]
    return quo


def _reference_divided(num, den):
    """num/den over Laurent monomials, or None: the negative exponents of
    the whole numerator are cleared at once, without grouping its terms."""
    union = {a for mm in num for a, _ in mm}
    mins = {a: min(dict(mm).get(a, 0) for mm in num) for a in union}
    clear = _ref_monomial({a: -e for a, e in mins.items() if e < 0})
    quo = _reference_exact_div({_ref_times(m, clear): c for m, c in num.items()}, den)
    if quo is None:
        return None
    back = _ref_monomial({a: e for a, e in mins.items() if e < 0})
    return {_ref_times(m, back): c for m, c in quo.items()}


def _reference_pass(terms):
    groups = {}
    for m, c in terms.items():
        den = tuple(p for p in m if p[0].kind == "poly" and p[1] < 0)
        rest = tuple(p for p in m if not (p[0].kind == "poly" and p[1] < 0))
        groups.setdefault(den, {})[rest] = c
    out = {}
    for den, num in groups.items():
        den_left = dict(den)
        for atom, e in den:
            k = -e
            while k > 0:
                quo = _reference_divided(num, dict(atom.arg._terms))
                if quo is None:
                    break
                num = quo
                k -= 1
            if k == 0:
                del den_left[atom]
            else:
                den_left[atom] = -k
        den_mono = _ref_monomial(den_left)
        for m, c in num.items():
            mm = _ref_times(m, den_mono)
            c2 = out.get(mm, Fraction(0)) + c
            if c2:
                out[mm] = c2
            elif mm in out:
                del out[mm]
    return out


def _reference_cancelled(items):
    while any(a.kind == "poly" and e < 0 for m in items for a, e in m):
        reduced = _reference_pass(items)
        if reduced == items:
            break
        items = reduced
    return items


# the wrapped atoms of 1 + x1^2, 2 + x1^2, 1 + x1^2 + x2^2 and 3*x1^2 - 2*x2,
# the last led by 3*x1^2, so that its divisions need the integer test
_WRAPPED = tuple(r._terms[0][0][0][0] for r in (*_RECIPROCALS[:3], _full_pow(
    _merged(_full_mul(ScalarExpr.const(3), _X1SQ), _full_mul(ScalarExpr.const(-2), X2)), -1)))
_PLAIN_ATOMS = tuple(m[0][0] for x in (X1, X2, X3, exp_(X1)) for m, _ in x._terms)
# the wrapped atoms of polynomials in x1 alone, of the shapes contact forms
# make: (2 + x1^2)^3 and (3 + x1^2)^5 multiplied out (degrees 6 and 10, no odd
# powers), and 1 + x1 + x1^3
_ONE_ATOM = tuple(_full_pow(p, -1)._terms[0][0][0][0] for p in (
    _full_pow(_POLYS[1], 3), _full_pow(_fold([ScalarExpr.const(3), _X1SQ]), 5),
    _fold([ScalarExpr.one(), X1, _full_pow(X1, 3)])))
assert [str(a) for a in _ONE_ATOM] == [
    "(8 + 12*x1^2 + 6*x1^4 + x1^6)",
    "(243 + 405*x1^2 + 270*x1^4 + 90*x1^6 + 15*x1^8 + x1^10)", "(1 + x1 + x1^3)"]
# wrapped polynomials with a monomial shared by all their terms, built
# directly, since `recip` makes none: -x1 + x1*x2 (x1 at one exponent in both
# terms), the single term x1, and x1 + x1^3, in x1 alone and spreading
_SHARED = (Atom("poly", arg=X1 * X2 - X1), Atom("poly", arg=X1),
           Atom("poly", arg=X1 + X1 ** 3))
assert [str(a) for a in _SHARED] == ["(-x1 + x1*x2)", "(x1)", "(x1 + x1^3)"]


def _monomial(exps):
    return expr_mod._freeze(dict(zip(_PLAIN_ATOMS, exps)))


_EXPONENTS = st.tuples(*(st.integers(-2, 2) for _ in _PLAIN_ATOMS))
# integer numerators: the rationals 1, -1, 2, -3/2 and 1/3 over the denominator 6
_COEFFS = st.sampled_from([6, -6, 12, -9, 2])
# Laurent polynomials in x1, x2, x3 and exp(x1), as term dicts
_LAURENT = st.dictionaries(_EXPONENTS, _COEFFS, min_size=1, max_size=4).map(
    lambda d: {_monomial(e): c for e, c in d.items()})


def _times_powers(q, powers):
    """The term dict of q times each wrapped polynomial to its power."""
    for atom, j in powers:
        for _ in range(j):
            q = expr_mod._raw_mul(q, dict(atom.arg._terms))
    return q


@st.composite
def _reciprocal_term_dicts(draw):
    """Sums of pieces r * p^j / p^k for up to two wrapped polynomials p,
    with k up to 3 and j up to k: some groups divide and some do not, and
    pieces sharing their reciprocals merge into one group."""
    out = {}
    for _ in range(draw(st.integers(1, 4))):
        atoms = draw(st.lists(st.sampled_from(_WRAPPED), max_size=2, unique=True))
        ks = [draw(st.integers(1, 3)) for _ in atoms]
        piece = _times_powers(draw(_LAURENT),
                              [(a, draw(st.integers(0, k))) for a, k in zip(atoms, ks)])
        den = expr_mod._freeze({a: -k for a, k in zip(atoms, ks)})
        for m, c in expr_mod._raw_mul(piece, {den: 1}).items():
            c2 = out.get(m, 0) + c
            if c2:
                out[m] = c2
            else:
                out.pop(m, None)
    return out


# Atoms of every key class: variables, calls and wrapped polynomials
_MERGE_ATOMS = (*_PLAIN_ATOMS, exp_(2 * X1)._terms[0][0][0][0], _WRAPPED[0], _WRAPPED[2])


def _ref_quotient(m1, m2):
    """m1 / m2, or None where m2 raises an atom higher than m1 does."""
    exps = dict(m1)
    for a, e in m2:
        r = exps.get(a, 0) - e
        if r < 0:
            return None
        exps[a] = r
    return _ref_monomial(exps)


# a monomial in the order a dict-and-sort leaves it: atoms in key order
_MERGE_MONOMIALS = st.lists(
    st.tuples(st.sampled_from(_MERGE_ATOMS), st.integers(-2, 2).filter(bool)),
    max_size=5, unique_by=lambda p: id(p[0])).map(lambda ps: _ref_monomial(dict(ps)))


@st.composite
def _monomial_pairs(draw):
    """(a, b) with b drawn freely, or from a's atoms at exponents that cancel
    a's, stay below them or go above them."""
    a = draw(_MERGE_MONOMIALS)
    if a and draw(st.booleans()):
        picks = draw(st.lists(st.sampled_from(a), unique_by=lambda p: id(p[0])))
        shift = draw(st.sampled_from([-1, 0, 1]))
        b = {x: e + shift for x, e in picks}
        extra = draw(_MERGE_MONOMIALS)
        b.update((x, e) for x, e in extra if x not in b)
        return a, _ref_monomial(b)
    return a, draw(_MERGE_MONOMIALS)


class TestMonomialMerge:
    """`_mono_mul` and `_mono_div` merge two monomials in key order; they
    must give what multiplying the exponent dicts and sorting by key gives."""

    @settings(max_examples=500, deadline=None)
    @given(_monomial_pairs())
    def test_product_is_the_sorted_dict_product(self, ab):
        a, b = ab
        assert expr_mod._mono_mul(a, b) == _ref_times(a, b)
        assert expr_mod._mono_mul(b, a) == _ref_times(b, a)

    @settings(max_examples=500, deadline=None)
    @given(_monomial_pairs())
    def test_quotient_is_the_sorted_dict_quotient(self, ab):
        a, b = ab
        assert expr_mod._mono_div(a, b) == _ref_quotient(a, b)
        assert expr_mod._mono_div(b, a) == _ref_quotient(b, a)

    def test_cancelling_exponents_leave_no_atom(self):
        x1, x2 = _PLAIN_ATOMS[:2]
        assert expr_mod._mono_mul(((x1, 1), (x2, 2)), ((x1, -1),)) == ((x2, 2),)
        assert expr_mod._mono_div(((x1, 1), (x2, 2)), ((x1, 1), (x2, 2))) == ()

    def test_a_variable_name_is_an_identifier(self):
        # exp of a variable named "2*x1" would print, and so sort, as
        # exp(2*x1): two atoms of one key, which the merges cannot order
        for name in ("2*x1", "1 + x1^2", "x 1", "", "é"):
            with pytest.raises(ExprError):
                ScalarExpr.var(name)
        assert str(ScalarExpr.var("t_")) == "t_"

    def test_quotient_is_none_where_an_exponent_goes_negative(self):
        x1, x2 = _PLAIN_ATOMS[:2]
        p = _WRAPPED[0]
        assert expr_mod._mono_div(((x1, 1),), ((x1, 2),)) is None
        assert expr_mod._mono_div(((x1, 1),), ((x2, 1),)) is None
        assert expr_mod._mono_div(((x1, 1), (p, -1)), ((p, 1),)) is None
        assert expr_mod._mono_div(((x1, 1),), ((p, -1),)) == ((x1, 1), (p, 1))


class TestCancellation:
    """Cancellation skips the divisions that cannot succeed (the spread
    test) and stops at the first pass that divides nothing; its terms must
    be those of the loop that tries every division and compares the terms
    after each pass, in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(_LAURENT, st.lists(st.sampled_from(_WRAPPED), min_size=1, max_size=2,
                              unique=True).flatmap(
               lambda atoms: st.tuples(*(st.tuples(st.just(a), st.integers(1, 3))
                                         for a in atoms))),
           _EXPONENTS)
    def test_spread_test_passes_every_multiple(self, q, powers, exps):
        num = expr_mod._raw_mul(_times_powers(q, powers), {_monomial(exps): 1})
        for atom, _ in powers:
            div = expr_mod._divisor(atom)
            assert expr_mod._may_divide(num, div)
            assert expr_mod._divided(num, div) is not None

    def test_single_terms_and_short_spreads_are_skipped(self):
        p = expr_mod._divisor(_WRAPPED[0])   # 1 + x1^2 spreads 2 in x1
        assert p.spreads == {_PLAIN_ATOMS[0]: 2}
        assert not expr_mod._may_divide({_monomial((3, 1, 0, 0)): 1}, p)
        assert not expr_mod._may_divide(dict((X1 + X2)._terms), p)
        assert expr_mod._may_divide(dict((X1 ** 2 + X2)._terms), p)

    def test_a_leading_coefficient_that_does_not_divide_ends_the_division(self,
                                                                           monkeypatch):
        # 1 + 2*x1^2 leads with 2*x1^2, and x1^4 + 1 with x1^4: 1 is no
        # integer multiple of 2, so by Gauss's lemma no quotient exists and
        # the first step ends the division.  Over the rationals it would
        # reduce by 1/2*x1^2 and -1/4 first, and fail on the third step.
        atom = _full_pow(_merged(ScalarExpr.one(), _full_mul(ScalarExpr.const(2), _X1SQ)),
                         -1)._terms[0][0][0][0]
        div = expr_mod._divisor(atom)
        assert div.lead_coeff == 2
        num = {_monomial((4, 0, 0, 0)): 1, _monomial((0, 0, 0, 0)): 1}
        steps = []
        mono_div = expr_mod._mono_div
        monkeypatch.setattr(expr_mod, "_mono_div", lambda *a: steps.append(a) or mono_div(*a))
        assert expr_mod._exact_div(num, div) is None
        assert len(steps) == 1
        assert _reference_exact_div(num, div.terms) is None

    @settings(max_examples=300, deadline=None)
    @given(_LAURENT, st.sampled_from(_WRAPPED + _ONE_ATOM + _SHARED), st.integers(0, 2),
           _EXPONENTS, st.booleans())
    def test_grouped_division_is_the_ungrouped_one(self, q, atom, j, exps, spoil):
        # q * p^j over Laurent monomials in x1, x2, x3 and exp(x1): the
        # divisors' atoms are x1 (and x2), so most terms carry a cofactor
        # outside them; with j = 0, or with `spoil` (one term changed), the
        # division is exact only by chance.  The divisors of `_SHARED` hold
        # x1 at one exponent in every term, so whether a division is exact
        # depends on how far the numerator is shifted to clear it
        num = expr_mod._raw_mul(_times_powers(q, [(atom, j)]), {_monomial(exps): 1})
        if spoil:
            m = next(iter(num))
            num[m] += 1
            if not num[m]:
                del num[m]
        div = expr_mod._divisor(atom)
        want = _reference_divided(num, div.terms) if num else {}
        assert expr_mod._divided(num, div) == want
        if j and not spoil and atom in _WRAPPED + _ONE_ATOM:
            # a shared monomial is not divided out of a numerator shifted
            # below it: x1^-1 * (-x1 + x1*x2) clears to x2 - 1
            assert want is not None

    def test_a_single_term_cofactor_group_is_never_divided(self, monkeypatch):
        # x2*(1 + x1^2) + x3 spreads 2 in x1 as a whole, but the cofactor x3
        # holds one term, so no division is tried, not even the x2 group's
        div = expr_mod._divisor(_WRAPPED[0])
        num = expr_mod._raw_mul(dict(_POLYS[0]._terms), {_monomial((0, 1, 0, 0)): 1})
        num[_monomial((0, 0, 1, 0))] = 1
        assert expr_mod._may_divide(num, div)
        calls = []
        power_div = expr_mod._power_div
        monkeypatch.setattr(expr_mod, "_power_div", lambda *a: calls.append(a) or power_div(*a))
        assert expr_mod._divided(num, div) is None
        assert calls == []
        del num[_monomial((0, 0, 1, 0))]
        assert expr_mod._divided(num, div) == {_monomial((0, 1, 0, 0)): 1}
        assert len(calls) == 1

    def test_only_a_divisor_in_one_spreading_atom_divides_on_exponents(self, monkeypatch):
        # each divisor divides itself to 1; the polynomials in x1 alone take
        # the division on integer exponents, and every other one, in two
        # atoms or spreading nowhere, the division of monomials
        assert expr_mod._divisor(_WRAPPED[0]).powers == ((2, 1), (0, 1))
        assert expr_mod._divisor(_ONE_ATOM[2]).powers == ((3, 1), (1, 1), (0, 1))
        calls = []
        for name in ("_power_div", "_exact_div"):
            monkeypatch.setattr(expr_mod, name, lambda *a, name=name, fn=getattr(
                expr_mod, name): calls.append(name) or fn(*a))
        for atom in _WRAPPED + _ONE_ATOM + _SHARED:
            div = expr_mod._divisor(atom)
            one_atom = atom in (_WRAPPED[:2] + _ONE_ATOM + _SHARED[2:])
            assert (div.powers is not None) == one_atom
            calls.clear()
            assert expr_mod._divided(dict(div.terms), div) == {(): 1}
            assert calls == ["_power_div" if one_atom else "_exact_div"]

    def test_a_one_atom_quotient_stays_at_the_numerators_lowest_exponent(self):
        # 1 + x1^2 is x1^-1 * (x1 + x1^3), but x1^-1 is below the lowest
        # exponent of x1 in the numerator (at most 0, where it is cleared to):
        # no division, as in the ungrouped one.  It divides where every
        # cofactor group starts at x1^1 or above
        div = expr_mod._divisor(_SHARED[2])
        assert div.powers == ((3, 1), (1, 1))
        for exps_list, divides in (([(0, 0, 0, 0), (2, 0, 0, 0)], False),
                                   ([(1, 0, 0, 0), (3, 0, 0, 0)], True),
                                   ([(1, 1, 0, 0), (3, 1, 0, 0), (2, 0, 1, 0),
                                     (4, 0, 1, 0)], True),
                                   ([(0, 1, 0, 0), (2, 1, 0, 0), (1, 0, 1, 0),
                                     (3, 0, 1, 0)], False),
                                   ([(1, 1, 0, 0), (3, 1, 0, 0), (-1, 0, 1, 0),
                                     (1, 0, 1, 0)], False)):
            num = {_monomial(e): 1 for e in exps_list}
            want = _reference_divided(num, div.terms)
            assert (want is not None) == divides
            assert expr_mod._divided(num, div) == want

    @pytest.mark.parametrize("atom", (_WRAPPED[0],) + _ONE_ATOM)
    def test_both_divisions_run_out_at_one_budget(self, monkeypatch, atom):
        # x2*(1 + x1) and x3*(1 + x1^2 + x1^4) times the divisor: two cofactor
        # groups whose quotients take 2 and 3 steps from one shared budget,
        # on integer exponents as in the division of monomials
        div = expr_mod._divisor(atom)
        assert div.powers is not None
        quo = {_monomial(e): 1 for e in ((0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0),
                                         (2, 0, 1, 0), (4, 0, 1, 0))}
        num = expr_mod._raw_mul(quo, div.terms)
        for budget in range(8):
            monkeypatch.setattr(expr_mod, "_DIVISION_STEPS", budget)
            got = expr_mod._divided(num, div)
            assert got == expr_mod._divided(num, div._replace(powers=None))
            assert got == (quo if budget >= 5 else None)

    def test_a_high_exponent_divides_in_little_memory(self):
        # (1 + x1^1000000)^-1 * x1^1000000 + (1 + x1^1000000)^-1 is 1; the
        # division holds the exponents it meets, not every one below them
        tracemalloc.start()
        try:
            power = X1 ** 1000000
            r = (power + 1).recip()
            got = power * r + r
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.is_one
        assert peak < 1 << 20

    @pytest.mark.parametrize("k", [0, 1])
    def test_a_divisor_sharing_a_monomial_divides_what_the_ungrouped_one_does(self, k):
        # x1 is in every term of the divisor, at spread 0, and it is no
        # cofactor: x2 - 1 over -x1 + x1*x2 divides only once another
        # group's x1^-1 shifts the whole numerator by x1
        div = expr_mod._divisor(_SHARED[k])
        assert div.spreads[_PLAIN_ATOMS[0]] == 0
        for exps_list in ([(0, 1, 0, 0), (0, 0, 0, 0)],
                          [(0, 1, 0, 0), (0, 0, 0, 0), (-1, 0, 1, 0)],
                          [(0, 1, 1, 0), (0, 0, 1, 0), (-1, 1, 0, 0), (-1, 0, 0, 0)],
                          [(1, 1, 0, 1), (1, 0, 0, 1), (0, 0, -1, 0)],
                          [(1, 1, 0, 1), (1, 0, 0, 1), (0, 0, 1, 0), (-2, 0, 1, 0)]):
            num = {_monomial(e): 1 for e in exps_list}
            assert expr_mod._divided(num, div) == _reference_divided(num, div.terms)
        e = _SHARING[k]
        assert e * e.recip() == ScalarExpr.one() == e.recip() * e

    def test_divisor_data_is_held_by_the_atom(self):
        atom = _WRAPPED[2]
        div = expr_mod._divisor(atom)
        assert atom.divisor is div and expr_mod._divisor(atom) is div
        assert div.terms == dict(atom.arg._terms)

    @settings(max_examples=300, deadline=None)
    @given(_reciprocal_term_dicts())
    def test_cancelled_is_the_reference_loop(self, terms):
        # the dict order is not the kernel's to keep (grouped division may
        # change it), but the normal form's order is
        got = expr_mod._cancelled(dict(terms))
        want = _reference_cancelled(dict(terms))
        assert got == want
        assert ScalarExpr(got)._terms == tuple(
            sorted(want.items(), key=lambda p: expr_mod._mono_key(p[0])))

    @settings(max_examples=100, deadline=None)
    @given(_reciprocal_term_dicts())
    def test_a_pass_that_divides_nothing_returns_its_terms(self, terms):
        out, landed = expr_mod._cancel_denominators(terms)
        divided = bool(landed)
        assert (out is terms) == (not divided)
        assert divided == (out != terms)


class TestDiff:
    def test_product_base_case(self):
        assert diff(X1 * X2, "x1") == X2

    def test_constant(self):
        assert diff(ScalarExpr.const(5), "x1").is_zero_form

    def test_constants_keep_no_memo(self):
        # the shared constant would otherwise keep one entry per fresh name
        one = ScalarExpr.one()
        for i in range(1000):
            assert diff(one, f"v{i}").is_zero_form
            assert diff(ScalarExpr.const(1), f"w{i}").is_zero_form
        assert not one._diff and one not in expr_mod._DIFF_MEMOS
        with pytest.raises(ExprError, match="zz"):  # the chart is still checked
            diff(one, "zz", CHART)

    def test_chain_rule_exp_square_matches_finite_differences(self):
        e = exp_(X1 ** 2)
        de = diff(e, "x1")
        assert de == 2 * X1 * exp_(X1 ** 2)
        rng = random.Random(3)
        h = 1e-6
        for _ in range(20):
            p = {"x1": rng.uniform(-1, 1), "x2": 0.0, "x3": 0.0}
            up = dict(p, x1=p["x1"] + h)
            dn = dict(p, x1=p["x1"] - h)
            fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
            exact = evaluate(de, p)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_ln_exp_collapses(self):
        v = exp_(X1 * X2)
        assert ln_(v) == X1 * X2
        assert diff(ln_(v), "x1") == X2

    def test_trig(self):
        assert diff(sin_(X1), "x1") == cos_(X1)
        assert diff(cos_(X1), "x1") == -sin_(X1)

    def test_negative_power_rule(self):
        assert str(diff(X1 ** -3, "x1")) == "-3*x1^-4"

    def test_unknown_variable_is_fine_as_constant_direction(self):
        # without a chart, absent names differentiate as constants
        assert diff(X1, "zz").is_zero_form

    def test_chart_aware_diff_names_the_unknown_variable(self):
        with pytest.raises(ExprError, match="zz"):
            diff(X1, "zz", CHART)
        assert diff(X1 * X2, "x1", CHART) == X2


@st.composite
def poly_exprs(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return rand_scalar(rng, CHART, deg=draw(st.integers(0, 3)),
                       terms=draw(st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(poly_exprs(), poly_exprs())
def test_diff_is_leibniz(e, f):
    lhs = diff(e * f, "x1")
    rhs = diff(e, "x1") * f + e * diff(f, "x1")
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(poly_exprs())
def test_diff_commutes(e):
    assert diff(diff(e, "x1"), "x2") == diff(diff(e, "x2"), "x1")


@settings(max_examples=40, deadline=None)
@given(poly_exprs(), poly_exprs())
def test_diff_is_linear(e, f):
    assert diff(e + f, "x3") == diff(e, "x3") + diff(f, "x3")


class TestEval:
    def test_sum(self):
        assert evaluate(X1 + X2, CHART.env((1.0, 2.0, 0.0))) == 3.0

    def test_exp_zero(self):
        assert evaluate(exp_(ScalarExpr.zero()), {}) == 1.0

    def test_pythagorean(self):
        rng = random.Random(1)
        e = sin_(X1) ** 2 + cos_(X1) ** 2
        for _ in range(10):
            v = evaluate(e, {"x1": rng.uniform(-3, 3)})
            assert abs(v - 1.0) <= 1e-12

    def test_ln_domain_error_carries_subexpr(self):
        t = ScalarExpr.var("t")
        chart = Chart(("t",), positive=frozenset({"t"}))
        e = ln_(t, chart.positive)
        with pytest.raises(DomainError) as ei:
            evaluate(e, {"t": -1.0})
        assert ei.value.subexpr is not None

    def test_reciprocal_near_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(X1 ** -1, {"x1": 0.0, "x2": 0.0, "x3": 0.0})

    def test_unbound_variable(self):
        with pytest.raises(ExprError):
            evaluate(X1, {})

    @pytest.mark.parametrize("make", [sin_, cos_])
    def test_trig_of_non_finite_is_domain_error(self, make):
        e = make(exp_(700 * X1) * exp_(700 * X2))
        with pytest.raises(DomainError):
            evaluate(e, {"x1": 1.0, "x2": 1.0})
        assert math.isfinite(evaluate(e, {"x1": -1.0, "x2": 1.0}))

    def test_eval_matches_across_construction_orders(self):
        rng = random.Random(9)
        for _ in range(20):
            e = rand_scalar(rng, CHART, 3, 4)
            f = rand_scalar(rng, CHART, 3, 4)
            p = tuple(rng.uniform(-1, 1) for _ in range(3))
            lhs = evaluate(e * f + f, CHART.env(p))
            rhs = evaluate(f * (e + 1), CHART.env(p))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def _ln_atom(e):
    # bypasses ln_'s positivity check, so that ln meets non-positive values
    return ScalarExpr({((Atom("ln", arg=e), 1),): 1})


# each one leaves its domain, or overflows, on part of [-1, 1]^3
HAZARDS = (
    exp_(800 * X1),                               # exp overflow
    _ln_atom(X1), _ln_atom(X1 - X2),              # ln of non-positive values
    X1 ** -1, (X1 - X2) ** -2, (X1 + X3) ** -1,   # reciprocals near 0
    exp_(300 * X2) ** 3, exp_(-300 * X2) ** -3,   # overflowing powers
    sin_(exp_(700 * X1) * exp_(700 * X2)),        # sin of an overflowed product
    cos_(exp_(700 * X1) * exp_(700 * X3)),
    exp_(700 * X1) * exp_(700 * X2) - exp_(700 * X1) * exp_(700 * X3),  # inf - inf
)


@st.composite
def block_exprs(draw, depth=2):
    """Expressions over CHART mixing polynomials, transcendentals,
    reciprocals and the hazards above."""
    leaf = st.one_of(st.sampled_from([X1, X2, X3]), st.sampled_from(HAZARDS),
                     st.integers(-3, 3).map(ScalarExpr.const))
    if depth == 0:
        return draw(leaf)
    a, b = draw(block_exprs(depth - 1)), draw(block_exprs(depth - 1))
    op = draw(st.sampled_from(["leaf", "+", "*", "pow", "exp", "sin", "cos", "ln"]))
    if op == "+":
        return a - b if draw(st.booleans()) else a + b
    if op == "*":
        return a * b
    if op == "pow" and not a.is_zero_form:
        return a ** draw(st.sampled_from([2, 3, -1, -2]))
    if op == "exp":
        return exp_(draw(st.sampled_from([1, 3, 300])) * a)
    if op in ("sin", "cos"):
        return (sin_ if op == "sin" else cos_)(a)
    if op == "ln" and not a.is_zero_form:
        return _ln_atom(a)
    return draw(leaf)


coordinates = st.one_of(st.floats(-1.0, 1.0),
                        st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 0.95, 1.0, -1.0]))


def _same_bits(got, want):
    got, want = np.float64(got), np.float64(want)
    if np.isnan(want):
        return bool(np.isnan(got))
    return got.view(np.uint64) == want.view(np.uint64)


class TestEvaluateBlock:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(block_exprs(), min_size=1, max_size=3),
           st.lists(st.tuples(coordinates, coordinates, coordinates),
                    min_size=1, max_size=10))
    def test_matches_evaluate_bit_for_bit(self, exprs, points):
        values, ok = evaluate_block(exprs, _Block(CHART, points))
        assert values.shape == (len(points), len(exprs))
        for row, p in enumerate(points):
            env = CHART.env(p)
            try:
                expected = [evaluate(e, env) for e in exprs]
            except DomainError:
                assert not ok[row], (p, exprs)
                continue
            assert ok[row], (p, exprs)
            for got, want in zip(values[row], expected):
                assert _same_bits(got, want), (p, exprs, got, want)

    def test_each_hazard_is_masked_somewhere(self):
        points = list(itertools.product([-1.0, -0.3, 0.0, 0.95, 1.0], repeat=3))
        for e in HAZARDS[:-1]:  # inf - inf is nan, not a domain error
            _, ok = evaluate_block([e], _Block(CHART, points))
            assert 0 < ok.sum() < len(points), e

    @pytest.mark.parametrize("points", [4, 16, 64])
    def test_valid_points_matches_the_point_by_point_scan(self, points):
        # the scan valid_points replaced: draw, evaluate point by point,
        # drop domain errors, stop at `points` valid rows or 10x drawn
        sampler = Sampler(seed=1, points=points)
        exprs = [X1 ** -1 * exp_(3 * X2), _ln_atom(X1 + X2), sin_(X3)]
        expected = []
        for p in sampler.draw(CHART, 10 * points):
            try:
                vals = [evaluate(e, CHART.env(p)) for e in exprs]
            except DomainError:
                continue
            expected.append((p, vals))
            if len(expected) >= points:
                break
        table = sampler.valid_points(CHART, exprs)
        assert len(table) == len(expected) == points
        assert _rows(table.points) == [p for p, _ in expected]
        assert table.values.tolist() == [v for _, v in expected]

    def test_exp_rounds_as_math_exp_with_or_without_an_overflow(self):
        chart = Chart(("x1",))
        xs = [-800.0, -1.5, 0.0, 1e-300, 2.5, 709.0, 709.78]
        # rows that overflow are masked out: math.exp raises from 709.79 on
        for extra in ([], [710.0], [1e5], [709.79, 1e5, 800.0]):
            block = _Block(chart, [(x,) for x in xs + extra])
            values, ok = evaluate_block([exp_(X1)], block)
            assert ok.tolist() == [True] * len(xs) + [False] * len(extra)
            assert values[ok, 0].tolist() == [math.exp(x) for x in xs]

    def test_exhausted_sampling_raises(self):
        with pytest.raises(InsufficientSamples, match="only 0 of 8 sample points"):
            Sampler(points=8).valid_points(CHART, [exp_(1000 + X1 ** 2)])


# finite only for x1 < -0.9919...; at seed 2 the first of the chart's draws
# in its domain are numbers 8 and 134
THIN = exp_(100000 * X1 + 99900)


class TestSampleFloor:
    def test_floor_is_half_the_requested_points(self):
        assert MIN_VALID_SHARE == Fraction(1, 2)
        assert issubclass(InsufficientSamples, CheckFailure)

    @pytest.mark.parametrize("points", [1, 2])
    def test_one_valid_point_meets_the_floor_of_one(self, points):
        # 10 resp. 20 candidates, one of them in the domain: ceil(points / 2) = 1
        table = Sampler(seed=2, points=points).valid_points(CHART, [THIN])
        assert len(table) == 1

    @pytest.mark.parametrize("points, kept", [(3, 1), (4, 1), (14, 2), (64, 4)])
    def test_fewer_than_half_raise(self, points, kept):
        floor = math.ceil(points / 2)
        with pytest.raises(InsufficientSamples,
                           match=f"only {kept} of {points} sample points are in the "
                                 f"domain, below the floor of {floor}$"):
            Sampler(seed=2, points=points).valid_points(CHART, [THIN])

    def test_verdicts_read_through_the_floor(self):
        sampler = Sampler(seed=2, points=3)
        for check in (is_zero, vanishing_point):
            with pytest.raises(InsufficientSamples):
                check([THIN], CHART, sampler)
        assert vanishing_point([THIN], CHART, Sampler(seed=2, points=2)) is None


# three charts that all carry x1, x2 and x3: another draw seed (variable
# order), more columns, and another sampling band on the same names
PLAN_CHARTS = (CHART, Chart(("x3", "x1", "y", "x2")),
               Chart(("x1", "x2", "x3"), positive=frozenset({"x2"})))


def _sample_fresh(sampler, kind, chart, exprs):
    """What `_sample` reads with no head memoised: each head drawn anew."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr_mod, "_head_block", _head_block.__wrapped__)
        return _sample(sampler, kind, chart, exprs)


def _rows(points):
    """A (rows x n) point array as the list of tuples of floats
    `Sampler.draw` yields."""
    assert isinstance(points, np.ndarray) and points.ndim == 2
    return list(map(tuple, points.tolist()))


def _counting_draws(monkeypatch):
    """The points the sample stream yields from now on, in order: every
    block `expr._draw` draws, row by row."""
    drawn = []
    draw = expr_mod._draw

    def counting_draw(rng, chart, count):
        rows = draw(rng, chart, count)
        drawn.extend(_rows(rows))
        return rows

    monkeypatch.setattr(expr_mod, "_draw", counting_draw)
    return drawn


def _sample(sampler, kind, chart, exprs):
    """What one check reads off the sampler, as comparable plain data."""
    try:
        if kind == "table":
            table = sampler.valid_points(chart, exprs)
            return table.points.tobytes(), table.values.tobytes()
        if kind == "is_zero":
            v = is_zero(exprs, chart, sampler)
            return ((v.tier, v.passed), v.witness,
                    None if v.value is None else np.float64(v.value).tobytes())
        return vanishing_point(exprs, chart, sampler)
    except (ExprError, InsufficientSamples) as e:
        return type(e).__name__, str(e)


class TestSamplePlans:
    @settings(max_examples=60, deadline=None)
    @given(st.permutations(range(3)), st.lists(st.integers(0, 2), max_size=5),
           st.data(), st.sampled_from([4, 16]), st.integers(0, 3))
    def test_reused_sampler_reads_what_a_fresh_one_reads(self, order, more, data,
                                                         points, seed):
        # every chart is visited, so a head is evicted at least once
        shared = Sampler(seed=seed, points=points)
        for i in list(order) + more:
            exprs = data.draw(st.lists(block_exprs(), min_size=1, max_size=3))
            kind = data.draw(st.sampled_from(["table", "is_zero", "vanishing"]))
            assert _sample(shared, kind, PLAN_CHARTS[i], exprs) == \
                _sample_fresh(shared, kind, PLAN_CHARTS[i], exprs)
            assert _head_block.cache_info().currsize <= 2

    def test_least_recently_used_chart_is_evicted(self):
        sampler = Sampler(seed=2, points=8)
        a, b, c = PLAN_CHARTS
        for chart in (a, b, a, c):
            sampler.valid_points(chart, [X1 ** -1])
        for chart in (a, c):  # kept
            sampler.valid_points(chart, [X1])
        info = _head_block.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 3, 2)
        table = sampler.valid_points(b, [_ln_atom(X2)])
        assert _head_block.cache_info().misses == 4  # evicted: drawn again
        want = _sample_fresh(sampler, "table", b, [_ln_atom(X2)])
        assert (table.points.tobytes(), table.values.tobytes()) == want

    def test_exhaustion_raises_from_a_plan(self):
        sampler = Sampler(points=8)
        for _ in range(2):
            with pytest.raises(InsufficientSamples, match="only 0 of 8 sample points"):
                sampler.valid_points(CHART, [exp_(1000 + X1 ** 2)])
        # after two exhausted checks a satisfiable one still reads the head
        assert _rows(sampler.valid_points(CHART, [X1]).points) == list(sampler.draw(CHART))

    @staticmethod
    def _block_sizes(monkeypatch):
        """The sizes of the blocks evaluate_block is given, as it is called."""
        sizes = []
        evaluate = expr_mod.evaluate_block

        def recording(exprs, block):
            sizes.append(block.rows)
            return evaluate(exprs, block)

        monkeypatch.setattr(expr_mod, "evaluate_block", recording)
        return sizes

    def test_exhaustion_evaluates_each_candidate_once(self, monkeypatch):
        sizes = self._block_sizes(monkeypatch)
        with pytest.raises(InsufficientSamples):
            Sampler(points=8).valid_points(CHART, [exp_(1000 + X1 ** 2)])
        assert sizes == [8] * 10  # the head, then 72 refill candidates

    @pytest.mark.parametrize("points, blocks", [(1, [1] * 9), (2, [2] * 5 + [1] * 10)])
    def test_refills_read_as_many_draws_as_are_missing(self, monkeypatch, points, blocks):
        # draw 8 is THIN's first in-domain draw: it fills a quota of 1, and
        # the scan stops at its block; a quota of 2 then reads blocks of the
        # one missing point to the end of the 20 draws
        sizes = self._block_sizes(monkeypatch)
        sampler = Sampler(seed=2, points=points)
        table = sampler.valid_points(CHART, [THIN])
        assert _rows(table.points) == [list(sampler.draw(CHART, 9))[8]]
        assert sizes == blocks

    def test_two_checks_on_a_chart_draw_its_head_once(self, monkeypatch):
        sampler = Sampler(seed=3, points=8)
        head = list(sampler.draw(CHART))
        drawn = _counting_draws(monkeypatch)
        v = is_zero([X1], CHART, sampler)
        assert (v.tier, v.passed) == ("numeric", False)
        assert vanishing_point([X2 ** 2 + 1], CHART, sampler) is None
        assert drawn == head

    def test_equal_samplers_draw_a_head_once_in_total(self, monkeypatch):
        drawn = _counting_draws(monkeypatch)
        for sampler in (Sampler(seed=3, points=8), Sampler(seed=3, points=8)):
            assert _rows(sampler.valid_points(CHART, [X1]).points) == drawn[:8]
        assert len(drawn) == 8
        # another value draws its own head
        assert _rows(Sampler(seed=3, points=9).valid_points(CHART, [X1]).points) == drawn[8:]
        assert len(drawn) == 17

    def test_copies_are_equal_values_that_share_the_head(self, monkeypatch):
        sampler = Sampler(seed=4, points=8, tol=1e-6)
        want = _rows(sampler.valid_points(CHART, [X1 ** -1]).points)
        drawn = _counting_draws(monkeypatch)
        for other in (copy.copy(sampler), copy.deepcopy(sampler),
                      pickle.loads(pickle.dumps(sampler)), dataclasses.replace(sampler)):
            assert other == sampler and hash(other) == hash(sampler)
            assert repr(other) == repr(sampler) == "Sampler(seed=4, points=8, tol=1e-06)"
            assert _rows(other.valid_points(CHART, [X1 ** -1]).points) == want
        assert drawn == []
        assert [f.name for f in dataclasses.fields(Sampler)] == ["seed", "points", "tol"]
        assert dataclasses.replace(sampler, points=9) != sampler

    def test_equal_seeds_of_other_types_draw_the_same_points(self):
        # True == 1 and hashes like it, so the two share a memoised head;
        # a fresh draw must agree with the one they share
        assert Sampler(seed=True, points=4) == Sampler(seed=1, points=4)
        for chart in (CHART, Chart(("x1", "x2"))):
            assert list(Sampler(seed=True, points=4).draw(chart)) == \
                list(Sampler(seed=1, points=4).draw(chart))

    def test_threads_sharing_a_sampler_read_identical_tables(self):
        # ln and reciprocals discard about half the candidates, so checks
        # refill past the heads while other threads read them
        exprs = [_ln_atom(X1) * (X2 - X3) ** -1, _ln_atom(X3 + X2)]
        charts = PLAN_CHARTS[:2]
        want = {c: Sampler(seed=7, points=32).valid_points(c, exprs) for c in charts}
        errors = []

        def check(sampler, start):
            start.wait()
            for k in range(6):
                chart = charts[k % 2]
                try:
                    table = sampler.valid_points(chart, exprs)
                except Exception as e:  # a race shows up as an error, too
                    errors.append(repr(e))
                    continue
                if (table.points.tobytes() != want[chart].points.tobytes()
                        or table.values.tobytes() != want[chart].values.tobytes()):
                    errors.append(f"table differs on {chart.vars}")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                sampler, start = Sampler(seed=7, points=32), threading.Barrier(8)
                threads = [threading.Thread(target=check, args=(sampler, start))
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert errors == []


def _reference_stream(seed, chart, count):
    """The chart's first `count` sample points as `random.Random` gives
    them: the generator keyed by the seed and the chart's variables, and
    random.uniform over [0.5, 2] for a positive variable, [-1, 1] for any
    other, one coordinate after another, row after row."""
    rng = random.Random(f"{int(seed)}|{','.join(chart.vars)}")
    box = [(0.5, 2.0) if v in chart.positive else (-1.0, 1.0) for v in chart.vars]
    return np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(count)])


# 1, 4 and 12 variables, each with positive ones
STREAM_CHARTS = (Chart(("t",), positive=frozenset({"t"})),
                 Chart(("x1", "t", "x2", "s"), positive=frozenset({"t", "s"})),
                 Chart(tuple(f"v{i}" for i in range(12)),
                       positive=frozenset({"v0", "v5", "v11"})))


class TestSampleStream:
    @pytest.mark.parametrize("chart", STREAM_CHARTS, ids=["n1", "n4", "n12"])
    @pytest.mark.parametrize("seed", [0, 1, 5, 20261020, True])
    def test_each_block_is_the_reference_stream_byte_for_byte(self, chart, seed):
        want = _reference_stream(seed, chart, MAX_POINTS)
        sampler = Sampler(seed=seed)
        for count in (1, 2, 3, 7, 64, 255, 256, 257, 1000, MAX_POINTS - 1, MAX_POINTS):
            got = expr_mod._draw(sampler._stream(chart), chart, count)
            assert got.dtype == np.float64 and got.shape == (count, chart.n)
            assert got.tobytes() == want[:count].tobytes(), count
        drawn = list(sampler.draw(chart, 257))
        assert drawn == _rows(want[:257])
        assert all(type(x) is float for p in drawn for x in p)

    @pytest.mark.parametrize("points", [1, 8, 64])
    def test_head_and_refills_read_the_stream_once_in_order(self, monkeypatch, points):
        # every draw is discarded, so the scan reads all 10x `points`
        drawn = _counting_draws(monkeypatch)
        with pytest.raises(InsufficientSamples):
            Sampler(points=points).valid_points(CHART, [exp_(1000 + X1 ** 2)])
        assert len(drawn) == 10 * points
        assert np.array(drawn).tobytes() == _reference_stream(0, CHART, 10 * points).tobytes()

    @pytest.mark.parametrize("seed, points", [(0, 16), (3, 64), (20261020, 256)])
    def test_kept_rows_are_the_reference_rows_in_the_domain(self, monkeypatch, seed, points):
        # ln(x1) discards the draws with x1 <= 0, about half of them, so the
        # head is refilled, and the refills continue where the head ends
        drawn = _counting_draws(monkeypatch)
        table = Sampler(seed=seed, points=points).valid_points(CHART, [_ln_atom(X1)])
        stream = _reference_stream(seed, CHART, 10 * points)
        assert points < len(drawn) <= 10 * points
        assert np.array(drawn).tobytes() == stream[:len(drawn)].tobytes()
        assert table.points.tobytes() == stream[stream[:, 0] > 0][:points].tobytes()
        x1 = table.points[:, 0].tolist()
        assert table.values[:, 0].tolist() == [math.log(x) for x in x1]

    def test_the_head_keeps_its_points_as_one_array_and_the_state_after_them(self):
        sampler = Sampler(seed=5, points=32)
        head = _head_block(sampler, CHART)
        assert isinstance(head.points, np.ndarray) and head.points.shape == (32, 3)
        assert head.points.tobytes() == _reference_stream(5, CHART, 32).tobytes()
        rng = random.Random(f"5|{','.join(CHART.vars)}")
        for _ in range(32 * 3):
            rng.random()
        assert head.state == rng.getstate()

    def test_witnesses_are_tuples_of_python_floats(self):
        sampler = Sampler(seed=1, points=16, tol=1e-3)
        verdict = is_zero([X1 ** -1], CHART, sampler)
        point = vanishing_point([ScalarExpr.const(Fraction(1, 10 ** 6))], CHART, sampler)
        for witness in (verdict.witness, point):
            assert type(witness) is tuple and len(witness) == 3
            assert all(type(x) is float for x in witness)
        assert point == next(sampler.draw(CHART))


T = ScalarExpr.var("t")
# the sample box of Sampler.draw: x1, x2 in [-1, 1] and the positive t in
# [0.5, 2] on the second chart
BOX_CHARTS = (CHART, Chart(("x1", "x2", "t"), positive=frozenset({"t"})))


def _corners(chart):
    return list(itertools.product(*[(0.5, 2.0) if v in chart.positive else (-1.0, 1.0)
                                    for v in chart.vars]))


@st.composite
def box_exprs(draw, chart, tol):
    """Polynomials, reciprocals, wrapped polynomials, exp, sin, cos, ln and
    constants near tol over the chart: some bounded away from 0, some near
    a domain edge, some vanishing in the box."""
    def poly():
        e = ScalarExpr.const(draw(st.integers(-3, 3)))
        for c, names in draw(st.lists(st.tuples(st.integers(-3, 3),
                                                st.lists(st.sampled_from(chart.vars),
                                                         max_size=3)),
                                      min_size=1, max_size=3)):
            t = ScalarExpr.const(c)
            for name in names:
                t = t * ScalarExpr.var(name)
            e = e + t
        return e

    kind = draw(st.sampled_from(["poly", "recip", "wrapped", "exp", "sin", "cos",
                                 "ln", "tol"]))
    if kind == "tol":
        return ScalarExpr.const(Fraction(tol) * (1 + Fraction(draw(st.sampled_from(
            [-1, 1])), 10 ** draw(st.integers(3, 13)))))
    base = poly()
    if kind in ("recip", "wrapped") and not base.is_zero_form:
        inverse = base ** -draw(st.sampled_from([1, 2, 3]))
        return inverse if kind == "recip" else poly() * inverse
    if kind == "exp":
        return draw(st.sampled_from([1, 2, -3])) * exp_(
            draw(st.sampled_from([1, 30, 230, 700])) * base)
    if kind in ("sin", "cos"):
        trig = (sin_ if kind == "sin" else cos_)(draw(st.sampled_from([1, 3, 1000])) * base)
        return trig + draw(st.integers(-2, 2))
    if kind == "ln" and not base.is_zero_form:
        return _ln_atom(base)
    return base


class TestBoundsOverTheSampleBox:
    @staticmethod
    def _count_sampling(monkeypatch):
        calls = []
        valid_points = Sampler.valid_points

        def counting(sampler, chart, exprs):
            calls.append(len(exprs))
            return valid_points(sampler, chart, exprs)

        monkeypatch.setattr(Sampler, "valid_points", counting)
        return calls

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bounds_hold_every_value_sampling_reads(self, data):
        # a bound that places an expression holds its value, domain-error
        # free, at every sample point and every corner of the box
        chart = data.draw(st.sampled_from(BOX_CHARTS))
        e = data.draw(box_exprs(chart, 1e-9))
        try:
            lo, hi = expr_mod._Bounds(chart).expr(e)
        except expr_mod._Undecided:
            return
        points = list(Sampler(seed=data.draw(st.integers(0, 999))).draw(chart)) + _corners(chart)
        values, ok = evaluate_block([e], _Block(chart, points))
        assert ok.all(), e
        assert lo <= values.min() and values.max() <= hi, (e, lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_decided_bound_is_what_sampling_finds(self, data):
        chart = data.draw(st.sampled_from(BOX_CHARTS))
        tol = data.draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
        sampler = Sampler(seed=data.draw(st.integers(0, 999)),
                          points=data.draw(st.sampled_from([8, 64])), tol=tol)
        exprs = data.draw(st.lists(box_exprs(chart, tol), min_size=1, max_size=4))
        if not expr_mod._bounded_away(exprs, chart, tol):
            return
        # the scan vanishing_point makes without the bound: every head point
        # kept, and one value at least tol in every row
        table = sampler.valid_points(chart, exprs)
        assert len(table) == sampler.points
        assert (np.abs(table.values) >= tol).any(axis=1).all(), exprs

    @pytest.mark.parametrize("e, chart", [
        (ScalarExpr.const(3), CHART),
        (exp_(690 * X1 ** 2), CHART),           # below 1e300 everywhere
        (T ** -1, BOX_CHARTS[1]),
        (T ** -7 - 200, BOX_CHARTS[1]),
        (T ** -20, BOX_CHARTS[1]),              # 2^-20 >= tol
        (ln_(1 + T, BOX_CHARTS[1].positive), BOX_CHARTS[1]),
        (_ln_atom(X1 + 3), CHART),              # ln(x1 + 3) >= ln 2
        (3 + sin_(X1) * cos_(X2), CHART),
        (X1 ** 2 + 1 + exp_(X2) * (2 + X1 * X2) ** -1, CHART),
    ], ids=["const", "exp690", "t^-1", "t^-7", "t^-20", "ln(1+t)", "ln(x1+3)", "trig",
            "wrapped"])
    def test_bounded_away_returns_without_sampling(self, monkeypatch, e, chart):
        calls = self._count_sampling(monkeypatch)
        assert vanishing_point([X1 - X1, e], chart, Sampler(points=8)) is None
        assert calls == []

    @pytest.mark.parametrize("e, chart", [
        (exp_(709 * X1 ** 2), CHART),           # finite, but past the exp cap
        (X1 ** -1, CHART),                      # 1/x1 for x1 in [-1, 1]
        (1 - X1 + X1 ** 2, CHART),              # >= 3/4, but its bound holds 0
        (ln_(2 * T, BOX_CHARTS[1].positive), BOX_CHARTS[1]),  # ln(2t) >= 0
        (T ** -1000 + 1, BOX_CHARTS[1]),        # 0.5^-1000 is past 1e300
    ], ids=["exp709", "1/x1", "1-x1+x1^2", "ln(2t)", "t^-1000+1"])
    def test_inconclusive_bounds_sample(self, monkeypatch, e, chart):
        # each is at least tol from 0 wherever it evaluates; sampling says so
        assert not expr_mod._bounded_away([e], chart, 1e-9)
        calls = self._count_sampling(monkeypatch)
        assert vanishing_point([e], chart, Sampler(points=8)) is None
        assert calls == [1]

    def test_ln_of_a_sign_changing_argument_is_undecided(self):
        assert not expr_mod._bounded_away([_ln_atom(X1)], CHART, 1e-9)
        assert not expr_mod._bounded_away([_ln_atom(X1 + 1)], CHART, 1e-9)

    @pytest.mark.parametrize("scale, witness", [(-1, True), (1, False)])
    def test_constant_next_to_tol(self, monkeypatch, scale, witness):
        # just below tol every point vanishes, so sampling gives the first
        # draw; just above, the bound decides with no draw
        sampler = Sampler(seed=3, points=8, tol=1e-6)
        c = ScalarExpr.const(Fraction(1e-6) * (1 + Fraction(scale, 10 ** 6)))
        calls = self._count_sampling(monkeypatch)
        got = vanishing_point([c], CHART, sampler)
        if witness:
            assert got == next(sampler.draw(CHART)) and calls == [1]
        else:
            assert got is None and calls == []

    def test_coefficient_beyond_float_range_is_a_domain_error(self):
        e = ScalarExpr.const(10 ** 400) * X1
        with pytest.raises(DomainError, match="beyond float range"):
            evaluate(e, CHART.env((0.5, 0.5, 0.5)))
        _, ok = evaluate_block([e, X2], _Block(CHART, [(0.5, 0.5, 0.5), (0.1, 0.2, 0.3)]))
        assert not ok.any()
        assert not expr_mod._bounded_away([e + 1], CHART, 1e-9)
        with pytest.raises(InsufficientSamples, match="only 0 of 8"):
            vanishing_point([e], CHART, Sampler(points=8))

    def test_big_numerators_and_denominators_evaluate_exactly(self):
        # both coefficients are in float range, though the shared denominator
        # 10^400 is not: each numerator is divided by it in the integers
        big = 10 ** 400
        e = ScalarExpr.const(Fraction(big + 1, big)) + ScalarExpr.const(Fraction(1, big)) * X2
        assert e._den == big and sorted(c for _, c in e._terms) == [1, big + 1]
        points = [(0.5, 0.25, -0.5), (-1.0, 1.0, 0.0)]
        block, bounds = _Block(CHART, points), expr_mod._Bounds(CHART)
        total = 0.0
        for m, c in e._terms:
            want = float(Fraction(c, e._den)) * (block.columns["x2"] if m else np.ones(2))
            total = total + want
            got, bad = block.term(block.start, c, e._den, m)
            assert bad is None and got.tolist() == want.tolist()
            lo, hi = bounds.term(bounds.start, c, e._den, m)
            assert lo <= want.min() and want.max() <= hi
        assert [evaluate(e, CHART.env(p)) for p in points] == total.tolist()
        values, ok = evaluate_block([e], block)
        assert ok.all() and values[:, 0].tolist() == total.tolist()
        assert expr_mod._bounded_away([e], CHART, 1e-9)

    @pytest.mark.parametrize("e, points, match", [
        (THIN, 64, "only 4 of 64"),
        (exp_(1000 + X1 ** 2), 8, "only 0 of 8"),
    ], ids=["thin", "exp1000"])
    def test_domain_edges_still_raise_insufficient_samples(self, e, points, match):
        assert not expr_mod._bounded_away([e], CHART, 1e-9)
        with pytest.raises(InsufficientSamples, match=match):
            vanishing_point([e], CHART, Sampler(seed=2, points=points))

    def test_a_variable_missing_from_the_chart_still_raises(self):
        with pytest.raises(ExprError, match="'y' not bound"):
            vanishing_point([ScalarExpr.var("y") + 5], CHART, Sampler(points=8))


class TestOneWalkOverTheSampleBox:
    @pytest.mark.parametrize("seed, points", [(0, 8), (5, 64)])
    def test_draws_lie_in_the_box_the_bounds_read(self, seed, points):
        chart = BOX_CHARTS[1]
        box = expr_mod._sample_box(chart)
        assert box == {"x1": (-1.0, 1.0), "x2": (-1.0, 1.0), "t": (0.5, 2.0)}
        drawn = list(Sampler(seed).draw(chart, 10 * points))
        assert len(drawn) == 10 * points
        for point in drawn:
            for v, x in zip(chart.vars, point):
                low, high = box[v]
                assert low <= x <= high, (v, x)
        assert expr_mod._Bounds(chart).box == box

    @pytest.mark.parametrize("e, chart", [
        (3 + sin_(X1) * cos_(X2), CHART),
        (X1 ** 2 + 1 + exp_(X2) * (2 + X1 * X2) ** -1, CHART),
        (T ** -7 - 200, BOX_CHARTS[1]),
        (exp_(690 * X1 ** 2), CHART),
        (ln_(1 + T, BOX_CHARTS[1].positive), BOX_CHARTS[1]),
    ], ids=["trig", "wrapped", "t^-7", "exp690", "ln(1+t)"])
    def test_bounds_and_block_visit_the_same_atoms_and_powers(self, e, chart):
        bounds = expr_mod._Bounds(chart)
        bounds.expr(e)
        block = expr_mod._Block(chart, list(Sampler(seed=1, points=8).draw(chart)))
        with np.errstate(all="ignore"):
            block.expr(e)
        assert set(bounds.memo) == set(block.memo)
        assert len(bounds.memo) > 1


class TestLnPositivity:
    def test_ln_of_variable_rejected_without_declaration(self):
        with pytest.raises(ExprError):
            ln_(X1)

    def test_ln_of_positive_variable_allowed(self):
        chart = Chart(("t",), positive=frozenset({"t"}))
        t = ScalarExpr.var("t")
        assert str(ln_(t, chart.positive)) == "ln(t)"
        assert str(diff(ln_(t, chart.positive), "t")) == "t^-1"

    def test_ln_of_exp_polynomial_allowed(self):
        assert ln_(exp_(X1) + 2) is not None

    def test_ln_of_sign_indefinite_sum_rejected(self):
        with pytest.raises(ExprError):
            ln_(exp_(X1) - 2)


class TestIsZero:
    def test_symbolic_zero(self, sampler):
        for exprs in ([ScalarExpr.zero()], [X1 ** 2 - X1 * X1]):
            v = is_zero(exprs, CHART, sampler)
            assert (v.tier, v.passed) == ("symbolic", True)

    def test_numeric_zero_for_transcendental_identity(self, sampler):
        v = is_zero([sin_(X1) ** 2 + cos_(X1) ** 2 - 1], CHART, sampler)
        assert (v.tier, v.passed) == ("numeric", True)

    def test_nonzero_with_witness(self, sampler):
        v = is_zero([X1], CHART, sampler)
        assert (v.tier, v.passed) == ("numeric", False)
        assert v.witness is not None and len(v.witness) == 3
        assert abs(evaluate(X1, CHART.env(v.witness)) - v.value) < 1e-15

    def test_failing_record_holds_the_residual_at_its_witness(self, sampler):
        # the first expression stays below tol, so the residual is the second's
        exprs = [ScalarExpr.const(Fraction(1, 10 ** 12)), X1 + X2]
        v = is_zero(exprs, CHART, sampler, "sum", "x1 + x2 = 0")
        assert (v.name, v.tier, v.passed, v.detail) == ("sum", "numeric", False, "x1 + x2 = 0")
        vals, ok = evaluate_block(exprs, _Block(CHART, [v.witness]))
        assert ok[0]
        assert abs(v.value) >= sampler.tol and abs(vals[0, 0]) < sampler.tol
        assert v.value == vals[0, 1]

    @pytest.mark.parametrize("exprs", [[], [ScalarExpr.zero(), X1 - X1]],
                             ids=["empty", "zero-forms"])
    def test_normal_form_record_carries_the_callers_name(self, sampler, exprs):
        v = is_zero(exprs, CHART, sampler, "check.name", "the detail")
        assert v == CheckResult("check.name", "symbolic", True, None, "the detail", None)

    def test_polynomial_zero_iff_symbolic(self, sampler):
        # exact arithmetic: a nonzero polynomial never reports symbolic zero
        rng = random.Random(4)
        for _ in range(30):
            e = rand_scalar(rng, CHART, 3, 3)
            v = is_zero([e], CHART, sampler)
            assert (v.tier == "symbolic") == e.is_zero_form

    def test_domain_error_points_resampled(self, sampler):
        # x1^-1 blows up near 0 but valid points remain plentiful
        v = is_zero([X1 ** -1], CHART, sampler)
        assert (v.tier, v.passed) == ("numeric", False)

    def test_positive_vars_sampled_in_band(self):
        chart = Chart(("t",), positive=frozenset({"t"}))
        s = Sampler(seed=5, points=32)
        for p in s.draw(chart):
            assert 0.5 <= p[0] <= 2.0

    def test_same_seed_same_points(self):
        a = list(Sampler(seed=9).draw(CHART))
        b = list(Sampler(seed=9).draw(CHART))
        assert a == b
        c = list(Sampler(seed=10).draw(CHART))
        assert a != c


def _atoms_in(e):
    """Every atom of e, those inside atom arguments included."""
    for m, _ in e._terms:
        for a, _ in m:
            yield a
            if a.arg is not None:
                yield from _atoms_in(a.arg)


# an operand plus a variable of a drawn identifier name, under a function,
# a reciprocal or nothing
_KEYED = st.builds(
    lambda e, name, f: f(e + ScalarExpr.var(name)), _WRAPPED_OPERANDS,
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
    st.sampled_from([lambda e: e, exp_, sin_, cos_,
                     lambda e: e.recip() if e._terms else e]))


class TestInterning:
    def test_equal_atoms_are_one_object(self):
        assert Atom("var", "x") is Atom("var", "x")
        assert Atom("exp", arg=X1 + 1) is Atom("exp", arg=1 + X1)
        assert Atom("var", "x") is not Atom("var", "y")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_KEYED, min_size=2, max_size=4))
    def test_atoms_of_one_key_are_one_atom(self, exprs):
        # variable names are identifiers, and a normal form prints one way,
        # so the key an atom sorts by identifies it
        seen = {}
        for e in exprs:
            for a in _atoms_in(e):
                assert seen.setdefault(a.key, a) is a, f"{a!r} and {seen[a.key]!r}"

    def test_separate_recips_share_the_poly_atom(self):
        def poly_atom(e):
            (mono, _), = e._terms
            (atom, exponent), = mono
            assert atom.kind == "poly" and exponent == -1
            return atom

        a = (X1 ** 2 + 3 * X2).recip()
        b = (3 * X2 + X1 * X1).recip()
        assert poly_atom(a) is poly_atom(b)

    def test_dropped_atoms_leave_the_table(self):
        name = "interning_probe_var"
        e = ScalarExpr.var(name) + 1
        assert ("var", name, None) in expr_mod._ATOMS
        del e
        gc.collect()
        assert ("var", name, None) not in expr_mod._ATOMS

    def test_derivative_memo_dies_with_its_expression(self):
        e = exp_(X1 * X2) + X1 ** 3 * X3
        assert str(diff(e, "x1")) == "x2*exp(x1*x2) + 3*x1^2*x3"
        assert diff(e, "x1") is diff(e, "x1")   # memoised
        ref = weakref.ref(e)
        del e
        gc.collect()
        assert ref() is None

    def test_equal_expressions_share_the_derivative_memo(self):
        a = (X1 + X2).recip() * X3
        b = X3 * (X2 + X1).recip()
        assert a is not b and a == b
        assert diff(a, "x1") is diff(b, "x1")

    def test_copy_and_pickle_reintern(self):
        e = (1 + X1 ** 2).recip() * exp_(X2)
        for other in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert other == e and hash(other) == hash(e)
            assert str(other) == str(e)
            assert [a for m, _ in other._terms for a, _ in m] == \
                [a for m, _ in e._terms for a, _ in m]
        atom = Atom("sin", arg=X1)
        assert copy.copy(atom) is atom
        assert pickle.loads(pickle.dumps(atom)) is atom

    def test_concurrent_construction_yields_one_atom(self):
        args = [ScalarExpr.var(f"stress{i}") + 1 for i in range(200)]
        results = [[] for _ in range(8)]
        start = threading.Barrier(len(results))

        def build(out):
            start.wait()
            out.extend(Atom("exp", arg=a) for a in args)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for column in zip(*results):
            assert len(column) == len(results)
            assert all(a is column[0] for a in column)

    def test_atoms_are_immutable(self):
        with pytest.raises(AttributeError):
            Atom("var", "x").name = "y"
