import itertools
import math
import random

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvkernel import expr
from gvkernel.alg import (AlgebraError, DiffForm, MultiVector,
                          contract_form_into_mv, contract_mv_into_form,
                          contract_sign, divided_powers, indices_mask,
                          mask_indices, power, sharp, wedge, wedge_sign)
from gvkernel.dsl import parse_multivector
from gvkernel.expr import Chart, ScalarExpr, exp_

from conftest import rand_form, rand_mv

C3 = Chart(("x0", "x1", "x2"))
C4 = Chart(("x0", "x1", "x2", "y"))


def mv_basis(chart, *idx):
    return MultiVector.basis(chart, idx)


def form_basis(chart, *idx):
    return DiffForm.basis(chart, idx)


def contact_pi(chart):
    x2 = ScalarExpr.var("x2")
    return wedge(mv_basis(chart, 1) - mv_basis(chart, 0).scale(x2),
                 mv_basis(chart, 2))


def permutation_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class TestMasks:
    def test_roundtrip(self):
        assert mask_indices(indices_mask([0, 2, 5])) == (0, 2, 5)

    def test_wedge_sign_against_permutation_oracle(self):
        # concatenate index lists; the wedge sign is the sorting permutation's
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(2, 8)
            a = sorted(rng.sample(range(n), rng.randint(0, n)))
            rest = [i for i in range(n) if i not in a]
            b = sorted(rng.sample(rest, rng.randint(0, len(rest))))
            concat = a + b
            expected = permutation_sign(concat) if concat else 1
            assert wedge_sign(indices_mask(a), indices_mask(b)) == expected

    def test_wedge_sign_overlap_is_zero(self):
        assert wedge_sign(0b011, 0b110) == 0

    def test_contract_sign_examples(self):
        assert contract_sign(0b001, 0b011) == (1, 0b010)
        assert contract_sign(0b010, 0b011) == (-1, 0b001)
        assert contract_sign(0b100, 0b011) == (0, 0)

    @staticmethod
    def _mask_pairs():
        """Every pair of masks on 6 bits, then 2,000 random pairs on 12."""
        yield from itertools.product(range(1 << 6), repeat=2)
        rng = random.Random(12)
        for _ in range(2000):
            yield rng.getrandbits(12), rng.getrandbits(12)

    def test_wedge_sign_counts_transpositions(self):
        for a, b in self._mask_pairs():
            want = 0 if a & b else permutation_sign(
                list(mask_indices(a)) + list(mask_indices(b)))
            assert wedge_sign(a, b) == want, (a, b)

    def test_contract_sign_counts_transpositions(self):
        # move each of c's indices, ascending, to the front of what is left
        # of t and drop it: one transposition per index it passes
        for c, t in self._mask_pairs():
            if c & ~t:
                assert contract_sign(c, t) == (0, 0), (c, t)
                continue
            rest, sign = list(mask_indices(t)), 1
            for i in mask_indices(c):
                sign *= (-1) ** rest.index(i)
                rest.remove(i)
            assert contract_sign(c, t) == (sign, indices_mask(rest)), (c, t)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        mv = MultiVector(C3, 1, {0b001: ScalarExpr.zero()})
        assert mv.is_identically_zero

    def test_grade_mask_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            MultiVector(C3, 1, {0b011: ScalarExpr.one()})

    def test_mask_outside_chart_rejected(self):
        with pytest.raises(AlgebraError):
            MultiVector(C3, 1, {0b1000: ScalarExpr.one()})

    def test_printing(self):
        x2 = ScalarExpr.var("x2")
        mv = MultiVector(C3, 2, {0b101: 1 - x2 ** 2})
        assert str(mv) == "(1 - x2^2)*d/dx0^d/dx2"
        f = DiffForm(C3, 2, {0b101: ScalarExpr.var("x1")})
        assert str(f) == "x1*dx0^dx2"
        assert str(MultiVector.zero(C3, 2)) == "0"

    def test_scale_by_one_is_the_element(self):
        mv = MultiVector(C3, 2, {0b101: 1 - ScalarExpr.var("x2") ** 2})
        assert mv.scale(1) is mv
        assert mv.scale(ScalarExpr.one()) is mv

    def test_scale_by_one_makes_no_product(self, monkeypatch):
        # a wrapped-polynomial coefficient would take the full expansion
        calls = []
        raw_mul = expr._raw_mul
        monkeypatch.setattr(expr, "_raw_mul", lambda *a: calls.append(a) or raw_mul(*a))
        wrapped = (1 + ScalarExpr.var("x2") ** 2) ** -1
        f = DiffForm(C3, 1, {0b010: wrapped})
        calls.clear()
        assert f.scale(1) == f
        assert calls == []


class TestWedge:
    def test_antisymmetry_of_basis(self):
        d1, d2 = mv_basis(C3, 1), mv_basis(C3, 2)
        assert wedge(d1, d2) == MultiVector(C3, 2, {0b110: ScalarExpr.one()})
        assert wedge(d2, d1) == wedge(d1, d2).scale(-1)

    def test_self_wedge_vanishes(self):
        d1 = mv_basis(C3, 1)
        assert wedge(d1, d1).is_identically_zero

    def test_contact_model_top(self):
        pi = contact_pi(C3)
        e = mv_basis(C3, 0)
        assert wedge(e, pi) == MultiVector.basis(C3, [0, 1, 2])

    def test_graded_commutativity_randomized(self):
        rng = random.Random(1)
        for _ in range(60):
            k, l = rng.randint(0, 3), rng.randint(0, 3)
            a, b = rand_mv(rng, C4, k), rand_mv(rng, C4, l)
            lhs = wedge(a, b)
            rhs = wedge(b, a).scale((-1) ** (k * l))
            assert (lhs - rhs).is_identically_zero

    def test_associativity_randomized(self):
        rng = random.Random(2)
        for _ in range(40):
            grades = [rng.randint(0, 2) for _ in range(3)]
            a, b, c = (rand_mv(rng, C4, g) for g in grades)
            assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).is_identically_zero

    def test_beyond_top_grade_is_zero_not_error(self):
        a = rand_mv(random.Random(3), C3, 2)
        b = rand_mv(random.Random(4), C3, 2)
        out = wedge(a, b)
        assert out.is_identically_zero and out.grade == 4

    def test_variance_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            wedge(mv_basis(C3, 0), form_basis(C3, 1))

    def test_chart_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            wedge(mv_basis(C3, 0), mv_basis(C4, 0))


class TestContractions:
    def test_form_into_mv_single(self):
        u = wedge(mv_basis(C3, 1), mv_basis(C3, 2))
        assert contract_form_into_mv(form_basis(C3, 1), u) == mv_basis(C3, 2)
        assert contract_form_into_mv(form_basis(C3, 2), u) == mv_basis(C3, 1).scale(-1)

    def test_form_into_mv_full(self):
        u = wedge(mv_basis(C3, 1), mv_basis(C3, 2))
        out = contract_form_into_mv(form_basis(C3, 1, 2), u)
        assert out == MultiVector.scalar(C3, 1)

    def test_mv_into_form_examples(self):
        om = form_basis(C3, 1, 2)
        assert contract_mv_into_form(mv_basis(C3, 1), om) == form_basis(C3, 2)
        both = contract_mv_into_form(wedge(mv_basis(C3, 1), mv_basis(C3, 2)), om)
        assert both == DiffForm.scalar(C3, 1)
        flipped = contract_mv_into_form(wedge(mv_basis(C3, 2), mv_basis(C3, 1)), om)
        assert flipped == DiffForm.scalar(C3, -1)

    def test_composition_convention_both_variances(self):
        # iota_{U^V} = iota_V o iota_U on randomized decomposables
        rng = random.Random(5)
        for _ in range(40):
            k, l = rng.randint(1, 2), rng.randint(1, 2)
            u, v = rand_mv(rng, C4, k, 1), rand_mv(rng, C4, l, 1)
            om = rand_form(rng, C4, rng.randint(k + l, 4))
            uv = wedge(u, v)
            if uv.is_identically_zero:
                continue
            lhs = contract_mv_into_form(uv, om)
            rhs = contract_mv_into_form(v, contract_mv_into_form(u, om))
            assert (lhs - rhs).is_identically_zero
        for _ in range(40):
            k, l = rng.randint(1, 2), rng.randint(1, 2)
            a, b = rand_form(rng, C4, k, 1), rand_form(rng, C4, l, 1)
            u = rand_mv(rng, C4, rng.randint(k + l, 4))
            ab = wedge(a, b)
            if ab.is_identically_zero:
                continue
            lhs = contract_form_into_mv(ab, u)
            rhs = contract_form_into_mv(b, contract_form_into_mv(a, u))
            assert (lhs - rhs).is_identically_zero

    def test_grade_errors(self):
        with pytest.raises(AlgebraError):
            contract_form_into_mv(form_basis(C3, 0, 1), mv_basis(C3, 0))
        with pytest.raises(AlgebraError):
            contract_mv_into_form(MultiVector.basis(C3, [0, 1]), form_basis(C3, 0))

    def test_zero_elements_pass_through(self):
        z = MultiVector.zero(C3, 4)
        assert contract_mv_into_form(z, form_basis(C3, 0)).is_identically_zero


class TestSharp:
    def test_symplectic_pairing(self):
        pi = wedge(mv_basis(C3, 1), mv_basis(C3, 2))
        assert sharp(pi, form_basis(C3, 1)) == mv_basis(C3, 2)
        assert sharp(pi, form_basis(C3, 0)).is_identically_zero

    def test_contact_model_termwise(self):
        # iota_{dx0} ((d1 - x2 d0)^d2) = -x2 d2: only the d0^d2 term responds
        pi = contact_pi(C3)
        out = sharp(pi, form_basis(C3, 0))
        assert out == mv_basis(C3, 2).scale(-ScalarExpr.var("x2"))

    def test_linear_in_form(self):
        rng = random.Random(6)
        pi = rand_mv(rng, C4, 2, 3)
        a, b = rand_form(rng, C4, 1), rand_form(rng, C4, 1)
        assert (sharp(pi, a + b) - sharp(pi, a) - sharp(pi, b)).is_identically_zero


class TestPower:
    def test_cross_terms_double(self):
        c4 = Chart(("a", "b", "c", "d"))
        pi = MultiVector(c4, 2, {0b0011: ScalarExpr.one(), 0b1100: ScalarExpr.one()})
        sq = power(pi, 2)
        assert sq == MultiVector(c4, 4, {0b1111: ScalarExpr.const(2)})

    def test_decomposable_squares_to_zero(self):
        pi = wedge(mv_basis(C3, 1), mv_basis(C3, 2))
        assert power(pi, 2).is_identically_zero

    def test_power_zero_is_scalar_one(self):
        pi = contact_pi(C3)
        assert power(pi, 0) == MultiVector.scalar(C3, 1)

    def test_contact_rank_detection(self):
        pi = contact_pi(C3)
        assert power(pi, 2).is_identically_zero
        assert wedge(pi, mv_basis(C3, 0)) == MultiVector.basis(C3, [0, 1, 2]).scale(-1) \
            or wedge(pi, mv_basis(C3, 0)) == MultiVector.basis(C3, [0, 1, 2])


def reference_power(base, k):
    """The k-fold wedge power as repeated wedges: base^(k-1) ^ base."""
    result = type(base).scalar(base.chart, 1)
    for _ in range(k):
        result = wedge(result, base)
    return result


class TestDividedPowers:
    def test_power_takes_grade_two_only(self):
        rng = random.Random(3)
        for grade in (1, 3):
            for el in (rand_mv(rng, C4, grade, 3), rand_form(rng, C4, grade, 3)):
                for k in (0, 1, 2):
                    with pytest.raises(AlgebraError, match="grade-2"):
                        power(el, k)
                with pytest.raises(AlgebraError, match="grade-2"):
                    list(divided_powers(el))

    def test_zero_yields_nothing(self):
        for cls in (MultiVector, DiffForm):
            assert list(divided_powers(cls.zero(C4, 2))) == []
            assert power(cls.zero(C4, 2), 0) == cls.scalar(C4, 1)
            assert power(cls.zero(C4, 2), 2).is_identically_zero

    def test_walk_stops_at_the_first_zero(self):
        # the LCS model on 2m variables: D_k = sum of the k-subsets of the
        # m planes, with coefficient 1, up to D_m = the top element
        c6 = Chart(tuple(f"x{i}" for i in range(6)))
        pi = sum((mv_basis(c6, 2 * i, 2 * i + 1) for i in range(1, 3)),
                 mv_basis(c6, 0, 1))
        walk = list(divided_powers(pi))
        assert [len(d.terms) for d in walk] == [3, 3, 1]
        assert walk[2] == MultiVector.basis(c6, range(6))
        assert all(c.is_one for d in walk for c in d.terms.values())

    def test_each_output_mask_takes_one_product_per_term_through_its_first_index(
            self, monkeypatch):
        # the full bivector on 8 variables: D_k has C(8, 2k) masks, and each
        # gets 2k - 1 products, against up to k(2k - 1) for the repeated wedge
        c8 = Chart(tuple(f"x{i}" for i in range(8)))
        full = MultiVector(c8, 2, {m: ScalarExpr.const(m)
                                   for m in range(1 << 8) if m.bit_count() == 2})
        calls = []
        mul = ScalarExpr.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(ScalarExpr, "__mul__", counting)
        walk = list(divided_powers(full))
        monkeypatch.undo()
        assert len(walk) == 4
        assert len(calls) == sum(math.comb(8, 2 * k) * (2 * k - 1) for k in (2, 3, 4))
        for k, d in enumerate(walk, 1):
            assert d.scale(math.factorial(k)) == reference_power(full, k)


def _coefficient(names):
    """Polynomial, reciprocal and exp coefficients in the chart variables."""
    var = st.sampled_from(names).map(ScalarExpr.var)
    const = st.integers(-3, 3).filter(bool).map(ScalarExpr.const)
    return st.one_of(
        const,
        st.tuples(const, var, var).map(lambda t: t[0] + t[1] * t[2]),
        st.tuples(st.integers(1, 3), var).map(lambda t: (t[0] + t[1] ** 2) ** -1),
        st.tuples(const, var).map(lambda t: t[0] * exp_(t[1])),
        var.map(lambda v: v ** -1))


@st.composite
def grade_two_elements(draw):
    n = draw(st.integers(2, 8))
    chart = Chart(tuple(f"x{i}" for i in range(n)))
    masks = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(masks), min_size=0, max_size=8, unique=True))
    coeffs = draw(st.lists(_coefficient(chart.vars), min_size=len(chosen),
                           max_size=len(chosen)))
    cls = draw(st.sampled_from([MultiVector, DiffForm]))
    return cls(chart, 2, dict(zip(chosen, coeffs)))


@st.composite
def power_cases(draw):
    b = draw(grade_two_elements())
    return b, draw(st.integers(0, b.chart.n // 2 + 1))


def _sympified(c):
    """A kernel scalar read back through its printed form; exp stays an
    opaque function, so its calls are generators of the rational field."""
    return sp.sympify(str(c).replace("^", "**"), locals={"exp": sp.Function("exp")})


def _holds_wrapped_reciprocal(el):
    return any(expr._reciprocals(m) for c in el.terms.values() for m, _ in c._terms)


def assert_same_element(got, want):
    """got == want as structures, unless a coefficient of either side holds
    a wrapped reciprocal: that normal form depends on how a sum was grouped
    (see `expr`), so each coefficient difference must cancel to 0."""
    if not (_holds_wrapped_reciprocal(got) or _holds_wrapped_reciprocal(want)):
        assert got == want
        return
    assert (type(got), got.chart, got.grade) == (type(want), want.chart, want.grade)
    for mask in set(got.terms) | set(want.terms):
        diff = (_sympified(got.terms.get(mask, 0)) - _sympified(want.terms.get(mask, 0)))
        assert sp.cancel(diff) == 0, (mask, got.terms.get(mask), want.terms.get(mask))


@settings(max_examples=60, deadline=None)
@given(power_cases())
# the walk prints (6*(1 + x0^2)^-1 - 6)*d/dx0^..^d/dx5 and the repeated wedge
# (4*(1 + x0^2)^-1 - 4 - 2*x0^2*(1 + x0^2)^-1)*d/dx0^..^d/dx5: both are
# -6*x0^2/(1 + x0^2)
@example((parse_multivector(
    Chart(tuple(f"x{i}" for i in range(6))),
    "d/dx0^d/dx1 + d/dx0^d/dx2 + (1 + x0^2)^-1*d/dx1^d/dx2 + d/dx0^d/dx3"
    " + d/dx0^d/dx4 + d/dx3^d/dx4 + d/dx0^d/dx5 + (1 + x0^2)*d/dx3^d/dx5"), 3))
def test_power_matches_the_repeated_wedge(case):
    b, k = case
    assert_same_element(power(b, k), reference_power(b, k))


@st.composite
def disjoint_masks(draw):
    n = draw(st.integers(2, 10))
    bits = draw(st.lists(st.sampled_from(["a", "b", "none"]),
                         min_size=n, max_size=n))
    a = sum(1 << i for i, w in enumerate(bits) if w == "a")
    b = sum(1 << i for i, w in enumerate(bits) if w == "b")
    return a, b


@settings(max_examples=80, deadline=None)
@given(disjoint_masks())
def test_wedge_sign_graded_commutativity(masks):
    a, b = masks
    k, l = a.bit_count(), b.bit_count()
    assert wedge_sign(a, b) == (-1) ** (k * l) * wedge_sign(b, a)


@settings(max_examples=80, deadline=None)
@given(disjoint_masks())
def test_contract_sign_composes_bit_by_bit(masks):
    c, extra = masks
    t = c | extra
    sign, rest = contract_sign(c, t)
    step_sign, cur = 1, t
    for i in mask_indices(c):
        s, cur = contract_sign(1 << i, cur)
        step_sign *= s
    assert (sign, rest) == (step_sign, cur) == (step_sign, extra)


def test_dimension_cap_storage_smoke():
    # n = 12 is the documented bound; top-grade products still work there
    chart = Chart(tuple(f"v{i}" for i in range(12)))
    a = MultiVector.basis(chart, range(6))
    b = MultiVector.basis(chart, range(6, 12))
    top = wedge(a, b)
    assert top.grade == 12 and len(top.terms) == 1
    assert wedge(top, MultiVector.basis(chart, [0])).is_identically_zero
