import random

import pytest

from gvkernel.alg import (DiffForm, MultiVector, contract_form_into_mv,
                          divided_powers, wedge)
from gvkernel.calculus import (exterior_derivative, lie_derivative, schouten,
                               schouten_bruteforce)
from gvkernel.expr import Chart, ScalarExpr, diff, exp_
from gvkernel.fixtures import get_fixture

from conftest import rand_form, rand_mv, rand_scalar

C3 = Chart(("x1", "x2", "x3"))
C4 = Chart(("x0", "x1", "x2", "x3"))
d = exterior_derivative


def mv(chart, *idx):
    return MultiVector.basis(chart, idx)


def form(chart, *idx):
    return DiffForm.basis(chart, idx)


class TestExteriorDerivative:
    def test_one_form(self):
        om = form(C3, 1).scale(ScalarExpr.var("x1"))  # x1 dx2
        assert d(om) == DiffForm(C3, 2, {0b011: ScalarExpr.one()})

    def test_function(self):
        f = DiffForm.scalar(C3, ScalarExpr.var("x1") * ScalarExpr.var("x2"))
        out = d(f)
        assert out == DiffForm(C3, 1, {0b001: ScalarExpr.var("x2"),
                                       0b010: ScalarExpr.var("x1")})

    def test_contact_form(self):
        chart = Chart(("x0", "x1", "x2"))
        theta = form(chart, 0) + form(chart, 2).scale(ScalarExpr.var("x1"))
        assert d(theta) == DiffForm(chart, 2, {0b110: ScalarExpr.one()})

    def test_top_form_maps_to_flagged_zero(self):
        top = form(C3, 0, 1, 2).scale(rand_scalar(random.Random(0), C3))
        out = d(top)
        assert out.is_identically_zero and out.grade == C3.n

    def test_dd_zero_randomized(self):
        rng = random.Random(1)
        for _ in range(60):
            om = rand_form(rng, C4, rng.randint(0, 2), 2, 3)
            assert d(d(om)).is_identically_zero


class TestSchoutenBaseCases:
    def test_vector_on_function(self):
        out = schouten(mv(C3, 0), MultiVector.scalar(C3, ScalarExpr.var("x1")))
        assert out == MultiVector.scalar(C3, 1)

    def test_constant_bivectors_commute(self):
        b = wedge(mv(C3, 0), mv(C3, 1))
        assert schouten(b, b).is_identically_zero

    def test_function_function(self):
        f = MultiVector.scalar(C3, ScalarExpr.var("x1"))
        g = MultiVector.scalar(C3, ScalarExpr.var("x2"))
        assert schouten(f, g).is_identically_zero

    def test_grade1_matches_componentwise_commutator(self):
        rng = random.Random(2)
        for _ in range(30):
            x = rand_mv(rng, C4, 1, 2)
            y = rand_mv(rng, C4, 1, 2)
            lhs = schouten(x, y)
            comm = {}
            for a in range(C4.n):
                acc = ScalarExpr.zero()
                for bmask, xb in x.terms.items():
                    b = bmask.bit_length() - 1
                    ya = y.coefficient(1 << a)
                    from gvkernel.expr import diff
                    acc = acc + xb * diff(ya, C4.vars[b])
                for bmask, yb in y.terms.items():
                    b = bmask.bit_length() - 1
                    xa = x.coefficient(1 << a)
                    from gvkernel.expr import diff
                    acc = acc - yb * diff(xa, C4.vars[b])
                if not acc.is_zero_form:
                    comm[1 << a] = acc
            assert lhs == MultiVector(C4, 1, comm)


class TestSchoutenContactModel:
    def test_model_axioms(self):
        chart = Chart(("x0", "x1", "x2"))
        x2 = ScalarExpr.var("x2")
        pi = wedge(mv(chart, 1) - mv(chart, 0).scale(x2), mv(chart, 2))
        e = mv(chart, 0)
        assert schouten(pi, pi) == wedge(e, pi).scale(2)
        assert schouten(pi, e).is_identically_zero
        assert schouten_bruteforce(pi, pi) == wedge(e, pi).scale(2)


class TestSchoutenProperties:
    def test_graded_antisymmetry(self):
        rng = random.Random(3)
        for _ in range(40):
            k, l = rng.randint(0, 3), rng.randint(0, 3)
            u, v = rand_mv(rng, C4, k), rand_mv(rng, C4, l)
            resid = schouten(u, v) + schouten(v, u).scale((-1) ** ((k - 1) * (l - 1)))
            assert resid.is_identically_zero

    def test_leibniz(self):
        rng = random.Random(4)
        for _ in range(30):
            k, l = rng.randint(1, 2), rng.randint(1, 2)
            u, v = rand_mv(rng, C4, k), rand_mv(rng, C4, l)
            w = rand_mv(rng, C4, 1)
            lhs = schouten(u, wedge(v, w))
            rhs = wedge(schouten(u, v), w) + \
                wedge(v, schouten(u, w)).scale((-1) ** ((k - 1) * l))
            assert (lhs - rhs).is_identically_zero

    def test_graded_jacobi_identity(self):
        rng = random.Random(5)
        for _ in range(25):
            k, l, m = (rng.randint(1, 2) for _ in range(3))
            u, v, w = rand_mv(rng, C4, k), rand_mv(rng, C4, l), rand_mv(rng, C4, m)
            t1 = schouten(u, schouten(v, w)).scale((-1) ** ((k - 1) * (m - 1)))
            t2 = schouten(v, schouten(w, u)).scale((-1) ** ((l - 1) * (k - 1)))
            t3 = schouten(w, schouten(u, v)).scale((-1) ** ((m - 1) * (l - 1)))
            assert (t1 + t2 + t3).is_identically_zero

    def test_oracle_agreement_spot(self):
        rng = random.Random(6)
        for _ in range(50):
            k, l = rng.randint(0, 3), rng.randint(0, 3)
            u, v = rand_mv(rng, C4, k, 2), rand_mv(rng, C4, l, 2)
            assert schouten(u, v) == schouten_bruteforce(u, v)


def _self_bracket_operands(grade, count=12):
    """Seeded elements of C4 with at least three terms (a grade-0 element
    has one, a polynomial of several), every other coefficient times
    exp(x2)/(1 + x1^2)."""
    rng = random.Random(40 + grade)
    x1, x2 = ScalarExpr.var("x1"), ScalarExpr.var("x2")
    f = exp_(x2) * (1 + x1 ** 2).recip()
    out = []
    while len(out) < count:
        u = rand_mv(rng, C4, grade, nterms=5)
        if grade and len(u.terms) < 3:
            continue
        out.append(MultiVector(C4, grade, {m: c * f if i % 2 == 0 else c
                                           for i, (m, c) in enumerate(u.terms.items())}))
    return out


class TestSelfBracket:
    """`schouten(u, u)` brackets each unordered pair of terms once, or
    returns zero at odd grade; the oracle and the general route, on an equal
    but distinct operand, must give the same element."""

    @pytest.mark.parametrize("grade", [0, 1, 2, 3])
    def test_matches_oracle_and_general_route(self, grade):
        for u in _self_bracket_operands(grade):
            twin = MultiVector(u.chart, u.grade, dict(u.terms))
            assert twin is not u and twin == u
            got = schouten(u, u)
            assert got == schouten_bruteforce(u, u)
            assert got == schouten(u, twin)

    @pytest.mark.parametrize("grade", [1, 3])
    def test_odd_grade_is_zero(self, grade):
        for u in _self_bracket_operands(grade):
            got = schouten(u, u)
            assert got.is_identically_zero
            assert got.grade == 2 * grade - 1

    def test_even_grade_is_not_always_zero(self):
        # the pairs off the diagonal are weighted, not dropped: an
        # even-grade self-bracket need not vanish
        assert any(not schouten(u, u).is_identically_zero
                   for u in _self_bracket_operands(2))

    @pytest.mark.parametrize("grade", [0, 2, 4])
    def test_single_term_self_bracket_is_zero(self, grade):
        # the diagonal [t_I, t_I] that schouten(u, u) skips; on 8 variables
        # the grade 2k - 1 of the bracket fits the chart
        chart = Chart(tuple(f"x{i}" for i in range(8)))
        rng = random.Random(60 + grade)
        checked = 0
        while checked < 6:
            idx = sorted(rng.sample(range(8), grade))
            near = [ScalarExpr.var(chart.vars[i]) for i in idx or [0]]
            coeff = rand_scalar(rng, chart) * (2 + sum(v ** 2 for v in near)).recip()
            if coeff.is_zero_form:
                continue
            t = MultiVector(chart, grade, {sum(1 << i for i in idx): coeff})
            assert schouten_bruteforce(t, t).is_identically_zero
            assert schouten(t, t).is_identically_zero
            checked += 1


class TestLieDerivative:
    def test_flat_direction(self):
        om = form(C3, 1).scale(ScalarExpr.var("x1"))  # x1 dx2
        assert lie_derivative(mv(C3, 0), om) == form(C3, 1)

    def test_euler_field(self):
        x1 = ScalarExpr.var("x1")
        out = lie_derivative(mv(C3, 0).scale(x1), form(C3, 0))
        assert out == form(C3, 0)

    def test_zero_field_gives_the_zero_form_of_omega_grade(self):
        x1, x3 = ScalarExpr.var("x1"), ScalarExpr.var("x3")
        om = form(C3, 0, 1).scale(x3) + form(C3, 1, 2).scale(x1 * x3)
        out = lie_derivative(MultiVector.zero(C3, 1), om)
        # iota_0 d omega + d iota_0 omega, both terms zero
        assert out.is_identically_zero and out.grade == 2

    def test_top_grade_form_keeps_only_d_iota(self):
        # X = x1 d/dx1 + x2 d/dx2 on x3 dx1^dx2^dx3: d omega = 0, and
        # iota_X omega = x1*x3 dx2^dx3 - x2*x3 dx1^dx3, whose d is 2*x3 vol
        x1, x2, x3 = (ScalarExpr.var(v) for v in C3.vars)
        x = mv(C3, 0).scale(x1) + mv(C3, 1).scale(x2)
        om = form(C3, 0, 1, 2).scale(x3)
        iota_om = form(C3, 1, 2).scale(x1 * x3) - form(C3, 0, 2).scale(x2 * x3)
        out = lie_derivative(x, om)
        assert out == d(iota_om) == form(C3, 0, 1, 2).scale(2 * x3)
        assert out.grade == 3

    def test_commutes_with_d(self):
        rng = random.Random(7)
        for _ in range(30):
            x = rand_mv(rng, C4, 1, 2)
            om = rand_form(rng, C4, rng.randint(0, 2), 2)
            lhs = lie_derivative(x, d(om))
            rhs = d(lie_derivative(x, om))
            assert (lhs - rhs).is_identically_zero

    def test_leibniz_against_bracket_on_volume(self):
        # L_V iota_U vol = iota_{[V,U]} vol + iota_U L_V vol
        rng = random.Random(8)
        vol = form(C4, 0, 1, 2, 3).scale(2 + rand_scalar(rng, C4, 1, 1) ** 2)
        for _ in range(25):
            v = rand_mv(rng, C4, 1, 2)
            u = rand_mv(rng, C4, rng.randint(1, 3), 2)
            from gvkernel.alg import contract_mv_into_form as iota
            lhs = lie_derivative(v, iota(u, vol))
            rhs = iota(schouten(v, u), vol) + iota(u, lie_derivative(v, vol))
            assert (lhs - rhs).is_identically_zero


class TestOneSummationPath:
    """Each coefficient an operation sums is one `ScalarExpr.sum` of its
    products, not a running `+`.  Every input below but the self-bracket
    lands several products on one output coefficient; the self-bracket
    takes each unordered pair of terms once, and on `pi5` that leaves one
    product per coefficient."""

    def test_no_running_sums(self, monkeypatch):
        x0, x1, x2 = (ScalarExpr.var(f"x{i}") for i in range(3))
        f = exp_(x2) * (1 + x1 ** 2).recip()
        pi4 = MultiVector(C4, 2, {(1 << i) | (1 << j): f * (i + j)
                                  for i in range(4) for j in range(i + 1, 4)})
        pi5 = get_fixture("contact-model-r5").pi
        alpha = (form(pi5.chart, 0) + form(pi5.chart, 1)).scale(f)
        omega = form(C4, 0).scale(x1 * exp_(x0)) + form(C4, 1).scale(x0 * f)
        e = x1 ** 2 * exp_(x1) + x1 * (1 + x1 ** 2).recip() + x1 * x2
        ops = {"wedge": lambda: wedge(pi4, pi4),
               "divided_powers": lambda: list(divided_powers(pi4)),
               "contract": lambda: contract_form_into_mv(alpha, pi5),
               "d": lambda: d(omega),
               "schouten": lambda: schouten(pi5, pi5.scale(f)),
               "self-bracket": lambda: schouten(pi5, pi5),
               "diff": lambda: diff(e, "x1")}
        adds, widest = [], []
        add, total = ScalarExpr.__add__, ScalarExpr.sum

        def counted_add(a, b):
            adds.append(1)
            return add(a, b)

        def counted_sum(exprs):
            exprs = list(exprs)
            widest.append(len(exprs))
            return total(exprs)

        monkeypatch.setattr(ScalarExpr, "__add__", counted_add)
        monkeypatch.setattr(ScalarExpr, "sum", staticmethod(counted_sum))
        for name, op in ops.items():
            adds.clear()
            widest.clear()
            op()
            assert not adds, name
            assert name == "self-bracket" or max(widest) >= 2, name
