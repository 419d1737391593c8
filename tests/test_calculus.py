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


class TestLieDerivative:
    def test_flat_direction(self):
        om = form(C3, 1).scale(ScalarExpr.var("x1"))  # x1 dx2
        assert lie_derivative(mv(C3, 0), om) == form(C3, 1)

    def test_euler_field(self):
        x1 = ScalarExpr.var("x1")
        out = lie_derivative(mv(C3, 0).scale(x1), form(C3, 0))
        assert out == form(C3, 0)

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
    products, not a running `+`.  Every input below lands several products
    on one output coefficient."""

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
               "schouten": lambda: schouten(pi5, pi5),
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
            assert max(widest) >= 2, name
