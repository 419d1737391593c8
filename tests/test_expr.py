import copy
import gc
import math
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvkernel import expr as expr_mod
from gvkernel.expr import (Atom, Chart, DomainError, ExprError, Sampler, ScalarExpr,
                           cos_, diff, eval_at, evaluate, exp_, is_zero, ln_,
                           sin_)

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

    def test_recip_roundtrip_nested(self):
        p = 1 + X1 ** 2
        q = p.recip() + 1          # (1 + (1+x1^2)^-1)
        r = q.recip()
        assert (r * q).is_one

    def test_zero_recip_raises(self):
        with pytest.raises(ZeroDivisionError):
            ScalarExpr.zero().recip()


class TestDiff:
    def test_product_base_case(self):
        assert diff(X1 * X2, "x1") == X2

    def test_constant(self):
        assert diff(ScalarExpr.const(5), "x1").is_zero_form

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
        assert eval_at(X1 + X2, CHART, (1.0, 2.0, 0.0)) == 3.0

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

    def test_eval_matches_across_construction_orders(self):
        rng = random.Random(9)
        for _ in range(20):
            e = rand_scalar(rng, CHART, 3, 4)
            f = rand_scalar(rng, CHART, 3, 4)
            p = tuple(rng.uniform(-1, 1) for _ in range(3))
            lhs = eval_at(e * f + f, CHART, p)
            rhs = eval_at(f * (e + 1), CHART, p)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


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
        assert is_zero([ScalarExpr.zero()], CHART, sampler).kind == "symbolic"
        assert is_zero([X1 ** 2 - X1 * X1], CHART, sampler).kind == "symbolic"

    def test_numeric_zero_for_transcendental_identity(self, sampler):
        v = is_zero([sin_(X1) ** 2 + cos_(X1) ** 2 - 1], CHART, sampler)
        assert v.kind == "numeric" and v.is_zero

    def test_nonzero_with_witness(self, sampler):
        v = is_zero([X1], CHART, sampler)
        assert v.kind == "nonzero"
        assert v.witness is not None and len(v.witness) == 3
        assert abs(eval_at(X1, CHART, v.witness) - v.value) < 1e-15

    def test_polynomial_zero_iff_symbolic(self, sampler):
        # exact arithmetic: a nonzero polynomial never reports symbolic zero
        rng = random.Random(4)
        for _ in range(30):
            e = rand_scalar(rng, CHART, 3, 3)
            v = is_zero([e], CHART, sampler)
            assert (v.kind == "symbolic") == e.is_zero_form

    def test_domain_error_points_resampled(self, sampler):
        # x1^-1 blows up near 0 but valid points remain plentiful
        v = is_zero([X1 ** -1], CHART, sampler)
        assert v.kind == "nonzero"

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


class TestInterning:
    def test_equal_atoms_are_one_object(self):
        assert Atom("var", "x") is Atom("var", "x")
        assert Atom("exp", arg=X1 + 1) is Atom("exp", arg=1 + X1)
        assert Atom("var", "x") is not Atom("var", "y")

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
