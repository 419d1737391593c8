import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from gvkernel.alg import DiffForm, MultiVector, wedge
from gvkernel.dsl import (MAX_NESTING, DslError, parse_form, parse_multivector, parse_problem,
                          parse_scalar, parse_value)
from gvkernel.expr import MAX_POINTS, Chart, Sampler, ScalarExpr, cos_, exp_, sin_

from conftest import rand_form, rand_mv, rand_scalar

C3 = Chart(("x0", "x1", "x2"))
C4 = Chart(("x0", "x1", "x2", "y"))


class TestScalarSyntax:
    def test_rational_literal(self):
        assert parse_scalar(C3, "3/4") == ScalarExpr.const(Fraction(3, 4))

    def test_precedence(self):
        x0, x1 = ScalarExpr.var("x0"), ScalarExpr.var("x1")
        assert parse_scalar(C3, "x0 + 2*x1^2") == x0 + 2 * x1 ** 2
        assert parse_scalar(C3, "-x0^2") == -(x0 ** 2)
        assert parse_scalar(C3, "(x0 + x1)^2") == (x0 + x1) ** 2

    def test_negative_exponent(self):
        x0 = ScalarExpr.var("x0")
        assert parse_scalar(C3, "x0^-2") == x0 ** -2
        assert parse_scalar(C3, "(1 + x0^2)^-1") == (1 + x0 ** 2).recip()

    def test_functions(self):
        x1 = ScalarExpr.var("x1")
        assert parse_scalar(C3, "exp(x1^2)") == exp_(x1 ** 2)
        assert parse_scalar(C3, "sin(x1)*cos(x1)") == sin_(x1) * cos_(x1)
        assert parse_scalar(C3, "ln(exp(x1))") == x1

    def test_ln_positivity_enforced(self):
        with pytest.raises(DslError):
            parse_scalar(C3, "ln(x1)")

    def test_unknown_identifier_reports_position_and_expectations(self):
        with pytest.raises(DslError) as ei:
            parse_scalar(C3, "x0 + bogus")
        assert ei.value.col == 6
        assert ei.value.expected

    def test_scalar_power_needs_integer_literal(self):
        with pytest.raises(DslError):
            parse_scalar(C3, "x0^x1")
        with pytest.raises(DslError):
            parse_scalar(C3, "2^(1/2)")

    @pytest.mark.parametrize("level", ["(", "sin(", "-", "-(", "exp(-"])
    def test_nesting_bound(self, level):
        # each level of `level` opens one or two of the counted nestings:
        # a parenthesis, a function call, a unary minus
        per = level.count("(") + level.count("-")
        depth = MAX_NESTING // per

        def nest(k):
            return level * k + "x1" + ")" * (k * level.count("("))
        assert parse_scalar(C3, nest(depth)) is not None
        with pytest.raises(DslError, match=f"limit of {MAX_NESTING}") as ei:
            parse_scalar(C3, nest(depth + 1))
        assert ei.value.line == 1 and ei.value.col > 0

    def test_nesting_bound_holds_inside_a_sum(self):
        # the bound counts the depth of the open nestings, not their number
        flat = " + ".join(["(" * 60 + "x1" + ")" * 60] * 10)
        assert parse_scalar(C3, flat) == 10 * ScalarExpr.var("x1")


class TestTensorSyntax:
    def test_vector_basis(self):
        assert parse_multivector(C3, "d/dx1") == MultiVector.basis(C3, [1])

    def test_form_basis(self):
        assert parse_form(C4, "dy") == DiffForm.basis(C4, [3])

    def test_wedge_chain(self):
        assert parse_form(C4, "dx0^dx1^dx2^dy") == DiffForm.basis(C4, range(4))

    def test_contact_model_expression(self):
        got = parse_multivector(C4, "(d/dx1 - x2*d/dx0)^d/dx2")
        want = wedge(MultiVector.basis(C4, [1])
                     - MultiVector.basis(C4, [0]).scale(ScalarExpr.var("x2")),
                     MultiVector.basis(C4, [2]))
        assert got == want

    def test_scalar_times_tensor(self):
        got = parse_multivector(C3, "exp(x1)*d/dx0^d/dx2")
        assert got == MultiVector.basis(C3, [0, 2], exp_(ScalarExpr.var("x1")))

    @pytest.mark.parametrize("text, index, var", [
        ("d/dx1*x2", 1, "x2"),   # tensor * scalar
        ("x1^d/dx2", 2, "x1"),   # scalar ^ tensor acts by multiplication
        ("d/dx1^x2", 1, "x2"),   # tensor ^ scalar likewise
    ])
    def test_scalar_operand_scales_a_basis_element(self, text, index, var):
        got = parse_multivector(C3, text)
        assert got == MultiVector.basis(C3, [index], ScalarExpr.var(var))

    def test_self_wedge_parses_to_zero(self):
        got = parse_multivector(C3, "d/dx1^d/dx1")
        assert got.is_identically_zero

    def test_variance_mixing_rejected(self):
        with pytest.raises(DslError):
            parse_value(C3, "d/dx1^dx2")

    def test_graded_multiplication_rejected(self):
        with pytest.raises(DslError):
            parse_value(C3, "d/dx1*d/dx2")

    def test_unknown_basis(self):
        with pytest.raises(DslError) as ei:
            parse_value(C3, "d/dq")
        assert "d/dq" in str(ei.value)

    def test_roundtrip_canonical_printing(self):
        rng = random.Random(13)
        for _ in range(40):
            grade = rng.randint(0, 3)
            mv = rand_mv(rng, C4, grade, 2)
            assert parse_multivector(C4, str(mv)) == mv
            f = rand_form(rng, C4, grade, 2)
            assert parse_form(C4, str(f)) == f

    def test_roundtrip_scalars(self):
        rng = random.Random(14)
        for _ in range(40):
            e = rand_scalar(rng, C3, 3, 4)
            assert parse_scalar(C3, str(e)) == e
        e = exp_(ScalarExpr.var("x1")).recip() * 3 + ScalarExpr.const(Fraction(1, 2))
        assert parse_scalar(C3, str(e)) == e
        e = (1 + ScalarExpr.var("x1") ** 2).recip()
        assert parse_scalar(C3, str(e)) == e


FIXTURE_TEXT = """\
# the R4 contact fixture
chart x0 x1 x2 y
vol dx0^dx1^dx2^dy
pi = (d/dx1 - x2*d/dx0)^d/dx2
E = d/dx0
run verify pair gv
"""

THETA_TEXT = "chart x0 x1 x2\ntheta = (1 + x1^2)*(dx0 - x2*dx1)\nrun verify poissonize\n"
LCS_TEXT = """\
chart x1 x2 x3 x4
omega = 2*x1*(2 + x1^2)^-1*dx1
Omega = (2 + x1^2)*(dx1^dx2 + dx3^dx4)
run verify rescale(exp(x3)) unimodular(d/dx1^d/dx2)
"""
SETTINGS_TEXT = """\
chart a b c
vol 2*da^db^dc
pi = d/da^d/db
E = d/dc
seed 7
points 32
tol 1e-06
run verify
"""


class TestProblemFiles:
    def test_contact_fixture_roundtrip(self):
        pf = parse_problem(FIXTURE_TEXT)
        assert pf.chart.vars == ("x0", "x1", "x2", "y")
        assert pf.style == "pi"
        assert pf.commands == (("verify", None), ("pair", None), ("gv", None))
        want_pi = parse_multivector(pf.chart, "(d/dx1 - x2*d/dx0)^d/dx2")
        assert pf.pi == want_pi

    def test_canonical_text_is_stable(self):
        for text in (FIXTURE_TEXT, THETA_TEXT, LCS_TEXT, SETTINGS_TEXT):
            pf = parse_problem(text)
            text1 = pf.canonical_text()
            pf2 = parse_problem(text1)
            assert pf2.canonical_text() == text1
            assert pf2 == pf

    def test_empty_run_list_valid(self):
        pf = parse_problem("chart x0 x1\npi = d/dx0^d/dx1\n")
        assert pf.commands == ()

    def test_default_sampler_settings(self):
        pf = parse_problem("chart a b\npi = d/da^d/db\n")
        assert pf.sampler == Sampler(seed=0, points=64, tol=1e-9)

    def test_settings_parsed(self):
        pf = parse_problem(
            "chart a b\npi = d/da^d/db\nseed 7\npoints 32\ntol 1e-6\n")
        assert pf.sampler == Sampler(seed=7, points=32, tol=1e-6)

    @pytest.mark.parametrize("line", ["seed -1", "seed 1.5", "points 0", "points x",
                                      "tol 0", "tol -1e-9", "tol nan", "tol inf"])
    def test_bad_settings_rejected(self, line):
        name = line.split()[0]
        with pytest.raises(DslError, match=f"line 3, col {len(name) + 2}: bad {name}"):
            parse_problem(f"chart a b\npi = d/da^d/db\n{line}\n")

    def test_vol_optional_defaults_flat(self):
        pf = parse_problem("chart a b\npi = d/da^d/db\n")
        assert pf.vol is None

    def test_command_arguments(self):
        pf = parse_problem(
            "chart a b c\npi = d/da^d/db\n"
            "run verify rescale(exp(c)) unimodular(d/da^d/db)\n")
        assert pf.commands[1] == ("rescale", "exp(c)")
        assert pf.commands[2] == ("unimodular", "d/da^d/db")
        # (line, column offset) of each argument text, for its errors
        assert [c.origin for c in pf.commands[1:]] == [(3, 19), (3, 38)]

    def test_a_copied_problem_keeps_its_command_origins(self):
        pf = parse_problem("chart a b c\npi = d/da^d/db\nrun verify rescale(exp(c))\n")
        for copied in (copy.deepcopy(pf), pickle.loads(pickle.dumps(pf))):
            assert copied == pf
            assert [c.origin for c in copied.commands] == [(3, 10), (3, 19)]

    @pytest.mark.parametrize("text, message", [
        ("chart x1 x2 x3\npi = bogus*d/dx1^d/dx2\n",
         "line 2, col 6: unknown identifier 'bogus'"),
        ("chart x1 x2 x3\npi = d/dx1^d/dx2\nE = x1*d/dx3 + nope\n",
         "line 3, col 16: unknown identifier 'nope'"),
        ("chart x1 x2\n  pi  =\t bogus # indented\n",
         "line 2, col 10: unknown identifier 'bogus'"),
        ("chart x1 x2\nvol dx1^\npi = 0\n", "line 2, col 9: unexpected 'end of input'"),
        ("chart x1 x2\ntheta = dx1^dx2\n", "line 2, col 9: theta must be a 1-form"),
        ("chart x1 x2\npi = d/dx1\n", "line 2, col 6: pi must have grade 2, got 1"),
        ("chart x1 x2\npi d/dx1\n", "line 2, col 4: pi needs '= <expression>'"),
        ("chart a b\npi = d/da^d/db\npoints    -4\n", "line 3, col 11: bad points '-4'"),
        ("chart a b\npi = d/da^d/db\nrun verify nope\n",
         "line 3, col 12: unknown command 'nope'"),
        ("chart a b\npi = d/da^d/db\nrun  pair(a) \n", "line 3, col 10: pair takes no argument"),
        ("chart a b\npi = d/da^d/db\nrun verify rescale\n",
         "line 3, col 12: rescale needs a parenthesized argument"),
        ("chart a b\npi = d/da^d/db\nrun rescale(a\n",
         "line 3, col 12: unbalanced parentheses in command argument"),
    ], ids=["pi-value", "E-value", "indented", "vol-value", "theta-grade", "pi-grade",
            "missing-equals", "setting-value", "unknown-command", "argument-not-taken",
            "argument-missing", "unbalanced-argument"])
    def test_errors_name_file_positions(self, text, message):
        with pytest.raises(DslError, match=re.escape(message)):
            parse_problem(text)

    @pytest.mark.parametrize("text, line, col, message", [
        ("chart x1 x2\npi = x1 $ d/dx1^d/dx2\n", 2, 9, "unexpected character '$'"),
        ("chart x1 x2\npi = (x1*d/dx1^d/dx2\n", 2, 21,
         "got 'end of input' (expected ))"),
        ("chart x1 x2\npi = x1*d/dx1^d/dx2)\n", 2, 20,
         "trailing input ')' (expected +, -, *, ^, end of expression)"),
        ("chart x1 x2\npi = 1/x1*d/dx1^d/dx2\n", 2, 8,
         "malformed rational literal (expected integer denominator)"),
        ("chart x1 x2\npi = 1/0*d/dx1^d/dx2\n", 2, 8, "zero denominator"),
        ("chart x1 x2\npi = exp(d/dx1)*d/dx2\n", 2, 6, "exp() takes a scalar argument"),
        ("chart x1 x2\npi = x1^2/3*d/dx1^d/dx2\n", 2, 10, "exponents must be integers"),
        ("chart x1 x2\npi = (x1 - x1)^-1*d/dx1^d/dx2\n", 2, 15,
         "negative power of the zero expression"),
        # a zero that the normal form keeps as four terms over 1 + x1^2 and
        # 1 + x2^2, which no group divides
        ("chart x1 x2\npi = ((1 + x1^2)^-1 - (1 + x2^2)^-1 - (x2^2 - x1^2)*"
         "(1 + x1^2)^-1*(1 + x2^2)^-1)^-1*d/dx1^d/dx2\n", 2, 81,
         "negative power of the zero expression"),
        ("chart x1 x2\npi = d/dx1^-d/dx2\n", 2, 11,
         "'-' after ^ needs an integer exponent"),
        ("chart x1 x2\npi = x1 + d/dx1^d/dx2\n", 2, 9,
         "cannot add a scalar and a graded element"),
        ("chart x1 x2\npi = d/dx1 + d/dx1^d/dx2\n", 2, 12, "grade mismatch: 1 vs 2"),
        ("chart x1 x2\ntheta = d/dx1\n", 2, 9, "expected a differential-form expression"),
        ("chart x1 x2\npi = d/dx1^d/dx2\nrun Verify\n", 3, 5,
         "bad command text 'Verify' (expected verify, pair,"),
        ("chart x1 x2\nchart x1 x2\n", 2, 1, "duplicate chart declaration"),
        ("chart x1 x2\nvol dx1^dx2\nvol dx1^dx2\n", 3, 1, "duplicate vol declaration"),
        ("chart\n", 1, 1, "chart needs variable names"),
        # names the expression syntax could not read back
        ("chart x1 x2 x(3)\npi = d/dx1^d/dx2\nrun verify pair gv\n", 1, 13,
         "chart variable 'x(3)' is not an identifier (expected [A-Za-z_][A-Za-z0-9_]*)"),
        ("chart x dx y\npi = dx*d/dx^d/ddx\nrun verify pair gv\n", 1, 9,
         "chart variable 'dx' clashes with the 1-form of 'x'"),
        ("vol dx1^dx2\nchart x1 x2\n", 1, 1, "chart must be declared before vol"),
        ("# only a comment\n", 0, 0, "missing chart declaration"),
        ("chart x1 x2 x3\ntheta = dx1\nE = d/dx1\n", 0, 0, "E only combines with pi"),
        ("chart x1 x2 x3\npi = d/dx1^d/dx2\nE = d/dx1^d/dx3\n", 3, 5,
         "E must have grade 1, got 2"),
        ("chart x1 x2\nomega = dx1^dx2\nOmega = dx1^dx2\n", 2, 9, "omega must be a 1-form"),
        ("chart x1 x2\nomega = dx1\nOmega = dx1\n", 3, 9, "Omega must be a 2-form"),
    ], ids=["character", "unclosed", "trailing", "rational", "zero-denominator",
            "function-argument", "rational-exponent", "zero-to-negative", "hidden-zero-to-negative",
            "minus-wedge",
            "scalar-plus-graded", "graded-sum", "theta-multivector", "command-text",
            "duplicate-chart", "duplicate-vol", "empty-chart", "chart-name-not-identifier",
            "chart-name-is-a-form", "vol-before-chart",
            "missing-chart", "E-with-theta", "E-grade", "omega-grade", "Omega-grade"])
    def test_error_branches(self, text, line, col, message):
        with pytest.raises(DslError) as ei:
            parse_problem(text)
        assert (ei.value.line, ei.value.col) == (line, col)
        loc = f"line {line}, col {col}: " if line else ""
        assert str(ei.value).startswith(loc + message)

    def test_points_capped(self):
        pf = parse_problem(f"chart a b\npi = d/da^d/db\npoints {MAX_POINTS}\n")
        assert pf.sampler.points == MAX_POINTS
        with pytest.raises(DslError, match=f"line 3, col 8: bad points '{MAX_POINTS + 1}' "
                                           rf"\(expected integer in 1\.\.{MAX_POINTS}\)"):
            parse_problem(f"chart a b\npi = d/da^d/db\npoints {MAX_POINTS + 1}\n")

    def test_mixed_styles_rejected(self):
        with pytest.raises(DslError):
            parse_problem("chart a b\npi = d/da^d/db\ntheta = da\n")

    def test_lcs_requires_both_forms(self):
        with pytest.raises(DslError):
            parse_problem("chart a b\nomega = da\n")

    def test_theta_style(self):
        pf = parse_problem("chart x0 x1 x2\ntheta = dx0 + x1*dx2\nrun verify\n")
        assert pf.style == "theta"
        assert pf.theta.grade == 1

    def test_parse_error_carries_line(self):
        with pytest.raises(DslError) as ei:
            parse_problem("chart a b\npi = d/da^^d/db\n")
        assert ei.value.line == 2

    def test_unknown_directive(self):
        with pytest.raises(DslError) as ei:
            parse_problem("graph a b\n")
        assert "graph" in str(ei.value)

    def test_unknown_command(self):
        with pytest.raises(DslError):
            parse_problem("chart a b\npi = d/da^d/db\nrun frobnicate\n")

    def test_chart_required_before_tensors(self):
        with pytest.raises(DslError):
            parse_problem("pi = d/da^d/db\nchart a b\n")

    def test_duplicate_declarations_rejected(self):
        with pytest.raises(DslError):
            parse_problem("chart a b\npi = d/da^d/db\npi = d/da^d/db\n")

    def test_grade_validation(self):
        with pytest.raises(DslError):
            parse_problem("chart a b c\npi = d/da\n")
        with pytest.raises(DslError):
            parse_problem("chart a b c\ntheta = da^db\n")

    def test_comments_and_blank_lines_ignored(self):
        pf = parse_problem(
            "# header\n\nchart a b  # trailing\n\npi = d/da^d/db # tensor\n")
        assert pf.chart.vars == ("a", "b")
