"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Three commonly printed sign/order variants are implemented
faithfully and marked strict-xfail because they cannot hold together with
the axiom orientation the rest of the suite pins down (see the README's
sign-convention notes): the Poisson-lift power identity with the d/dt
factor on the left of E, the bare pullback equality without its gauge
term, and the minus sign on d log v in the gauge transformation.  Each has
a green test of the corrected form right next to it.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from gvkernel.alg import (DiffForm, MultiVector, contract_form_into_mv, power,
                          wedge)
from gvkernel.calculus import (exterior_derivative, schouten,
                               schouten_bruteforce)
from gvkernel.cli import emit, execute, fixture_problem
from gvkernel.dsl import parse_problem
from gvkernel.duality import phi, phi_inv, psi, volume_context
from gvkernel.expr import Chart, Sampler, ScalarExpr, exp_, ln_
from gvkernel.fixtures import get_fixture
from gvkernel.jacobi import (ParityObstruction, check_poissonization_bridge,
                             defining_pair, element_zero, gv_codim1, lift_to,
                             poissonize, verify_jacobi)

from conftest import rand_form, rand_mv, rand_scalar

S = Sampler(seed=0, points=64, tol=1e-9)
d = exterior_derivative

MODEL_FIXTURES = ("contact-model-r3", "contact-model-r5",
                  "lcs-model-r2", "lcs-model-r4")
PAIR_FIXTURES = MODEL_FIXTURES + ("poisson-r3", "contact-r3-ext",
                                  "rescaled-poisson-r3")
CONTACT_FIXTURES = ("contact-r3-ext", "contact-model-r3", "contact-model-r5")
LCS_FIXTURES = ("poisson-r3", "rescaled-poisson-r3", "lcs-model-r2",
                "lcs-model-r4")
ALL_FIXTURES = PAIR_FIXTURES + ("contact-r3",)


def report(num, ok, text):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def setup(name):
    f = get_fixture(name)
    ctx = volume_context(f.chart, f.vol, S)
    return f, ctx


def test_criterion_1_axiom_suite_symbolic_under_5s():
    t0 = time.monotonic()
    for name in MODEL_FIXTURES:
        f, ctx = setup(name)
        j = verify_jacobi(ctx, f.pi, f.E, S)
        ax = [c for c in j.checks if c.name.startswith("jacobi.axiom")]
        assert len(ax) == 2
        assert all(c.passed and c.tier == "symbolic" for c in ax), name
    elapsed = time.monotonic() - t0
    report(1, elapsed < 5.0,
           f"contact/lcs model fixtures verify at the symbolic tier "
           f"({elapsed:.2f}s < 5s)")


def test_criterion_2_lemma_42_200_pairs_under_30s():
    t0 = time.monotonic()
    rng = random.Random(1002)
    count = 0
    for nvars in (3, 4):
        chart = Chart(tuple(f"x{i}" for i in range(1, nvars + 1)))
        ctx = volume_context(chart, DiffForm.basis(chart, range(nvars)), S)
        for _ in range(100):
            k = rng.randint(0, nvars - 1)
            l = rng.randint(0, nvars - k)
            u = rand_mv(rng, chart, k, 2, 2)
            v = rand_mv(rng, chart, l, 2, 2)
            sgn = (-1) ** l
            lhs = psi(ctx, wedge(u, v))
            rhs = schouten(u, v).scale(sgn) + \
                wedge(psi(ctx, u), v).scale(sgn) + wedge(u, psi(ctx, v))
            assert (lhs - rhs).is_identically_zero, (nvars, k, l)
            count += 1
    elapsed = time.monotonic() - t0
    report(2, count == 200 and elapsed < 30.0,
           f"Lemma 4.2 on {count} randomized pairs, symbolic tier "
           f"({elapsed:.2f}s < 30s)")


def test_criterion_3_corollary_43_on_fixtures():
    for name in MODEL_FIXTURES:
        f, ctx = setup(name)
        for k in range(1, f.m + 2):
            pik = power(f.pi, k)
            lhs1 = psi(ctx, pik)
            rhs1 = wedge(psi(ctx, f.pi), power(f.pi, k - 1)).scale(k) + \
                wedge(f.E, power(f.pi, k - 1)).scale(k * (k - 1))
            assert (lhs1 - rhs1).is_identically_zero, (name, k, "identity 1")
            lhs2 = psi(ctx, wedge(pik, f.E))
            rhs2 = wedge(wedge(psi(ctx, f.pi), power(f.pi, k - 1)).scale(-k),
                         f.E) + pik.scale(psi(ctx, f.E).coefficient(0))
            assert (lhs2 - rhs2).is_identically_zero, (name, k, "identity 2")
    report(3, True, "Corollary 4.3 identities hold symbolically, "
                    "1 <= k <= m+1, on all four model fixtures")


def test_criterion_4_defining_pairs_on_fixtures():
    tiers = {}
    for name in PAIR_FIXTURES:
        f, ctx = setup(name)
        j = verify_jacobi(ctx, f.pi, f.E, S)
        dp = defining_pair(j, ctx, S)
        assert all(c.passed for c in dp.checks), name
        tiers[name] = {c.name: c.tier for c in dp.checks}
        has_exp = name.startswith("rescaled")
        for c in dp.checks:
            if not has_exp:
                assert c.tier == "symbolic", (name, c.name)
            else:
                assert c.tier in ("symbolic", "numeric")
    report(4, True, "d alpha = beta^alpha, d(gv) = 0, and the contraction "
                    f"rewrite hold on {len(PAIR_FIXTURES)} fixtures")


def test_criterion_5_schouten_oracle_500_inputs():
    rng = random.Random(1005)
    chart = Chart(("x1", "x2", "x3", "x4"))
    for i in range(500):
        k = rng.randint(0, 3)
        l = rng.randint(0, 3)
        u = rand_mv(rng, chart, k, 2, 2)
        v = rand_mv(rng, chart, l, 2, 2)
        assert schouten(u, v) == schouten_bruteforce(u, v), (i, k, l)
    report(5, True, "derivation-based bracket equals the decomposable-"
                    "expansion oracle on 500 randomized inputs (exact)")


def test_criterion_6_duality_suite_200_per_dimension():
    rng = random.Random(1006)
    for n in (2, 3, 4, 5):
        chart = Chart(tuple(f"x{i}" for i in range(1, n + 1)))
        ctx = volume_context(chart, DiffForm.basis(chart, range(n)), S)
        for _ in range(200):
            k = rng.randint(0, n)
            u = rand_mv(rng, chart, k, 2, 2)
            om = rand_form(rng, chart, k, 2, 2)
            assert (phi_inv(ctx, phi(ctx, u)) - u).is_identically_zero
            assert (phi(ctx, phi_inv(ctx, om)) - om).is_identically_zero
            # Eq (3)
            rhs = contract_form_into_mv(om, ctx.top_inverse).scale(
                (-1) ** (k * (n + 1)))
            assert (phi_inv(ctx, om) - rhs).is_identically_zero
            # Eq (4): grades constrained so the contractions are defined
            l = rng.randint(n - k, n) if k else n
            v = rand_mv(rng, chart, l, 2, 2)
            lhs = phi_inv(ctx, wedge(phi(ctx, u), phi(ctx, v)))
            r1 = contract_form_into_mv(phi(ctx, u), v).scale(
                (-1) ** ((n + k) * (l + 1)))
            r2 = contract_form_into_mv(phi(ctx, v), u).scale(
                (-1) ** ((n + 1) * (n + l)))
            assert (lhs - r1).is_identically_zero
            assert (lhs - r2).is_identically_zero
    report(6, True, "phi/phi^-1 inverses, Eq (3), Eq (4) hold symbolically "
                    "on 200 randomized inputs per n in {2,3,4,5}")


def test_criterion_7_poissonization_core():
    for name in ALL_FIXTURES:
        f, ctx = setup(name)
        j = verify_jacobi(ctx, f.pi, f.E, S)
        pz = poissonize(j, S)
        assert pz.poisson_check.passed and pz.poisson_check.tier == "symbolic", name
        # corrected Lemma 5.1 power identity and the top-power vanishing
        ext = pz.chart
        t_inv = ScalarExpr.var(pz.t_name) ** -1
        lam_m1 = power(pz.lam, j.m + 1)
        corrected = wedge(wedge(power(lift_to(ext, j.pi), j.m),
                                lift_to(ext, j.E)),
                          MultiVector.basis(ext, [ext.n - 1])).scale(
            ScalarExpr.const(j.m + 1) * t_inv ** j.m)
        assert (lam_m1 - corrected).is_identically_zero, name
        assert power(pz.lam, j.m + 2).is_identically_zero, name
    for name in CONTACT_FIXTURES:
        f, ctx = setup(name)
        j = verify_jacobi(ctx, f.pi, f.E, S)
        br = check_poissonization_bridge(j, ctx, defining_pair(j, ctx, S),
                                         poissonize(j, S), S)
        assert all(c.passed for c in br.checks), name
    for name in LCS_FIXTURES:
        f, ctx = setup(name)
        j = verify_jacobi(ctx, f.pi, f.E, S)
        with pytest.raises(ParityObstruction):
            check_poissonization_bridge(j, ctx, defining_pair(j, ctx, S),
                                        poissonize(j, S), S)
    report(7, True, "[Lambda,Lambda] = 0 symbolically on all fixtures; "
                    "Lambda^(m+1) = (m+1) t^-m pi^m^E^dt and Lambda^(m+2) = 0; "
                    "bridge (gauge-corrected Prop 5.3) passes on contact "
                    "fixtures and rejects LCS at the precondition")


@pytest.mark.xfail(strict=True,
                   reason="with the bracket conventions pinned by criterion 1 "
                          "([pi,pi] = 2E^pi on the model structures), the "
                          "Poisson lift must carry E ^ d/dt; the printed "
                          "d/dt ^ E order flips Lambda^(m+1)'s sign whenever "
                          "E != 0")
def test_criterion_7_power_identity_literal_operand_order():
    failures = []
    for name in CONTACT_FIXTURES:
        f, ctx = setup(name)
        j = verify_jacobi(ctx, f.pi, f.E, S)
        pz = poissonize(j, S)
        ext = pz.chart
        t_inv = ScalarExpr.var(pz.t_name) ** -1
        lam_m1 = power(pz.lam, j.m + 1)
        literal = wedge(wedge(power(lift_to(ext, j.pi), j.m),
                              MultiVector.basis(ext, [ext.n - 1])),
                        lift_to(ext, j.E)).scale(
            ScalarExpr.const(j.m + 1) * t_inv ** j.m)
        if not (lam_m1 - literal).is_identically_zero:
            failures.append(name)
    print(f"[criterion  7] FAIL (literal d/dt^E operand order) on: "
          f"{', '.join(failures)} -- expected, see README sign notes")
    assert not failures


@pytest.mark.xfail(strict=True,
                   reason="B - pr*((-1)^q beta) = -d log t^m is a nonzero "
                          "defining-pair gauge term for m >= 1; the bare "
                          "pullback equality only holds at m = 0")
def test_criterion_7_bridge_literal_equality():
    failures = []
    for name in CONTACT_FIXTURES:
        f, ctx = setup(name)
        j = verify_jacobi(ctx, f.pi, f.E, S)
        dp = defining_pair(j, ctx, S)
        pz = poissonize(j, S)
        br = check_poissonization_bridge(j, ctx, dp, pz, S)
        ext = pz.chart
        # beta in the theorem's printed orientation is -beta as implemented
        paper_beta = lift_to(ext, dp.beta).scale(-1)
        sign = 1 if j.q % 2 == 0 else -1
        resid = br.B - paper_beta.scale(sign)
        if not element_zero(resid, S).passed:
            failures.append(name)
    print(f"[criterion  7] FAIL (bare pullback equality) on: "
          f"{', '.join(failures)} -- expected, see README sign notes")
    assert not failures


def test_criterion_8_vanishing_criteria():
    f, ctx = setup("poisson-r3")
    assert psi(ctx, f.pi).is_identically_zero  # 3-dim, psi(pi) = 0 bullet
    j = verify_jacobi(ctx, f.pi, f.E, S)
    g1, _ = gv_codim1(j, ctx, defining_pair(j, ctx, S), S)
    assert g1.is_identically_zero
    f, ctx = setup("contact-r3-ext")
    assert psi(ctx, f.E).is_identically_zero
    j = verify_jacobi(ctx, f.pi, f.E, S)
    g2, _ = gv_codim1(j, ctx, defining_pair(j, ctx, S), S)
    assert g2.is_identically_zero
    report(8, True, "gv_codim1 returns the literal-zero form on poisson-r3 "
                    "and contact-r3-ext")


def _transformation_cases():
    rng = random.Random(1009)
    f, ctx = setup("rescaled-poisson-r3")
    j = verify_jacobi(ctx, f.pi, f.E, S)
    dp = defining_pair(j, ctx, S)
    for _ in range(50):
        u = rand_scalar(rng, f.chart, 2, 2)
        v = exp_(rand_scalar(rng, f.chart, 2, 2))
        yield f, dp, u, v


def test_criterion_9_transformation_law_corrected_sign():
    count = 0
    for f, dp, u, v in _transformation_cases():
        a2 = dp.alpha.scale(v)
        b2 = dp.beta + d(DiffForm.scalar(f.chart, ln_(v))) + dp.alpha.scale(u * v)
        assert element_zero(d(a2) - wedge(b2, a2), S).passed
        count += 1
    report(9, count == 50,
           f"(v alpha, beta + d ln v + u v alpha) stays a defining pair for "
           f"{count} randomized (u, v)")


@pytest.mark.xfail(strict=True,
                   reason="d(v alpha) = (beta + d ln v) ^ (v alpha) follows "
                          "directly from d alpha = beta ^ alpha; the printed "
                          "minus sign belongs to the inverse substitution "
                          "alpha' = alpha / v")
def test_criterion_9_transformation_law_literal_sign():
    bad = 0
    for f, dp, u, v in _transformation_cases():
        a2 = dp.alpha.scale(v)
        b2 = dp.beta - d(DiffForm.scalar(f.chart, ln_(v))) + dp.alpha.scale(u * v)
        if not element_zero(d(a2) - wedge(b2, a2), S).passed:
            bad += 1
    print(f"[criterion  9] FAIL (literal -d log v sign) on {bad}/50 draws "
          f"-- expected, see README sign notes")
    assert bad == 0


BROKEN = """\
chart x1 x2 x3 x4
pi = d/dx1^d/dx2 + x2*d/dx3^d/dx4
run verify
"""


def test_criterion_10_cli_determinism_and_exit_codes():
    for name in ALL_FIXTURES:
        pf = fixture_problem(get_fixture(name))
        out1 = emit(execute(pf), "structured")
        out2 = emit(execute(pf), "structured")
        assert out1 == out2, name
        assert execute(pf).exit_status == 0, name
    broken = execute(parse_problem(BROKEN))
    assert broken.exit_status == 1
    assert any(not r.passed for r in broken.records)
    import contextlib
    import io
    from gvkernel.cli import main
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        rc = main(["--fixture", "poisson-r3", "--format", "structured"])
    assert rc == 0 and "verdict=pass" in buf.getvalue()
    report(10, True, "structured output byte-identical across runs per seed; "
                     "exit codes 0/1 honored (broken axiom input exits 1)")
