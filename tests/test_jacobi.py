import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gvkernel.alg import (DiffForm, MultiVector, contract_form_into_mv, power,
                          wedge)
from gvkernel.calculus import exterior_derivative, schouten
from gvkernel.duality import phi, psi, volume_context
from gvkernel.expr import Chart, Sampler, ScalarExpr, exp_, ln_
from gvkernel.fixtures import FIXTURE_NAMES, get_fixture
from gvkernel.jacobi import (AxiomViolation, CodimOutOfRange, InvariantFailure,
                             NotCodimOne, NotContact, NotLCS, NotRegular,
                             ParityObstruction, RescaleVanishes, _outside_column_span,
                             _ranks, check_poissonization_bridge, conformal_rescale,
                             contact_to_jacobi, defining_pair, element_zero,
                             gv_codim1, gv_representative, lcs_to_jacobi,
                             poissonize, require_codim, unimodularity,
                             verify_jacobi)

from conftest import rand_scalar

d = exterior_derivative


def fixture_setup(name, sampler):
    f = get_fixture(name)
    ctx = volume_context(f.chart, f.vol, sampler)
    return f, ctx


def mv(chart, *idx):
    return MultiVector.basis(chart, idx)


def form(chart, *idx):
    return DiffForm.basis(chart, idx)


def codim1(j, ctx, sampler):
    """gv_codim1 on the structure's own defining pair."""
    return gv_codim1(j, ctx, defining_pair(j, ctx, sampler), sampler)[0]


def bridge(j, ctx, sampler):
    """The bridge on the structure's own defining pair and Poisson lift."""
    return check_poissonization_bridge(j, ctx, defining_pair(j, ctx, sampler),
                                       poissonize(j, sampler), sampler)


class TestVerify:
    def test_poisson_r3_classifies_lcs(self, sampler):
        f, ctx = fixture_setup("poisson-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        assert (j.kind, j.m, j.q) == ("lcs", 1, 1)
        assert all(c.tier == "symbolic" for c in j.checks[:2])

    def test_contact_model_r4_classifies_contact(self, sampler):
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        assert (j.kind, j.m, j.q) == ("contact", 1, 1)

    def test_all_fixtures_match_expected_classification(self, sampler):
        for name in FIXTURE_NAMES:
            f, ctx = fixture_setup(name, sampler)
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            assert (j.kind, j.m, j.q) == (f.kind, f.m, f.q), name

    def test_codim_zero_rejected(self, sampler):
        # the full R3 contact model passes the axioms but has q = 0
        f, ctx = fixture_setup("contact-r3", sampler)
        with pytest.raises(CodimOutOfRange):
            require_codim(verify_jacobi(ctx, f.pi, f.E, sampler))

    def test_symplectic_with_transverse_e_fails_axioms(self, sampler):
        # pi = d1^d2, E = d3 on R3: [pi,pi] = 0 but 2E^pi != 0
        chart = Chart(("x1", "x2", "x3"))
        ctx = volume_context(chart, form(chart, 0, 1, 2), sampler)
        with pytest.raises(AxiomViolation):
            verify_jacobi(ctx, wedge(mv(chart, 0), mv(chart, 1)), mv(chart, 2),
                          sampler)

    def test_axiom_violation_carries_witness(self, sampler):
        # pi = d1^d2 + x2 d3^d4 has [pi,pi] = 2 d1^d3^d4 != 0 with E = 0
        chart = Chart(("x1", "x2", "x3", "x4"))
        ctx = volume_context(chart, form(chart, 0, 1, 2, 3), sampler)
        pi = MultiVector(chart, 2, {0b0011: ScalarExpr.one(),
                                    0b1100: ScalarExpr.var("x2")})
        with pytest.raises(AxiomViolation) as ei:
            verify_jacobi(ctx, pi, MultiVector.zero(chart, 1), sampler)
        assert ei.value.witness is not None

    def test_mixed_rank_is_not_regular(self, sampler):
        # pi = 0 keeps both axioms trivially; E with values straddling the
        # zero tolerance across the sample box is a rank jump
        from fractions import Fraction
        chart = Chart(("x1", "x2", "x3"))
        ctx = volume_context(chart, form(chart, 0, 1, 2), sampler)
        tiny = ScalarExpr.const(Fraction(1, 500_000_000))  # 2e-9 * x1
        e = MultiVector.basis(chart, [0], tiny * ScalarExpr.var("x1"))
        with pytest.raises(NotRegular):
            verify_jacobi(ctx, MultiVector.zero(chart, 2), e, sampler)

    def test_e_outside_image_with_vanishing_top_is_not_regular(self, sampler):
        # on R4: pi = d1^d2, E = d3: pi^E != 0 -> contact q = 1; but
        # pi = d1^d2 with E = x-dependent multiple degenerating is the mixed
        # case covered above; here check E not in Im pi-sharp while pi^m^E = 0
        chart = Chart(("x1", "x2", "x3"))
        ctx = volume_context(chart, form(chart, 0, 1, 2), sampler)
        pi = MultiVector.zero(chart, 2)  # m = 0, Im sharp = 0
        e = mv(chart, 0)                 # pi^0 ^ E = E != 0 -> contact, q = 2
        j = verify_jacobi(ctx, pi, e, sampler)
        assert (j.kind, j.m, j.q) == ("contact", 0, 2)

    def test_degenerate_rank_zero_lcs_rejected_for_codim(self, sampler):
        chart = Chart(("x1", "x2"))
        ctx = volume_context(chart, form(chart, 0, 1), sampler)
        with pytest.raises(CodimOutOfRange):
            require_codim(verify_jacobi(ctx, MultiVector.zero(chart, 2),
                                        MultiVector.zero(chart, 1), sampler))


class TestContactToJacobi:
    def test_standard_contact_form(self, sampler):
        chart = Chart(("x0", "x1", "x2"))
        theta = form(chart, 0) + form(chart, 2).scale(ScalarExpr.var("x1"))
        pi, e = contact_to_jacobi(chart, theta, sampler)
        assert e == mv(chart, 0)
        # axiom-valid sign: the opposite of pi gives [pi,pi] = -2E^pi
        assert (schouten(pi, pi) - wedge(e, pi).scale(2)).is_identically_zero
        assert schouten(pi, e).is_identically_zero
        # theta and d theta are reproduced by the pair up to the flat map:
        # the Reeb conditions hold
        dth = d(theta)
        from gvkernel.alg import contract_mv_into_form
        assert contract_mv_into_form(e, dth).is_identically_zero
        assert contract_mv_into_form(e, theta) == DiffForm.scalar(chart, 1)

    def test_r1_degenerate_line(self, sampler):
        chart = Chart(("x0",))
        pi, e = contact_to_jacobi(chart, form(chart, 0), sampler)
        assert pi.is_identically_zero
        assert e == mv(chart, 0)

    def test_not_contact(self, sampler):
        chart = Chart(("x0", "x1", "x2"))
        with pytest.raises(NotContact):
            contact_to_jacobi(chart, form(chart, 0), sampler)  # theta ^ dtheta = 0

    def test_even_dimension_rejected(self, sampler):
        chart = Chart(("x0", "x1"))
        with pytest.raises(NotContact):
            contact_to_jacobi(chart, form(chart, 0), sampler)

    def test_output_verifies_on_extended_chart(self, sampler):
        base = Chart(("x0", "x1", "x2"))
        theta = form(base, 0) + form(base, 2).scale(ScalarExpr.var("x1"))
        pi, e = contact_to_jacobi(base, theta, sampler)
        # lift to the 4-chart where q = 1 and run the full verifier
        from gvkernel.jacobi import lift_to
        ext = Chart(("x0", "x1", "x2", "y"))
        ctx = volume_context(ext, form(ext, 0, 1, 2, 3), sampler)
        j = verify_jacobi(ctx, lift_to(ext, pi), lift_to(ext, e), sampler)
        assert (j.kind, j.q) == ("contact", 1)


class TestLcsToJacobi:
    def test_flat_symplectic(self, sampler):
        chart = Chart(("x1", "x2"))
        pi, e = lcs_to_jacobi(chart, DiffForm.zero(chart, 1),
                              form(chart, 0, 1), sampler)
        assert e.is_identically_zero
        assert pi == wedge(mv(chart, 0), mv(chart, 1))

    def test_exponential_conformal_factor(self, sampler):
        chart = Chart(("x1", "x2"))
        om = form(chart, 0)
        Om = form(chart, 0, 1).scale(exp_(ScalarExpr.var("x1")))
        pi, e = lcs_to_jacobi(chart, om, Om, sampler)
        ctx = volume_context(chart, form(chart, 0, 1), sampler)
        j = verify_jacobi(ctx, pi, e, sampler)
        assert j.kind == "lcs"
        inv = exp_(ScalarExpr.var("x1")).recip()
        assert pi == MultiVector(chart, 2, {0b11: inv})
        assert e == MultiVector.basis(chart, [1], inv)

    def test_not_lcs_when_domega_mismatch(self, sampler):
        chart = Chart(("x1", "x2", "x3", "x4"))
        om = form(chart, 0)
        Om = form(chart, 0, 1) + form(chart, 2, 3)
        with pytest.raises(NotLCS):
            lcs_to_jacobi(chart, om, Om, sampler)  # dOmega = 0 != omega ^ Omega

    def test_four_dim_lcs_passes_axioms(self, sampler):
        chart = Chart(("x1", "x2", "x3", "x4"))
        om = form(chart, 0)
        Om = (form(chart, 0, 1) + form(chart, 2, 3)).scale(exp_(ScalarExpr.var("x1")))
        pi, e = lcs_to_jacobi(chart, om, Om, sampler)
        ctx = volume_context(chart, form(chart, 0, 1, 2, 3), sampler)
        j = verify_jacobi(ctx, pi, e, sampler)
        assert (j.kind, j.m) == ("lcs", 2)
        assert not e.is_identically_zero


def rescaled_contact(sampler, var="x1"):
    f = get_fixture("contact-r3-ext")
    ctx = volume_context(f.chart, f.vol, sampler)
    j = verify_jacobi(ctx, f.pi, f.E, sampler)
    j2 = conformal_rescale(j, exp_(ScalarExpr.var(var)), ctx, sampler).structure
    return j2, ctx


def rescaled_lcs(sampler):
    f = get_fixture("lcs-model-r4")
    ctx = volume_context(f.chart, f.vol, sampler)
    j = verify_jacobi(ctx, f.pi, f.E, sampler)
    j2 = conformal_rescale(j, exp_(ScalarExpr.var("x1")), ctx, sampler).structure
    return j2, ctx


class TestDefiningPair:
    def test_contact_fixture_values(self, sampler):
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        dp = defining_pair(j, ctx, sampler)
        assert dp.alpha == form(f.chart, 3)           # dy
        assert dp.beta.is_identically_zero
        assert dp.gv.is_identically_zero
        assert dp.companion_used.companion == mv(f.chart, 3)

    def test_poisson_fixture_values(self, sampler):
        f, ctx = fixture_setup("poisson-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        dp = defining_pair(j, ctx, sampler)
        assert dp.alpha == form(f.chart, 2)           # dx3
        assert dp.beta.is_identically_zero
        assert dp.gv.is_identically_zero

    def test_rescaled_poisson_beta_nonzero(self, sampler):
        f, ctx = fixture_setup("rescaled-poisson-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        dp = defining_pair(j, ctx, sampler)
        assert dp.alpha == form(f.chart, 2).scale(exp_(ScalarExpr.var("x3")))
        assert dp.beta == form(f.chart, 2).scale(-1)
        assert all(c.passed and c.tier == "symbolic" for c in dp.checks)

    def test_all_valid_fixtures_pass_invariants(self, sampler):
        for name in FIXTURE_NAMES:
            f, ctx = fixture_setup(name, sampler)
            if not (0 < f.q < f.chart.n):
                continue
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            dp = defining_pair(j, ctx, sampler)
            assert all(c.passed for c in dp.checks), name

    def test_nontrivial_contact_pair(self, sampler):
        j2, ctx = rescaled_contact(sampler)
        dp = defining_pair(j2, ctx, sampler)
        assert dp.beta == DiffForm(j2.chart, 1, {0b0010: ScalarExpr.const(2)})
        assert all(c.passed and c.tier == "symbolic" for c in dp.checks)

    def test_nontrivial_lcs_pair(self, sampler):
        j3, ctx = rescaled_lcs(sampler)
        dp = defining_pair(j3, ctx, sampler)
        assert not dp.beta.is_identically_zero
        assert all(c.passed for c in dp.checks)

    def test_pair_valid_under_alternate_companion(self, sampler):
        # two usable complements; the pair equation holds for either
        chart = Chart(("x1", "x2", "x3", "x4", "y"))
        ctx = volume_context(chart, form(chart, *range(5)), sampler)
        fcoef = 1 + ScalarExpr.var("x3") ** 2
        pi = MultiVector(chart, 2, {0b00011: ScalarExpr.one(), 0b01001: fcoef})
        j = verify_jacobi(ctx, pi, MultiVector.zero(chart, 1), sampler)
        dp0 = defining_pair(j, ctx, sampler, star_choice=0)
        dp1 = defining_pair(j, ctx, sampler, star_choice=1)
        assert dp0.companion_used.complement_mask != dp1.companion_used.complement_mask
        for dp in (dp0, dp1):
            assert all(c.passed for c in dp.checks)

    def test_gv_representative_without_q1(self, sampler):
        chart = Chart(("x1", "x2", "x3", "x4", "y"))
        ctx = volume_context(chart, form(chart, *range(5)), sampler)
        pi = MultiVector(chart, 2, {0b00011: ScalarExpr.one()})
        j = verify_jacobi(ctx, pi, MultiVector.zero(chart, 1), sampler)
        assert j.q == 3
        gv = gv_representative(j, ctx, sampler)
        assert gv.is_identically_zero  # grade 2q+1 = 7 > n
        with pytest.raises(NotCodimOne):
            codim1(j, ctx, sampler)


class TestTheoremProofSteps:
    @pytest.mark.parametrize("builder", [rescaled_contact, rescaled_lcs])
    def test_eq_contraction_identities(self, sampler, builder):
        j, ctx = builder(sampler)
        dp = defining_pair(j, ctx, sampler)
        p = power(j.pi, j.m)
        if j.kind == "contact":
            p = wedge(p, j.E)
        comp = dp.companion_used.companion
        # iota_alpha(psi(*P) ^ P) = 0
        e5 = contract_form_into_mv(dp.alpha, wedge(psi(ctx, comp), p))
        assert element_zero(e5, sampler).is_zero
        # iota_alpha(*P ^ psi(P)) = psi(P) / m!
        e6 = contract_form_into_mv(dp.alpha, wedge(comp, psi(ctx, p)))
        target = psi(ctx, p).scale(Fraction(1, math.factorial(j.m)))
        assert element_zero(e6 - target, sampler).is_zero

    def test_leafwise_annihilations(self, sampler):
        for name in FIXTURE_NAMES:
            f, ctx = fixture_setup(name, sampler)
            if not (0 < f.q < f.chart.n):
                continue
            pim = power(f.pi, f.m)
            z = wedge(psi(ctx, f.pi), pim)
            if f.kind == "contact":
                z = wedge(z, f.E)
            else:
                assert wedge(f.E, pim).is_identically_zero, name
            assert element_zero(z, sampler).is_zero, name


class TestTransformationLaw:
    def test_q1_closure_randomized(self, sampler):
        # alpha' = v alpha, beta' = beta + d ln v + u v alpha stays defining.
        # (The sign of the d log term follows from d(v alpha) directly; the
        # opposite sign fails for generic v.)
        rng = random.Random(11)
        j2, ctx = rescaled_contact(sampler)
        dp = defining_pair(j2, ctx, sampler)
        for _ in range(10):
            u = rand_scalar(rng, j2.chart, 2, 2)
            v = exp_(rand_scalar(rng, j2.chart, 2, 2))
            a2 = dp.alpha.scale(v)
            b2 = dp.beta + d(DiffForm.scalar(j2.chart, ln_(v))) \
                + dp.alpha.scale(u * v)
            assert element_zero(d(a2) - wedge(b2, a2), sampler).is_zero

    def test_printed_sign_fails_for_generic_v(self, sampler):
        j2, ctx = rescaled_contact(sampler)
        dp = defining_pair(j2, ctx, sampler)
        v = exp_(ScalarExpr.var("x2"))
        a2 = dp.alpha.scale(v)
        b2 = dp.beta - d(DiffForm.scalar(j2.chart, ln_(v)))
        assert not element_zero(d(a2) - wedge(b2, a2), sampler).is_zero


class TestGvCodim1:
    def test_matches_generic_on_all_q1_fixtures(self, sampler):
        for name in FIXTURE_NAMES:
            f, ctx = fixture_setup(name, sampler)
            if f.q != 1:
                continue
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            g = codim1(j, ctx, sampler)   # raises on mismatch internally
            assert g.is_identically_zero, name

    def test_matches_on_nontrivial_structures(self, sampler):
        for builder in (rescaled_contact, rescaled_lcs):
            j, ctx = builder(sampler)
            codim1(j, ctx, sampler)

    def test_cor63_vanishing(self, sampler):
        # 3-dim with psi(pi) = 0; contact with beta = 0: literal zero output
        f, ctx = fixture_setup("poisson-r3", sampler)
        assert psi(ctx, f.pi).is_identically_zero
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        assert codim1(j, ctx, sampler).is_identically_zero
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        assert psi(ctx, f.E).is_identically_zero
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        assert codim1(j, ctx, sampler).is_identically_zero

    def test_two_dimensional_chart(self, sampler):
        # n = 2, q = 1: d beta != 0, but psi(W) is a function, so
        # iota_beta psi(W) = 0 like the 3-form gv
        chart = Chart(("x1", "x2"))
        ctx = volume_context(chart, form(chart, 0, 1), sampler)
        e = mv(chart, 1).scale(ScalarExpr.var("x1") + ScalarExpr.var("x2"))
        j = verify_jacobi(ctx, MultiVector.zero(chart, 2), e, sampler)
        dp = defining_pair(j, ctx, sampler)
        assert not d(dp.beta).is_identically_zero
        g, check = gv_codim1(j, ctx, dp, sampler)
        assert g.is_identically_zero
        assert check.passed and check.tier == "symbolic"

    def test_cor62_hypotheses_hold_on_models(self, sampler):
        # L_{*P} pi = 0 (and L_{*P} E = 0 for contact) on the model fixtures,
        # and the representative itself vanishes
        for name in ("poisson-r3", "lcs-model-r2", "lcs-model-r4",
                     "contact-r3-ext", "contact-model-r3", "contact-model-r5"):
            f, ctx = fixture_setup(name, sampler)
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            dp = defining_pair(j, ctx, sampler)
            s = dp.companion_used.companion
            assert schouten(s, j.pi).is_identically_zero, name
            if j.kind == "contact":
                assert schouten(s, j.E).is_identically_zero, name
            assert dp.gv.is_identically_zero, name


class TestPoissonization:
    def test_lambda_shape_and_poisson_condition(self, sampler):
        for name in FIXTURE_NAMES:
            f, ctx = fixture_setup(name, sampler)
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            pz = poissonize(j, sampler)
            assert pz.poisson_check.passed
            assert pz.poisson_check.tier == "symbolic", name
            assert pz.chart.vars[-1] == "t"
            assert "t" in pz.chart.positive

    def test_lambda_termwise(self, sampler):
        # Lambda = t^-1 pi + E ^ d/dt (the axiom-consistent sign; with
        # d/dt ^ E instead, [Lambda,Lambda] = 4 t^-2 E^pi != 0)
        from gvkernel.jacobi import lift_to
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        pz = poissonize(j, sampler)
        ext = pz.chart
        t_inv = ScalarExpr.var("t") ** -1
        expected = lift_to(ext, f.pi).scale(t_inv) + \
            wedge(lift_to(ext, f.E), mv(ext, ext.n - 1))
        assert pz.lam == expected

    def test_opposite_sign_fails_poisson(self, sampler):
        from gvkernel.jacobi import lift_to
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        ext = f.chart.extend("t")
        t_inv = ScalarExpr.var("t") ** -1
        bad = lift_to(ext, f.pi).scale(t_inv) + \
            wedge(mv(ext, ext.n - 1), lift_to(ext, f.E))
        resid = schouten(bad, bad)
        assert not resid.is_identically_zero

    def test_zero_pi(self, sampler):
        chart = Chart(("x0", "x1"))
        ctx = volume_context(chart, form(chart, 0, 1), sampler)
        j = verify_jacobi(ctx, MultiVector.zero(chart, 2), mv(chart, 0), sampler)
        pz = poissonize(j, sampler)
        assert pz.lam == wedge(mv(pz.chart, 0), mv(pz.chart, 2))

    def test_power_identities(self, sampler):
        from gvkernel.jacobi import lift_to
        for name in ("contact-r3-ext", "contact-model-r5"):
            f, ctx = fixture_setup(name, sampler)
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            pz = poissonize(j, sampler)
            ext = pz.chart
            m = j.m
            t_inv = ScalarExpr.var("t") ** -1
            lam_m1 = power(pz.lam, m + 1)
            expected = wedge(wedge(power(lift_to(ext, j.pi), m),
                                   lift_to(ext, j.E)),
                             mv(ext, ext.n - 1)).scale(
                ScalarExpr.const(m + 1) * t_inv ** m)
            assert (lam_m1 - expected).is_identically_zero, name
            assert power(pz.lam, m + 2).is_identically_zero, name


class TestBridge:
    def test_passes_on_contact_fixtures(self, sampler):
        for name in ("contact-r3-ext", "contact-model-r3", "contact-model-r5"):
            f, ctx = fixture_setup(name, sampler)
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            br = bridge(j, ctx, sampler)
            assert br.passed, name

    def test_nontrivial_beta_numeric_identity(self, sampler):
        j2, ctx = rescaled_contact(sampler)
        br = bridge(j2, ctx, sampler)
        assert br.passed
        assert not br.base_beta.is_identically_zero

    def test_m0_no_gauge_term(self, sampler):
        # pi = 0: B = (-1)^(q+1) pr* beta exactly
        chart = Chart(("x0", "x1"))
        ctx = volume_context(chart, form(chart, 0, 1), sampler)
        j = verify_jacobi(ctx, MultiVector.zero(chart, 2), mv(chart, 0), sampler)
        br = bridge(j, ctx, sampler)
        assert br.passed
        assert all(c.tier == "symbolic" for c in br.checks if c.name != "bridge.rank")

    def test_rejects_lcs_at_precondition(self, sampler):
        for name in ("poisson-r3", "lcs-model-r2", "lcs-model-r4",
                     "rescaled-poisson-r3"):
            f, ctx = fixture_setup(name, sampler)
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            with pytest.raises(ParityObstruction):
                bridge(j, ctx, sampler)


class TestConformalRescale:
    def test_identity_factor(self, sampler):
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        rr = conformal_rescale(j, ScalarExpr.one(), ctx, sampler)
        assert rr.structure.pi == j.pi
        assert rr.structure.E == j.E

    def test_constant_factor(self, sampler):
        f, ctx = fixture_setup("poisson-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        rr = conformal_rescale(j, ScalarExpr.const(2), ctx, sampler)
        assert rr.structure.pi == j.pi.scale(2)
        assert rr.structure.E.is_identically_zero

    def test_exp_factor_on_poisson_r3(self, sampler):
        f, ctx = fixture_setup("poisson-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        rr = conformal_rescale(j, exp_(ScalarExpr.var("x3")), ctx, sampler)
        g = get_fixture("rescaled-poisson-r3")
        assert rr.structure.pi == g.pi
        assert rr.structure.E.is_identically_zero   # pi has no d/dx3 leg
        assert all(c.passed for c in rr.checks)

    def test_invariants_preserved_both_kinds(self, sampler):
        for name in ("contact-r3-ext", "lcs-model-r4", "contact-model-r5"):
            f, ctx = fixture_setup(name, sampler)
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            rr = conformal_rescale(j, exp_(ScalarExpr.var(f.chart.vars[1])),
                                   ctx, sampler)
            assert (rr.structure.m, rr.structure.kind, rr.structure.q) == \
                (j.m, j.kind, j.q), name

    def test_vanishing_factor_rejected(self, sampler):
        from gvkernel.expr import cos_, sin_
        f, ctx = fixture_setup("poisson-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        x1 = ScalarExpr.var("x1")
        with pytest.raises(RescaleVanishes):
            conformal_rescale(j, sin_(x1) ** 2 + cos_(x1) ** 2 - 1, ctx, sampler)

    def test_roundtrip_recovers_flat_structure(self, sampler):
        # rescale by a then by 1/a comes back identically
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        a = exp_(ScalarExpr.var("x1"))
        j2 = conformal_rescale(j, a, ctx, sampler).structure
        j3 = conformal_rescale(j2, a.recip(), ctx, sampler).structure
        assert j3.pi == j.pi
        assert j3.E == j.E


class TestUnimodularity:
    def test_constant_bivector(self, sampler):
        f, ctx = fixture_setup("poisson-r3", sampler)
        res = unimodularity(ctx, f.pi, sampler)
        assert res.unimodular
        assert res.psi_value.is_identically_zero

    def test_weighted_bivector_not_unimodular(self, sampler):
        chart = Chart(("x1", "x2", "x3"))
        ctx = volume_context(chart, form(chart, 0, 1, 2), sampler)
        u = wedge(mv(chart, 0), mv(chart, 1)).scale(ScalarExpr.var("x1"))
        res = unimodularity(ctx, u, sampler)
        assert not res.unimodular
        # divergence via the Lemma 4.2 route: psi(x1 d1^d2) = [lemma] = -d2
        assert res.psi_value == mv(chart, 1).scale(-1)

    def test_reeb_field_unimodular(self, sampler):
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        res = unimodularity(ctx, f.E, sampler)
        assert res.unimodular


class TestRandomRescaledStructures:
    """Conformal rescales of the models are a cheap source of genuinely
    random valid Jacobi structures; drive the whole pipeline over them."""

    def _random_factor(self, rng, chart):
        e = ScalarExpr.zero()
        for v in chart.vars:
            c = rng.randint(-1, 1)
            if c:
                e = e + c * ScalarExpr.var(v)
        return exp_(e)

    @pytest.mark.parametrize("name", ["contact-model-r5", "lcs-model-r4",
                                      "contact-r3-ext"])
    def test_pipeline_on_random_rescales(self, sampler, name):
        rng = random.Random(hash(name) & 0xFFFF)
        f, ctx = fixture_setup(name, sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        for _ in range(3):
            a = self._random_factor(rng, f.chart)
            j2 = conformal_rescale(j, a, ctx, sampler).structure
            dp = defining_pair(j2, ctx, sampler)
            assert all(c.passed for c in dp.checks)
            gv_codim1(j2, ctx, dp, sampler)  # raises on cross-check mismatch
            if j2.kind == "contact":
                br = bridge(j2, ctx, sampler)
                assert br.passed


class TestNonzeroRepresentative:
    """Conformal factors whose transverse derivative is not proportional to
    the leafwise one produce a genuinely nonzero gv; every identity must
    still close symbolically on these."""

    def _twist(self, sampler, name):
        f, ctx = fixture_setup(name, sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        x1, x2, y = (ScalarExpr.var(v) for v in ("x1", "x2", "y"))
        a = exp_(x1 * y + x2 * y ** 2)
        return conformal_rescale(j, a, ctx, sampler).structure, ctx

    def test_lcs_gv_value(self, sampler):
        j2, ctx = self._twist(sampler, "lcs-model-r2")
        dp = defining_pair(j2, ctx, sampler)
        chart = j2.chart
        y = ScalarExpr.var("y")
        expected = DiffForm(chart, 3, {0b111: -2 * y ** 2})
        assert dp.gv == expected
        assert all(c.passed and c.tier == "symbolic" for c in dp.checks)
        assert gv_codim1(j2, ctx, dp, sampler)[0] == expected

    def test_contact_gv_value_and_bridge(self, sampler):
        j2, ctx = self._twist(sampler, "contact-r3-ext")
        dp = defining_pair(j2, ctx, sampler)
        y = ScalarExpr.var("y")
        # dx1^dx2^dy component on the (x0 x1 x2 y) chart
        expected = DiffForm(j2.chart, 3, {0b1110: -8 * y ** 2})
        assert dp.gv == expected
        assert gv_codim1(j2, ctx, dp, sampler)[0] == expected
        br = bridge(j2, ctx, sampler)
        assert br.passed
        assert not br.base_beta.is_identically_zero


class TestConstructionsAtHigherRank:
    def test_rank5_contact_form_through_pipeline(self, sampler):
        # 5x5 symbolic flat-matrix solve, then the full machinery on R6
        from gvkernel.jacobi import lift_to
        base = Chart(("x0", "x1", "x2", "x3", "x4"))
        theta = DiffForm(base, 1, {1: ScalarExpr.one(),
                                   4: ScalarExpr.var("x1"),
                                   16: ScalarExpr.var("x3")})
        pi, e = contact_to_jacobi(base, theta, sampler)
        assert e == mv(base, 0)
        ext = Chart(("x0", "x1", "x2", "x3", "x4", "y"))
        ctx = volume_context(ext, form(ext, *range(6)), sampler)
        j = verify_jacobi(ctx, lift_to(ext, pi), lift_to(ext, e), sampler)
        assert (j.kind, j.m, j.q) == ("contact", 2, 1)
        dp = defining_pair(j, ctx, sampler)
        assert all(c.passed for c in dp.checks)
        assert bridge(j, ctx, sampler).passed

    def test_rank4_lcs_data_through_pipeline(self, sampler):
        from gvkernel.jacobi import lift_to
        b4 = Chart(("x1", "x2", "x3", "x4"))
        om = form(b4, 0)
        Om = (form(b4, 0, 1) + form(b4, 2, 3)).scale(exp_(ScalarExpr.var("x1")))
        pi4, e4 = lcs_to_jacobi(b4, om, Om, sampler)
        ext5 = Chart(("x1", "x2", "x3", "x4", "y"))
        ctx5 = volume_context(ext5, form(ext5, *range(5)), sampler)
        j5 = verify_jacobi(ctx5, lift_to(ext5, pi4), lift_to(ext5, e4), sampler)
        assert (j5.kind, j5.m, j5.q) == ("lcs", 2, 1)
        dp5 = defining_pair(j5, ctx5, sampler)
        assert all(c.passed for c in dp5.checks)
        assert dp5.beta == form(ext5, 0).scale(-2)

    def test_poissonization_base_var_bookkeeping(self, sampler):
        f, ctx = fixture_setup("poisson-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        pz = poissonize(j, sampler)
        assert pz.base_vars == f.chart.vars
        assert pz.chart.vars == f.chart.vars + (pz.t_name,)


class TestNumericTierFallback:
    def test_disguised_zero_field_verifies_at_numeric_tier(self, sampler):
        # E = (sin^2 + cos^2 - 1) d/dx3 is nonzero in normal form (atoms are
        # opaque) but vanishes numerically; the axiom check must fall back to
        # the sampling tier and still classify the structure as Poisson-like
        from gvkernel.expr import cos_, sin_
        chart = Chart(("x1", "x2", "x3"))
        x3 = ScalarExpr.var("x3")
        ghost = sin_(x3) ** 2 + cos_(x3) ** 2 - 1
        assert not ghost.is_zero_form
        pi = wedge(mv(chart, 0), mv(chart, 1))
        e = MultiVector.basis(chart, [2], ghost)
        ctx = volume_context(chart, form(chart, 0, 1, 2), sampler)
        j = verify_jacobi(ctx, pi, e, sampler)
        ax1 = next(c for c in j.checks if c.name == "jacobi.axiom1")
        assert ax1.passed and ax1.tier == "numeric"
        assert (j.kind, j.m, j.q) == ("lcs", 1, 1)
        dp = defining_pair(j, ctx, sampler)
        assert all(c.passed for c in dp.checks)

    def test_trig_structure_with_polyatom_companion(self, sampler):
        # rotating plane field rescaled by 2 + sin(x3): the companion carries
        # a wrapped-poly reciprocal of a trigonometric polynomial and every
        # identity still closes symbolically
        from gvkernel.expr import cos_, sin_
        chart = Chart(("x1", "x2", "x3"))
        x3 = ScalarExpr.var("x3")
        pi = MultiVector(chart, 2, {0b011: cos_(x3), 0b101: sin_(x3)})
        ctx = volume_context(chart, form(chart, 0, 1, 2), sampler)
        j = verify_jacobi(ctx, pi, MultiVector.zero(chart, 1), sampler)
        j2 = conformal_rescale(j, 2 + sin_(x3), ctx, sampler).structure
        assert j2.E == MultiVector.basis(chart, [0], cos_(x3) * sin_(x3))
        dp = defining_pair(j2, ctx, sampler)
        assert dp.companion_used.certificate.is_one
        assert all(c.passed and c.tier == "symbolic" for c in dp.checks)
        gv_codim1(j2, ctx, dp, sampler)


def _stacks(seed, count=200):
    """Random n x (n+1) matrices [A | b], stacked by shape: A of rank 0..n,
    b in its column span, outside it, zero, or below the span tolerance."""
    rng = np.random.default_rng(seed)
    stacks = {}
    for _ in range(count):
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, n + 1))
        a = rng.normal(size=(n, r)) @ rng.normal(size=(r, n)) * 10.0 ** rng.integers(-3, 4)
        kind = rng.integers(4)
        b = (a @ rng.normal(size=n) if kind == 0 else rng.normal(size=n) if kind == 1
             else np.zeros(n) if kind == 2 else rng.uniform(-1e-7, 1e-7, size=n))
        stacks.setdefault(n, []).append(np.column_stack([a, b]))
    return [np.array(mats) for _, mats in sorted(stacks.items())]


class TestStackedPredicates:
    @staticmethod
    def outside_by_lstsq(cols, tol=1e-7):
        # the one-matrix test the stacked one replaced
        mat, vec = cols[:, :-1], cols[:, -1]
        if np.allclose(vec, 0.0, atol=tol):
            return False
        sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
        return not np.linalg.norm(mat @ sol - vec) <= tol * max(1.0, np.linalg.norm(vec))

    @pytest.mark.parametrize("seed", range(5))
    def test_span_matches_lstsq(self, seed):
        for stack in _stacks(seed):
            assert (_outside_column_span(stack).tolist()
                    == [self.outside_by_lstsq(m) for m in stack])

    @pytest.mark.parametrize("seed", range(5))
    def test_ranks_match_matrix_rank(self, seed):
        for stack in _stacks(seed):
            for mats in (stack, stack[:, :, :-1]):
                assert (_ranks(mats).tolist()
                        == [np.linalg.matrix_rank(m, tol=1e-8) for m in mats])

    def test_all_cases_occur(self):
        stack = _stacks(0)[3]  # 4 x 5
        outside = _outside_column_span(stack)
        ranks = _ranks(stack[:, :, :-1])
        assert outside.any() and not outside.all()
        assert set(ranks.tolist()) == {0, 1, 2, 3, 4}

    def test_non_finite_matrices_are_undecided(self):
        good = np.column_stack([np.eye(3), np.ones(3)])
        bad_inf, bad_nan = good.copy(), good.copy()
        bad_inf[0, 1] = np.inf
        bad_nan[2, 3] = np.nan
        stack = np.array([good, bad_inf, bad_nan])
        assert _outside_column_span(stack).tolist() == [False, True, True]
        assert _ranks(stack).tolist() == [3, -1, -1]
