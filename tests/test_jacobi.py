import dataclasses
import itertools
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from gvkernel import jacobi
from gvkernel.alg import (DiffForm, MultiVector, contract_form_into_mv, power,
                          wedge)
from gvkernel.calculus import exterior_derivative, schouten
from gvkernel.dsl import parse_form, parse_problem
from gvkernel.duality import NoCompanion, apply_vol, phi, psi, volume_context
from gvkernel.expr import (Chart, Sampler, ScalarExpr, evaluate, exp_, ln_, sin_,
                           vanishing_point)
from gvkernel.fixtures import FIXTURE_NAMES, get_fixture
from gvkernel.jacobi import (AxiomViolation, CodimOutOfRange, InvariantFailure,
                             NotCodimOne, NotContact, NotLCS, NotRegular,
                             ParityObstruction, RescaleVanishes, _coefficients,
                             _outside_image, check_poissonization_bridge,
                             conformal_rescale, contact_to_jacobi, defining_pair,
                             element_zero, gv_codim1, gv_representative,
                             lcs_to_jacobi, lift_to, poissonize, require_codim,
                             unimodularity, verify_jacobi)

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

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_stored_P_is_the_reference_power(self, sampler, name):
        # P = pi^m (LCS) or pi^m ^ E (contact), kept from classification
        f, ctx = fixture_setup(name, sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        reference = power(j.pi, j.m)
        if j.kind == "contact":
            reference = wedge(reference, j.E)
        assert j.P == reference

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

    def test_zero_omega_of_grade_zero_gives_a_vector_field(self, sampler):
        # the DSL parses `omega = 0` as a grade-0 form
        chart = Chart(("x1", "x2"))
        _, e = lcs_to_jacobi(chart, DiffForm.zero(chart, 0), form(chart, 0, 1), sampler)
        assert (e.grade, e.is_identically_zero) == (1, True)

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
    j2 = conformal_rescale(j, exp_(ScalarExpr.var(var)), ctx, sampler)
    return j2, ctx


def rescaled_lcs(sampler):
    f = get_fixture("lcs-model-r4")
    ctx = volume_context(f.chart, f.vol, sampler)
    j = verify_jacobi(ctx, f.pi, f.E, sampler)
    j2 = conformal_rescale(j, exp_(ScalarExpr.var("x1")), ctx, sampler)
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

    @pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES
                                      if 0 < get_fixture(n).q < get_fixture(n).chart.n])
    def test_alpha_is_phi_of_the_power_over_m_factorial(self, sampler, name):
        # alpha = phi(pi^m [^ E]) / m!, pinned apart from the stored P
        f, ctx = fixture_setup(name, sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        p = power(j.pi, j.m)
        if j.kind == "contact":
            p = wedge(p, j.E)
        dp = defining_pair(j, ctx, sampler)
        assert dp.alpha == phi(ctx, p).scale(Fraction(1, math.factorial(j.m)))

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
        assert element_zero(e5, sampler).passed
        # iota_alpha(*P ^ psi(P)) = psi(P) / m!
        e6 = contract_form_into_mv(dp.alpha, wedge(comp, psi(ctx, p)))
        target = psi(ctx, p).scale(Fraction(1, math.factorial(j.m)))
        assert element_zero(e6 - target, sampler).passed

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
            assert element_zero(z, sampler).passed, name


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
            assert element_zero(d(a2) - wedge(b2, a2), sampler).passed

    def test_printed_sign_fails_for_generic_v(self, sampler):
        j2, ctx = rescaled_contact(sampler)
        dp = defining_pair(j2, ctx, sampler)
        v = exp_(ScalarExpr.var("x2"))
        a2 = dp.alpha.scale(v)
        b2 = dp.beta - d(DiffForm.scalar(j2.chart, ln_(v)))
        assert not element_zero(d(a2) - wedge(b2, a2), sampler).passed


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

    def test_lift_variable_steps_past_a_chart_variable_t(self, sampler):
        chart = Chart(("t", "x1", "x2"))
        ctx = volume_context(chart, form(chart, 0, 1, 2), sampler)
        theta = form(chart, 0) + form(chart, 2).scale(ScalarExpr.var("x1"))
        pi, e = contact_to_jacobi(chart, theta, sampler)
        pz = poissonize(verify_jacobi(ctx, pi, e, sampler), sampler)
        assert pz.t_name == "t_"
        assert pz.chart.vars == ("t", "x1", "x2", "t_")
        assert pz.poisson_check.passed
        ext = pz.chart
        assert pz.lam == lift_to(ext, pi).scale(ScalarExpr.var("t_") ** -1) + \
            wedge(lift_to(ext, e), mv(ext, 3))

    def test_lift_variable_steps_past_a_chart_variable_dt(self, sampler):
        # with dt on the chart, a lift variable t would print its 1-form as
        # dt too; the lift takes t_, and the printed A and B read back
        text = (pathlib.Path(__file__).parent / "golden" / "lift-name-clash.gvk").read_text()
        pf = parse_problem(text)
        ctx = volume_context(pf.chart, DiffForm.basis(pf.chart, range(pf.chart.n)), sampler)
        j = verify_jacobi(ctx, pf.pi, pf.E, sampler)
        pz = poissonize(j, sampler)
        assert pz.t_name == "t_"
        br = bridge(j, ctx, sampler)
        assert all(c.passed for c in br.checks)
        assert parse_form(pz.chart, str(br.A)) == br.A
        assert parse_form(pz.chart, str(br.B)) == br.B

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
            assert all(c.passed for c in br.checks), name

    def test_nontrivial_beta_numeric_identity(self, sampler):
        j2, ctx = rescaled_contact(sampler)
        br = bridge(j2, ctx, sampler)
        assert all(c.passed for c in br.checks)
        assert not defining_pair(j2, ctx, sampler).beta.is_identically_zero

    def test_m0_no_gauge_term(self, sampler):
        # pi = 0: B = (-1)^(q+1) pr* beta exactly
        chart = Chart(("x0", "x1"))
        ctx = volume_context(chart, form(chart, 0, 1), sampler)
        j = verify_jacobi(ctx, MultiVector.zero(chart, 2), mv(chart, 0), sampler)
        br = bridge(j, ctx, sampler)
        assert all(c.passed for c in br.checks)
        assert all(c.tier == "symbolic" for c in br.checks if c.name != "bridge.rank")

    def test_rejects_lcs_at_precondition(self, sampler):
        for name in ("poisson-r3", "lcs-model-r2", "lcs-model-r4",
                     "rescaled-poisson-r3"):
            f, ctx = fixture_setup(name, sampler)
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            with pytest.raises(ParityObstruction):
                bridge(j, ctx, sampler)


C3 = Chart(("x1", "x2", "x3"))
C4 = Chart(("x1", "x2", "x3", "x4"))


def _verified(pi, sampler):
    ctx = volume_context(pi.chart, form(pi.chart, *range(pi.chart.n)), sampler)
    return verify_jacobi(ctx, pi, MultiVector.zero(pi.chart, 1), sampler), ctx


def _rescaled_by_zero(sampler):
    j, ctx = _verified(mv(C3, 0, 1), sampler)
    return conformal_rescale(j, ScalarExpr.zero(), ctx, sampler)


class TestNonvanishingRefusals:
    @pytest.mark.parametrize("refuse, error, message", [
        (lambda s: _verified(mv(C3, 0, 1).scale(Fraction(1, 10 ** 10)), s),
         NotRegular, "pi^1 vanishes at a sample point"),
        (lambda s: contact_to_jacobi(C3, form(C3, 0), s),
         NotContact, "theta ^ (d theta)^m vanishes at a sample point"),
        (lambda s: lcs_to_jacobi(C4, DiffForm.zero(C4, 1), form(C4, 0, 1), s),
         NotLCS, "Omega^(n/2) vanishes at a sample point"),
        (_rescaled_by_zero,
         RescaleVanishes, "conformal factor vanishes near a sample point"),
    ], ids=["pi-power", "contact-volume", "lcs-volume", "rescale-factor"])
    def test_raises_its_message_with_a_witness(self, sampler, refuse, error, message):
        with pytest.raises(error) as ei:
            refuse(sampler)
        assert str(ei.value) == message
        assert ei.value.witness is not None


class TestConformalRescale:
    def test_identity_factor(self, sampler):
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        j2 = conformal_rescale(j, ScalarExpr.one(), ctx, sampler)
        assert j2.pi == j.pi
        assert j2.E == j.E

    def test_constant_factor(self, sampler):
        f, ctx = fixture_setup("poisson-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        j2 = conformal_rescale(j, ScalarExpr.const(2), ctx, sampler)
        assert j2.pi == j.pi.scale(2)
        assert j2.E.is_identically_zero

    def test_exp_factor_on_poisson_r3(self, sampler):
        f, ctx = fixture_setup("poisson-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        j2 = conformal_rescale(j, exp_(ScalarExpr.var("x3")), ctx, sampler)
        g = get_fixture("rescaled-poisson-r3")
        assert j2.pi == g.pi
        assert j2.E.is_identically_zero   # pi has no d/dx3 leg
        assert all(c.passed for c in j2.checks)

    def test_invariants_preserved_both_kinds(self, sampler):
        for name in ("contact-r3-ext", "lcs-model-r4", "contact-model-r5"):
            f, ctx = fixture_setup(name, sampler)
            j = verify_jacobi(ctx, f.pi, f.E, sampler)
            j2 = conformal_rescale(j, exp_(ScalarExpr.var(f.chart.vars[1])),
                                   ctx, sampler)
            assert (j2.m, j2.kind, j2.q) == (j.m, j.kind, j.q), name

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
        j2 = conformal_rescale(j, a, ctx, sampler)
        j3 = conformal_rescale(j2, a.recip(), ctx, sampler)
        assert j3.pi == j.pi
        assert j3.E == j.E


class TestUnimodularity:
    def test_constant_bivector(self, sampler):
        f, ctx = fixture_setup("poisson-r3", sampler)
        value, check = unimodularity(ctx, f.pi, sampler)
        assert check.passed
        assert value.is_identically_zero

    def test_weighted_bivector_not_unimodular(self, sampler):
        chart = Chart(("x1", "x2", "x3"))
        ctx = volume_context(chart, form(chart, 0, 1, 2), sampler)
        u = wedge(mv(chart, 0), mv(chart, 1)).scale(ScalarExpr.var("x1"))
        value, check = unimodularity(ctx, u, sampler)
        assert not check.passed
        # divergence via the Lemma 4.2 route: psi(x1 d1^d2) = [lemma] = -d2
        assert value == mv(chart, 1).scale(-1)

    def test_reeb_field_unimodular(self, sampler):
        f, ctx = fixture_setup("contact-r3-ext", sampler)
        assert unimodularity(ctx, f.E, sampler)[1].passed


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
            j2 = conformal_rescale(j, a, ctx, sampler)
            dp = defining_pair(j2, ctx, sampler)
            assert all(c.passed for c in dp.checks)
            gv_codim1(j2, ctx, dp, sampler)  # raises on cross-check mismatch
            if j2.kind == "contact":
                br = bridge(j2, ctx, sampler)
                assert all(c.passed for c in br.checks)


class TestNonzeroRepresentative:
    """Conformal factors whose transverse derivative is not proportional to
    the leafwise one produce a genuinely nonzero gv; every identity must
    still close symbolically on these."""

    def _twist(self, sampler, name):
        f, ctx = fixture_setup(name, sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        x1, x2, y = (ScalarExpr.var(v) for v in ("x1", "x2", "y"))
        a = exp_(x1 * y + x2 * y ** 2)
        return conformal_rescale(j, a, ctx, sampler), ctx

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
        assert all(c.passed for c in br.checks)
        assert not dp.beta.is_identically_zero


class TestConstructionsAtHigherRank:
    def test_rank5_contact_form_through_pipeline(self, sampler):
        # the rank-5 contact solve, then the full machinery on R6
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
        assert all(c.passed for c in bridge(j, ctx, sampler).checks)

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
        j2 = conformal_rescale(j, 2 + sin_(x3), ctx, sampler)
        assert j2.E == MultiVector.basis(chart, [0], cos_(x3) * sin_(x3))
        dp = defining_pair(j2, ctx, sampler)
        assert apply_vol(ctx, wedge(j2.P, dp.companion_used.companion)).is_one
        assert all(c.passed and c.tier == "symbolic" for c in dp.checks)
        gv_codim1(j2, ctx, dp, sampler)


def _exact_bivector(rng, n, pairs, scale):
    """A constant bivector sum u_i ^ v_i over `pairs` pairs of random vectors
    with small rational entries times `scale`, exactly (its wedge powers
    vanish exactly past its rank), on an n-variable chart; with its matrix."""
    chart = Chart(tuple(f"x{i}" for i in range(n)))

    def vector():
        return MultiVector(chart, 1, {1 << i: ScalarExpr.const(
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) * scale)
            for i in range(n)})

    pi = MultiVector.zero(chart, 2)
    for _ in range(pairs):
        pi = pi + wedge(vector(), vector())
    mat = np.zeros((n, n))
    for mask, c in pi.terms.items():
        i, j = (k for k in range(n) if mask >> k & 1)
        mat[i, j], mat[j, i] = evaluate(c, {}), -evaluate(c, {})
    return pi, mat, vector


def _dense(el):
    """Values of every coefficient of el's grade, stored or not."""
    return [evaluate(el.coefficient(sum(1 << i for i in idx)), {})
            for idx in itertools.combinations(range(el.chart.n), el.grade)]


def _span_cases(seed, count=120):
    """(row of _outside_image's values, n_top, n_pim, [pi-sharp | E]) for
    random bivectors of every rank and E in Im pi-sharp, outside it, zero,
    or below the span tolerance, at scales 10^-3 .. 10^3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        scale = Fraction(10) ** int(rng.integers(-3, 4))
        pi, mat, vector = _exact_bivector(rng, n, int(rng.integers(0, n // 2 + 1)), scale)
        m = 0
        while not power(pi, m + 1).is_identically_zero:
            m += 1
        kind = rng.integers(4)
        if kind == 0:  # pi-sharp of a random covector
            e = MultiVector(pi.chart, 1, {1 << i: sum(
                (pi.coefficient((1 << min(i, k)) | (1 << max(i, k)))
                 * (1 if k > i else -1) * int(rng.integers(-3, 4))
                 for k in range(n) if k != i), ScalarExpr.zero()) for i in range(n)})
        elif kind == 1:
            e = vector()
        elif kind == 2:
            e = MultiVector.zero(pi.chart, 1)
        else:
            e = MultiVector(pi.chart, 1, {1 << i: ScalarExpr.const(
                Fraction(float(rng.uniform(-1e-7, 1e-7)))) for i in range(n)})
        pim = power(pi, m)
        row = _dense(wedge(pim, e)) + _dense(pim) + _dense(e)
        n_top = math.comb(n, 2 * m + 1)
        yield (np.array(row), n_top, math.comb(n, 2 * m),
               np.column_stack([mat, _dense(e)]))


class TestStackedPredicates:
    """The exterior-power predicates that replaced the stacked matrix ones
    decide as numpy's one-matrix references do: the span guard as lstsq,
    the wedge-power reading of a rank as matrix_rank."""

    @staticmethod
    def outside_by_lstsq(cols, tol=1e-7):
        mat, vec = cols[:, :-1], cols[:, -1]
        if np.allclose(vec, 0.0, atol=tol):
            return False
        sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
        return not np.linalg.norm(mat @ sol - vec) <= tol * max(1.0, np.linalg.norm(vec))

    @pytest.mark.parametrize("seed", range(5))
    def test_span_matches_lstsq(self, seed):
        for row, n_top, n_pim, cols in _span_cases(seed):
            assert (bool(_outside_image(row[None], n_top, n_pim)[0])
                    == self.outside_by_lstsq(cols)), cols

    @pytest.mark.parametrize("seed", range(5))
    def test_ranks_match_matrix_rank(self, seed, sampler):
        # rank pi-sharp = 2k exactly when pi^k vanishes nowhere and
        # pi^(k+1) = 0: the reading bridge.rank makes with k = m + 1
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            scale = Fraction(10) ** int(rng.integers(-1, 2))
            pi, mat, _ = _exact_bivector(rng, n, int(rng.integers(0, n // 2 + 1)), scale)
            rank = np.linalg.matrix_rank(mat, tol=1e-8)
            for k in range(n // 2 + 1):
                reads = (vanishing_point(_coefficients(power(pi, k)), pi.chart,
                                         sampler) is None
                         and element_zero(power(pi, k + 1), sampler).passed)
                assert reads == (rank == 2 * k), (mat, k)

    def test_all_cases_occur(self):
        outside = [bool(_outside_image(row[None], n_top, n_pim)[0])
                   for row, n_top, n_pim, _ in _span_cases(0)]
        ranks = {np.linalg.matrix_rank(cols[:, :-1], tol=1e-8)
                 for *_, cols in _span_cases(0)}
        assert any(outside) and not all(outside)
        assert ranks == {0, 2, 4, 6}

    def test_non_finite_matrices_are_undecided(self):
        # E = d/dx3 against pi = d/dx1^d/dx2, E = d/dx1 inside it: one row
        # per case, values of (E ^ pi, pi, E) on three variables
        good = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        bad_inf, bad_nan = good.copy(), good.copy()
        bad_inf[1] = np.inf
        bad_nan[5] = np.nan
        out = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        rows = np.array([good, bad_inf, bad_nan, out])
        assert _outside_image(rows, 1, 3).tolist() == [False, True, True, True]


def _numeric_tier_structure(sampler, name, factor):
    """A model structure under a conformal change by `factor`, the shape of
    the numeric-tier benchmark's inputs, verified."""
    f, ctx = fixture_setup(name, sampler)
    x1, x2, y = (ScalarExpr.var(v) for v in ("x1", "x2", "y"))
    a = exp_(x1 * y + Fraction(3, 2) * x2) if factor == "exp" else 3 + sin_(x1 - y)
    j = verify_jacobi(ctx, f.pi, f.E, sampler)
    return conformal_rescale(j, a, ctx, sampler), ctx


class TestRecordsReadExteriorPowers:
    @pytest.mark.parametrize("factor", ["exp", "sin"])
    @pytest.mark.parametrize("name", ["lcs-model-r2", "contact-model-r3",
                                      "lcs-model-r4", "contact-model-r5"])
    def test_distribution_is_symbolic_on_numeric_tier_shapes(self, sampler, name,
                                                             factor):
        j, ctx = _numeric_tier_structure(sampler, name, factor)
        x2, y = ScalarExpr.var("x2"), ScalarExpr.var("y")
        j2 = conformal_rescale(j, exp_(x2 - Fraction(1, 2) * y), ctx, sampler)
        dist = next(c for c in j2.checks if c.name == "rescale.distribution")
        assert dist.passed and dist.tier == "symbolic" and dist.witness is None

    @pytest.mark.parametrize("name", ["lcs-model-r2", "contact-model-r3"])
    def test_distribution_fails_when_p_moves(self, sampler, monkeypatch, name):
        f, ctx = fixture_setup(name, sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        real = jacobi.verify_jacobi

        def moved(*args):
            j2 = real(*args)
            return dataclasses.replace(j2, P=j2.P.scale(1 + ScalarExpr.var("y") ** 2))

        monkeypatch.setattr(jacobi, "verify_jacobi", moved)
        with pytest.raises(InvariantFailure, match="moved the foliation") as err:
            conformal_rescale(j, exp_(ScalarExpr.var("x1")), ctx, sampler)
        assert err.value.witness is not None

    def test_bridge_rank_fails_on_a_lift_of_higher_rank(self, sampler):
        # contact type with m = 0 and q = 2: Lambda = E ^ d/dt has rank 2;
        # an extra d/dx1 ^ d/dx2 raises it to 4, so Lambda^2 != 0
        chart = Chart(("x0", "x1", "x2"))
        ctx = volume_context(chart, form(chart, 0, 1, 2), sampler)
        j = verify_jacobi(ctx, MultiVector.zero(chart, 2), mv(chart, 0), sampler)
        pz = poissonize(j, sampler)
        extra = MultiVector.basis(pz.chart, [1, 2])
        bad = dataclasses.replace(pz, lam=pz.lam + extra)
        br = check_poissonization_bridge(j, ctx, defining_pair(j, ctx, sampler),
                                         bad, sampler)
        top, rank = (next(c for c in br.checks if c.name == name)
                     for name in ("bridge.power_top", "bridge.rank"))
        assert not top.passed and not rank.passed
        assert rank.tier == "numeric" and rank.witness == top.witness is not None

    def test_a_lift_without_e_dt_has_no_companion(self, sampler):
        # Lambda^(m+1) = t^-(m+1) pi^(m+1) = 0: the bridge stops at the star
        # companion, before any rank record
        f, ctx = fixture_setup("contact-model-r3", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        pz = poissonize(j, sampler)
        t_inv = ScalarExpr.var(pz.t_name) ** -1
        bad = dataclasses.replace(pz, lam=lift_to(pz.chart, j.pi).scale(t_inv))
        with pytest.raises(NoCompanion, match="zero multivector"):
            check_poissonization_bridge(j, ctx, defining_pair(j, ctx, sampler),
                                        bad, sampler)


class TestKernelBugChecks:
    """Checks that only a kernel bug can fail.  On lcs-model-r4 (n = 5,
    q = 1) a collaborator that adds x1 d_0^...^d_(g-1) to each of its
    results of grade g must make the check reading them raise, with a
    witness."""

    @pytest.mark.parametrize("target, grade, stage, message", [
        # d of the 3-form gv; d alpha and d beta are 2-forms
        ("exterior_derivative", 4, "pair", "gv representative is not closed"),
        ("contract_form_into_mv", 2, "pair", "gv contraction rewrite failed"),
        ("contract_form_into_mv", 2, "codim1",
         "codim-1 formula disagrees with beta^(d beta)^q"),
        ("schouten", 3, "poissonize", "[Lambda,Lambda] != 0 (kernel bug)"),
    ], ids=["gv-closed", "gv-rewrite", "codim1-match", "poisson-lift"])
    def test_corrupted_collaborator_raises(self, sampler, monkeypatch, target,
                                           grade, stage, message):
        f, ctx = fixture_setup("lcs-model-r4", sampler)
        j = verify_jacobi(ctx, f.pi, f.E, sampler)
        dp = defining_pair(j, ctx, sampler)
        real = getattr(jacobi, target)

        def corrupted(*args):
            out = real(*args)
            if out.grade != grade:
                return out
            extra = type(out).basis(out.chart, range(grade),
                                    ScalarExpr.var(out.chart.vars[0]))
            return out + extra

        monkeypatch.setattr(jacobi, target, corrupted)
        run = {"pair": lambda: defining_pair(j, ctx, sampler),
               "codim1": lambda: gv_codim1(j, ctx, dp, sampler),
               "poissonize": lambda: poissonize(j, sampler)}[stage]
        with pytest.raises(InvariantFailure) as err:
            run()
        assert str(err.value) == message
        assert err.value.witness is not None
