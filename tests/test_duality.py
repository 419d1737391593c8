import random
from fractions import Fraction

import pytest

from gvkernel.alg import (DiffForm, MultiVector, contract_form_into_mv, power,
                          wedge)
from gvkernel.calculus import exterior_derivative, schouten
from gvkernel.duality import (NoCompanion, VolumeError, apply_vol, phi,
                              phi_inv, psi, star, volume_context)
from gvkernel.expr import Chart, Sampler, ScalarExpr, exp_

from conftest import rand_form, rand_mv, rand_scalar

C2 = Chart(("x1", "x2"))
C3 = Chart(("x1", "x2", "x3"))


def flat_ctx(chart, sampler):
    return volume_context(chart, DiffForm.basis(chart, range(chart.n)), sampler)


class TestVolumeContext:
    def test_flat(self, sampler):
        ctx = flat_ctx(C2, sampler)
        assert ctx.top_inverse == MultiVector.basis(C2, [0, 1])

    def test_rescaled_certificate_is_exactly_one(self, sampler):
        rho = 2 + ScalarExpr.var("x1") ** 2
        ctx = volume_context(C2, DiffForm(C2, 2, {0b11: rho}), sampler)
        assert apply_vol(ctx, ctx.top_inverse).is_one

    def test_certificate_of_a_power_of_a_reciprocal_is_one(self, sampler):
        rho = (2 + ScalarExpr.var("x1") ** 2 + ScalarExpr.var("x2") ** 2) ** -2
        ctx = volume_context(C2, DiffForm(C2, 2, {0b11: rho}), sampler)
        assert apply_vol(ctx, ctx.top_inverse).is_one

    def test_rejects_multi_term_vol(self, sampler):
        bad = DiffForm(C3, 2, {0b011: ScalarExpr.one()})
        with pytest.raises(VolumeError):
            volume_context(C3, bad, sampler)

    def test_rejects_vanishing_coefficient(self, sampler):
        # numerically zero everywhere sampled, but not a symbolic zero
        from gvkernel.expr import cos_, sin_
        x1 = ScalarExpr.var("x1")
        rho = sin_(x1) ** 2 + cos_(x1) ** 2 - 1 + ScalarExpr.zero()
        assert not rho.is_zero_form
        bad = DiffForm(C2, 2, {0b11: rho})
        with pytest.raises(VolumeError):
            volume_context(C2, bad, sampler)


class TestPhi:
    def test_r2_values(self, sampler):
        ctx = flat_ctx(C2, sampler)
        assert phi(ctx, MultiVector.basis(C2, [0])) == DiffForm.basis(C2, [1])
        assert phi(ctx, MultiVector.basis(C2, [1])) == DiffForm.basis(C2, [0]).scale(-1)
        assert phi(ctx, MultiVector.scalar(C2, 1)) == ctx.vol

    def test_r4_iterated_contraction(self, sampler):
        c4 = Chart(("x0", "x1", "x2", "y"))
        ctx = flat_ctx(c4, sampler)
        u = MultiVector.basis(c4, [0, 1, 2])
        assert phi(ctx, u) == DiffForm.basis(c4, [3])

    def test_phi_inv_examples(self, sampler):
        ctx = flat_ctx(C2, sampler)
        assert phi_inv(ctx, DiffForm.basis(C2, [1])) == MultiVector.basis(C2, [0])
        assert phi_inv(ctx, ctx.vol) == MultiVector.scalar(C2, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_two_sided_inverse_randomized(self, sampler, n):
        chart = Chart(tuple(f"x{i}" for i in range(1, n + 1)))
        rho = 2 + rand_scalar(random.Random(n), chart, 1, 1) ** 2
        ctx = volume_context(chart, DiffForm(chart, n, {(1 << n) - 1: rho}), sampler)
        rng = random.Random(10 + n)
        for _ in range(25):
            k = rng.randint(0, n)
            u = rand_mv(rng, chart, k)
            om = rand_form(rng, chart, k)
            assert (phi_inv(ctx, phi(ctx, u)) - u).is_identically_zero
            assert (phi(ctx, phi_inv(ctx, om)) - om).is_identically_zero

    def test_eq3_pins_the_sign(self, sampler):
        # phi_inv(alpha) = (-1)^(k(n+1)) iota_alpha phi_inv(1), grade-k alpha
        for n in (2, 3, 4, 5):
            chart = Chart(tuple(f"x{i}" for i in range(1, n + 1)))
            ctx = flat_ctx(chart, sampler)
            rng = random.Random(20 + n)
            for _ in range(20):
                k = rng.randint(0, n)
                om = rand_form(rng, chart, k)
                lhs = phi_inv(ctx, om)
                rhs = contract_form_into_mv(om, ctx.top_inverse).scale(
                    (-1) ** (k * (n + 1)))
                assert (lhs - rhs).is_identically_zero

    def test_eq4_pins_the_contraction_pairing(self, sampler):
        for n in (2, 3, 4):
            chart = Chart(tuple(f"x{i}" for i in range(1, n + 1)))
            ctx = flat_ctx(chart, sampler)
            rng = random.Random(30 + n)
            for _ in range(25):
                k = rng.randint(0, n)
                l = rng.randint(n - k, n)
                u, v = rand_mv(rng, chart, k), rand_mv(rng, chart, l)
                lhs = phi_inv(ctx, wedge(phi(ctx, u), phi(ctx, v)))
                r1 = contract_form_into_mv(phi(ctx, u), v).scale(
                    (-1) ** ((n + k) * (l + 1)))
                r2 = contract_form_into_mv(phi(ctx, v), u).scale(
                    (-1) ** ((n + 1) * (n + l)))
                assert (lhs - r1).is_identically_zero
                assert (lhs - r2).is_identically_zero


class TestPsi:
    def test_constant_field_divergence_free(self, sampler):
        ctx = flat_ctx(C3, sampler)
        assert psi(ctx, MultiVector.basis(C3, [0])).is_identically_zero

    def test_euler_field_divergence(self, sampler):
        ctx = flat_ctx(C3, sampler)
        u = MultiVector.basis(C3, [0], ScalarExpr.var("x1"))
        assert psi(ctx, u) == MultiVector.scalar(C3, 1)

    def test_constant_bivector(self, sampler):
        ctx = flat_ctx(C3, sampler)
        assert psi(ctx, MultiVector.basis(C3, [0, 1])).is_identically_zero

    def test_grade_zero_maps_to_zero(self, sampler):
        ctx = flat_ctx(C3, sampler)
        assert psi(ctx, MultiVector.scalar(C3, ScalarExpr.var("x1"))).is_identically_zero

    def test_lemma_42_randomized(self, sampler):
        # psi(U^V) = (-1)^l [U,V] + (-1)^l psi(U)^V + U^psi(V)
        rng = random.Random(42)
        for n, chart in ((3, C3), (4, Chart(("x1", "x2", "x3", "x4")))):
            ctx = flat_ctx(chart, sampler)
            for _ in range(30):
                k = rng.randint(0, n - 1)
                l = rng.randint(0, n - k)
                u = rand_mv(rng, chart, k)
                v = rand_mv(rng, chart, l)
                sgn = (-1) ** l
                lhs = psi(ctx, wedge(u, v))
                rhs = schouten(u, v).scale(sgn) + \
                    wedge(psi(ctx, u), v).scale(sgn) + wedge(u, psi(ctx, v))
                assert (lhs - rhs).is_identically_zero


class TestStar:
    def test_flat_basis(self, sampler):
        ctx = flat_ctx(C2, sampler)
        st = star(ctx, MultiVector.basis(C2, [0]), sampler)
        assert st.companion == MultiVector.basis(C2, [1])
        assert st.certificate.is_one

    def test_scaling_normalizes(self, sampler):
        ctx = flat_ctx(C2, sampler)
        st = star(ctx, MultiVector.basis(C2, [0], 2), sampler)
        assert st.companion == MultiVector.basis(C2, [1], Fraction(1, 2))

    def test_contact_fixture_complement(self, sampler):
        c4 = Chart(("x0", "x1", "x2", "y"))
        ctx = flat_ctx(c4, sampler)
        u = MultiVector.basis(c4, [0, 1, 2])
        st = star(ctx, u, sampler)
        assert st.companion == MultiVector.basis(c4, [3])

    def test_exp_coefficient_inverts_exactly(self, sampler):
        ctx = flat_ctx(C3, sampler)
        u = MultiVector(C3, 2, {0b011: exp_(ScalarExpr.var("x3"))})
        st = star(ctx, u, sampler)
        assert st.certificate.is_one
        assert st.companion == MultiVector.basis(C3, [2], exp_(ScalarExpr.var("x3")).recip())

    def test_certificate_always_one_over_successes(self, sampler):
        rng = random.Random(77)
        ctx = flat_ctx(C3, sampler)
        found = 0
        for _ in range(40):
            k = rng.randint(1, 3)
            u = rand_mv(rng, C3, k, 2)
            if u.is_identically_zero:
                continue
            try:
                st = star(ctx, u, sampler)
            except NoCompanion:
                continue
            found += 1
            v = apply_vol(ctx, wedge(u, st.companion))
            assert st.certificate.is_one or not v.is_zero_form
        assert found > 10

    @staticmethod
    def _two_candidates(sampler):
        # complements 0b11100 (constant coefficient) and 0b10110 (1 + x3^2)
        c5 = Chart(("x1", "x2", "x3", "x4", "y"))
        ctx = flat_ctx(c5, sampler)
        f = 1 + ScalarExpr.var("x3") ** 2
        return ctx, MultiVector(c5, 2, {0b00011: ScalarExpr.one(), 0b01001: f})

    def test_ranking_prefers_constant_coefficient(self, sampler):
        # two candidate complements; the constant-certificate one wins
        ctx, pi = self._two_candidates(sampler)
        st0 = star(ctx, pi, sampler, choice=0)
        assert st0.complement_mask == 0b11100  # constant coefficient preferred
        st1 = star(ctx, pi, sampler, choice=1)
        assert st1.certificate.is_one  # wrapped-poly reciprocal cancels exactly

    def test_choice_past_the_valid_candidates_counts_them_all(self, sampler):
        ctx, pi = self._two_candidates(sampler)
        with pytest.raises(NoCompanion, match=r"\(grade 2, 2 valid candidates\)"):
            star(ctx, pi, sampler, choice=2)

    @pytest.mark.parametrize("choice", [0, 1])
    def test_forced_complement_matches_the_ranked_choice(self, sampler, choice):
        ctx, pi = self._two_candidates(sampler)
        ranked = star(ctx, pi, sampler, choice=choice)
        forced = star(ctx, pi, sampler, force_complement=ranked.complement_mask)
        assert forced.complement_mask == ranked.complement_mask
        assert forced.companion == ranked.companion
        assert forced.certificate == ranked.certificate

    @pytest.mark.parametrize("choice, sampled", [(0, 1), (1, 2)])
    def test_sampling_stops_at_the_chosen_candidate(self, sampler, monkeypatch,
                                                    choice, sampled):
        from gvkernel import duality
        ctx, pi = self._two_candidates(sampler)
        original, calls = duality.vanishing_point, []
        monkeypatch.setattr(duality, "vanishing_point",
                            lambda *args: calls.append(args) or original(*args))
        star(ctx, pi, sampler, choice=choice)
        assert len(calls) == sampled

    def test_zero_input_rejected(self, sampler):
        ctx = flat_ctx(C2, sampler)
        with pytest.raises(NoCompanion):
            star(ctx, MultiVector.zero(C2, 1), sampler)

    def test_vanishing_coefficient_rejected(self, sampler):
        from gvkernel.expr import cos_, sin_
        ctx = flat_ctx(C2, sampler)
        x1 = ScalarExpr.var("x1")
        degenerate = sin_(x1) ** 2 + cos_(x1) ** 2 - 1
        u = MultiVector.basis(C2, [0], degenerate)
        with pytest.raises(NoCompanion):
            star(ctx, u, sampler)

    @staticmethod
    def _star_with_certificate_times(factor, sampler, monkeypatch):
        """star of d/dx1 on C2 with its certificate multiplied by `factor`.
        The complement is forced, so star evaluates the volume twice: once
        for the one candidate, then for the certificate."""
        from gvkernel import duality
        ctx = flat_ctx(C2, sampler)
        original, calls = duality.apply_vol, []

        def apply_vol(ctx, top):
            calls.append(top)
            value = original(ctx, top)
            return value * factor if len(calls) == 2 else value

        monkeypatch.setattr(duality, "apply_vol", apply_vol)
        return star(ctx, MultiVector.basis(C2, [0]), sampler, force_complement=0b10)

    def test_certificate_one_only_numerically_is_accepted(self, sampler, monkeypatch):
        from gvkernel.expr import cos_, sin_
        x1 = ScalarExpr.var("x1")
        st = self._star_with_certificate_times(sin_(x1) ** 2 + cos_(x1) ** 2,
                                               sampler, monkeypatch)
        assert not st.certificate.is_one  # decided by sampling, not by the form
        assert st.companion == MultiVector.basis(C2, [1])

    def test_certificate_not_one_is_refused_with_a_witness(self, sampler, monkeypatch):
        factor = 1 + ScalarExpr.var("x1") ** 2
        with pytest.raises(NoCompanion, match=r"certificate != 1 near \(-?\d"):
            self._star_with_certificate_times(factor, sampler, monkeypatch)

    def test_volume_certificate_with_companion(self, sampler):
        # vol(U ^ *U) = 1 for every successful call, rescaled volume included
        rho = 2 + ScalarExpr.var("x2") ** 2
        ctx = volume_context(C3, DiffForm(C3, 3, {0b111: rho}), sampler)
        st = star(ctx, MultiVector.basis(C3, [0, 1]), sampler)
        assert st.certificate.is_one


class TestCorollary43:
    def test_psi_power_identities_on_fixtures(self, sampler):
        from gvkernel.fixtures import FIXTURE_NAMES, get_fixture
        for name in FIXTURE_NAMES:
            f = get_fixture(name)
            ctx = volume_context(f.chart, f.vol, sampler)
            for k in range(1, f.m + 2):
                pik = power(f.pi, k)
                lhs1 = psi(ctx, pik)
                rhs1 = wedge(psi(ctx, f.pi), power(f.pi, k - 1)).scale(k) + \
                    wedge(f.E, power(f.pi, k - 1)).scale(k * (k - 1))
                assert (lhs1 - rhs1).is_identically_zero, (name, k)
                # second display, psi(E) entering as a scalar multiple
                lhs2 = psi(ctx, wedge(pik, f.E))
                rhs2 = wedge(wedge(psi(ctx, f.pi), power(f.pi, k - 1)).scale(-k), f.E) \
                    + pik.scale(psi(ctx, f.E).coefficient(0))
                assert (lhs2 - rhs2).is_identically_zero, (name, k)
                # proof step: [pi, pi^k] = 2k E ^ pi^k
                assert (schouten(f.pi, pik)
                        - wedge(f.E, pik).scale(2 * k)).is_identically_zero, (name, k)
