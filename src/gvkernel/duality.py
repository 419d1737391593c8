"""Volume-form duality: the grade-reversing isomorphism phi, its inverse,
star companions, and the divergence-type operator psi = phi^-1 d phi.

phi(U) = iota_U vol.  phi_inv inverts it mask-by-mask; the identity
phi_inv(alpha) = (-1)^(k(n+1)) iota_alpha phi_inv(1) for a grade-k form
is kept as a tested property rather than the implementation, so the two
routes pin each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .alg import (AlgebraError, DiffForm, MultiVector, contract_mv_into_form,
                  contract_sign, mask_indices, wedge)
from .calculus import exterior_derivative
from .expr import (Chart, CheckFailure, KernelError, Sampler, ScalarExpr, is_zero,
                   vanishing_point)


class VolumeError(KernelError):
    """Volume form not usable: wrong shape or vanishing somewhere sampled."""


class NoCompanion(CheckFailure):
    """Every star-companion candidate vanishes at some sample point."""


@dataclass(frozen=True)
class VolumeContext:
    """A fixed chart volume form plus its cached top multivector phi^-1(1)."""

    chart: Chart
    vol: DiffForm
    top_inverse: MultiVector  # phi^-1(1), satisfies vol(phi^-1(1)) = 1
    rho: ScalarExpr           # the single top coefficient of vol

    @property
    def full_mask(self) -> int:
        return (1 << self.chart.n) - 1


def volume_context(chart: Chart, vol: DiffForm, sampler: Sampler) -> VolumeContext:
    if vol.chart != chart:
        raise VolumeError("volume form lives on a different chart")
    full = (1 << chart.n) - 1
    if set(vol.terms) != {full}:
        raise VolumeError("volume form must be a single top-grade term")
    rho = vol.terms[full]
    witness = vanishing_point([rho], chart, sampler)
    if witness is not None:
        raise VolumeError(f"volume coefficient vanishes near sample point {witness}")
    top_inverse = MultiVector(chart, chart.n, {full: rho.recip()})
    cert = contract_mv_into_form(top_inverse, vol).coefficient(0)
    if not cert.is_one:
        raise VolumeError(f"vol(phi^-1(1)) != 1: got {cert}")
    return VolumeContext(chart, vol, top_inverse, rho)


def apply_vol(ctx: VolumeContext, w: MultiVector) -> ScalarExpr:
    """vol evaluated on a top multivector, as a scalar."""
    return contract_mv_into_form(w, ctx.vol).coefficient(0)


def phi(ctx: VolumeContext, u: MultiVector) -> DiffForm:
    """phi(U) = iota_U vol, grade k -> n-k."""
    return contract_mv_into_form(u, ctx.vol)


def phi_inv(ctx: VolumeContext, omega: DiffForm) -> MultiVector:
    """Exact inverse of phi, solved per basis mask.

    phi(c * d_L) = c * rho * sign(L) * dx_K with K the complement of L, so
    each dx_K component pulls back to (coeff/rho) * sign(L) * d_L.
    """
    if omega.chart != ctx.chart:
        raise AlgebraError("chart mismatch")
    if omega.is_identically_zero:
        return MultiVector.zero(ctx.chart, max(ctx.chart.n - omega.grade, 0))
    full = ctx.full_mask
    rho_inv = ctx.top_inverse.terms[full]
    out = {}
    for kmask, coeff in omega.terms.items():
        lmask = full & ~kmask
        sign, rest = contract_sign(lmask, full)
        assert rest == kmask
        c = coeff * rho_inv
        out[lmask] = c if sign > 0 else -c
    return MultiVector(ctx.chart, ctx.chart.n - omega.grade, out)


def psi(ctx: VolumeContext, u: MultiVector) -> MultiVector:
    """psi(U) = phi^-1 d phi(U); grade-0 inputs map to zero."""
    return phi_inv(ctx, exterior_derivative(phi(ctx, u)))


@dataclass(frozen=True)
class StarCompanion:
    """A chosen *U with vol(U ^ *U) = 1."""

    companion: MultiVector
    complement_mask: int


def _vol_with_basis(ctx: VolumeContext, u: MultiVector, jmask: int) -> ScalarExpr:
    """vol(U ^ d_J), the coefficient star inverts for the complement J."""
    return apply_vol(ctx, wedge(u, MultiVector.basis(ctx.chart, mask_indices(jmask))))


def _candidate_coefficients(ctx: VolumeContext, u: MultiVector
                            ) -> Tuple[Tuple[int, ScalarExpr], ...]:
    """(complement mask J, vol(U ^ d_J)) for the complements of u's stored
    terms, ranked: symbolically constant coefficient first, then lowest
    bitmask."""
    full = ctx.full_mask
    seen = {}
    for imask in u.terms:
        jmask = full & ~imask
        if jmask not in seen:
            seen[jmask] = _vol_with_basis(ctx, u, jmask)
    return tuple(sorted(seen.items(),
                        key=lambda jc: (0 if jc[1].is_rational_const else 1, jc[0])))


def star(ctx: VolumeContext, u: MultiVector, sampler: Sampler,
         choice: int = 0, force_complement: Optional[int] = None) -> StarCompanion:
    """Deterministic star companion (1/vol(U^d_J)) * d_J.

    `choice` selects among validly-ranked candidates (for exhibiting a
    second companion); `force_complement` pins the complement mask, used by
    the Poissonization bridge to match the base-chart choice.  Each
    candidate's vol(U ^ d_J) is computed once, and candidates are sampled
    in rank order only until the chosen one is found.
    """
    if u.is_identically_zero:
        raise NoCompanion("star of the zero multivector")
    if force_complement is not None:
        candidates = ((force_complement, _vol_with_basis(ctx, u, force_complement)),)
    else:
        candidates = _candidate_coefficients(ctx, u)
    valid = []
    for jmask, c in candidates:
        if vanishing_point([c], ctx.chart, sampler) is None:
            valid.append((jmask, c))
            if len(valid) == choice + 1:
                break
    if not valid or choice >= len(valid):
        raise NoCompanion(
            f"no usable companion (grade {u.grade}, {len(valid)} valid candidates)")
    jmask, c = valid[choice]
    companion = MultiVector(ctx.chart, ctx.chart.n - u.grade, {jmask: c.recip()})
    certificate = apply_vol(ctx, wedge(u, companion))
    if not certificate.is_one:
        # reciprocal construction normally cancels exactly; fall back to the
        # numeric contract |certificate - 1| <= tol at every sample point
        verdict = is_zero([certificate - ScalarExpr.one()], ctx.chart, sampler)
        if not verdict.passed:
            raise NoCompanion(
                f"certificate != 1 near {verdict.witness}: {certificate}")
    return StarCompanion(companion, jmask)
