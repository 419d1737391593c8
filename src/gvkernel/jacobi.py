"""Jacobi structures: verification, classification, defining pairs,
Godbillon-Vey representatives, Poissonization, and vanishing criteria.

A structure (pi, E) must satisfy [pi,pi] = 2 E^pi and [pi,E] = 0.  Regular
structures split by whether pi^m ^ E vanishes identically (LCS type, even
leaves) or nowhere (contact type, odd leaves); the codimension is
q = n - 2m resp. n - 2m - 1 and must satisfy 0 < q < n for the
Godbillon-Vey machinery.

Defining pairs follow the main construction, with P = pi^m (LCS) or
P = pi^m ^ E (contact) and one sign rule for both kinds (see _beta):
  alpha = phi(P / m!),   beta = phi((-1)^(q+1) [P, *P])
with gv = beta ^ (d beta)^q closed in both cases.  verify_jacobi builds P
while it classifies the structure and carries it on JacobiStructure, so
defining_pair reads it there instead of building it again.

Numeric verdicts read their sample points through expr.first_row.  Ranks
and spans are read off exterior powers, never off sampled matrices: P is
decomposable, nonvanishing, and spans the characteristic distribution, so
  - E lies in Im pi-sharp (LCS type) when E ^ pi^m = 0 in normal form; a
    top that is only below tol at the sample points is held there to
    dist(E, Im pi-sharp) = |E ^ pi^m| / |pi^m| under lstsq's rule;
  - a conformal rescale keeps the distribution when P' = a^k P, with k = m
    (LCS) or m + 1 (contact);
  - rank Lambda-sharp = 2m + 2 on the Poisson lift when Lambda^(m+1)
    vanishes nowhere and Lambda^(m+2) = 0.
Wedge powers are read off divided powers D_k = b^k / k! (alg.divided_powers),
one walk per base.  P, the solves' volume T and the bridge's Lambda^(m+1)
stay at the ordinary scale k! D_k: the nonvanishing checks compare them
with an absolute tol, which the divided scale would shift by k!.

Poissonization note: with the bracket conventions fixed by the axiom
[pi,pi] = 2 E^pi (the ones the model structures satisfy), the bivector
t^-1 pi + E ^ d/dt is the Poisson lift; the frequently printed variant
t^-1 pi + d/dt ^ E fails [L,L] = 0 whenever E ^ pi != 0.  See the bridge
check for the matching correction to the pullback statement.  The bridge
builds Lambda^(m+1) once and checks Lambda^(m+2) = 0 on
Lambda^(m+1) ^ Lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .alg import (AlgebraError, DiffForm, GradedElement, MultiVector,
                  contract_form_into_mv, divided_powers, power, wedge)
from .calculus import exterior_derivative, schouten
from .duality import (StarCompanion, VolumeContext, phi, phi_inv, psi, star,
                      volume_context)
from .expr import (MAX_DIM, Chart, CheckFailure, CheckResult, ExprError, Sampler,
                   ScalarExpr, first_row, is_zero, vanishing_point)


class JacobiError(CheckFailure):
    """Base for structure-level failures."""


class AxiomViolation(JacobiError):
    def __init__(self, which: str, witness=None):
        super().__init__(f"Jacobi axiom violated: {which}", witness)
        self.which = which


class NotRegular(JacobiError):
    pass


class CodimOutOfRange(JacobiError):
    def __init__(self, q: int, n: int):
        super().__init__(f"codimension q={q} outside 0 < q < n={n}")
        self.q = q
        self.n = n


class NotContact(JacobiError):
    pass


class NotLCS(JacobiError):
    pass


class RescaleVanishes(JacobiError):
    pass


class NotCodimOne(JacobiError):
    pass


class ParityObstruction(JacobiError):
    """Poissonization bridge rejected: LCS-type leaf parity cannot match."""


class InvariantFailure(JacobiError):
    pass


# --- element-level sampling helpers -----------------------------------------

def element_zero(el: GradedElement, sampler: Sampler, name: str = "",
                 detail: str = "") -> CheckResult:
    """The record `name` of is_zero on all coefficients of el jointly."""
    return is_zero(_coefficients(el), el.chart, sampler, name, detail)


def _require_zero(el: GradedElement, sampler: Sampler, error: type, message: str,
                  name: str = "", detail: str = "") -> CheckResult:
    """The passing record `name` of el = 0, or `error(message, witness)`
    raised with a sample point where el does not vanish."""
    verdict = element_zero(el, sampler, name, detail)
    if not verdict.passed:
        raise error(message, verdict.witness)
    return verdict


def _require_nonvanishing(el: GradedElement, sampler: Sampler, error: type,
                          message: str) -> None:
    """Raise `error(message, witness)` at a sample point where every
    coefficient of el vanishes."""
    witness = vanishing_point(_coefficients(el), el.chart, sampler)
    if witness is not None:
        raise error(message, witness)


def _coefficients(*els: GradedElement) -> List[ScalarExpr]:
    return [c for el in els for c in el.terms.values()]


_SPAN_TOL = 1e-7


def _outside_image(vals: np.ndarray, n_top: int, n_pim: int) -> np.ndarray:
    """For every row of `vals`, the values of `_coefficients(E ^ pi^m, pi^m,
    E)`, whether E lies outside Im pi-sharp.  pi^m is decomposable and spans
    Im pi-sharp, so dist(E, Im pi-sharp) = |E ^ pi^m| / |pi^m| (Euclidean
    norms of the coefficient vectors), held to lstsq's rule: E is inside
    when every |E_i| <= _SPAN_TOL, or when the distance is at most
    _SPAN_TOL * max(1, |E|).  A row with a non-finite value counts as
    outside."""
    top, pim, e = np.split(vals, [n_top, n_top + n_pim], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.hypot.reduce(top, axis=1) / np.hypot.reduce(pim, axis=1)
    inside = ((np.abs(e) <= _SPAN_TOL).all(axis=1)
              | (dist <= _SPAN_TOL * np.maximum(1.0, np.hypot.reduce(e, axis=1))))
    return ~(inside & np.isfinite(vals).all(axis=1))


# --- verification and classification ------------------------------------------

@dataclass(frozen=True)
class JacobiStructure:
    chart: Chart
    pi: MultiVector
    E: MultiVector
    m: int
    kind: str  # "lcs" | "contact"
    q: int
    P: MultiVector  # pi^m (LCS) or pi^m ^ E (contact), built by verify_jacobi
    checks: Tuple[CheckResult, ...]


def verify_jacobi(ctx: VolumeContext, pi: MultiVector, E: MultiVector,
                  sampler: Sampler) -> JacobiStructure:
    """Check the axioms, compute the rank exponent m, classify, and return
    the structure.  Raises AxiomViolation / NotRegular; see require_codim."""
    chart = ctx.chart
    if pi.chart != chart or E.chart != chart:
        raise AlgebraError("chart mismatch")
    if (pi.terms and pi.grade != 2) or (E.terms and E.grade != 1):
        raise AlgebraError("expected a bivector and a vector field")
    axioms = (
        _require_zero(schouten(pi, pi) - wedge(E, pi).scale(2), sampler, AxiomViolation,
                      "[pi,pi] = 2E^pi", "jacobi.axiom1", "[pi,pi] - 2E^pi"),
        _require_zero(schouten(pi, E), sampler, AxiomViolation, "[pi,E] = 0",
                      "jacobi.axiom2", "[pi,E]"))

    # rank exponent: the number m of nonzero divided powers pi^k / k!
    powers = list(divided_powers(pi))
    m = len(powers)
    pim = powers[-1].scale(math.factorial(m)) if powers else MultiVector.scalar(chart, 1)
    _require_nonvanishing(pim, sampler, NotRegular, f"pi^{m} vanishes at a sample point")

    top = wedge(pim, E)
    kind = "lcs"  # E ^ pi^m = 0 exactly puts E in Im pi-sharp
    if not top.is_identically_zero:
        witness = vanishing_point(_coefficients(top), chart, sampler)
        if witness is None:
            kind = "contact"
        elif not element_zero(top, sampler).passed:
            raise NotRegular(f"pi^{m}^E changes rank across sample points", witness)
        else:
            # a top that is only below tol at the sample points needs the
            # distance itself
            row = first_row(
                _coefficients(top, pim, E), chart, sampler,
                lambda vals: _outside_image(vals, len(top.terms), len(pim.terms)))
            if row is not None:
                raise NotRegular("E leaves Im pi-sharp at a sample point", row[0])
    q = chart.n - 2 * m - (kind == "contact")
    checks = axioms + (
        CheckResult("jacobi.regular", "numeric", True, detail=f"m={m} kind={kind}"),
        CheckResult("jacobi.codim", "symbolic", 0 < q < chart.n, detail=f"q={q}"))
    return JacobiStructure(chart, pi, E, m, kind, q,
                           top if kind == "contact" else pim, checks)


def require_codim(j: JacobiStructure) -> None:
    """The Godbillon-Vey machinery (pairs, gv, the bridge) needs 0 < q < n."""
    if not (0 < j.q < j.chart.n):
        raise CodimOutOfRange(j.q, j.chart.n)


# gv_codim1's and the bridge's preconditions, checkable before their inputs.
def require_codim_one(j: JacobiStructure) -> None:
    if j.q != 1:
        raise NotCodimOne(f"codimension is {j.q}, not 1")


def require_contact(j: JacobiStructure) -> None:
    if j.kind != "contact":
        raise ParityObstruction(
            "LCS-type leaves are even-dimensional; the symplectic foliation "
            "of the Poissonization has odd pullback rank and cannot match")


# --- constructions from contact / LCS data ------------------------------------

def contact_to_jacobi(chart: Chart, theta: DiffForm, sampler: Sampler
                      ) -> Tuple[MultiVector, MultiVector]:
    """Reeb field and bivector of a contact form; returns (pi, E).

    With n = 2m + 1, D_j = (d theta)^j / j! (one walk) and the volume
    T = theta ^ (d theta)^m, both are duals of powers (phi_T = phi against T):
        E = phi_T^-1((d theta)^m),   pi = -m! phi_T^-1(theta ^ D_(m-1)).
    E is the Reeb field: iota_E T = (d theta)^m exactly when theta(E) = 1 and
    iota_E d theta = 0.  The sign of pi is the axiom-valid one; the opposite
    sign satisfies [pi,pi] = -2E^pi instead and fails verification.
    """
    if chart.n % 2 == 0:
        raise NotContact("contact charts have odd dimension")
    if theta.grade != 1:
        raise NotContact("theta must be a 1-form")
    m = chart.n // 2
    d = [DiffForm.scalar(chart, 1), *divided_powers(exterior_derivative(theta))]
    f = math.factorial(m)
    dtheta_m = d[m].scale(f) if m < len(d) else DiffForm.zero(chart, 2 * m)
    top = wedge(theta, dtheta_m)
    _require_nonvanishing(top, sampler, NotContact,
                          "theta ^ (d theta)^m vanishes at a sample point")
    ctx = volume_context(chart, top, sampler)  # repeats the check just passed
    pi = phi_inv(ctx, wedge(theta, d[m - 1])).scale(-f) if m else MultiVector.zero(chart, 2)
    return pi, phi_inv(ctx, dtheta_m)


def lcs_to_jacobi(chart: Chart, omega1: DiffForm, omega2: DiffForm,
                  sampler: Sampler) -> Tuple[MultiVector, MultiVector]:
    """(pi, E) of a locally conformal symplectic pair (omega1 = the closed
    1-form, omega2 = the nondegenerate 2-form).

    With n = 2k, D_j = omega2^j / j! (one walk) and phi_T = phi against
    T = omega2^k = k! D_k,
        pi = k! phi_T^-1(D_(k-1)),   E = iota_omega1 pi,
    so iota_{pi-sharp(a)} omega2 = -a; the sign is pinned by that and the
    axioms.
    """
    n = chart.n
    if n % 2 != 0:
        raise NotLCS("LCS charts have even dimension")
    if (omega1.terms and omega1.grade != 1) or omega2.grade != 2:
        raise NotLCS("expected a 1-form and a 2-form")
    _require_zero(exterior_derivative(omega1), sampler, NotLCS, "d omega = 0 fails")
    _require_zero(exterior_derivative(omega2) - wedge(omega1, omega2), sampler, NotLCS,
                  "d Omega = omega ^ Omega fails")
    k = n // 2
    d = [DiffForm.scalar(chart, 1), *divided_powers(omega2)]
    f = math.factorial(k)
    top = d[k].scale(f) if k < len(d) else DiffForm.zero(chart, n)
    _require_nonvanishing(top, sampler, NotLCS, "Omega^(n/2) vanishes at a sample point")
    ctx = volume_context(chart, top, sampler)  # repeats the check just passed
    pi = phi_inv(ctx, d[k - 1]).scale(f)
    # omega = 0 may arrive as a grade-0 form, whose contraction is grade 2
    e = contract_form_into_mv(omega1, pi) if omega1.terms else MultiVector.zero(chart, 1)
    return pi, e


# --- defining pairs and the GV representative ---------------------------------

@dataclass(frozen=True)
class DefiningPair:
    alpha: DiffForm
    beta: DiffForm
    q: int
    gv: DiffForm
    companion_used: StarCompanion
    checks: Tuple[CheckResult, ...]


def _beta(ctx: VolumeContext, p: MultiVector, comp: StarCompanion,
          q: int) -> DiffForm:
    """beta = phi((-1)^(q+1) [P, *P]) for both structure types, q the
    codimension.  d alpha = beta ^ alpha pins the sign under the bracket
    conventions fixed by [pi,pi] = 2E^pi; phi(-[*P, P]) agrees with it except
    for contact type with even q, where it fails d alpha = beta ^ alpha."""
    bracket = schouten(p, comp.companion)
    return phi(ctx, bracket if q % 2 else -bracket)


def defining_pair(j: JacobiStructure, ctx: VolumeContext, sampler: Sampler,
                  star_choice: int = 0) -> DefiningPair:
    """Construct (alpha, beta) and gv = beta ^ (d beta)^q, verifying
    d alpha = beta ^ alpha, d gv = 0, and the contraction rewriting of gv."""
    require_codim(j)
    comp = star(ctx, j.P, sampler, choice=star_choice)
    beta = _beta(ctx, j.P, comp, j.q)
    alpha = phi(ctx, j.P).scale(Fraction(1, math.factorial(j.m)))
    dbeta = exterior_derivative(beta)
    dbq = power(dbeta, j.q)
    gv = wedge(beta, dbq)

    defining = _require_zero(exterior_derivative(alpha) - wedge(beta, alpha), sampler,
                             InvariantFailure, "d alpha != beta ^ alpha",
                             "pair.defining", "d alpha = beta ^ alpha")
    closed = _require_zero(exterior_derivative(gv), sampler, InvariantFailure,
                           "gv representative is not closed",
                           "pair.gv_closed", "d(beta ^ (d beta)^q) = 0")
    rewritten = phi(ctx, contract_form_into_mv(dbq, phi_inv(ctx, beta))) \
        if dbq.grade <= j.chart.n - 1 else DiffForm.zero(j.chart, gv.grade)
    rewrite = _require_zero(gv - rewritten, sampler, InvariantFailure,
                            "gv contraction rewrite failed", "pair.gv_rewrite",
                            "gv = phi(iota_{(d beta)^q} phi^-1(beta))")
    return DefiningPair(alpha, beta, j.q, gv, comp, (defining, closed, rewrite))


def gv_representative(j: JacobiStructure, ctx: VolumeContext, sampler: Sampler,
                      star_choice: int = 0) -> DiffForm:
    return defining_pair(j, ctx, sampler, star_choice).gv


def gv_codim1(j: JacobiStructure, ctx: VolumeContext, dp: DefiningPair,
              sampler: Sampler) -> Tuple[DiffForm, CheckResult]:
    """Codimension-1 shortcut phi(+-iota_beta psi(W)), psi(W) = phi^-1(d beta)
    for the pair's beta = phi(W); returned with its check against dp.gv."""
    require_codim_one(j)
    sign = 1 if j.chart.n % 2 == 1 else -1  # (-1)^(n+1)
    psi_w = phi_inv(ctx, exterior_derivative(dp.beta))
    if psi_w.grade == 0:  # n = 2: iota_beta of a function is 0, as is the 3-form gv
        psi_w = MultiVector.zero(j.chart, 0)
    result = phi(ctx, contract_form_into_mv(dp.beta, psi_w)).scale(sign)
    return result, _require_zero(result - dp.gv, sampler, InvariantFailure,
                                 "codim-1 formula disagrees with beta^(d beta)^q",
                                 "codim1.match", "codim-1 formula agrees with beta^(d beta)^q")


# --- Poissonization -------------------------------------------------------------

@dataclass(frozen=True)
class Poissonization:
    chart: Chart           # base chart + distinguished positive variable
    t_name: str
    lam: MultiVector
    poisson_check: CheckResult


def _fresh_t(chart: Chart) -> str:
    """The first of t, t_, t__, ... that the chart holds neither as a
    variable nor as the 1-form d<t> of one."""
    name = "t"
    while name in chart.vars or f"d{name}" in chart.vars:
        name += "_"
    return name


def lift_to(chart_ext: Chart, el: GradedElement) -> GradedElement:
    """Reinterpret a base-chart element on the extended chart (pure pullback:
    the new variable is appended last, so index masks are unchanged)."""
    return type(el)(chart_ext, el.grade, dict(el.terms))


def poissonize(j: JacobiStructure, sampler: Sampler) -> Poissonization:
    """Poisson bivector t^-1 pi + E ^ d/dt on chart x (0, inf)."""
    if j.chart.n + 1 > MAX_DIM:
        raise ExprError(f"the Poisson lift needs {j.chart.n + 1} variables, "
                        f"over the chart cap of {MAX_DIM}")
    t = _fresh_t(j.chart)
    ext = j.chart.extend(t)
    t_inv = ScalarExpr.var(t) ** -1
    pi_l = lift_to(ext, j.pi)
    e_l = lift_to(ext, j.E)
    dt_mv = MultiVector.basis(ext, [ext.n - 1])
    lam = pi_l.scale(t_inv) + wedge(e_l, dt_mv)
    return Poissonization(ext, t, lam, _require_zero(
        schouten(lam, lam), sampler, InvariantFailure, "[Lambda,Lambda] != 0 (kernel bug)",
        "poissonization.poisson", "[Lambda,Lambda] = 0"))


@dataclass(frozen=True)
class BridgeReport:
    A: DiffForm
    B: DiffForm
    checks: Tuple[CheckResult, ...]


def check_poissonization_bridge(j: JacobiStructure, ctx: VolumeContext,
                                dp: DefiningPair, pz: Poissonization,
                                sampler: Sampler) -> BridgeReport:
    """Pull the lift pz's defining 1-form B back against the pair dp's beta.

    For contact type the symplectic foliation of the Poissonization is the
    pullback foliation, and with the star companion on the extended chart
    seeded from the base companion,

        B = pr^*(beta) - m t^-1 dt

    for the beta returned by defining_pair (both built by the same
    (-1)^(q+1) [P, *P] rule).  The trailing term is
    d log t^-m, a defining-pair gauge: A differs from pr^* alpha by the
    factor +-t^-m, so the two pairs present the same Godbillon-Vey data.
    (The bare equality without the gauge term only holds when m = 0.)
    """
    require_contact(j)
    ext = pz.chart
    t_idx = ext.n - 1
    t_inv = ScalarExpr.var(pz.t_name) ** -1
    vol_ext = DiffForm(ext, ext.n, {(1 << ext.n) - 1: ctx.rho})
    ctx_ext = volume_context(ext, vol_ext, sampler)
    m = j.m

    checks: List[CheckResult] = []
    lam_m1 = power(pz.lam, m + 1)
    top = wedge(lift_to(ext, j.P), MultiVector.basis(ext, [t_idx]))
    checks.append(element_zero(lam_m1 - top.scale(ScalarExpr.const(m + 1) * t_inv ** m),
                               sampler, "bridge.power",
                               "Lambda^(m+1) = (m+1) t^-m pi^m ^ E ^ dt"))
    top_v = element_zero(wedge(lam_m1, pz.lam), sampler, "bridge.power_top",
                         "Lambda^(m+2) = 0")
    checks.append(top_v)

    comp_ext = star(ctx_ext, lam_m1, sampler,
                    force_complement=dp.companion_used.complement_mask)
    b_form = _beta(ctx_ext, lam_m1, comp_ext, j.q)  # the lift has codimension q too
    a_form = phi(ctx_ext, lam_m1).scale(Fraction(1, math.factorial(m + 1)))
    checks.append(element_zero(exterior_derivative(a_form) - wedge(b_form, a_form),
                               sampler, "bridge.pair", "dA = B ^ A on the Poissonization"))

    gauge = DiffForm.basis(ext, [t_idx], ScalarExpr.const(-m) * t_inv)
    # the printed detail predates the sign rule in _beta; golden reports pin it
    checks.append(element_zero(b_form - (lift_to(ext, dp.beta) + gauge), sampler,
                               "bridge.prop53", "B = (-1)^(q+1) pr*(beta) - m t^-1 dt"))

    # rank Lambda-sharp = 2m + 2 exactly when Lambda^(m+1) vanishes nowhere
    # and Lambda^(m+2) = 0
    witness = top_v.witness if not top_v.passed else \
        vanishing_point(_coefficients(lam_m1), ext, sampler)
    checks.append(CheckResult("bridge.rank", "numeric", witness is None, witness,
                              f"rank Lambda-sharp = {2 * m + 2}"))
    return BridgeReport(a_form, b_form, tuple(checks))


# --- conformal rescaling and unimodularity ---------------------------------------

def conformal_rescale(j: JacobiStructure, a: ScalarExpr, ctx: VolumeContext,
                      sampler: Sampler) -> JacobiStructure:
    """(pi, E) -> (a pi, a E - iota_{da} pi) for nonvanishing a, verified,
    with its checks named rescale.*: the rescaled structure's own, then
    that (m, kind, q) and the characteristic distribution are unchanged.

    The contraction enters with a minus sign: expanding [a pi, a pi] with the
    Leibniz rule gives -2a (iota_{da} pi)^pi + a^2 [pi,pi], so the axiom
    [pi',pi'] = 2E'^pi' forces E' = aE - iota_{da} pi.
    """
    factor = DiffForm.scalar(j.chart, a)
    _require_nonvanishing(factor, sampler, RescaleVanishes,
                          "conformal factor vanishes near a sample point")
    da = exterior_derivative(factor)
    j2 = verify_jacobi(ctx, j.pi.scale(a), j.E.scale(a) - contract_form_into_mv(da, j.pi),
                       sampler)
    if 0 < j.q < j.chart.n:
        require_codim(j2)
    if (j2.m, j2.kind, j2.q) != (j.m, j.kind, j.q):
        raise InvariantFailure("conformal rescale changed (m, kind, q)")

    # P' = a^k P, k = m (LCS) or m + 1 (contact): for contact type
    # pi^m ^ iota_{da} pi = iota_{da}(pi^(m+1)) / (m+1) = 0
    k = j.m + (j.kind == "contact")
    distribution = _require_zero(j2.P - j.P.scale(a ** k), sampler, InvariantFailure,
                                 "conformal rescale moved the foliation",
                                 "rescale.distribution", "Im pi-sharp + <E> unchanged")
    invariants = CheckResult("rescale.invariants", "symbolic", True,
                             detail=f"m {j.m}->{j2.m}, kind {j.kind}->{j2.kind}")
    return replace(j2, checks=tuple(replace(c, name=f"rescale.{c.name}") for c in j2.checks)
                   + (invariants, distribution))


def unimodularity(ctx: VolumeContext, u: MultiVector,
                  sampler: Sampler) -> Tuple[MultiVector, CheckResult]:
    """psi(U), the certificate, and its check psi(U) = 0."""
    value = psi(ctx, u)
    return value, element_zero(value, sampler, "unimodular.psi", f"psi = {value}")
