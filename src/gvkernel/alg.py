"""Sparse graded alternating algebra on a chart.

Multivector fields and differential forms are stored as maps from n-bit
index masks (bit i = chart variable i) to normal-form scalar coefficients.
The basis element for mask {i1 < ... < ik} is d/dx_{i1}^...^d/dx_{ik} for
multivectors and dx_{i1}^...^dx_{ik} for forms.

Sign conventions, pinned by the duality property suite:
  * wedge sign by transposition counting on concatenated masks;
  * both interior products apply the contractor's indices in ascending
    order, i.e. iota_{A^B} = iota_B o iota_A on either side of the pairing.

Wedge powers of a grade-2 element b are built as divided powers
D_k = b^k / k! (`divided_powers`).  Grade-2 terms commute, so D_k is the
sum, over each set of k pairwise-disjoint masks of b, of the wedge of their
terms, each set counted once.  One recursion builds the sets by adding a
set's lowest-index term last (the Pfaffian expansion along the first index):

    D_k[t|M] += wedge_sign(t, M) * c_t * D_(k-1)[M]
        for each term c_t of b with t & M = 0 and lowbit(t) < lowbit(M).

An output mask of grade 2k then gets at most 2k - 1 products, one per term
through its lowest index.  The repeated wedge b^(k-1) ^ b sums every
ordering of the same disjoint terms, up to k(2k - 1) products, so the walk
makes k-fold fewer; `power(b, k)` is k! D_k.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .expr import Chart, KernelError, ScalarExpr


class AlgebraError(KernelError):
    """Chart, variance, or grade mismatch between operands."""


def mask_indices(mask: int) -> Tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def indices_mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def wedge_sign(a_mask: int, b_mask: int) -> int:
    """Sign of sorting the concatenation basis(a)++basis(b); 0 on overlap."""
    if a_mask & b_mask:
        return 0
    parity = 0
    while a_mask:
        low = a_mask & -a_mask
        parity += (b_mask & (low - 1)).bit_count()
        a_mask ^= low
    return -1 if parity & 1 else 1


def contract_sign(c_mask: int, t_mask: int) -> Tuple[int, int]:
    """Remove c's indices (ascending) from t; returns (sign, remaining mask).

    Each removal of index i contributes (-1)^(number of smaller indices
    still present).  Returns (0, 0) when some index of c is absent from t.
    """
    if c_mask & ~t_mask:
        return 0, 0
    parity = 0
    t = t_mask
    while c_mask:
        low = c_mask & -c_mask
        parity += (t & (low - 1)).bit_count()
        t ^= low
        c_mask ^= low
    return (-1 if parity & 1 else 1), t


class GradedElement:
    """Common storage for multivectors and forms; immutable after build."""

    __slots__ = ("chart", "grade", "terms")

    def __init__(self, chart: Chart, grade: int, terms: Mapping[int, ScalarExpr]):
        if grade < 0:
            raise AlgebraError(f"negative grade {grade}")
        n = chart.n
        clean: Dict[int, ScalarExpr] = {}
        for mask, coeff in terms.items():
            if coeff.is_zero_form:
                continue
            if mask.bit_count() != grade or mask >> n:
                raise AlgebraError(f"mask {mask:b} invalid for grade {grade} on chart")
            clean[mask] = coeff
        if clean and grade > n:
            raise AlgebraError(f"grade {grade} exceeds chart dimension {n}")
        self.chart = chart
        self.grade = grade
        self.terms = dict(sorted(clean.items()))

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, chart: Chart, grade: int):
        return cls(chart, grade, {})

    @classmethod
    def scalar(cls, chart: Chart, value) -> "GradedElement":
        value = value if isinstance(value, ScalarExpr) else ScalarExpr.const(value)
        return cls(chart, 0, {0: value})

    @classmethod
    def basis(cls, chart: Chart, indices: Iterable[int], coeff=None) -> "GradedElement":
        mask = indices_mask(indices)
        coeff = ScalarExpr.one() if coeff is None else (
            coeff if isinstance(coeff, ScalarExpr) else ScalarExpr.const(coeff))
        return cls(chart, mask.bit_count(), {mask: coeff})

    # -- structure -----------------------------------------------------------
    @property
    def is_identically_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mask: int) -> ScalarExpr:
        return self.terms.get(mask, ScalarExpr.zero())

    def __eq__(self, other) -> bool:
        if type(self) is not type(other) or self.chart != other.chart:
            return False
        if not self.terms and not other.terms:
            return True  # the zero element, whatever grade it was built at
        return self.grade == other.grade and self.terms == other.terms

    def __hash__(self):
        grade = self.grade if self.terms else -1
        return hash((type(self).__name__, self.chart, grade,
                     tuple(self.terms.items())))

    # -- linear operations -----------------------------------------------------
    def _like(self, terms: Mapping[int, ScalarExpr], grade: Optional[int] = None):
        return type(self)(self.chart, self.grade if grade is None else grade, terms)

    def __add__(self, other):
        self._check_mate(other)
        out = dict(self.terms)
        for mask, c in other.terms.items():
            out[mask] = out.get(mask, ScalarExpr.zero()) + c
        grade = self.grade if (self.terms or not other.terms) else other.grade
        return self._like(out, grade)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def scale(self, factor):
        factor = factor if isinstance(factor, ScalarExpr) else ScalarExpr.const(factor)
        if factor.is_one:
            return self
        return self._like({m: factor * c for m, c in self.terms.items()})

    def _check_mate(self, other, same_grade: bool = True):
        if type(self) is not type(other):
            raise AlgebraError(
                f"variance mismatch: {type(self).__name__} vs {type(other).__name__}")
        if self.chart != other.chart:
            raise AlgebraError("chart mismatch")
        if same_grade and self.grade != other.grade and self.terms and other.terms:
            raise AlgebraError(f"grade mismatch: {self.grade} vs {other.grade}")

    # -- printing ----------------------------------------------------------------
    def _basis_str(self, mask: int) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask, c in self.terms.items():
            basis = self._basis_str(mask)
            if not basis:
                parts.append(str(c))
            elif c.is_one:
                parts.append(basis)
            else:
                cs = str(c)
                if " + " in cs or " - " in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{basis}")
        return " + ".join(parts)

    __repr__ = __str__


class MultiVector(GradedElement):
    def _basis_str(self, mask: int) -> str:
        return "^".join(f"d/d{self.chart.vars[i]}" for i in mask_indices(mask))


class DiffForm(GradedElement):
    def _basis_str(self, mask: int) -> str:
        return "^".join(f"d{self.chart.vars[i]}" for i in mask_indices(mask))


def wedge(a: GradedElement, b: GradedElement) -> GradedElement:
    """Graded-commutative exterior product; zero beyond the top grade."""
    a._check_mate(b, same_grade=False)
    grade = a.grade + b.grade
    out: Dict[int, List[ScalarExpr]] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            s = wedge_sign(ma, mb)
            if s == 0:
                continue
            out.setdefault(ma | mb, []).append(ca * cb if s > 0 else -(ca * cb))
    return type(a)(a.chart, grade, _summed(out))


def divided_powers(b: GradedElement) -> Iterator[GradedElement]:
    """D_k = b^k / k! for k = 1, 2, ... of a grade-2 element b, up to the last
    nonzero one; a zero b yields nothing.  See the module docstring."""
    if b.terms and b.grade != 2:
        raise AlgebraError(f"divided powers take a grade-2 element, not grade {b.grade}")
    base = tuple(b.terms.items())
    d = b
    while d.terms:
        yield d
        out: Dict[int, List[ScalarExpr]] = {}
        for mask, cm in d.terms.items():
            below = (mask & -mask) - 1
            for t, ct in base:
                if t & mask or not t & below:
                    continue
                out.setdefault(t | mask, []).append(
                    cm * ct if wedge_sign(t, mask) > 0 else -(cm * ct))
        d = type(b)(b.chart, d.grade + 2, _summed(out))


def power(base: GradedElement, k: int) -> GradedElement:
    """k-fold wedge power k! D_k of a grade-2 element; power(x, 0) is the
    scalar 1."""
    if base.terms and base.grade != 2:
        raise AlgebraError(f"wedge powers take a grade-2 element, not grade {base.grade}")
    if k < 0:
        raise AlgebraError("wedge powers take nonnegative exponents")
    if k == 0:
        return type(base).scalar(base.chart, 1)
    for j, d in enumerate(divided_powers(base), 1):
        if j == k:
            return d.scale(math.factorial(k))
    return type(base).zero(base.chart, 2 * k)


def _summed(parts: Mapping[int, List[ScalarExpr]]) -> Dict[int, ScalarExpr]:
    """Each mask's coefficient: the sum of its products, built once."""
    return {mask: ScalarExpr.sum(terms) for mask, terms in parts.items()}


def _contract(contractor: GradedElement, target: GradedElement,
              result_cls: type) -> GradedElement:
    """iota_contractor target, a `result_cls` of grade target.grade -
    contractor.grade; either one zero contracts to zero."""
    if contractor.chart != target.chart:
        raise AlgebraError("chart mismatch")
    grade = target.grade - contractor.grade
    if contractor.is_identically_zero or target.is_identically_zero:
        return result_cls.zero(target.chart, max(grade, 0))
    if grade < 0:
        raise AlgebraError(f"cannot contract grade {contractor.grade} "
                           f"{type(contractor).__name__} into grade {target.grade} "
                           f"{type(target).__name__}")
    out: Dict[int, List[ScalarExpr]] = {}
    for mc, cc in contractor.terms.items():
        for mt, ct in target.terms.items():
            s, rest = contract_sign(mc, mt)
            if s == 0:
                continue
            out.setdefault(rest, []).append(cc * ct if s > 0 else -(cc * ct))
    return result_cls(target.chart, grade, _summed(out))


def contract_form_into_mv(alpha: DiffForm, u: MultiVector) -> MultiVector:
    """iota_alpha U: each dx_i acts as the graded derivation dual to d/dx_i,
    composite forms acting first-factor-first (iota_{a^b} = iota_b o iota_a)."""
    if not isinstance(alpha, DiffForm) or not isinstance(u, MultiVector):
        raise AlgebraError("contract_form_into_mv takes (DiffForm, MultiVector)")
    return _contract(alpha, u, MultiVector)


def contract_mv_into_form(u: MultiVector, omega: DiffForm) -> DiffForm:
    """iota_U omega for decomposable U = X1^...^Xk: iota_{Xk} ... iota_{X1} omega."""
    if not isinstance(u, MultiVector) or not isinstance(omega, DiffForm):
        raise AlgebraError("contract_mv_into_form takes (MultiVector, DiffForm)")
    return _contract(u, omega, DiffForm)


def sharp(pi: MultiVector, alpha: DiffForm) -> MultiVector:
    """pi-sharp of a 1-form: the contraction iota_alpha pi."""
    if pi.grade != 2 and pi.terms:
        raise AlgebraError("sharp expects a bivector")
    if alpha.grade != 1 and alpha.terms:
        raise AlgebraError("sharp expects a 1-form")
    if pi.is_identically_zero or alpha.is_identically_zero:
        return MultiVector.zero(pi.chart, 1)
    return contract_form_into_mv(alpha, pi)
