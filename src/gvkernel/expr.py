"""Exact symbolic scalar expressions on a coordinate chart.

An expression is kept permanently in a normal form: a sparse polynomial over
the rationals whose "variables" are atoms.  An atom is either a chart
variable, a transcendental call (exp/sin/cos/ln of a normal-form argument),
or an opaque wrapped polynomial used to represent reciprocals of multi-term
coefficients.  Monomials map atoms to nonzero integer exponents; negative
exponents encode reciprocals (there is no division node), e.g. 1/t is the
monomial t^-1.

Because construction normalizes eagerly, two structurally equal expressions
are the same normal form and print identically.  Atoms are interned
(hash-consed), so equal atoms are one object and compare by identity.

Most products of operands without wrapped polynomials are built directly,
without expanding or cancelling, because the operands already fix the
normal form: a nonzero constant scales the other operand's terms (a
nonzero rational keeps every monomial and their order, and neither creates
nor removes a cancellable denominator), and two single monomials merge
into one monomial (nothing to expand, nothing to cancel).  Such results
are stored with `_normalized=True`, which means "already a normal form, in
normal-form order".  A product with a wrapped polynomial and zero times a
non-constant still take the general route.  A sum is built from all its
summands' terms at once (`ScalarExpr.sum`), skipping zero summands.

Numeric verdicts read seeded sample points (`Sampler`, a plain value).  A
chart's head block, its first `points` draws with their memoised atom
columns, depends only on the sampler's value and the chart, so it is
memoised as a function of the two (`_head_block`, the last two kept).
Every check evaluates the head block first and draws past it only to
replace discarded points, so it reads the same points and values whether
the head was memoised or not.  A verdict rests on at least MIN_VALID_SHARE
of the requested points; with fewer inside the expressions' domain,
sampling raises InsufficientSamples.

`vanishing_point` bounds its expressions over the sample box before it
samples (`_Bounds`: interval arithmetic rounded outward at every step).  The
block and the bounds are one memoised walk over the normal form (`_Walk`) in
two number domains, so the bounds take the steps the block takes.  When
every bound rules out a domain error and one keeps its expression at least
tol from 0, sampling could discard no point and find no vanishing row, so
the call returns None without drawing; whatever the bounds cannot place is
sampled as before.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

MAX_DIM = 12

Point = Tuple[float, ...]


class KernelError(ValueError):
    """Base of every kernel error; carries an optional witness point."""

    def __init__(self, message: str, witness: Optional[tuple] = None):
        super().__init__(message)
        self.witness = witness


class CheckFailure(KernelError):
    """A well-formed input failed a check (exit 1; other errors exit 2)."""


class ExprError(KernelError):
    """Malformed expression construction (bad chart, bad ln argument, ...)."""


class InsufficientSamples(CheckFailure):
    """Fewer than MIN_VALID_SHARE of the requested sample points are in the
    expressions' domain, too few for a numeric verdict to rest on."""


class DomainError(KernelError):
    """Numeric evaluation left the expression's domain (ln <= 0, 1/0,
    overflow, sin/cos of a non-finite value, a coefficient beyond float
    range)."""

    def __init__(self, message: str, subexpr: object = None):
        super().__init__(message)
        self.subexpr = subexpr


@dataclass(frozen=True)
class Chart:
    """Ordered chart variables; `positive` names are constrained to (0, inf)."""

    vars: Tuple[str, ...]
    positive: frozenset = frozenset()

    def __post_init__(self):
        if not (1 <= len(self.vars) <= MAX_DIM):
            raise ExprError(f"chart dimension must be in 1..{MAX_DIM}, got {len(self.vars)}")
        seen = set()
        for v in self.vars:
            if not v or any(c.isspace() for c in v):
                raise ExprError(f"bad variable name {v!r}")
            if v in seen:
                raise ExprError(f"duplicate variable {v!r}")
            seen.add(v)
        if not self.positive <= seen:
            raise ExprError("positive set names unknown variables")

    @property
    def n(self) -> int:
        return len(self.vars)

    def index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ExprError(f"unknown variable {name!r}") from None

    def env(self, point: Sequence[float]) -> dict:
        if len(point) != self.n:
            raise ExprError(f"point has {len(point)} coordinates, chart has {self.n}")
        return dict(zip(self.vars, point))

    def extend(self, name: str) -> "Chart":
        """This chart with the positive variable `name` appended."""
        return Chart(self.vars + (name,), self.positive | {name})


# --- atoms --------------------------------------------------------------

_FUNC_KINDS = ("exp", "sin", "cos", "ln")


class Atom:
    """A multiplicative indivisible: variable, function call, or wrapped poly.

    Atoms are hash-consed: the constructor returns the live atom with the
    same (kind, name, arg) if there is one, so equal atoms are the same
    object.  `==` and the hash are identity's, and the sort key `key` is
    computed once, at construction.  The table holds atoms weakly; an atom
    no expression refers to any more is dropped from it."""

    __slots__ = ("kind", "name", "arg", "key", "__weakref__")

    kind: str  # "var" | "exp" | "sin" | "cos" | "ln" | "poly"
    name: str
    arg: Optional["ScalarExpr"]
    key: tuple

    def __new__(cls, kind: str, name: str = "", arg: Optional["ScalarExpr"] = None):
        ident = (kind, name, arg)
        atom = _ATOMS.get(ident)
        if atom is not None:
            return atom
        if kind == "var":
            key = (0, name, "")
        elif kind in _FUNC_KINDS:
            key = (1, kind, str(arg))
        else:
            key = (2, str(arg), "")
        with _ATOMS_LOCK:  # two live copies of one atom would never compare equal
            atom = _ATOMS.get(ident)
            if atom is None:
                atom = object.__new__(cls)
                for slot, value in (("kind", kind), ("name", name), ("arg", arg),
                                    ("key", key)):
                    object.__setattr__(atom, slot, value)
                _ATOMS[ident] = atom
        return atom

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        return (Atom, (self.kind, self.name, self.arg))

    def __repr__(self) -> str:
        return f"Atom({self.kind!r}, {self.name!r}, {self.arg!r})"

    def __str__(self) -> str:
        if self.kind == "var":
            return self.name
        if self.kind in _FUNC_KINDS:
            return f"{self.kind}({self.arg})"
        return f"({self.arg})"


_ATOMS: "weakref.WeakValueDictionary[tuple, Atom]" = weakref.WeakValueDictionary()
_ATOMS_LOCK = threading.Lock()


# Monomial: tuple of (Atom, exponent) pairs sorted by Atom.key, exp != 0.
Monomial = Tuple[Tuple[Atom, int], ...]

_EMPTY_MONO: Monomial = ()


def _mono_key(m: Monomial):
    return (sum(e for _, e in m), tuple((a.key, e) for a, e in m))


def _plain(m: Monomial) -> bool:
    """No wrapped-poly atom in the monomial."""
    return all(a.kind != "poly" for a, _ in m)


def _plain_terms(terms) -> bool:
    """No wrapped-poly atom in any monomial of the terms."""
    return all(_plain(m) for m, _ in terms)


def _merge_exponents(*monos: Monomial) -> dict:
    exps: dict = {}
    for m in monos:
        for a, e in m:
            exps[a] = exps.get(a, 0) + e
    return {a: e for a, e in exps.items() if e != 0}


def _freeze(exps: Mapping[Atom, int]) -> Monomial:
    return tuple(sorted(((a, e) for a, e in exps.items() if e != 0),
                        key=lambda p: p[0].key))


# --- raw term-dict arithmetic (monomial -> Fraction) ---------------------

def _expand_mono(exps: Mapping[Atom, int], coeff: Fraction) -> dict:
    """Rewrite poly-atoms with positive exponents back into polynomial form."""
    plain = {}
    expansions = []
    for a, e in exps.items():
        if e == 0:
            continue
        if a.kind == "poly" and e >= 1:
            expansions.append((a.arg, e))
        else:
            plain[a] = e
    out = {_freeze(plain): coeff}
    for arg, e in expansions:
        for _ in range(e):
            out = _raw_mul(out, dict(arg._terms))
    return out


def _raw_mul(A: Mapping[Monomial, Fraction], B: Mapping[Monomial, Fraction]) -> dict:
    out: dict = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            piece = _expand_mono(_merge_exponents(ma, mb), ca * cb)
            for m, c in piece.items():
                c2 = out.get(m, _ZERO_FRAC) + c
                if c2:
                    out[m] = c2
                elif m in out:
                    del out[m]
    return out


_ZERO_FRAC = Fraction(0)
_ONE_FRAC = Fraction(1)


# --- exact division (for cancelling wrapped-poly reciprocals) ------------

def _lead_key(m: Monomial):
    """Graded lex order, the last atom of a frozen monomial most significant.

    Unlike the print order `_mono_key`, it is a monomial order: the leading
    term of a product is the product of the leading terms."""
    return (sum(e for _, e in m), tuple((a.key, e) for a, e in reversed(m)))


def _exact_div(num: Mapping[Monomial, Fraction], den: Mapping[Monomial, Fraction]):
    """Exact polynomial division num/den over nonnegative-exponent monomials.

    Returns the quotient dict, or None if the division is not exact.  With a
    single divisor and a monomial order, leading-term reduction is complete
    for exact division.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(num)
    quo: dict = {}
    lead_den = max(den, key=_lead_key)
    cd = den[lead_den]
    dexp = dict(lead_den)
    guard = 0
    while rem:
        guard += 1
        if guard > 10_000:
            return None
        lead = max(rem, key=_lead_key)
        nexp = _merge_exponents(lead)
        texp = {}
        for a, e in dexp.items():
            r = nexp.get(a, 0) - e
            if r < 0:
                return None
            nexp[a] = r
        for a, e in nexp.items():
            if e:
                texp[a] = e
        # remaining exponents of the lead not present in den stay as-is
        t = _freeze(texp)
        c = rem[lead] / cd
        quo[t] = quo.get(t, _ZERO_FRAC) + c
        for m, cden in den.items():
            mm = _freeze(_merge_exponents(m, t))
            c2 = rem.get(mm, _ZERO_FRAC) - c * cden
            if c2:
                rem[mm] = c2
            elif mm in rem:
                del rem[mm]
    return quo


def _cancel_denominators(terms: dict) -> dict:
    """Divide out wrapped-poly reciprocals where the cofactor sum allows it."""
    groups: dict = {}
    for m, c in terms.items():
        den = tuple(p for p in m if p[0].kind == "poly" and p[1] < 0)
        rest = tuple(p for p in m if not (p[0].kind == "poly" and p[1] < 0))
        groups.setdefault(den, {})[rest] = c
    out: dict = {}
    for den, num in groups.items():
        den_left = dict(den)
        for atom, e in den:
            k = -e
            while k > 0:
                # clear negative non-poly exponents so division sees a polynomial
                union = {a for mm in num for a, _ in mm}
                mins = {a: min(dict(mm).get(a, 0) for mm in num) for a in union}
                clear = _freeze({a: -e2 for a, e2 in mins.items() if e2 < 0})
                cleared = {_freeze(_merge_exponents(m, clear)): c for m, c in num.items()}
                quo = _exact_div(cleared, dict(atom.arg._terms))
                if quo is None:
                    break
                back = _freeze({a: e2 for a, e2 in mins.items() if e2 < 0})
                num = {_freeze(_merge_exponents(m, back)): c for m, c in quo.items()}
                k -= 1
            if k == 0:
                del den_left[atom]
            else:
                den_left[atom] = -k
        den_mono = _freeze(den_left)
        for m, c in num.items():
            mm = _freeze(_merge_exponents(m, den_mono))
            c2 = out.get(mm, _ZERO_FRAC) + c
            if c2:
                out[mm] = c2
            elif mm in out:
                del out[mm]
    return out


def _cancelled(items: dict) -> dict:
    """Cancel wrapped-poly reciprocals to a fixed point: merging groups can
    expose a newly divisible numerator (each pass strictly shrinks the
    multiset of denominator powers when it changes anything)."""
    while any(a.kind == "poly" and e < 0 for m in items for a, e in m):
        reduced = _cancel_denominators(items)
        if reduced == items:
            break
        items = reduced
    return items


# --- the expression type --------------------------------------------------

class ScalarExpr:
    """Immutable normal-form scalar expression."""

    __slots__ = ("_terms", "_hash", "_str", "_diff", "__weakref__")

    def __init__(self, terms: Mapping[Monomial, Fraction], _normalized: bool = False):
        """`_normalized=True` says `terms` is already a normal form, in
        normal-form order: it is stored as it is."""
        if _normalized:
            object.__setattr__(self, "_terms", tuple(terms.items()))
        else:
            items = _cancelled({m: c for m, c in terms.items() if c})
            object.__setattr__(self, "_terms",
                               tuple(sorted(items.items(), key=lambda p: _mono_key(p[0]))))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_str", None)
        object.__setattr__(self, "_diff", None)  # {var: derivative}, see diff

    # construction helpers
    @staticmethod
    def const(value) -> "ScalarExpr":
        c = Fraction(value)
        return ScalarExpr({_EMPTY_MONO: c} if c else {})

    @staticmethod
    def var(name: str) -> "ScalarExpr":
        return ScalarExpr({((Atom("var", name), 1),): _ONE_FRAC})

    @staticmethod
    def zero() -> "ScalarExpr":
        return _ZERO

    @staticmethod
    def one() -> "ScalarExpr":
        return _ONE

    # predicates
    @property
    def is_zero_form(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return self._terms == ((_EMPTY_MONO, _ONE_FRAC),)

    @property
    def is_rational_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0] == _EMPTY_MONO)

    # arithmetic
    @staticmethod
    def sum(exprs) -> "ScalarExpr":
        """The sum's normal form, built from all the summands' terms in one
        dict; zero summands are skipped and a lone one is returned as it is.
        Cancelling wrapped-poly reciprocals depends on grouping (with
        p = 1 + x^2, x^2/p + 1/p + x/p folds to 1 + x/p, but nothing divides
        (x^2 + 1 + x)/p), so the terms are cancelled again after each inner
        summand holding one: the sum is the left fold of `+`, term for term."""
        parts = [e for e in map(_coerce, exprs) if e._terms]
        if len(parts) < 2:
            return parts[0] if parts else _ZERO
        out = dict(parts[0]._terms)
        for k, e in enumerate(parts[1:], 2):
            for m, c in e._terms:
                c2 = out.get(m, _ZERO_FRAC) + c
                if c2:
                    out[m] = c2
                elif m in out:
                    del out[m]
            if k < len(parts) and not _plain_terms(e._terms):
                out = _cancelled(out)
        return ScalarExpr(out)

    def __add__(self, other) -> "ScalarExpr":
        return ScalarExpr.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr({m: -c for m, c in self._terms}, _normalized=True)

    def __sub__(self, other) -> "ScalarExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ScalarExpr":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "ScalarExpr":
        """The product's normal form.  A nonzero constant and two single
        monomials fix it directly when neither operand holds a wrapped
        polynomial (see the module docstring); every other product expands
        and cancels."""
        other = _coerce(other)
        a, b = self._terms, other._terms
        if len(b) == 1 and not b[0][0] and _plain_terms(a):
            return self._scaled(b[0][1])
        if len(a) == 1 and not a[0][0] and _plain_terms(b):
            return other._scaled(a[0][1])
        if len(a) == 1 and len(b) == 1 and _plain(a[0][0]) and _plain(b[0][0]):
            (ma, ca), (mb, cb) = a[0], b[0]
            return ScalarExpr({_freeze(_merge_exponents(ma, mb)): ca * cb},
                              _normalized=True)
        return ScalarExpr(_raw_mul(dict(a), dict(b)))

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "ScalarExpr":
        """c * self for a nonzero rational c: the same monomials, in order."""
        if c == 1:
            return self
        return ScalarExpr({m: c * cm for m, cm in self._terms}, _normalized=True)

    def __pow__(self, k: int) -> "ScalarExpr":
        if not isinstance(k, int):
            raise ExprError("powers must be integers")
        if k < 0:
            return self.recip() ** (-k)
        result = _ONE
        base = self
        e = k
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def recip(self) -> "ScalarExpr":
        """Multiplicative inverse.  Single monomials invert exactly; a
        multi-term expression becomes a wrapped-poly atom to the power -1."""
        if not self._terms:
            raise ZeroDivisionError("reciprocal of zero expression")
        if len(self._terms) == 1:
            m, c = self._terms[0]
            inv = {a: -e for a, e in m}
            return ScalarExpr(_expand_mono(inv, 1 / c))
        # factor out the common monomial part and rational content
        mins: dict = {}
        atoms = {a for m, _ in self._terms for a, _ in m}
        for a in atoms:
            mins[a] = min(dict(m).get(a, 0) for m, _ in self._terms)
        m0 = _freeze(mins)
        unshift = _freeze({a: -e for a, e in mins.items()})
        shifted = ScalarExpr(_raw_mul(dict(self._terms), {unshift: _ONE_FRAC}))
        lead_c = shifted._terms[-1][1]
        content = Fraction(math.gcd(*(c.numerator for _, c in shifted._terms)),
                           math.lcm(*(c.denominator for _, c in shifted._terms)))
        if lead_c < 0:
            content = -content
        primitive = ScalarExpr({m: c / content for m, c in shifted._terms})
        atom = Atom("poly", arg=primitive)
        inv_exps = _merge_exponents(_freeze({a: -e for a, e in m0}), ((atom, -1),))
        return ScalarExpr(_expand_mono(inv_exps, 1 / content))

    # structure
    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarExpr) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._terms))
        return self._hash

    def __str__(self) -> str:
        if self._str is None:
            object.__setattr__(self, "_str", _render(self._terms))
        return self._str

    __repr__ = __str__

    def __reduce__(self):
        # rebuild through the constructor: atoms re-intern, the hash and the
        # memo are recomputed in the receiving process
        return (ScalarExpr, (dict(self._terms), True))


_ZERO = ScalarExpr({})
_ONE = ScalarExpr({_EMPTY_MONO: _ONE_FRAC})


def _coerce(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return ScalarExpr.const(x)
    raise ExprError(f"cannot use {type(x).__name__} as a scalar")


def _render(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for m, c in terms:
        body = _mono_str(m, abs(c))
        if not parts:
            parts.append(("-" + body) if c < 0 else body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def _mono_str(m: Monomial, c: Fraction) -> str:
    pieces = []
    if c != 1 or not m:
        pieces.append(str(c))
    for a, e in m:
        pieces.append(str(a) if e == 1 else f"{a}^{e}")
    return "*".join(pieces)


# --- calculus -------------------------------------------------------------

def exp_(e: ScalarExpr) -> ScalarExpr:
    if e.is_zero_form:
        return _ONE
    if len(e._terms) == 1 and e._terms[0][0] != _EMPTY_MONO:
        m, c = e._terms[0]
        if c == 1 and len(m) == 1 and m[0][0].kind == "ln" and m[0][1] == 1:
            return m[0][0].arg
    return ScalarExpr({((Atom("exp", arg=e), 1),): _ONE_FRAC})


def sin_(e: ScalarExpr) -> ScalarExpr:
    if e.is_zero_form:
        return _ZERO
    return ScalarExpr({((Atom("sin", arg=e), 1),): _ONE_FRAC})


def cos_(e: ScalarExpr) -> ScalarExpr:
    if e.is_zero_form:
        return _ONE
    return ScalarExpr({((Atom("cos", arg=e), 1),): _ONE_FRAC})


def ln_(e: ScalarExpr, positive_vars: frozenset = frozenset()) -> ScalarExpr:
    if not is_syntactically_positive(e, positive_vars):
        raise ExprError(f"ln argument is not syntactically positive: {e}")
    if e.is_one:
        return _ZERO
    if len(e._terms) == 1:
        m, c = e._terms[0]
        if c == 1 and len(m) == 1 and m[0][0].kind == "exp" and m[0][1] == 1:
            return m[0][0].arg
    return ScalarExpr({((Atom("ln", arg=e), 1),): _ONE_FRAC})


def is_syntactically_positive(e: ScalarExpr, positive_vars: frozenset = frozenset()) -> bool:
    """Conservative positivity: every term has a positive coefficient and
    only exp-atoms, positive-declared variables, or positive wrapped polys."""
    if not e._terms:
        return False
    for m, c in e._terms:
        if c <= 0:
            return False
        for a, _ in m:
            if a.kind == "exp":
                continue
            if a.kind == "var" and a.name in positive_vars:
                continue
            if a.kind == "poly" and is_syntactically_positive(a.arg, positive_vars):
                continue
            return False
    return True


# Live differentiated expressions -> their memo.  Weakly keyed, so an entry
# goes when its expression does; it lets an equal expression built
# elsewhere (the same coefficient in two slots) share the memo.
_DIFF_MEMOS: "weakref.WeakKeyDictionary[ScalarExpr, dict]" = weakref.WeakKeyDictionary()


def diff(e: ScalarExpr, var: str, chart: Optional[Chart] = None) -> ScalarExpr:
    """Symbolic partial derivative with respect to the named variable.

    Expressions do not carry a chart; pass one to reject unknown variable
    names (otherwise absent names differentiate to zero as constants).
    Derivatives are memoised on the expression itself (`_diff`), so a memo
    dies with the expressions that share it; atom arguments are shared
    through interning, so the chain rule reuses their memos."""
    if chart is not None and var not in chart.vars:
        raise ExprError(f"unknown variable {var!r} on chart {chart.vars}")
    memo = e._diff
    if memo is None:
        if e.is_rational_const:  # no memo: constants live long and are shared
            return _ZERO
        memo = _DIFF_MEMOS.setdefault(e, {})
        object.__setattr__(e, "_diff", memo)
    hit = memo.get(var)
    if hit is not None:
        return hit
    parts = []
    for m, c in e._terms:
        for i, (a, k) in enumerate(m):
            da = _diff_atom(a, var)
            if da is None:
                continue
            rest_expr = ScalarExpr(
                _expand_mono({b: eb for j, (b, eb) in enumerate(m) if j != i}, c * k))
            powpart = ScalarExpr(
                _expand_mono({a: k if a.kind == "exp" else k - 1}, _ONE_FRAC))
            parts.append(rest_expr * powpart * da)
    memo[var] = total = ScalarExpr.sum(parts)
    return total


def _diff_atom(a: Atom, var: str) -> Optional[ScalarExpr]:
    """d(atom)/d(var) without the power-rule factor; None when constant.

    For exp the atom itself is left in place by the caller (d exp^k has
    exponent k, not k-1), so only the inner derivative is returned here."""
    if a.kind == "var":
        return _ONE if a.name == var else None
    inner = diff(a.arg, var)
    if inner.is_zero_form:
        return None
    if a.kind == "exp":
        return inner
    if a.kind == "sin":
        return cos_(a.arg) * inner
    if a.kind == "cos":
        return -sin_(a.arg) * inner
    if a.kind == "ln":
        return a.arg.recip() * inner
    return inner  # poly atom: chain rule, caller supplies k * atom^(k-1)


# --- numeric evaluation ----------------------------------------------------

_TINY = 1e-12


def evaluate(e: ScalarExpr, env: Mapping[str, float]) -> float:
    """The float value of `e` at the point `env` (variable -> value), or
    DomainError.  This scalar evaluator is the reference that the block
    evaluator (`evaluate_block`) is checked against, bit for bit."""
    total = 0.0
    for m, c in e._terms:
        try:
            v = float(c)
        except OverflowError:
            raise DomainError("coefficient beyond float range", e) from None
        for a, k in m:
            base = _eval_atom(a, env)
            if k < 0 and abs(base) < _TINY:
                raise DomainError(f"reciprocal of value too close to zero in {a}", a)
            try:
                v *= base ** k
            except OverflowError:
                raise DomainError(f"overflow evaluating {a}^{k}", a) from None
            except ZeroDivisionError:
                raise DomainError(f"zero to negative power in {a}", a) from None
        total += v
    return total


def _eval_atom(a: Atom, env: Mapping[str, float]) -> float:
    if a.kind == "var":
        try:
            return env[a.name]
        except KeyError:
            raise ExprError(f"variable {a.name!r} not bound at evaluation") from None
    if a.kind == "poly":
        return evaluate(a.arg, env)
    x = evaluate(a.arg, env)
    if a.kind == "exp":
        try:
            return math.exp(x)
        except OverflowError:
            raise DomainError("exp overflow", a) from None
    if a.kind in ("sin", "cos"):
        if not math.isfinite(x):
            raise DomainError(f"{a.kind} of non-finite value {x} in {a}", a)
        return math.sin(x) if a.kind == "sin" else math.cos(x)
    if x <= 0:
        raise DomainError(f"ln of non-positive value {x} in {a}", a)
    return math.log(x)


def _either(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Union of two row masks, None standing for the empty mask."""
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _sample_box(chart: Chart) -> dict:
    """The sample box, chart variable -> (low, high) in chart order:
    `Sampler.draw` draws each coordinate from its variable's range, and
    `_Bounds` bounds expressions over the same box."""
    return {v: (0.5, 2.0) if v in chart.positive else (-1.0, 1.0) for v in chart.vars}


class _Walk:
    """One memoised walk over a normal form, in a number domain that a
    subclass supplies.  The walk runs the terms in order; it computes each
    atom and each (atom, power) once per walk and shares the value with
    every term that uses it (atoms are interned, so the memo is keyed by
    them).

    A domain supplies `start`, the value of the empty sum; `term(total, c,
    m)`, the sum `total` plus the coefficient `c` times the walk's `power`
    of each (atom, k) of the monomial `m`, multiplied left to right (the
    domain folds a whole monomial, so it multiplies inline); `raised(value,
    k)`, an atom value to an integer power k != 1; `variable(name)`; and
    `call(kind, value)`, exp, sin, cos or ln of a value."""

    start: object

    def __init__(self):
        self.memo: dict = {}

    def expr(self, e: ScalarExpr):
        total, term = self.start, self.term
        for m, c in e._terms:
            total = term(total, c, m)
        return total

    def power(self, a: Atom, k: int):
        hit = self.memo.get((a, k))
        if hit is None:
            hit = self.atom(a)
            if k != 1:
                hit = self.raised(hit, k)
            self.memo[(a, k)] = hit
        return hit

    def atom(self, a: Atom):
        hit = self.memo.get(a)
        if hit is None:
            if a.kind == "var":
                hit = self.variable(a.name)
            elif a.kind == "poly":
                hit = self.expr(a.arg)
            else:
                hit = self.call(a.kind, self.expr(a.arg))
            self.memo[a] = hit
        return hit


class _Block(_Walk):
    """`evaluate` over a block of `points` at once: every value is a numpy
    array with one entry per point, paired with the mask of the points
    where `evaluate` raises DomainError (None when there is none)."""

    def __init__(self, chart: Chart, points: Sequence[Point]):
        super().__init__()
        self.points = points
        coords = np.array(points, dtype=float).reshape(len(points), chart.n)
        self.columns = dict(zip(chart.vars, np.ascontiguousarray(coords.T)))
        self.rows = len(points)
        self.start = np.zeros(self.rows), None

    def term(self, total, c: Fraction, m: Monomial):
        total, bad = total
        try:
            v = float(c)
        except OverflowError:  # as in evaluate: fails at every point
            return total, np.ones(self.rows, bool)
        for a, k in m:
            p, p_bad = self.power(a, k)
            v = v * p
            bad = _either(bad, p_bad)
        return total + v, bad

    def raised(self, value, k: int):
        base, bad = value
        # C pow, as float ** int; it overflows exactly where the result is
        # infinite and the base is not
        p = np.float_power(base, k)
        fails = np.isinf(p) & np.isfinite(base)
        if k < 0:
            fails |= np.abs(base) < _TINY
        return p, _either(bad, fails if fails.any() else None)

    def variable(self, name: str):
        try:
            return self.columns[name], None
        except KeyError:
            raise ExprError(f"variable {name!r} not bound at evaluation") from None

    def call(self, kind: str, value):
        # element-wise through math, whose rounding evaluate has (numpy's
        # exp, sin, cos and log round differently)
        x, bad = value
        if kind == "exp":
            values = np.fromiter(map(_exp_or_inf, x.tolist()), float, self.rows)
            fails = np.isinf(values) & np.isfinite(x)
        else:
            fails = x <= 0 if kind == "ln" else ~np.isfinite(x)
            fn = {"sin": math.sin, "cos": math.cos, "ln": math.log}[kind]
            safe = np.where(fails, 1.0, x)
            values = np.fromiter(map(fn, safe.tolist()), float, self.rows)
        return values, _either(bad, fails if fails.any() else None)


def evaluate_block(exprs: Sequence[ScalarExpr],
                   block: _Block) -> Tuple[np.ndarray, np.ndarray]:
    """`evaluate` of every expression at every point of the block, in one
    pass: the (points x exprs) values, and the mask of the points where
    every expression evaluates.  A point is masked out exactly where
    `evaluate` raises DomainError for some expression, and the values of
    the kept points equal its results bit for bit: + and * run in its order
    (IEEE, as Python floats), integer powers go through np.float_power (C
    pow, as float ** int), and exp/sin/cos/ln through math, element by
    element.  The block's memoised atom and atom-power columns are reused,
    and it keeps the new ones."""
    values = np.empty((block.rows, len(exprs)))
    bad = None
    with np.errstate(all="ignore"):  # overflow and nan sit on masked points
        for col, e in enumerate(exprs):
            values[:, col], e_bad = block.expr(e)
            bad = _either(bad, e_bad)
    return values, np.ones(block.rows, bool) if bad is None else ~bad


# --- bounds over the sample box --------------------------------------------

# Both ends of every bound move outward by this share of their size, plus
# _ABS_SLACK, at every step: far above the rounding of float arithmetic,
# float(Fraction), C pow and libm (each within a few units in the last
# place, or a few subnormal steps), so the float `evaluate` computes at a
# box point lies inside the bound of each subexpression.
_REL_SLACK = 1e-12
_ABS_SLACK = 1e-300
# Largest magnitude a bound may reach: below it no step can overflow.
_BOUND_CAP = 1e300
# Largest exp argument a bound may reach (math.exp overflows past 709.78).
_EXP_CAP = 700.0
# |x| past which sin and cos are bounded by [-1, 1] alone.
_TRIG_CAP = 1e6


class _Undecided(Exception):
    """A bound that cannot rule out a domain error or place a value."""


def _widen(lo: float, hi: float) -> Tuple[float, float]:
    lo -= _REL_SLACK * abs(lo) + _ABS_SLACK
    hi += _REL_SLACK * abs(hi) + _ABS_SLACK
    if not (-_BOUND_CAP < lo and hi < _BOUND_CAP):  # False on nan too
        raise _Undecided
    return lo, hi


def _mul(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
    ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _widen(min(ends), max(ends))


def _trig(kind: str, lo: float, hi: float) -> Tuple[float, float]:
    """sin or cos over [lo, hi]: the values at both ends, and the extremum
    (-1)^j of every critical point offset + j*pi that may lie inside."""
    if hi - lo >= 2 * math.pi or max(-lo, hi) > _TRIG_CAP:
        return _widen(-1.0, 1.0)
    fn, offset = (math.sin, math.pi / 2) if kind == "sin" else (math.cos, 0.0)
    ends = [fn(lo), fn(hi)]
    # the 1e-6 slack (in units of pi) covers the rounding of the quotients
    first = math.ceil((lo - offset) / math.pi - 1e-6)
    last = math.floor((hi - offset) / math.pi + 1e-6)
    ends.extend(-1.0 if j % 2 else 1.0 for j in range(first, last + 1))
    return _widen(min(ends), max(ends))


class _Bounds(_Walk):
    """Interval bounds over the sample box: `_Block`'s walk in intervals,
    rounded outward at every step (Moore, *Interval Analysis*, 1966), so
    the bound of an expression holds the value `evaluate` computes at every
    box point.  A step raises _Undecided wherever
    `_Block` might mask a box point: a negative power whose base may come
    within _TINY of 0, an exp argument that may reach _EXP_CAP, an ln
    argument that may reach 0, a bound that may reach _BOUND_CAP, and a
    coefficient beyond float range.  A variable missing from the chart is
    undecided too, so sampling raises its ExprError."""

    start = (0.0, 0.0)

    def __init__(self, chart: Chart):
        super().__init__()
        self.box = _sample_box(chart)

    def term(self, total, c: Fraction, m: Monomial):
        try:
            v = float(c)
        except OverflowError:
            raise _Undecided from None
        term = _widen(v, v)
        for a, k in m:
            term = _mul(term, self.power(a, k))
        return _widen(total[0] + term[0], total[1] + term[1])

    def raised(self, bound, k: int):
        lo, hi = bound
        if k < 0 and not (lo > _TINY or hi < -_TINY):
            raise _Undecided
        try:
            ends = (lo ** k, hi ** k)
        except OverflowError:
            raise _Undecided from None
        # an even power of a base that may change sign reaches 0
        low = 0.0 if k % 2 == 0 and lo < 0 < hi else min(ends)
        return _widen(low, max(ends))

    def variable(self, name: str):
        try:
            return self.box[name]
        except KeyError:
            raise _Undecided from None

    def call(self, kind: str, bound):
        lo, hi = bound
        if kind == "exp":
            if hi >= _EXP_CAP:
                raise _Undecided
            return _widen(math.exp(lo), math.exp(hi))
        if kind == "ln":
            if lo <= 0:
                raise _Undecided
            return _widen(math.log(lo), math.log(hi))
        return _trig(kind, lo, hi)


def _bounded_away(exprs: Sequence[ScalarExpr], chart: Chart, tol: float) -> bool:
    """True when every expression evaluates at every point of the sample box
    and one of them stays at least tol from 0 there; False when the bounds
    cannot tell."""
    bounds = _Bounds(chart)
    try:
        enclosures = [bounds.expr(e) for e in exprs]
    except _Undecided:
        return False
    return any(lo >= tol or hi <= -tol for lo, hi in enclosures)


# --- sampling and zero classification --------------------------------------

@dataclass(frozen=True, eq=False)
class SampleTable:
    """Valid sample points in draw order and the values there: one row of
    `values` per point, one column per expression."""

    points: List[Point]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


# The least share of the requested sample points a numeric verdict reads:
# below it, valid_points raises InsufficientSamples.
MIN_VALID_SHARE = Fraction(1, 2)

# Head blocks kept by _head_block: a structure's chart and the chart of its
# Poisson lift.
PLANNED_CHARTS = 2


@dataclass(frozen=True)
class Sampler:
    """Deterministic point sampler; positive variables draw from [0.5, 2].

    A plain value: equal samplers draw equal points on a chart and share
    its head block (`_head_block`).  The draw stream is keyed by
    `int(seed)`, so samplers that compare equal (`True` and 1) draw the
    same stream."""

    seed: int = 0
    points: int = 64
    tol: float = 1e-9

    def draw(self, chart: Chart, count: Optional[int] = None) -> Iterator[Point]:
        """The chart's seeded point stream, `count` (default `points`) long."""
        rng = random.Random(f"{int(self.seed)}|{','.join(chart.vars)}")
        # (low, width): what random.uniform(low, high) computes
        spans = [(low, high - low) for low, high in _sample_box(chart).values()]
        for _ in range(count if count is not None else self.points):
            yield tuple([low + width * rng.random() for low, width in spans])

    def valid_points(self, chart: Chart, exprs: Sequence[ScalarExpr]) -> SampleTable:
        """Up to `points` sample points where every expression evaluates,
        in draw order, with the values there; domain-error points are
        discarded, oversampling at most 10x; fewer than
        ceil(MIN_VALID_SHARE x `points`) kept raise InsufficientSamples.
        The chart's head block is evaluated first, with its memoised
        columns.  Only while points are missing does the scan read on past
        the head, in blocks of as many draws as are missing, so none is read
        past the last one kept; each block is evaluated at once
        (evaluate_block)."""
        head = _head_block(self, chart)
        vals, ok = evaluate_block(exprs, head)
        points = list(itertools.compress(head.points, ok))
        values = [vals[ok]]
        rest = itertools.islice(self.draw(chart, 10 * self.points), self.points, None)
        while len(points) < self.points:
            refill = list(itertools.islice(rest, self.points - len(points)))
            if not refill:
                break
            vals, ok = evaluate_block(exprs, _Block(chart, refill))
            points.extend(itertools.compress(refill, ok))
            values.append(vals[ok])
        floor = math.ceil(MIN_VALID_SHARE * self.points)
        if len(points) < floor:
            raise InsufficientSamples(
                f"only {len(points)} of {self.points} sample points are in the "
                f"domain, below the floor of {floor}")
        return SampleTable(points, np.concatenate(values))


@functools.lru_cache(maxsize=PLANNED_CHARTS)
def _head_block(sampler: Sampler, chart: Chart) -> _Block:
    """The `_Block` of the chart's first `points` draws, whose atom and
    atom-power columns every check on the chart with an equal sampler
    shares.  A column a check adds is the one any other check would
    compute, so threads may share the block too."""
    return _Block(chart, list(sampler.draw(chart)))


@dataclass(frozen=True)
class ZeroVerdict:
    kind: str  # "symbolic" | "numeric" | "nonzero"
    witness: Optional[Point] = None
    value: Optional[float] = None

    @property
    def is_zero(self) -> bool:
        return self.kind != "nonzero"

    @property
    def tier(self) -> str:
        return "symbolic" if self.kind == "symbolic" else "numeric"


SYMBOLIC_ZERO = ZeroVerdict("symbolic")


def first_row(exprs: Sequence[ScalarExpr], chart: Chart, sampler: Sampler,
              fails: Callable[[np.ndarray], np.ndarray]
              ) -> Optional[Tuple[Point, np.ndarray]]:
    """The first (point, values) row of `sampler.valid_points` that fails, in
    draw order; None when every row passes.  `fails` takes the whole
    (rows x exprs) value array and returns one boolean per row.  Every
    sampled check in the kernel reads its points through this scan."""
    table = sampler.valid_points(chart, exprs)
    failing = fails(table.values)
    i = int(np.argmax(failing))
    if not failing[i]:
        return None
    return table.points[i], table.values[i]


def _reaches_tol(vals: np.ndarray, tol: float) -> np.ndarray:
    """|v| >= tol, element-wise: the one rule by which both zero verdicts
    (is_zero, vanishing_point) read sampled values."""
    return np.abs(vals) >= tol


def is_zero(exprs: Sequence[ScalarExpr], chart: Chart, sampler: Sampler) -> ZeroVerdict:
    """Joint three-way zero test: exact normal form first, sampling as
    fallback.  The witness is the first point where a value reaches tol."""
    if all(e.is_zero_form for e in exprs):
        return SYMBOLIC_ZERO
    tol = sampler.tol
    row = first_row(exprs, chart, sampler,
                    lambda vals: _reaches_tol(vals, tol).any(axis=1))
    if row is None:
        return ZeroVerdict("numeric")
    vals = row[1]
    return ZeroVerdict("nonzero", witness=row[0],
                       value=float(vals[np.argmax(_reaches_tol(vals, tol))]))


def vanishing_point(exprs: Sequence[ScalarExpr], chart: Chart,
                    sampler: Sampler) -> Optional[Point]:
    """The first sample point where every expression is below tol, or None
    when they never vanish together.

    The expressions are bounded over the sample box first (_Bounds).  When
    every one evaluates at every box point and one of them stays at least
    tol from 0, no sample point can be discarded or vanish, so sampling
    would return None: the call returns None without drawing a point.
    Whatever the bounds cannot place is sampled, with the same points,
    witness and errors as without them."""
    tol = sampler.tol
    if _bounded_away(exprs, chart, tol):
        return None
    row = first_row(exprs, chart, sampler,
                    lambda vals: ~_reaches_tol(vals, tol).any(axis=1))
    return row and row[0]
