"""Exact symbolic scalar expressions on a coordinate chart.

An expression is kept permanently in a normal form: a sparse polynomial over
the rationals whose "variables" are atoms.  An atom is either a chart
variable, a transcendental call (exp/sin/cos/ln of a normal-form argument),
or an opaque wrapped polynomial used to represent reciprocals of multi-term
coefficients.  Monomials map atoms to nonzero integer exponents; negative
exponents encode reciprocals (there is no division node), e.g. 1/t is the
monomial t^-1.

Coefficients are integer numerators over one shared positive denominator:
`_terms` pairs each monomial with an `int`, and `_den` holds the
denominator.  The form is reduced, gcd(_den, *numerators) == 1, so `==`
and the hash are structural; every constructor path reduces once.  A
product multiplies numerators and denominators, a sum brings its summands'
numerators over the lcm of their denominators, and the term loops below
run on `int`s alone.  `Fraction` stays at the boundary: `ScalarExpr.const`
takes rationals, and printing shows each coefficient as
Fraction(numerator, _den).  Evaluation divides each numerator by `_den` in
Python's correctly rounded `int` true division, which is `float` of the
Fraction.

Construction normalizes eagerly: like terms merge, and a wrapped-polynomial
reciprocal is divided out of each group of terms that share it and sum to
an exact multiple of the polynomial (`_cancelled`).  Two expressions
without such reciprocals that are equal as Laurent polynomials in their
atoms are one normal form and print identically.  With reciprocals the
normal form depends on how a sum was grouped: with p = 1 + x^2,
(x^2/p + 1/p) + x/p is 1 + x/p, while x^2/p + (1/p + x/p) keeps three
terms over p, because nothing divides (x^2 + 1 + x)/p.
Cancellation tries a division only where one can succeed: a group whose
exponents of some atom spread less than the polynomial's is no multiple of
it, and it stops at the first pass that divides nothing.
A wrapped polynomial is primitive (integer coefficients with gcd 1, as
`recip` makes it), so by Gauss's lemma an integer polynomial that is a
multiple of it is an integer multiple: division stays in the integers and
ends at the first leading coefficient it does not divide.
A wrapped polynomial is a polynomial in its own atoms alone, so it
divides a numerator exactly when it divides each cofactor group, the terms
that share the part of their monomial outside those atoms (`_divided`).
Each group is divided on its own by long division on integer exponents,
none below the whole numerator's lowest (at most 0): on the atom's `int`
exponents for a polynomial in one atom whose exponent spreads, which is
every one `recip` makes over one atom (`_divided_in_one_atom`,
`_power_div`), and on the tuple of its atoms' exponents in key order for
every other (`_vector_div`).  Python orders tuples lexicographically, a
monomial order, so the leading term of a product is the product of the
leading terms.  A division spends one step of its shared budget per
quotient term.  Every normal form is a fixed point of cancellation, so a
sum tries again only the groups its summands added terms to, and each
later pass only the groups that divided terms landed in.
Atoms are interned (hash-consed), so equal atoms are one object and compare
by identity.  An atom's key identifies it: a variable's name is an ASCII
identifier (`ScalarExpr.var`), with no `(`, `*`, `^`, `/` or space in
it, and a reduced normal form fixes each term's coefficient and the
denominator, so no two normal forms print alike.  A monomial lists its
atoms in key order, and a product of two monomials merges the two lists
in one pass (`_mono_mul`).

A normal form holds wrapped polynomials only at negative exponents, and a
wrapped polynomial's argument holds none.  Only `recip` creates a positive
power of one (inverting the monomial its argument's terms share, and taking
that monomial out of them), and it multiplies each such power out at once
(`_expanded`).  `recip` takes out the common monomial again wherever the
expansion cancels terms, so every wrapped polynomial has at least two terms
and no common monomial, and each atom of its terms spreads (its exponent
differs between terms), which `_Divisor.spreads` records.  So the product of
two normal-form monomials (`_mono_mul`) keeps every wrapped polynomial at a
negative exponent, and a product is taken monomial by monomial with
nothing to expand.  Some products are also built without cancelling,
because the operands already fix the normal form: a nonzero constant
scales the other operand's terms (a nonzero rational keeps every monomial
and their order, and whether a division is exact does not depend on it, so
the scaled terms are still cancelled as far as they go), and two single
monomials merge into one monomial, which spreads nowhere and so is no
multiple of any wrapped polynomial.  Zero times anything is zero at once,
and every other product is cancelled.  A sum is built from all its
summands' terms at once (`ScalarExpr.sum`), skipping zero summands.  These
two shortcuts, a sum, a negation and the one-term pieces of `diff` pass
the constructor `_normalized=True` and the tuple of (monomial, numerator)
pairs in normal-form order, which it stores with no dict built (it still
reduces).  That order sorts by `_mono_key`; `_in_order` sorts only two or
more terms, since no or one term is in order as it is, and many are one.

Numeric verdicts read seeded sample points (`Sampler`, a plain value).  A
chart's points are one seeded stream, and every block of them is drawn as
one (rows x n) float array (`_draw`), never as a tuple per point.  A
chart's head block, its first `points` draws with their memoised atom
columns and the stream's state after them, depends only on the sampler's
value and the chart, so it is memoised as a function of the two
(`_head_block`, the last two kept).  Every check evaluates the head block
first and draws past it only to replace discarded points, continuing the
stream from the head's state, so it reads the same points and values
whether the head was memoised or not.  A verdict rests on at least
MIN_VALID_SHARE of the requested points; with fewer inside the
expressions' domain, sampling raises InsufficientSamples.  Only a witness
becomes a tuple of Python floats (`first_row`).  exp, sin, cos and ln run
element by element through `math` (numpy's round differently), mapped in
C over each block.

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
import math
import random
import re
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from operator import add, lt, sub
from typing import (Callable, Iterator, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

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
    """Malformed expression construction (bad chart, bad ln argument, ...).
    A chart variable whose name breaks the naming rule is given by its
    index on the chart, `position`."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


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


# The identifiers of the problem-file syntax, which chart names and
# variables must be.
IDENT_RE = re.compile("[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Chart:
    """Ordered chart variables; `positive` names are constrained to (0, inf).

    Every name reads back as itself in the problem-file syntax: it fully
    matches IDENT_RE and is not d<v>, the basis 1-form of another chart
    variable v."""

    vars: Tuple[str, ...]
    positive: frozenset = frozenset()

    def __post_init__(self):
        names = set(self.vars)
        for i, v in enumerate(self.vars):
            if not IDENT_RE.fullmatch(v):
                raise ExprError(f"chart variable {v!r} is not an identifier "
                                f"(expected {IDENT_RE.pattern})", i)
            if v.startswith("d") and v[1:] in names:
                raise ExprError(f"chart variable {v!r} clashes with the 1-form "
                                f"of {v[1:]!r}", i)
        if not (1 <= len(self.vars) <= MAX_DIM):
            raise ExprError(f"chart dimension must be in 1..{MAX_DIM}, got {len(self.vars)}")
        seen = set()
        for v in self.vars:
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
    no expression refers to any more is dropped from it.  A wrapped
    polynomial's data as a divisor (`_divisor`) is set on its atom at first
    use and dies with it."""

    __slots__ = ("kind", "name", "arg", "key", "divisor", "__weakref__")

    kind: str  # "var" | "exp" | "sin" | "cos" | "ln" | "poly"
    name: str
    arg: Optional["ScalarExpr"]
    key: tuple
    divisor: Optional["_Divisor"]

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
                                    ("key", key), ("divisor", None)):
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
    degree, keys = 0, []
    for a, e in m:
        degree += e
        keys.append((a.key, e))
    return degree, tuple(keys)


def _in_order(terms: Mapping[Monomial, int]) -> tuple:
    """The (monomial, numerator) pairs in normal-form order."""
    if len(terms) < 2:
        return tuple(terms.items())
    return tuple(sorted(terms.items(), key=lambda p: _mono_key(p[0])))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials: one merge of the two key orders."""
    if not b:
        return a
    if not a:
        return b
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, e = pa = a[i]
        y, f = pb = b[j]
        if x is y:
            if e + f:
                out.append((x, e + f))
            i += 1
            j += 1
        elif y.key < x.key:
            out.append(pb)
            j += 1
        else:
            out.append(pa)
            i += 1
    return (*out, *a[i:], *b[j:])


# --- raw term-dict arithmetic (monomial -> int numerator) ------------------

def _add_into(out: dict, terms) -> None:
    """Add the (monomial, numerator) pairs into the term dict `out`,
    dropping the monomials whose numerators sum to 0."""
    for m, c in terms:
        c2 = out.get(m, 0) + c
        if c2:
            out[m] = c2
        elif m in out:
            del out[m]


def _raw_mul(A: Mapping[Monomial, int], B: Mapping[Monomial, int]) -> dict:
    """The product of two term dicts, monomial by monomial."""
    out: dict = {}
    for ma, ca in A.items():
        _add_into(out, [(_mono_mul(ma, mb), ca * cb) for mb, cb in B.items()])
    return out


def _expanded(terms: Mapping[Monomial, int]) -> dict:
    """The terms with each positive power of a wrapped polynomial multiplied
    out.  Only `recip` makes such powers (see the module docstring); the
    arguments it multiplies in hold no wrapped polynomial, and their
    denominator is 1."""
    out: dict = {}
    for m, c in terms.items():
        piece = {tuple(p for p in m if not (p[0].kind == "poly" and p[1] > 0)): c}
        for a, e in m:
            if a.kind == "poly" and e > 0:
                for _ in range(e):
                    piece = _raw_mul(piece, dict(a.arg._terms))
        _add_into(out, piece.items())
    return out


def _least(monos) -> Monomial:
    """The monomial common to `monos`: each atom at its least exponent over
    them, where a monomial without the atom holds it at 0.  The least of
    two monomials a and m is a times the negative part of m / a."""
    low, *others = monos
    for m in others:
        over = _mono_mul(m, tuple((a, -e) for a, e in low))
        low = _mono_mul(low, tuple(p for p in over if p[1] < 0))
    return low


# --- exact division (for cancelling wrapped-poly reciprocals) ------------

class _Divisor(NamedTuple):
    """A wrapped polynomial as a divisor.  `powers` holds its terms as
    (exponents, coefficient) pairs, highest first.  For a polynomial in one
    atom whose exponent spreads, which is every divisor `recip` makes over
    one atom, the exponents are that atom's, an `int`; for every other
    divisor they are a tuple over its atoms in key order, ordered as Python
    orders tuples (lex order, a monomial order).  `spreads` maps each atom
    of its terms, in key order, to its spread (max minus min exponent, an
    absent atom at 0)."""

    spreads: dict
    powers: tuple


def _divisor(atom: Atom) -> _Divisor:
    """The poly atom's divisor data, computed at first use and held by the
    atom."""
    div = atom.divisor
    if div is None:
        terms = atom.arg._terms
        atoms = sorted({a for m, _ in terms for a, _ in m}, key=lambda a: a.key)
        powers = sorted(((tuple(dict(m).get(a, 0) for a in atoms), c) for m, c in terms),
                        reverse=True)
        spreads = {a: max(column) - min(column)
                   for a, column in zip(atoms, zip(*(e for e, _ in powers)))}
        if len(atoms) == 1 and spreads[atoms[0]]:
            powers = [(e, c) for (e,), c in powers]
        div = _Divisor(spreads, tuple(powers))
        object.__setattr__(atom, "divisor", div)
    return div


_DIVISION_STEPS = 10_000


def _divided(num: dict, den: _Divisor) -> Optional[dict]:
    """num/den for a numerator over Laurent monomials, reciprocals included,
    or None if it is not exact.

    The terms are grouped by their cofactor, the part of the monomial
    outside the divisor's atoms.  The divisor is a polynomial in its atoms
    alone, so it divides the numerator exactly when it divides each group's
    polynomial in those atoms, and the quotient is the sum of the groups'
    quotients times their cofactors.  A group that spreads less than the
    divisor in some atom is no multiple of it, and then nothing is divided.
    Each group is divided on its exponents of the divisor's atoms, a tuple
    in key order (`_vector_div`), with each atom's lowest exponent in the
    numerator (at most 0) as its least quotient exponent, and the divisions
    share one budget of steps.  A divisor whose `powers` hold `int`
    exponents is divided by `_divided_in_one_atom` instead."""
    if isinstance(den.powers[0][0], int):
        return _divided_in_one_atom(num, den)
    spreads = den.spreads
    n = len(spreads)
    place = {a: i for i, a in enumerate(spreads)}
    low = [0] * n
    groups: dict = {}
    for m, c in num.items():
        exps, cofactor = [0] * n, []
        for p in m:
            i = place.get(p[0])
            if i is None:
                cofactor.append(p)
            else:
                exps[i] = e = p[1]
                if e < low[i]:
                    low[i] = e
        groups.setdefault(tuple(cofactor), {})[tuple(exps)] = c
    for group in groups.values():
        for column, spread in zip(zip(*group), spreads.values()):
            if max(column) - min(column) < spread:
                return None
    steps = _DIVISION_STEPS
    out: dict = {}
    for cofactor, group in groups.items():
        divided = _vector_div(group, den.powers, low, steps)
        if divided is None:
            return None
        quo, steps = divided
        for q, c in quo:
            out[_mono_mul(cofactor, tuple((a, e) for a, e in zip(spreads, q) if e))] = c
    return out


def _power_div(rem: dict, powers: tuple, low: int, steps: int):
    """Exact long division, in at most `steps` steps, of the polynomial
    `rem` in one atom, which maps each exponent to its coefficient, by the
    divisor whose (exponent, coefficient) pairs `powers` holds, highest
    first.

    Returns the quotient's (exponent, coefficient) pairs, highest first,
    and the steps left, or None if the division is not exact or runs out of
    steps.  The leading term is the highest exponent left, and each
    quotient term costs one step.  A quotient exponent below `low` is a
    failure: it would go negative in the division of the numerator shifted
    to clear `low`.  By Gauss's lemma the quotient of an exact division by
    a primitive divisor has integer coefficients, and each remainder is
    the divisor times the rest of it, so every leading coefficient the
    division meets is an integer multiple of the divisor's: the first that
    is not ends it.  `rem` is consumed."""
    (top, lead_coeff), *rest = powers
    quo = []
    while rem:
        steps -= 1
        if steps < 0:
            return None
        e = max(rem)
        q = e - top
        if q < low:
            return None
        c, r = divmod(rem.pop(e), lead_coeff)
        if r:
            return None
        quo.append((q, c))
        for f, cden in rest:
            k = q + f
            c2 = rem.get(k, 0) - c * cden
            if c2:
                rem[k] = c2
            elif k in rem:
                del rem[k]
    return quo, steps


def _vector_div(rem: dict, powers: tuple, low: list, steps: int):
    """`_power_div` on exponent tuples, highest first in lex order, which
    is a monomial order: the leading term of a product is the product of
    the leading terms.  A quotient exponent below `low` in any atom is a
    failure.  `rem` is consumed."""
    (top, lead_coeff), *rest = powers
    quo = []
    while rem:
        steps -= 1
        if steps < 0:
            return None
        e = max(rem)
        q = tuple(map(sub, e, top))
        if any(map(lt, q, low)):
            return None
        c, r = divmod(rem.pop(e), lead_coeff)
        if r:
            return None
        quo.append((q, c))
        for f, cden in rest:
            k = tuple(map(add, q, f))
            c2 = rem.get(k, 0) - c * cden
            if c2:
                rem[k] = c2
            elif k in rem:
                del rem[k]
    return quo, steps


def _divided_in_one_atom(num: dict, den: _Divisor) -> Optional[dict]:
    """`_divided` by a divisor in one atom x whose exponent spreads.  One
    pass over the numerator reads each term's exponent of x and its
    cofactor, the rest of its monomial, and groups the exponents by
    cofactor in sparse dicts (an exponent may be as large as the input
    writes it).  A group that spreads less than the divisor is no multiple
    of it, and then nothing is divided.  Each group is divided by
    `_power_div`, with the numerator's lowest exponent of x (at most 0) as
    the least quotient exponent, and the divisions share one budget of
    steps."""
    (x, spread), = den.spreads.items()
    groups: dict = {}
    low = 0
    for m, c in num.items():
        for i, (a, e) in enumerate(m):
            if a is x:
                cofactor = m[:i] + m[i + 1:]
                break
        else:
            e, cofactor = 0, m
        groups.setdefault(cofactor, {})[e] = c
        if e < low:
            low = e
    for group in groups.values():
        if max(group) - min(group) < spread:
            return None
    steps = _DIVISION_STEPS
    out: dict = {}
    key = x.key
    for cofactor, group in groups.items():
        divided = _power_div(group, den.powers, low, steps)
        if divided is None:
            return None
        quo, steps = divided
        at = 0
        while at < len(cofactor) and cofactor[at][0].key < key:
            at += 1
        head, tail = cofactor[:at], cofactor[at:]
        for q, c in quo:
            out[(*head, (x, q), *tail) if q else cofactor] = c
    return out


def _is_recip(p: Tuple[Atom, int]) -> bool:
    return p[0].kind == "poly" and p[1] < 0


def _reciprocals(m: Monomial) -> Monomial:
    """The wrapped-poly reciprocals of a monomial: its denominator group.
    Wrapped polynomials sort last in a monomial (their keys start with 2),
    so they are its trailing pairs, read as one slice; they are filtered
    only when one of them has a positive exponent."""
    if not m or m[-1][0].kind != "poly":
        return _EMPTY_MONO
    i = len(m) - 1
    while i and m[i - 1][0].kind == "poly":
        i -= 1
    tail = m[i:]
    for _, e in tail:
        if e > 0:
            return tuple(filter(_is_recip, tail))
    return tail


def _cancel_denominators(terms: dict, touched=None) -> Tuple[dict, set]:
    """Divide out wrapped-poly reciprocals where the cofactor sum allows it.

    Terms are grouped by their reciprocals, which every term of a group
    shares, and each group (each group in `touched`, when given) is divided
    by each wrapped polynomial while the division is exact; the powers
    divided out are then taken off the group's reciprocals, which moves its
    terms to another group.  Returns the terms and the groups that divided
    terms landed in, empty when nothing divided; a pass that divides
    nothing returns `terms` itself, and the groups it did not divide keep
    their monomials."""
    groups: dict = {}
    for m, c in terms.items():
        den = _reciprocals(m)
        if den and (touched is None or den in touched):
            groups.setdefault(den, {})[m] = c
    out, landed = terms, set()
    for den, group in groups.items():
        num, lift = group, []
        for atom, e in den:
            div, k = _divisor(atom), 0
            while k < -e:
                quo = _divided(num, div)
                if quo is None:
                    break
                num, k = quo, k + 1
            if k:
                lift.append((atom, k))
        if lift:
            if out is terms:
                out = dict(terms)
            lift = tuple(lift)
            _add_into(out, [(m, -c) for m, c in group.items()])
            _add_into(out, [(_mono_mul(m, lift), c) for m, c in num.items()])
            landed.add(_mono_mul(den, lift))
    return out, landed


def _cancelled(items: dict, touched=None) -> dict:
    """Cancel wrapped-poly reciprocals to a fixed point: merging groups can
    expose a newly divisible numerator.  The first pass tries the groups in
    `touched` (every group when it is None), and each later pass the groups
    that the pass before moved terms into: every other group is as it was
    when it last failed to divide.  A pass that divides something strictly
    shrinks the multiset of denominator powers, so the loop ends."""
    while touched is None or touched:
        items, touched = _cancel_denominators(items, touched)
    return items


# --- the expression type --------------------------------------------------

class ScalarExpr:
    """Immutable normal-form scalar expression: integer numerators over the
    one positive denominator `_den`, reduced (see the module docstring)."""

    __slots__ = ("_terms", "_den", "_hash", "_str", "_diff", "__weakref__")

    def __init__(self, terms, den: int = 1, _normalized: bool = False):
        """The expression sum(terms) / den, for int numerators and a positive
        int `den`: `terms` maps monomials to numerators.  `_normalized=True`
        says `terms` is already a normal form, the tuple of its (monomial,
        numerator) pairs in normal-form order: it is stored as it is, but
        for the reduction."""
        if _normalized:
            items = terms
        else:
            items = _in_order(_cancelled({m: c for m, c in terms.items() if c}))
        if den != 1:
            g = math.gcd(den, *[c for _, c in items])
            if g != 1:
                items = tuple([(m, c // g) for m, c in items])
                den //= g
        self._terms = items
        self._den = den
        self._hash = None
        self._str = None
        self._diff = None  # {var: derivative}, see diff

    # construction helpers
    @staticmethod
    def const(value) -> "ScalarExpr":
        c = Fraction(value)
        return ScalarExpr({_EMPTY_MONO: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def var(name: str) -> "ScalarExpr":
        """The variable `name`, which must fully match IDENT_RE, so that no
        two atoms share a key (see the module docstring)."""
        if not IDENT_RE.fullmatch(name):
            raise ExprError(f"variable name {name!r} is not an identifier")
        return ScalarExpr({((Atom("var", name), 1),): 1})

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
        return self._terms == ((_EMPTY_MONO, 1),) and self._den == 1

    @property
    def is_rational_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0] == _EMPTY_MONO)

    # arithmetic
    def _over(self, den: int):
        """The terms with their numerators over `den`, a multiple of
        `_den`."""
        f = den // self._den
        return self._terms if f == 1 else [(m, c * f) for m, c in self._terms]

    @staticmethod
    def sum(exprs) -> "ScalarExpr":
        """The sum's normal form, built from all the summands' terms in one
        dict, over the lcm of their denominators; zero summands are skipped
        and a lone one is returned as it is.  Cancelling wrapped-poly
        reciprocals depends on grouping (with p = 1 + x^2, x^2/p + 1/p + x/p
        folds to 1 + x/p, but nothing divides (x^2 + 1 + x)/p), so the terms
        are cancelled again after each summand holding one: the sum is the
        left fold of `+`, term for term.  Every normal form is a fixed point
        of `_cancelled`, so only the groups a summand added terms to are
        tried again (and the groups their divisions move terms into).
        (Scaling every numerator by one factor changes no division, so the
        shared denominator does not change what cancels.)"""
        parts = [e for e in map(_coerce, exprs) if e._terms]
        if len(parts) < 2:
            return parts[0] if parts else _ZERO
        den = math.lcm(*(e._den for e in parts))
        out = dict(parts[0]._over(den))
        for e in parts[1:]:
            terms = e._over(den)
            _add_into(out, terms)
            touched = {_reciprocals(m) for m, _ in terms}
            touched.discard(_EMPTY_MONO)
            if touched:
                out = _cancelled(out, touched)
        return ScalarExpr(_in_order(out), den, _normalized=True)

    def __add__(self, other) -> "ScalarExpr":
        return ScalarExpr.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr(tuple([(m, -c) for m, c in self._terms]), self._den,
                          _normalized=True)

    def __sub__(self, other) -> "ScalarExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ScalarExpr":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "ScalarExpr":
        """The product's normal form, monomial by monomial: no product of
        normal forms makes a positive power of a wrapped polynomial, so
        nothing is expanded (see the module docstring).  Numerators multiply
        and so do denominators.  A zero operand is the product, a nonzero
        constant fixes the normal form directly, and so do two single
        monomials, wrapped-polynomial reciprocals and all, since a single
        term never divides.  Every other product is cancelled."""
        other = _coerce(other)
        a, b = self._terms, other._terms
        if not a:
            return self
        if not b:
            return other
        if len(b) == 1 and not b[0][0]:
            return self._scaled(b[0][1], other._den)
        if len(a) == 1 and not a[0][0]:
            return other._scaled(a[0][1], self._den)
        den = self._den * other._den
        if len(a) == 1 and len(b) == 1:
            (ma, ca), (mb, cb) = a[0], b[0]
            return ScalarExpr(((_mono_mul(ma, mb), ca * cb),), den, _normalized=True)
        return ScalarExpr(_raw_mul(dict(a), dict(b)), den)

    __rmul__ = __mul__

    def _scaled(self, p: int, q: int = 1) -> "ScalarExpr":
        """(p/q) * self for a nonzero rational p/q, q > 0: the same
        monomials, in order."""
        if p == 1 and q == 1:
            return self
        return ScalarExpr(tuple([(m, p * c) for m, c in self._terms]), q * self._den,
                          _normalized=True)

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
            e >>= 1
            if e:
                base = base * base
        return result

    def recip(self) -> "ScalarExpr":
        """Multiplicative inverse, reduced.  The monomial common to the terms
        (`_least`) is taken out and inverted, and what is left is expanded
        (`_expanded`); where the expansion cancels terms, the rest's common
        monomial is taken out in turn.  The first expansion leaves no
        wrapped polynomial, so this ends within two rounds.  A constant left
        inverts exactly.  A polynomial left becomes a wrapped-poly atom to
        the power -1, primitive: integer coefficients with gcd 1 and a
        positive last coefficient in print order.  The inverted monomials
        hold the only positive powers of wrapped polynomials that arise, and
        they are expanded at once (see the module docstring)."""
        rest, inverse = dict(self._terms), _EMPTY_MONO
        while True:
            if not rest:
                raise ZeroDivisionError("reciprocal of zero expression")
            unshift = tuple((a, -e) for a, e in _least(rest))
            if not unshift:
                break
            rest = _expanded({_mono_mul(m, unshift): c for m, c in rest.items()})
            inverse = _mono_mul(inverse, unshift)
        content = math.gcd(*rest.values())
        sign = -1 if rest[max(rest, key=_mono_key)] < 0 else 1
        if len(rest) > 1:
            primitive = ScalarExpr({m: c // (sign * content) for m, c in rest.items()})
            inverse = _mono_mul(inverse, ((Atom("poly", arg=primitive), -1),))
        return ScalarExpr(_expanded({inverse: sign * self._den}), content)

    # structure
    def __eq__(self, other) -> bool:
        return (isinstance(other, ScalarExpr) and self._terms == other._terms
                and self._den == other._den)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._terms, self._den))
        return self._hash

    def __str__(self) -> str:
        if self._str is None:
            self._str = _render(self._terms, self._den)
        return self._str

    __repr__ = __str__

    def __reduce__(self):
        # rebuild through the constructor: atoms re-intern, the hash and the
        # memo are recomputed in the receiving process
        return (ScalarExpr, (self._terms, self._den, True))


_ZERO = ScalarExpr({})
_ONE = ScalarExpr({_EMPTY_MONO: 1})


def _coerce(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return ScalarExpr.const(x)
    raise ExprError(f"cannot use {type(x).__name__} as a scalar")


def _render(terms, den: int) -> str:
    if not terms:
        return "0"
    parts = []
    for m, c in terms:
        body = _mono_str(m, Fraction(abs(c), den))
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
        if c == e._den == 1 and len(m) == 1 and m[0][0].kind == "ln" and m[0][1] == 1:
            return m[0][0].arg
    return ScalarExpr({((Atom("exp", arg=e), 1),): 1})


def sin_(e: ScalarExpr) -> ScalarExpr:
    if e.is_zero_form:
        return _ZERO
    return ScalarExpr({((Atom("sin", arg=e), 1),): 1})


def cos_(e: ScalarExpr) -> ScalarExpr:
    if e.is_zero_form:
        return _ONE
    return ScalarExpr({((Atom("cos", arg=e), 1),): 1})


def ln_(e: ScalarExpr, positive_vars: frozenset = frozenset()) -> ScalarExpr:
    if not is_syntactically_positive(e, positive_vars):
        raise ExprError(f"ln argument is not syntactically positive: {e}")
    if e.is_one:
        return _ZERO
    if len(e._terms) == 1:
        m, c = e._terms[0]
        if c == e._den == 1 and len(m) == 1 and m[0][0].kind == "exp" and m[0][1] == 1:
            return m[0][0].arg
    return ScalarExpr({((Atom("ln", arg=e), 1),): 1})


def is_syntactically_positive(e: ScalarExpr, positive_vars: frozenset = frozenset()) -> bool:
    """Conservative positivity: every term has a positive coefficient (a
    positive numerator, the denominator being positive) and only exp-atoms,
    positive-declared variables, or positive wrapped polys."""
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
    through interning, so the chain rule reuses their memos.  The derivative
    of a term c*m along its atom a^k is one monomial times c*k, m with a's
    exponent lowered by one (exp keeps its exponent), times a's derivative;
    lowering keeps a wrapped polynomial negative, so nothing is expanded.
    The numerators c*k stay over the expression's denominator."""
    if chart is not None and var not in chart.vars:
        raise ExprError(f"unknown variable {var!r} on chart {chart.vars}")
    memo = e._diff
    if memo is None:
        if e.is_rational_const:  # no memo: constants live long and are shared
            return _ZERO
        memo = _DIFF_MEMOS.setdefault(e, {})
        e._diff = memo
    hit = memo.get(var)
    if hit is not None:
        return hit
    parts = []
    den = e._den
    for m, c in e._terms:
        for a, k in m:
            da = _diff_atom(a, var)
            if da is None:
                continue
            lowered = m if a.kind == "exp" else _mono_mul(m, ((a, -1),))
            parts.append(ScalarExpr(((lowered, c * k),), den, _normalized=True) * da)
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
    evaluator (`evaluate_block`) is checked against, bit for bit.  Each
    coefficient is its numerator over `_den` in `int` true division, which
    rounds correctly and raises OverflowError beyond float range."""
    total, den = 0.0, e._den
    for m, c in e._terms:
        try:
            v = c / den
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
    """The sample box, chart variable -> (low, high) in chart order: the
    sample stream (`_draw`) draws each coordinate from its variable's range,
    and `_Bounds` bounds expressions over the same box."""
    return {v: (0.5, 2.0) if v in chart.positive else (-1.0, 1.0) for v in chart.vars}


class _Walk:
    """One memoised walk over a normal form, in a number domain that a
    subclass supplies.  The walk runs the terms in order; it computes each
    atom and each (atom, power) once per walk and shares the value with
    every term that uses it (atoms are interned, so the memo is keyed by
    them).

    A domain supplies `start`, the value of the empty sum; `term(total, c,
    den, m)`, the sum `total` plus the coefficient c/den (an int numerator
    over the expression's denominator) times the walk's `power` of each
    (atom, k) of the monomial `m`, multiplied left to right (the
    domain folds a whole monomial, so it multiplies inline); `raised(value,
    k)`, an atom value to an integer power k != 1; `variable(name)`; and
    `call(kind, value)`, exp, sin, cos or ln of a value."""

    start: object

    def __init__(self):
        self.memo: dict = {}

    def expr(self, e: ScalarExpr):
        total, term, den = self.start, self.term, e._den
        for m, c in e._terms:
            total = term(total, c, den, m)
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
    where `evaluate` raises DomainError (None when there is none).  The
    points are kept as one (rows x n) array; `state` is the state of the
    sample stream after the block's last draw, from which the stream
    continues (None for a block not drawn from a stream)."""

    def __init__(self, chart: Chart, points: np.ndarray | Sequence[Point],
                 state: Optional[tuple] = None):
        super().__init__()
        self.points = np.asarray(points, dtype=float).reshape(len(points), chart.n)
        self.columns = dict(zip(chart.vars, np.ascontiguousarray(self.points.T)))
        self.rows = len(self.points)
        self.start = np.zeros(self.rows), None
        self.state = state

    def term(self, total, c: int, den: int, m: Monomial):
        total, bad = total
        try:
            v = c / den
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
            # math.exp in C.  It takes exp(inf) = inf and raises only where a
            # finite x overflows, as every x past 710 does: such an x goes in
            # as inf, and only a block with an x in (709.78, 710] goes
            # element by element through _exp_or_inf
            over = x > 710.0
            clipped = over.any()
            xs = (np.where(over, np.inf, x) if clipped else x).tolist()
            try:
                values = np.fromiter(map(math.exp, xs), float, self.rows)
            except OverflowError:
                values = np.fromiter(map(_exp_or_inf, xs), float, self.rows)
            else:
                if not clipped:  # no x overflowed
                    return values, bad
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
# int true division, C pow and libm (each within a few units in the last
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

    def term(self, total, c: int, den: int, m: Monomial):
        try:
            v = c / den
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
    `points` (a (rows x n) array) and of `values` per point, one column of
    `values` per expression."""

    points: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


# The least share of the requested sample points a numeric verdict reads:
# below it, valid_points raises InsufficientSamples.
MIN_VALID_SHARE = Fraction(1, 2)

# Head blocks kept by _head_block: a structure's chart and the chart of its
# Poisson lift.
PLANNED_CHARTS = 2

# Most sample points a check may ask for: 16x the 256 of the numeric
# benchmark tier.  It bounds the memory of a sample (10x oversampling on up
# to 12 coordinates) and of a sampler's head blocks.
MAX_POINTS = 4096

# the sampling settings: the type of each (which also reads it from text),
# which values are valid, and what a valid one is
SETTINGS = {
    "seed": (int, lambda v: v >= 0, "non-negative integer"),
    "points": (int, lambda v: 0 < v <= MAX_POINTS, f"integer in 1..{MAX_POINTS}"),
    "tol": (float, lambda v: 0 < v < math.inf, "positive finite float"),
}


def _draw(rng: random.Random, chart: Chart, count: int) -> np.ndarray:
    """The next `count` points of the sample stream `rng`, as one (count x
    n) array: `rng.random()` once per coordinate, in row order, then each
    coordinate mapped onto its variable's range of the sample box as
    random.uniform(low, high) maps it, low + (high - low) * u (the same
    IEEE multiply, then add)."""
    box = _sample_box(chart).values()
    low = np.array([lo for lo, _ in box])
    width = np.array([hi - lo for lo, hi in box])
    # rng.random never returns None: an endless C-level call iterator
    u = np.fromiter(iter(rng.random, None), float, count * chart.n)
    return low + width * u.reshape(count, chart.n)


@dataclass(frozen=True)
class Sampler:
    """Deterministic point sampler; positive variables draw from [0.5, 2].

    A plain value: equal samplers draw equal points on a chart and share
    its head block (`_head_block`).  The chart's sample stream is one
    `random.Random` keyed by `int(seed)` and the chart's variables, so
    samplers that compare equal (`True` and 1) draw the same stream; every
    block of points is read off it as one array (`_draw`).  Each setting
    must be of its type in `SETTINGS` and valid there; any other value
    raises ExprError."""

    seed: int = 0
    points: int = 64
    tol: float = 1e-9

    def __post_init__(self):
        for name, (kind, valid, what) in SETTINGS.items():
            value = getattr(self, name)
            if not (isinstance(value, kind) and valid(value)):
                raise ExprError(f"bad {name} {value!r} (expected {what})")

    def _stream(self, chart: Chart) -> random.Random:
        """The chart's sample stream, from its start."""
        return random.Random(f"{int(self.seed)}|{','.join(chart.vars)}")

    def draw(self, chart: Chart, count: Optional[int] = None) -> Iterator[Point]:
        """The chart's first `count` (default `points`) sample points, each
        a tuple of floats: the rows of `_draw` on the chart's stream."""
        rows = _draw(self._stream(chart), chart,
                     count if count is not None else self.points)
        return map(tuple, rows.tolist())

    def valid_points(self, chart: Chart, exprs: Sequence[ScalarExpr]) -> SampleTable:
        """Up to `points` sample points where every expression evaluates,
        in draw order, with the values there; domain-error points are
        discarded, oversampling at most 10x; fewer than
        ceil(MIN_VALID_SHARE x `points`) kept raise InsufficientSamples.
        The chart's head block is evaluated first, with its memoised
        columns.  Only while points are missing does the scan read on past
        the head: the stream continues from the head's state, in blocks of
        as many draws as are missing, so none is read past the last one
        kept, and no draw is made twice; each block is evaluated at once
        (evaluate_block)."""
        head = _head_block(self, chart)
        vals, ok = evaluate_block(exprs, head)
        points, values = [head.points[ok]], [vals[ok]]
        missing = self.points - len(values[0])
        if missing:
            rng = random.Random()
            rng.setstate(head.state)
            left = 9 * self.points  # the draws past the head, 10x in all
            while missing and left:
                block = _Block(chart, _draw(rng, chart, min(missing, left)))
                left -= block.rows
                vals, ok = evaluate_block(exprs, block)
                points.append(block.points[ok])
                values.append(vals[ok])
                missing -= len(values[-1])
        kept = self.points - missing
        floor = math.ceil(MIN_VALID_SHARE * self.points)
        if kept < floor:
            raise InsufficientSamples(
                f"only {kept} of {self.points} sample points are in the "
                f"domain, below the floor of {floor}")
        return SampleTable(np.concatenate(points), np.concatenate(values))


@functools.lru_cache(maxsize=PLANNED_CHARTS)
def _head_block(sampler: Sampler, chart: Chart) -> _Block:
    """The `_Block` of the chart's first `points` draws, as one array, with
    the stream's state after them; its atom and atom-power columns every
    check on the chart with an equal sampler shares.  A column a check adds
    is the one any other check would compute, and a refill continues from
    its own copy of the state, so threads may share the block too."""
    rng = sampler._stream(chart)
    points = _draw(rng, chart, sampler.points)
    return _Block(chart, points, rng.getstate())


@dataclass(frozen=True)
class CheckResult:
    """One decided check.  A failing zero test also holds the residual at
    its witness as `value`, which the reports do not print."""
    name: str
    tier: str          # "symbolic" | "numeric"
    passed: bool
    witness: Optional[Point] = None
    detail: str = ""
    value: Optional[float] = None


def first_row(exprs: Sequence[ScalarExpr], chart: Chart, sampler: Sampler,
              fails: Callable[[np.ndarray], np.ndarray]
              ) -> Optional[Tuple[Point, np.ndarray]]:
    """The first (point, values) row of `sampler.valid_points` that fails, in
    draw order; None when every row passes.  `fails` takes the whole
    (rows x exprs) value array and returns one boolean per row.  The point
    is the one row of the table turned into a tuple of Python floats, so a
    witness prints as the point `Sampler.draw` yields.  Every sampled check
    in the kernel reads its points through this scan."""
    table = sampler.valid_points(chart, exprs)
    failing = fails(table.values)
    i = int(np.argmax(failing))
    if not failing[i]:
        return None
    return tuple(table.points[i].tolist()), table.values[i]


def _reaches_tol(vals: np.ndarray, tol: float) -> np.ndarray:
    """|v| >= tol, element-wise: the one rule by which both zero verdicts
    (is_zero, vanishing_point) read sampled values."""
    return np.abs(vals) >= tol


def is_zero(exprs: Sequence[ScalarExpr], chart: Chart, sampler: Sampler,
            name: str = "", detail: str = "") -> CheckResult:
    """The record `name` of the joint zero test: tier symbolic exactly when
    every expression is zero in normal form, else decided by sampling.  The
    witness is the first point where a value reaches tol."""
    if all(e.is_zero_form for e in exprs):
        return CheckResult(name, "symbolic", True, detail=detail)
    tol = sampler.tol
    row = first_row(exprs, chart, sampler,
                    lambda vals: _reaches_tol(vals, tol).any(axis=1))
    if row is None:
        return CheckResult(name, "numeric", True, detail=detail)
    vals = row[1]
    return CheckResult(name, "numeric", False, row[0], detail,
                       float(vals[np.argmax(_reaches_tol(vals, tol))]))


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
