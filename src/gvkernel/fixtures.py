"""Built-in chart fixtures: the model Jacobi structures used throughout the
test and acceptance suites.  Registry names are part of the public contract.

The registry is eight problem files, read through `dsl.parse_problem` as
any other file is.  They hold the flat LCS model
sum_i d/dx_{2i-1} ^ d/dx_{2i} and the standard contact model
sum_i (d/dx_{2i-1} - x_{2i} d/dx_0) ^ d/dx_{2i} with E = d/dx0, each with a
transversal variable y.  `contact-r3-ext` and `contact-model-r3` are one
structure under two names.  All fixtures carry the flat volume form on
their chart.  `contact-r3` is the three-dimensional contact model whose
foliation has codimension 0; it is registered for the Poissonization path
and doubles as a verify-rejection case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .alg import DiffForm, MultiVector
from .dsl import parse_problem
from .expr import Chart


@dataclass(frozen=True)
class Fixture:
    name: str
    chart: Chart
    vol: DiffForm
    pi: MultiVector
    E: MultiVector
    kind: str                 # expected classification ("lcs" | "contact")
    m: int
    q: int
    commands: Tuple[str, ...]  # default CLI command list


_STD = "run verify pair gv codim1 poissonize\n"
_CONTACT = "E = d/dx0\nrun verify pair gv codim1 poissonize bridge\n"
_CONTACT_R3_EXT = "chart x0 x1 x2 y\npi = (d/dx1 - x2*d/dx0)^d/dx2\n" + _CONTACT

# name -> (problem file, expected kind, m, q)
_REGISTRY: Dict[str, Tuple[str, str, int, int]] = {
    "poisson-r3": ("chart x1 x2 x3\npi = d/dx1^d/dx2\n" + _STD, "lcs", 1, 1),
    # conformal rescale of poisson-r3 by a = exp(x3): pi' = a pi, and
    # E' = -iota_{da} pi = 0 because pi has no d/dx3 component.
    "rescaled-poisson-r3": ("chart x1 x2 x3\npi = exp(x3)*d/dx1^d/dx2\n" + _STD,
                            "lcs", 1, 1),
    "contact-r3": ("chart x0 x1 x2\npi = (d/dx1 - x2*d/dx0)^d/dx2\nE = d/dx0\n"
                   "run poissonize\n", "contact", 1, 0),
    "contact-r3-ext": (_CONTACT_R3_EXT, "contact", 1, 1),
    "lcs-model-r2": ("chart x1 x2 y\npi = d/dx1^d/dx2\n" + _STD, "lcs", 1, 1),
    "lcs-model-r4": ("chart x1 x2 x3 x4 y\npi = d/dx1^d/dx2 + d/dx3^d/dx4\n" + _STD,
                     "lcs", 2, 1),
    "contact-model-r3": (_CONTACT_R3_EXT, "contact", 1, 1),
    "contact-model-r5": ("chart x0 x1 x2 x3 x4 y\n"
                         "pi = (d/dx1 - x2*d/dx0)^d/dx2 + (d/dx3 - x4*d/dx0)^d/dx4\n"
                         + _CONTACT, "contact", 2, 1),
}

FIXTURE_NAMES: Tuple[str, ...] = tuple(_REGISTRY)


def get_fixture(name: str) -> Fixture:
    try:
        text, kind, m, q = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}") from None
    pf = parse_problem(text)
    return Fixture(name, pf.chart, DiffForm.basis(pf.chart, range(pf.chart.n)), pf.pi,
                   pf.E, kind, m, q, tuple(command for command, _ in pf.commands))
