"""Shared randomized-input helpers.  Everything is seeded: the suites that
freeze counts (200 Lemma-4.2 pairs, 500 bracket oracles, ...) must be
reproducible run to run."""

from __future__ import annotations

import itertools
import random

import pytest

from gvkernel.alg import DiffForm, MultiVector
from gvkernel.expr import Chart, Sampler, ScalarExpr, _head_block


@pytest.fixture(autouse=True)
def _no_memoised_heads():
    """Every test starts with no head block memoised, so what it draws does
    not depend on the tests that ran before it."""
    _head_block.cache_clear()


@pytest.fixture
def sampler():
    return Sampler(seed=0, points=64, tol=1e-9)


def rand_scalar(rng: random.Random, chart: Chart, deg: int = 2,
                terms: int = 3, span: int = 3) -> ScalarExpr:
    """Random polynomial in the chart variables, degree <= deg per term."""
    e = ScalarExpr.const(rng.randint(-span, span))
    for _ in range(terms):
        t = ScalarExpr.const(rng.randint(-span, span))
        for _ in range(rng.randint(0, deg)):
            t = t * ScalarExpr.var(rng.choice(chart.vars))
        e = e + t
    return e


def _rand_terms(rng, chart, grade, nterms, deg):
    masks = [sum(1 << i for i in c)
             for c in itertools.combinations(range(chart.n), grade)]
    return {rng.choice(masks): rand_scalar(rng, chart, deg) for _ in range(nterms)}


def rand_mv(rng: random.Random, chart: Chart, grade: int,
            nterms: int = 2, deg: int = 2) -> MultiVector:
    if grade == 0:
        return MultiVector.scalar(chart, rand_scalar(rng, chart, deg))
    return MultiVector(chart, grade, _rand_terms(rng, chart, grade, nterms, deg))


def rand_form(rng: random.Random, chart: Chart, grade: int,
              nterms: int = 2, deg: int = 2) -> DiffForm:
    if grade == 0:
        return DiffForm.scalar(chart, rand_scalar(rng, chart, deg))
    return DiffForm(chart, grade, _rand_terms(rng, chart, grade, nterms, deg))
