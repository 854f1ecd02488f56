"""Tests of the benchmark's own output checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import torus_super  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402
from torus_super import (  # noqa: E402
    KNOT,
    LaurentPolynomial,
    NonPolynomial,
    Superpolynomial,
    compute,
    specialize,
)
from worker import CORPUS_PAIRS, FIXTURES  # noqa: E402

IN_SCOPE = [pair for pair in CORPUS_PAIRS if checks.in_closed_form_scope(*pair)]


def test_scope_covers_most_of_the_corpus():
    assert (5, 8) not in IN_SCOPE and (3, 4) in IN_SCOPE
    assert len(IN_SCOPE) == 14


@pytest.mark.parametrize("pair", IN_SCOPE)
def test_accepts_in_scope_corpus_knots(pair):
    n, m = pair
    result = compute(n, m)
    assert checks.check_knot(n, m, result, specialize) == []
    stored = (FIXTURES / f"{n}_{m}.json").read_text()
    assert checks.check_fixture(str(pair), stored, checks.knot_json(n, m, result.terms.terms)) == []


def test_five_eight_passes_properties_and_its_table():
    result = compute(5, 8)
    assert checks.check_knot(5, 8, result, specialize) == []
    stored = (FIXTURES / "5_8.json").read_text()
    assert checks.check_fixture("(5,8)", stored, checks.knot_json(5, 8, result.terms.terms)) == []


def test_rejects_five_seven_against_the_closed_forms():
    result = compute(5, 7)
    assert checks.check_polynomial(5, 7, result.terms.terms, lambda t: {}) == []
    errors = checks.check_closed_forms(
        5, 7, result.terms.terms,
        specialize(result, "alexander").terms, specialize(result, "jones").terms,
    )
    assert any("Alexander" in e for e in errors)
    assert any("132" in e and "66" in e for e in errors)


def _with_terms(result: Superpolynomial, terms: dict) -> Superpolynomial:
    return Superpolynomial(
        n=result.n, m=result.m, terms=LaurentPolynomial(KNOT, terms),
        content=result.content, flags=result.flags,
    )


def test_rejects_three_four_with_one_coefficient_changed():
    result = compute(3, 4)
    terms = dict(result.terms.terms)
    terms[(0, 4, 2)] += 1
    altered = _with_terms(result, terms)
    assert checks.check_knot(3, 4, altered, specialize) != []
    stored = (FIXTURES / "3_4.json").read_text()
    assert checks.check_fixture("(3,4)", stored, checks.knot_json(3, 4, terms)) != []


def test_rejects_a_changed_coefficient_off_the_a0_slice():
    result = compute(3, 4)
    terms = dict(result.terms.terms)
    terms[(2, 2, 3)] = 2
    assert any("Alexander" in e or "Jones" in e
               for e in checks.check_knot(3, 4, _with_terms(result, terms), specialize))


def test_rejects_broken_properties():
    terms = dict(compute(2, 3).terms.terms)
    terms[(1, 0, 0)] = -1
    errors = checks.check_properties(2, 3, terms)
    assert any("positive" in e for e in errors) and any("odd" in e for e in errors)


def test_rejects_nonpolynomial_for_a_coprime_pair():
    assert checks.check_knot(3, 4, NonPolynomial(n=3, m=4, gcd=1), specialize) != []


def test_noncoprime_pairs_must_be_nonpolynomial_with_their_gcd():
    assert checks.check_knot(4, 6, compute(4, 6), specialize) == []
    assert checks.check_knot(4, 6, NonPolynomial(n=4, m=6, gcd=1), specialize) != []
    assert checks.check_knot(4, 6, compute(3, 4), specialize) != []


def test_closed_forms_of_the_trefoil():
    # Δ = x - 1 + x^{-1} and V = x + x^3 - x^4, up to a shift.
    assert checks.shift_normal(checks.alexander_closed(2, 3)) == ((0, 1), (1, -1), (2, 1))
    assert checks.jones_closed(2, 3) == {1: 1, 3: 1, 4: -1}
    assert checks.rational_catalan(3, 4) == 5


def test_tracer_records_and_restores():
    invariant = torus_super.invariant
    original = invariant.compute
    tracer = Tracer()
    tracer.install(torus_super)
    try:
        assert invariant.compute is not original and torus_super.compute is invariant.compute
        torus_super.compute(2, 9)
        torus_super.compute(2, 9)
    finally:
        tracer.uninstall()
    assert invariant.compute is original and torus_super.compute is original
    layers = tracer.layer_metrics(1.0)
    assert set(layers) == set(LAYER_METRICS)
    assert layers["invariant.compute.calls"] == 2
    assert layers["invariant.compute.s"] >= layers["invariant.compute.self_s"] >= 0
