"""Acceptance gate: one criterion per test, one printed pass/fail line each."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import torus_super
from torus_super.algebra import KNOT, LaurentPolynomial, exact_divide
from torus_super.invariant import (
    MACD_TO_KNOT,
    NonPolynomial,
    compute,
    generating_function,
    generating_function_from_json,
    scan,
    specialize,
    superpolynomial_to_json,
)
from torus_super.macdonald import cell_elementary, framing_factor
from torus_super.oracle import (
    verify_cauchy,
    verify_dimension,
    verify_power_sum_expansion,
)
from torus_super.partitions import cells, enumerate_partitions, size, transpose

FIXTURES = Path(__file__).parent.parent / "src" / "torus_super" / "fixtures"

CORPUS_PAIRS = (
    (2, 3), (2, 5), (2, 7),
    (3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (3, 11),
    (4, 5), (4, 7), (4, 9), (4, 11),
    (5, 6), (5, 8),
)


def report(ok, label):
    print(("PASS" if ok else "FAIL") + f": {label}")
    assert ok, label


def test_criterion_1_corpus_exactness():
    start = perf_counter()
    mismatches = []
    for n, m in CORPUS_PAIRS:
        want = (FIXTURES / f"{n}_{m}.json").read_text().strip()
        got = superpolynomial_to_json(compute(n, m))
        if got != want:
            mismatches.append((n, m))
    elapsed = perf_counter() - start
    report(
        not mismatches,
        f"criterion 1: all 15 table fixtures reproduced byte-for-byte "
        f"({elapsed:.2f}s)" + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_2_polynomiality_dichotomy():
    start = perf_counter()
    rows = scan(6, 20).rows
    elapsed = perf_counter() - start
    bad = [
        (r.n, r.m, r.status)
        for r in rows
        if r.status != ("ok" if math.gcd(r.n, r.m) == 1 else "nonpolynomial")
    ]
    report(
        not bad,
        f"criterion 2: coprime pairs polynomial with positive integer "
        f"coefficients, the rest NonPolynomial, over n <= 6, m <= 20 "
        f"({len(rows)} pairs, {elapsed:.1f}s)" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_3_trefoil_reductions():
    trefoil = compute(2, 3)
    aq = ("a", "q")
    q_only = ("q",)
    ok = (
        specialize(trefoil, "homfly")
        == LaurentPolynomial(aq, {(0, 0): 1, (0, 4): 1, (2, 2): -1})
        and specialize(trefoil, "jones")
        == LaurentPolynomial(q_only, {(0,): 1, (4,): 1, (6,): -1})
        and specialize(trefoil, "alexander")
        == LaurentPolynomial(q_only, {(0,): 1, (2,): -1, (4,): 1})
    )
    report(ok, "criterion 3: trefoil chain 1+q^4-a^2q^2 -> 1+q^4-q^6 -> 1-q^2+q^4")


def test_criterion_4_generating_functions():
    exact = []
    for n, r in [(2, 1), (3, 1), (3, 2)]:
        want = generating_function_from_json((FIXTURES / f"f_{n}_{r}.json").read_text())
        got = generating_function(n, r)
        exact.append(
            sorted(got.poles) == sorted(want.poles)
            and dict(got.numerator) == dict(want.numerator)
        )
    heavy = generating_function(4, 1)
    series_ok = all(
        heavy.series(3)[k] == compute(4, 4 * k + 1).terms for k in range(4)
    )
    report(
        all(exact) and series_ok,
        "criterion 4: closed generating functions match the printed rational "
        "forms for (2,1), (3,1), (3,2); (4,1) matches its series through k=3",
    )


def test_criterion_5_oracle_equivalence():
    start = perf_counter()
    coeffs_ok = all(verify_power_sum_expansion(n) for n in range(1, 5))
    dims_ok = all(
        verify_dimension(y, nv)
        for n in range(1, 5)
        for y in enumerate_partitions(n)
        for nv in (3, 4, 5)
    )
    cauchy_ok = all(verify_cauchy(d, d, d) for d in (1, 2, 3))
    elapsed = perf_counter() - start
    report(
        coeffs_ok and dims_ok and cauchy_ok,
        f"criterion 5: closed forms agree with the brute-force symmetric "
        f"function oracle (expansion coefficients, principal specializations, "
        f"kernel identity) ({elapsed:.1f}s)",
    )


def _random_poly(rng, alphabet):
    terms = {}
    for _ in range(rng.randint(1, 20)):
        exps = tuple(rng.randint(-8, 8) for _ in alphabet)
        c = terms.get(exps, 0) + Fraction(rng.randint(-9, 9))
        if c:
            terms[exps] = c
        else:
            terms.pop(exps, None)
    if not terms:
        terms[(0,) * len(alphabet)] = Fraction(1)
    return LaurentPolynomial(alphabet, terms)


_DETERMINISM_CHILD = """
import json
from torus_super.invariant import compute, scan, superpolynomial_to_json
print(json.dumps(superpolynomial_to_json(compute(4, 9))))
print(json.dumps([
    [r.n, r.m, r.gcd, r.status, r.a_max, r.q_max, r.t_max, r.term_count]
    for r in scan(3, 8).rows
]))
"""


def test_criterion_6_property_suites():
    rng = random.Random(11)
    division_ok = True
    hom_ok = True
    for _ in range(20):
        f = _random_poly(rng, KNOT)
        g = _random_poly(rng, KNOT)
        division_ok = division_ok and exact_divide(f * g, g) == f
    macd = ("q", "t", "A")
    for _ in range(20):
        f = _random_poly(rng, macd)
        g = _random_poly(rng, macd)
        hom_ok = hom_ok and (f * g).substitute(MACD_TO_KNOT) == f.substitute(
            MACD_TO_KNOT
        ) * g.substitute(MACD_TO_KNOT)

    gamma_ok = True
    zqt = ("z", "q", "t")
    for n in range(1, 7):
        for y in enumerate_partitions(n):
            product = LaurentPolynomial.one(zqt)
            for i, j in cells(y):
                product = product * LaurentPolynomial(zqt, {(0, 0, 0): 1, (1, -j, i): 1})
            collected = {}
            for r in range(n + 1):
                for (eq, et, _), c in cell_elementary(y, r).terms.items():
                    collected[(r, eq, et)] = c
            gamma_ok = gamma_ok and product == LaurentPolynomial(zqt, collected)

    framing_ok = all(
        framing_factor(y)
        == (-sum(j for _, j in cells(y)), sum(i for i, _ in cells(y)), 0)
        and 2 * sum(i for i, _ in cells(y)) == size(y) + sum(c * c for c in transpose(y))
        for n in range(1, 9)
        for y in enumerate_partitions(n)
    )

    shape_ok = True
    for n, m in CORPUS_PAIRS:
        p = compute(n, m).terms
        shape_ok = shape_ok and p.constant_term == 1
        shape_ok = shape_ok and p.min_exponents() == (0, 0, 0)
        shape_ok = shape_ok and p.max_exponents()[0] == 2 * (n - 1)
        slices = {}
        for (ea, eq, et), _ in p.terms.items():
            shape_ok = shape_ok and ea % 2 == 0
            slices.setdefault(ea, set()).add((eq + et) % 2)
        shape_ok = shape_ok and all(len(par) == 1 for par in slices.values())

    # The same outputs from a child interpreter with another string-hash seed.
    package_root = str(Path(torus_super.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_CHILD],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed},
    )
    here = [
        superpolynomial_to_json(compute(4, 9)),
        [
            [r.n, r.m, r.gcd, r.status, r.a_max, r.q_max, r.t_max, r.term_count]
            for r in scan(3, 8).rows
        ],
    ]
    deterministic = child.returncode == 0 and here == [
        json.loads(line) for line in child.stdout.splitlines()
    ]

    report(
        division_ok and hom_ok and gamma_ok and framing_ok and shape_ok and deterministic,
        "criterion 6: seeded property suites (division round trip, "
        "substitution homomorphism, elementary-symmetric generating identity, "
        "framing closed form, normalization shape, hash-seed determinism)",
    )


def test_criterion_7_five_eight_scope():
    result = compute(5, 8)
    want = (FIXTURES / "5_8.json").read_text().strip()
    ok = (
        not isinstance(result, NonPolynomial)
        and superpolynomial_to_json(result) == want
    )
    report(
        ok,
        "criterion 7: (5,8) matches the stored table exactly; the formula is "
        "known not to give the true homological invariant there, so table "
        "agreement is the whole claim",
    )
