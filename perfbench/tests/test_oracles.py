"""Checks of the benchmark's own oracles.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import oracles  # noqa: E402

PROBS = (Fraction(1, 4), Fraction(3, 4))
THIRDS = [(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(2, 3))]


def brute_histogram(j, probs, width):
    hist = {}
    for word in itertools.product((0, 1), repeat=j):
        mass = math.prod(probs[s] for s in word)
        alpha = math.log(mass) / (-j * math.log(3.0))
        b = math.floor(alpha / width)
        hist[b] = hist.get(b, 0) + 1
    return hist


def test_binomial_histogram_matches_brute_force():
    for j in range(1, 11):
        for width in (0.2, 0.05):
            assert oracles.binomial_histogram(j, PROBS, width) == brute_histogram(j, PROBS, width)


def test_cylinder_boxes_match_base3_digits():
    for j in range(1, 7):
        boxes = dict(oracles.cylinder_boxes(j, PROBS))
        assert len(boxes) == 2 ** j and sum(boxes.values()) == 1
        for index in range(3 ** j):
            digits, rest = [], index
            for _ in range(j):
                rest, digit = divmod(rest, 3)
                digits.append(digit)
            if 1 in digits:
                assert index not in boxes
            else:
                assert boxes[index] == math.prod(PROBS[d // 2] for d in digits)


def test_affine_cdf_exact_values():
    dom = (Fraction(0), Fraction(1))
    assert oracles.affine_cdf(THIRDS, PROBS, dom, Fraction(1, 3)) == (Fraction(1, 4),) * 2
    assert oracles.affine_cdf(THIRDS, PROBS, dom, Fraction(1, 2)) == (Fraction(1, 4),) * 2
    assert oracles.affine_cdf(THIRDS, PROBS, dom, Fraction(2, 3)) == (Fraction(1, 4),) * 2
    # 1/4 = 0.020202... in base 3: F = (1/16) / (1 - 3/16) = 1/13
    lo, hi = oracles.affine_cdf(THIRDS, PROBS, dom, Fraction(1, 4))
    assert lo <= Fraction(1, 13) <= hi and hi - lo < Fraction(1, 10 ** 100)
    halves = [(Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))]
    x = Fraction(5, 17)
    lo, hi = oracles.affine_cdf(halves, [Fraction(1, 2)] * 2, dom, x)
    assert lo <= x <= hi


def test_holder_exponents_closed_form():
    e0, e1 = oracles.cantor_holder_exponents(PROBS)
    assert abs(e0 - math.log(4) / math.log(3)) < 1e-15
    assert abs(e1 - math.log(4 / 3) / math.log(3)) < 1e-15


def test_cycle_expansion_gives_cantor_dimension():
    thirds = [(Fraction(1), Fraction(0), Fraction(0), Fraction(3)),
              (Fraction(1), Fraction(2), Fraction(0), Fraction(3))]
    levels = oracles.cycle_multipliers(thirds, (Fraction(0), Fraction(1)), 8)
    assert abs(float(oracles.dimension(levels)) - math.log(2) / math.log(3)) < 1e-15


def test_committed_moebius_reference_regenerates():
    with open(os.path.join(os.path.dirname(HERE), "moebius_reference.json")) as fh:
        ref = json.load(fh)
    cfg = {"system": {"domain": [0, 1], "maps": [{"a": 1, "b": 0, "c": 1, "d": 2},
                                                 {"a": 2, "b": 2, "c": 1, "d": 3}]}}
    levels = oracles.cycle_multipliers(oracles.moebius_maps(cfg), oracles.domain(cfg), 10)
    assert abs(float(oracles.dimension(levels)) - ref["dimension"]) < 1e-15
    assert ref["dimension_change_from_two_shorter_cycles"] < 1e-15
    # the first-order bias at depth 10 against a direct periodic-sum root
    import mpmath
    z10 = levels[9]
    beta10 = mpmath.findroot(lambda t: mpmath.fsum(lam ** t for lam in z10) - 1, 0.6)
    bias = float(beta10) - ref["dimension"]
    assert abs(bias - oracles.depth_bias(ref, 10)) < 0.01 * bias


def test_benchmark_json_lists_every_layer_metric():
    import spans
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == spans.layer_metric_names()
