"""Metamorphic relations: changes of a problem that must leave its answer
unchanged, checked on the walks that compute it.

(a) A change of coordinates x -> A x + b, A an integer matrix whose
    determinant is prime to p, is a bijection on every level's points that
    commutes with truncation.  So point counts and the true truncation
    images do not move.  With b = 0 the ball tree's walk is the same walk
    in other coordinates, so its certified and open rows do not move
    either; a translation moves the ball centres the tree reads exact
    zeros at, so there the two sandwiches [certified, certified + open]
    need only share the true value.
(b) A change of generators (f, g) -> (u f, g), u a unit at every point,
    or (f + h g, g) keeps the ideal, hence the points, the images and the
    tree's rows.
(c) A formula measure under the change of (a), made in the target's
    generators and in every polynomial of the formula with t fixed, and
    under the unit multiple of (b) in the target's generator: each level's
    lower and upper bound and the verdict are unchanged (with b = 0), or
    the two sandwiches overlap (with a translation).

Every case is fixed: no randomness, so a failure names its case.
"""

import functools
import re

import pytest

from padicstacks.definable import measure_formula, parse_formula
from padicstacks.polyscheme import AffineScheme
from padicstacks.rings import make_ring
from padicstacks.tree import BallTree, level_counts

V = ("x", "y")
CURVES = {"conic": ("x^2 + y^2 - 1",), "cusp": ("y^2 - x^3",), "node": ("y^2 - x^2 - x^3",),
          "xy3": ("x*y - 3",)}
PAIRS = {"conic-diagonal": ("x^2 + y^2 - 1", "x - y"), "cusp-axes": ("y^2 - x^3", "x*y"),
         "xy3-line": ("x*y - 3", "x + y - 4")}
# x -> A x and x -> A x + b, det A in {1, 2, -1}: prime to 3, 5 and 31
IDENTITY = {"x": "x", "y": "y"}
LINEAR = ({"x": "2*x + y", "y": "x + y"}, {"x": "x + 3*y", "y": "2*y"}, {"x": "y", "y": "x"})
AFFINE = ({"x": "2*x + y + 1", "y": "x + y - 2"}, {"x": "x + 3*y", "y": "2*y + 5"})
UNIT = "2 + 465*x*y"  # a unit at every point mod 3, 5 and 31 (465 = 3 * 5 * 31)
RAM3 = make_ring(3, e=2, eisenstein=(-3, 0))
GR9 = make_ring(3, r=2)
# (ring at level 0, deepest level) for the counts
COUNT_RINGS = ((make_ring(3), 5), (make_ring(5), 5), (make_ring(31), 2), (RAM3, 3), (GR9, 2))


def substitute(text, change):
    """The text with each variable replaced by its image, in parentheses."""
    return re.sub(r"\b([xy])\b", lambda m: f"({change[m.group(1)]})", text)


def scheme(gens):
    return AffineScheme.from_text("X", V, gens, 2 - len(gens))


def images(gens, p, slack):
    return BallTree(scheme(gens).generators, 2, p).image_levels(5, slack)


def overlap(a, b):
    """Whether two sandwiches [lo, hi] share a value at every level."""
    return all(max(lo1, lo2) <= min(hi1, hi2) for (lo1, hi1), (lo2, hi2) in zip(a, b))


def counts_agree(gens, changed):
    for ring, level in COUNT_RINGS:
        assert level_counts(scheme(gens), ring, level) == level_counts(
            scheme(changed), ring, level), (gens, changed, ring)


SYSTEMS = {**CURVES, **PAIRS}


@pytest.mark.parametrize("name", SYSTEMS)
def test_coordinate_change_keeps_counts(name):
    gens = SYSTEMS[name]
    for change in LINEAR + AFFINE:
        counts_agree(gens, tuple(substitute(g, change) for g in gens))


@pytest.mark.parametrize("name", SYSTEMS)
def test_linear_change_keeps_image_rows(name):
    gens = SYSTEMS[name]
    for change in LINEAR:
        changed = tuple(substitute(g, change) for g in gens)
        for p in (3, 5):
            for slack in (0, 2):
                assert images(gens, p, slack) == images(changed, p, slack), (change, p, slack)


@pytest.mark.parametrize("name", SYSTEMS)
def test_translation_keeps_image_sandwiches_overlapping(name):
    gens = SYSTEMS[name]
    for change in AFFINE:
        changed = tuple(substitute(g, change) for g in gens)
        for p in (3, 5):
            for slack in (0, 2):
                before, after = images(gens, p, slack), images(changed, p, slack)
                assert overlap([(c, c + o) for c, o in before],
                               [(c, c + o) for c, o in after]), (change, p, slack)


@pytest.mark.parametrize("name", PAIRS)
def test_change_of_generators_keeps_counts_and_images(name):
    f, g = PAIRS[name]
    for changed in ((f"2*({f})", g), (f"({UNIT})*({f})", g), (f"{f} + (x^2 - y)*({g})", g)):
        counts_agree((f, g), changed)
        for p in (3, 5):
            for slack in (0, 2):
                assert images((f, g), p, slack) == images(changed, p, slack), (changed, p, slack)


# ord, congruence, ac/red and exact atoms; the first three are the demo's
FORMULAS = ("ord(x) >= 1", "ord(x*y - t) == INFINITY",
            "ord(x) mod 2 == 0 && ord(x) <= 4 && ac(x) == 1",
            "red(x + y) == 1 || ord(y) < 2", "x - y == 0 || ac(y) == 2",
            "x*y - t == 0 && ord(x - y) mod 2 == 1")
TARGETS = {"A2": (), "conic": CURVES["conic"], "cusp": CURVES["cusp"], "node": CURVES["node"]}
# (ring at level 0, deepest level) for the formula measures
MEASURE_RINGS = ((make_ring(3), 4), (make_ring(5), 4), (RAM3, 2))


@functools.cache
def measured(text, gens, ring):
    """(lower, upper, status, value) of the formula on the target over
    MEASURE_RINGS[ring]."""
    base, level = MEASURE_RINGS[ring]
    m = measure_formula(parse_formula(text, V), scheme(gens), 2 - len(gens), base,
                        max_level=level)
    return m.lower, m.upper, m.status, m.value


def measures(text, gens, change):
    """Each base ring of MEASURE_RINGS, with the formula's measure on the
    target and under the change."""
    for ring, (base, _) in enumerate(MEASURE_RINGS):
        yield base, [measured(substitute(text, c), tuple(substitute(g, c) for g in gens), ring)
                     for c in (IDENTITY, change)]


@pytest.mark.parametrize("target", TARGETS)
def test_formula_measures_move_with_a_linear_change(target):
    gens = TARGETS[target]
    for text in FORMULAS:
        for base, (run, moved) in measures(text, gens, LINEAR[1]):
            assert run == moved, (text, base)


@pytest.mark.parametrize("target", ["conic", "cusp", "node"])
def test_formula_measures_overlap_under_a_translation(target):
    gens = TARGETS[target]
    for text in FORMULAS:
        for base, (run, moved) in measures(text, gens, AFFINE[0]):
            assert overlap(zip(run[0], run[1]), zip(moved[0], moved[1])), (text, base)
            if run[2] == moved[2] == "STABILIZED":
                assert run[3] == moved[3], (text, base)


@pytest.mark.parametrize("target", ["conic", "cusp", "node"])
def test_formula_measures_ignore_a_unit_multiple_of_the_target(target):
    (f,) = TARGETS[target]
    for text in FORMULAS:
        for ring in range(len(MEASURE_RINGS)):
            before, after = (measured(substitute(text, IDENTITY), (g,), ring)
                             for g in (substitute(f, IDENTITY), f"({UNIT})*({f})"))
            assert before == after, (text, ring)
