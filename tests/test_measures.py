import itertools
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicstacks import measures
from padicstacks.definable import measure_formula, specialize_primes
from padicstacks.measures import (
    FitNotFound,
    RationalFunction,
    _stabilize,
    padic_measure,
    q_coefficient_check,
    rational_fit,
    series,
    tau_image_count,
    tau_image_profile,
)
from padicstacks.polyscheme import (
    AffineScheme,
    LiftAnalyzer,
    LiftStatus,
    MultiPoly,
    enumerate_points,
    enumerate_points_lifted,
    parse_poly,
    singular_locus,
    tau_point,
)
from padicstacks.project import load_project
from padicstacks.rings import BoundExceeded, make_ring
from padicstacks.stacks import GroupAction, QuotientStack, SpecialGroup, UnsupportedStack
from padicstacks.tree import BallTree, count_points, hensel_liftable, level_counts

A1 = AffineScheme.affine_space("A1", ("x",))
A2 = AffineScheme.affine_space("A2", ("x", "y"))
CONIC = AffineScheme.from_text("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1)
CUSP = AffineScheme.from_text("cusp", ("x", "y"), ["y^2 - x^3"], 1)
NODE = AffineScheme.from_text("node", ("x", "y"), ["y^2 - x^2 - x^3"], 1)


def hyperbola(c=3):
    return AffineScheme.from_text("xyc", ("x", "y"), [f"x*y - {c}"], 1)


def BGm():
    return QuotientStack("BGm", GroupAction(SpecialGroup("Gm"), AffineScheme("pt", (), (), 0)))


def brute_count(X, m):
    return sum(
        1
        for pt in itertools.product(range(m), repeat=X.n_vars)
        if all(g.eval_int(pt, m) == 0 for g in X.generators)
    )


def brute_image(X, p, n, deep):
    """Oracle: the level-n truncations of every level-`deep` point, a
    superset of the truncation image of X(Z_p)."""
    md = p ** (deep + 1)
    mn = p ** (n + 1)
    evals = [g.compile_int(md) for g in X.generators]
    return {
        tuple(c % mn for c in pt)
        for pt in itertools.product(range(md), repeat=X.n_vars)
        if not any(ev(pt) for ev in evals)
    }


def brute_tau_image(X, p, n, deep):
    return len(brute_image(X, p, n, deep))


# ---------------------------------------------------------------------------
# truncation image


def test_tau_reduces_digitwise():
    assert tau_point((17, 22), 3, 1) == (8, 4)


def test_tau_image_affine_line():
    for n in (0, 1, 2):
        assert tau_image_count(A1, 3, n) == 3 ** (n + 1)


def test_tau_image_xy3():
    # all 12 points mod 9 lift (oracle: enumeration to mod 81)
    assert brute_tau_image(hyperbola(), 3, 1, 3) == 12
    assert tau_image_count(hyperbola(), 3, 1, slack=2) == 12
    prof = tau_image_profile(hyperbola(), 3, 1, slack=2)
    assert prof.exact and prof.certified == 12


def test_tau_image_x_squared_minus_3():
    # x^2 = 3 has a point mod 3 but none mod 9
    X = AffineScheme.from_text("xx3", ("x",), ["x^2 - 3"], 0)
    assert brute_count(X, 3) == 1
    assert brute_count(X, 9) == 0
    assert tau_image_count(X, 3, 0, slack=1) == 0
    assert tau_image_count(X, 3, 0, slack=2) == 0


def test_tau_image_profile_certificates_sound():
    # certified/refuted decisions agree with a deep enumeration oracle
    X = hyperbola()
    p, n, deep = 3, 0, 3
    assert tau_image_profile(X, p, n, slack=2).certified == brute_tau_image(
        X, p, n, deep
    )


PLANE_MONOMIALS = [(i, j) for i in range(4) for j in range(4 - i)]
UNITS = (-3, -2, -1, 1, 2, 3)


@st.composite
def plane_curves(draw):
    """f(x, y) of degree <= 3 with up to four terms u p^k x^i y^j, u a unit
    in -3..3 and k <= 2, over p in {2, 3, 5} at level n <= 2.  Each term is
    drawn as one integer, which keeps generation cheap."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(0, 2))
    codes = draw(st.lists(st.integers(0, 3 * len(UNITS) * len(PLANE_MONOMIALS) - 1),
                          min_size=1, max_size=4))
    terms = {}
    for c in codes:
        c, e = divmod(c, len(PLANE_MONOMIALS))
        k, u = divmod(c, len(UNITS))
        terms[PLANE_MONOMIALS[e]] = UNITS[u] * p**k
    f = MultiPoly(("x", "y"), terms)
    return AffineScheme("curve", ("x", "y"), (f,), 1), p, n


@settings(max_examples=220)
@given(plane_curves(), st.integers(0, 2))
def test_image_tree_is_sound_on_random_plane_curves(case, slack):
    # per point: the tree never contradicts a LiftAnalyzer decision, leaves
    # open no point LiftAnalyzer decides, and a certified point lifts to
    # level `deep` (brute force); per level: the profile is the tree's own
    # verdicts.  Lifting to a finite level only bounds the image from
    # above, so the brute count bounds the certified count; the
    # parametrized curves below check exact equality.
    X, p, n = case
    assume(count_points(X, make_ring(p, n=n)) <= 100)  # the per-point oracle sets the cost
    points = enumerate_points_lifted(X, p, n)
    tree = BallTree(X.generators, X.n_vars, p)
    analyzer = LiftAnalyzer(X.generators, X.n_vars, p)
    deep = max((d for d in range(n + 1, n + 4) if p ** (2 * (d + 1)) <= 1024), default=None)
    image = brute_image(X, p, n, deep) if deep is not None else None
    verdicts = Counter()
    for pt in points:
        verdict = tree.verdict(pt, n, slack)
        status = analyzer.status(pt, n, slack)
        assert not (verdict is True and status is LiftStatus.CERTIFIED_NOT), pt
        assert not (verdict is False and status is LiftStatus.CERTIFIED_LIFTABLE), pt
        assert not (verdict is None and status is not LiftStatus.UNKNOWN), pt
        if verdict and image is not None:
            assert pt in image, pt
        verdicts[verdict] += 1
    prof = tau_image_profile(X, p, n, slack)
    assert (prof.certified, prof.refuted, prof.unknown) == (
        verdicts[True], verdicts[False], verdicts[None])
    if image is not None:
        assert prof.certified <= len(image)


@settings(max_examples=300)
@given(plane_curves(), st.integers(0, 2),
       st.sampled_from((4, 8, 9, 16, 24, 25, 32, 48, 64, 100, 128, 256)))
def test_image_walk_answers_wherever_the_count_walk_does(case, slack, bound):
    # both walks refuse by one rule, and the image walk's states at depth
    # d are distinct points of level d - 1: wherever the count walk answers
    # under a bound, the image walk answers under it with its unbounded
    # rows; where it refuses, it names the bound
    X, p, n = case
    rows = BallTree(X.generators, X.n_vars, p).image_levels(n, slack)
    try:
        BallTree(X.generators, X.n_vars, p).level_counts(n, bound)
    except BoundExceeded:
        counted = False
    else:
        counted = True
    try:
        assert BallTree(X.generators, X.n_vars, p).image_levels(n, slack, bound) == rows
    except BoundExceeded as exc:
        assert not counted and str(exc).endswith(f" exceeds bound {bound}")


@st.composite
def unit_multiple_systems(draw):
    """One or two generators in x, y, each drawn as in plane_curves, over
    p in {2, 3, 5} at a level n <= 3 with slack 0..2, and an integer u
    that is a unit at p."""
    p = draw(st.sampled_from((2, 3, 5)))
    code = st.integers(0, 3 * len(UNITS) * len(PLANE_MONOMIALS) - 1)
    gens = []
    for codes in draw(st.lists(st.lists(code, min_size=1, max_size=4), min_size=1, max_size=2)):
        terms = {}
        for c in codes:
            c, e = divmod(c, len(PLANE_MONOMIALS))
            k, u = divmod(c, len(UNITS))
            terms[PLANE_MONOMIALS[e]] = UNITS[u] * p**k
        gens.append(MultiPoly(("x", "y"), terms))
    u = draw(st.sampled_from([u for u in (-1, 1, -2, 2, -3, 3, 7) if u % p]))
    return tuple(gens), p, draw(st.integers(0, 3)), draw(st.integers(0, 2)), u


@settings(max_examples=80)
@given(unit_multiple_systems())
def test_unit_multiples_walk_as_one(case):
    # a condition that repeats another up to a unit cuts nothing more:
    # (f, u f) and (u f) walk as (f), and (f, g, u g) as (f, g), with the
    # same counts, image rows and verdicts, and every state the walks
    # memoise is in the normal form (a fixed point of `_state`).  Counted
    # to level n, u f + p^(n+1) g is a unit multiple of f mod every
    # precision, so (f, u f + p^(n+1) g) counts through the same states
    # as (f).  Brute enumeration gives the counts.  The brute image (the truncations of the deepest
    # level the brute budget allows) holds every certified point; it bounds
    # the image only from above, and often stays above the certified-or-open
    # count, so it is no upper oracle.
    gens, p, n, slack, u = case
    f, g = gens[0], gens[-1]
    variants = [(f, u * f), (u * f,)] if len(gens) == 1 else [(f, g, u * g)]
    X = AffineScheme("battery", ("x", "y"), gens, 2 - len(gens))
    base = BallTree(gens, 2, p)
    counts = base.level_counts(n)
    rows = base.image_levels(n, slack)
    level = max(k for k, count in enumerate(counts) if count <= 300)
    points = enumerate_points_lifted(X, p, level)
    verdicts = [base.verdict(pt, level, slack) for pt in points]
    for system in variants:
        tree = BallTree(system, 2, p)
        assert tree.level_counts(n) == counts, system
        assert tree.image_levels(n, slack) == rows, system
        assert [tree.verdict(pt, level, slack) for pt in points] == verdicts, system
        for state, _ in tree._images:
            assert tree._state(state) == state
        for state in tree._counts:
            assert tree._state(state) == state
    once, near = BallTree((f,), 2, p), BallTree((f, u * f + p ** (n + 1) * g), 2, p)
    assert near.level_counts(n) == once.level_counts(n)
    assert near._counts == once._counts
    for k, count in enumerate(counts):
        if p ** (2 * (k + 1)) <= 4096:
            assert count == sum(1 for _ in enumerate_points(X, make_ring(p, n=k)))
    deep = max(d for d in range(8) if p ** (2 * (d + 1)) <= 4096)
    lifted = brute_image(X, p, deep, deep)
    for k, (certified, _) in enumerate(rows[:min(3, deep + 1)]):
        image = {tuple(c % p ** (k + 1) for c in pt) for pt in lifted}
        assert certified <= len(image)
        if k == level:
            assert all(pt in image for pt, verdict in zip(points, verdicts) if verdict)


def cusp_tau_image_oracle(p, n):
    """Every Z_p-point of y^2 = x^3 is (t^2, t^3); its truncation only
    depends on t mod p^(n+1), so the image is enumerable exactly."""
    m = p ** (n + 1)
    return len({(t * t % m, t * t * t % m) for t in range(m)})


def node_tau_image_oracle(p, n):
    """The Z_p-points of y^2 = x^2 + x^3 are (t^2 - 1, t(t^2 - 1)), the
    node included (t = 1); mod p^(n+1) they depend only on t mod p^(n+1)."""
    m = p ** (n + 1)
    return len({((t * t - 1) % m, t * (t * t - 1) % m) for t in range(m)})


@pytest.mark.parametrize("name, p, oracle, expected", [
    ("cusp", 5, cusp_tau_image_oracle, [5, 21, 103, 521, 2603]),
    ("cusp", 3, cusp_tau_image_oracle, [3, 7, 20, 61, 182]),
    ("node", 5, node_tau_image_oracle, [4, 24, 124, 624, 3124]),
])
def test_image_tree_equals_parametrization_images(name, p, oracle, expected):
    X = CUSP if name == "cusp" else NODE
    assert [oracle(p, n) for n in range(5)] == expected
    tbl = series(X, make_ring(p), "p", terms=6)
    assert tbl.exact
    assert tbl.coefficients == [1] + expected


# ---------------------------------------------------------------------------
# measures


def test_measure_affine_line_is_one():
    res = padic_measure(A1, make_ring(3), max_level=4)
    assert res.status == "STABILIZED"
    assert res.value == 1
    assert res.stabilized_at == 0


def test_measure_xy_p_two_primes():
    for p in (3, 5):
        res = padic_measure(hyperbola(p), make_ring(p), max_level=4)
        assert res.status == "STABILIZED"
        assert res.value == 2 * (1 - Fraction(1, p))
        assert res.stabilized_at <= 1


def test_measure_point_mod_gm():
    res = padic_measure(BGm(), make_ring(3), max_level=3)
    assert res.status == "STABILIZED"
    assert res.value == Fraction(1, 2)
    assert res.counts == [Fraction(1, 2)] * 4


def test_measure_a1_mod_gm_constant():
    act = GroupAction(
        SpecialGroup("Gm"), A1, (parse_poly("lam*x", ("x", "lam")),)
    )
    res = padic_measure(QuotientStack("A1Gm", act), make_ring(3), max_level=3)
    assert res.status == "STABILIZED"
    assert res.value == Fraction(1, 2)


def test_measure_partial_when_not_stabilized():
    res = padic_measure(hyperbola(3), make_ring(3), max_level=1)
    assert res.status == "PARTIAL"
    assert res.value is None


@pytest.mark.parametrize("call, name, least, value", [
    (lambda: q_coefficient_check(CONIC, make_ring(5), -1, max_level=3), "level", 0, -1),
    (lambda: q_coefficient_check(CONIC, make_ring(5), -2, max_level=3), "level", 0, -2),
    (lambda: tau_image_profile(CONIC, 5, -1), "n", 0, -1),
    (lambda: tau_image_count(CONIC, 5, -1), "n", 0, -1),
    (lambda: enumerate_points_lifted(CONIC, 5, -1), "n", 0, -1),
    (lambda: hensel_liftable(CONIC, (0, 1), 5, -1), "n", 0, -1),
    (lambda: series(CONIC, make_ring(5), "tilde", terms=0), "terms", 1, 0),
    (lambda: series(CONIC, make_ring(5), "p", terms=0), "terms", 1, 0),
    (lambda: padic_measure(CONIC, make_ring(5), max_level=-1), "max_level", 0, -1),
    (lambda: measure_formula("x == 0", CONIC, 1, make_ring(5), max_level=-1), "max_level", 0, -1),
    (lambda: hensel_liftable(CONIC, (0, 1), 5, 1, slack=-1), "slack", 0, -1),
    (lambda: tau_image_profile(CONIC, 5, 1, slack=-1), "slack", 0, -1),
    (lambda: tau_image_count(CONIC, 5, 1, slack=-2), "slack", 0, -2),
    (lambda: series(CONIC, make_ring(5), "p", 3, slack=-1), "slack", 0, -1),
    (lambda: q_coefficient_check(CONIC, make_ring(5), 0, 2, slack=-3), "slack", 0, -3),
    (lambda: measure_formula("x == 0", CONIC, 1, make_ring(5), slack=-1), "slack", 0, -1),
    (lambda: specialize_primes("x == 0", CONIC, 1, (3, 5), "1", slack=-1), "slack", 0, -1),
], ids=["q_check", "q_check_below", "tau_image_profile", "tau_image_count", "lifted_points",
        "hensel_liftable", "tilde_series", "p_series", "padic_measure", "measure_formula",
        "hensel_liftable_slack", "tau_image_profile_slack", "tau_image_count_slack",
        "p_series_slack", "q_check_slack", "measure_formula_slack", "specialize_slack"])
def test_library_refuses_a_level_that_does_not_exist(monkeypatch, call, name, least, value):
    # refused naming the argument and its value, before any walk
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(BallTree, "_residue_zeros", no_walk)
    monkeypatch.setattr(LiftAnalyzer, "residue_points", no_walk)
    monkeypatch.setattr(measures, "level_counts", no_walk)
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {value}$"):
        call()


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_library_refuses_a_p_that_is_not_prime(monkeypatch, p):
    # refused before any walk: at p = 1 the content loop of BallTree._state
    # never ended, and the lifted listing answered [(0, 0)]
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(BallTree, "_state", no_walk)
    monkeypatch.setattr(LiftAnalyzer, "residue_points", no_walk)
    for call in (lambda: BallTree(CONIC.generators, CONIC.n_vars, p),
                 lambda: LiftAnalyzer(CONIC.generators, CONIC.n_vars, p),
                 lambda: hensel_liftable(CONIC, (0, 1), p, 1),
                 lambda: tau_image_profile(CONIC, p, 1),
                 lambda: enumerate_points_lifted(CONIC, p, 1)):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            call()


@pytest.mark.parametrize("point", [(0, 1, 5), (1,)])
def test_hensel_liftable_refuses_a_point_of_another_length(point):
    # both read as points of the conic's plane, and were answered CERTIFIED_NOT
    with pytest.raises(ValueError, match=f"^point .* has {len(point)} coordinates, "
                                         "conic has 2 variables$"):
        hensel_liftable(CONIC, point, 5, 1)


@pytest.mark.parametrize("bound", [0, -1])
def test_library_refuses_a_bound_below_one(monkeypatch, bound):
    # bad input, as the CLI's --bound 0 is (exit 2), not an exceeded bound
    # (BoundExceeded, exit 3); refused before any walk
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(BallTree, "_residue_zeros", no_walk)
    for call in (lambda: count_points(CONIC, make_ring(5), bound=bound),
                 lambda: tau_image_profile(CONIC, 5, 1, bound=bound),
                 lambda: measure_formula("x == 0", CONIC, 1, make_ring(5), bound=bound)):
        with pytest.raises(ValueError, match=f"^bound must be at least 1, got {bound}$"):
            call()


def test_level_counts_of_no_level_is_empty():
    # the tilde series of one term asks for the counts of levels 0..-1
    assert level_counts(CONIC, make_ring(5), -1) == []
    assert series(CONIC, make_ring(5), "tilde", terms=1).coefficients == [1]


def test_stabilize_is_the_one_verdict():
    # a run of three equal lower values ending at the last level, with the
    # upper values equal to them there when given; the bounds are kept
    # only when upper ones are given, and a PARTIAL keeps them too
    f = Fraction
    levels = [0, 1, 2, 3]
    lower = [f(1), f(1, 2), f(1, 2), f(1, 2)]
    got = _stabilize(levels, lower)
    assert (got.status, got.value, got.stabilized_at, got.lower, got.upper) == (
        "STABILIZED", f(1, 2), 1, None, None)
    got = _stabilize(levels, lower, [f(2), f(1, 2), f(1, 2), f(1, 2)])
    assert (got.status, got.value, got.stabilized_at) == ("STABILIZED", f(1, 2), 1)
    assert (got.lower, got.upper) == (lower, [f(2), f(1, 2), f(1, 2), f(1, 2)])
    got = _stabilize(levels, lower, [f(1), f(1, 2), f(1), f(1, 2)])
    assert (got.status, got.value, got.stabilized_at, got.counts) == ("PARTIAL", None, None, lower)
    assert (got.lower, got.upper) == (lower, [f(1), f(1, 2), f(1), f(1, 2)])
    assert _stabilize(levels[1:], lower[1:]).status == "STABILIZED"
    assert _stabilize(levels[2:], lower[2:]).status == "PARTIAL"
    assert padic_measure(CONIC, make_ring(5), 2).lower is None
    # three equal lower values, demoted by the open points above them
    result = measure_formula("ord(x) == 40", A1, 1, make_ring(3), max_level=2)
    assert (result.status, result.counts, result.lower, result.upper) == (
        "PARTIAL", [0, 0, 0], [0, 0, 0], [f(1, 3), f(1, 9), f(1, 27)])


@pytest.mark.parametrize("bound", [3, 24, 99, 100, 499, 500, None])
def test_measure_and_tilde_series_refuse_as_per_level_counts(bound):
    # one count walk gives every level; it yields the counts, or refuses
    # with the message, that count_points called level by level gives
    ring = make_ring(5)
    expected = []
    try:
        for n in range(4):
            expected.append(count_points(CONIC, ring.at_level(n), bound))
    except BoundExceeded as exc:
        expected = str(exc)

    def outcome(run):
        try:
            return run()
        except BoundExceeded as exc:
            return str(exc)

    assert outcome(lambda: series(CONIC, ring, "tilde", 5, bound=bound)
                   .coefficients[1:]) == expected
    assert outcome(lambda: [
        c * 5 ** (n + 1)
        for n, c in enumerate(padic_measure(CONIC, ring, 3, bound).counts)
    ]) == expected


def brute_level_counts(X, ring, n):
    """|X(R_k)| for k = 0..n by enumerating every tuple of ring elements."""
    return [sum(1 for _ in enumerate_points(X, ring.at_level(k))) for k in range(n + 1)]


def test_measure_and_tilde_series_on_element_rings_match_brute_counts():
    # both count through the Weil restriction; brute enumeration over the
    # rings' elements is the reference
    ram3, gr9 = make_ring(3, 2, (-3, 0)), make_ring(3, r=2)
    res = padic_measure(CONIC, ram3, max_level=2)
    assert res.counts == [Fraction(c, 3 ** (n + 1))
                          for n, c in enumerate(brute_level_counts(CONIC, ram3, 2))]
    assert (res.status, res.value) == ("STABILIZED", Fraction(4, 3))
    tbl = series(CUSP, gr9, "tilde", 3)
    assert tbl.exact
    assert tbl.coefficients == [1] + brute_level_counts(CUSP, gr9, 1)
    for ring in (gr9, ram3, make_ring(5)):  # one term asks for no level count
        assert series(CUSP, ring, "tilde", 1).coefficients == [1]


def test_count_and_image_sequences_agree_in_the_limit():
    # the two normalized sequences (all points vs truncation image) agree
    # from some level on, on every stabilized example
    for X, p in ((A1, 3), (CONIC, 5), (hyperbola(3), 3)):
        q_counts = []
        i_counts = []
        for n in range(0, 4):
            d = X.dim
            q_counts.append(
                Fraction(count_points(X, make_ring(p, n=n)), p ** ((n + 1) * d))
            )
            prof = tau_image_profile(X, p, n, slack=2)
            assert prof.exact
            i_counts.append(Fraction(prof.certified, p ** ((n + 1) * d)))
        assert q_counts[-2:] == i_counts[-2:]


# ---------------------------------------------------------------------------
# series


def test_series_affine_space_tilde():
    for d, p in ((1, 3), (2, 3), (3, 2)):
        X = AffineScheme.affine_space(f"A{d}", tuple(f"x{i}" for i in range(d)))
        tbl = series(X, make_ring(p), "tilde", terms=8)
        assert tbl.coefficients == [Fraction(p ** (d * n)) for n in range(8)]


def test_series_smooth_scheme_follows_fiber_law():
    # P-tilde of a smooth scheme: c, c p^d, c p^(2d), ...
    tbl = series(CONIC, make_ring(5), "tilde", terms=6)
    assert tbl.coefficients == [1, 4, 20, 100, 500, 2500]
    # P agrees with P-tilde for smooth targets
    tbl_p = series(CONIC, make_ring(5), "p", terms=4)
    assert tbl_p.exact
    assert tbl_p.coefficients == [1, 4, 20, 100]


def test_series_point_mod_gm():
    tbl = series(BGm(), make_ring(5), "tilde", terms=5)
    assert tbl.coefficients == [
        1,
        Fraction(1, 4),
        Fraction(1, 20),
        Fraction(1, 100),
        Fraction(1, 500),
    ]


def test_series_q_cusp_bounds_contain_truth():
    # The image tree decides every cusp point at levels 0-2 at the default
    # slack, so P and Q are exact and equal the parametrization oracle:
    # coefficient_n(Q) = #tau(X at level n-1) - #tau of the origin section.
    # At slack 0 some points stay open, and the reported bounds must still
    # contain the truth.
    p, terms = 5, 4
    spec = make_ring(p)
    origin = AffineScheme.from_text("origin", ("x", "y"), ["x", "y"], 0)
    o_tbl = series(origin, spec, "p", terms=terms)
    assert o_tbl.exact and o_tbl.coefficients == [1, 1, 1, 1]
    truth_p = [1] + [cusp_tau_image_oracle(p, n) for n in range(terms - 1)]
    truth_q = [a - b for a, b in zip(truth_p, o_tbl.coefficients)]
    for kind, truth in (("p", truth_p), ("q", truth_q)):
        tbl = series(CUSP, spec, kind, terms=terms)
        assert tbl.exact and tbl.coefficients == truth
        tbl = series(CUSP, spec, kind, terms=terms, slack=0)
        assert not tbl.exact
        lower, upper = tbl.bounds()
        for lo, t, up in zip(lower, truth, upper):
            assert lo <= t <= up


@pytest.mark.parametrize("kind", ["p", "q"])
def test_series_of_special_group_stack_divides_the_atlas_tables(kind):
    # [cusp/G_m] with lam.(x, y) = (lam^2 x, lam^3 y): every table of the
    # stack is the cusp's own, with coefficient m >= 1 (and its slack)
    # divided by |G_m(Z/5^m)| = 4 * 5^(m-1).  At the default slack the
    # tables are exact and equal the divided parametrization oracle (the
    # Q series subtracts the cusp's singular locus, the origin); at slack 0
    # the cusp leaves points open, and the stack divides the slack too.
    names = ("x", "y", "lam")
    stack = QuotientStack("cusp_mod_Gm", GroupAction(
        SpecialGroup("Gm"), CUSP,
        (parse_poly("lam^2*x", names), parse_poly("lam^3*y", names)),
    ))
    spec, terms = make_ring(5), 4
    divisors = [1] + [4 * 5**n for n in range(terms - 1)]
    truth = [1] + [cusp_tau_image_oracle(5, n) - (kind == "q") for n in range(terms - 1)]
    if kind == "q":
        truth[0] = 0
    tbl = series(stack, spec, kind, terms=terms)
    assert tbl.exact
    assert tbl.coefficients == [Fraction(c, w) for c, w in zip(truth, divisors)]
    atlas = series(CUSP, spec, kind, terms=terms, slack=0)
    tbl = series(stack, spec, kind, terms=terms, slack=0)
    assert not atlas.exact and tbl.exact == atlas.exact
    for field in ("coefficients", "unknown", "unknown_down"):
        own = getattr(atlas, field)
        if own is None:
            assert getattr(tbl, field) is None
        else:
            assert getattr(tbl, field) == [
                Fraction(c, w) for c, w in zip(own, divisors)
            ]


def test_series_p_empty_target():
    X = AffineScheme.from_text("xx3", ("x",), ["x^2 - 3"], 0)
    tbl = series(X, make_ring(3), "p", terms=3)
    assert tbl.exact
    assert tbl.coefficients == [0, 0, 0]


def test_p_series_bounded_by_its_image_walk():
    # the smooth conic's walk closes every residue zero at the root, so a
    # bound under the level-3 count (500) no longer refuses the P series;
    # the truncation-image profile still reads a count walk and refuses
    unbounded = series(CONIC, make_ring(5), "p", 6)
    assert series(CONIC, make_ring(5), "p", 6, bound=100) == unbounded
    assert series(CONIC, make_ring(5), "q", 6, bound=100).coefficients == (
        unbounded.coefficients)
    for kind in ("p", "q"):
        with pytest.raises(BoundExceeded, match="^residue search of 25 tuples exceeds bound 24$"):
            series(CONIC, make_ring(5), kind, 6, bound=24)
    with pytest.raises(BoundExceeded, match="^count 500 at level 3 exceeds bound 100$"):
        tau_image_profile(CONIC, 5, 3, bound=100)
    with pytest.raises(BoundExceeded, match="^count 500 at level 3 exceeds bound 100$"):
        tau_image_count(CONIC, 5, 3, bound=100)
    # the cusp's walk makes one state per depth below the origin, so the
    # P series answers under a bound of its 25-tuple residue search
    assert series(CUSP, make_ring(5), "p", 6, bound=25).coefficients == [
        1, 5, 21, 103, 521, 2603]
    # x y^2 over Z_2 walks 5 states at depth 4 (balls of level 3)
    with pytest.raises(BoundExceeded, match="^tree walk of 5 states at depth 4 exceeds bound 4$"):
        BallTree((parse_poly("x*y^2", ("x", "y")),), 2, 2).image_levels(3, 2, bound=4)


def test_p_q_series_and_q_check_walk_no_counts(monkeypatch):
    # the image walk bounds itself; only tau_image_profile, whose refuted
    # total is the rest of a count, still walks the count tree
    calls = []
    original = BallTree.level_counts
    monkeypatch.setattr(BallTree, "level_counts",
                        lambda tree, *args: calls.append(args) or original(tree, *args))
    for X in (CUSP, CONIC):
        series(X, make_ring(5), "p", 6, bound=100)
        series(X, make_ring(5), "q", 6)
        q_coefficient_check(X, make_ring(3), 1, max_level=4, bound=100)
    assert calls == []
    tau_image_profile(CUSP, 3, 2, bound=100)
    assert calls == [(2, 100)]


# ---------------------------------------------------------------------------
# rational fitting


def test_fit_geometric():
    fit = rational_fit([3**n for n in range(8)])
    assert fit.numerator == (1,)
    assert fit.denominator == (1, -3)
    assert fit.to_text() == "1/(1 - 3T)"


def test_fit_conic_series():
    tbl = series(CONIC, make_ring(5), "tilde", terms=8)
    fit = rational_fit(tbl.coefficients)
    # 1 + 4T/(1-5T) = (1 - T)/(1 - 5T)
    assert fit.numerator == (1, -1)
    assert fit.denominator == (1, -5)
    assert fit.expand(10)[:8] == tbl.coefficients


def test_fit_point_mod_gm_series():
    tbl = series(BGm(), make_ring(5), "tilde", terms=8)
    fit = rational_fit(tbl.coefficients)
    assert fit.denominator == (1, Fraction(-1, 5))
    assert fit.numerator == (1, Fraction(1, 20))
    assert fit.expand(8) == tbl.coefficients


def test_fit_recovers_products_of_geometric_factors():
    # denominators of the form prod (1 - p^a T^b) up to degree 3
    import random

    rng = random.Random(99)
    for _ in range(25):
        p = rng.choice((2, 3, 5))
        factors = []
        deg = 0
        while deg < 3 and rng.random() < 0.8:
            a = rng.randint(0, 2)
            b = rng.randint(1, 3 - deg)
            factors.append((a, b))
            deg += b
        den = [Fraction(1)]
        for a, b in factors:
            new = [Fraction(0)] * (len(den) + b)
            for i, c in enumerate(den):
                new[i] += c
                new[i + b] -= c * p**a
            den = new
        num = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))]
        if all(c == 0 for c in num):
            num = [Fraction(1)]
        rf = RationalFunction(tuple(num), tuple(den))
        coeffs = rf.expand(2 * len(den) + 4)
        fitted = rational_fit(coeffs)
        assert fitted.expand(len(coeffs) + 3) == rf.expand(len(coeffs) + 3)


def test_fit_not_found_for_non_recurrent_sequence():
    import math

    with pytest.raises(FitNotFound):
        rational_fit([math.factorial(n) for n in range(10)])


def test_fit_needs_enough_terms():
    with pytest.raises(FitNotFound):
        rational_fit([1, 2, 3])


# ---------------------------------------------------------------------------
# the Q-coefficient identity


def test_q_coefficient_identity_on_battery():
    spec3 = make_ring(3)
    for X, spec, level in (
        (A1, spec3, 0),
        (A1, spec3, 1),
        (CONIC, make_ring(5), 1),
        (hyperbola(3), spec3, 1),
        (hyperbola(3), spec3, 2),
    ):
        lhs, rhs, ok = q_coefficient_check(X, spec, level, max_level=4)
        assert ok, (X.name, level, lhs, rhs)
    # on the cusp and the node the singular locus is the origin alone, a
    # true point, so the Q coefficient is the truncation image less one
    for X, oracle, expected in ((CUSP, cusp_tau_image_oracle, [2, 6, 4, 20]),
                                (NODE, node_tau_image_oracle, [1, 7, 3, 23])):
        lhs_values = []
        for p in (3, 5):
            for level in (0, 1):
                lhs, rhs, ok = q_coefficient_check(X, make_ring(p), level, max_level=4)
                assert ok and lhs == oracle(p, level) - 1, (X.name, p, level, lhs, rhs)
                lhs_values.append(lhs)
        assert lhs_values == expected


def test_q_coefficient_check_refuses_ramified_ring_once():
    # the ring is refused by series, before any other work or message
    ram3 = make_ring(3, e=2, eisenstein=(-3, 0), n=3)
    with pytest.raises(UnsupportedStack, match="unramified prime ring"):
        q_coefficient_check(CONIC, ram3, 1)


def test_q_coefficient_check_refuses_level_above_max_level(monkeypatch):
    # refused from its arguments alone, before any series or tree walk
    def must_not_run(*args, **kwargs):
        raise AssertionError("walked after a refusal")

    monkeypatch.setattr(measures, "series", must_not_run)
    monkeypatch.setattr(measures, "BallTree", must_not_run)
    with pytest.raises(ValueError, match="^level 2 exceeds max_level 1$"):
        q_coefficient_check(CUSP, make_ring(3), 2, 1)


@pytest.mark.parametrize("X, level", [(CUSP, 1), (hyperbola(3), 0)], ids=["cusp", "xy3"])
def test_q_coefficient_check_refuses_inexact_q_series(X, level):
    # at slack 0 the Q series leaves balls open at p=3
    with pytest.raises(UnsupportedStack, match="^unresolved lift certificates in the Q series$"):
        q_coefficient_check(X, make_ring(3), level, slack=0)


def test_q_coefficient_check_refuses_an_open_kept_ball(monkeypatch):
    # the walks above the singular centres account for one open ball fewer
    # than the image walk holds, so one kept ball stays open
    assert q_coefficient_check(CUSP, make_ring(3), 0, 2)[2]
    original = BallTree.image_above

    def one_open_ball_fewer(self, *args):
        (certified, opened), *rest = original(self, *args)
        return [(certified, opened - 1)] + rest

    monkeypatch.setattr(BallTree, "image_above", one_open_ball_fewer)
    with pytest.raises(UnsupportedStack, match="^unresolved lift certificate$"):
        q_coefficient_check(CUSP, make_ring(3), 0, 2)


@pytest.mark.parametrize("name", ["BS3", "BGm", "A1_mod_Gm"])
def test_q_coefficient_check_refuses_a_stack_before_any_walk(monkeypatch, name):
    # the check compares a scheme's Q coefficient with its own image: each
    # demo stack kind (finite-group, special-group, with a point or a line
    # for atlas) is refused by name, with no series, locus or tree made
    def must_not_run(*args, **kwargs):
        raise AssertionError("walked before the refusal")

    stack = load_project(pathlib.Path(__file__).parent / "data" / "demo.project").stack(name)
    for attr in ("series", "singular_locus", "BallTree"):
        monkeypatch.setattr(measures, attr, must_not_run)
    with pytest.raises(UnsupportedStack, match="^Q coefficient checks need a scheme target$"):
        q_coefficient_check(stack, make_ring(5), 0, 2)


def test_q_check_walks_x_with_one_tree(monkeypatch):
    # one tree on X gives X's part of the Q coefficient, its exactness, the
    # kept counts and the walks above the singular centres; Sing X's P
    # series walks one tree on Sing X; the singular locus is made once
    trees, loci = Counter(), []
    real_tree, real_locus = measures.BallTree, measures.singular_locus

    def tree(gens, *args):
        trees[tuple(gens)] += 1
        return real_tree(gens, *args)

    monkeypatch.setattr(measures, "BallTree", tree)
    monkeypatch.setattr(measures, "singular_locus", lambda X: loci.append(X) or real_locus(X))
    for X in (CUSP, NODE, CONIC, hyperbola(5), A1):
        trees.clear()
        loci.clear()
        assert q_coefficient_check(X, make_ring(3), 1, max_level=3)[2], X.name
        assert loci == [X]
        assert trees == {tuple(X.generators): 1, tuple(real_locus(X).generators): 1}, X.name


def test_image_rows_through_a_level_begin_a_deeper_walk():
    # the Q check reads X's rows through `level`, then walks the same tree
    # to `max_level`: that walk's first rows are the shallower walk's, and
    # all its rows are those of a fresh tree
    rng = random.Random(36)
    for p in (2, 3, 5):
        for _ in range(6):
            f = MultiPoly(("x", "y"), {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-4, 4)
                                       for _ in range(rng.randint(2, 4))})
            for slack in (0, 1, 2):
                level = rng.randint(0, 2)
                max_level = level + rng.randint(0, 2)
                tree = BallTree((f,), 2, p)
                rows = tree.image_levels(level, slack)
                deeper = tree.image_levels(max_level, slack)
                assert deeper[:level + 1] == rows, (f, p, slack, level)
                assert deeper == BallTree((f,), 2, p).image_levels(max_level, slack), (f, p)


class _CountedStores(dict):
    """A memo that counts the values stored in it, and the rows appended
    to the row lists it hands out."""

    stores = rows = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = _CountedRows(self)
        return self[key]


class _CountedRows(list):
    def __init__(self, memo):
        super().__init__()
        self.memo = memo

    def append(self, row):
        self.memo.rows += 1
        super().append(row)


def test_image_rows_are_kept_once_per_state_and_slack():
    # a state's rows through depth d are the first d + 1 of its deeper
    # rows, so the memo keeps one list per (state, slack), and a deeper
    # ask appends only the rows it lacks: the cusp's walks to levels 2 and
    # 5 make 247 lists and 420 rows, each once, and a shallower walk after
    # them reads those lists and makes none; each residue search is
    # stored once
    tree = BallTree(CUSP.generators, 2, 5)
    tree._images = memo = _CountedStores()
    tree._searches = searches = _CountedStores()
    rows = tree.image_levels(2, 2)
    assert (memo.stores, memo.rows) == (20, 38)
    deep = tree.image_levels(5, 2)
    assert (memo.stores, len(memo), memo.rows) == (247, 247, 420)
    assert sum(map(len, memo.values())) == 420
    assert all(len(key) == 2 for key in memo)
    assert tree.image_levels(2, 2) == rows == deep[:3]
    assert (memo.stores, memo.rows) == (247, 420)
    assert searches.stores == len(searches)
    # the slack-0 walk shares the lookahead's lists, and extends them
    assert tree.image_levels(4, 0) == BallTree(CUSP.generators, 2, 5).image_levels(4, 0)


@pytest.mark.parametrize("slack", [0, 2])
def test_self_looping_state_appends_its_rows_in_order(slack):
    # x^2 over Z_3 in the plane walks to itself: the residue zeros (0, a)
    # are singular, and each child is x^2 again.  Its own ask appends the
    # shallower rows first, so appending from the length before that ask
    # would write rows twice; 3^r of the depth-r sub-balls hold a zero
    X = AffineScheme.from_text("x2", ("x", "y"), ["x^2"], 1)
    want = [(3**r, 0) for r in range(7)]
    tree = BallTree(X.generators, 2, 3)
    for depth in range(7):
        assert tree._image(tree._root, depth, slack, lambda depth: None) == want[:depth + 1]
    fresh = BallTree(X.generators, 2, 3)
    assert fresh._image(fresh._root, 6, slack, lambda depth: None) == want
    assert tree.image_levels(5, slack) == fresh.image_levels(5, slack) == want[1:]


# the Q check's outcomes as they were when it read X's part of the Q
# coefficient from series(X, "q") and walked X again for the kept counts:
# scheme, p, level, max_level: the outcome at slack 0 | at slack 2, each
# "lhs rhs ok", "lhs PARTIAL" or "inexact" (an inexact Q series); every
# bound from the p^N tuples of the residue search up answers the same,
# and a lower one refuses that search first
Q_CHECK_TABLE = """
    cusp 3 0 1: 2 PARTIAL | 2 PARTIAL
    cusp 3 1 3: inexact | 6 6 True
    cusp 3 2 4: inexact | 19 18 False
    cusp 5 0 1: 4 PARTIAL | 4 PARTIAL
    cusp 5 1 3: inexact | 20 20 True
    cusp 5 2 4: inexact | 102 100 False
    node 3 0 1: 1 PARTIAL | 1 PARTIAL
    node 3 1 3: 7 7 True | 7 7 True
    node 3 2 4: 25 25 True | 25 25 True
    node 5 0 1: 3 PARTIAL | 3 PARTIAL
    node 5 1 3: 23 23 True | 23 23 True
    node 5 2 4: 123 123 True | 123 123 True
    conic 3 0 1: 4 PARTIAL | 4 PARTIAL
    conic 3 1 3: 12 12 True | 12 12 True
    conic 3 2 4: 36 36 True | 36 36 True
    conic 5 0 1: 4 PARTIAL | 4 PARTIAL
    conic 5 1 3: 20 20 True | 20 20 True
    conic 5 2 4: 100 100 True | 100 100 True
    xy3 3 0 1: inexact | 4 PARTIAL
    xy3 3 1 3: inexact | 12 12 True
    xy3 3 2 4: inexact | 36 36 True
    xy3 5 0 1: 4 PARTIAL | 4 PARTIAL
    xy3 5 1 3: 20 20 True | 20 20 True
    xy3 5 2 4: 100 100 True | 100 100 True
    xy5 3 0 1: 2 PARTIAL | 2 PARTIAL
    xy5 3 1 3: 6 6 True | 6 6 True
    xy5 3 2 4: 18 18 True | 18 18 True
    xy5 5 0 1: inexact | 8 PARTIAL
    xy5 5 1 3: inexact | 40 40 True
    xy5 5 2 4: inexact | 200 200 True
    A1 3 0 1: 3 PARTIAL | 3 PARTIAL
    A1 3 1 3: 9 9 True | 9 9 True
    A1 3 2 4: 27 27 True | 27 27 True
    A1 5 0 1: 5 PARTIAL | 5 PARTIAL
    A1 5 1 3: 25 25 True | 25 25 True
    A1 5 2 4: 125 125 True | 125 125 True
"""


def test_q_check_bounded_outcomes_are_pinned():
    schemes = {"cusp": CUSP, "node": NODE, "conic": CONIC, "xy3": hyperbola(3),
               "xy5": hyperbola(5), "A1": A1}

    def outcome(*args):
        try:
            lhs, rhs, ok = q_coefficient_check(*args)
        except (BoundExceeded, UnsupportedStack) as exc:
            return "inexact" if str(exc).endswith("in the Q series") else str(exc)
        if isinstance(rhs, measures.MeasureResult):
            return f"{lhs} {rhs.status}"
        return f"{lhs} {rhs} {ok}"

    for line in Q_CHECK_TABLE.strip().splitlines():
        case, pinned = line.split(":")
        name, p, level, max_level = case.split()
        X, p, level, max_level = schemes[name], int(p), int(level), int(max_level)
        tuples = p**X.n_vars
        for slack, want in zip((0, 2), pinned.split("|")):
            for bound in (4, 9, 25):
                refused = f"residue search of {tuples} tuples exceeds bound {bound}"
                got = outcome(X, make_ring(p), level, max_level, slack, bound)
                assert got == (refused if bound < tuples else want.strip()), (line, slack, bound)


def per_centre_q_check(X, spec, level, max_level, slack=2):
    """The Q check as an image walk above every level-`level` point of X
    off the singular locus, each from the root, summed centre by centre."""
    tbl = series(X, spec, "q", terms=level + 2, slack=slack)
    if not tbl.exact:
        raise UnsupportedStack("unresolved lift certificates in the Q series")
    p, d = spec.p, X.dim
    sing = [g.compile_int(p ** (level + 1)) for g in singular_locus(X).generators]
    tree = BallTree(X.generators, X.n_vars, p)
    kept = [0] * (max_level - level + 1)
    for centre in enumerate_points_lifted(X, p, level):
        if not any(ev(centre) for ev in sing):
            continue
        for r, (certified, unknown) in enumerate(
                tree.image_above(centre, level, max_level - level, slack)):
            if unknown:
                raise UnsupportedStack("unresolved lift certificate")
            kept[r] += certified
    levels = list(range(level, max_level + 1))
    result = _stabilize(levels, [Fraction(k, p ** ((ell + 1) * d))
                                 for ell, k in zip(levels, kept)])
    if result.status != "STABILIZED":
        return tbl.coefficients[level + 1], result, False
    rhs = result.value * p ** ((level + 1) * d)
    return tbl.coefficients[level + 1], rhs, tbl.coefficients[level + 1] == rhs


@pytest.mark.parametrize("name", ["cusp", "node", "conic", "xy3", "xy5", "A1"])
def test_q_check_is_the_image_less_the_singular_centres(name):
    # the image of X less what lies above the singular centres gives the
    # kept counts, the answers and the refusals of the per-centre walk
    X = {"cusp": CUSP, "node": NODE, "conic": CONIC, "xy3": hyperbola(3),
         "xy5": hyperbola(5), "A1": A1}[name]

    def outcome(check, *args):
        try:
            return check(*args)
        except UnsupportedStack as exc:
            return str(exc)

    answered = 0
    for p in (3, 5):
        for level in range(3):
            for max_level in range(level, 5):
                got = outcome(q_coefficient_check, X, make_ring(p), level, max_level)
                assert got == outcome(per_centre_q_check, X, make_ring(p), level, max_level)
                answered += isinstance(got, tuple) and got[2]
    assert answered > 0


@pytest.mark.parametrize("p, k", [(3, 2), (5, 1)])
def test_field_as_galois_ring_at_level_0(p, k):
    # F_q is make_ring(p, r=k) at level 0: the measures answer on it, and
    # the lift-certified series and Q check refuse it unless k = 1
    ring, q = make_ring(p, r=k), p**k
    assert padic_measure(CUSP, ring, 3).levels == [0, 1, 2, 3]
    assert padic_measure(BGm(), ring, 2).value == Fraction(1, q - 1)
    assert measure_formula("ord(x) >= 1", A1, 1, ring, 2).value == Fraction(1, q)
    certified = (
        lambda: series(CUSP, ring, "p", 4).coefficients,
        lambda: series(CUSP, ring, "q", 4).coefficients,
        lambda: q_coefficient_check(CUSP, ring, 0, 3),
    )
    if k > 1:
        for call in certified:
            with pytest.raises(UnsupportedStack, match="unramified prime ring"):
                call()
    else:
        assert [call() for call in certified] == [[1, 5, 21, 103], [0, 4, 20, 102], (4, 4, True)]
