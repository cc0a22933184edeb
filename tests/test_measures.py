import itertools
from fractions import Fraction

import pytest

from padicstacks.measures import (
    FitNotFound,
    RationalFunction,
    padic_measure,
    q_coefficient_check,
    rational_fit,
    series,
    tau_image_count,
    tau_image_profile,
)
from padicstacks.polyscheme import AffineScheme, count_points, parse_poly, tau_point
from padicstacks.rings import make_ring
from padicstacks.stacks import GroupAction, QuotientStack, SpecialGroup, UnsupportedStack

A1 = AffineScheme.affine_space("A1", ("x",))
A2 = AffineScheme.affine_space("A2", ("x", "y"))
CONIC = AffineScheme.from_text("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1)
CUSP = AffineScheme.from_text("cusp", ("x", "y"), ["y^2 - x^3"], 1)


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


def brute_tau_image(X, p, n, deep):
    """Oracle: reduce every level-`deep` point down to level n."""
    md = p ** (deep + 1)
    mn = p ** (n + 1)
    image = {
        tuple(c % mn for c in pt)
        for pt in itertools.product(range(md), repeat=X.n_vars)
        if all(g.eval_int(pt, md) == 0 for g in X.generators)
    }
    return len(image)


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


def cusp_tau_image_oracle(p, n):
    """Every Z_p-point of y^2 = x^3 is (t^2, t^3); its truncation only
    depends on t mod p^(n+1), so the image is enumerable exactly."""
    m = p ** (n + 1)
    return len({(t * t % m, t * t * t % m) for t in range(m)})


def test_series_q_cusp_bounds_contain_truth():
    # At the cusp the origin resists certification at small slack (its
    # minors sit too deep), so P and Q come back as reported bounds; the
    # bounds must contain the true values, which the parametrization
    # oracle pins down: coefficient_n(Q) = #tau(X at level n-1) - #tau of
    # the origin section.
    p, terms = 5, 4
    spec = make_ring(p)
    q_tbl = series(CUSP, spec, "q", terms=terms)
    p_tbl = series(CUSP, spec, "p", terms=terms)
    origin = AffineScheme.from_text("origin", ("x", "y"), ["x", "y"], 0)
    o_tbl = series(origin, spec, "p", terms=terms)
    assert o_tbl.exact and o_tbl.coefficients == [1, 1, 1, 1]
    truth_p = [1] + [cusp_tau_image_oracle(p, n) for n in range(terms - 1)]
    truth_q = [a - b for a, b in zip(truth_p, o_tbl.coefficients)]
    for tbl, truth in ((p_tbl, truth_p), (q_tbl, truth_q)):
        assert not tbl.exact
        lower, upper = tbl.bounds()
        for lo, t, up in zip(lower, truth, upper):
            assert lo <= t <= up


@pytest.mark.parametrize("kind", ["p", "q"])
def test_series_of_special_group_stack_divides_the_atlas_tables(kind):
    # [cusp/G_m] with lam.(x, y) = (lam^2 x, lam^3 y): every table of the
    # stack is the cusp's own, with coefficient m >= 1 (and its slack)
    # divided by |G_m(Z/5^m)| = 4 * 5^(m-1); the Q series subtracts the
    # cusp's singular locus, the origin, whose open lift certificates show
    # as downward slack
    names = ("x", "y", "lam")
    stack = QuotientStack("cusp_mod_Gm", GroupAction(
        SpecialGroup("Gm"), CUSP,
        (parse_poly("lam^2*x", names), parse_poly("lam^3*y", names)),
    ))
    spec, terms = make_ring(5), 4
    divisors = [1] + [4 * 5**n for n in range(terms - 1)]
    atlas = series(CUSP, spec, kind, terms=terms)
    tbl = series(stack, spec, kind, terms=terms)
    assert not atlas.exact and tbl.exact == atlas.exact
    for field in ("coefficients", "unknown", "unknown_down"):
        own = getattr(atlas, field)
        if own is None:
            assert getattr(tbl, field) is None
        else:
            assert getattr(tbl, field) == [
                Fraction(c, w) for c, w in zip(own, divisors)
            ]
    if kind == "q":
        assert any(d != 0 for d in tbl.unknown_down)


def test_series_p_empty_target():
    X = AffineScheme.from_text("xx3", ("x",), ["x^2 - 3"], 0)
    tbl = series(X, make_ring(3), "p", terms=3)
    assert tbl.exact
    assert tbl.coefficients == [0, 0, 0]


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


def test_q_coefficient_check_refuses_ramified_ring_once():
    # the ring is refused by series, before any other work or message
    ram3 = make_ring(3, e=2, eisenstein=(-3, 0), n=3)
    with pytest.raises(UnsupportedStack, match="unramified prime ring"):
        q_coefficient_check(CONIC, ram3, 1)
