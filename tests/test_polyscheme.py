import itertools
import random

import pytest

from padicstacks.polyscheme import (
    DEFAULT_SLACK,
    AffineScheme,
    BoundExceeded,
    LiftAnalyzer,
    LiftStatus,
    MultiPoly,
    PolyParseError,
    count_points,
    count_points_lifted,
    enumerate_points,
    enumerate_points_lifted,
    hensel_liftable,
    jacobian,
    jacobian_minors,
    lift_analyzer_for_scheme,
    parse_poly,
    singular_locus,
    tau_point,
    _solve_mod_p,
)

V2 = ("x", "y")


def P(text, variables=V2):
    return parse_poly(text, variables)


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_parse_and_text_roundtrip():
    f = P("x^2 + 2*x*y - 3")
    assert f.terms == {(2, 0): 1, (1, 1): 2, (0, 0): -3}
    assert parse_poly(f.to_text(), V2) == f


def test_parse_unary_minus_and_parens():
    assert P("-x + (y - 1)*2") == P("2*y - x - 2")
    assert P("-(x - y)") == P("y - x")
    assert P("-3") == MultiPoly.constant(V2, -3)


def test_parse_errors():
    with pytest.raises(PolyParseError):
        P("x +")
    with pytest.raises(PolyParseError):
        P("z + 1")  # unbound variable
    with pytest.raises(PolyParseError):
        P("x ^ y")
    with pytest.raises(PolyParseError):
        P("x $ y")


def test_ring_axioms_random():
    rng = random.Random(7)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            expo = (rng.randint(0, 3), rng.randint(0, 3))
            terms[expo] = rng.randint(-4, 4)
        return MultiPoly(V2, terms)

    for _ in range(200):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f + g == g + f
        assert f - f == MultiPoly.zero(V2)


def test_pow_matches_repeated_mul():
    f = P("x + 2*y - 1")
    acc = MultiPoly.constant(V2, 1)
    for k in range(5):
        assert f**k == acc
        acc = acc * f


def test_eval_int_commutes_with_coeff_reduction():
    f = P("7*x^2 - 5*x*y + 12")
    for m in (3, 9, 25):
        g = f.reduce_coeffs(m)
        for pt in itertools.product(range(m), repeat=2):
            assert f.eval_int(pt, m) == g.eval_int(pt, m)


def test_compile_int_agrees_with_eval_int():
    f = P("x^3 - 2*x*y^2 + 5*y - 7")
    ev = f.compile_int(27)
    for pt in itertools.product(range(27), repeat=2):
        assert ev(pt) == f.eval_int(pt, 27)


def test_substitute():
    f = P("x^2 + y")
    mapping = {
        "x": parse_poly("u + v", ("u", "v")),
        "y": parse_poly("u*v", ("u", "v")),
    }
    assert f.substitute(mapping) == parse_poly("u^2 + 2*u*v + v^2 + u*v", ("u", "v"))
    # mod-p reduction inside substitution
    g = f.substitute(mapping, modulus=2)
    assert g == parse_poly("u^2 + v^2 + u*v", ("u", "v"))


def test_partial_derivatives():
    f = P("y^2 - x^3")
    assert f.partial("x") == P("-3*x^2")
    assert f.partial("y") == P("2*y")
    assert P("5").partial("x").is_zero()


# ---------------------------------------------------------------------------
# schemes and counting


def conic():
    return AffineScheme.from_text("conic", V2, ["x^2 + y^2 - 1"], 1)


def cusp():
    return AffineScheme.from_text("cusp", V2, ["y^2 - x^3"], 1)


def hyperbola3():
    return AffineScheme.from_text("xy3", V2, ["x*y - 3"], 1)


class _PrimeRing:
    """Minimal ring adapter for count tests: Z/m with m = p^(n+1)."""

    def __init__(self, m):
        self.size = m
        self.int_modulus = m

    def elements(self):
        return iter(range(self.size))

    def from_int(self, c):
        return c % self.size


def brute_count(X, m):
    """Independent brute-force oracle over all tuples mod m."""
    count = 0
    for pt in itertools.product(range(m), repeat=X.n_vars):
        if all(g.eval_int(pt, m) == 0 for g in X.generators):
            count += 1
    return count


def test_count_conic_f5():
    # oracle over 25 tuples: 4 points
    assert brute_count(conic(), 5) == 4
    assert count_points(conic(), _PrimeRing(5)) == 4


def test_count_affine_space():
    A2 = AffineScheme.affine_space("A2", V2)
    assert count_points(A2, _PrimeRing(9)) == 81


def test_count_xy3_mod9():
    assert brute_count(hyperbola3(), 9) == 12
    assert count_points(hyperbola3(), _PrimeRing(9)) == 12


def test_enumeration_order_deterministic():
    pts = list(enumerate_points(conic(), _PrimeRing(5)))
    assert pts == sorted(pts)
    assert len(pts) == 4


def test_bound_exceeded():
    A2 = AffineScheme.affine_space("A2", V2)
    with pytest.raises(BoundExceeded, match="81 tuples exceeds bound 10$"):
        list(enumerate_points(A2, _PrimeRing(9), bound=10))


def test_lifted_counts_match_brute():
    for X in (conic(), cusp(), hyperbola3()):
        for p in (2, 3, 5):
            for n in (0, 1, 2):
                m = p ** (n + 1)
                if m**2 > 100_000:
                    continue
                assert count_points_lifted(X, p, n) == brute_count(X, m)


def test_lifted_points_are_reduction_compatible():
    X = hyperbola3()
    pts2 = enumerate_points_lifted(X, 3, 2)
    pts1 = set(enumerate_points_lifted(X, 3, 1))
    for pt in pts2:
        assert tau_point(pt, 3, 1) in pts1


def node():
    return AffineScheme.from_text("node", V2, ["y^2 - x^2 - x^3"], 1)


def lift_battery():
    """Smooth and singular targets for the lift engine, each with the
    generator count it exercises: 0, 1, 2 and 3."""
    return [
        conic(),
        cusp(),
        node(),
        hyperbola3(),
        AffineScheme.from_text("xx7", ("x",), ["x^2 - 7"], 0),
        # parabola (t, t^2, t) meeting the line x = y = 0 at the origin
        AffineScheme.from_text(
            "two_gen", ("x", "y", "z"), ["y - x^2", "x^2*z - x^3"], 1
        ),
        # a Jacobian whose elimination rewrites an earlier pivot row
        AffineScheme.from_text(
            "plane_hyperbola", ("x", "y", "z"), ["x + y + z", "y*z - 1"], 1
        ),
        singular_locus(cusp()),  # more generators than variables
        AffineScheme.affine_space("A1", ("x",)),
    ]


def test_lift_engine_agrees_with_brute_enumeration():
    # the Hensel-linearised engine against brute enumerate_points, which
    # tries every tuple and shares no lifting code with it
    cases = 0
    for X in lift_battery():
        for p in (2, 3, 5):
            for n in (0, 1, 2):
                m = p ** (n + 1)
                if m**X.n_vars > 100_000:
                    continue
                brute = list(enumerate_points(X, _PrimeRing(m)))
                assert enumerate_points_lifted(X, p, n) == brute, (X.name, p, n)
                count = count_points_lifted(X, p, n)
                assert type(count) is int, (X.name, p, n)
                assert count == len(brute), (X.name, p, n)
                cases += 1
    assert cases == 79


def test_solve_mod_p_matches_brute():
    rng = random.Random(11)
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        n_vars = rng.randint(1, 4)
        rows = [[rng.randrange(p) for _ in range(n_vars)]
                for _ in range(rng.randint(0, 4))]
        rhs = tuple(rng.randrange(p) for _ in rows)
        brute = tuple(
            d for d in itertools.product(range(p), repeat=n_vars)
            if all(sum(a * x for a, x in zip(row, d)) % p == b
                   for row, b in zip(rows, rhs))
        )
        assert _solve_mod_p(rows, rhs, p, n_vars) == brute, (p, rows, rhs)


def test_count_points_lifted_refuses_over_bound():
    # conic over Z/5^4: every residue point is smooth, so the closed form
    # needs no lifting, yet the level-3 frontier would hold 500 > 100 points
    for f in (count_points_lifted, enumerate_points_lifted):
        with pytest.raises(BoundExceeded, match="bound 100$"):
            f(conic(), 5, 3, bound=100)
    assert count_points_lifted(conic(), 5, 3, bound=500) == 500


class _DeltaLoopAnalyzer(LiftAnalyzer):
    """Reference certificates: the frontier is grown by trying all p^N
    digit vectors delta for every point, in itertools.product order."""

    def status(self, point, n, slack=DEFAULT_SLACK, frontier_bound=50_000):
        p = self.p
        if not self.gens:
            return LiftStatus.CERTIFIED_LIFTABLE
        point = tau_point(point, p, n)
        modulus = p ** (n + 1)
        if any(g.eval_int(point, modulus) for g in self.gens):
            return LiftStatus.CERTIFIED_NOT
        if self._minor_certificate(point, n, n):
            return LiftStatus.CERTIFIED_LIFTABLE
        frontier = [point]
        capped = False
        for m in range(n + 1, n + slack + 1):
            step = p**m
            modulus = p ** (m + 1)
            new_frontier = []
            for pt in frontier:
                for delta in itertools.product(range(p), repeat=self.n_vars):
                    cand = tuple(x + d * step for x, d in zip(pt, delta))
                    if all(g.eval_int(cand, modulus) == 0 for g in self.gens):
                        if self._minor_certificate(cand, m, n):
                            return LiftStatus.CERTIFIED_LIFTABLE
                        new_frontier.append(cand)
                if len(new_frontier) > frontier_bound:
                    capped = True
                    new_frontier = new_frontier[:frontier_bound]
                    break
            if not new_frontier and not capped:
                return LiftStatus.CERTIFIED_NOT
            frontier = new_frontier
        return LiftStatus.UNKNOWN


def test_certificates_match_delta_loop_reference():
    # a capped frontier keeps its first frontier_bound lifts, so equal
    # outcomes need the engine to visit lifts in the reference's order
    xy5 = AffineScheme.from_text("xy5", V2, ["x*y - 5"], 1)
    outcomes = set()
    for X in (cusp(), node(), xy5):
        for p in (3, 5):
            engine = lift_analyzer_for_scheme(X, p)
            reference = _DeltaLoopAnalyzer(X.generators, X.n_vars, p)
            for n in (0, 1, 2):
                for pt in enumerate_points(X, _PrimeRing(p ** (n + 1))):
                    for slack in (1, 2, 3):
                        for fb in (1, 3, 50_000):
                            got = engine.status(pt, n, slack, fb)
                            want = reference.status(pt, n, slack, fb)
                            assert got is want, (X.name, p, pt, n, slack, fb)
                            outcomes.add(got)
    assert outcomes == set(LiftStatus)


def test_analyzer_compiles_jacobian_only_when_lifting():
    analyzer = LiftAnalyzer(hyperbola3().generators, 2, 3)
    assert analyzer.status((1, 1), 0) is LiftStatus.CERTIFIED_NOT
    assert analyzer.status((1, 3), 0) is LiftStatus.CERTIFIED_LIFTABLE
    assert analyzer._lifter._jac_evals is None
    assert analyzer.status((0, 0), 0) is LiftStatus.CERTIFIED_NOT
    assert analyzer._lifter._jac_evals is not None


# ---------------------------------------------------------------------------
# jacobian / singular locus


def test_jacobian_entries():
    assert jacobian(cusp()) == ((P("-3*x^2"), P("2*y")),)
    assert jacobian(hyperbola3()) == ((P("y"), P("x")),)
    const = AffineScheme("c", V2, (P("5"),), 1)
    assert jacobian(const) == ((MultiPoly.zero(V2), MultiPoly.zero(V2)),)


def test_singular_locus_cusp():
    sing = singular_locus(cusp())
    texts = {g.to_text() for g in sing.generators}
    assert texts == {"-x^3 + y^2", "-3*x^2", "2*y"}
    # only point over F_5 is the origin
    assert list(enumerate_points(sing, _PrimeRing(5))) == [(0, 0)]


def test_singular_locus_smooth_conic_empty():
    sing = singular_locus(conic())
    assert count_points(sing, _PrimeRing(5)) == 0


def test_singular_locus_affine_line_empty_by_convention():
    A1 = AffineScheme.affine_space("A1", ("x",))
    sing = singular_locus(A1)
    assert count_points(sing, _PrimeRing(7)) == 0


def test_singular_locus_inconsistent_dim():
    X = AffineScheme("bad", V2, (), 0)  # codim 2 but no generators
    with pytest.raises(ValueError):
        singular_locus(X)


def test_minors_of_rectangular_jacobian():
    X = AffineScheme("two", V2, (P("x^2 - y"), P("x*y")), 0)
    ms = jacobian_minors(X, 2)
    # det [[2x, -1], [y, x]] = 2x^2 + y
    assert ms == [P("2*x^2 + y")]


# ---------------------------------------------------------------------------
# Hensel certificates


def test_hensel_smooth_graph_liftable():
    X = AffineScheme.from_text("graph", V2, ["y - x^2"], 1)
    assert hensel_liftable(X, (2, 4), 3, 1) is LiftStatus.CERTIFIED_LIFTABLE


def test_hensel_xy3_origin_not_liftable():
    X = hyperbola3()
    assert hensel_liftable(X, (0, 0), 3, 0) is LiftStatus.CERTIFIED_NOT


def test_hensel_cusp_origin_unknown_at_small_slack():
    assert hensel_liftable(cusp(), (0, 0), 3, 0, slack=2) is LiftStatus.UNKNOWN


def test_hensel_agrees_with_deep_enumeration():
    # certificate soundness against a brute lift search four levels up
    X = cusp()
    p, n, deep = 3, 0, 4
    deep_points = enumerate_points(X, _PrimeRing(p ** (deep + 1)))
    liftable_at_deep = {tau_point(pt, p, n) for pt in deep_points}
    for pt in enumerate_points(X, _PrimeRing(p ** (n + 1))):
        status = hensel_liftable(X, pt, p, n, slack=2)
        if status is LiftStatus.CERTIFIED_LIFTABLE:
            assert pt in liftable_at_deep
        if status is LiftStatus.CERTIFIED_NOT:
            assert pt not in liftable_at_deep


def test_hensel_non_unit_minor_window():
    # y^2 = x^3 at (1, 1) is a smooth point: unit minor, certified at once
    assert hensel_liftable(cusp(), (1, 1), 5, 0) is LiftStatus.CERTIFIED_LIFTABLE
