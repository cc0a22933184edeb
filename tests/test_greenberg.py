import itertools

import pytest

from padicstacks.greenberg import (
    digit_variables,
    expand_poly,
    greenberg_transform,
)
from padicstacks.polyscheme import (
    AffineScheme,
    parse_poly,
)
from padicstacks.rings import BoundExceeded


def brute_count_mod(X, m):
    count = 0
    for pt in itertools.product(range(m), repeat=X.n_vars):
        if all(g.eval_int(pt, m) == 0 for g in X.generators):
            count += 1
    return count


def brute_points_mod(X, m):
    return [
        pt
        for pt in itertools.product(range(m), repeat=X.n_vars)
        if all(g.eval_int(pt, m) == 0 for g in X.generators)
    ]


def scheme(name, variables, texts, dim):
    return AffineScheme.from_text(name, variables, texts, dim)


def test_affine_line_has_no_equations():
    A1 = AffineScheme.affine_space("A1", ("x",))
    G = greenberg_transform(A1, 3, 2)
    assert not G.scheme.generators
    assert G.count_points() == 27 == brute_count_mod(A1, 27)


def test_linear_constant_forcing():
    # x - c pins every digit of c: exactly one point
    X = scheme("const", ("x",), ["x - 7"], 0)
    G = greenberg_transform(X, 3, 1)
    pts = G.enumerate_points()
    assert len(pts) == 1
    assert G.decode_point(pts[0]) == (7,)


def test_x_squared_minus_seven_p3_level1():
    # mod 9 the solutions of x^2 = 7 are x = 4, 5
    X = scheme("xx7", ("x",), ["x^2 - 7"], 0)
    G = greenberg_transform(X, 3, 1)
    pts = G.enumerate_points()
    assert len(pts) == 2
    assert sorted(G.decode_point(q)[0] for q in pts) == [4, 5]


BATTERY = [
    ("line", ("x", "y"), ["x + y - 1"], 1),
    ("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1),
    ("cusp", ("x", "y"), ["y^2 - x^3"], 1),
    ("hyper", ("x", "y"), ["x*y - 3"], 1),
    ("xx7", ("x",), ["x^2 - 7"], 0),
    ("fermat", ("x", "y", "z"), ["x^3 + y^3 + z^3"], 2),
]


def battery_cases():
    # every (p, n) pair with p in {2,3,5}, n <= 2 appears; sizes kept at
    # desk scale by pairing 3-variable schemes with small primes
    for name, variables, texts, dim in BATTERY:
        X = scheme(name, variables, texts, dim)
        for p in (2, 3, 5):
            for n in (0, 1, 2):
                if p ** (X.n_vars * (n + 1)) > 30_000:
                    continue
                yield X, p, n


def test_count_equality_battery():
    seen = set()
    for X, p, n in battery_cases():
        G = greenberg_transform(X, p, n)
        assert G.count_points() == brute_count_mod(X, p ** (n + 1)), (X.name, p, n)
        seen.add((p, n))
    assert seen == {(p, n) for p in (2, 3, 5) for n in (0, 1, 2)}


def test_bijection_via_digit_decode():
    X = scheme("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1)
    for p, n in ((2, 2), (3, 1), (5, 1)):
        G = greenberg_transform(X, p, n)
        m = p ** (n + 1)
        decoded = sorted(G.decode_point(q) for q in G.enumerate_points())
        assert decoded == sorted(brute_points_mod(X, m))
        # ... and encoding solutions lands back on expansion points
        expansion_points = set(G.enumerate_points())
        for pt in brute_points_mod(X, m):
            assert G.encode_point(pt) in expansion_points


def test_expansion_components_are_triangular():
    X = scheme("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1)
    G = greenberg_transform(X, 3, 2)
    for i, level_gens in enumerate(G.component_gens):
        for g in level_gens:
            for expo in g.terms:
                for k, e in enumerate(expo):
                    if e:
                        assert int(G.scheme.variables[k].split("_")[-1]) <= i


def test_truncation_commutes_with_reduction():
    X = scheme("xx7", ("x",), ["x^2 - 7"], 0)
    G2 = greenberg_transform(X, 3, 2)
    G1 = greenberg_transform(X, 3, 1)
    pts1 = set(G1.enumerate_points())
    for q in G2.enumerate_points():
        t = G2.truncate_point(q, 1)
        assert t in pts1
        assert G1.decode_point(t) == tuple(a % 9 for a in G2.decode_point(q))
    # composing truncations = truncating directly
    for q in G2.enumerate_points():
        assert G2.truncate_point(G2.truncate_point(q, 1), 0)[:1] == G2.truncate_point(q, 0)[:1]


def test_truncation_images_of_x_squared_minus_seven():
    # images mod 3 of {4, 5} are {1, 2}
    X = scheme("xx7", ("x",), ["x^2 - 7"], 0)
    G1 = greenberg_transform(X, 3, 1)
    images = sorted(
        G1.decode_point(G1.truncate_point(q, 0) + (0,))[0] % 3
        for q in G1.enumerate_points()
    )
    assert images == [1, 2]


def test_functoriality_on_points():
    # the substitution morphism t -> (t, t^2 + 1) from A^1 to A^2 commutes
    # with digit expansion on enumerated points
    p, n = 3, 2
    L = n + 1
    m = p ** (n + 1)
    names = digit_variables(("t",), L)
    u1 = parse_poly("t", ("t",))
    u2 = parse_poly("t^2 + 1", ("t",))
    comps1 = expand_poly(u1, p, L, names)
    comps2 = expand_poly(u2, p, L, names)
    A1 = AffineScheme.affine_space("A1", ("t",))
    G = greenberg_transform(A1, p, n)
    for q in G.enumerate_points():
        image_digits = tuple(c.eval_int(q, p) for c in comps1) + tuple(
            c.eval_int(q, p) for c in comps2
        )
        t_val = G.decode_point(q)[0]
        expected = (t_val % m, (t_val**2 + 1) % m)
        G2 = greenberg_transform(AffineScheme.affine_space("A2", ("x", "y")), p, n)
        assert G2.decode_point(image_digits) == expected


def test_emit_equations_deterministic():
    X = scheme("xx7", ("x",), ["x^2 - 7"], 0)
    G = greenberg_transform(X, 3, 1)
    lines1 = G.emit_equations()
    lines2 = greenberg_transform(X, 3, 1).emit_equations()
    assert lines1 == lines2
    assert all("x_0" in line or "x_1" in line or "=" in line for line in lines1)


def test_level_bound():
    A1 = AffineScheme.affine_space("A1", ("x",))
    with pytest.raises(BoundExceeded, match="bound 5$"):
        greenberg_transform(A1, 2, 9)


def test_digit_frontier_bound():
    # the level-0 digit frontier of A2 over F_3 holds 9 points
    G = greenberg_transform(AffineScheme.affine_space("A2", ("x", "y")), 3, 0)
    assert G.count_points(bound=9) == 9
    with pytest.raises(BoundExceeded, match="digit frontier exceeds bound 8$"):
        G.count_points(bound=8)
