import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicstacks import greenberg, witt
from padicstacks.greenberg import (
    digit_variables,
    expand_poly,
    greenberg_transform,
)
from padicstacks.polyscheme import (
    AffineScheme,
    MultiPoly,
    enumerate_points,
    parse_poly,
)
from padicstacks.rings import BoundExceeded, make_ring, size_limit
from poly_oracles import ghost_expand_reference


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
    # composing truncations = truncating directly; a level-1 point is
    # truncated by the level-1 expansion
    for q in G2.enumerate_points():
        assert G1.truncate_point(G2.truncate_point(q, 1), 0) == G2.truncate_point(q, 0)


def test_point_helpers_refuse_bad_input():
    # the conic at p = 3, level 2: points of 6 digits in 0..2, source
    # points of 2 coordinates, truncation levels 0..2
    G = greenberg_transform(scheme("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1), 3, 2)
    pt = G.encode_point((0, 1))
    assert len(pt) == 6 and G.decode_point(pt) == (0, 1)
    assert G.truncate_point(pt, 0) == (0, 1) and G.truncate_point(pt, 2) == pt
    with pytest.raises(ValueError, match="must lie in 0..2, got -1$"):
        G.truncate_point(pt, -1)
    with pytest.raises(ValueError, match="must lie in 0..2, got 3$"):
        G.truncate_point(pt, 3)
    with pytest.raises(ValueError, match="has 6 digits, got 4$"):
        G.decode_point(pt[:4])
    with pytest.raises(ValueError, match="has 6 digits, got 4$"):
        G.truncate_point(pt[:4], 1)
    with pytest.raises(ValueError, match=r"digits lie in 0..2, got \(5, 0, 0, 0, 0, 0\)$"):
        G.decode_point((5, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match=r"digits lie in 0..2, got \(0, 0, -1, 0, 0, 0\)$"):
        G.truncate_point((0, 0, -1, 0, 0, 0), 1)
    with pytest.raises(ValueError, match="has 2 coordinates, got 1$"):
        G.encode_point((1,))


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


@pytest.mark.parametrize(
    "text, p, n, sizes, digest",
    [
        ("x^2 + y^2 - 1", 3, 3, [3, 9, 91, 6130],
         "964004ce3ebc87612f879144867ecfe7a4d71e203c83f9ae6b64e1fd953bdd28"),
        ("x^2 + y^2 - 1", 5, 2, [3, 20, 985],
         "b1e07de2553e0e57c0645845437d5746ee6252cbca5c744bca2485bdea97f464"),
        ("x*y - 3", 3, 3, [1, 3, 10, 128],
         "038c4be3a08dfa4374a7ea3fd7601190ab01d39f14fcdce65a70baa9e4e70c15"),
    ],
)
def test_deep_components_pinned(text, p, n, sizes, digest):
    # term counts and one SHA-256 over every component's text, in
    # generator order, one line each
    G = greenberg_transform(scheme("X", ("x", "y"), [text], 1), p, n)
    comps = G.scheme.generators
    assert [len(g.terms) for g in comps] == sizes
    text_all = "\n".join(g.to_text() for g in comps)
    assert hashlib.sha256(text_all.encode()).hexdigest() == digest


ORACLE_CASES = [
    ("x^2 + y^2 - 1", ("x", "y"), 3, 3),
    ("x^2 + y^2 - 1", ("x", "y"), 5, 2),
    ("x*y - 3", ("x", "y"), 3, 3),
    ("x^3 + y^3 + z^3", ("x", "y", "z"), 3, 1),
    ("y^2 - x^3", ("x", "y"), 3, 3),
    ("y^2 - x^2 - x^3", ("x", "y"), 3, 3),
    ("y^2 - x^2 - x^3", ("x", "y"), 5, 2),
    # coefficients that are not units; 82 = 1 and 81 = 0 mod 3^4
    ("2*x^2 - 7*y", ("x", "y"), 3, 3),
    ("82*x", ("x",), 3, 3),
    ("81*x + 82*y^2 - 162", ("x", "y"), 3, 3),
]


@pytest.mark.parametrize("text, variables, p, n", ORACLE_CASES)
def test_expand_poly_matches_ghost_map_oracle(text, variables, p, n):
    f = parse_poly(text, variables)
    names = digit_variables(variables, n + 1)
    assert expand_poly(f, p, n + 1, names) == ghost_expand_reference(f, p, n + 1, names)


def assert_search_reads_folds_of_exact_components(G):
    """The search leaves the exact components unbuilt, and each component
    it reads is `_fold` of the exact one: the unique representative with
    exponents below p, so the equality is exact."""
    G.count_points()
    G.enumerate_points()
    assert "scheme" not in G.__dict__
    folded = G._folded_gens
    exact = G.component_gens
    assert len(folded) == len(exact) == G.length
    for fs, es in zip(folded, exact):
        assert len(fs) == len(es) == len(G.source.generators)
        for f, e in zip(fs, es):
            assert f.variables == e.variables
            assert f.terms == witt._fold(e, G.p)


@pytest.mark.parametrize("text, variables, p, n", ORACLE_CASES)
def test_folded_components_of_oracle_cases(text, variables, p, n):
    X = scheme("X", variables, [text], len(variables) - 1)
    assert_search_reads_folds_of_exact_components(greenberg_transform(X, p, n))


def fold_battery():
    """Seeded sources for p in {2, 3, 5, 7} and L = n + 1 <= 4 (3 at
    p >= 5) in 1, 2 and 3 variables.  Their coefficients come from 1, -1
    and p (Teichmuller digits with zeros), p^L + 1 (the Witt vector one),
    p^L (the zero vector, skipped) and one of 2..p."""
    rng = random.Random(4800)
    cases = []
    for p, top in ((2, 4), (3, 4), (5, 3), (7, 3)):
        for L in range(1, top + 1):
            for variables in (("x",), ("x", "y"), ("x", "y", "z")):
                coeffs = [1, -1, p, p**L + 1, p**L, rng.randrange(2, p + 1)]
                rng.shuffle(coeffs)
                terms = []
                for c in coeffs[:rng.randint(2, 4)]:
                    factors = [rng.choice(variables) for _ in range(rng.randint(0, 3))]
                    terms.append("*".join([str(c)] + factors))
                cases.append((" + ".join(terms), variables, p, L - 1))
    return cases


@pytest.mark.parametrize("text, variables, p, n", fold_battery())
def test_folded_expansion_is_the_fold_of_the_exact_one(text, variables, p, n):
    G = greenberg_transform(scheme("X", variables, [text], len(variables) - 1), p, n)
    for fs, es in zip(G._folded_gens, G.component_gens):
        assert [f.terms for f in fs] == [witt._fold(e, p) for e in es]


def test_folded_expansion_stays_packed(monkeypatch):
    # the folded expansion builds a MultiPoly only for each final
    # component, and each folded law is grouped once per StructurePolys,
    # not once per Witt operation
    monkeypatch.setattr(witt, "_structure_cache", {})
    grouped = []
    group = witt._group
    monkeypatch.setattr(witt, "_group", lambda law, L: grouped.append(L) or group(law, L))
    witt.structure_polynomials(3, 4)
    sources = [scheme("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1),
               scheme("pair", ("x", "y", "z"), ["x*y*z - 2*z^2 + 3", "x^2 - y + 1"], 1)]
    built = []
    init = MultiPoly.__init__
    monkeypatch.setattr(MultiPoly, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    for X in sources:
        G = greenberg_transform(X, 3, 3)
        assert len(G._folded_gens) == 4
    assert len(built) == 4 * (1 + 2)
    assert grouped == [4, 4]


def test_expand_poly_skips_terms_zero_mod_p_length(monkeypatch):
    # 81*x has the zero Witt vector at p = 3, length 4: no Witt product
    # or sum is formed for it
    calls = []
    for name in ("witt_add_sym", "witt_mul_sym"):
        law = getattr(greenberg, name)
        monkeypatch.setattr(greenberg, name,
                            lambda a, b, p, law=law, name=name: calls.append(name) or law(a, b, p))
    f = parse_poly("81*x + y", ("x", "y"))
    names = digit_variables(("x", "y"), 4)
    comps = expand_poly(f, 3, 4, names)
    assert not calls
    assert comps == tuple(MultiPoly.variable(names, f"y_{i}") for i in range(4))
    assert all(g.is_zero() for g in expand_poly(parse_poly("81*x - 162", ("x",)), 3, 4))


def test_level_bound():
    A1 = AffineScheme.affine_space("A1", ("x",))
    with pytest.raises(BoundExceeded, match="bound 5$"):
        greenberg_transform(A1, 2, 9)


def test_negative_level_rejected():
    A1 = AffineScheme.affine_space("A1", ("x",))
    with pytest.raises(ValueError, match="level must be at least 0, got -1$"):
        greenberg_transform(A1, 3, -1)


def test_transform_refuses_at_once_and_expands_nothing():
    A1 = AffineScheme.affine_space("A1", ("x",))
    with pytest.raises(ValueError, match="^4 is not prime$"):
        greenberg_transform(A1, 4, 1)
    with pytest.raises(ValueError, match="collide with digit naming"):
        greenberg_transform(AffineScheme.affine_space("A2", ("x", "x_0")), 3, 1)
    G = greenberg_transform(scheme("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1), 3, 3)
    assert "scheme" not in G.__dict__ and "_folded_gens" not in G.__dict__


@pytest.mark.parametrize("variables, p, n", [(("x",), 2, 9), (("x",), 3, -1), (("x",), 4, 1),
                                           (("x",), 1, 1), (("x", "x_0"), 3, 1)])
def test_record_refuses_what_the_transform_refuses(variables, p, n):
    # the record built directly once took level -1 (enumerate_points
    # answered [()] and count_points died on an unbound local)
    X = AffineScheme.from_text("X", variables, ["x^2 - 1"], len(variables) - 1)
    with pytest.raises((ValueError, BoundExceeded)) as want:
        greenberg_transform(X, p, n)
    with pytest.raises(type(want.value)) as got:
        greenberg.GreenbergScheme(X, p, n)
    assert str(got.value) == str(want.value)


def test_digit_frontier_bound():
    # the level-0 digit frontier of A2 over F_3 holds 9 points
    G = greenberg_transform(AffineScheme.affine_space("A2", ("x", "y")), 3, 0)
    assert G.count_points(bound=9) == 9
    with pytest.raises(BoundExceeded, match="digit frontier exceeds bound 8$"):
        G.count_points(bound=8)


@pytest.mark.parametrize("bound", [11, 35])
def test_digit_frontier_bound_above_level_zero(bound):
    # the conic over Z/27: 4, 12 and 36 points at digit levels 0, 1 and 2,
    # so the search refuses at level 1 (bound 11) or at the last level
    G = greenberg_transform(scheme("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1), 3, 2)
    assert G.count_points(bound=36) == 36 == len(G.enumerate_points(bound=36))
    for run in (G.count_points, G.enumerate_points,
                lambda bound: full_evaluation_points(G, bound)):
        with pytest.raises(BoundExceeded, match=f"^digit frontier exceeds bound {bound}$"):
            run(bound=bound)


def full_evaluation_points(G, bound=None):
    """Reference digit search: every full component is evaluated at every
    candidate top digit tuple of every frontier point, in the order of
    itertools.product; the frontier refuses as soon as a level holds more
    than the bound.  Returns the sorted points."""
    limit = size_limit(bound)
    p = G.p
    L = G.length
    nv = len(G.source.variables)
    positions = [[j * L + i for j in range(nv)] for i in range(L)]
    compiled = [[g.compile_int(p) for g in level_gens]
                for level_gens in G.component_gens]
    frontier = [(0,) * (nv * L)]
    for i in range(L):
        new_frontier = []
        for partial in frontier:
            base = list(partial)
            for digits in itertools.product(range(p), repeat=nv):
                for pos, d in zip(positions[i], digits):
                    base[pos] = d
                cand = tuple(base)
                if all(ev(cand) == 0 for ev in compiled[i]):
                    new_frontier.append(cand)
            if len(new_frontier) > limit:
                raise BoundExceeded(f"digit frontier exceeds bound {limit}")
        frontier = new_frontier
    frontier.sort()
    return frontier


@st.composite
def digit_systems(draw):
    """1-3 variables, 1-2 generators of up to four terms c x^e of degree
    <= 3 with c in -12..12, over p in {2, 3, 5} at a level n <= 2 with
    p^(N(n+1)) <= 729 tuples for the brute oracle, and a frontier bound
    (None for the default)."""
    p = draw(st.sampled_from((2, 3, 5)))
    nv = draw(st.integers(1, 3))
    n = draw(st.integers(0, max(k for k in range(3) if p ** (nv * (k + 1)) <= 729)))
    variables = ("x", "y", "z")[:nv]
    monomials = [e for e in itertools.product(range(4), repeat=nv) if sum(e) <= 3]
    term = st.tuples(st.sampled_from(monomials), st.integers(-12, 12))
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=4), min_size=1, max_size=2))
    polys = tuple(MultiPoly(variables, dict(terms)) for terms in gens)
    bound = draw(st.one_of(st.none(), st.integers(0, 40)))
    return AffineScheme("digits", variables, polys, max(nv - len(polys), 0)), p, n, bound


def _outcome(run):
    # a bound of 0 is bad input (ValueError), above it an exceeded bound
    try:
        return run()
    except (BoundExceeded, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=120)
@given(digit_systems())
def test_specialised_search_matches_full_evaluation_and_brute(case):
    X, p, n, bound = case
    G = greenberg_transform(X, p, n)
    assert_search_reads_folds_of_exact_components(greenberg_transform(X, p, n))
    points = _outcome(lambda: G.enumerate_points(bound))
    assert points == _outcome(lambda: full_evaluation_points(G, bound))
    assert _outcome(lambda: G.count_points(bound)) == (
        points if isinstance(points, str) else len(points))
    if not isinstance(points, str):
        decoded = sorted(G.decode_point(q) for q in points)
        assert decoded == list(enumerate_points(X, make_ring(p, n=n)))


# the search folds each component as a function on F_p (a^p = a) before it
# splits it; the cases below have exponents p, p + 1 and 2p - 1 that the
# fold maps to 1, 2 and p - 1, and the oracles read the unfolded components

FOLD_CASES = [
    ("x^3 - x", ("x",), 3, 2),
    ("x^2 - x", ("x",), 2, 3),
    ("x^2 + y^2 - 1", ("x", "y"), 3, 3),
    ("x^2 + y^2 - 1", ("x", "y"), 5, 2),
] + [
    (f"x^{p} - y + {p + 1}", ("x", "y"), p, n)
    for p, n in ((2, 2), (3, 2), (5, 1))
] + [
    (f"x^{p + 1}*y - x^{2 * p - 1} + y^{p} - 1", ("x", "y"), p, n)
    for p, n in ((2, 2), (3, 2), (5, 1))
]


@pytest.mark.parametrize("text, variables, p, n", FOLD_CASES)
def test_folded_search_matches_unfolded_oracle_and_brute(text, variables, p, n):
    X = scheme("X", variables, [text], len(variables) - 1)
    G = greenberg_transform(X, p, n)
    assert_search_reads_folds_of_exact_components(greenberg_transform(X, p, n))
    points = G.enumerate_points()
    assert points == full_evaluation_points(G)
    assert G.count_points() == len(points)
    decoded = sorted(G.decode_point(q) for q in points)
    assert decoded == list(enumerate_points(X, make_ring(p, n=n)))


@pytest.mark.parametrize("text, variables, p, n", FOLD_CASES[:2] + FOLD_CASES[4:])
def test_fold_is_the_same_function_on_f_p(text, variables, p, n):
    # every folded exponent lies in 1..p-1, and the folded component takes
    # the unfolded one's value mod p at every digit tuple
    G = greenberg_transform(scheme("X", variables, [text], len(variables) - 1), p, n)
    for g in G.scheme.generators:
        folded = MultiPoly(g.variables, witt._fold(g, p))
        assert all(e < p for expo in folded.terms for e in expo)
        assert all(0 <= c < p for c in folded.terms.values())
        for point in itertools.product(range(p), repeat=len(g.variables)):
            assert folded.eval_int(point, p) == g.eval_int(point, p)


def test_fold_exponents_and_like_terms():
    # at p = 2 every exponent e >= 1 folds to 1, so x^2 - x folds to zero;
    # at p = 3 the exponents 3, 4, 5 fold to 1, 2, 1
    x = MultiPoly.variable(("x", "y"), "x")
    y = MultiPoly.variable(("x", "y"), "y")
    assert witt._fold(x**2 - x, 2) == {}
    assert witt._fold(x**5 * y**2 + 3 * x * y + 1, 2) == {(0, 0): 1}
    assert witt._fold(x**3 - x, 3) == {}
    assert witt._fold(x**4 * y**5 - 2 * y, 3) == {(2, 1): 1, (0, 1): 1}


def test_fold_shrinks_the_deep_conic_top_component():
    G = greenberg_transform(scheme("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1), 3, 3)
    assert [len(witt._fold(g, 3)) for g in G.scheme.generators] == [3, 2, 8, 54]
