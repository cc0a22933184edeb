import ast
import itertools
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicstacks import polyscheme, tree
from padicstacks.greenberg import digit_variables, greenberg_transform
from padicstacks.polyscheme import (
    DEFAULT_SLACK,
    AffineScheme,
    BoundExceeded,
    LiftAnalyzer,
    LiftStatus,
    MultiPoly,
    enumerate_points,
    enumerate_points_lifted,
    jacobian,
    jacobian_minors,
    parse_poly,
    singular_locus,
    tau_point,
    _solve_mod_p,
)
from padicstacks.rings import make_ring
from padicstacks.syntax import PolyParseError
from padicstacks.tree import BallTree, count_points, hensel_liftable, level_counts, weil_restriction
from poly_oracles import (
    full_rank_reference,
    image_levels_reference,
    mul_reference,
    pow_reference,
    residue_zeros_reference,
    substitute_reference,
    verdict_reference,
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


def _random_poly(rng, variables, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = [0] * len(variables)
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(len(variables))] += 1
        terms[tuple(expo)] = rng.randint(-9, 9)
    return MultiPoly(variables, terms)


def test_substitute_matches_reference_battery():
    rng = random.Random(20261018)
    names = ("a", "b", "c")
    targets = ("u", "v", "w")
    for case in range(300):
        src = names[: rng.randint(1, 3)]
        tgt = targets[: rng.randint(1, 3)]
        f = _random_poly(rng, src, 4, 6)
        mapping = {v: _random_poly(rng, tgt, 3, 4) for v in src}
        if case % 5 == 0:
            mapping[src[0]] = MultiPoly.zero(tgt)
        if case % 7 == 0:
            mapping[src[-1]] = MultiPoly.constant(tgt, rng.randint(-4, 4))
        if case % 11 == 0:
            f = MultiPoly.constant(src, rng.randint(-5, 5))
        for modulus in (None, 2, 3, 25):
            got = f.substitute(mapping, modulus)
            assert got == substitute_reference(f, mapping, modulus), (case, modulus)
            assert got.variables == tgt
    # a polynomial in no variables maps to a constant in no variables
    for c in (0, 7, -12):
        f = MultiPoly.constant((), c)
        for modulus in (None, 5):
            assert f.substitute({}, modulus) == substitute_reference(f, {}, modulus)


def test_mul_and_pow_match_tuple_reference_battery():
    rng = random.Random(20261019)
    shapes = [(), ("x",), V2, ("a", "b", "c", "d"),
              digit_variables(("x", "y", "z"), 5)]
    for case in range(200):
        variables = shapes[case % len(shapes)]
        degree = 70 if case % 3 == 0 else 5
        if variables:
            f = _random_poly(rng, variables, degree, 6)
            g = _random_poly(rng, variables, degree, 6)
        else:
            f, g = (MultiPoly.constant((), rng.randint(-9, 9)) for _ in "fg")
        assert f * g == mul_reference(f, g), case
        assert g * f == f * g
        if degree == 5 and len(f.terms) <= 3:
            k = rng.randint(0, 4)
            assert f**k == pow_reference(f, k), case


def test_packed_pow_zero_exponent_zero_polynomial_and_constants():
    # a power packs once with the radix of degree times k: k = 0 gives the
    # radix 1, and so do the zero polynomial and every constant
    rng = random.Random(20261020)
    for variables in ((), ("x",), V2, digit_variables(("x", "y"), 4)):
        one = MultiPoly.constant(variables, 1)
        zero = MultiPoly.zero(variables)
        for k in range(6):
            assert zero**k == pow_reference(zero, k) == (one if k == 0 else zero)
            for c in (1, -1, 2, -7):
                const = MultiPoly.constant(variables, c)
                assert const**k == pow_reference(const, k) == MultiPoly.constant(variables, c**k)
        if variables:
            f = _random_poly(rng, variables, 9, 4)
            assert f**0 == one
            assert (f**0).variables == variables
            for k in (1, 3, 7):
                assert f**k == pow_reference(f, k), (variables, k)
    # (x - 1)^k has every exponent 0..k, the top one at 2^w - 1 and 2^w
    x = MultiPoly.variable(V2, "x")
    for top in (7, 8, 63, 64):
        assert (x - 1) ** top == pow_reference(x - 1, top)
        assert (x - 1) ** top == mul_reference((x - 1) ** (top - 1), x - 1)


# ---------------------------------------------------------------------------
# packed monomial edges: every product below is also checked against
# exponent-tuple arithmetic, so a radix too small for the exponents or a
# dropped constant shows


def test_packed_radix_edges():
    # the radix of a product comes from the sum of its operands' largest
    # exponents; x below reaches that sum exactly, at 2^w - 1 and at 2^w,
    # with y and z in the digits beside it
    names = ("x", "y", "z")
    x = MultiPoly.variable(names, "x")
    assert x * 5 == x * MultiPoly.constant(names, 5) == MultiPoly(names, {(1, 0, 0): 5})
    assert x * x == mul_reference(x, x) == MultiPoly(names, {(2, 0, 0): 1})
    for w in range(2, 9):
        for top in (2**w - 1, 2**w):
            a = MultiPoly(names, {(top - 1, 1, 0): 3, (0, 0, 1): -1})
            b = MultiPoly(names, {(1, 0, 1): 2, (0, 1, 0): 1})
            prod = a * b
            assert prod == mul_reference(a, b), (w, top)
            assert prod.terms == {(top, 1, 1): 6, (top - 1, 2, 0): 3,
                                  (1, 0, 2): -2, (0, 1, 1): -1}
            assert a**2 == mul_reference(a, a)
            # a substitution bounds its exponents by degree times image degree
            f = MultiPoly(("s",), {(top,): 1, (0,): 5})
            img = MultiPoly(names, {(1, 0, 0): 1, (0, 1, 0): -1})
            got = f.substitute({"s": img})
            assert got == substitute_reference(f, {"s": img}), (w, top)
            assert got.terms[(top, 0, 0)] == 1
            assert got.terms[(0, top, 0)] == (-1) ** top


def test_packed_large_exponents_and_many_variables():
    names = digit_variables(("x", "y", "z"), 5)
    assert len(names) == 15
    rng = random.Random(64)

    def sparse(choices, k):
        return MultiPoly(names, {tuple(rng.choice(choices) for _ in names):
                                 rng.randint(-5, 5) for _ in range(k)})

    for _ in range(20):
        f = sparse((0, 1, 64, 65, 127), 4)
        g = sparse((0, 63, 64, 200), 4)
        assert f * g == mul_reference(f, g)
        # monomial images take exponents past 64; binomial ones stay low
        h = sparse((0,) * 6 + (1, 70), 3)
        mapping = {v: MultiPoly.variable(names, v) ** 3 * -2 for v in names}
        for modulus in (None, 9):
            assert h.substitute(mapping, modulus) == substitute_reference(h, mapping, modulus)
        h = sparse((0,) * 6 + (1, 2), 3)
        mapping = {v: MultiPoly.variable(names, v) * 2 + rng.randint(-1, 1)
                   for v in names}
        for modulus in (None, 9):
            assert h.substitute(mapping, modulus) == substitute_reference(h, mapping, modulus)


def test_packed_zero_empty_and_negative_operands():
    zero = MultiPoly.zero(V2)
    f = P("-3*x^2*y + 5*y^4 - 7")
    assert (f * zero).is_zero() and (zero * f).is_zero() and (zero * zero).is_zero()
    assert zero**0 == MultiPoly.constant(V2, 1) and (zero**3).is_zero()
    assert f * f == mul_reference(f, f)
    assert f * (-f) == -(f * f)
    assert f**3 == pow_reference(f, 3)
    # polynomials in no variables are integers
    a, b = MultiPoly.constant((), -6), MultiPoly.constant((), 7)
    assert a * b == MultiPoly.constant((), -42)
    assert (a * MultiPoly.zero(())).is_zero()
    assert a**3 == MultiPoly.constant((), -216)
    # negative coefficients survive substitution without a modulus
    img = {"x": P("x - y"), "y": P("-2*y")}
    got = f.substitute(img)
    assert got == substitute_reference(f, img)
    assert any(c < 0 for c in got.terms.values())


def test_unpack_decodes_each_key_by_its_two_halves():
    # _unpack splits a key into a low and a high half and decodes each half
    # once; below, many keys share a half, every exponent 0..radix-1 occurs
    # in some digit, and the exponent vector zero is a key
    rng = random.Random(4900)
    for n in range(1, 11):
        names = tuple(f"v{i}" for i in range(n))
        low = n - n // 2
        shared = [tuple(rng.choice((0, 1, 7, 8)) for _ in range(n)) for _ in range(4)]
        expos = {a[:low] + b[low:] for a in shared for b in shared}
        expos |= {tuple(rng.randint(0, 8) for _ in range(n)) for _ in range(6)}
        expos |= {(0,) * n, (8,) * n}
        f = MultiPoly(names, {e: rng.choice((-3, 1, 2, 10**20)) for e in expos})
        radix = polyscheme._radix(8)
        assert radix == 9
        assert polyscheme._unpack(polyscheme._pack(f, radix), n, radix) == f.terms, n


def test_constant_images_fold_at_exponent_zero():
    # x is constant; it has exponent 0 at y^2 and at 4, where c^0 = 1
    f = P("5*y^2 + x^2*y - 7*x + 4")
    uv = ("u", "v")
    y = parse_poly("u - 2*v", uv)
    for c in (0, -3):
        mapping = {"x": MultiPoly.constant(uv, c), "y": y}
        want = mul_reference(y, y) * 5 + y * c**2 + (4 - 7 * c)
        for modulus in (None, 3, 5, 9):
            got = f.substitute(mapping, modulus)
            assert got == substitute_reference(f, mapping, modulus), (c, modulus)
            assert got == (want.reduce_coeffs(modulus) if modulus else want)
    # every image constant: the result is the value at that point
    mapping = {"x": MultiPoly.constant(uv, -3), "y": MultiPoly.constant(uv, 0)}
    assert f.substitute(mapping) == MultiPoly.constant(uv, 25)
    assert f.substitute(mapping, 5).is_zero()
    assert f.substitute(mapping, 7) == MultiPoly.constant(uv, 4)


def test_ball_shaped_substitution():
    # the map of a ball's child, x -> p*x + a, reduced mod p^e, or not at
    # all for an exact condition (e None) and for e = 0
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(20):
            h = _random_poly(rng, V2, 4, 5)
            u0 = (rng.randrange(p), rng.randrange(p))
            mapping = {v: MultiPoly.variable(V2, v) * p + a for v, a in zip(V2, u0)}
            for e in (None, 0, 1, 2, 3):
                modulus = e and p**e
                got = h.substitute(mapping, modulus)
                assert got == substitute_reference(h, mapping, modulus or None)
                if not e:
                    assert got == h.substitute(mapping, None)


def test_shift_matches_substitute_battery():
    # tree._shift forms a ball's child h(u0 + p v) by binomial passes on
    # h's terms; MultiPoly.substitute, with the map x -> p*x + a, is its
    # reference.  Cases: 1-3 variables, degree <= 4, mixed signs,
    # constants, u0 anywhere in [0, p)^N (zeros included), and
    # polynomials whose shifted terms cancel: h - h(u0), which loses its
    # constant, and (x - a) h, whose spread terms cancel across exponents
    rng = random.Random(34)
    names = ("x", "y", "z")
    for p in (2, 3, 5, 7):
        for _ in range(60):
            variables = names[: rng.randint(1, 3)]
            nv = len(variables)
            h = _random_poly(rng, variables, 4, 6)
            u0 = tuple(rng.choice((0, rng.randrange(p))) for _ in range(nv))
            kind = rng.randrange(4)
            if kind == 1:
                h = h - sum(c * math.prod(map(pow, u0, x)) for x, c in h.terms.items())
            elif kind == 2:
                j = rng.randrange(nv)
                h = (MultiPoly.variable(variables, variables[j]) - u0[j]) * h
            elif kind == 3:
                h = MultiPoly.constant(variables, rng.randint(-9, 9))
            mapping = {v: MultiPoly.variable(variables, v) * p + a for v, a in zip(variables, u0)}
            for modulus in (None, p, p**2, p**3):
                got = tree._shift(h, u0, p, modulus)
                assert got == h.substitute(mapping, modulus), (p, h, u0, modulus)
                assert got.variables == variables
    # the zero polynomial stays zero; u0 = 0 only scales each term by p^k
    for modulus in (None, 9):
        assert tree._shift(MultiPoly.zero(V2), (1, 2), 3, modulus).is_zero()
    assert tree._shift(P("x^2*y - 2*y + 1"), (0, 0), 3, None) == P("27*x^2*y - 6*y + 1")


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
    assert count_points(conic(), make_ring(5)) == 4


def test_count_affine_space():
    A2 = AffineScheme.affine_space("A2", V2)
    assert count_points(A2, make_ring(3, n=1)) == 81


def test_count_xy3_mod9():
    assert brute_count(hyperbola3(), 9) == 12
    assert count_points(hyperbola3(), make_ring(3, n=1)) == 12


def test_enumeration_order_deterministic():
    pts = list(enumerate_points(conic(), make_ring(5)))
    assert pts == sorted(pts)
    assert len(pts) == 4


def test_bound_exceeded():
    A2 = AffineScheme.affine_space("A2", V2)
    with pytest.raises(BoundExceeded, match="81 tuples exceeds bound 10$"):
        list(enumerate_points(A2, make_ring(3, n=1), bound=10))


def test_lifted_counts_match_brute():
    for X in (conic(), cusp(), hyperbola3()):
        for p in (2, 3, 5):
            for n in (0, 1, 2):
                m = p ** (n + 1)
                if m**2 > 100_000:
                    continue
                assert count_points(X, make_ring(p, n=n)) == brute_count(X, m)


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
                brute = list(enumerate_points(X, make_ring(p, n=n)))
                assert enumerate_points_lifted(X, p, n) == brute, (X.name, p, n)
                count = count_points(X, make_ring(p, n=n))
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
    for run in (lambda: count_points(conic(), make_ring(5, n=3), bound=100),
                lambda: enumerate_points_lifted(conic(), 5, 3, bound=100)):
        with pytest.raises(BoundExceeded, match="bound 100$"):
            run()
    assert count_points(conic(), make_ring(5, n=3), bound=500) == 500
    with pytest.raises(BoundExceeded, match="^count 500 at level 3 exceeds bound 499$"):
        count_points(conic(), make_ring(5, n=3), bound=499)
    with pytest.raises(BoundExceeded, match="^residue search of 25 tuples exceeds bound 24$"):
        count_points(conic(), make_ring(5), bound=24)


def test_count_tree_deep_cusp_counts():
    # 3,828,125 is the number of points enumerate_points_lifted lists at
    # level 7 (in seconds, so it is pinned here); level 8 would hold
    # 19,140,625 points, over the default bound of 4,000,000
    assert count_points(cusp(), make_ring(5, n=7)) == 3_828_125
    with pytest.raises(BoundExceeded, match="^count 19140625 at level 8 exceeds bound 4000000$"):
        count_points(cusp(), make_ring(5, n=8))
    assert count_points(cusp(), make_ring(5, n=8), bound=20_000_000) == 19_140_625


@st.composite
def small_systems(draw):
    """1-3 variables, 1-2 generators of up to four terms u p^k x^e of
    degree <= 3 (u a unit in -3..3, k <= 2) over p in {2, 3, 5}, level n <= 2,
    with at most 4,096 tuples over Z/p^(n+1) for the brute oracle.  The
    p^k make contents and singular balls common; each term is drawn as
    one integer, which keeps generation cheap."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(0, 2))
    m = p ** (n + 1)
    nv = draw(st.integers(1, max(k for k in (1, 2, 3) if m**k <= 4096)))
    variables = ("x", "y", "z")[:nv]
    polys = _draw_generators(draw, p, variables, 1, 2)
    return AffineScheme("battery", variables, polys, max(nv - len(polys), 0)), p, n


def _draw_generators(draw, p, variables, fewest, most):
    """fewest..most generators of up to four terms u p^k x^e of degree
    <= 3 (u a unit in -3..3, k <= 2), each term drawn as one integer."""
    monomials = [e for e in itertools.product(range(4), repeat=len(variables)) if sum(e) <= 3]
    units = (-3, -2, -1, 1, 2, 3)
    code = st.integers(0, 3 * len(units) * len(monomials) - 1)
    gens = draw(st.lists(st.lists(code, min_size=1, max_size=4),
                         min_size=fewest, max_size=most))
    polys = []
    for codes in gens:
        terms = {}
        for c in codes:
            c, e = divmod(c, len(monomials))
            k, u = divmod(c, len(units))
            terms[monomials[e]] = units[u] * p**k
        polys.append(MultiPoly(variables, terms))
    return tuple(polys)


@settings(max_examples=150)
@given(small_systems())
def test_count_tree_matches_listing_brute_and_greenberg(case):
    X, p, n = case
    count = count_points(X, make_ring(p, n=n))
    assert type(count) is int
    assert count == len(enumerate_points_lifted(X, p, n))
    assert count == sum(1 for _ in enumerate_points(X, make_ring(p, n=n)))
    if p ** (n + 1) <= 9:
        assert count == greenberg_transform(X, p, n).count_points()


# rings of every kind, each at level 0: ramified (e = 2, 3, 4, p = 2
# included), Galois (r = 2, 3), mixed (e = r = 2), prime, and finite fields
# (FIELDS: Galois rings drawn at level 0 only)
BATTERY_RINGS = {
    "ram3": make_ring(3, 2, (-3, 0)),
    "ram2": make_ring(2, 2, (2, 2)),
    "ram2e3": make_ring(2, 3, (2, 0, 2)),
    "ram3e3": make_ring(3, 3, (3, 0, 0)),
    "ram2e4": make_ring(2, 4, (2, 0, 0, 2)),
    "gr9": make_ring(3, r=2),
    "gr8": make_ring(2, r=3),
    "ram2gr4": make_ring(2, 2, (2, 2), r=2),
    "z5": make_ring(5),
    "z2": make_ring(2),
    "f4": make_ring(2, r=2),
    "f9": make_ring(3, r=2),
}
FIELDS = ("f4", "f9")


def brute_refuses(X, ring, bound):
    try:
        next(enumerate_points(X, ring, bound), None)
    except BoundExceeded:
        return True
    return False


@st.composite
def ring_systems(draw, ring, field=False):
    """1-2 variables and 0-2 generators of degree <= 3 with coefficients
    in -12..12, a level n with q^(N(n+1)) <= 20,000 tuples over the ring
    (0 when `field`) and a bound."""
    nv = draw(st.integers(1, 2))
    top = max(k for k in range(8) if ring.size ** (nv * (k + 1)) <= 20_000)
    n = 0 if field else draw(st.integers(0, top))
    variables = V2[:nv]
    monomials = [e for e in itertools.product(range(4), repeat=nv) if sum(e) <= 3]
    term = st.tuples(st.sampled_from(monomials), st.integers(-12, 12))
    gens = [draw(st.lists(term, min_size=1, max_size=4)) for _ in range(draw(st.integers(0, 2)))]
    X = AffineScheme("battery", variables, tuple(MultiPoly(variables, dict(t)) for t in gens),
                     max(nv - len(gens), 0))
    return X, n, 2 ** draw(st.integers(0, 15))


@pytest.mark.parametrize("name", BATTERY_RINGS)
@settings(max_examples=20)
@given(data=st.data())
def test_level_counts_match_brute_on_every_ring(name, data):
    # the tree on the Weil restriction against brute enumeration over the
    # ring's own elements, which shares no counting code with it
    ring = BATTERY_RINGS[name]
    X, n, bound = data.draw(ring_systems(ring, name in FIELDS))
    counts = level_counts(X, ring, n)
    rings = [ring.at_level(k) for k in range(n + 1)]
    assert counts == [sum(1 for _ in enumerate_points(X, r)) for r in rings]
    assert all(type(c) is int for c in counts)
    assert count_points(X, rings[-1]) == counts[-1]
    # the refusal rule: the residue search q^(N min(e, n+1)) or a count
    # over the bound, never where brute enumeration answers
    search = ring.size ** (X.n_vars * min(ring.e, n + 1))
    refuses = bool(X.generators) and max(search, *counts) > bound
    try:
        assert level_counts(X, ring, n, bound) == counts
        assert not refuses
    except BoundExceeded:
        assert refuses and brute_refuses(X, rings[-1], bound)


def test_element_ring_counts_pinned():
    # brute enumeration takes seconds on these (1,377 of 531,441 tuples;
    # 2,673 and 972 of 531,441); they were counted that way once
    gr9, ram3 = make_ring(3, r=2), make_ring(3, 2, (-3, 0))
    assert count_points(cusp(), gr9.at_level(2)) == 1377
    assert count_points(cusp(), ram3.at_level(5)) == 2673
    assert count_points(conic(), ram3.at_level(5)) == 972
    pt = AffineScheme("pt", (), (), 0)
    for ring in (gr9, ram3.at_level(3)):  # gr9 is F_9
        assert count_points(pt, ring) == 1
        assert count_points(singular_locus(pt), ring) == 0


class _DeltaLoopAnalyzer(LiftAnalyzer):
    """Reference certificates: the frontier is grown by trying all p^N
    digit vectors delta for every point, in itertools.product order."""

    def status(self, point, n, slack=DEFAULT_SLACK):
        frontier_bound = polyscheme.CERT_FRONTIER_BOUND
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


def test_certificates_match_delta_loop_reference(monkeypatch):
    # a capped frontier keeps its first CERT_FRONTIER_BOUND lifts, so equal
    # outcomes need the engine to visit lifts in the reference's order.
    # The tree reads no cap, so one tree per (X, p) serves every bound; its
    # verdicts never contradict the certificates, and leave no point of
    # this battery open; the Hensel pins below hold points the tree leaves
    # open.
    xy5 = AffineScheme.from_text("xy5", V2, ["x*y - 5"], 1)
    bounds = (1, 3, 50_000)
    contradiction = {True: LiftStatus.CERTIFIED_NOT, False: LiftStatus.CERTIFIED_LIFTABLE}
    outcomes, verdicts = set(), set()
    for X in (cusp(), node(), xy5):
        for p in (3, 5):
            engine = LiftAnalyzer(X.generators, X.n_vars, p)
            reference = _DeltaLoopAnalyzer(X.generators, X.n_vars, p)
            tree = BallTree(X.generators, X.n_vars, p)
            for n in (0, 1, 2):
                for pt in enumerate_points(X, make_ring(p, n=n)):
                    for slack in (1, 2, 3):
                        for fb in bounds:
                            monkeypatch.setattr(polyscheme, "CERT_FRONTIER_BOUND", fb)
                            got = engine.status(pt, n, slack)
                            want = reference.status(pt, n, slack)
                            assert got is want, (X.name, p, pt, n, slack, fb)
                            outcomes.add(got)
                            verdict = tree.verdict(pt, n, slack)
                            assert contradiction.get(verdict) is not got, (
                                X.name, p, pt, n, slack, fb)
                            verdicts.add(verdict)
    assert outcomes == set(LiftStatus)
    assert verdicts == {True, False}


@st.composite
def image_systems(draw):
    """A plane curve, or two generators in 2 variables (3 when p < 5), as
    in small_systems, over p in {2, 3, 5} at a level n <= 4 with slack 0..3
    and an optional bound.  The reference's searches set the cost:
    unmemoised, they grow by up to p^(N-1) states a level."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(0, 4))
    slack = draw(st.integers(0, 3))
    bound = draw(st.sampled_from((None, 4, 9, 16, 25, 64, 256)))
    n_gens = draw(st.integers(1, 2))
    nv = 2 if n_gens == 1 or p == 5 else draw(st.integers(2, 3))
    variables = ("x", "y", "z")[:nv]
    X = AffineScheme("battery", variables, _draw_generators(draw, p, variables, n_gens, n_gens),
                     nv - n_gens)
    return X, p, n, slack, bound


def _rows_or_refusal(walk, *args):
    try:
        return walk(*args)
    except BoundExceeded as exc:
        return str(exc)


@settings(max_examples=150)
@given(image_systems())
def test_image_walk_matches_frontier_search_reference(case):
    # a ball's verdict read off its own slack-0 walk is the verdict of a
    # breadth-first search over the states below it: same rows, same
    # refusals, and the same verdict at every level-n point.  The level is
    # lowered to the deepest with at most 600 points, which the listing
    # and the per-point references set the cost by.
    X, p, n, slack, bound = case
    tree = BallTree(X.generators, X.n_vars, p)
    n = max(k for k, count in enumerate(tree.level_counts(n, 10**18)) if count <= 600)
    reference = BallTree(X.generators, X.n_vars, p)
    got = _rows_or_refusal(tree.image_levels, n, slack, bound)
    assert got == _rows_or_refusal(image_levels_reference, reference, n, slack, bound)
    for pt in enumerate_points_lifted(X, p, n):
        assert tree.verdict(pt, n, slack) == verdict_reference(reference, pt, n, slack), pt


def test_tree_reads_no_frontier_cap(monkeypatch):
    # with the oracle's cap at one state per level, every count, image row
    # and verdict of the tree is unchanged, on inputs where a frontier
    # search under that cap leaves points open that it decides uncapped
    def results(X, p, points):
        tree = BallTree(X.generators, X.n_vars, p)
        return (tree.level_counts(3),
                [tree.image_levels(3, slack) for slack in range(4)],
                [tree.verdict(pt, 2, slack) for pt in points for slack in range(4)])

    gave_up = 0
    y2x5 = AffineScheme.from_text("y2x5", V2, ["y^2 - x^5"], 1)
    for X in (cusp(), node(), hyperbola3(), y2x5):
        for p in (2, 3, 5):
            points = enumerate_points_lifted(X, p, 2)
            uncapped = results(X, p, points)
            monkeypatch.setattr(polyscheme, "CERT_FRONTIER_BOUND", 1)
            assert results(X, p, points) == uncapped, (X.name, p)
            monkeypatch.undo()
            reference = BallTree(X.generators, X.n_vars, p)
            gave_up += sum(
                verdict_reference(reference, pt, 2, 3, frontier_bound=1)
                != verdict_reference(reference, pt, 2, 3) for pt in points)
    assert gave_up > 0


@st.composite
def repeated_generator(draw):
    """One generator as in image_systems, in 1-2 variables (3 when p < 5),
    over p in {2, 3, 5} at a level n <= 3 with slack 0..3."""
    p = draw(st.sampled_from((2, 3, 5)))
    nv = draw(st.integers(1, 2 if p == 5 else 3))
    variables = ("x", "y", "z")[:nv]
    (f,) = _draw_generators(draw, p, variables, 1, 1)
    return AffineScheme("battery", variables, (f,), nv - 1), p, draw(st.integers(0, 3)), \
        draw(st.integers(0, 3))


@settings(max_examples=60)
@given(repeated_generator())
def test_repeated_generator_walks_as_one(case):
    # (f, f) cuts out what f does: the repeat is dropped from every state,
    # so its residue zeros are smooth where f's are and the walks close the
    # same balls
    X, p, n, slack = case
    (f,) = X.generators
    once, twice = BallTree((f,), X.n_vars, p), BallTree((f, f), X.n_vars, p)
    for e in (None, *range(1, n + 2)):
        assert twice._state([(f, e), (f, e)]) == once._state([(f, e)])
    assert twice.level_counts(n) == once.level_counts(n)
    assert twice.image_levels(n, slack) == once.image_levels(n, slack)
    for pt in enumerate_points_lifted(X, p, n):
        assert twice.verdict(pt, n, slack) == once.verdict(pt, n, slack), pt


def test_repeated_generator_in_its_slot_is_dropped_once():
    # the Weil restriction of (f, f) over a ramified ring repeats each
    # slot's component in the same slot; the same polynomial in two slots
    # is two conditions where the slots' exponents differ, and stays
    ram3 = make_ring(3, 2, (-3, 0))
    f = P("x^2 + y^2 - 1")
    top = ram3.at_level(2)
    gens = weil_restriction([f], top, 2)
    slots = [0, 1]
    once = BallTree(gens, 4, 3, slots, 2)
    twice = BallTree(gens + gens, 4, 3, slots + slots, 2)
    for k in range(3):
        q, s = divmod(k + 1, 2)
        exponents = [q + (i < s) for i in slots]
        assert twice._state(zip(twice.gens, exponents * 2)) == once._state(zip(gens, exponents))
    assert twice.level_counts(2) == once.level_counts(2) == level_counts(
        AffineScheme("conic", V2, (f,), 1), ram3, 2)
    assert level_counts(AffineScheme("conic2", V2, (f, f), 1), ram3, 2) == once.level_counts(2)
    both = BallTree((f, f), 2, 3, (0, 1), 2)
    assert len(both._state(zip(both.gens, [2, 1]))) == 2


def test_repeat_that_appears_below_the_root_is_dropped_there():
    # f and g = f - 9y^2 are two conditions mod 27 at the root, so no
    # residue zero is smooth there; on the ball (3u, 3v) both are
    # 3u^2 - v mod 9, one condition whose zeros are smooth (scaled by -1/8
    # mod 9 to 6u^2 + v), while on (1 + 3u, 1 + 3v) they still differ by 6
    f = P("y - x^2")
    g = f - 9 * P("y^2")
    tree = BallTree((f, g), 2, 3)
    root = tree._state([(f, 3), (g, 3)])
    assert len(root) == 2 and not any(tree._residue_zeros(root).values())
    assert tree._child(root, (0, 0)) == ((P("6*x^2 + y"), 2),)
    assert all(tree._residue_zeros(tree._child(root, (0, 0))).values())
    assert len(tree._child(root, (1, 1))) == 2
    X = AffineScheme("fg", V2, (f, g), 0)
    assert tree.level_counts(3) == [
        sum(1 for _ in enumerate_points(X, make_ring(3, n=k))) for k in range(4)]


def test_unit_multiples_mod_their_precision_merge():
    # y - x^2 and g = y - x^2 + 9x^3 are two conditions mod 27 at the
    # root, and unit multiples of each other mod 9 on the ball (3u, 3v).
    # A normal form by sign alone misses that: it keeps g's root as
    # 9x^3 + 26x^2 + y, whose child 6u^2 + v is -(3u^2 + 8v) mod 9.
    # Scaled to coefficient 1 on the largest exponent vector prime to 3,
    # the two merge into one condition whose zeros are smooth
    f = P("y - x^2")
    g = f + 9 * P("x^3")
    tree = BallTree((f, g), 2, 3)
    root = tree._state([(f, 3), (g, 3)])
    assert len(root) == 2 and not any(tree._residue_zeros(root).values())
    child = tree._child(root, (0, 0))
    assert len(child) == 1 and all(tree._residue_zeros(child).values())
    X = AffineScheme("fg", V2, (f, g), 0)
    assert tree.level_counts(3) == [
        sum(1 for _ in enumerate_points(X, make_ring(3, n=k))) for k in range(4)]


def test_counted_unit_multiples_share_one_state():
    # a counted condition is divided by its p-content and scaled so that
    # its largest exponent vector prime to p has coefficient 1: u p^c f
    # counted to p^e is f counted to p^(e - c), and (f, u f) is (f)
    f = P("y - x^2 + 3*x*y")
    for p in (3, 5):
        tree = BallTree((f,), 2, p)
        for u in (k for k in range(2, p**3) if k % p):
            for c in (0, 1):
                assert tree._state([(u * p**c * f, 3)]) == tree._state([(f, 3 - c)]), (p, u, c)
            assert tree._state([(f, 3), (u * f, 3)]) == tree._state([(f, 3)]), (p, u)


def test_every_memoised_state_is_a_fixed_point_of_state():
    # _state is a normal form: the root, each level's root, every child
    # and every state an image walk keeps are already in it, so states
    # that are equal as systems meet in one memo row
    rng = random.Random(3471)
    monomials = [e for e in itertools.product(range(4), repeat=2) if sum(e) <= 3]
    states = 0
    for case in range(300):
        p = (2, 3, 5)[case % 3]
        terms = {rng.choice(monomials): rng.choice((-1, 1)) * rng.randint(1, 2 * p)
                 for _ in range(rng.randint(1, 4))}
        walk = BallTree((MultiPoly(V2, terms),), 2, p)
        walk.level_counts(3)
        walk.image_levels(3, 2)
        kept = {walk._root, *walk._children.values(), *walk._counts,
                *(key[0] for key in walk._images)}
        for state in kept:
            assert walk._state(state) == state, (p, terms, state)
        states += len(kept)
    assert states > 10000


def test_analyzer_compiles_jacobian_only_when_lifting(monkeypatch):
    analyzer = LiftAnalyzer(hyperbola3().generators, 2, 3)
    assert analyzer.status((1, 1), 0) is LiftStatus.CERTIFIED_NOT
    assert analyzer.status((1, 3), 0) is LiftStatus.CERTIFIED_LIFTABLE
    assert analyzer._jac_evals is None
    assert analyzer.status((0, 0), 0) is LiftStatus.CERTIFIED_NOT
    assert analyzer._jac_evals is not None
    # lifted enumeration and counting never build a minor
    dets = []
    real_det = polyscheme._det
    monkeypatch.setattr(polyscheme, "_det", lambda m: dets.append(m) or real_det(m))
    for X in (hyperbola3(), cusp(), node()):
        enumerate_points_lifted(X, 3, 2)
        count_points(X, make_ring(3, n=2))
    assert dets == []
    assert LiftAnalyzer(cusp().generators, 2, 3).status((1, 1), 0) is (
        LiftStatus.CERTIFIED_LIFTABLE
    )
    assert dets


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
    assert list(enumerate_points(sing, make_ring(5))) == [(0, 0)]


def test_singular_locus_smooth_conic_empty():
    sing = singular_locus(conic())
    assert count_points(sing, make_ring(5)) == 0


def test_singular_locus_affine_line_empty_by_convention():
    A1 = AffineScheme.affine_space("A1", ("x",))
    sing = singular_locus(A1)
    assert count_points(sing, make_ring(7)) == 0


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


def test_hensel_cusp_unknown_at_small_slack():
    # the origin is an exact zero, certified at once; over Z/5^6 the
    # points (5^5 a, 0), a != 0, stay open at slack 2 and slack 3 refutes
    # them
    assert hensel_liftable(cusp(), (0, 0), 3, 0, slack=2) is LiftStatus.CERTIFIED_LIFTABLE
    for a in range(1, 5):
        assert hensel_liftable(cusp(), (5**5 * a, 0), 5, 5, slack=2) is LiftStatus.UNKNOWN
        assert hensel_liftable(cusp(), (5**5 * a, 0), 5, 5, slack=3) is LiftStatus.CERTIFIED_NOT


def test_hensel_agrees_with_deep_enumeration():
    # certificate soundness against a brute lift search four levels up
    X = cusp()
    p, n, deep = 3, 0, 4
    deep_points = enumerate_points(X, make_ring(p, n=deep))
    liftable_at_deep = {tau_point(pt, p, n) for pt in deep_points}
    for pt in enumerate_points(X, make_ring(p, n=n)):
        status = hensel_liftable(X, pt, p, n, slack=2)
        if status is LiftStatus.CERTIFIED_LIFTABLE:
            assert pt in liftable_at_deep
        if status is LiftStatus.CERTIFIED_NOT:
            assert pt not in liftable_at_deep


def test_hensel_non_unit_minor_window():
    # y^2 = x^3 at (1, 1) is a smooth point: unit minor, certified at once
    assert hensel_liftable(cusp(), (1, 1), 5, 0) is LiftStatus.CERTIFIED_LIFTABLE


def test_hensel_minor_route_ignores_declared_dimension():
    # x = y = 0 in (x, y, z) is a line, declared here with dim 2: two
    # generators against codim 1.  Newton's lemma on the unit 2 x 2 minor
    # still certifies each point, whatever dimension is declared.
    X = AffineScheme.from_text("line", ("x", "y", "z"), ["x", "y"], 2)
    assert hensel_liftable(X, (0, 0, 1), 3, 1) is LiftStatus.CERTIFIED_LIFTABLE


def test_the_references_never_import_the_tree():
    # brute enumeration, lifting and LiftAnalyzer's certificates are what
    # the tree is checked against, so they must not run on it: polyscheme
    # imports nothing from tree, and tree binds none of them; nor does it
    # bind the two names that tests patch on polyscheme to watch the tree
    source = ast.parse(pathlib.Path(polyscheme.__file__).read_text())
    for node in ast.walk(source):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        assert "tree" not in parts, ast.unparse(node)
    assert not {"enumerate_points", "enumerate_points_lifted", "LiftAnalyzer"} & vars(tree).keys()
    assert not {"CERT_FRONTIER_BOUND", "_det"} & vars(tree).keys()
    for name in ("BallTree", "count_points", "level_counts", "weil_restriction", "hensel_liftable"):
        assert getattr(tree, name).__module__ == "padicstacks.tree" and not hasattr(polyscheme, name)


# ---------------------------------------------------------------------------
# the residue search, which reads only the coordinates that occur mod p,
# against the search over every tuple of F_p^N

NAMES4 = ("a", "b", "c", "d")


def _free_sets(nv):
    """No free coordinate; 1-3 free ones first, in the middle and last;
    and the first with the last."""
    sets = {(), (0, nv - 1)}
    for k in range(1, min(3, nv) + 1):
        for start in (0, (nv - k) // 2, nv - k):
            sets.add(tuple(range(start, start + k)))
    return sorted(sets)


def _residue_system(rng, p, nv, g, free):
    """g conditions of degree <= 2 (some squared, so singular on their
    zeros) in which each coordinate of `free` occurs only with a
    coefficient divisible by p; mostly with a common zero."""
    variables = NAMES4[:nv]
    monomials = [e for e in itertools.product(range(3), repeat=nv)
                 if sum(e) <= 2 and not any(e[j] for j in free)]
    point = [rng.randrange(p) for _ in range(nv)]
    polys = []
    for _ in range(g):
        terms = {rng.choice(monomials): rng.randrange(-p, 2 * p) for _ in range(rng.randint(1, 4))}
        for j in free:
            terms[tuple(int(k == j) for k in range(nv))] = p * rng.randint(1, 3)
        h = MultiPoly(variables, terms)
        h = h * h if rng.random() < 0.25 else h
        polys.append(h - h.eval_int(point, p) if rng.random() < 0.75 else h)
    return polys


def test_residue_search_matches_every_tuple():
    rng = random.Random(33)
    for p in (2, 3, 5, 7):
        for nv in range(1, 5):
            for g in range(4):
                for free in _free_sets(nv):
                    polys = _residue_system(rng, p, nv, g, free)
                    tree = BallTree(polys, nv, p)
                    zeros = tree._residue_zeros(tuple((h, None) for h in polys))
                    want = residue_zeros_reference(polys, nv, p)
                    assert list(zeros.items()) == list(want.items()), (p, free, polys)
    # no condition: every tuple, smooth; a unit constant: no zero
    for p, nv in ((2, 1), (3, 3), (5, 2)):
        tree = BallTree((), nv, p)
        every = list(itertools.product(range(p), repeat=nv))
        assert list(tree._residue_zeros(()).items()) == [(u, True) for u in every]
        unit = MultiPoly(NAMES4[:nv], {(0,) * nv: p + 1, (1,) + (0,) * (nv - 1): p})
        assert tree._residue_zeros(((unit, 1),)) == {} == residue_zeros_reference([unit], nv, p)


def test_residue_search_on_weil_restrictions_matches_every_tuple(monkeypatch):
    # at level 0 of a ring with e > 1 only the omega^0-slot coordinates
    # occur mod p, and states below the root free others
    real = BallTree._residue_zeros
    free = []

    def checked(self, state):
        zeros = real(self, state)
        polys = [h.reduce_coeffs(self.p) for h, _ in state]
        want = residue_zeros_reference(polys, self.n_vars, self.p)
        assert list(zeros.items()) == list(want.items()), state
        free.append(any(all(not x[j] for h in polys for x in h.terms)
                        for j in range(self.n_vars)))
        return zeros

    monkeypatch.setattr(BallTree, "_residue_zeros", checked)
    rings = (make_ring(3, 2, (-3, 0)), make_ring(5, 2, (-10, 5)),
             make_ring(3, e=3, eisenstein=(3, 6, -3)))
    for ring in rings:
        for X in (conic(), cusp()):
            for n in range(3):
                level_counts(X, ring, n)
    assert any(free) and not all(free)


def _fibre_systems(rng, p):
    """Systems of 1-3 nonconstant rows in x, y of degree <= 2, most
    through a common point mod p^2; and from each, the system with a row of
    p-content, a unit repeat (f, u f) and a zero row."""
    for _ in range(6):
        point = (rng.randrange(p), rng.randrange(p))
        rows, size = [], rng.randint(1, 3)
        while len(rows) < size:
            h = _random_poly(rng, V2, 2, 4)
            if h.is_constant():
                continue
            rows.append(h - h.eval_int(point, p**2) if rng.random() < 0.8 else h)
        u = rng.choice([k for k in range(2, p**2) if k % p])
        yield rows
        yield [p * rows[0]] + rows[1:]
        yield [rows[0], rows[0] * u]
        yield rows + [MultiPoly(V2)]


def _primitive(h):
    return MultiPoly(h.variables, {x: c // math.gcd(*h.terms.values()) for x, c in h.terms.items()})


def test_fibre_matches_raw_rank_and_brute_lifts():
    # BallTree.fibre closes a level-n point's ball at the root: where the
    # raw system has full rank mod p it must, with fibre p^(N - g); and
    # wherever it does, the rows' primitive parts have exactly F and F^2
    # zeros above the point one and two levels down, and the image walk
    # certifies as many
    rng = random.Random(35)
    beyond = 0
    for p in (2, 3, 5):
        for rows in _fibre_systems(rng, p):
            tree = BallTree(rows, 2, p)
            prims = [_primitive(h) for h in rows if h.terms]
            for n in (0, 1):
                m = p ** (n + 1)
                for pt in itertools.product(range(m), repeat=2):
                    fibre = tree.fibre(pt, n)
                    zero = not any(h.eval_int(pt, m) for h in rows)
                    if zero and full_rank_reference(rows, pt, p):
                        assert fibre == p ** (2 - len(rows)), (p, rows, pt, n)
                    elif fibre:
                        beyond += 1
                    if fibre is None:
                        continue
                    assert zero, (p, rows, pt, n)
                    above = [sum(1 for v in itertools.product(range(p**k), repeat=2)
                                 if not any(h.eval_int([a + m * b for a, b in zip(pt, v)],
                                                       m * p**k) for h in prims))
                             for k in (1, 2)]
                    assert above == [fibre, fibre**2], (p, rows, pt, n)
                    assert tree.image_above(pt, n, 2, 0) == [(1, 0), (fibre, 0), (fibre**2, 0)]
    assert beyond > 0


def test_level_counts_on_a_cubic_ramified_ring_match_brute():
    ring = make_ring(3, e=3, eisenstein=(3, 6, -3))
    for X in (conic(), cusp()):
        assert level_counts(X, ring, 2) == [
            sum(1 for _ in enumerate_points(X, ring.at_level(k))) for k in range(3)]
