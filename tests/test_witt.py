import itertools
import random

import pytest

from padicstacks import witt
from padicstacks.polyscheme import MultiPoly, parse_poly
from padicstacks.rings import BoundExceeded
from padicstacks.witt import (
    StructurePolys,
    WittVector,
    _fold,
    _FoldedRing,
    frobenius_modp,
    ghost_components,
    int_from_witt,
    structure_polynomials,
    teichmuller,
    verschiebung,
    witt_add_int,
    witt_add_sym,
    witt_from_int,
    witt_mul_int,
    witt_mul_sym,
    witt_neg_int,
)
from poly_oracles import (
    mul_reference,
    structure_reference,
    teichmuller_reference,
    witt_add_modp,
    witt_mul_modp,
    witt_neg_modp,
    witt_scalar_modp,
)


def all_vectors(p, L):
    return itertools.product(range(p), repeat=L)


# ---------------------------------------------------------------------------
# ghost components


def test_ghost_examples():
    assert ghost_components((1, 0), 2) == (1, 1)
    assert ghost_components((1, 1), 3) == (1, 4)


def test_ghost_is_ring_homomorphism_randomized():
    rng = random.Random(20240527)
    for _ in range(1200):
        p = rng.choice((2, 3, 5))
        L = rng.randint(1, 4)
        a = tuple(rng.randint(-9, 9) for _ in range(L))
        b = tuple(rng.randint(-9, 9) for _ in range(L))
        ga, gb = ghost_components(a, p), ghost_components(b, p)
        gsum = ghost_components(witt_add_int(a, b, p), p)
        gprod = ghost_components(witt_mul_int(a, b, p), p)
        assert gsum == tuple(x + y for x, y in zip(ga, gb))
        assert gprod == tuple(x * y for x, y in zip(ga, gb))
        gneg = ghost_components(witt_neg_int(a, p), p)
        assert gneg == tuple(-x for x in ga)


# ---------------------------------------------------------------------------
# structure polynomials


def test_structure_polys_length_one():
    for p in (2, 3, 5):
        sp = structure_polynomials(p, 1)
        v = sp.variables
        assert sp.add_int[0] == parse_poly("x_0 + y_0", v)
        assert sp.mul_int[0] == parse_poly("x_0*y_0", v)


def test_structure_polys_p2_addition():
    sp = structure_polynomials(2, 2)
    v = sp.variables
    assert sp.add_modp[0] == parse_poly("x_0 + y_0", v)
    assert sp.add_modp[1] == parse_poly("x_1 + y_1 + x_0*y_0", v)


def test_structure_polys_multiplication_second_component():
    # P_1 = x_0^p y_1 + x_1 y_0^p mod p
    for p in (2, 3, 5):
        sp = structure_polynomials(p, 2)
        v = sp.variables
        assert sp.mul_modp[1] == parse_poly(f"x_0^{p}*y_1 + x_1*y_0^{p}", v)


def test_structure_polys_triangular():
    sp = structure_polynomials(3, 3)
    for i, poly in enumerate(sp.add_modp + sp.mul_modp):
        idx = i % 3
        for expo in poly.terms:
            for k, e in enumerate(expo):
                if e:
                    name = sp.variables[k]
                    assert int(name.split("_")[1]) <= idx


def test_structure_polys_agree_with_numeric_law():
    for p, L in ((2, 3), (3, 3), (5, 2)):
        sp = structure_polynomials(p, L)
        rng = random.Random(p * 100 + L)
        for _ in range(30):
            a = tuple(rng.randint(-6, 6) for _ in range(L))
            b = tuple(rng.randint(-6, 6) for _ in range(L))
            env = a + b
            expected = witt_add_int(a, b, p)
            for i in range(L):
                assert sp.add_int[i].eval_int(env, 10**9) % 10**9 == expected[i] % 10**9
            expected = witt_mul_int(a, b, p)
            for i in range(L):
                assert sp.mul_int[i].eval_int(env, 10**9) % 10**9 == expected[i] % 10**9


STRUCTURE_CASES = [(2, L) for L in range(1, 6)] + [(3, L) for L in range(1, 5)] + [
    (p, L) for p in (5, 7) for L in range(1, 4)]


@pytest.mark.parametrize("p, length", STRUCTURE_CASES)
def test_structure_polys_match_reference_solve(p, length):
    # a fresh solve, not the cache, against a reference that shares no
    # code with the packed solver
    sp = StructurePolys(p, length)
    add, mul = structure_reference(p, length)
    assert sp.add_int == add
    assert sp.mul_int == mul
    assert sp.add_modp == tuple(s.reduce_coeffs(p) for s in add)
    assert sp.mul_modp == tuple(s.reduce_coeffs(p) for s in mul)
    assert sp.add_folded == tuple(_fold(s, p) for s in sp.add_modp)
    assert sp.mul_folded == tuple(_fold(s, p) for s in sp.mul_modp)


def test_structure_poly_length_bound():
    with pytest.raises(BoundExceeded, match="bound 5$"):
        structure_polynomials(2, 7)


@pytest.mark.parametrize("length", [0, -2])
def test_structure_poly_length_below_one(length):
    with pytest.raises(ValueError, match=f"at least 1, got {length}$"):
        structure_polynomials(3, length)


def test_structure_polys_reject_non_prime():
    for p in (1, 4):
        with pytest.raises(ValueError, match="not prime"):
            structure_polynomials(p, 2)


@pytest.mark.parametrize("base", ["Fp", "Z"])
def test_witt_vectors_reject_non_prime(base):
    # refused at construction, as structure_polynomials refuses; at p = 4
    # the sum once raised the error class kept for the module's own bugs
    for p in (1, 4, 9):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            WittVector(p, (1, 0), base)
    one = WittVector(5, (1, 0), base)
    assert one + WittVector(5, (0, 0), base) == one


# ---------------------------------------------------------------------------
# Verschiebung / Frobenius


def test_verschiebung_example():
    w = WittVector(3, (1, 2, 0))
    assert w.V() == WittVector(3, (0, 1, 2))
    assert verschiebung((1, 2)) == (0, 1)


def test_frobenius_identity_on_prime_field():
    assert frobenius_modp((2, 1), 3) == (2, 1)
    w = WittVector(3, (2, 1))
    assert w.F() == w


def test_fv_vf_is_multiplication_by_p():
    for p in (2, 3, 5):
        for coords in all_vectors(p, 3):
            w = WittVector(p, coords)
            pw = WittVector(p, witt_scalar_modp(p, coords, p))
            assert w.V().F() == pw
            assert w.F().V() == pw


def test_twist_identity_a_times_Vb():
    # a * V(b) = V(F(a) * b), exhaustive on W_3(F_2) and W_3(F_3)
    for p in (2, 3):
        for a in all_vectors(p, 3):
            for b in all_vectors(p, 3):
                lhs = witt_mul_modp(a, verschiebung(b), p)
                rhs = (0,) + witt_mul_modp(frobenius_modp(a, p), b, p)[:2]
                assert lhs == rhs


def test_v_filtration_multiplicativity():
    # coords of V^n(w) * V^m(w') vanish below index n+m
    p, L = 3, 3
    for n, m in ((1, 1), (1, 2), (2, 1)):
        for a in all_vectors(p, L):
            for b in all_vectors(p, L):
                va = a
                for _ in range(n):
                    va = verschiebung(va)
                vb = b
                for _ in range(m):
                    vb = verschiebung(vb)
                prod = witt_mul_modp(va, vb, p)
                assert all(c == 0 for c in prod[: min(n + m, L)])


def test_truncation_is_ring_homomorphism():
    p, L, M = 3, 3, 2
    for a in all_vectors(p, L):
        for b in all_vectors(p, L):
            wa, wb = WittVector(p, a), WittVector(p, b)
            assert (wa + wb).truncate(M) == wa.truncate(M) + wb.truncate(M)
            assert (wa * wb).truncate(M) == wa.truncate(M) * wb.truncate(M)


def test_vector_arithmetic_over_f_p_matches_the_ghost_laws():
    # WittVector over F_p computes in Z/p^L through the digit coding; the
    # ghost-equation functions are its reference: exhaustive on W_3(F_2)
    # and W_3(F_3) (so the truncation test above holds for them too), then
    # seeded pairs up to p = 7 and length 4
    cases = [(a, b, p) for p in (2, 3) for a in all_vectors(p, 3) for b in all_vectors(p, 3)]
    rng = random.Random(4600)
    for p, L in ((2, 4), (3, 4), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)):
        for _ in range(30):
            cases.append(tuple(tuple(rng.randrange(p) for _ in range(L)) for _ in "ab") + (p,))
    for a, b, p in cases:
        wa, wb = WittVector(p, a), WittVector(p, b)
        assert (wa + wb).coords == witt_add_modp(a, b, p)
        assert (wa * wb).coords == witt_mul_modp(a, b, p)
        assert (-wa).coords == witt_neg_modp(a, p)
        assert (wa - wb).coords == witt_add_modp(a, witt_neg_modp(b, p), p)


def test_vector_arithmetic_at_a_large_prime_solves_no_ghost_equation(monkeypatch):
    # one ghost-equation sum at p = 211, length 4 takes seconds; the
    # vector answers as Z/p^L does, without solving one
    monkeypatch.setattr(witt, "_ghost_solve", None)
    p, L = 211, 4
    m = p**L
    rng = random.Random(4700)
    for _ in range(20):
        a, b = rng.randrange(m), rng.randrange(m)
        wa, wb = WittVector(p, witt_from_int(a, p, L)), WittVector(p, witt_from_int(b, p, L))
        assert (wa + wb).coords == witt_from_int(a + b, p, L)
        assert (wa * wb).coords == witt_from_int(a * b, p, L)
        assert (wa - wb).coords == witt_from_int(a - b, p, L)
        assert int_from_witt((-wa).coords, p) == -a % m


# ---------------------------------------------------------------------------
# Teichmuller digits and the isomorphism with Z/p^L


def test_witt_from_int_basics():
    assert witt_from_int(0, 3, 4) == (0, 0, 0, 0)
    assert witt_from_int(1, 5, 3) == (1, 0, 0)


def test_witt_from_int_teichmuller_example():
    # tau(2) = 8 in Z/9, so 5 = 8 + 3*tau'... digits (2, 2)
    assert teichmuller(2, 3, 2) == 8
    assert witt_from_int(5, 3, 2) == (2, 2)


def test_teichmuller_closed_form_is_the_fixpoint():
    # c^(p^(k-1)) mod p^k against iterating x -> x^p from c, at precision 0
    # (Z/1) and up, on c below 0, divisible by p, and far above p^k
    for p in (2, 3, 5, 7, 211):
        for precision in range(8):
            for c in [*range(-2 * p, 3 * p), 10**40 + 7, -(3**50) - 1]:
                assert teichmuller(c, p, precision) == teichmuller_reference(c, p, precision)


def test_digit_encoding_round_trip():
    for p, L in ((2, 4), (3, 3), (5, 2)):
        for a in range(p**L):
            assert int_from_witt(witt_from_int(a, p, L), p) == a


def test_digit_encoding_is_ring_isomorphism_z27():
    p, L = 3, 3
    for a in range(27):
        for b in range(27):
            da, db = witt_from_int(a, p, L), witt_from_int(b, p, L)
            assert witt_add_modp(da, db, p) == witt_from_int(a + b, p, L)
            assert witt_mul_modp(da, db, p) == witt_from_int(a * b, p, L)


# ---------------------------------------------------------------------------
# symbolic arithmetic used by digit expansions


def test_symbolic_matches_numeric():
    p, L = 3, 2
    names = ("a_0", "a_1", "b_0", "b_1")
    a = tuple(MultiPoly.variable(names, f"a_{i}") for i in range(L))
    b = tuple(MultiPoly.variable(names, f"b_{i}") for i in range(L))
    s_sym = witt_add_sym(a, b, p)
    m_sym = witt_mul_sym(a, b, p)
    for av in all_vectors(p, L):
        for bv in all_vectors(p, L):
            env = av + bv
            assert tuple(s.eval_int(env, p) for s in s_sym) == witt_add_modp(av, bv, p)
            assert tuple(s.eval_int(env, p) for s in m_sym) == witt_mul_modp(av, bv, p)


# ---------------------------------------------------------------------------
# the folded kernel: F_p[d]/(d^p - d) on packed monomials


def _digit_tuples(p, n, rng, count):
    """Exponent tuples with digits in 0..2p-2: each of p-1, p and 2p-2 in
    every position, then random ones."""
    edges = [tuple([e] * n) for e in (0, p - 1, p, 2 * p - 2)]
    edges += [tuple((p - 1, p, 2 * p - 2)[(i + k) % 3] for i in range(n)) for k in range(3)]
    return edges + [tuple(rng.randint(0, 2 * p - 2) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_packed_fold_matches_fold(p):
    # the product of two folded monomials whose exponents sum to digits in
    # 0..2p-2 is folded by one expression; mutants that must fail: the
    # threshold moved to e > p (offset digit 2^(w-1) - p - 1), and w one
    # bit short ((2p - 2).bit_length() - 1)
    rng = random.Random(4200 + p)
    n = 5
    ring = _FoldedRing(p, n)
    names = tuple(f"d_{i}" for i in range(n))

    def key(expo):
        return sum(e << (ring.w * i) for i, e in enumerate(expo))

    for expo in _digit_tuples(p, n, rng, 200):
        low = tuple(min(e, p - 1) for e in expo)
        high = tuple(e - d for e, d in zip(expo, low))
        expected = _fold(MultiPoly(names, {expo: 1}), p)
        assert ring.unpack(ring.mul({key(low): 1}, {key(high): 1})) == expected, expo


def pack(ring, poly):
    """`_fold` of poly as a packed dict of the ring: exponent e of variable
    i is the digit e << w*i."""
    return {sum(e << ring.w * i for i, e in enumerate(expo)): c
            for expo, c in _fold(poly, ring.p).items()}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_packed_product_matches_fold_of_product(p):
    rng = random.Random(4300 + p)
    n = 4
    ring = _FoldedRing(p, n)
    names = tuple(f"d_{i}" for i in range(n))

    def folded_poly():
        return MultiPoly(names, {tuple(rng.randint(0, p - 1) for _ in range(n)):
                                 rng.randint(1, p - 1) for _ in range(rng.randint(1, 4))})

    for _ in range(40):
        a, b = folded_poly(), folded_poly()
        product = ring.unpack(ring.mul(pack(ring, a), pack(ring, b)))
        assert product == _fold(mul_reference(a, b), p)


def _random_folded_vector(rng, names, p, length):
    """Coordinates as functions on F_p: random folded polynomials, with
    zeros and constants among them."""
    coords = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.15:
            coords.append(MultiPoly(names))
        elif kind < 0.3:
            coords.append(MultiPoly.constant(names, rng.randint(1, p - 1)))
        else:
            terms = {tuple(rng.randint(0, p - 1) if rng.random() < 0.5 else 0 for _ in names):
                     rng.randint(1, p - 1) for _ in range(rng.randint(1, 3))}
            coords.append(MultiPoly(names, terms))
    return tuple(coords)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_folded_operations_are_folds_of_exact_ones(p):
    rng = random.Random(4400 + p)
    names = ("a_0", "a_1", "b_0")
    ring = _FoldedRing(p, len(names))
    for length in (1, 2, 3):
        for _ in range(12 if p < 7 else 4):
            a = _random_folded_vector(rng, names, p, length)
            b = _random_folded_vector(rng, names, p, length)
            for op in (witt_add_sym, witt_mul_sym):
                exact = op(a, b, p)
                folded = op(tuple(pack(ring, g) for g in a), tuple(pack(ring, g) for g in b), p,
                            folded=ring)
                assert tuple(map(ring.unpack, folded)) == tuple(_fold(g, p) for g in exact)
