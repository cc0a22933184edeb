import itertools
import random

import pytest

from padicstacks.polyscheme import MultiPoly, parse_poly
from padicstacks.rings import BoundExceeded
from padicstacks.witt import (
    WittVector,
    frobenius_modp,
    ghost_components,
    int_from_witt,
    structure_polynomials,
    teichmuller,
    verschiebung,
    witt_add_int,
    witt_add_modp,
    witt_add_sym,
    witt_from_int,
    witt_mul_int,
    witt_mul_modp,
    witt_mul_sym,
    witt_neg_int,
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


def test_structure_poly_length_bound():
    with pytest.raises(BoundExceeded, match="bound 5$"):
        structure_polynomials(2, 7)


def test_structure_polys_reject_non_prime():
    for p in (1, 4):
        with pytest.raises(ValueError, match="not prime"):
            structure_polynomials(p, 2)


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


# ---------------------------------------------------------------------------
# Teichmuller digits and the isomorphism with Z/p^L


def test_witt_from_int_basics():
    assert witt_from_int(0, 3, 4) == (0, 0, 0, 0)
    assert witt_from_int(1, 5, 3) == (1, 0, 0)


def test_witt_from_int_teichmuller_example():
    # tau(2) = 8 in Z/9, so 5 = 8 + 3*tau'... digits (2, 2)
    assert teichmuller(2, 3, 2) == 8
    assert witt_from_int(5, 3, 2) == (2, 2)


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
