import itertools

import pytest

import padicstacks
from padicstacks.rings import (
    DEFAULT_BOUND,
    INFINITY,
    BoundExceeded,
    FiniteField,
    NotInvertible,
    RingConstructionError,
    find_irreducible,
    is_prime,
    make_ring,
    size_limit,
)


def Z27():
    return make_ring(3, n=2)


def Z9():
    return make_ring(3, n=1)


def eisenstein_ring(n=3):
    # Z_3[w]/(w^2 - 3, w^(n+1))
    return make_ring(3, e=2, eisenstein=(-3, 0), n=n)


# ---------------------------------------------------------------------------
# construction


def test_make_ring_sizes():
    assert Z27().size == 27
    assert eisenstein_ring(3).size == 81
    f4 = make_ring(2, n=0, r=2)
    assert f4.size == 4


def test_make_ring_rejects_bad_input():
    with pytest.raises(RingConstructionError):
        make_ring(4)  # not prime
    with pytest.raises(RingConstructionError):
        make_ring(3, e=2, eisenstein=(-1, 0), n=1)  # p does not divide c_0
    with pytest.raises(RingConstructionError):
        make_ring(3, e=2, eisenstein=(9, 3), n=1)  # p^2 divides c_0
    with pytest.raises(RingConstructionError):
        make_ring(2, r=2, residue_modulus=(0, 0, 1))  # x^2 is reducible


def test_is_prime():
    assert [k for k in range(2, 20) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_find_irreducible_degree2_mod2():
    # smallest irreducible quadratic over F_2 is x^2 + x + 1
    assert find_irreducible(2, 2) == (1, 1, 1)


# ---------------------------------------------------------------------------
# arithmetic in canonical digit form


def test_add_in_z9():
    R = Z9()
    assert R.from_int(5) + R.from_int(7) == R.from_int(3)


def test_mul_in_f4():
    # u^2 = u + 1 under the canonical modulus x^2 + x + 1
    f4 = FiniteField(2, 2)
    u = f4.element((0, 1))
    assert u * (u + f4.one()) == f4.one()


def test_eisenstein_relation_omega_squared():
    R = eisenstein_ring(3)
    w = R.uniformizer()
    assert (w * w).digits == (0, 0, 1, 0)  # omega^2 = 3
    assert w * w == R.from_int(3)


def test_digit_expansion_of_integers():
    R = eisenstein_ring(3)
    # 5 = 2 + 3 = 2 + omega^2
    assert R.from_int(5).digits == (2, 0, 1, 0)
    assert R.from_int(0).is_zero()


def test_reduce_is_homomorphism_unramified():
    R = Z27()
    for a in range(27):
        for b in range(27):
            x, y = R.from_int(a), R.from_int(b)
            for m in (0, 1):
                assert (x + y).reduce(m) == x.reduce(m) + y.reduce(m)
                assert (x * y).reduce(m) == x.reduce(m) * y.reduce(m)


def test_reduce_is_homomorphism_ramified():
    R = eisenstein_ring(2)
    elems = list(R.elements())
    for x in elems:
        for y in elems:
            assert (x + y).reduce(1) == x.reduce(1) + y.reduce(1)
            assert (x * y).reduce(1) == x.reduce(1) * y.reduce(1)


def test_mismatched_specs_rejected():
    with pytest.raises(ValueError):
        Z9().from_int(1) + Z27().from_int(1)


# ---------------------------------------------------------------------------
# inverses


def test_inverse_in_z27():
    R = Z27()
    assert R.from_int(2).inv() == R.from_int(14)


def test_inverse_of_non_unit_fails():
    with pytest.raises(NotInvertible):
        Z9().from_int(3).inv()


def test_inverse_in_f5():
    f5 = FiniteField(5)
    assert f5.from_int(4).inv() == f5.from_int(4)


def test_all_units_invert():
    for R in (Z27(), eisenstein_ring(2), make_ring(2, n=1, r=2)):
        one = R.one()
        for x in R.elements():
            if x.ord() == 0:
                assert x * x.inv() == one
            else:
                with pytest.raises(NotInvertible):
                    x.inv()


# ---------------------------------------------------------------------------
# ord and ac


def test_ord_examples():
    R = Z27()
    assert R.from_int(18).ord() == 2
    assert R.zero().ord() is INFINITY
    E = eisenstein_ring(3)
    assert (E.from_int(3) + E.uniformizer()).ord() == 1
    assert (E.from_int(3) * E.uniformizer()).ord() == 3
    assert E.from_int(3).ord() == 2


def test_infinity_ordering():
    assert INFINITY > 10**9
    assert not (INFINITY < 5)
    assert INFINITY >= INFINITY
    assert INFINITY == INFINITY
    assert INFINITY + 3 is INFINITY


def test_ac_examples():
    R = Z27()
    f3 = R.residue_field
    assert R.from_int(18).ac() == f3.from_int(2)
    assert R.zero().ac() == f3.from_int(0)
    assert R.from_int(5).ac() == f3.from_int(2)


def test_ord_ac_multiplicativity_exhaustive():
    # ord(xy) = ord x + ord y when the sum stays visible; ac multiplicative
    for R in (Z27(), eisenstein_ring(3), make_ring(2, n=2, r=2)):
        assert R.size <= 10**4
        elems = list(R.elements())
        for x in elems:
            for y in elems:
                ox, oy, oxy = x.ord(), y.ord(), (x * y).ord()
                if ox is not INFINITY and oy is not INFINITY and ox + oy <= R.n:
                    assert oxy == ox + oy
                    assert (x * y).ac() == x.ac() * y.ac()
                assert (x + y).ord() >= min(ox, oy)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_sizes():
    assert len(list(Z9().elements())) == 9
    assert len(list(FiniteField(2, 2).elements())) == 4
    assert len(list(eisenstein_ring(1).elements())) == 9


def test_enumeration_unique_and_deterministic():
    R = eisenstein_ring(2)
    first = [x.digits for x in R.elements()]
    second = [x.digits for x in R.elements()]
    assert first == second
    assert len(set(first)) == R.size


def test_enumeration_bound():
    R = make_ring(2, n=11)
    with pytest.raises(BoundExceeded, match="bound 1000"):
        list(R.elements(bound=1000))


def test_one_default_bound():
    # 2^23 elements: over the default bound, refused before any is built
    assert size_limit(None) == DEFAULT_BOUND == 4_000_000
    with pytest.raises(BoundExceeded, match="bound 4000000$"):
        next(make_ring(2, n=22).elements())
    assert padicstacks.EnumerationBound is padicstacks.BoundExceeded


def test_unit_group_size_unramified():
    # |units of Z/p^(n+1)| = p^n (p-1), checked by enumeration
    for p in (2, 3, 5, 7):
        for n in (0, 1, 2, 3):
            R = make_ring(p, n=n)
            if R.size > 10**4:
                continue
            units = sum(1 for x in R.elements() if x.ord() == 0)
            assert units == p**n * (p - 1)


# ---------------------------------------------------------------------------
# finite fields


def test_frobenius_is_automorphism_fixing_prime_field():
    f9 = FiniteField(3, 2)
    fixed = [x for x in f9.elements() if x.frobenius() == x]
    assert len(fixed) == 3
    for x in f9.elements():
        for y in f9.elements():
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()


def test_galois_ring_mixed_extension():
    # r = 2 over p = 3 at level 1: Galois ring of size 81
    R = make_ring(3, n=1, r=2)
    assert R.size == 81
    x = R.element(((1, 1), (0, 2)))
    y = R.element(((2, 0), (1, 0)))
    # commutativity / associativity spot checks
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * x == x * (y * x)


def test_mixed_ramified_extension():
    # e = 2 and r = 2 together, integer Eisenstein coefficients
    R = make_ring(2, e=2, eisenstein=(-2, 0), n=2, r=2)
    assert R.size == 2 ** (2 * 3)
    elems = list(R.elements())
    assert len(set(x.digits for x in elems)) == R.size
    w = R.uniformizer()
    assert w * w == R.from_int(2)
    assert R.from_int(2).ord() == 2  # ord(p) = e
    one = R.one()
    units = [x for x in elems if x.ord() == 0]
    assert len(units) == R.size - R.size // 4
    for u in units:
        assert u * u.inv() == one
    import random

    sample = random.Random(5).sample(elems, 10)
    for x in sample:
        for y in sample:
            assert x + y == y + x
            assert (x * y).reduce(1) == x.reduce(1) * y.reduce(1)
            for z in sample[:4]:
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_to_int_round_trip():
    R = Z27()
    for a in range(27):
        assert R.from_int(a).to_int() == a


# ---------------------------------------------------------------------------
# point coordinates: each ring's coordinates() and compile() against
# RingElement / FFElement arithmetic

SEAM_POLYS = ("x^2 + y^2 - 1", "y^2 - x^3", "x*y - 3", "9*x^2*y - 3*x + y^3")


def test_int_coordinates_agree_with_ring_elements():
    for p in (2, 3, 5):
        for n in (0, 1, 2):
            spec = make_ring(p, n=n)
            coords = spec.coordinates()
            assert list(coords) == list(range(p ** (n + 1)))
            boxed = {a: spec.from_int(a) for a in coords}
            assert set(boxed.values()) == set(spec.elements())
            assert boxed[spec.uniformizer_coordinate()] == spec.uniformizer()
            # every x, and every y only on the smaller rings
            ys = coords if len(coords) <= 9 else (0, 1, p, p + 1)
            points = [(a, b) for a in coords for b in ys]
            for text in SEAM_POLYS:
                f = padicstacks.parse_poly(text, ("x", "y"))
                ev = spec.compile(f)
                for pt in points:
                    value = ev(pt)
                    elem = f.eval_elements(tuple(boxed[a] for a in pt), spec.from_int)
                    assert boxed[value] == elem, (p, n, text, pt)
                    assert bool(value) == bool(elem) == (not elem.is_zero())
                    assert spec.valuation(value) == elem.ord()
                    assert spec.ac(value) == elem.ac()
                    assert spec.residue(value) == elem.residue()


def test_element_coordinates_compile_to_eval_elements():
    rings = [
        make_ring(2, r=2),  # Galois ring GR(4, 1) = F_4
        make_ring(3, r=2, n=1),  # GR(9, 2), x-only below
        eisenstein_ring(n=1),
        FiniteField(5),
        FiniteField(3, 2),
    ]
    for ring in rings:
        coords = ring.coordinates()
        assert coords == list(ring.elements())
        zero = ring.from_int(0)
        ys = coords if len(coords) <= 9 else coords[:2]
        for text in SEAM_POLYS:
            f = padicstacks.parse_poly(text, ("x", "y"))
            ev = ring.compile(f)
            for pt in ((a, b) for a in coords for b in ys):
                value = ev(pt)
                assert value == f.eval_elements(pt, ring.from_int), (ring, text, pt)
                assert bool(value) == (value != zero)
    for spec in rings[:3]:
        assert spec.uniformizer_coordinate() == spec.uniformizer()
        for c in spec.coordinates():
            assert spec.valuation(c) == c.ord()
            assert spec.ac(c) == c.ac()
            assert spec.residue(c) == c.residue()


def test_at_level_moves_both_ways():
    assert Z9().at_level(2) == Z27()
    assert Z27().at_level(0) == make_ring(3)
    assert eisenstein_ring(1).at_level(3) == eisenstein_ring(3)
    gr = make_ring(2, r=2, n=1, residue_modulus=(1, 1, 1))
    assert gr.at_level(3) == make_ring(2, r=2, n=3, residue_modulus=(1, 1, 1))
    assert Z27().truncated(1) == Z9()
    with pytest.raises(ValueError, match="downward"):
        Z9().truncated(2)
