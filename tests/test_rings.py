import itertools
import time

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


def test_is_prime_agrees_with_a_sieve():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
    assert [n for n in range(-3, limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2..23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


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
# RingElement arithmetic

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
        make_ring(3, r=2),  # F_9, the Galois ring at level 0
        make_ring(3, e=3, eisenstein=(3, 6, -3), n=2),
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
    for spec in rings:
        assert spec.uniformizer_coordinate() == spec.uniformizer()
        for c in spec.coordinates():
            assert spec.valuation(c) == c.ord()
            assert spec.ac(c) == c.ac()
            assert spec.residue(c) == c.residue()


def test_compiled_monomials_raise_by_square_and_multiply(monkeypatch):
    # x^k compiled for an element ring is x ** k, at a cost of no product for
    # x^1 and one for x^2, and no more products than the run of k - 1 it
    # once was; x^1000003 over F_(1000003^2) once took seconds to evaluate
    big = make_ring(1000003, r=2)
    f = big.compile(padicstacks.parse_poly("x^1000003", ("x",)))
    for digits in ((3, 5), (1000002, 7), (0, 1)):
        x = big.element([digits])
        started = time.perf_counter()
        assert f((x,)) == x**1000003
        assert time.perf_counter() - started < 0.5
    ring = make_ring(3, r=2, n=1)
    x = ring.element([(1, 2), (0, 1)])
    products = []
    real_mul = ring._mul

    def counted(u, v):
        products.append(1)
        return real_mul(u, v)

    monkeypatch.setattr(ring, "_mul", counted)
    for k in range(1, 9):
        f = ring.compile(padicstacks.parse_poly(f"x^{k}", ("x",)))
        products.clear()
        value = f((x,))
        cost = len(products)
        products.clear()
        assert value == x**k and cost == len(products), k
        assert cost == k.bit_length() + bin(k).count("1") - 2 <= k - 1, k
    # an integer coefficient is applied slot by slot, with no product
    for text in ("-2*x^2", "3*x + 1", "-7"):
        poly = padicstacks.parse_poly(text, ("x",))
        want = poly.eval_elements((x,), ring.from_int)
        f = ring.compile(poly)
        products.clear()
        assert f((x,)) == want and len(products) == text.count("^2"), text


def test_compiled_polynomials_refuse_a_point_of_another_ring():
    # a different p, the same family at another level, and a coordinate
    # whose variable the polynomial does not read
    ring = make_ring(3, e=2, eisenstein=(-3, 0), n=2)
    f = ring.compile(padicstacks.parse_poly("x^2 + 2*x", ("x", "y")))
    x = ring.element([1, 2, 0])
    for other in (make_ring(5, e=2, eisenstein=(-5, 0), n=2), ring.at_level(1), ring.at_level(3)):
        stray = other.one()
        for point in ((stray, x), (x, stray)):
            with pytest.raises(ValueError, match="^elements of mismatched ring specs$"):
                f(point)
    assert f((x, ring.element([0, 0, 1]))) == x * x + 2 * x


def test_at_level_moves_both_ways():
    assert Z9().at_level(2) == Z27()
    assert Z27().at_level(0) == make_ring(3)
    assert eisenstein_ring(1).at_level(3) == eisenstein_ring(3)
    gr = make_ring(2, r=2, n=1, residue_modulus=(1, 1, 1))
    assert gr.at_level(3) == make_ring(2, r=2, n=3, residue_modulus=(1, 1, 1))
    assert Z27().truncated(1) == Z9()
    with pytest.raises(ValueError, match="downward"):
        Z9().truncated(2)


def test_a_family_holds_one_ring_per_level():
    r = eisenstein_ring(1)
    assert r.at_level(2) is r.at_level(2)
    assert r.at_level(3).at_level(0).at_level(3) is r.at_level(3)
    assert r.at_level(r.n) is r and r.truncated(r.n) is r
    assert r.at_level(3).truncated(0) is r.at_level(0)
    x = r.at_level(3).element([1, 2, 0, 1])
    assert x.reduce(1).spec is r and x.reduce(2).spec is r.at_level(2)
    # a ring built apart is equal, but of its own family
    fresh = eisenstein_ring(2)
    assert fresh == r.at_level(2) and fresh is not r.at_level(2)
    assert fresh.at_level(1) is not r and hash(fresh) == hash(r.at_level(2))
    for _ in range(2):
        with pytest.raises(RingConstructionError, match="level must be >= 0"):
            r.at_level(-1)
    assert r.at_level(4).n == 4 and r.at_level(4).at_level(1) is r


FAMILIES = [
    make_ring(3, 2, (-3, 0)),  # ram3
    make_ring(3, r=2),  # gr9
    make_ring(3, e=3, eisenstein=(3, 6, -3)),
    make_ring(3, r=2, residue_modulus=(2, 2, 1)),  # not find_irreducible's x^2 + 1
]


@pytest.mark.parametrize("base", FAMILIES, ids=["ram3", "gr9", "e3", "gr9-x^2+2x+2"])
def test_family_rings_compute_as_rings_built_apart(base):
    import random

    rng = random.Random(repr(base))
    params = dict(p=base.p, e=base.e, eisenstein=base.eisenstein, r=base.r,
                  residue_modulus=base.residue_field.modulus)
    up, down = make_ring(n=0, **params), make_ring(n=4, **params)
    for n in range(5):
        apart = make_ring(n=n, **params)
        for ring in (up.at_level(n), down.at_level(n)):
            assert ring == apart and ring.n == n
            assert ([x.vec for x in itertools.islice(ring.elements(), 100)]
                    == [x.vec for x in itertools.islice(apart.elements(), 100)])
            for _ in range(12):
                dx, dy = (_random_element(apart, rng).digits for _ in range(2))
                x, y = ring.element(dx), ring.element(dy)
                ax, ay = apart.element(dx), apart.element(dy)
                # `+ 0` drops the digits an element was built from
                assert (x + 0).digits == dx
                for got, want in ((x + y, ax + ay), (x - y, ax - ay), (x * y, ax * ay)):
                    assert got.vec == want.vec and (got + 0).digits == (want + 0).digits
                assert x.ord() == ax.ord()
                assert x.ac().coeffs == ax.ac().coeffs
                assert x.residue().coeffs == ax.residue().coeffs
                if x.ord() == 0:
                    assert x.inv().vec == ax.inv().vec
                for m in range(n + 1):
                    assert x.reduce(m).spec is ring.at_level(m)
                    assert x.reduce(m).vec == ax.reduce(m).vec
                    assert (x.reduce(m) + 0).digits == (ax.reduce(m) + 0).digits


def test_a_family_builds_each_level_once_and_no_int_ring_builds_tables(monkeypatch):
    from padicstacks import measure_formula, series
    from padicstacks.polyscheme import AffineScheme
    from padicstacks.rings import LocalRingSpec
    from padicstacks.tree import level_counts

    built = []
    real = LocalRingSpec.__init__

    def counted(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    A1 = AffineScheme.affine_space("A1", ("x",))
    conic = AffineScheme.from_text("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1)
    base = make_ring(3)
    monkeypatch.setattr(LocalRingSpec, "__init__", counted)
    measure_formula("ord(x) >= 1 && ac(x) == 1", A1, 1, base, max_level=4)
    assert sorted(ring.n for ring in built) == [1, 2, 3, 4]
    measure_formula("ord(x - 1) >= 2", A1, 1, base, max_level=4)
    assert len(built) == 4
    for count in (lambda ring: level_counts(conic, ring, 4),
                  lambda ring: series(conic, ring, "p", terms=5),
                  lambda ring: series(conic, ring, "q", terms=5)):
        start = len(built)
        count(make_ring(5))
        levels = [r.n for r in built[start + 1:]]
        assert len(levels) == len(set(levels)), levels
    rings = [base, *built]
    assert all(r.int_modulus is not None for r in rings)
    assert not [r for r in rings if {"_table", "_omega_rows", "_unit_inv"} & set(vars(r))]


# ---------------------------------------------------------------------------
# canonical vectors against the digit round trip they replaced


class _DigitOracle:
    """The element arithmetic that RingElement used before elements kept
    their canonical vectors: every operation converts digits to the free
    module over Z/p^(n+2) and back.  A test-local copy, the independent
    oracle for the vector arithmetic."""

    def __init__(self, spec):
        self.spec = spec
        self.p, self.e, self.n, self.r = spec.p, spec.e, spec.n, spec.r
        self.eis = spec.eisenstein
        self.modulus = spec.residue_field.modulus
        self.pbig = self.p ** (self.n + 2)

    def _lift(self, d):
        return (d,) if self.r == 1 else tuple(d)

    def _base_residue(self, b):
        return b[0] % self.p if self.r == 1 else tuple(c % self.p for c in b)

    def _base_add(self, a, b):
        return tuple((x + y) % self.pbig for x, y in zip(a, b))

    def _base_int_mul(self, a, c):
        return tuple(x * c % self.pbig for x in a)

    def _base_mul(self, a, b):
        if self.r == 1:
            return (a[0] * b[0] % self.pbig,)
        prod = [0] * (2 * self.r - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % self.pbig
        for k in range(len(prod) - 1, self.r - 1, -1):
            c, prod[k] = prod[k], 0
            for j in range(self.r):
                prod[k - self.r + j] = (prod[k - self.r + j] - c * self.modulus[j]) % self.pbig
        return tuple(prod[: self.r])

    def _vec_add(self, u, v):
        return tuple(self._base_add(a, b) for a, b in zip(u, v))

    def _vec_neg(self, u):
        return tuple(self._base_int_mul(a, -1) for a in u)

    def _vec_mul_omega(self, u):
        if self.e == 1:
            return (self._base_int_mul(u[0], self.p),)
        top = u[-1]
        out = [self._base_int_mul(top, -self.eis[0])]
        for j in range(1, self.e):
            out.append(self._base_add(u[j - 1], self._base_int_mul(top, -self.eis[j])))
        return tuple(out)

    def _vec_mul(self, u, v):
        e, zero = self.e, (0,) * self.r
        prod = [zero] * (2 * e - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                prod[i + j] = self._base_add(prod[i + j], self._base_mul(a, b))
        for k in range(2 * e - 2, e - 1, -1):
            c, prod[k] = prod[k], zero
            for j in range(e):
                prod[k - e + j] = self._base_add(
                    prod[k - e + j], self._base_int_mul(c, -self.eis[j]))
        return tuple(prod[:e])

    def to_internal(self, digits):
        zero = (0,) * self.r
        acc = (zero,) * self.e
        omega_pow = ((1,) + zero[1:],) + (zero,) * (self.e - 1)
        for d in digits:
            term = tuple(self._base_mul(self._lift(d), c) for c in omega_pow)
            acc = self._vec_add(acc, term)
            omega_pow = self._vec_mul_omega(omega_pow)
        return acc

    def _div_omega(self, u):
        p = self.p
        if self.e == 1:
            return (tuple((x % self.pbig) // p for x in u[0]),)
        unit_inv = pow(self.eis[0] // p, -1, self.pbig)
        a0 = tuple((x % self.pbig) // p for x in u[0])
        top = self._base_int_mul(self._base_int_mul(a0, unit_inv), -1)
        out = [self._base_add(u[j], self._base_int_mul(top, self.eis[j]))
               for j in range(1, self.e)]
        return tuple(out) + (top,)

    def from_internal(self, vec):
        digits = []
        zero = (0,) * self.r
        for _ in range(self.n + 1):
            d = self._base_residue(vec[0])
            digits.append(d)
            vec = self._vec_add(vec, self._vec_neg((self._lift(d),) + (zero,) * (self.e - 1)))
            vec = self._div_omega(vec)
        return tuple(digits)

    def from_int(self, c):
        base = (c % self.pbig,) + (0,) * (self.r - 1)
        return self.from_internal((base,) + ((0,) * self.r,) * (self.e - 1))

    def add(self, x, y):
        return self.from_internal(self._vec_add(self.to_internal(x), self.to_internal(y)))

    def neg(self, x):
        return self.from_internal(self._vec_neg(self.to_internal(x)))

    def mul(self, x, y):
        return self.from_internal(self._vec_mul(self.to_internal(x), self.to_internal(y)))

    def pow(self, x, k):
        out = self.from_int(1)
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def ord(self, x):
        zero = 0 if self.r == 1 else (0,) * self.r
        return next((i for i, d in enumerate(x) if d != zero), INFINITY)

    def leading(self, x):
        v = self.ord(x)
        return (0,) * self.r if v is INFINITY else self._lift(x[v])

    def hash(self, x):
        return hash((self.p, self.e, self.n, self.r, x))


ORACLE_RINGS = [
    make_ring(2, n=3),
    make_ring(5, n=2),
    make_ring(3, r=2, n=2),
    make_ring(2, r=3, n=1),
    eisenstein_ring(3),
    make_ring(3, e=3, eisenstein=(3, 6, -3), n=4),
    make_ring(3, e=3, eisenstein=(3, 6, -3), n=1),  # n+1 < e
    make_ring(5, e=2, eisenstein=(-10, 5), n=2),
    make_ring(5, e=2, eisenstein=(5, 0), n=0),  # n+1 < e
    make_ring(2, e=2, eisenstein=(-2, 0), n=2, r=2),
    make_ring(2, e=3, eisenstein=(2, 2, 0), n=3, r=2),
]


def _random_element(spec, rng):
    if spec.r == 1:
        return spec.element([rng.randrange(spec.p) for _ in range(spec.n + 1)])
    return spec.element([tuple(rng.randrange(spec.p) for _ in range(spec.r))
                         for _ in range(spec.n + 1)])


@pytest.mark.parametrize("spec", ORACLE_RINGS, ids=repr)
def test_vector_arithmetic_matches_digit_oracle(spec):
    import random

    rng = random.Random(f"{spec!r}{spec.eisenstein}")
    oracle = _DigitOracle(spec)
    field = spec.residue_field
    for c in (0, 1, -1, spec.p, -spec.p, 7, 10**6 + 3, -(10**5)):
        assert spec.from_int(c).digits == oracle.from_int(c)
    for _ in range(60):
        x, y = _random_element(spec, rng), _random_element(spec, rng)
        dx, dy = x.digits, y.digits
        # fresh copies, so that every digit read below goes through the vector
        fx, fy = (spec.element(d) + 0 for d in (dx, dy))
        assert fx.digits == dx and fy.digits == dy
        assert (fx + fy).digits == oracle.add(dx, dy)
        assert (fx - fy).digits == oracle.add(dx, oracle.neg(dy))
        assert (fx * fy).digits == oracle.mul(dx, dy)
        assert (-fx).digits == oracle.neg(dx)
        assert (3 - fx).digits == oracle.add(oracle.from_int(3), oracle.neg(dx))
        k = rng.randrange(6)
        assert (fx**k).digits == oracle.pow(dx, k)
        prod = fx * fy
        assert prod.ord() == oracle.ord(oracle.mul(dx, dy))
        assert prod.ac() == field.element(oracle.leading(oracle.mul(dx, dy)))
        assert prod.residue() == field.element(oracle._lift(oracle.mul(dx, dy)[0]))
        assert hash(prod) == oracle.hash(oracle.mul(dx, dy))
        assert bool(prod) == (oracle.ord(oracle.mul(dx, dy)) is not INFINITY)
        assert (fx == fy) == (dx == dy)
        assert (fx * fy == fy * fx) and (fx + fy == spec.element(oracle.add(dx, dy)))
        if oracle.ord(dx) == 0:
            inv = fx.inv()
            assert oracle.mul(dx, inv.digits) == oracle.from_int(1)
            assert (fx**-2).digits == oracle.pow(inv.digits, 2)
        else:
            with pytest.raises(NotInvertible):
                fx.inv()


@pytest.mark.parametrize("spec", ORACLE_RINGS, ids=repr)
def test_canonical_vectors_distinct_and_round_trip(spec):
    elems = list(spec.elements())
    assert len({x.vec for x in elems}) == len(elems) == spec.size
    oracle = _DigitOracle(spec)
    for x in elems:
        # the digits read back off the vector are the ones it was built from
        assert spec._read_digits(x.vec) == x.digits
        assert oracle.from_internal(oracle.to_internal(x.digits)) == x.digits
        assert x.ord() == oracle.ord(x.digits)
        assert bool(x) == (x.ord() is not INFINITY)


@pytest.mark.parametrize("spec", ORACLE_RINGS, ids=repr)
def test_compile_matches_eval_elements_and_digit_oracle(spec):
    import random

    rng = random.Random(spec.size)
    oracle = _DigitOracle(spec)
    # coefficient-1 monomials, and coefficients that vanish in every ring
    # here (810000 = 2^4 3^4 5^4), some or all of them; and one-term
    # polynomials with negative coefficients, coefficients divisible by
    # p, and constants, whose value is the coefficient applied slot by
    # slot with no sum to reduce it
    extra = ("x^3*y^2 - 5*x*y + 2", "0*x + 0", "x", "x - 3600*y + 1", "810000*x*y",
             "-x", "-2*x*y^2", "6*y^3", "-10*x^2*y", "15*x", "-9", "4", "-1")
    for text in SEAM_POLYS + extra:
        f = padicstacks.parse_poly(text, ("x", "y"))
        ev = spec.compile(f)
        for _ in range(15):
            pt = (_random_element(spec, rng), _random_element(spec, rng))
            if spec.int_modulus is None:
                value = ev(pt)
            else:  # Z/p^(n+1): coordinates are plain ints
                value = spec.from_int(ev(tuple(x.to_int() for x in pt)))
            assert value == f.eval_elements(pt, spec.from_int), (spec, text, pt)
            want = oracle.from_int(0)
            for expo, coeff in f.terms.items():
                term = oracle.from_int(coeff)
                for d, k in zip(pt, expo):
                    term = oracle.mul(term, oracle.pow(d.digits, k))
                want = oracle.add(want, term)
            assert value.digits == want, (spec, text, pt)
