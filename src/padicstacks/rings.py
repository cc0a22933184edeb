"""Exact arithmetic in truncated local rings R/(omega^(n+1)) and in their
residue fields F_(p^r).  Points are listed on rings only: F_q is the
Galois ring make_ring(p, r=r) at level 0.

A ring spec is either unramified (omega = p, coefficients a Galois ring)
or Eisenstein-ramified: Z[omega]/(E(omega), omega^(n+1)) with E monic of
degree e, p dividing every lower coefficient and p^2 not dividing the
constant one.

A RingElement is stored as its canonical free-module vector: R is free
over the Galois ring GR = Z_p[Y]/(f(Y)) with basis 1, omega, ...,
omega^(e-1), and GR is free over Z_p with basis 1, Y, ..., Y^(r-1), so an
element is e*r integers.  Write n+1 = q*e + s with 0 <= s < e; then
(omega^(n+1)) = p^q omega^s R is the lattice of vectors whose omega^i
slot is divisible by p^(q+1) for i < s and by p^q for i >= s.  Reducing
each coordinate mod that power gives one vector per element, so
arithmetic, ==, truth and ord work on vectors alone.  The digit form (n+1
residue-field digits, the coefficients of 1, omega, ..., omega^n) is read
only when asked for (digits, ac, hashing, output), once per element.

A ring moves along its family with at_level(n), which builds each level's
ring once and then hands back that same object.  A ring builds its vector
tables on first use, so Z/p^(n+1), whose coordinates are plain ints,
never builds them.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import functools
import itertools
from operator import add, mod, neg, sub

DEFAULT_BOUND = 4_000_000


class NotInvertible(ArithmeticError):
    """Inverse requested for a non-unit."""


class RingConstructionError(ValueError):
    """Invalid parameters for a ring or field constructor."""


class BoundExceeded(RuntimeError):
    """An exact computation would exceed its size limit; the message names
    the limit as "bound <N>"."""


def size_limit(bound, size=0, what=""):
    """The limit in force (`bound`, or DEFAULT_BOUND when it is None);
    refuses a bound below 1 as bad input, and raises BoundExceeded when
    `size` is over the limit."""
    if bound is not None:
        at_least("bound", bound, 1)
    limit = DEFAULT_BOUND if bound is None else bound
    if size > limit:
        raise BoundExceeded(f"{what} exceeds bound {limit}")
    return limit


def at_least(name, value, least):
    """Refuse an argument below its least value, naming both."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# value records


def record(cls=None, *, frozen=False):
    """Class decorator: a value record over the class's annotated fields, in
    order.  Every record class shares one `__init__` (by position or
    keyword; a field's class attribute is its default, copied for each
    instance when it is a dict, list or set), which ends by calling
    `__post_init__` when the class has one; `==` between records of one
    class with equal fields; and `repr` as Name(field=value, ...).  A frozen
    record hashes by its fields and refuses assignment with AttributeError;
    a plain one is unhashable."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    cls._fields = names
    cls._field_defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    cls.__init__ = _record_init
    cls.__eq__ = _record_eq
    cls.__repr__ = _record_repr
    cls.__hash__ = _record_hash if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse_assignment
    return cls


def _record_init(self, *args, **kwargs):
    cls = type(self)
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                        f"but {len(args)} were given")
    given = dict(zip(names, args))
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
        if name in given:
            raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
    given.update(kwargs)
    defaults = cls._field_defaults
    for name in names:
        if name in given:
            value = given[name]
        elif name in defaults:
            value = defaults[name]
            if type(value) in (dict, list, set):
                value = value.copy()
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        self.__dict__[name] = value
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _field_values(rec):
    return tuple([getattr(rec, name) for name in type(rec)._fields])


def _record_eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return _field_values(self) == _field_values(other)


def _record_hash(self):
    return hash(_field_values(self))


def _record_repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self)._fields)
    return f"{type(self).__qualname__}({fields})"


def _refuse_assignment(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                         f"{type(self).__name__}")


# ---------------------------------------------------------------------------
# valuation sentinel


class _InfinityType:
    """Distinguished valuation of zero; orders above every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("padicstacks-INFINITY")

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "INFINITY"


INFINITY = _InfinityType()


def p_valuation(c, p):
    """Exponent of p in the integer c; INFINITY for c == 0."""
    if c == 0:
        return INFINITY
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def power(x, k, mul, one):
    """x^k for an integer k >= 0 by square-and-multiply: the product of the
    squares x, x^2, x^4, ... picked by the bits of k, low bit first, and
    `one` when k = 0.  The base is squared only while bits of k remain and
    the first square picked starts the product, so x^k takes
    bit_length(k) - 1 squarings and one product per set bit after the
    first: x^1 takes none and x^2 one."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if result is None else result


def is_prime(n):
    """Deterministic Miller-Rabin test.  The prime bases 2..41 decide every
    n below 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2015).
    A multiple of a base is decided by division at any size; any other n
    from that limit on is refused."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    limit = 3_317_044_064_679_887_385_961_981
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    if n >= limit:
        raise ValueError(f"primality is decided only below {limit}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, low degree first)


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mulmod(a, b, modpoly, p):
    r = len(modpoly) - 1
    prod = [0] * (len(a) + len(b) - 1 if a and b else 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    # reduce by the monic modulus
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(r):
                prod[k - r + j] = (prod[k - r + j] - c * modpoly[j]) % p
    out = prod[:r]
    out += [0] * (r - len(out))
    return tuple(out)


def _poly_powmod(base, exp, modpoly, p):
    one = (1,) + (0,) * (len(modpoly) - 2)
    return power(base, exp, lambda a, b: _poly_mulmod(a, b, modpoly, p), one)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        # a mod b with b made monic
        inv_lead = pow(b[-1], -1, p)
        b_monic = tuple(c * inv_lead % p for c in b)
        r = list(a)
        while len(r) >= len(b_monic) and _poly_trim(r):
            r = list(_poly_trim(r))
            if len(r) < len(b_monic):
                break
            c = r[-1]
            shift = len(r) - len(b_monic)
            for j, y in enumerate(b_monic):
                r[shift + j] = (r[shift + j] - c * y) % p
            r = list(_poly_trim(r))
        a, b = b, _poly_trim(r)
    return a


def _is_irreducible(modpoly, p):
    """Rabin test for a monic polynomial over F_p, degree >= 1."""
    r = len(modpoly) - 1
    if r == 1:
        return True
    x = (0, 1)
    xq = _poly_powmod(x, p**r, modpoly, p)
    if _poly_trim(tuple((a - b) % p for a, b in zip(xq, x + (0,) * r))) != ():
        return False
    factors = set()
    m = r
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.add(m)
    for ell in factors:
        xk = _poly_powmod(x, p ** (r // ell), modpoly, p)
        diff = tuple((a - b) % p for a, b in zip(xk, x + (0,) * r))
        g = _poly_gcd(modpoly, diff, p)
        if len(g) > 1:
            return False
    return True


def find_irreducible(p, r):
    """Lexicographically smallest monic irreducible of degree r over F_p."""
    for k in range(p**r):
        coeffs = []
        kk = k
        for _ in range(r):
            coeffs.append(kk % p)
            kk //= p
        candidate = tuple(coeffs) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise RingConstructionError(f"no irreducible of degree {r} over F_{p}")


def _power_rows(modpoly, count):
    """Integer coefficients over 1, X, ..., X^(d-1) of X^j modulo the monic
    integer polynomial modpoly (low degree first, degree d), for j < count."""
    row = [1] + [0] * (len(modpoly) - 2)
    rows = []
    for _ in range(count):
        rows.append(row)
        top = row[-1]
        row = [x - top * c for x, c in zip([0] + row[:-1], modpoly)]
    return rows


# ---------------------------------------------------------------------------
# finite fields


class FiniteField:
    """F_(p^N) as coefficient vectors modulo a monic irreducible polynomial:
    the residue field of a ring, where ac, red and residue values live."""

    def __init__(self, p, degree=1, modulus=None):
        if not is_prime(p):
            raise RingConstructionError(f"{p} is not prime")
        if degree < 1:
            raise RingConstructionError("degree must be >= 1")
        self.p = p
        self.degree = degree
        if modulus is None:
            modulus = find_irreducible(p, degree)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise RingConstructionError("modulus must be monic of the stated degree")
            if not _is_irreducible(modulus, p):
                raise RingConstructionError("reducible residue modulus")
        self.modulus = modulus
        self.size = p**degree

    def element(self, coeffs):
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError("wrong coefficient count")
        return FFElement(self, coeffs)

    def from_int(self, c):
        return FFElement(self, (c % self.p,) + (0,) * (self.degree - 1))

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def elements(self):
        for coeffs in itertools.product(range(self.p), repeat=self.degree):
            yield FFElement(self, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.degree, self.modulus)
            == (other.p, other.degree, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self):
        return f"FiniteField({self.p}^{self.degree})"


class FFElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if not isinstance(other, FFElement) or other.field != self.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        self._check(other)
        p = self.field.p
        return FFElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        self._check(other)
        return FFElement(
            self.field,
            _poly_mulmod(self.coeffs, other.coeffs, self.field.modulus, self.field.p),
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        return FFElement(
            self.field, _poly_powmod(self.coeffs, k, self.field.modulus, self.field.p)
        )

    def inv(self):
        if self.is_zero():
            raise NotInvertible("zero has no inverse")
        return self ** (self.field.size - 2)

    def frobenius(self, k=1):
        """x -> x^(p^k)."""
        return self ** (self.field.p**k)

    def __bool__(self):
        """Nonzero test, read as on ints."""
        return any(self.coeffs)

    def is_zero(self):
        return not self

    def to_int(self):
        if self.field.degree != 1:
            raise ValueError("not a prime-field element")
        return self.coeffs[0]

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.degree, self.coeffs))

    def __repr__(self):
        if self.field.degree == 1:
            return f"FF({self.coeffs[0]} mod {self.field.p})"
        return f"FF{self.coeffs} over {self.field!r}"


# ---------------------------------------------------------------------------
# truncated local rings


class LocalRingSpec:
    """Truncated local ring R/(omega^(n+1)) with residue field F_(p^r).

    e == 1: unramified, omega = p.  e > 1: omega is a root of the given
    Eisenstein polynomial omega^e + c_(e-1) omega^(e-1) + ... + c_0.

    A ring and the rings at_level reaches from it form one family, which
    holds one ring per level.  The vector tables (_omega_rows, _table,
    _unit_inv) are built when an element ring first reads them, so
    Z/p^(n+1), whose points are plain ints, never builds them.
    """

    def __init__(self, p, e=1, eisenstein=None, n=0, r=1, residue_modulus=None):
        if not is_prime(p):
            raise RingConstructionError(f"{p} is not prime")
        if e < 1:
            raise RingConstructionError("ramification index must be >= 1")
        if n < 0:
            raise RingConstructionError("level must be >= 0")
        if r < 1:
            raise RingConstructionError("residue degree must be >= 1")
        if e > 1:
            if eisenstein is None or len(tuple(eisenstein)) != e:
                raise RingConstructionError(
                    "Eisenstein coefficients c_0..c_(e-1) required when e > 1"
                )
            eisenstein = tuple(int(c) for c in eisenstein)
            if any(c % p != 0 for c in eisenstein):
                raise RingConstructionError("Eisenstein condition: p must divide every c_i")
            if eisenstein[0] % (p * p) == 0:
                raise RingConstructionError("Eisenstein condition: p^2 must not divide c_0")
        else:
            eisenstein = None
        self.p = p
        self.e = e
        self.eisenstein = eisenstein
        self.n = n
        self.r = r
        self.residue_field = FiniteField(p, r, residue_modulus)
        self.size = p ** (r * (n + 1))
        # p^(n+1) when point coordinates are plain ints (Z/p^(n+1)), else None
        self.int_modulus = p ** (n + 1) if e == 1 and r == 1 else None
        # canonical vectors (module docstring): the modulus of each
        # coordinate, omega's relation omega^e = -(c_0 + ... + c_(e-1)
        # omega^(e-1)) with omega = p when e == 1, and omega^0..omega^n
        q, s = divmod(n + 1, e)
        self._mods = tuple(p ** (q + (i < s)) for i in range(e) for _ in range(r))
        self._omega_poly = (eisenstein if e > 1 else (-p,)) + (1,)
        # this ring's family: level -> its one ring, shared by every ring
        # that at_level reaches
        self._family = {n: self}

    @functools.cached_property
    def _omega_rows(self):
        return _power_rows(self._omega_poly, self.n + 1)

    @functools.cached_property
    def _unit_inv(self):
        return pow(self._omega_poly[0] // self.p, -1, self._mods[0])

    def at_level(self, n):
        """The same ring family truncated at level n (either direction):
        the family's one ring at that level, built on first ask, so
        at_level(self.n) is self."""
        ring = self._family.get(n)
        if ring is None:
            ring = LocalRingSpec(
                self.p, self.e, self.eisenstein, n, self.r, self.residue_field.modulus
            )
            ring._family = self._family
            self._family[n] = ring
        return ring

    def truncated(self, m):
        if m > self.n:
            raise ValueError("can only truncate downward")
        return self.at_level(m)

    # -- point coordinates ---------------------------------------------------
    # How a coordinate is stored is decided here and nowhere else: plain
    # ints on Z/p^(n+1), RingElements on every other ring.  An evaluator's
    # value is truthy exactly when it is nonzero, as on ints.

    def coordinates(self, bound=None):
        """Point coordinates in enumeration order: the ints 0..p^(n+1)-1 on
        Z/p^(n+1), else every RingElement in elements(bound) order."""
        if self.int_modulus is not None:
            return range(self.int_modulus)
        return list(self.elements(bound))

    def coordinates_above(self, c):
        """The coordinates that reduce to the level-(n-1) coordinate c, in
        coordinates() order: c + p^n a on Z/p^(n+1), else c's digits
        followed by each value of one more digit."""
        if self.int_modulus is not None:
            return range(c, self.int_modulus, self.int_modulus // self.p)
        return [self.element(c.digits + (d,)) for d in self._digit_values()]

    def compile(self, poly):
        """Evaluator point-tuple -> coordinate value for an integer
        polynomial, compiled once for this ring.  On element rings it runs
        on the coordinates' vectors (`_operand`): a monomial is a run of
        `_mul` products over its factors, each raised by `power`, times
        its coefficient c mod p^K slot by slot (c*a mod each slot's
        modulus); the terms are summed by `_add` into one RingElement."""
        if self.int_modulus is not None:
            return poly.compile_int(self.int_modulus)
        mods, one, mul = self._mods, self._int_vector(1), self._mul
        terms = [(c % mods[0], tuple((i, k) for i, k in enumerate(expo) if k))
                 for expo, c in sorted(poly.terms.items()) if c % mods[0]]

        def ev(point):
            vecs = [self._operand(x) for x in point]
            acc = None
            for c, factors in terms:
                t = None
                for i, k in factors:
                    x = vecs[i] if k == 1 else power(vecs[i], k, mul, one)
                    t = x if t is None else mul(t, x)
                if c != 1 or t is None:
                    t = tuple([c * a % m for a, m in zip(t or one, mods)])
                acc = t if acc is None else self._add(acc, t)
            return RingElement(self, acc or (0,) * len(mods))

        return ev

    def uniformizer_coordinate(self):
        """The uniformizer as a coordinate value."""
        if self.int_modulus is not None:
            return self.p % self.int_modulus
        return self.uniformizer()

    def valuation(self, c):
        """ord of a coordinate value; INFINITY at zero."""
        if self.int_modulus is None:
            return c.ord()
        return p_valuation(c, self.p)

    def ac(self, c):
        """Angular component of a coordinate value (its leading digit) as a
        residue-field element, with ac(0) = 0."""
        if self.int_modulus is None:
            return c.ac()
        while c and c % self.p == 0:
            c //= self.p
        return self.residue_field.from_int(c)

    def residue(self, c):
        """Image of a coordinate value in the residue field."""
        if self.int_modulus is None:
            return c.residue()
        return self.residue_field.from_int(c)

    # -- digit plumbing ------------------------------------------------------

    def _digit_zero(self):
        return 0 if self.r == 1 else (0,) * self.r

    def _digit_values(self):
        if self.r == 1:
            return range(self.p)
        return itertools.product(range(self.p), repeat=self.r)

    # -- canonical vectors ---------------------------------------------------
    # Coordinate i*r + k of a vector is the Y^k coefficient of the omega^i
    # slot (module docstring).  Vectors are tuples of ints reduced by
    # _mods; every method below takes and returns canonical vectors.

    def _operand(self, x):
        """The vector of an element of this ring, or of an int, embedded;
        an element of another ring is refused."""
        if isinstance(x, RingElement) and (x.spec is self or x.spec == self):
            return x.vec
        if isinstance(x, int):
            return self._int_vector(x)
        raise ValueError("elements of mismatched ring specs")

    def _canon(self, coords):
        return tuple(map(mod, coords, self._mods))

    def _int_vector(self, c):
        return self._canon((c,) + (0,) * (len(self._mods) - 1))

    def _add(self, u, v):
        return tuple(map(mod, map(add, u, v), self._mods))

    def _sub(self, u, v):
        return tuple(map(mod, map(sub, u, v), self._mods))

    def _neg(self, u):
        return tuple(map(mod, map(neg, u), self._mods))

    def _mul(self, u, v):
        out = [0] * len(u)
        table = self._table
        for a, x in enumerate(u):
            if x:
                row = table[a]
                for b, y in enumerate(v):
                    if y:
                        xy = x * y
                        for c, t in row[b]:
                            out[c] += xy * t
        return tuple(map(mod, out, self._mods))

    @functools.cached_property
    def _table(self):
        """table[a][b]: the nonzero (c, coefficient) pairs of basis vector a
        times basis vector b, from omega^e = -(c_0 + ... + c_(e-1)
        omega^(e-1)) and f(Y) = 0."""
        e, r = self.e, self.r
        omega = _power_rows(self._omega_poly, 2 * e - 1)
        y = _power_rows(self.residue_field.modulus, 2 * r - 1)
        basis = [(i, k) for i in range(e) for k in range(r)]
        table = []
        for i1, k1 in basis:
            row = []
            for i2, k2 in basis:
                entry = []
                for c, (i, k) in enumerate(basis):
                    coeff = omega[i1 + i2][i] * y[k1 + k2][k] % self._mods[c]
                    if coeff:
                        entry.append((c, coeff))
                row.append(tuple(entry))
            table.append(tuple(row))
        return tuple(table)

    def _vector(self, digits):
        """Canonical vector of sum_i lift(d_i) omega^i, where a digit lifts
        to the GR element with the same coordinates in 0..p-1."""
        r = self.r
        out = [0] * len(self._mods)
        for d, row in zip(digits, self._omega_rows):
            lift = (d,) if r == 1 else d
            for i, w in enumerate(row):
                if w:
                    for k, x in enumerate(lift):
                        out[i * r + k] += w * x
        return self._canon(out)

    def _read_digits(self, vec):
        """The n+1 digits of a vector: take the residue of the omega^0 slot,
        subtract its lift and divide by omega, n+1 times.  Dividing by
        omega needs (c_0/p)^-1, taken mod p^K, the largest coordinate
        modulus: an error in p^K R lies in omega^(eK) R with eK >= n+1, so it
        never reaches a digit within the n divisions that follow it."""
        p, r, m = self.p, self.r, self._mods[0]
        c, unit_inv = self._omega_poly, self._unit_inv
        u = list(vec)
        digits = []
        for _ in range(self.n + 1):
            d = [x % p for x in u[:r]]
            digits.append(d[0] if r == 1 else tuple(d))
            # omega * y = u - lift(d): slot 0 gives y's top slot, and slot
            # i > 0 gives y's slot i-1
            top = [-((x - dx) // p) * unit_inv % m for x, dx in zip(u, d)]
            u = [x + c[a // r + 1] * top[a % r] for a, x in enumerate(u[r:])] + top
        return tuple(digits)

    # -- public construction -------------------------------------------------

    def element(self, digits):
        digits = tuple(digits)
        if len(digits) != self.n + 1:
            raise ValueError(f"need exactly {self.n + 1} digits")
        if self.r == 1:
            canon = tuple(int(d) % self.p for d in digits)
        else:
            canon = tuple(tuple(int(c) % self.p for c in d) for d in digits)
        return RingElement(self, self._vector(canon), canon)

    def from_int(self, c):
        return RingElement(self, self._int_vector(c))

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def uniformizer(self):
        if self.n == 0:
            return self.zero()
        digits = [self._digit_zero()] * (self.n + 1)
        digits[1] = 1 if self.r == 1 else (1,) + (0,) * (self.r - 1)
        return self.element(digits)

    def elements(self, bound=None):
        """Every element exactly once, lexicographic on digit sequences."""
        size_limit(bound, self.size, f"ring size {self.size}")
        for digits in itertools.product(self._digit_values(), repeat=self.n + 1):
            yield RingElement(self, self._vector(digits), digits)

    def __eq__(self, other):
        return isinstance(other, LocalRingSpec) and (
            self.p,
            self.e,
            self.eisenstein,
            self.n,
            self.r,
            self.residue_field.modulus,
        ) == (
            other.p,
            other.e,
            other.eisenstein,
            other.n,
            other.r,
            other.residue_field.modulus,
        )

    def __hash__(self):
        return hash((self.p, self.e, self.eisenstein, self.n, self.r))

    def __repr__(self):
        if self.e == 1 and self.r == 1:
            return f"LocalRingSpec(Z/{self.p}^{self.n + 1})"
        return (
            f"LocalRingSpec(p={self.p}, e={self.e}, n={self.n}, r={self.r})"
        )


def make_ring(p, e=1, eisenstein=None, n=0, r=1, residue_modulus=None):
    """Build a truncated local ring spec, validating all arithmetic
    preconditions (primality, Eisenstein condition, modulus irreducibility)."""
    return LocalRingSpec(p, e, eisenstein, n, r, residue_modulus)


class RingElement:
    """Element of a truncated local ring, stored as its canonical vector
    `vec` (see the module docstring).  Two elements are equal iff their
    vectors are; the digit sequence is read on demand and cached."""

    __slots__ = ("spec", "vec", "_digits")

    def __init__(self, spec, vec, digits=None):
        self.spec = spec
        self.vec = vec
        self._digits = digits

    @property
    def digits(self):
        """n+1 residue-field digits, the coefficients of 1, omega, ...,
        omega^n."""
        if self._digits is None:
            self._digits = self.spec._read_digits(self.vec)
        return self._digits

    def __add__(self, other):
        return RingElement(self.spec, self.spec._add(self.vec, self.spec._operand(other)))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.spec, self.spec._neg(self.vec))

    def __sub__(self, other):
        return RingElement(self.spec, self.spec._sub(self.vec, self.spec._operand(other)))

    def __rsub__(self, other):
        return RingElement(self.spec, self.spec._sub(self.spec._operand(other), self.vec))

    def __mul__(self, other):
        return RingElement(self.spec, self.spec._mul(self.vec, self.spec._operand(other)))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        spec = self.spec
        return RingElement(spec, power(self.vec, k, spec._mul, spec._int_vector(1)))

    def __bool__(self):
        """Nonzero test, read as on ints."""
        return any(self.vec)

    def is_zero(self):
        return not self

    def ord(self):
        """Index of the first nonzero digit, read off the vector as the
        least e*v_p(x) + i over the nonzero coordinates x of each omega^i
        slot; INFINITY for zero."""
        spec = self.spec
        e, r, p = spec.e, spec.r, spec.p
        vals = [e * p_valuation(x, p) + a // r for a, x in enumerate(self.vec) if x]
        return min(vals) if vals else INFINITY

    def ac(self):
        """Angular component: leading digit as a residue-field element,
        with ac(0) = 0."""
        field = self.spec.residue_field
        v = self.ord()
        if v is INFINITY:
            return field.zero()
        d = self.digits[v]
        return field.element((d,) if self.spec.r == 1 else d)

    def residue(self):
        """Image in the residue field (digit 0: the omega^0 slot mod p)."""
        spec = self.spec
        return spec.residue_field.element(self.vec[: spec.r])

    def inv(self):
        if self.ord() != 0:
            raise NotInvertible("not a unit (positive valuation)")
        spec = self.spec
        x = self.vec
        y = spec._canon(self.residue().inv().coeffs + (0,) * (len(x) - spec.r))
        two = spec._int_vector(2)
        # Newton's step y <- y (2 - x y) doubles the precision of y; y is
        # right mod omega, so n.bit_length() steps make it exact
        for _ in range(spec.n.bit_length()):
            y = spec._mul(y, spec._sub(two, spec._mul(x, y)))
        return RingElement(spec, y)

    def reduce(self, m):
        """Truncate to level m <= n; a ring homomorphism."""
        target = self.spec.truncated(m)
        return RingElement(target, target._canon(self.vec))

    def to_int(self):
        """Integer value for unramified prime rings."""
        if self.spec.int_modulus is None:
            raise ValueError("no canonical integer form for this ring")
        return self.vec[0]

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.vec == other.vec
            and (other.spec is self.spec or other.spec == self.spec)
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.e, self.spec.n, self.spec.r, self.digits))

    def __repr__(self):
        return f"RingElement{self.digits}"
