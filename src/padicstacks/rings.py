"""Exact arithmetic in truncated local rings R/(omega^(n+1)) and finite
fields F_(p^N).

A ring spec is either unramified (omega = p, coefficients a Galois ring)
or Eisenstein-ramified: Z[omega]/(E(omega), omega^(n+1)) with E monic of
degree e, p dividing every lower coefficient and p^2 not dividing the
constant one.  Elements live in canonical digit form: n+1 residue-field
digits, coefficients of 1, omega, ..., omega^n.  Internally, arithmetic
runs on the free-module presentation (e coefficients over Z/p^BIG with
BIG = n+2, enough headroom for exact digit extraction) and converts back.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import itertools

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
    raises BoundExceeded when `size` is over it."""
    limit = DEFAULT_BOUND if bound is None else bound
    if size > limit:
        raise BoundExceeded(f"{what} exceeds bound {limit}")
    return limit


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


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
    r = len(modpoly) - 1
    result = tuple([1] + [0] * (r - 1))
    b = base
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, b, modpoly, p)
        b = _poly_mulmod(b, b, modpoly, p)
        exp >>= 1
    return result


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


# ---------------------------------------------------------------------------
# finite fields


class FiniteField:
    """F_(p^N) as coefficient vectors modulo a monic irreducible polynomial."""

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

    def coordinates(self):
        """Point coordinates: every FFElement, in elements() order."""
        return list(self.elements())

    def compile(self, poly):
        """Evaluator point-tuple -> FFElement for an integer polynomial.  On
        a prime field it runs compile_int on the elements' integer values
        instead of FFElement arithmetic."""
        if self.degree == 1:
            ev = poly.compile_int(self.p)
            return lambda point: FFElement(self, (ev([c.coeffs[0] for c in point]),))
        return lambda point: poly.eval_elements(point, self.from_int)

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

    def generator(self):
        if self.degree == 1:
            raise ValueError("prime field has no extension generator")
        return FFElement(self, (0, 1) + (0,) * (self.degree - 2))

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
        # working precision for the internal free-module representation
        self._big = n + 2
        self._pbig = p**self._big

    def at_level(self, n):
        """The same ring family truncated at level n (either direction)."""
        return LocalRingSpec(
            self.p, self.e, self.eisenstein, n, self.r, self.residue_field.modulus
        )

    def truncated(self, m):
        if m > self.n:
            raise ValueError("can only truncate downward")
        return self.at_level(m)

    # -- point coordinates ---------------------------------------------------
    # How a coordinate is stored is decided here and nowhere else: plain
    # ints on Z/p^(n+1), RingElements on every other ring.  An evaluator's
    # value is truthy exactly when it is nonzero, as on ints.

    def coordinates(self):
        """Point coordinates in enumeration order: the ints 0..p^(n+1)-1 on
        Z/p^(n+1), else every RingElement in elements() order."""
        if self.int_modulus is not None:
            return range(self.int_modulus)
        return list(self.elements())

    def compile(self, poly):
        """Evaluator point-tuple -> coordinate value for an integer
        polynomial, compiled once for this ring."""
        if self.int_modulus is not None:
            return poly.compile_int(self.int_modulus)
        return lambda point: poly.eval_elements(point, self.from_int)

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

    def _digit_to_base(self, d):
        """Lift a digit to a coefficient of the internal Galois ring."""
        if self.r == 1:
            return (d,)
        return tuple(d)

    def _base_residue(self, b):
        """Reduce an internal coefficient to a digit."""
        if self.r == 1:
            return b[0] % self.p
        return tuple(c % self.p for c in b)

    # -- internal free-module arithmetic ------------------------------------

    def _base_add(self, a, b):
        m = self._pbig
        return tuple((x + y) % m for x, y in zip(a, b))

    def _base_neg(self, a):
        m = self._pbig
        return tuple((-x) % m for x in a)

    def _base_int_mul(self, a, c):
        m = self._pbig
        return tuple(x * c % m for x in a)

    def _base_mul(self, a, b):
        if self.r == 1:
            return (a[0] * b[0] % self._pbig,)
        return _poly_mulmod(a, b, self.residue_field.modulus, self._pbig)

    def _vec_zero(self):
        return ((0,) * self.r,) * self.e

    def _vec_add(self, u, v):
        return tuple(self._base_add(a, b) for a, b in zip(u, v))

    def _vec_neg(self, u):
        return tuple(self._base_neg(a) for a in u)

    def _vec_mul_omega(self, u):
        if self.e == 1:
            return (self._base_int_mul(u[0], self.p),)
        top = u[-1]
        shifted = [self._base_int_mul(top, -self.eisenstein[0])]
        for j in range(1, self.e):
            shifted.append(
                self._base_add(u[j - 1], self._base_int_mul(top, -self.eisenstein[j]))
            )
        return tuple(shifted)

    def _vec_mul(self, u, v):
        e = self.e
        if e == 1:
            return (self._base_mul(u[0], v[0]),)
        prod = [(0,) * self.r for _ in range(2 * e - 1)]
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                prod[i + j] = self._base_add(prod[i + j], self._base_mul(a, b))
        # reduce powers omega^k, k >= e, via the monic Eisenstein relation
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            prod[k] = (0,) * self.r
            for j in range(e):
                prod[k - e + j] = self._base_add(
                    prod[k - e + j], self._base_int_mul(c, -self.eisenstein[j])
                )
        return tuple(prod[:e])

    def _to_internal(self, digits):
        acc = self._vec_zero()
        omega_pow = tuple(
            ((1,) + (0,) * (self.r - 1) if i == 0 else (0,) * self.r)
            for i in range(self.e)
        )
        for d in digits:
            lift = self._digit_to_base(d)
            term = tuple(self._base_mul(lift, coeff) for coeff in omega_pow)
            acc = self._vec_add(acc, term)
            omega_pow = self._vec_mul_omega(omega_pow)
        return acc

    def _div_omega(self, u):
        """y with omega * y = u, valid for u in the maximal ideal.

        Costs one p-digit of working precision per call; BIG = n+2 keeps
        all extracted digits exact.
        """
        p = self.p
        if self.e == 1:
            a = u[0]
            return (tuple((x % self._pbig) // p for x in a),)
        c0 = self.eisenstein[0]
        unit = c0 // p
        unit_inv = pow(unit, -1, self._pbig)
        a0 = u[0]
        a0_div_p = tuple((x % self._pbig) // p for x in a0)
        b_top = self._base_int_mul(self._base_int_mul(a0_div_p, unit_inv), -1)
        out = [None] * self.e
        out[self.e - 1] = b_top
        for j in range(1, self.e):
            out[j - 1] = self._base_add(
                u[j], self._base_int_mul(b_top, self.eisenstein[j])
            )
        return tuple(out)

    def _from_internal(self, vec):
        digits = []
        for _ in range(self.n + 1):
            d = self._base_residue(vec[0])
            digits.append(d)
            lift = self._digit_to_base(d)
            vec = self._vec_add(vec, self._vec_neg((lift,) + ((0,) * self.r,) * (self.e - 1)))
            vec = self._div_omega(vec)
        return tuple(digits)

    # -- public construction -------------------------------------------------

    def element(self, digits):
        digits = tuple(digits)
        if len(digits) != self.n + 1:
            raise ValueError(f"need exactly {self.n + 1} digits")
        canon = []
        for d in digits:
            if self.r == 1:
                canon.append(int(d) % self.p)
            else:
                canon.append(tuple(int(c) % self.p for c in d))
        return RingElement(self, tuple(canon))

    def from_int(self, c):
        base = (c % self._pbig,) + (0,) * (self.r - 1)
        vec = (base,) + ((0,) * self.r,) * (self.e - 1)
        return RingElement(self, self._from_internal(vec))

    def zero(self):
        return self.element((self._digit_zero(),) * (self.n + 1))

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
            yield RingElement(self, digits)

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
    """Element of a truncated local ring in canonical digit form.

    Two elements are equal iff their digit sequences are equal.
    """

    __slots__ = ("spec", "digits", "_internal")

    def __init__(self, spec, digits):
        self.spec = spec
        self.digits = tuple(digits)
        self._internal = None

    def internal(self):
        if self._internal is None:
            self._internal = self.spec._to_internal(self.digits)
        return self._internal

    def _check(self, other):
        if not isinstance(other, RingElement) or other.spec != self.spec:
            raise ValueError("elements of mismatched ring specs")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.spec.from_int(other)
        self._check(other)
        vec = self.spec._vec_add(self.internal(), other.internal())
        return RingElement(self.spec, self.spec._from_internal(vec))

    __radd__ = __add__

    def __neg__(self):
        vec = self.spec._vec_neg(self.internal())
        return RingElement(self.spec, self.spec._from_internal(vec))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.spec.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.spec.from_int(other)
        self._check(other)
        vec = self.spec._vec_mul(self.internal(), other.internal())
        return RingElement(self.spec, self.spec._from_internal(vec))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        result = self.spec.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def __bool__(self):
        """Nonzero test, read as on ints."""
        zero = self.spec._digit_zero()
        return any(d != zero for d in self.digits)

    def is_zero(self):
        return not self

    def ord(self):
        """Index of the first nonzero digit; INFINITY for zero."""
        zero = self.spec._digit_zero()
        for i, d in enumerate(self.digits):
            if d != zero:
                return i
        return INFINITY

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
        """Image in the residue field (digit 0)."""
        d = self.digits[0]
        return self.spec.residue_field.element((d,) if self.spec.r == 1 else d)

    def inv(self):
        if self.ord() != 0:
            raise NotInvertible("not a unit (positive valuation)")
        spec = self.spec
        r0 = self.residue().inv()
        y = spec.element(
            (r0.coeffs[0] if spec.r == 1 else r0.coeffs,)
            + (spec._digit_zero(),) * spec.n
        )
        yv = y.internal()
        xv = self.internal()
        one = spec.one()
        for _ in range((spec._big * spec.e).bit_length() + 2):
            cand = RingElement(spec, spec._from_internal(yv))
            if self * cand == one:
                return cand
            # Newton step y <- y (2 - x y)
            two_minus = spec._vec_add(
                spec.from_int(2).internal(), spec._vec_neg(spec._vec_mul(xv, yv))
            )
            yv = spec._vec_mul(yv, two_minus)
        raise NotInvertible("inverse iteration failed to converge")

    def reduce(self, m):
        """Truncate to level m <= n; a ring homomorphism."""
        return RingElement(self.spec.truncated(m), self.digits[: m + 1])

    def to_int(self):
        """Integer value for unramified prime rings."""
        if self.spec.int_modulus is None:
            raise ValueError("no canonical integer form for this ring")
        acc = 0
        for i, d in enumerate(self.digits):
            acc += d * self.spec.p**i
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.spec == other.spec
            and self.digits == other.digits
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.e, self.spec.n, self.spec.r, self.digits))

    def __repr__(self):
        return f"RingElement{self.digits}"
