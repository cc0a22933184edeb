"""Witt vectors of finite length: ghost components, structure polynomials,
Verschiebung/Frobenius, and the digit encoding of Z/p^L.

The addition/multiplication laws are never taken from tables: they are
obtained by solving the ghost equations over Z, where every division by a
power of p must be exact (an inexact division is an implementation bug and
aborts).  The same solver runs on integer coordinates (numeric arithmetic,
used by the oracles) and on polynomial coordinates (producing the cached
structure polynomials).
"""

from __future__ import annotations

from .polyscheme import MultiPoly
from .rings import BoundExceeded, is_prime

DEFAULT_LENGTH_BOUND = 5


class ExactDivisionError(ArithmeticError):
    """A ghost-equation division came out inexact; the solver is broken."""


# ---------------------------------------------------------------------------
# ghost components and the generic solver


def ghost_components(coords, p):
    """w_i = sum_(j<=i) p^j * x_j^(p^(i-j)), for integer coordinates."""
    out = []
    for i in range(len(coords)):
        acc = 0
        for j in range(i + 1):
            acc += p**j * coords[j] ** (p ** (i - j))
        out.append(acc)
    return tuple(out)


def _exact_div_int(value, d):
    q, rem = divmod(value, d)
    if rem:
        raise ExactDivisionError(f"inexact division by {d}")
    return q


def _exact_div_poly(poly, d):
    terms = {}
    for expo, coeff in poly.terms.items():
        q, rem = divmod(coeff, d)
        if rem:
            raise ExactDivisionError(f"inexact division by {d}")
        terms[expo] = q
    return MultiPoly(poly.variables, terms)


def _ghost_solve(targets, p, exact_div):
    """Unique coordinates with the given ghost vector.

    Works over any torsion-free coefficient domain supporting -, * and
    integer powers; exactness of each division by p^i certifies the result.
    """
    coords = []
    for i, target in enumerate(targets):
        acc = target
        for j in range(i):
            acc = acc - (coords[j] ** (p ** (i - j))) * (p**j)
        coords.append(exact_div(acc, p**i))
    return tuple(coords)


# ---------------------------------------------------------------------------
# numeric arithmetic on integer coordinates


def witt_add_int(a, b, p):
    ga = ghost_components(a, p)
    gb = ghost_components(b, p)
    return _ghost_solve([x + y for x, y in zip(ga, gb)], p, _exact_div_int)


def witt_mul_int(a, b, p):
    ga = ghost_components(a, p)
    gb = ghost_components(b, p)
    return _ghost_solve([x * y for x, y in zip(ga, gb)], p, _exact_div_int)


def witt_neg_int(a, p):
    ga = ghost_components(a, p)
    return _ghost_solve([-x for x in ga], p, _exact_div_int)


# mod-p coordinates: lift to Z, run the integral law, reduce.  This equals
# evaluating the mod-p structure polynomials, since evaluation commutes with
# reduction.


def witt_add_modp(a, b, p):
    return tuple(c % p for c in witt_add_int(a, b, p))


def witt_mul_modp(a, b, p):
    return tuple(c % p for c in witt_mul_int(a, b, p))


def witt_neg_modp(a, p):
    return tuple(c % p for c in witt_neg_int(a, p))


def witt_scalar_modp(k, a, p):
    """k-fold Witt sum of a vector over F_p."""
    acc = (0,) * len(a)
    for _ in range(k % p ** len(a)):
        acc = witt_add_modp(acc, a, p)
    return acc


# ---------------------------------------------------------------------------
# Verschiebung and Frobenius (coordinates over an F_p-algebra)


def verschiebung(coords):
    """Shift: (a_0, ..., a_(L-1)) -> (0, a_0, ..., a_(L-2))."""
    return (0,) + tuple(coords[:-1])


def frobenius_modp(coords, p):
    """Componentwise p-th power; on F_p itself this is the identity."""
    return tuple(pow(c, p, p) for c in coords)


# ---------------------------------------------------------------------------
# structure polynomials


class StructurePolys:
    """Cached addition/multiplication laws for W_L at a fixed prime.

    `add_int`/`mul_int` are the unique integral solutions of the ghost
    equations; `add_modp`/`mul_modp` are their mod-p reductions, which is
    where the law actually lives for F_p-algebra coordinates.  S_i and P_i
    involve only x_0..x_i, y_0..y_i.
    """

    def __init__(self, p, length):
        self.p = p
        self.length = length
        names = tuple(f"x_{i}" for i in range(length)) + tuple(
            f"y_{i}" for i in range(length)
        )
        self.variables = names
        xs = [MultiPoly.variable(names, f"x_{i}") for i in range(length)]
        ys = [MultiPoly.variable(names, f"y_{i}") for i in range(length)]
        gx = self._ghost_sym(xs, p)
        gy = self._ghost_sym(ys, p)
        self.add_int = _ghost_solve(
            [a + b for a, b in zip(gx, gy)], p, _exact_div_poly
        )
        self.mul_int = _ghost_solve(
            [a * b for a, b in zip(gx, gy)], p, _exact_div_poly
        )
        self.neg_int = _ghost_solve([-a for a in gx], p, _exact_div_poly)
        self.add_modp = tuple(s.reduce_coeffs(p) for s in self.add_int)
        self.mul_modp = tuple(s.reduce_coeffs(p) for s in self.mul_int)
        self.neg_modp = tuple(s.reduce_coeffs(p) for s in self.neg_int)

    @staticmethod
    def _ghost_sym(coords, p):
        out = []
        for i in range(len(coords)):
            acc = MultiPoly(coords[0].variables)
            for j in range(i + 1):
                acc = acc + coords[j] ** (p ** (i - j)) * p**j
            out.append(acc)
        return out


_structure_cache = {}


def structure_polynomials(p, length, bound=DEFAULT_LENGTH_BOUND):
    """Structure polynomials for (p, length), computed once and cached.

    The cache is write-once/read-many; results are safe to share.  Raises
    BoundExceeded when length is over `bound` and ValueError for a
    non-prime p.
    """
    if length > bound:
        raise BoundExceeded(f"length {length} exceeds bound {bound}")
    key = (p, length)
    if key not in _structure_cache:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        _structure_cache[key] = StructurePolys(p, length)
    return _structure_cache[key]


# ---------------------------------------------------------------------------
# symbolic arithmetic (MultiPoly coordinates mod p) for digit expansions


def _apply_law(law, a_coords, b_coords, p, polys):
    mapping = {}
    for i in range(polys.length):
        mapping[f"x_{i}"] = a_coords[i]
        mapping[f"y_{i}"] = b_coords[i]
    return tuple(s.substitute(mapping, modulus=p) for s in law)


def witt_add_sym(a_coords, b_coords, p):
    polys = structure_polynomials(p, len(a_coords))
    return _apply_law(polys.add_modp, a_coords, b_coords, p, polys)


def witt_mul_sym(a_coords, b_coords, p):
    polys = structure_polynomials(p, len(a_coords))
    return _apply_law(polys.mul_modp, a_coords, b_coords, p, polys)


# ---------------------------------------------------------------------------
# Teichmuller digits: the ring isomorphism Z/p^L = W_L(F_p)


def teichmuller(c, p, precision):
    """Multiplicative lift of c mod p to Z/p^precision (fixpoint of x->x^p)."""
    m = p**precision
    x = c % m
    for _ in range(precision + 2):
        nx = pow(x, p, m)
        if nx == x:
            break
        x = nx
    return x


def witt_from_int(a, p, length):
    """Witt digits over F_p of the class of a in Z/p^length.

    Successive Teichmuller subtraction; never the naive base-p digits.
    """
    digits = []
    for i in range(length):
        precision = length - i
        mi = p**precision
        a %= mi
        d = a % p
        digits.append(d)
        a = (a - teichmuller(d, p, precision)) % mi
        a = _exact_div_int(a, p)
    return tuple(digits)


def int_from_witt(digits, p):
    """Inverse digit map: sum of p^i * teichmuller(d_i) in Z/p^L."""
    length = len(digits)
    m = p**length
    acc = 0
    for i, d in enumerate(digits):
        acc += teichmuller(d, p, length) * p**i
    return acc % m


# ---------------------------------------------------------------------------
# a thin vector wrapper


class WittVector:
    """Fixed-length Witt vector; coordinates are integers, interpreted over
    Z ("Z" ring tag, the oracle domain) or over F_p ("Fp")."""

    __slots__ = ("p", "coords", "base")

    def __init__(self, p, coords, base="Fp"):
        if base not in ("Z", "Fp"):
            raise ValueError("base must be 'Z' or 'Fp'")
        self.p = p
        self.base = base
        coords = tuple(int(c) for c in coords)
        if base == "Fp":
            coords = tuple(c % p for c in coords)
        self.coords = coords

    @property
    def length(self):
        return len(self.coords)

    def _check(self, other):
        if (self.p, self.base, self.length) != (other.p, other.base, other.length):
            raise ValueError("mismatched Witt vectors")

    def __add__(self, other):
        self._check(other)
        fn = witt_add_int if self.base == "Z" else witt_add_modp
        return WittVector(self.p, fn(self.coords, other.coords, self.p), self.base)

    def __mul__(self, other):
        self._check(other)
        fn = witt_mul_int if self.base == "Z" else witt_mul_modp
        return WittVector(self.p, fn(self.coords, other.coords, self.p), self.base)

    def __neg__(self):
        fn = witt_neg_int if self.base == "Z" else witt_neg_modp
        return WittVector(self.p, fn(self.coords, self.p), self.base)

    def __sub__(self, other):
        return self + (-other)

    def V(self):
        return WittVector(self.p, verschiebung(self.coords), self.base)

    def F(self):
        if self.base != "Fp":
            raise ValueError("the componentwise Frobenius needs F_p coordinates")
        return WittVector(self.p, frobenius_modp(self.coords, self.p), self.base)

    def ghost(self):
        if self.base != "Z":
            raise ValueError("ghost components need integer coordinates")
        return ghost_components(self.coords, self.p)

    def truncate(self, length):
        if length > self.length:
            raise ValueError("can only truncate downward")
        return WittVector(self.p, self.coords[:length], self.base)

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and (self.p, self.base, self.coords) == (other.p, other.base, other.coords)
        )

    def __hash__(self):
        return hash((self.p, self.base, self.coords))

    def __repr__(self):
        return f"WittVector(p={self.p}, {self.coords}, {self.base})"
