"""Witt vectors of finite length: ghost components, structure polynomials,
Verschiebung/Frobenius, and the digit encoding of Z/p^L.

The addition/multiplication laws are never taken from tables: they are
obtained by solving the ghost equations over Z, where every division by a
power of p must be exact (an inexact division is an implementation bug and
aborts).  The solver runs on integers (`_ghost_solve`) and on packed dicts
of polyscheme's packed monomials (`_ghost_solve_packed`, for the cached
structure polynomials).  Digit expansions apply the laws mod p, or, to
coordinates that are functions on F_p, in F_p[d]/(d^p - d) on Witt vectors
of that ring's packed dicts (`_FoldedRing`).  `WittVector` over F_p
computes in Z/p^L through the Teichmuller digits.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .polyscheme import MultiPoly, _multiply_into, _radix, _reduce, _unpack, _unpack_halves
from .rings import BoundExceeded, at_least, prime

DEFAULT_LENGTH_BOUND = 5


class ExactDivisionError(ArithmeticError):
    """A ghost-equation division came out inexact; the solver is broken."""


# ---------------------------------------------------------------------------
# ghost components and the generic solver


def ghost_components(coords, p):
    """w_i = sum_(j<=i) p^j * x_j^(p^(i-j)), for integer or MultiPoly
    coordinates."""
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


def _ghost_solve(targets, p):
    """Unique integer coordinates with the given ghost vector; exactness
    of each division by p^i certifies the result."""
    coords = []
    for i, target in enumerate(targets):
        acc = target
        for j in range(i):
            acc = acc - (coords[j] ** (p ** (i - j))) * (p**j)
        coords.append(_exact_div_int(acc, p**i))
    return tuple(coords)


def _ghost_solve_packed(targets, p):
    """`_ghost_solve` on polynomials held as packed dicts (polyscheme's
    packed monomials), all in the one radix of the targets, which must lie
    above every exponent of every power the solve forms.  Each S_j keeps
    its chain of repeated squares S_j^(2^b) across the steps, every square
    formed once; step i multiplies the squares picked by the bits of
    p^(i-j) and divides by p^i coefficient by coefficient."""
    def mul(a, b):
        return _reduce(_multiply_into({}, a, b), None)

    coords, squares = [], []
    for i, target in enumerate(targets):
        acc = dict(target)
        for j, chain in enumerate(squares):
            k = p ** (i - j)
            while len(chain) < k.bit_length():
                chain.append(mul(chain[-1], chain[-1]))
            term = {0: -(p**j)}
            for b, square in enumerate(chain):
                if k >> b & 1:
                    term = mul(term, square)
            _multiply_into(acc, term, {0: 1})  # acc -= p^j S_j^(p^(i-j))
        coords.append({k: _exact_div_int(c, p**i) for k, c in _reduce(acc, None).items()})
        squares.append([coords[-1]])
    return coords


# ---------------------------------------------------------------------------
# numeric arithmetic on integer coordinates


def witt_add_int(a, b, p):
    ga = ghost_components(a, p)
    gb = ghost_components(b, p)
    return _ghost_solve([x + y for x, y in zip(ga, gb)], p)


def witt_mul_int(a, b, p):
    ga = ghost_components(a, p)
    gb = ghost_components(b, p)
    return _ghost_solve([x * y for x, y in zip(ga, gb)], p)


def witt_neg_int(a, p):
    ga = ghost_components(a, p)
    return _ghost_solve([-x for x in ga], p)


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
    equations, solved on packed dicts (`_ghost_solve_packed`) in one odd
    radix above p^(L-1): S_j is weighted-homogeneous of degree p^j with
    x_k, y_k of weight p^k, and P_j so in x and in y apart, so no
    exponent of any power S_j^(p^(i-j)) or ghost component exceeds
    p^(L-1).  Each component is unpacked once (`_unpack_halves`).
    `add_modp`/`mul_modp` are their mod-p reductions, the law for
    F_p-algebra coordinates; `add_folded`/`mul_folded` are those as
    functions on F_p (`_fold` term dicts), the law for coordinates that
    take F_p values, kept only as `add_groups`/`mul_groups`, grouped by
    `_group` on first use.  S_i and P_i involve only x_0..x_i, y_0..y_i.
    """

    def __init__(self, p, length):
        self.p = p
        self.length = length
        names = tuple(f"x_{i}" for i in range(length)) + tuple(
            f"y_{i}" for i in range(length)
        )
        self.variables = names
        radix = _radix(p ** (length - 1))

        def ghost(first):  # packed ghost components of variables first, first+1, ...
            return [{p ** (i - j) * radix ** (first + j): p**j for j in range(i + 1)}
                    for i in range(length)]

        def solve(targets):
            coords = _ghost_solve_packed(targets, p)
            return tuple(MultiPoly(names, _unpack_halves(c, len(names), radix)) for c in coords)

        gx, gy = ghost(0), ghost(length)
        self.add_int = solve([{**a, **b} for a, b in zip(gx, gy)])
        self.mul_int = solve([_multiply_into({}, a, b) for a, b in zip(gx, gy)])
        self.add_modp = tuple(s.reduce_coeffs(p) for s in self.add_int)
        self.mul_modp = tuple(s.reduce_coeffs(p) for s in self.mul_int)

    @property
    def add_folded(self):
        return tuple(_fold(s, self.p) for s in self.add_modp)

    @property
    def mul_folded(self):
        return tuple(_fold(s, self.p) for s in self.mul_modp)

    @functools.cached_property
    def add_groups(self):
        return _group(self.add_folded, self.length)

    @functools.cached_property
    def mul_groups(self):
        return _group(self.mul_folded, self.length)


_structure_cache = {}


def check_structure_args(p, length):
    """Refuse what `structure_polynomials` refuses, building nothing:
    ValueError for a length below 1, BoundExceeded for a length over
    DEFAULT_LENGTH_BOUND, ValueError for a non-prime p, in that order."""
    at_least("Witt length", length, 1)
    if length > DEFAULT_LENGTH_BOUND:
        raise BoundExceeded(f"length {length} exceeds bound {DEFAULT_LENGTH_BOUND}")
    prime(p)


def structure_polynomials(p, length):
    """Structure polynomials for (p, length), computed once and cached.

    The cache is write-once/read-many; results are safe to share.  Refuses
    as `check_structure_args` does.
    """
    check_structure_args(p, length)
    key = (p, length)
    if key not in _structure_cache:
        _structure_cache[key] = StructurePolys(p, length)
    return _structure_cache[key]


# ---------------------------------------------------------------------------
# symbolic arithmetic (MultiPoly coordinates mod p) for digit expansions


def _fold(g, p):
    """g as a function on F_p: every exponent e >= 1 becomes
    (e - 1) % (p - 1) + 1, exact because a^p = a on F_p; like terms
    merge, coefficients are reduced mod p and zero terms dropped.  This is
    reduction modulo the ideal of all d^p - d, and every exponent of the
    result is at most p - 1, so two polynomials are the same function on
    F_p exactly when their folds are equal."""
    top = max(itertools.chain.from_iterable(g.terms), default=0)
    fold = [0] + [(e - 1) % (p - 1) + 1 for e in range(1, top + 1)]
    folded = {}
    for expo, coeff in g.terms.items():
        key = tuple(map(fold.__getitem__, expo))
        folded[key] = folded.get(key, 0) + coeff
    return {expo: c for expo, coeff in folded.items() if (c := coeff % p)}


class _FoldedRing:
    """F_p[d_0, ..., d_(n-1)]/(d_i^p - d_i), the functions on F_p^n, on
    packed monomials in radix 2^w with w = (2p - 2).bit_length().  Folded
    exponents are at most p - 1, so a product of two monomials has every
    digit at most 2p - 2 < 2^w and carries nothing.  `mul` then maps every
    digit e >= p to e - (p - 1), as `_fold` does, in one expression:
    adding 2^(w-1) - p to each digit sets its top bit exactly when
    e >= p, and 2^(w-1) >= p keeps the sum inside the digit."""

    def __init__(self, p, n):
        self.p, self.n = p, n
        self.w = w = (2 * p - 2).bit_length()
        ones = sum(1 << (w * i) for i in range(n))
        self.offset = ones * ((1 << (w - 1)) - p)
        self.tops = ones << (w - 1)

    def unpack(self, packed):
        return _unpack(packed, self.n, 1 << self.w)

    def mul(self, a, b):
        """a*b: the product loop of `polyscheme._multiply_into`, with
        each key folded and the result reduced mod p."""
        q, offset, tops, shift = self.p - 1, self.offset, self.tops, self.w - 1
        out = {}
        get = out.get
        b = b.items()
        for k1, c1 in a.items():
            for k2, c2 in b:
                k = k1 + k2
                k -= q * (((k + offset) & tops) >> shift)
                out[k] = get(k, 0) + c1 * c2
        p = self.p
        return {k: r for k, c in out.items() if (r := c % p)}


def _apply_law(law, a_coords, b_coords, p, polys, ring):
    """The Witt law `law` at the coordinates a, b, substituted mod p.  With
    a `_FoldedRing`, coordinates and result are its packed dicts and `law`
    is grouped by `_group`: a component is the sum over alpha of
    a^alpha * (sum_beta c b^beta), one product per alpha, and each power
    of a coordinate and each a^alpha, b^beta is formed once."""
    images = a_coords + b_coords
    if ring is None:
        mapping = dict(zip(polys.variables, images))
        return tuple(s.substitute(mapping, modulus=p) for s in law)
    L = len(a_coords)
    powers = [[{0: 1}, img] for img in images]  # powers[j][e] = image_j^e
    memos = ({}, {})

    def product(expo, half):  # a^expo (half 0) or b^expo (half 1)
        memo = memos[half]
        if expo not in memo:
            value = None
            for pw, e in zip(powers[half * L:], expo):
                if e:
                    while len(pw) <= e:
                        pw.append(ring.mul(pw[-1], pw[1]))
                    value = pw[e] if value is None else ring.mul(value, pw[e])
            memo[expo] = {0: 1} if value is None else value
        return memo[expo]

    out = []
    for component in law:
        acc = {}
        for alpha, terms in component.items():
            inner = {}
            for beta, c in terms:
                for k, v in product(beta, 1).items():
                    inner[k] = inner.get(k, 0) + c * v
            for k, v in ring.mul(product(alpha, 0), inner).items():
                acc[k] = acc.get(k, 0) + v
        out.append(_reduce(acc, p))
    return tuple(out)


def _group(law, L):
    """Each component of a folded law as {alpha: [(beta, c), ...]}, its
    terms grouped by their exponents alpha in x."""
    out = []
    for component in law:
        groups = {}
        for expo, c in component.items():
            groups.setdefault(expo[:L], []).append((expo[L:], c))
        out.append(groups)
    return tuple(out)


def witt_add_sym(a_coords, b_coords, p, folded=None):
    """Witt sum of two vectors of polynomials over F_p.  With `folded`, a
    `_FoldedRing`, coordinates and result are its packed dicts, functions
    on F_p, and the result is the fold of the exact sum."""
    polys = structure_polynomials(p, len(a_coords))
    law = polys.add_groups if folded else polys.add_modp
    return _apply_law(law, a_coords, b_coords, p, polys, folded)


def witt_mul_sym(a_coords, b_coords, p, folded=None):
    """Witt product, as `witt_add_sym` is the sum."""
    polys = structure_polynomials(p, len(a_coords))
    law = polys.mul_groups if folded else polys.mul_modp
    return _apply_law(law, a_coords, b_coords, p, polys, folded)


# ---------------------------------------------------------------------------
# Teichmuller digits: the ring isomorphism Z/p^L = W_L(F_p)


def teichmuller(c, p, precision):
    """Multiplicative lift of c mod p to Z/p^precision: c^(p^(k-1)) mod p^k
    is the (p-1)-th root of unity that is c mod p, or 0 when p divides c."""
    return pow(c, p ** max(precision - 1, 0), p**precision)


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
    Z ("Z" ring tag, the oracle domain) or over F_p ("Fp"), p prime."""

    __slots__ = ("p", "coords", "base")

    def __init__(self, p, coords, base="Fp"):
        if base not in ("Z", "Fp"):
            raise ValueError("base must be 'Z' or 'Fp'")
        prime(p)
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

    def _apply(self, int_law, op, *others):
        """`int_law` on integer coordinates; over F_p, `op` in Z/p^L through
        the Teichmuller isomorphism Z/p^L = W_L(F_p), where solving the ghost
        equations (the tests' reference) costs about p^(L-1) log p bits."""
        for other in others:
            self._check(other)
        vectors = (self,) + others
        if self.base == "Z":
            return WittVector(self.p, int_law(*(v.coords for v in vectors), self.p), "Z")
        value = op(*(int_from_witt(v.coords, self.p) for v in vectors))
        return WittVector(self.p, witt_from_int(value, self.p, self.length))

    def __add__(self, other):
        return self._apply(witt_add_int, operator.add, other)

    def __mul__(self, other):
        return self._apply(witt_mul_int, operator.mul, other)

    def __neg__(self):
        return self._apply(witt_neg_int, operator.neg)

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
