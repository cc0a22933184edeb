"""Digit expansion of affine schemes: from X over Z to a scheme over F_p
whose F_p-points biject with X(Z/p^(n+1)) through Witt digit coordinates.

Unramified case only (omega = p, prime residue field).  Integer constants
enter through their Teichmuller digit vectors, never naive base-p digits;
otherwise the digit bijection would fail.
"""

from __future__ import annotations

import functools
import itertools
import math

from .polyscheme import AffineScheme, MultiPoly
from .rings import BoundExceeded, at_least, prime, record, size_limit
from .witt import (
    DEFAULT_LENGTH_BOUND,
    _FoldedRing,
    int_from_witt,
    witt_add_sym,
    witt_from_int,
    witt_mul_sym,
)


def digit_variables(variables, length):
    """Deterministic digit variable names: source var v, digit i -> v_i."""
    names = tuple(f"{v}_{i}" for v in variables for i in range(length))
    if len(set(names)) != len(names) or set(names) & set(variables):
        raise ValueError("source variable names collide with digit naming")
    return names


def expand_poly(f, p, length, names=None):
    """Digit components of f evaluated on generic Witt vectors.

    Returns `length` polynomials over F_p in the digit variables; component
    i only involves digit variables of index <= i.
    """
    if names is None:
        names = digit_variables(f.variables, length)
    return _expand(f, p, length, names, folded=False)


def _expand(f, p, length, names, folded):
    """The term loop of `expand_poly`.  With `folded` every Witt sum and
    product runs on packed dicts of `_FoldedRing`, the functions on F_p:
    digit variable i is {1 << w*i: 1}, a constant digit d is {0: d} ({} for
    0), and only the final components, `_fold` of the exact ones, unpack."""
    ring = _FoldedRing(p, len(names)) if folded else None
    var_witt = {
        v: tuple({1 << ring.w * names.index(f"{v}_{i}"): 1} if ring
                 else MultiPoly.variable(names, f"{v}_{i}") for i in range(length))
        for v in f.variables
    }
    acc = None
    for expo, coeff in f.sorted_terms():
        if coeff % p**length == 0:
            continue  # its Witt vector is zero
        term = None
        for v, e in zip(f.variables, expo):
            for _ in range(e):
                term = (var_witt[v] if term is None
                        else witt_mul_sym(term, var_witt[v], p, folded=ring))
        # Teichmuller digit coding is a bijection Z/p^L -> W_L(F_p), so the
        # constant is the Witt vector one exactly when coeff = 1 mod p^L
        if term is None or coeff % p**length != 1:
            const = tuple(({0: d} if d else {}) if ring else MultiPoly.constant(names, d)
                          for d in witt_from_int(coeff, p, length))
            term = const if term is None else witt_mul_sym(term, const, p, folded=ring)
        acc = term if acc is None else witt_add_sym(acc, term, p, folded=ring)
    if acc is None:
        return tuple(MultiPoly.zero(names) for _ in range(length))
    return acc if ring is None else tuple(MultiPoly(names, ring.unpack(c)) for c in acc)


def _split_level(gens, positions, p, candidates):
    """Split the digit-level generators, functions on F_p already folded
    (`_fold`), by their exponent vectors beta in the level digits at
    `positions`: g = sum_beta digits^beta * h_beta.

    Returns (split, table).  split[k] lists the pairs (b, h_b) of
    generator k, h_b a tuple of (coeff mod p, ((position, e), ...)) terms
    in the other digits; table[b] holds the value mod p of monomial b at
    every candidate digit tuple."""
    level = {pos: j for j, pos in enumerate(positions)}
    betas = {}
    split = []
    for g in gens:
        groups = {}
        for expo, c in g.terms.items():
            beta = [0] * len(positions)
            factors = []
            for pos, e in enumerate(expo):
                if not e:
                    continue
                if pos in level:
                    beta[level[pos]] = e
                else:
                    factors.append((pos, e))
            b = betas.setdefault(tuple(beta), len(betas))
            groups.setdefault(b, []).append((c, tuple(factors)))
        split.append(tuple((b, tuple(terms)) for b, terms in groups.items()))
    table = [
        [math.prod(d**e for d, e in zip(digits, beta)) % p for digits in candidates]
        for beta in betas
    ]
    return split, table


def _surviving_digits(split, table, point, p, size):
    """Indices of the candidate digit tuples at which every split
    generator vanishes, the lower digits read from `point`: each h_beta
    is evaluated once, then summed against its row of monomial values."""
    alive = range(size)
    for gen in split:
        values = [0] * size
        for b, terms in gen:
            h = 0
            for c, factors in terms:
                for pos, e in factors:
                    if not point[pos]:
                        break
                    c *= point[pos] ** e
                else:
                    h += c
            h %= p
            if h:
                values = [v + h * t for v, t in zip(values, table[b])]
        alive = [k for k in alive if values[k] % p == 0]
        if not alive:
            break
    return alive


@record(frozen=True)
class GreenbergScheme:
    """The digit expansion of `source` at the prime p and level n.

    Its F_p-points, N*(n+1) digits each (the n+1 digits of the first
    source variable, then of the next), decode to exactly the
    Z/p^(n+1)-points of the source.  Nothing is expanded when the record
    is made.  The exact components (`scheme`, `component_gens`,
    `emit_equations`) are built when first read; the point search reads
    only the components as functions on F_p, built in that ring."""

    source: AffineScheme
    p: int
    level: int

    def __post_init__(self):
        """Refuse a level as `digit_length` does, a p that is not prime and
        source variable names that collide with the digit names."""
        prime(self.p)
        digit_variables(self.source.variables, digit_length(self.level))

    @property
    def length(self):
        return self.level + 1

    @functools.cached_property
    def scheme(self):
        """The exact expansion: an affine scheme over F_p in the digit
        variables, generator k's n+1 components in a row."""
        X, L = self.source, self.length
        names = digit_variables(X.variables, L)
        flat = tuple(c for f in X.generators for c in expand_poly(f, self.p, L, names))
        return AffineScheme(f"Gr{self.level}({X.name})", names, flat,
                            min(L * X.dim, len(names)))

    @property
    def component_gens(self):
        """component_gens[i]: the exact digit-i component of every source
        generator, in generator order."""
        L = self.length
        return tuple(self.scheme.generators[i::L] for i in range(L))

    @functools.cached_property
    def _folded_gens(self):
        """`component_gens` as functions on F_p, each equal to `_fold` of
        the exact component, expanded with the folded Witt laws."""
        X, L = self.source, self.length
        names = digit_variables(X.variables, L)
        per_gen = [_expand(f, self.p, L, names, folded=True) for f in X.generators]
        return tuple(tuple(comps[i] for comps in per_gen) for i in range(L))

    # -- digit coding --------------------------------------------------------

    def _check_digits(self, point):
        """Refuse a point that is not N*(n+1) digits in 0..p-1."""
        size = len(self.source.variables) * self.length
        if len(point) != size:
            raise ValueError(f"a point of the expansion has {size} digits, got {len(point)}")
        if any(not 0 <= d < self.p for d in point):
            raise ValueError(f"digits lie in 0..{self.p - 1}, got {tuple(point)}")

    def decode_point(self, point):
        """F_p-point of the expansion -> integer point mod p^(n+1)."""
        self._check_digits(point)
        L = self.length
        out = []
        for j in range(len(self.source.variables)):
            digits = point[j * L : (j + 1) * L]
            out.append(int_from_witt(digits, self.p))
        return tuple(out)

    def encode_point(self, zp_point):
        """Integer point mod p^(n+1) -> F_p-point of the expansion."""
        nv = len(self.source.variables)
        if len(zp_point) != nv:
            raise ValueError(f"a source point has {nv} coordinates, got {len(zp_point)}")
        coords = []
        for a in zp_point:
            coords.extend(witt_from_int(a, self.p, self.length))
        return tuple(coords)

    # -- enumeration ----------------------------------------------------------

    def enumerate_points(self, bound=None):
        """All F_p-points, found digit level by digit level.

        Component i of every generator only involves digits <= i, so partial
        assignments can be pruned as soon as a visible component fails.
        Returns a sorted list of coordinate tuples (scheme variable order).
        """
        frontier = self._search(bound, keep_last=True)
        frontier.sort()
        return frontier

    def count_points(self, bound=None):
        """Number of F_p-points; the last digit level is counted, not
        listed.  Refuses exactly where enumerate_points does."""
        return self._search(bound, keep_last=False)

    def _search(self, bound, keep_last):
        """The frontier search of enumerate_points: the last level's points
        in search order, or only their number when not `keep_last`.

        The search reads only the components as functions on F_p
        (`_folded_gens`), never the exact ones.  At level i each is split
        by its exponent vector beta in the N level-i digits,
        g = sum_beta (level-i digits)^beta * h_beta(lower digits).  A
        frontier point evaluates each h_beta once;
        its p^N candidate digit tuples are then tested against the
        coefficient vectors, with one table of beta-monomial values per
        level.  Candidates come in the order of itertools.product.
        """
        limit = size_limit(bound)
        p = self.p
        L = self.length
        nv = len(self.source.variables)
        candidates = list(itertools.product(range(p), repeat=nv))
        frontier = [(0,) * nv * L]
        for i, level_gens in enumerate(self._folded_gens):
            positions = [j * L + i for j in range(nv)]
            split, table = _split_level(level_gens, positions, p, candidates)
            new_frontier = []
            count = 0
            for partial in frontier:
                alive = _surviving_digits(split, table, partial, p, len(candidates))
                count += len(alive)
                if keep_last or i < L - 1:
                    base = list(partial)
                    for c in alive:
                        for pos, d in zip(positions, candidates[c]):
                            base[pos] = d
                        new_frontier.append(tuple(base))
                if count > limit:
                    raise BoundExceeded(f"digit frontier exceeds bound {limit}")
            frontier = new_frontier
        return frontier if keep_last else count

    # -- truncation -----------------------------------------------------------

    def truncate_point(self, point, m):
        """Drop digit blocks above level m; matches reduction mod p^(m+1)
        through the digit coding."""
        self._check_digits(point)
        if not 0 <= m <= self.level:
            raise ValueError(f"truncation level must lie in 0..{self.level}, got {m}")
        L = self.length
        nv = len(self.source.variables)
        out = []
        for j in range(nv):
            out.extend(point[j * L : j * L + m + 1])
        return tuple(out)

    def emit_equations(self):
        """Deterministic text listing of the F_p generators."""
        lines = []
        for gi, g in enumerate(self.scheme.generators):
            lines.append(f"gen[{gi}] = {g.to_text()}")
        return lines


def digit_length(n):
    """Digit length n+1 of level n.  Raises ValueError for a negative level
    and BoundExceeded for more than DEFAULT_LENGTH_BOUND digits."""
    at_least("level", n, 0)
    length = n + 1
    if length > DEFAULT_LENGTH_BOUND:
        raise BoundExceeded(
            f"digit length {length} exceeds bound {DEFAULT_LENGTH_BOUND}"
        )
    return length


def greenberg_transform(X, p, n):
    """The digit expansion of X at p and level n, as a `GreenbergScheme`
    that expands nothing until it is read (and refuses what the record
    refuses)."""
    return GreenbergScheme(X, p, n)
