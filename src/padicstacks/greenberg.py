"""Digit expansion of affine schemes: from X over Z to a scheme over F_p
whose F_p-points biject with X(Z/p^(n+1)) through Witt digit coordinates.

Unramified case only (omega = p, prime residue field).  Integer constants
enter through their Teichmuller digit vectors, never naive base-p digits;
otherwise the digit bijection would fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .polyscheme import AffineScheme, MultiPoly
from .rings import BoundExceeded, size_limit
from .witt import (
    DEFAULT_LENGTH_BOUND,
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


def _witt_const(c, p, length, names):
    digits = witt_from_int(c, p, length)
    return tuple(MultiPoly.constant(names, d) for d in digits)


def _is_one(coords):
    return (
        coords[0].is_constant()
        and coords[0].constant_value() == 1
        and all(c.is_zero() for c in coords[1:])
    )


def expand_poly(f, p, length, names=None):
    """Digit components of f evaluated on generic Witt vectors.

    Returns `length` polynomials over F_p in the digit variables; component
    i only involves digit variables of index <= i.
    """
    if names is None:
        names = digit_variables(f.variables, length)
    var_witt = {
        v: tuple(
            MultiPoly.variable(names, f"{v}_{i}") for i in range(length)
        )
        for v in f.variables
    }
    zero = tuple(MultiPoly.zero(names) for _ in range(length))
    acc = zero
    for expo, coeff in f.sorted_terms():
        term = None
        for v, e in zip(f.variables, expo):
            for _ in range(e):
                term = var_witt[v] if term is None else witt_mul_sym(term, var_witt[v], p)
        const = _witt_const(coeff, p, length, names)
        if term is None:
            term = const
        elif not _is_one(const):
            term = witt_mul_sym(term, const, p)
        acc = witt_add_sym(acc, term, p)
    return acc


@dataclass(frozen=True)
class GreenbergScheme:
    """Result of the digit expansion at a fixed prime and level.

    `scheme` is an affine scheme over F_p in N*(n+1) digit variables; its
    F_p-points decode to exactly the Z/p^(n+1)-points of the source.
    `component_gens[i]` collects the digit-i component of every source
    generator (used for level-by-level enumeration)."""

    source: AffineScheme
    p: int
    level: int
    scheme: AffineScheme
    blocks: tuple
    component_gens: tuple

    @property
    def length(self):
        return self.level + 1

    # -- digit coding --------------------------------------------------------

    def decode_point(self, point):
        """F_p-point of the expansion -> integer point mod p^(n+1)."""
        L = self.length
        out = []
        for j in range(len(self.source.variables)):
            digits = point[j * L : (j + 1) * L]
            out.append(int_from_witt(digits, self.p))
        return tuple(out)

    def encode_point(self, zp_point):
        """Integer point mod p^(n+1) -> F_p-point of the expansion."""
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
        limit = size_limit(bound)
        p = self.p
        L = self.length
        nv = len(self.source.variables)
        width = nv * L
        # positions of the level-i digits inside the flat coordinate tuple
        positions = [[j * L + i for j in range(nv)] for i in range(L)]
        compiled = [
            [g.compile_int(p) for g in level_gens]
            for level_gens in self.component_gens
        ]
        frontier = [(0,) * width]
        for i in range(L):
            new_frontier = []
            for partial in frontier:
                base = list(partial)
                for digits in itertools.product(range(p), repeat=nv):
                    for pos, d in zip(positions[i], digits):
                        base[pos] = d
                    cand = tuple(base)
                    if all(ev(cand) == 0 for ev in compiled[i]):
                        new_frontier.append(cand)
                if len(new_frontier) > limit:
                    raise BoundExceeded(
                        f"digit frontier exceeds bound {limit}"
                    )
            frontier = new_frontier
        frontier.sort()
        return frontier

    def count_points(self, bound=None):
        return len(self.enumerate_points(bound))

    # -- truncation -----------------------------------------------------------

    def truncate_point(self, point, m):
        """Drop digit blocks above level m; matches reduction mod p^(m+1)
        through the digit coding."""
        if m > self.level:
            raise ValueError("can only truncate downward")
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


def greenberg_transform(X, p, n, length_bound=DEFAULT_LENGTH_BOUND):
    """Expand every generator of X into its n+1 digit components over F_p."""
    length = n + 1
    if length > length_bound:
        raise BoundExceeded(f"digit length {length} exceeds bound {length_bound}")
    names = digit_variables(X.variables, length)
    per_gen = [expand_poly(f, p, length, names) for f in X.generators]
    flat = tuple(component for comps in per_gen for component in comps)
    component_gens = tuple(
        tuple(comps[i] for comps in per_gen) for i in range(length)
    )
    blocks = tuple(
        tuple(f"{v}_{i}" for i in range(length)) for v in X.variables
    )
    scheme = AffineScheme(
        f"Gr{n}({X.name})", names, flat, min(length * X.dim, len(names))
    )
    return GreenbergScheme(X, p, n, scheme, blocks, component_gens)
