"""Homotopy-weighted point counts for quotient stacks [X/G].

Finite constant groups go through twisted sectors with Frobenius descent:
over F_q the weighted count is (1/|G|) * sum over g of the fixed points of
Frobenius twisted by g, living in the degree-ord(g) extension.  The
special groups G_a, G_m, GL_k (k <= 3) admit only trivial torsors, so
their quotients count as |X(R)| / |G(R)| with closed-form group sizes.

Finite constant groups over truncated rings of positive level would need
twisted sectors over Galois rings; that case is refused, not approximated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .polyscheme import MultiPoly, count_points, enumerate_points
from .rings import FiniteField, LocalRingSpec, size_limit


class UnsupportedStack(ValueError):
    """Requested a stacky count outside the supported presentations."""


class GroupDataError(ValueError):
    """Multiplication table fails the group axioms."""


# ---------------------------------------------------------------------------
# finite constant groups


class FiniteGroupData:
    """Finite group given by labels and an explicit multiplication table.

    Associativity, identity and inverses are checked exhaustively at load.
    """

    def __init__(self, labels, table):
        self.labels = tuple(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise GroupDataError("duplicate element labels")
        self.mult = {}
        for a, row in zip(self.labels, table):
            row = tuple(row)
            if len(row) != n:
                raise GroupDataError("table row of wrong length")
            for b, c in zip(self.labels, row):
                if c not in self.labels:
                    raise GroupDataError(f"table entry {c!r} is not an element")
                self.mult[(a, b)] = c
        identity = None
        for e in self.labels:
            if all(
                self.mult[(e, a)] == a and self.mult[(a, e)] == a
                for a in self.labels
            ):
                identity = e
                break
        if identity is None:
            raise GroupDataError("no identity element")
        self.identity = identity
        self.inverse = {}
        for a in self.labels:
            inv = [b for b in self.labels if self.mult[(a, b)] == identity]
            if len(inv) != 1 or self.mult[(inv[0], a)] != identity:
                raise GroupDataError(f"no unique inverse for {a!r}")
            self.inverse[a] = inv[0]
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    if self.mult[(self.mult[(a, b)], c)] != self.mult[
                        (a, self.mult[(b, c)])
                    ]:
                        raise GroupDataError("multiplication is not associative")

    @property
    def order(self):
        return len(self.labels)

    def element_order(self, g):
        k, acc = 1, g
        while acc != self.identity:
            acc = self.mult[(acc, g)]
            k += 1
        return k

    def exponent(self):
        out = 1
        for g in self.labels:
            k = self.element_order(g)
            # lcm
            a, b = out, k
            while b:
                a, b = b, a % b
            out = out * k // a
        return out

    def centralizer_order(self, g):
        return sum(
            1
            for h in self.labels
            if self.mult[(h, g)] == self.mult[(g, h)]
        )

    def conjugacy_classes(self):
        seen = set()
        classes = []
        for g in self.labels:
            if g in seen:
                continue
            cls = set()
            for h in self.labels:
                hg = self.mult[(self.mult[(h, g)], self.inverse[h])]
                cls.add(hg)
            seen |= cls
            classes.append(tuple(sorted(cls, key=self.labels.index)))
        return classes


def cyclic_group(n):
    labels = tuple(f"g{i}" for i in range(n))
    table = [[f"g{(i + j) % n}" for j in range(n)] for i in range(n)]
    return FiniteGroupData(labels, table)


def klein_four_group():
    labels = ("e", "a", "b", "c")
    table = [
        ["e", "a", "b", "c"],
        ["a", "e", "c", "b"],
        ["b", "c", "e", "a"],
        ["c", "b", "a", "e"],
    ]
    return FiniteGroupData(labels, table)


def symmetric_group_3():
    # permutations of 0,1,2 encoded as images (one-line notation)
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    labels = tuple("".join(map(str, s)) for s in perms)

    def compose(s, t):
        return tuple(s[t[i]] for i in range(3))

    table = [
        ["".join(map(str, compose(s, t))) for t in perms] for s in perms
    ]
    return FiniteGroupData(labels, table)


# ---------------------------------------------------------------------------
# special groups (trivial torsors over every base we count on)


@dataclass(frozen=True)
class SpecialGroup:
    """G_a, G_m or GL_k with k <= 3; torsor triviality is a mathematical
    input here (Lang / Hilbert 90 class), not something we verify."""

    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in ("Ga", "Gm", "GL"):
            raise UnsupportedStack(f"unsupported group tag {self.kind!r}")
        if self.kind == "GL" and not 1 <= self.k <= 3:
            raise UnsupportedStack("GL_k supported only for k <= 3")

    @property
    def dim(self):
        if self.kind == "GL":
            return self.k * self.k
        return 1

    def coordinate_names(self):
        if self.kind == "GL":
            return tuple(
                f"g_{i}_{j}" for i in range(self.k) for j in range(self.k)
            )
        return ("lam",)

    def identity_coords(self):
        if self.kind == "GL":
            return tuple(
                1 if i == j else 0 for i in range(self.k) for j in range(self.k)
            )
        return (1,) if self.kind == "Gm" else (0,)

    def size_over(self, ring):
        """|G(R_n)| from the closed forms; `ring` is a LocalRingSpec or a
        FiniteField (treated as level 0)."""
        if isinstance(ring, FiniteField):
            q, n = ring.size, 0
        else:
            q, n = ring.p**ring.r, ring.n
        if self.kind == "Ga":
            return q ** (n + 1)
        if self.kind == "Gm":
            return q**n * (q - 1)
        k = self.k
        gl_q = 1
        for i in range(k):
            gl_q *= q**k - q**i
        return q ** (n * k * k) * gl_q

    def elements_over(self, ring, bound=None):
        """Enumerate G(R) for orbit computations (small rings only)."""
        m = getattr(ring, "int_modulus", None)
        if m is None:
            raise UnsupportedStack("group enumeration needs a prime ring")
        total = m**self.dim
        size_limit(bound, total, f"group enumeration of {total} tuples")
        p = ring.p
        if self.kind == "Ga":
            return [(a,) for a in range(m)]
        if self.kind == "Gm":
            return [(a,) for a in range(m) if a % p != 0]
        k = self.k
        out = []
        for entries in itertools.product(range(m), repeat=k * k):
            if _det_int(entries, k, m) % p != 0:
                out.append(entries)
        return out


def _det_int(entries, k, modulus):
    if k == 1:
        return entries[0] % modulus
    if k == 2:
        a, b, c, d = entries
        return (a * d - b * c) % modulus
    a, b, c, d, e, f, g, h, i = entries
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % modulus


def count_invertible_matrices(k, fld):
    """|GL_k(F_q)| by brute enumeration (test oracle for the closed form)."""
    p = fld.p
    if fld.degree != 1:
        raise UnsupportedStack("enumeration oracle works over prime fields")
    count = 0
    for entries in itertools.product(range(p), repeat=k * k):
        if _det_int(entries, k, p) % p != 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# actions


class GroupAction:
    """Polynomial action of a group on an affine scheme.

    Finite case: one substitution tuple per group element, over the
    scheme's variables.  Special case: one substitution tuple over the
    scheme's variables plus the group coordinates ('lam', or g_i_j for
    GL_k); a missing substitution means the trivial action.
    """

    def __init__(self, group, scheme, polys=None):
        self.group = group
        self.scheme = scheme
        if isinstance(group, SpecialGroup):
            if polys is None:
                polys = tuple(
                    MultiPoly.variable(
                        scheme.variables + group.coordinate_names(), v
                    )
                    for v in scheme.variables
                )
            self.polys = tuple(polys)
            self._env_vars = scheme.variables + group.coordinate_names()
            for q in self.polys:
                if q.variables != self._env_vars:
                    raise ValueError(
                        "special action polynomials must use scheme + group coordinates"
                    )
            self._check_special_identity()
        else:
            if polys is None:
                base = tuple(
                    MultiPoly.variable(scheme.variables, v)
                    for v in scheme.variables
                )
                polys = {g: base for g in group.labels}
            self.polys = {g: tuple(ps) for g, ps in polys.items()}
            for g in group.labels:
                if g not in self.polys:
                    raise ValueError(f"no substitution for group element {g!r}")
                if len(self.polys[g]) != scheme.n_vars:
                    raise ValueError("substitution arity mismatch")
            self._check_finite_identity()

    @property
    def is_special(self):
        return isinstance(self.group, SpecialGroup)

    def _check_finite_identity(self):
        base = tuple(
            MultiPoly.variable(self.scheme.variables, v)
            for v in self.scheme.variables
        )
        if self.polys[self.group.identity] != base:
            raise ValueError("identity element must act trivially")

    def _check_special_identity(self):
        names = self._env_vars
        idc = self.group.identity_coords()
        mapping = {v: MultiPoly.variable(names, v) for v in self.scheme.variables}
        for cname, cval in zip(self.group.coordinate_names(), idc):
            mapping[cname] = MultiPoly.constant(names, cval)
        for v, q in zip(self.scheme.variables, self.polys):
            if q.substitute(mapping) != MultiPoly.variable(names, v):
                raise ValueError("identity coordinates must act trivially")

    # -- applying the action --------------------------------------------------

    def apply_finite_field(self, g, point, fld):
        """g . point for points over a finite field (FFElement or int)."""
        if fld.degree == 1 and point and isinstance(point[0], int):
            return tuple(q.eval_int(point, fld.p) for q in self.polys[g])
        return tuple(
            q.eval_elements(point, fld.from_int) for q in self.polys[g]
        )

    def apply_special_int(self, gcoords, point, modulus):
        env = tuple(point) + tuple(gcoords)
        return tuple(q.eval_int(env, modulus) for q in self.polys)

    def check_compatibility(self, fld, bound=None):
        """g.(h.x) == (gh).x on every enumerated point over a probe field."""
        pts = list(enumerate_points(self.scheme, fld, bound))
        if self.is_special:
            raise UnsupportedStack("compatibility probe is for finite groups")
        for g in self.group.labels:
            for h in self.group.labels:
                gh = self.group.mult[(g, h)]
                for x in pts:
                    lhs = self.apply_finite_field(
                        g, self.apply_finite_field(h, x, fld), fld
                    )
                    if lhs != self.apply_finite_field(gh, x, fld):
                        return False
        return True


@dataclass(frozen=True)
class QuotientStack:
    """Quotient presentation [X/G]; dim = dim X - dim G (may be negative)."""

    name: str
    action: GroupAction

    @property
    def scheme(self):
        return self.action.scheme

    @property
    def group(self):
        return self.action.group

    @property
    def dim(self):
        gdim = (
            self.group.dim
            if isinstance(self.group, SpecialGroup)
            else 0
        )
        return self.scheme.dim - gdim


# ---------------------------------------------------------------------------
# twisted-sector counting for finite constant groups over F_q


def _twisted_points(action, fld, g, ext, bound):
    """Yield the x in X(ext) with Frob_q(x) = g^(-1) . x, as tuples of
    ext elements; ext is F_(q^d) with d = ord(g)."""
    q = fld.size
    ginv = action.group.inverse[g]
    for x in enumerate_points(action.scheme, ext, bound):
        boxed = tuple(ext.from_int(c) if isinstance(c, int) else c for c in x)
        frob = tuple(c**q for c in boxed)
        if frob == tuple(
            p.eval_elements(boxed, ext.from_int) for p in action.polys[ginv]
        ):
            yield boxed


def twisted_sector_count(action, fld, g, bound=None):
    """|{x in X(F_(q^d)) : Frob_q(x) = g^(-1) . x}| with d = ord(g)."""
    ext = FiniteField(fld.p, fld.degree * action.group.element_order(g))
    return sum(1 for _ in _twisted_points(action, fld, g, ext, bound))


def stacky_count_finite(action, fld, bound=None):
    """Weighted number of F_q-points of [X/G] for finite constant G."""
    if action.is_special:
        raise UnsupportedStack("use stacky_count_special for special groups")
    group = action.group
    total = 0
    for g in group.labels:
        total += twisted_sector_count(action, fld, g, bound)
    return Fraction(total, group.order)


def groupoid_classes_finite(action, fld, bound=None):
    """Isomorphism classes of the F_q-point groupoid of [X/G].

    Objects are twisted pairs (g, x); h carries (g, x) to (h g h^-1, h.x).
    Returns a list of (representative, class_size, automorphism_order).
    """
    group = action.group
    ext_cache = {}
    objects = []
    for g in group.labels:
        d = group.element_order(g)
        if d not in ext_cache:
            ext_cache[d] = FiniteField(fld.p, fld.degree * d)
        objects.extend(
            (g, x) for x in _twisted_points(action, fld, g, ext_cache[d], bound)
        )

    def act(h, obj):
        g, x = obj
        conj = group.mult[(group.mult[(h, g)], group.inverse[h])]
        ext = ext_cache[group.element_order(g)]
        hx = tuple(
            p.eval_elements(x, ext.from_int) for p in action.polys[h]
        )
        return (conj, hx)

    classes = []
    seen = set()
    for idx, obj in enumerate(objects):
        key = (obj[0], tuple(obj[1]))
        if key in seen:
            continue
        orbit = set()
        aut = 0
        for h in group.labels:
            img = act(h, obj)
            orbit.add((img[0], tuple(img[1])))
            if img[0] == obj[0] and tuple(img[1]) == key[1]:
                aut += 1
        seen |= orbit
        classes.append((obj, len(orbit), aut))
    return classes


def fiber_decomposition_check(action, fld, bound=None):
    """Check the fiber-counting law #p^(-1)(y) = #F_y(k) * #{y} for the
    atlas map X(F_q) -> pi_0([X/G](F_q)), class by class.

    Returns (per-class list of (lhs, rhs, ok), aggregate bool).
    """
    group = action.group
    classes = groupoid_classes_finite(action, fld, bound)
    base_pts = [
        tuple(
            fld.from_int(c) if isinstance(c, int) else c for c in x
        )
        for x in enumerate_points(action.scheme, fld, bound)
    ]
    results = []
    for (g, x), _size, aut in classes:
        if g == group.identity:
            preimage = 0
            for u in base_pts:
                # u maps to this class iff some h sends (e, x) to (e, u)
                hit = any(
                    group.mult[
                        (group.mult[(h, g)], group.inverse[h])
                    ]
                    == group.identity
                    and tuple(
                        p.eval_elements(x, fld.from_int)
                        for p in action.polys[h]
                    )
                    == u
                    for h in group.labels
                )
                if hit:
                    preimage += 1
            fiber_points = group.order
        else:
            preimage = 0
            fiber_points = 0
        rhs = Fraction(fiber_points, aut)
        results.append((preimage, rhs, Fraction(preimage) == rhs))
    return results, all(ok for _, _, ok in results)


# ---------------------------------------------------------------------------
# special-group quotients


def stacky_count_special(action_or_stack, ring, bound=None):
    """|X(R)| / |G(R)| for G in {G_a, G_m, GL_k}: only trivial torsors."""
    action = (
        action_or_stack.action
        if isinstance(action_or_stack, QuotientStack)
        else action_or_stack
    )
    group = action.group
    if not isinstance(group, SpecialGroup):
        raise UnsupportedStack("special counting needs a special group tag")
    numerator = count_points(action.scheme, ring, bound)
    return Fraction(numerator, group.size_over(ring))


def weighted_subset_count(aut_orders):
    """Counting measure of a finite list of classes: sum of 1/|Aut|."""
    total = Fraction(0)
    for a in aut_orders:
        if a == 0:
            raise ValueError("zero automorphism order")
        total += Fraction(1, a)
    return total


def orbit_classes_special(action, spec, bound=None):
    """Orbits of G(R) on X(R) with stabilizer orders, by enumeration.

    Only for unramified prime rings (integer points).  Returns a sorted
    list of (representative, orbit_size, stabilizer_order).
    """
    group = action.group
    m = spec.int_modulus
    if m is None:
        raise UnsupportedStack("orbit enumeration needs a prime ring")
    gelems = group.elements_over(spec, bound)
    pts = list(enumerate_points(action.scheme, spec, bound))
    seen = set()
    classes = []
    for x in pts:
        if x in seen:
            continue
        orbit = set()
        stab = 0
        for gco in gelems:
            gx = action.apply_special_int(gco, x, m)
            orbit.add(gx)
            if gx == x:
                stab += 1
        seen |= orbit
        classes.append((x, len(orbit), stab))
    classes.sort()
    return classes


def stacky_count_finite_level(action, spec, bound=None):
    """Finite constant G over R_n with n > 0 is not supported: the twisted
    sectors would live over Galois rings and no recipe is implemented."""
    if spec.n == 0:
        return stacky_count_finite(action, spec.residue_field, bound)
    raise UnsupportedStack(
        "finite constant groups over positive-level rings are unsupported"
    )
