"""Homotopy-weighted point counts for quotient stacks [X/G]; `stacky_count`
picks the recipe from the group.

A finite constant group counts over a level-0 ring with residue field F_q
as (1/|G|) * sum over g of its twisted sector: the x in X(F_(q^d)),
d = ord(g), with Frob_q(x) = g^-1 . x, listed on make_ring(p, r=r*d) with
the action and Frobenius (v^q) compiled by that ring.  h carries the
sector of g onto that of h g h^-1, so each conjugacy class is read once,
at its first element, times its size, and the groupoid classes there are
the orbits of that element's centralizer.  Both need a group action that
keeps X (`GroupAction.check_compatibility`).  The special groups G_a,
G_m, GL_k (k <= 3) admit only trivial torsors, so their quotients count
as |X(R)| / |G(R)|, with |X(R)| from `count_points` and closed-form group
sizes.

Finite constant groups over truncated rings of positive level would need
twisted sectors over Galois rings; that case is refused, not approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polyscheme import MultiPoly, enumerate_points
from .rings import make_ring, record
from .tree import count_points


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
        table = list(table)
        if len(table) != n:
            raise GroupDataError(f"table has {len(table)} rows for {n} elements")
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
        return math.lcm(*map(self.element_order, self.labels))

    def centralizer(self, g):
        """The elements that commute with g, in label order."""
        return tuple(h for h in self.labels if self.mult[(h, g)] == self.mult[(g, h)])

    def centralizer_order(self, g):
        return len(self.centralizer(g))

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


@record(frozen=True)
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
        """|G(R_n)| from the closed forms, for a ring R_n at level n with
        residue field F_q."""
        q, n = ring.residue_field.size, ring.n
        if self.kind == "Ga":
            return q ** (n + 1)
        if self.kind == "Gm":
            return q**n * (q - 1)
        k = self.k
        gl_q = 1
        for i in range(k):
            gl_q *= q**k - q**i
        return q ** (n * k * k) * gl_q


# ---------------------------------------------------------------------------
# actions


class GroupAction:
    """Polynomial action of a group on an affine scheme.

    Finite case: a dict from group elements to substitution tuples over
    the scheme's variables; the identity may be left out, and acts
    trivially.  Special case: one substitution tuple over the scheme's
    variables plus the group coordinates ('lam', or g_i_j for GL_k), one
    polynomial per scheme variable.  Without `polys` the action is
    trivial.
    """

    def __init__(self, group, scheme, polys=None):
        self.group = group
        self.scheme = scheme
        self._compiled = {}  # (g, ring) -> evaluators of g's polynomials
        if isinstance(group, SpecialGroup):
            names = scheme.variables + group.coordinate_names()
            base = tuple(MultiPoly.variable(names, v) for v in scheme.variables)
            self.polys = base if polys is None else tuple(polys)
            if len(self.polys) != scheme.n_vars:
                raise ValueError("needs one polynomial per scheme variable")
            for q in self.polys:
                if q.variables != names:
                    raise ValueError(
                        "special action polynomials must use scheme + group coordinates"
                    )
            at_identity = dict(zip(scheme.variables, base))
            for cname, cval in zip(group.coordinate_names(), group.identity_coords()):
                at_identity[cname] = MultiPoly.constant(names, cval)
            if tuple(q.substitute(at_identity) for q in self.polys) != base:
                raise ValueError("identity coordinates must act trivially")
        else:
            base = tuple(
                MultiPoly.variable(scheme.variables, v) for v in scheme.variables
            )
            if polys is None:
                polys = dict.fromkeys(group.labels, base)
            self.polys = {group.identity: base}
            self.polys.update((g, tuple(ps)) for g, ps in polys.items())
            for g in group.labels:
                if g not in self.polys:
                    raise ValueError(f"no substitution for group element {g!r}")
                if len(self.polys[g]) != scheme.n_vars:
                    raise ValueError(f"substitution for {g!r} has wrong arity")
            if self.polys[group.identity] != base:
                raise ValueError("identity element must act trivially")

    @property
    def is_special(self):
        return isinstance(self.group, SpecialGroup)

    # -- applying the action --------------------------------------------------

    def apply_finite_field(self, g, point, ring):
        """g . point for a point over a ring, by `ring.compile` once per (g, ring)."""
        if (g, ring) not in self._compiled:
            self._compiled[g, ring] = [ring.compile(q) for q in self.polys[g]]
        return tuple(ev(point) for ev in self._compiled[g, ring])

    def check_compatibility(self, ring, bound=None):
        """h.x lies on X and g.(h.x) == (gh).x, at every enumerated point x
        of X over a probe ring."""
        if self.is_special:
            raise UnsupportedStack("compatibility probe is for finite groups")
        pts = list(enumerate_points(self.scheme, ring, bound))
        listed = set(pts)
        for g in self.group.labels:
            for h in self.group.labels:
                gh = self.group.mult[(g, h)]
                for x in pts:
                    hx = self.apply_finite_field(h, x, ring)
                    ghx = self.apply_finite_field(gh, x, ring)
                    if hx not in listed or self.apply_finite_field(g, hx, ring) != ghx:
                        return False
        return True


@record(frozen=True)
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


def _twisted_points(action, ring, g, ext, bound):
    """Yield the x in X(ext) with Frob_q(x) = g^(-1) . x, as point tuples
    of ext; ext is F_(q^d) with d = ord(g)."""
    names = action.scheme.variables
    frob = [ext.compile(MultiPoly.variable(names, v) ** ring.size) for v in names]
    ginv = action.group.inverse[g]
    for x in enumerate_points(action.scheme, ext, bound):
        if tuple(ev(x) for ev in frob) == action.apply_finite_field(ginv, x, ext):
            yield x


def _sector_field(action, ring, g):
    """F_(q^d) = make_ring(p, r=r*d) with d = ord(g), the field of g's
    twisted sector; refuses a ring of positive level."""
    if ring.n:
        raise UnsupportedStack("finite constant groups over positive-level rings are unsupported")
    return make_ring(ring.p, r=ring.r * action.group.element_order(g))


def twisted_sector_count(action, ring, g, bound=None):
    """|{x in X(F_(q^d)) : Frob_q(x) = g^(-1) . x}| with d = ord(g)."""
    ext = _sector_field(action, ring, g)
    return sum(1 for _ in _twisted_points(action, ring, g, ext, bound))


def stacky_count_finite(action, ring, bound=None):
    """Weighted number of F_q-points of [X/G] for finite constant G, over a
    level-0 ring with residue field F_q: (1/|G|) * sum over the conjugacy
    classes C of |C| times the sector of C's first element.  The action
    must be a group action that preserves X (`check_compatibility`)."""
    if action.is_special:
        raise UnsupportedStack("use stacky_count_special for special groups")
    group = action.group
    total = 0
    for cls in group.conjugacy_classes():
        total += len(cls) * twisted_sector_count(action, ring, cls[0], bound)
    return Fraction(total, group.order)


def groupoid_classes_finite(action, ring, bound=None):
    """Isomorphism classes of the F_q-point groupoid of [X/G].

    Objects are twisted pairs (g, x); h carries (g, x) to (h g h^-1, h.x).
    Every class meets the sector of the first element g of its conjugacy
    class, in one orbit of g's centralizer, which fixes (g, x) by the h
    with h.x = x.  Returns a list of (representative, class_size,
    automorphism_order), the representative being the class's first pair
    in sector-then-point order.  The action must be a group action that
    preserves X (`check_compatibility`).
    """
    group = action.group
    classes = []
    for g, *_ in group.conjugacy_classes():
        ext = _sector_field(action, ring, g)
        centralizer = group.centralizer(g)
        seen = set()
        for x in _twisted_points(action, ring, g, ext, bound):
            if x not in seen:
                images = [action.apply_finite_field(h, x, ext) for h in centralizer]
                seen.update(images)
                aut = images.count(x)
                classes.append(((g, x), group.order // aut, aut))
    return classes


def fiber_decomposition_check(action, ring, bound=None):
    """Check the fiber-counting law #p^(-1)(y) = #F_y(k) * #{y} for the
    atlas map X(F_q) -> pi_0([X/G](F_q)), class by class, with X(F_q)
    listed on the identity sector's field.

    Returns (per-class list of (lhs, rhs, ok), aggregate bool).
    """
    group = action.group
    classes = groupoid_classes_finite(action, ring, bound)
    base = _sector_field(action, ring, group.identity)
    base_pts = list(enumerate_points(action.scheme, base, bound))
    results = []
    for (g, x), _size, aut in classes:
        if g == group.identity:
            # u maps to this class iff some h sends (e, x) to (e, u); h
            # conjugates e to e, so that is u lying in the orbit of x
            orbit = {action.apply_finite_field(h, x, base) for h in group.labels}
            preimage = sum(1 for u in base_pts if u in orbit)
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
    group = action_or_stack.group  # a stack forwards its action's group and scheme
    if not isinstance(group, SpecialGroup):
        raise UnsupportedStack("special counting needs a special group tag")
    numerator = count_points(action_or_stack.scheme, ring, bound)
    return Fraction(numerator, group.size_over(ring))


def weighted_subset_count(aut_orders):
    """Counting measure of a finite list of classes: sum of 1/|Aut|."""
    total = Fraction(0)
    for a in aut_orders:
        if a == 0:
            raise ValueError("zero automorphism order")
        total += Fraction(1, a)
    return total


def stacky_count(stack, ring, bound=None):
    """Weighted count of a quotient stack over a truncated ring; finite
    constant groups take level-0 rings only."""
    if isinstance(stack.group, SpecialGroup):
        return stacky_count_special(stack, ring, bound)
    return stacky_count_finite(stack.action, ring, bound)
