"""Brute-force oracles for the closed forms and counts of padicstacks.stacks,
used only by the tests."""

import itertools
from fractions import Fraction

from padicstacks.polyscheme import enumerate_points
from padicstacks.rings import FiniteField, size_limit
from padicstacks.stacks import UnsupportedStack


def det_int(entries, k, modulus):
    """Determinant mod `modulus` of a k x k matrix (k <= 3) in row order."""
    if k == 1:
        return entries[0] % modulus
    if k == 2:
        a, b, c, d = entries
        return (a * d - b * c) % modulus
    a, b, c, d, e, f, g, h, i = entries
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % modulus


def count_invertible_matrices(k, ring):
    """|GL_k(F_q)| by brute enumeration over a level-0 ring with residue
    field F_q (test oracle for the closed form)."""
    p = ring.p
    if ring.r != 1:
        raise UnsupportedStack("enumeration oracle works over prime fields")
    count = 0
    for entries in itertools.product(range(p), repeat=k * k):
        if det_int(entries, k, p) % p != 0:
            count += 1
    return count


def group_elements(group, ring, bound=None):
    """G(R) over R = Z/p^(n+1) as coordinate tuples (small rings only)."""
    m = ring.int_modulus
    if m is None:
        raise UnsupportedStack("group enumeration needs a prime ring")
    total = m**group.dim
    size_limit(bound, total, f"group enumeration of {total} tuples")
    p = ring.p
    if group.kind == "Ga":
        return [(a,) for a in range(m)]
    if group.kind == "Gm":
        return [(a,) for a in range(m) if a % p != 0]
    k = group.k
    return [
        entries
        for entries in itertools.product(range(m), repeat=k * k)
        if det_int(entries, k, m) % p != 0
    ]


def special_orbits(action, spec, bound=None):
    """Orbits of G(R) on X(R) by enumeration, on unramified prime rings
    (integer points): a list of (first point, orbit set, stabilizer order)
    in enumeration order."""
    m = spec.int_modulus
    if m is None:
        raise UnsupportedStack("orbit enumeration needs a prime ring")
    gelems = group_elements(action.group, spec, bound)
    seen = set()
    orbits = []
    for x in enumerate_points(action.scheme, spec, bound):
        if x in seen:
            continue
        orbit = set()
        stab = 0
        for gco in gelems:
            env = tuple(x) + tuple(gco)
            gx = tuple(q.eval_int(env, m) for q in action.polys)
            orbit.add(gx)
            if gx == x:
                stab += 1
        seen |= orbit
        orbits.append((x, orbit, stab))
    return orbits


def orbit_classes_special(action, spec, bound=None):
    """Sorted list of (representative, orbit_size, stabilizer_order)."""
    return sorted(
        (x, len(orbit), stab) for x, orbit, stab in special_orbits(action, spec, bound)
    )


# ---------------------------------------------------------------------------
# twisted sectors on FiniteField / FFElement arithmetic: every point is
# listed over the field's elements and tested with eval_elements, and
# Frobenius is c**q; the library lists and evaluates on level-0 rings


def ff_points(scheme, fld):
    """X(F) as FFElement tuples, in the order of F's elements."""
    return [x for x in itertools.product(fld.elements(), repeat=scheme.n_vars)
            if all(g.eval_elements(x, fld.from_int).is_zero() for g in scheme.generators)]


def ff_apply(action, g, x, fld):
    """g . x for an FFElement tuple x."""
    return tuple(f.eval_elements(x, fld.from_int) for f in action.polys[g])


def ff_twisted_points(action, fld, g):
    """The x in X(F_(q^d)), d = ord(g), with x^q = g^(-1) . x, and F_(q^d)."""
    group, q = action.group, fld.size
    ext = FiniteField(fld.p, fld.degree * group.element_order(g))
    ginv = group.inverse[g]
    return [x for x in ff_points(action.scheme, ext)
            if tuple(c**q for c in x) == ff_apply(action, ginv, x, ext)], ext


def ff_stacky_count(action, fld):
    """(1/|G|) * the sum of the twisted-sector sizes."""
    group = action.group
    total = sum(len(ff_twisted_points(action, fld, g)[0]) for g in group.labels)
    return Fraction(total, group.order)


def ff_groupoid_classes(action, fld):
    """Classes of twisted pairs (g, x) under h: (g, x) -> (h g h^-1, h . x),
    as (representative, class size, automorphism order), the representative
    being the first pair of its class in sector-then-point order."""
    group = action.group
    sectors = {g: ff_twisted_points(action, fld, g) for g in group.labels}
    classes, seen = [], set()
    for g in group.labels:
        points, ext = sectors[g]
        for x in points:
            if (g, x) in seen:
                continue
            images = [(group.mult[(group.mult[(h, g)], group.inverse[h])],
                       ff_apply(action, h, x, ext)) for h in group.labels]
            seen.update(images)
            classes.append(((g, x), len(set(images)), images.count((g, x))))
    return classes


def ff_fiber_check(action, fld):
    """Per class, (#atlas points over it, |G| / |Aut| on the identity
    sector and 0 elsewhere, whether they agree), and whether all agree."""
    group = action.group
    base = ff_points(action.scheme, fld)
    results = []
    for (g, x), _size, aut in ff_groupoid_classes(action, fld):
        lhs = rhs = 0
        if g == group.identity:
            orbit = {ff_apply(action, h, x, fld) for h in group.labels}
            lhs = sum(1 for u in base if u in orbit)
            rhs = Fraction(group.order, aut)
        results.append((lhs, Fraction(rhs), lhs == rhs))
    return results, all(ok for _, _, ok in results)
