"""Brute-force oracles for the closed forms and counts of padicstacks.stacks,
used only by the tests."""

import itertools

from padicstacks.polyscheme import enumerate_points
from padicstacks.rings import size_limit
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


def count_invertible_matrices(k, fld):
    """|GL_k(F_q)| by brute enumeration (test oracle for the closed form)."""
    p = fld.p
    if fld.degree != 1:
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
