"""Reference answers for the benchmark's checks.

Nothing here calls the library's counting, lifting, certificate, Witt or
formula code: polynomials are evaluated from their own term lists, rings
of degree 2 over Z_p are modelled with plain integer pairs, and the true
Z_p-points of the singular curves come from their parametrisations.  The
library is used only for `FFElement` arithmetic (the residue-field counts
behind the smooth fibre law), which is a different layer from every
path it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class WrongAnswer(Exception):
    """An answer that its check rejects."""


def expect(condition, message):
    if not condition:
        raise WrongAnswer(message)


class Poly:
    """Integer polynomial as a tuple of (coefficient, exponent tuple)."""

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        self.terms = tuple((c, tuple(e)) for c, e in terms if c)

    def text(self):
        parts = []
        for c, expo in self.terms:
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, expo) if e
            )
            if not mono:
                parts.append(str(c))
            elif c in (1, -1):
                parts.append(mono if c == 1 else f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def at_int(self, point, m):
        acc = 0
        for c, expo in self.terms:
            t = c
            for x, e in zip(point, expo):
                t *= x**e
            acc += t
        return acc % m

    def at(self, point, const, add, mul):
        """Evaluate over any ring given its constant map, + and *."""
        acc = const(0)
        for c, expo in self.terms:
            t = const(c)
            for x, e in zip(point, expo):
                for _ in range(e):
                    t = mul(t, x)
            acc = add(acc, t)
        return acc


def count_mod(f, m):
    """|{x in (Z/m)^N : f(x) = 0}| by full enumeration."""
    return sum(
        1 for pt in itertools.product(range(m), repeat=len(f.variables))
        if f.at_int(pt, m) == 0
    )


def count_residue_field(f, field):
    """|X(F_q)| by brute force over FFElement."""
    elements = list(field.elements())
    zero = field.zero()
    return sum(
        1 for pt in itertools.product(elements, repeat=len(f.variables))
        if f.at(pt, field.from_int, lambda a, b: a + b, lambda a, b: a * b) == zero
    )


def smooth_count(residue_count, q, n, d):
    """Smooth fibre law: |X(R_n)| = q^(n d) |X(F_q)|."""
    return q ** (n * d) * residue_count


def is_smooth_mod_p(f, p):
    """No F_p-point of f = 0 where every partial derivative vanishes."""
    partials = []
    for i in range(len(f.variables)):
        terms = []
        for c, expo in f.terms:
            if expo[i]:
                e = list(expo)
                e[i] -= 1
                terms.append((c * expo[i], e))
        partials.append(Poly(f.variables, terms))
    return not any(
        f.at_int(pt, p) == 0 and all(g.at_int(pt, p) == 0 for g in partials)
        for pt in itertools.product(range(p), repeat=len(f.variables))
    )


class QuadModel:
    """Z_p[theta]/(theta^2 - s theta - t) modulo the ideal
    amod Z + bmod Z theta, with elements as integer pairs (a, b) = a + b theta.

    For a Galois ring of residue degree 2 at level n both moduli are
    p^(n+1).  For the Eisenstein quadratic theta^2 = s theta + t (p | s,
    p || t) the ideal (theta^(n+1)) is p^k Z + p^k Z theta when n+1 = 2k and
    p^(k+1) Z + p^k Z theta when n+1 = 2k+1.
    """

    def __init__(self, p, n, s, t, eisenstein):
        self.s, self.t = s, t
        if eisenstein:
            k, odd = divmod(n + 1, 2)
            self.amod, self.bmod = p ** (k + odd), p**k
            self.omega = (0, 1)
        else:
            self.amod = self.bmod = p ** (n + 1)
            self.omega = (p, 0)

    @classmethod
    def of(cls, spec):
        """The model of a library ring spec of degree 2 (read its
        parameters only)."""
        if spec.e == 2:
            c0, c1 = spec.eisenstein
            return cls(spec.p, spec.n, -c1, -c0, True)
        if spec.r == 2:
            c0, c1 = spec.residue_field.modulus[:2]
            return cls(spec.p, spec.n, -c1, -c0, False)
        raise ValueError("model covers degree-2 rings only")

    def reduce(self, a, b):
        return (a % self.amod, b % self.bmod)

    def const(self, c):
        return self.reduce(c, 0)

    def add(self, x, y):
        return self.reduce(x[0] + y[0], x[1] + y[1])

    def mul(self, x, y):
        a1, b1 = x
        a2, b2 = y
        bb = b1 * b2
        return self.reduce(a1 * a2 + bb * self.t, a1 * b2 + a2 * b1 + bb * self.s)

    def elements(self):
        return [(a, b) for a in range(self.amod) for b in range(self.bmod)]

    def from_digits(self, digits):
        """Sum of digit_i * omega^i for a library element's digit tuple."""
        acc = self.const(0)
        power = self.const(1)
        for d in digits:
            lift = (d[0], d[1]) if isinstance(d, tuple) else (d, 0)
            acc = self.add(acc, self.mul(self.reduce(*lift), power))
            power = self.mul(power, self.omega)
        return acc

    def count(self, f):
        elements = self.elements()
        zero = self.const(0)
        return sum(
            1 for pt in itertools.product(elements, repeat=len(f.variables))
            if f.at(pt, self.const, self.add, self.mul) == zero
        )


def image_mod(param, m, extra=()):
    """Reductions mod m of the Z_p-points t -> param(t); t mod m suffices
    because param has integer coefficients."""
    out = {tuple(c % m for c in param(t)) for t in range(m)}
    out.update(tuple(c % m for c in pt) for pt in extra)
    return out


def series_truth(level_truth, terms):
    """True P-series coefficients: 1 for a nonempty Z_p-point set, then the
    level-(m-1) image sizes."""
    return [Fraction(1)] + [Fraction(level_truth(m - 1)) for m in range(1, terms)]


def check_bounds(table, truth):
    """Certified coefficients with their slack must enclose the truth;
    returns the number of points left open."""
    lower, upper = table.bounds()
    expect(len(lower) == len(truth), f"{len(lower)} coefficients, expected {len(truth)}")
    for i, (lo, hi, t) in enumerate(zip(lower, upper, truth)):
        expect(lo <= t <= hi, f"coefficient {i}: truth {t} outside [{lo}, {hi}]")
    return int(sum(hi - lo for lo, hi in zip(lower, upper)))


def ghost(coords, p):
    return [sum(p**j * coords[j] ** (p ** (i - j)) for j in range(i + 1))
            for i in range(len(coords))]


def eval_terms(poly, values):
    """Evaluate a library MultiPoly from its term dict at integer values."""
    acc = 0
    for expo, c in poly.terms.items():
        t = c
        for x, e in zip(values, expo):
            t *= x**e
        acc += t
    return acc


def check_structure(polys, p, length, points):
    """Ghost equations for the Witt addition and multiplication laws at the
    given integer points, and the mod-p laws as their reductions."""
    for a, b in points:
        values = list(a) + list(b)
        s = [eval_terms(f, values) for f in polys.add_int]
        m = [eval_terms(f, values) for f in polys.mul_int]
        ga, gb = ghost(a, p), ghost(b, p)
        expect(ghost(s, p) == [x + y for x, y in zip(ga, gb)],
               f"W_{length} addition over p={p} fails the ghost equations")
        expect(ghost(m, p) == [x * y for x, y in zip(ga, gb)],
               f"W_{length} multiplication over p={p} fails the ghost equations")
    for full, modp in ((polys.add_int, polys.add_modp), (polys.mul_int, polys.mul_modp)):
        for f, g in zip(full, modp):
            reduced = {e: c % p for e, c in f.terms.items() if c % p}
            expect(reduced == {e: c % p for e, c in g.terms.items()},
                   f"W_{length} mod-{p} law is not the reduction of the integral law")
