"""The benchmark's four workloads.

Each workload is a list of queries through the public padicstacks API.
Anchor queries are fixed (taken from the paper's acceptance battery and the
demo project); seeded queries are drawn from a stated family by the run's
seed, with costs that do not depend on the draw (fixed prime, level,
variable count and monomial support), so that a claim can be rechecked on
a seed nobody tuned for.

Every query carries its check.  A check returns the number of points the
answer leaves undecided, or raises `WrongAnswer`.  Checks use a closed form
where one exists, otherwise an independent path of the same size (see
oracle.py); a fast path is never checked only by itself.  A query also
carries `open_max`, the number of points the seed commit leaves undecided
(the same for every seed); an answer that leaves more is wrong, so that
skipped certificate work cannot pass as a correct, faster answer.

Library calls go through the package namespace (`ps.series`, ...) at call
time, so the traced passes see the wrappers installed by tracer.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import padicstacks as ps
from oracle import (
    Poly,
    QuadModel,
    check_bounds,
    check_structure,
    count_mod,
    count_residue_field,
    expect,
    image_mod,
    is_smooth_mod_p,
    series_truth,
    smooth_count,
)

PROJECT = Path(__file__).with_name("bench.project")

XY = ("x", "y")
CONIC = Poly(XY, [(1, (2, 0)), (1, (0, 2)), (-1, (0, 0))])
CUSP = Poly(XY, [(1, (0, 2)), (-1, (3, 0))])
FERMAT = Poly(("x", "y", "z"), [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))])


@dataclass
class Query:
    name: str
    run: Callable[[], object]
    check: Callable[[object], int]
    open_max: int = 0


def build(workload, seed):
    """Set-up: parse the project file and build every input of the
    workload's query list for this seed."""
    project = ps.load_project(PROJECT)
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](project, rng)


def _scheme(name, f, dim):
    return ps.AffineScheme.from_text(name, f.variables, [f.text()], dim)


def _units(rng, p, k):
    return [rng.randrange(1, p) for _ in range(k)]


def _diagonal_quadric(rng, p, variables):
    """a_1 x_1^2 + ... + a_N x_N^2 - c with unit coefficients: smooth mod p
    for odd p, and every draw has the same monomial support."""
    coeffs = _units(rng, p, len(variables) + 1)
    n = len(variables)
    terms = [(c, tuple(2 if j == i else 0 for j in range(n)))
             for i, c in enumerate(coeffs[:-1])]
    return Poly(variables, terms + [(-coeffs[-1], (0,) * n)])


# ---------------------------------------------------------------------------
# lift: unramified prime rings, scheme targets


def _p_series_query(name, X, spec, terms, level_truth, open_max, kind="p"):
    return Query(
        name,
        lambda: ps.series(X, spec, kind, terms),
        lambda tbl: check_bounds(tbl, level_truth(terms)),
        open_max,
    )


def _cusp_type(u, p):
    """y^2 = u x^3: Z_p-points are (t^2/u, t^3/u), t in Z_p."""
    def truth(terms):
        def level(n):
            m = p ** (n + 1)
            inv = pow(u, -1, m)
            return len(image_mod(lambda t: (t * t * inv, t**3 * inv), m))
        return series_truth(level, terms)
    return Poly(XY, [(1, (0, 2)), (-u, (3, 0))]), truth


def _node_type(a, p):
    """y^2 = x^2 (a + x): Z_p-points are (t^2 - a, t (t^2 - a)), t in Z_p,
    and the node (0, 0)."""
    def truth(terms):
        def level(n):
            m = p ** (n + 1)
            return len(image_mod(lambda t: (t * t - a, t * (t * t - a)), m, [(0, 0)]))
        return series_truth(level, terms)
    return Poly(XY, [(1, (0, 2)), (-a, (2, 0)), (-1, (3, 0))]), truth


def _lift(pj, rng):
    z5 = pj.ring("p5n0")
    conic = pj.scheme("X_conic")
    queries = []

    def check_conic(answer):
        tbl, fit = answer
        truth = [Fraction(1)] + [
            Fraction(smooth_count(count_mod(CONIC, 5), 5, n, 1)) for n in range(7)
        ]
        expect(tbl.exact and tbl.coefficients == truth,
               f"conic P-tilde series {tbl.coefficients}")
        expect((fit.numerator, fit.denominator) == ((1, -1), (1, -5)),
               f"conic fit {fit.to_text()}, expected (1 - T)/(1 - 5T)")
        return 0

    queries.append(Query(
        "series(conic, Z_5, tilde, 8) + rational_fit",
        lambda: (lambda tbl: (tbl, ps.rational_fit(tbl.coefficients)))(
            ps.series(conic, z5, "tilde", 8)),
        check_conic,
    ))
    _, cusp_truth = _cusp_type(1, 5)
    queries.append(_p_series_query(
        "series(cusp, Z_5, p, 5)", pj.scheme("cusp"), z5, 5, cusp_truth, 132))

    _, node_truth = _node_type(1, 5)

    def node_q_truth(terms):
        # Q = P(X) - P(Sing X); Sing X(Z_5) is the node alone
        return [x - 1 for x in node_truth(terms)]
    queries.append(_p_series_query(
        "series(node, Z_5, q, 5)", pj.scheme("node"), z5, 5, node_q_truth, 32, "q"))

    closed = {
        "A1": lambda p, level: p ** (level + 1),
        "X_conic": lambda p, level: smooth_count(count_mod(CONIC, p), p, level, 1),
        "xy3": lambda p, level: 2 * (p - 1) * p**level,
        "xy5": lambda p, level: 2 * (p - 1) * p**level,
    }
    for name, p, level in (("A1", 3, 0), ("A1", 3, 1), ("X_conic", 5, 1),
                           ("xy3", 3, 1), ("xy3", 3, 2), ("xy5", 5, 1)):
        def check_q(answer, name=name, p=p, level=level):
            lhs, rhs, ok = answer
            want = closed[name](p, level)
            expect(ok and lhs == rhs == want,
                   f"Q-coefficient {name} p={p} level {level}: {lhs} vs {rhs}, expected {want}")
            return 0
        queries.append(Query(
            f"q_coefficient_check({name}, Z_{p}, {level})",
            lambda X=pj.scheme(name), p=p, level=level: ps.q_coefficient_check(
                X, pj.ring(f"p{p}n0"), level, max_level=4),
            check_q,
        ))

    def check_xy5(res):
        want = [Fraction(2 * 5 - 1, 5)] + [Fraction(2 * 4, 5)] * 5
        expect(res.status == "STABILIZED" and res.value == Fraction(8, 5)
               and res.counts == want, f"mu(xy - 5) = {res.value} ({res.status})")
        return 0
    queries.append(Query(
        "padic_measure(xy - 5, Z_5, max_level 5)",
        lambda: ps.padic_measure(pj.scheme("xy5"), z5, max_level=5),
        check_xy5,
    ))

    # seeded: two smooth and two singular plane curves over Z_5, each drawn
    # in new coordinates within a fixed isomorphism type, so that every
    # draw has the same point counts and costs the same
    a, s, c = _units(rng, 5, 3)
    conic_f = Poly(XY, [(a, (2, 0)), (-a * s * s % 5, (0, 2)), (-c, (0, 0))])
    hyperbola = Poly(XY, [(1, (1, 1)), (-rng.randrange(1, 5), (0, 0))])
    for i, f in enumerate((conic_f, hyperbola)):
        expect(is_smooth_mod_p(f, 5), f"seeded curve {f.text()} is singular")

        def check_smooth(tbl, f=f):
            truth = [Fraction(1)] + [
                Fraction(smooth_count(count_mod(f, 5), 5, n, 1)) for n in range(6)
            ]
            expect(tbl.exact and tbl.coefficients == truth,
                   f"{f.text()}: P-tilde {tbl.coefficients}, expected {truth}")
            return 0
        queries.append(Query(
            f"series({f.text()}, Z_5, tilde, 7)",
            lambda X=_scheme(f"smooth{i}", f, 1): ps.series(X, z5, "tilde", 7),
            check_smooth,
        ))
    b = rng.randrange(1, 5)
    for i, ((f, truth), open_max) in enumerate(((_cusp_type(rng.randrange(1, 5), 5), 7),
                                                (_node_type(b * b % 5, 5), 2))):
        queries.append(_p_series_query(
            f"series({f.text()}, Z_5, p, 4)", _scheme(f"singular{i}", f, 1), z5, 4,
            truth, open_max))
    return queries


# ---------------------------------------------------------------------------
# ring: ramified and Galois rings


def _count_query(label, X, spec, truth):
    def check(count):
        want = truth()
        expect(count == want, f"{label}: {count} points, expected {want}")
        return 0
    return Query(label, lambda: ps.count_points(X, spec), check)


def _smooth_ring_count(f, spec):
    """Closed form q^(n d) |X(F_q)| for f smooth over the residue field."""
    field = spec.residue_field
    return smooth_count(count_residue_field(f, field), field.size, spec.n,
                        len(f.variables) - 1)


def _ring(pj, rng):
    conic = pj.scheme("X_conic")
    gr9n1, ram3n2 = pj.ring("gr9n1"), pj.ring("ram3n2")
    queries = [
        _count_query("count_points(conic, ram3 level 2)", conic, ram3n2,
                     lambda: _smooth_ring_count(CONIC, ram3n2)),
        _count_query("count_points(cusp, GR(9) level 1)", pj.scheme("cusp"), gr9n1,
                     lambda: QuadModel.of(gr9n1).count(CUSP)),
    ]

    def check_eval(res):
        model = QuadModel.of(ram3n2)
        target = Poly(("x", "y", "t"), [(1, (1, 1, 0)), (-1, (0, 0, 1))])

        def vanishes(point):
            x, y = (model.from_digits(e.digits) for e in point)
            return target.at((x, y, model.omega), model.const, model.add,
                             model.mul) == model.const(0)
        expect(all(not vanishes(pt) for pt in res.certain_false),
               "a point with x*y = t was classified false")
        # every visible zero of x*y - t truncates a true solution (one of
        # x, y is a unit), so certain-true points are sound
        expect(all(vanishes(pt) for pt in res.certain_true + res.undetermined),
               "a point with x*y != t was classified true or open")
        everything = res.certain_true + res.certain_false + res.undetermined
        distinct = {tuple(e.digits for e in pt) for pt in everything}
        expect(len(distinct) == len(everything) == ram3n2.size**2,
               f"{len(everything)} points classified, {len(distinct)} distinct")
        return len(res.undetermined)
    queries.append(Query(
        "eval_formula(ord(x*y - t) == INFINITY, ram3 level 2)",
        lambda: ps.eval_formula(pj.formula("xy_t").formula, pj.scheme("A2"), ram3n2),
        check_eval,
        36,
    ))

    def check_measure(res):
        field = pj.ring("ram3n0").residue_field
        want = Fraction(count_residue_field(CONIC, field), field.size)
        expect(res.status == "STABILIZED" and res.value == want
               and res.counts == [want] * 3, f"mu(conic, ram3) = {res.value}")
        return 0
    queries.append(Query(
        "padic_measure(conic, ram3, max_level 2)",
        lambda: ps.padic_measure(conic, pj.ring("ram3n0"), max_level=2),
        check_measure,
    ))

    def check_stack(value):
        field = pj.ring("gr9n0").residue_field
        want = Fraction(count_residue_field(CONIC, field), field.size - 1)
        expect(value == want, f"[conic/Gm](GR(9)) = {value}, expected {want}")
        return 0
    queries.append(Query(
        "stacky_count_special([conic/Gm], GR(9) level 0)",
        lambda: ps.stacky_count_special(pj.stack("conic_mod_Gm"), pj.ring("gr9n0")),
        check_stack,
    ))

    # seeded: unit-coefficient conics, smooth over the residue field, over
    # a ramified ring and a Galois ring of degree 2, both with 25 elements
    specs = [
        ps.make_ring(5, 2, (-5 * rng.randrange(1, 5), 5 * rng.randrange(5)), n=1),
        ps.make_ring(5, r=2, residue_modulus=rng.choice(
            ((2, 0, 1), (3, 0, 1), (2, 1, 1), (1, 1, 1)))),
    ]
    for i, spec in enumerate(specs):
        f = _diagonal_quadric(rng, spec.p, XY)
        queries.append(_count_query(
            f"count_points({f.text()}, {spec!r})", _scheme(f"seeded{i}", f, 1),
            spec, lambda f=f, spec=spec: _smooth_ring_count(f, spec)))
    return queries


# ---------------------------------------------------------------------------
# definable: formula measures over prime rings


def _measure_query(label, formula, target, spec, max_level, want, d=1):
    def check(res):
        expect(res.status == "STABILIZED" and res.value == want,
               f"{label}: {res.value} ({res.status}), expected {want}")
        n = res.levels[-1]
        q = spec.p**spec.r
        return int((res.upper[-1] - res.lower[-1]) * q ** ((n + 1) * d))
    return Query(
        label,
        lambda: ps.measure_formula(formula, target, d, spec, max_level=max_level),
        check,
    )


def _template(rng, p):
    """A one-variable formula with a closed-form measure."""
    q = Fraction(p)
    kind = rng.randrange(4)
    if kind == 0:
        k = rng.randrange(1, 4)
        return f"ord(x) >= {k}", q**-k
    if kind == 1:
        k = rng.randrange(3)
        return f"ord(x) == {k}", q**-k * (1 - 1 / q)
    if kind == 2:
        k, a = rng.randrange(3), rng.randrange(1, p)
        return f"ord(x) == {k} && ac(x) == {a}", q ** -(k + 1)
    k, c = rng.randrange(1, 4), rng.randrange(1, p * p)
    return f"ord(x - {c}) >= {k}", q**-k


def _definable(pj, rng):
    a1, a2 = pj.scheme("A1"), pj.scheme("A2")
    xy_t = pj.formula("xy_t").formula

    def check_specialize(verdicts):
        for v in verdicts:
            want = 2 * (1 - Fraction(1, v.prime))
            expect(v.status == "MATCH" and v.measured == v.expected == want,
                   f"xy = t at p={v.prime}: {v.status} {v.measured}, expected {want}")
        expect([v.prime for v in verdicts] == [3, 5], "verdict primes")
        return 0
    queries = [
        Query(
            "specialize_primes(xy_t, (3, 5), 2*(1-1/q), max_level 3)",
            lambda: ps.specialize_primes(xy_t, a2, 1, (3, 5), "2*(1 - 1/q)", max_level=3),
            check_specialize,
        ),
        _measure_query("measure_formula(xy_t, Z_3, max_level 4)", xy_t, a2,
                       pj.ring("p3n0"), 4, Fraction(4, 3)),
        _measure_query("measure_formula(even_ord_unit, Z_3, max_level 6)",
                       pj.formula("even_ord_unit").formula, a1, pj.ring("p3n0"), 6,
                       Fraction(91, 243)),
    ]
    for p in (3, 5, 7):
        queries.append(_measure_query(
            f"measure_formula(ord(x) >= 1, Z_{p}, max_level 3)",
            pj.formula("ord_ge_1").formula, a1, pj.ring(f"p{p}n0"), 3,
            Fraction(1, p)))

    # seeded: one-variable templates at p = 3 and p = 5, and x*y = c t
    for p, max_level in ((3, 5), (5, 4)):
        text, want = _template(rng, p)
        queries.append(_measure_query(
            f"measure_formula({text}, Z_{p}, max_level {max_level})",
            ps.parse_formula(text, ("x",)), a1, pj.ring(f"p{p}n0"), max_level, want))
    c = rng.randrange(1, 3)
    text = f"ord(x*y - {c}*t) == INFINITY"
    queries.append(_measure_query(
        f"measure_formula({text}, Z_3, max_level 3)", ps.parse_formula(text, XY),
        a2, pj.ring("p3n0"), 3, Fraction(4, 3)))
    return queries


# the over-bound query of the definable workload, run once per run outside
# the timed passes: it must refuse cleanly and name its bound, or answer
# exactly
REFUSAL_PROBE = "measure_formula(xy_t, Z_5, max_level 4)"


def refusal_probe():
    pj = ps.load_project(PROJECT)

    def check(res):
        expect(res.status == "STABILIZED" and res.value == Fraction(8, 5),
               f"{REFUSAL_PROBE}: {res.value} ({res.status}), expected 8/5")
        return int((res.upper[-1] - res.lower[-1]) * 5 ** (5 * 1))
    return Query(
        REFUSAL_PROBE,
        lambda: ps.measure_formula(pj.formula("xy_t").formula, pj.scheme("A2"), 1,
                                   pj.ring("p5n0"), max_level=4),
        check,
    )


# ---------------------------------------------------------------------------
# digits: Witt vectors and Greenberg transforms


def _greenberg_query(label, X, f, p, n, truth):
    def run():
        G = ps.greenberg_transform(X, p, n)
        return G, G.enumerate_points()

    def check(answer):
        G, points = answer
        want = truth()
        expect(len(points) == want, f"{label}: {len(points)} points, expected {want}")
        m = p ** (n + 1)
        decoded = set()
        for pt in points:
            zp = G.decode_point(pt)
            expect(G.encode_point(zp) == pt, f"{label}: digit round trip fails at {pt}")
            expect(f.at_int(zp, m) == 0, f"{label}: {zp} is not a point mod {m}")
            decoded.add(zp)
        expect(len(decoded) == len(points), f"{label}: digit points collide")
        return 0
    return Query(label, run, check)


def _digits(pj, rng):
    queries = []
    for p, length in ((2, 5), (3, 4), (5, 3)):
        points = [
            tuple(tuple(rng.randrange(-9, 10) for _ in range(length)) for _ in "ab")
            for _ in range(3)
        ]

        def check(polys, p=p, length=length, points=points):
            check_structure(polys, p, length, points)
            return 0
        queries.append(Query(
            f"structure_polynomials({p}, {length})",
            lambda p=p, length=length: ps.structure_polynomials(p, length),
            check,
        ))
    conic = pj.scheme("X_conic")
    xy3 = Poly(XY, [(1, (1, 1)), (-3, (0, 0))])
    queries += [
        _greenberg_query("greenberg(conic, p=3, n=3)", conic, CONIC, 3, 3,
                         lambda: smooth_count(count_mod(CONIC, 3), 3, 3, 1)),
        _greenberg_query("greenberg(conic, p=5, n=2)", conic, CONIC, 5, 2,
                         lambda: smooth_count(count_mod(CONIC, 5), 5, 2, 1)),
        _greenberg_query("greenberg(xy3, p=3, n=3)", pj.scheme("xy3"), xy3, 3, 3,
                         lambda: 2 * 2 * 3**3),
        _greenberg_query("greenberg(fermat, p=3, n=1)", pj.scheme("fermat"), FERMAT,
                         3, 1, lambda: count_mod(FERMAT, 9)),
    ]
    # seeded: quadrics with unit coefficients, checked by brute force over
    # Z/p^(n+1) at the same size (p^(N(n+1)) = 729)
    for variables, n in ((XY, 2), (("x", "y", "z"), 1)):
        f = _diagonal_quadric(rng, 3, variables)
        queries.append(_greenberg_query(
            f"greenberg({f.text()}, p=3, n={n})",
            _scheme(f"seeded{len(variables)}", f, len(variables) - 1), f, 3, n,
            lambda f=f, n=n: count_mod(f, 3 ** (n + 1))))
    return queries


BUILDERS = {"lift": _lift, "ring": _ring, "definable": _definable, "digits": _digits}
