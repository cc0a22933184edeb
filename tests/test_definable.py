import itertools
import operator
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from padicstacks import definable
from padicstacks.definable import (
    And,
    FormulaSyntaxError,
    Not,
    Or,
    OrdAtom,
    OrdCong,
    RAc,
    RAdd,
    RConst,
    RMul,
    RNeg,
    RRed,
    ResAtom,
    eval_formula,
    measure_formula,
    parse_formula,
    parse_q_expression,
    specialize_primes,
)
from padicstacks.measures import STABLE_RUN, _stabilize
from padicstacks.polyscheme import (
    DEFAULT_SLACK,
    AffineScheme,
    LiftAnalyzer,
    LiftStatus,
    MultiPoly,
    enumerate_points,
    tau_point,
)
from padicstacks.rings import INFINITY, BoundExceeded, make_ring, p_valuation
from padicstacks.tree import BallTree

A1 = AffineScheme.affine_space("A1", ("x",))
A2 = AffineScheme.affine_space("A2", ("x", "y"))


def spec(p, n):
    return make_ring(p, n=n)


# ---------------------------------------------------------------------------
# parsing


def test_parse_ord_atom():
    f = parse_formula("ord(x) >= 1", ("x",))
    assert isinstance(f, OrdAtom)
    assert f.op == ">=" and f.rhs == ("const", 1)


def test_parse_conjunction_and_congruence():
    f = parse_formula("ac(x) == 1 && ord(x) mod 2 == 0", ("x",))
    assert isinstance(f, And)
    assert isinstance(f.left, ResAtom)
    assert isinstance(f.right, OrdCong)
    assert f.right.modulus == 2 and f.right.residue == 0


def test_parse_infinity_atom():
    f = parse_formula("ord(x*y - t) == INFINITY", ("x", "y"))
    assert isinstance(f, OrdAtom)
    assert f.op == "==" and f.rhs == ("const", INFINITY)


def test_parse_val_equality_and_ord_comparison():
    f = parse_formula("x*y - 3 == 0", ("x", "y"))
    assert f == OrdAtom(f.poly, "==", ("const", INFINITY))
    g = parse_formula("x != 0", ("x",))
    assert g == Not(OrdAtom(g.inner.poly, "==", ("const", INFINITY)))
    h = parse_formula("ord(x) <= ord(y) + 2", ("x", "y"))
    assert h.rhs[0] == "ord" and h.rhs[2] == 2


def test_parse_errors():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ord(x) >=", ("x",))
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ord(z) >= 1", ("x",))  # unbound variable
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ord(x) mod 1 == 0", ("x",))  # modulus < 2
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ac(x) == y", ("x", "y"))  # sort mismatch
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ord(x) == 1 &&", ("x",))


def test_target_variable_t_is_rejected():
    # t names the uniformizer; a point coordinate called t used to be read
    # as p by ord(...), so ord(t) >= 1 came out true at all 9 points of
    # A^2(Z/3) instead of at the 3 with t = 0
    with pytest.raises(FormulaSyntaxError, match="'t' is reserved for the uniformizer"):
        parse_formula("ord(t) >= 1", ("x", "t"))


def test_parse_negation_and_parens():
    f = parse_formula("!(ord(x) >= 1) || ac(x) == 2", ("x",))
    assert isinstance(f.left, Not)


# spellings of one condition over polynomials f and g: the first group
# asserts f = g exactly, the second its negation
_SPELLINGS = (
    ("{f} == {g}", "{f} - ({g}) == 0", "ord({f} - ({g})) == INFINITY",
     "ord({f} - ({g})) >= INFINITY"),
    ("{f} != {g}", "!({f} == {g})", "ord({f} - ({g})) != INFINITY",
     "ord({f} - ({g})) < INFINITY"),
)


def test_equivalent_spellings_parse_to_one_tree():
    variables = ("x", "y")
    for f, g in itertools.product(_POLYS, repeat=2):
        exact = OrdAtom(parse_formula(f"{f} - ({g}) == 0", variables).poly, "==",
                        ("const", INFINITY))
        for group, want in zip(_SPELLINGS, (exact, Not(exact))):
            for spelling in group:
                text = spelling.format(f=f, g=g)
                assert parse_formula(text, variables) == want, text
    eq = parse_formula("ac(x) == red(y) + 1", variables)
    assert isinstance(eq, ResAtom)
    assert parse_formula("ac(x) != red(y) + 1", variables) == Not(eq)
    assert parse_formula("ord(x) != ord(y) - 1", variables) == Not(
        parse_formula("ord(x) == ord(y) - 1", variables))


def test_equivalent_spellings_measure_alike():
    # one tree, so one measure on every ring family, upgrades included: a
    # negated exact atom spelled through ord is certified as f != g is
    for _, ring, max_level in _BATTERY_RINGS:
        base = ring.at_level(0)
        for f, g in (("x*y - t", "x - 1"), ("x^2 - y", "y - 2"), ("3*x", "x + 3")):
            for group in _SPELLINGS:
                got = {(tuple(m.lower), tuple(m.upper), m.status)
                       for m in (measure_formula(spelling.format(f=f, g=g), A2, 2, base,
                                                 max_level=max_level)
                                 for spelling in group)}
                assert len(got) == 1, (f, g, group, ring)


def test_zero_polynomial_has_infinite_ord_on_every_ring():
    # t - t and x - x read ord = INFINITY exactly, not only on Z_p
    for ring in (make_ring(3, e=2, eisenstein=(-3, 0)), make_ring(2, r=2), make_ring(3)):
        for text, value in (("x - x == 0", 1), ("t - t == 0", 1), ("x - x != 0", 0),
                            ("ord(x - x) mod 2 == 0", 0), ("ord(x - x) >= ord(x) + 5", 1)):
            m = measure_formula(text, A1, 1, ring, max_level=3)
            assert (m.status, m.value, m.lower, m.upper) == (
                "STABILIZED", value, [value] * 4, [value] * 4), (text, ring)


# ---------------------------------------------------------------------------
# pointwise evaluation


def ints(points):
    return sorted(pt[0] for pt in points)


def test_eval_ord_ge_one_over_z9():
    res = eval_formula(parse_formula("ord(x) >= 1", ("x",)), A1, spec(3, 1))
    assert ints(res.certain_true) == [0, 3, 6]
    assert not res.undetermined


def test_eval_ac_equals_two_over_z9():
    res = eval_formula(parse_formula("ac(x) == 2", ("x",)), A1, spec(3, 1))
    assert ints(res.certain_true) == [2, 5, 6, 8]
    # the invisible point x = 0 cannot decide its leading digit
    assert ints(res.undetermined) == [0]


def test_eval_ord_equals_two_at_level_one():
    res = eval_formula(parse_formula("ord(x) == 2", ("x",)), A1, spec(3, 1))
    assert res.certain_true == []
    assert ints(res.undetermined) == [0]
    assert len(res.certain_false) == 8


def test_eval_infinity_atom_undetermined():
    res = eval_formula(
        parse_formula("ord(x*y - t) == INFINITY", ("x", "y")), A2, spec(3, 1)
    )
    assert res.certain_true == []
    assert len(res.undetermined) == 12  # the level-1 points of xy = 3


def test_eval_constant_atoms_are_exact():
    # t = 3 here, so ord(t^2) = 2 exactly even at level 0
    res = eval_formula(parse_formula("ord(t*t) == 2", ("x",)), A1, spec(3, 0))
    assert len(res.certain_true) == 3
    res = eval_formula(parse_formula("t*t - 9 == 0", ("x",)), A1, spec(3, 0))
    assert len(res.certain_true) == 3


def test_eval_res_polynomial_equation():
    # red(x)^2 + red(y)^2 == 1 picks the conic residues
    f = parse_formula("red(x)^2 + red(y)^2 == 1", ("x", "y"))
    res = eval_formula(f, A2, spec(5, 0))
    assert len(res.certain_true) == 4
    assert not res.undetermined


def test_negation_soundness():
    f = parse_formula("ac(x) == 2", ("x",))
    g = Not(f)
    r1 = eval_formula(f, A1, spec(3, 1))
    r2 = eval_formula(g, A1, spec(3, 1))
    assert r1.certain_true == r2.certain_false
    assert r1.certain_false == r2.certain_true
    assert r1.undetermined == r2.undetermined


def test_truncation_compatibility():
    # certain truth at level n persists after truncating the point
    f = parse_formula("ord(x) >= 1 && ac(x) == 1", ("x",))
    hi = eval_formula(f, A1, spec(3, 2))
    lo = eval_formula(f, A1, spec(3, 1))
    lo_true = set(lo.certain_true) | set(lo.undetermined)
    for pt in hi.certain_true:
        assert tau_point(pt, 3, 1) in lo_true


def test_ramified_evaluation():
    # over Z_3[w]/(w^2 - 3): ord(t) = 1 and ord(3) = 2
    E = make_ring(3, e=2, eisenstein=(-3, 0), n=2)
    res = eval_formula(parse_formula("ord(t) == 1", ("x",)), A1, E)
    assert len(res.certain_true) == E.size
    res = eval_formula(parse_formula("ord(x) == 2", ("x",)), A1, E)
    assert len(res.certain_true) == (3 - 1) * 3 ** 0  # 3 * unit digits at slot 2


def test_uniformizer_reads_as_p_in_certificates():
    # (t^2 + 2t + 3)(t - 1) is 38 * 4 = 152 at t = 5: the one point of
    # x = 152 is certified at every level only if the certificate reads
    # the product at t = p, as it reads the integer
    for text in ("x - (t^2 + 2*t + 3)*(t - 1) == 0", "x - 152 == 0"):
        m = measure_formula(text, A1, 0, make_ring(5), max_level=3)
        assert (m.status, m.value, m.lower, m.upper) == ("STABILIZED", 1, [1] * 4, [1] * 4)


# ---------------------------------------------------------------------------
# measures of definable sets


def test_measure_ord_ge_one():
    for p in (3, 5, 7):
        res = measure_formula("ord(x) >= 1", A1, 1, make_ring(p), max_level=3)
        assert res.status == "STABILIZED"
        assert res.value == Fraction(1, p)


def test_measure_bounded_even_order_unit_class():
    f = "ord(x) mod 2 == 0 && ord(x) <= 4 && ac(x) == 1"
    res = measure_formula(f, A1, 1, make_ring(3), max_level=6)
    assert res.status == "STABILIZED"
    assert res.value == Fraction(91, 243)


def test_measure_exact_equation_set_via_certificates():
    # the set xy = p, cut out by an exact-vanishing atom, stabilizes at
    # 2(1 - 1/p) thanks to the lift-certificate upgrade of the sandwich
    res = measure_formula(
        "ord(x*y - t) == INFINITY", A2, 1, make_ring(3), max_level=3
    )
    assert res.status == "STABILIZED"
    assert res.value == Fraction(4, 3)


def test_measure_poly_eq_form_matches_infinity_form():
    r1 = measure_formula("x*y - t == 0", A2, 1, make_ring(3), max_level=3)
    r2 = measure_formula(
        "ord(x*y - t) == INFINITY", A2, 1, make_ring(3), max_level=3
    )
    assert r1.status == r2.status == "STABILIZED"
    assert r1.value == r2.value == Fraction(4, 3)


def test_measure_boolean_algebra_identity():
    # mu(f or g) + mu(f and g) = mu(f) + mu(g) on stabilized instances
    base = make_ring(3)
    f = "ord(x) <= 1"
    g = "ord(x) >= 1 && ord(x) <= 2"
    vals = {}
    for name, text in (
        ("f", f),
        ("g", g),
        ("or", f + " || " + g),
        ("and", "(" + f + ") && (" + g + ")"),
    ):
        res = measure_formula(text, A1, 1, base, max_level=5)
        assert res.status == "STABILIZED", name
        vals[name] = res.value
    assert vals["f"] == Fraction(8, 9)
    assert vals["g"] == Fraction(8, 27)
    assert vals["or"] + vals["and"] == vals["f"] + vals["g"]


def test_measure_additivity_of_leading_digit_partition():
    # the classes ac = 1, ac = 2 and {x = 0} partition Z_3; the certified
    # level counts add up to the full ring at every level
    base = make_ring(3)
    parts = ["ac(x) == 1", "ac(x) == 2", "x == 0"]
    results = [
        measure_formula(t, A1, 1, base, max_level=4) for t in parts
    ]
    for level in range(5):
        total = sum(r.lower[level] for r in results)
        assert total == 1


def test_measure_partial_when_bounds_stay_apart():
    # ac-class measures never stabilize: x = 0 stays undetermined forever
    res = measure_formula("ac(x) == 1", A1, 1, make_ring(3), max_level=4)
    assert res.status == "PARTIAL"
    assert res.value is None
    for lo, up in zip(res.lower, res.upper):
        assert up - lo > 0


def test_measure_bound_limits_balls_read_per_level():
    xy_t = "ord(x*y - t) == INFINITY"
    for bound in (None, 100_000):  # 5^10 tuples at level 4, 31,250 balls read
        res = measure_formula(xy_t, A2, 1, make_ring(5), max_level=4, bound=bound)
        assert (res.status, res.value) == ("STABILIZED", Fraction(8, 5))
    # undecided at every level, so the walk reads every tuple: 9^(n+1)
    # balls at level n, and 729 at level 2 is the tightest bound accepted
    never = "ord(t^30*x) == 40"
    res = measure_formula(never, A2, 1, make_ring(3), max_level=2, bound=729)
    assert res.status == "PARTIAL"
    with pytest.raises(BoundExceeded, match=r"^formula walk of 729 balls at level 2 "
                                            r"exceeds bound 728$"):
        measure_formula(never, A2, 1, make_ring(3), max_level=2, bound=728)
    with pytest.raises(BoundExceeded, match=r" exceeds bound 1000$"):
        measure_formula(never, A2, 1, make_ring(3), bound=1000)


def test_eval_determinism():
    f = parse_formula("ac(x) == 1 && ord(x) mod 2 == 0", ("x",))
    a = eval_formula(f, A1, spec(3, 2))
    b = eval_formula(f, A1, spec(3, 2))
    assert a.certain_true == b.certain_true
    assert a.certain_false == b.certain_false
    assert a.undetermined == b.undetermined


# ---------------------------------------------------------------------------
# specialization across primes


def test_q_expression_parser():
    e = parse_q_expression("2*(1 - 1/q)")
    assert e(Fraction(3)) == Fraction(4, 3)
    assert e(Fraction(5)) == Fraction(8, 5)
    assert parse_q_expression("1/q^2")(Fraction(3)) == Fraction(1, 9)
    with pytest.raises(FormulaSyntaxError):
        parse_q_expression("q +")



def test_specialize_ord_ge_one():
    verdicts = specialize_primes(
        "ord(x) >= 1", A1, 1, (3, 5, 7), "1/q", max_level=3
    )
    assert [v.status for v in verdicts] == ["MATCH"] * 3


def test_specialize_xy_t_set():
    verdicts = specialize_primes(
        "ord(x*y - t) == INFINITY", A2, 1, (3, 5), "2*(1 - 1/q)", max_level=3
    )
    assert [v.status for v in verdicts] == ["MATCH", "MATCH"]
    assert [v.measured for v in verdicts] == [Fraction(4, 3), Fraction(8, 5)]


def test_specialize_negative_control():
    verdicts = specialize_primes(
        "ord(x*y - t) == INFINITY", A2, 1, (3, 5), "1/q^2", max_level=3
    )
    assert [v.status for v in verdicts] == ["MISMATCH", "MISMATCH"]


@pytest.mark.parametrize("prime, expression", [(0, "1/q"), (4, "1/(q-4)")])
def test_specialize_non_prime_rejected(prime, expression):
    # a bad prime used to be blamed on the expression
    with pytest.raises(ValueError, match=f"^{prime} is not prime$"):
        specialize_primes("ord(x) >= 1", A1, 1, (3, prime), expression)


def test_specialize_bad_prime_rejected():
    with pytest.raises(ValueError):
        specialize_primes("ord(x) >= 1", A1, 1, (3,), "1/q", bad_primes=(3,))


@pytest.mark.parametrize("primes, expression, bad_primes, message", [
    ((5, 2), "1/q", (2,), "^prime 2 is declared bad for this formula$"),
    ((5, 3), "1/(q-3)", (), "^expression undefined at q=3$"),
    ((3, 5, 3), "1/q", (), "^prime 3 is listed twice$"),
])
def test_specialize_refuses_before_any_measure(monkeypatch, primes, expression,
                                               bad_primes, message):
    calls = []
    monkeypatch.setattr(definable, "measure_formula", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        specialize_primes("ord(x) >= 1", A1, 1, primes, expression, bad_primes=bad_primes)
    assert calls == []


# ---------------------------------------------------------------------------
# compiled evaluation and the ball walk against the per-point interpreter
#
# The interpreter's three-valued logic is its own: truth tables for the
# connectives, and a comparison of valuation intervals written from its
# definition.  None is undetermined.

T, F, U = True, False, None
_NOT = {T: F, F: T, U: U}
_AND = {(T, T): T, (T, F): F, (T, U): U,
        (F, T): F, (F, F): F, (F, U): F,
        (U, T): U, (U, F): F, (U, U): U}
_OR = {(T, T): T, (T, F): T, (T, U): T,
       (F, T): T, (F, F): F, (F, U): U,
       (U, T): T, (U, F): U, (U, U): U}
_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def _interval_values(interval, top):
    """The valuations an interval (lo, hi) allows, hi possibly INFINITY.
    An unbounded interval lists its integers up to `top` and INFINITY."""
    lo, hi = interval
    if hi is not INFINITY:
        return list(range(lo, hi + 1))
    return [INFINITY] if lo is INFINITY else [*range(lo, top + 1), INFINITY]


def _compare(lhs, op, rhs):
    """lhs op rhs on valuation intervals: True when the relation holds for
    every pair of values the intervals allow, False when it holds for none,
    else None.  An integer past every finite endpoint relates to the other
    allowed values as `top` does, and two such integers relate as `top`
    and INFINITY or as `top` and itself, so `top` stands for all of them."""
    top = max((v for v in (*lhs, *rhs) if v is not INFINITY), default=0) + 1
    holds = {_RELATIONS[op](a, b) for a in _interval_values(lhs, top)
             for b in _interval_values(rhs, top)}
    return holds.pop() if len(holds) == 1 else None


def test_three_valued_logic_matches_its_definitions():
    # a truth value allows one boolean, or both when undetermined; a
    # connective is decided when every choice of allowed booleans agrees
    allows = {T: (True,), F: (False,), U: (True, False)}

    def kleene(op, *values):
        results = {op(*choice) for choice in itertools.product(*map(allows.get, values))}
        return results.pop() if len(results) == 1 else None

    for a in (T, F, U):
        assert definable._tv_not(a) is _NOT[a] is kleene(operator.not_, a)
        for b in (T, F, U):
            assert definable._tv_and(a, b) is _AND[a, b] is kleene(lambda x, y: x and y, a, b)
            assert definable._tv_or(a, b) is _OR[a, b] is kleene(lambda x, y: x or y, a, b)
    ends = (0, 1, 2, 3, INFINITY)
    intervals = [(lo, hi) for lo in ends for hi in ends if lo <= hi]
    for lhs, rhs in itertools.product(intervals, repeat=2):
        for op in _RELATIONS:
            # != parses to the negation of ==, so it is checked as that
            got = (_NOT[definable._cmp_intervals(lhs, "==", rhs)] if op == "!="
                   else definable._cmp_intervals(lhs, op, rhs))
            assert got is _compare(lhs, op, rhs), (lhs, op, rhs)


class _Interpreter:
    """The formula evaluation that ran before formulas were compiled once
    per ring: it walks the syntax tree at every point, decides per call
    whether a polynomial involves only t, and memoizes values per point.
    A test-local copy, the independent reference for the compiled
    readers and for the upgrade oracle's use of them."""

    def __init__(self, spec):
        self.spec = spec
        self.n = spec.n
        self.field = spec.residue_field
        self._t = spec.uniformizer_coordinate()
        self._compiled = {}
        self._args = None
        self._values = {}

    def set_point(self, point):
        self._args = point + (self._t,)
        self._values = {}

    def _value(self, poly):
        key = id(poly)
        if key not in self._values:
            if key not in self._compiled:
                self._compiled[key] = self.spec.compile(poly)
            self._values[key] = self._compiled[key](self._args)
        return self._values[key]

    def _exact_int_value(self, poly):
        if self.spec.e != 1 or "t" not in poly.variables:
            return None
        t_idx = poly.variables.index("t")
        g = 0
        for expo, coeff in poly.terms.items():
            if any(e for k, e in enumerate(expo) if k != t_idx):
                return None
            g += coeff * self.spec.p ** expo[t_idx]
        return g

    def ord_interval(self, poly):
        if not poly.terms:
            return (INFINITY, INFINITY)
        g = self._exact_int_value(poly)
        if g is not None:
            v = p_valuation(g, self.spec.p)
            return (v, v)
        v = self.spec.valuation(self._value(poly))
        if v is INFINITY:
            return (self.n + 1, INFINITY)
        return (v, v)

    def res(self, expr):
        if isinstance(expr, RConst):
            return self.field.from_int(expr.value)
        if isinstance(expr, RAc):
            if expr.poly.is_zero():
                return self.field.zero()
            value = self._value(expr.poly)
            return self.spec.ac(value) if value else None
        if isinstance(expr, RRed):
            return self.spec.residue(self._value(expr.poly))
        if isinstance(expr, (RAdd, RMul)):
            a, b = self.res(expr.left), self.res(expr.right)
            if a is None or b is None:
                return None
            return a + b if isinstance(expr, RAdd) else a * b
        a = self.res(expr.inner)
        if a is None:
            return None
        return -a if isinstance(expr, RNeg) else a**expr.exponent

    def atom(self, node, overrides):
        if overrides and node in overrides:
            return overrides[node]
        if isinstance(node, OrdAtom):
            lhs = self.ord_interval(node.poly)
            if node.rhs[0] == "const":
                rhs = (node.rhs[1], node.rhs[1])
            else:
                lo, hi = self.ord_interval(node.rhs[1])
                rhs = (lo + node.rhs[2], hi + node.rhs[2])
            return _compare(lhs, node.op, rhs)
        if isinstance(node, OrdCong):
            lo, hi = self.ord_interval(node.poly)
            if lo is INFINITY:
                return False
            if lo == hi:
                return lo % node.modulus == node.residue
            return None
        a, b = self.res(node.left), self.res(node.right)
        if a is None or b is None:
            return None
        return a == b

    def eval(self, node, overrides=None):
        if isinstance(node, And):
            a = self.eval(node.left, overrides)
            return False if a is False else _AND[a, self.eval(node.right, overrides)]
        if isinstance(node, Or):
            a = self.eval(node.left, overrides)
            return True if a is True else _OR[a, self.eval(node.right, overrides)]
        if isinstance(node, Not):
            return _NOT[self.eval(node.inner, overrides)]
        return self.atom(node, overrides)

    def open_exactness_atoms(self, node, out):
        if isinstance(node, (And, Or)):
            self.open_exactness_atoms(node.left, out)
            self.open_exactness_atoms(node.right, out)
        elif isinstance(node, Not):
            self.open_exactness_atoms(node.inner, out)
        elif isinstance(node, OrdAtom) and node.op == "==" and node.rhs == ("const", INFINITY):
            if self.atom(node, None) is None:
                out.setdefault(node, node.poly)


_STATUS = {True: LiftStatus.CERTIFIED_LIFTABLE, False: LiftStatus.CERTIFIED_NOT,
           None: LiftStatus.UNKNOWN}


class _CheckedTree:
    """`BallTree.verdict` as a LiftStatus, checked on every question: it
    decides whatever `LiftAnalyzer.status` decides, the same way, and a
    point it decides that status leaves open is confirmed by listing every
    lift of the point level by level: a certified point still lifts three
    levels up, and a refuted one runs out of lifts within ten."""

    def __init__(self, gens, n_vars, p):
        self.tree = BallTree(gens, n_vars, p)
        self.reference = LiftAnalyzer(gens, n_vars, p)

    def status(self, point, n, slack):
        verdict = self.tree.verdict(point, n, slack)
        want = self.reference.status(point, n, slack)
        if want is LiftStatus.UNKNOWN and verdict is not None:
            frontier, k = [tau_point(point, self.reference.p, n)], n
            while frontier and k < n + (3 if verdict else 10):
                k += 1
                frontier = self.reference.lift_frontier(frontier, k, 10**4)
            assert bool(frontier) is verdict, (point, n, slack)
        else:
            assert _STATUS[verdict] is want, (point, n, slack)
        return _STATUS[verdict]


def _fold_t(poly, variables, p):
    """A formula polynomial over variables + ('t',) read at t = p, term by
    term."""
    assert poly.variables == variables + ("t",)
    terms = Counter()
    for expo, c in poly.terms.items():
        terms[expo[:-1]] += c * p ** expo[-1]
    return MultiPoly(variables, terms)


class _ReferenceOracle:
    """The upgrade oracle's three passes as they ran on the interpreter,
    with its own certificate engines (LiftAnalyzer unless given), one per
    joint system of atom polynomials read at t = p."""

    def __init__(self, target, p, slack, engine=LiftAnalyzer):
        self.target = target
        self.p = p
        self.slack = slack
        self.engine = engine
        self._analyzers = {}

    def _analyzer(self, atom_polys):
        key = tuple(atom_polys)
        if key not in self._analyzers:
            folded = [_fold_t(q, self.target.variables, self.p) for q in atom_polys]
            self._analyzers[key] = self.engine(
                list(self.target.generators) + folded, len(self.target.variables), self.p)
        return self._analyzers[key]

    def _target_liftable(self, point, n):
        status = self._analyzer([]).status(point, n, self.slack)
        if status is LiftStatus.CERTIFIED_LIFTABLE:
            return True
        if status is LiftStatus.CERTIFIED_NOT:
            return False
        return None

    def settle_reference(self, formula, ctx, point, n):
        open_atoms = {}
        ctx.open_exactness_atoms(formula, open_atoms)
        if not open_atoms:
            return None
        atoms = list(open_atoms)
        overrides = {}
        for atom in atoms:
            status = self._analyzer([open_atoms[atom]]).status(point, n, self.slack)
            if status is LiftStatus.CERTIFIED_NOT:
                overrides[atom] = False
        if overrides and ctx.eval(formula, overrides) is False:
            return False
        live = [a for a in atoms if a not in overrides]
        if live:
            optimistic = dict(overrides)
            optimistic.update((atom, True) for atom in live)
            if ctx.eval(formula, optimistic) is True:
                status = self._analyzer([open_atoms[a] for a in live]).status(
                    point, n, self.slack)
                if status is LiftStatus.CERTIFIED_LIFTABLE:
                    return True
        elif overrides and self._target_liftable(point, n) is True:
            if ctx.eval(formula, overrides) is True:
                return True
        return None


def _reference_classes(formula, target, spec, oracle=None):
    ctx = _Interpreter(spec)
    classes = {True: [], False: [], None: []}
    for point in enumerate_points(target, spec):
        ctx.set_point(point)
        tv = ctx.eval(formula)
        if tv is None and oracle is not None:
            tv = oracle.settle_reference(formula, ctx, point, spec.n)
        classes[tv].append(point)
    return classes


def _reference_measure(formula, target, base_spec, max_level, engine=LiftAnalyzer):
    """(lower, upper, status) of measure_formula with d the number of
    target variables, read point by point over every level's ring."""
    oracle = (
        _ReferenceOracle(target, base_spec.p, DEFAULT_SLACK, engine)
        if base_spec.int_modulus is not None
        else None
    )
    d = len(target.variables)
    q = base_spec.p**base_spec.r
    levels = list(range(max_level + 1))
    lower, upper = [], []
    for n in levels:
        classes = _reference_classes(formula, target, base_spec.at_level(n), oracle)
        denom = q ** ((n + 1) * d)
        lower.append(Fraction(len(classes[True]), denom))
        upper.append(Fraction(len(classes[True]) + len(classes[None]), denom))
    status = _stabilize(levels, lower).status
    if status == "STABILIZED" and upper[-STABLE_RUN:] != lower[-STABLE_RUN:]:
        status = "PARTIAL"
    return lower, upper, status


# polynomials in the point variables and t, and polynomials in t alone,
# among them multiples of p, whose ord differs between t = p and a
# ramified t
_POLYS = ("x", "x - 1", "3*x", "x + 3", "x*y - t", "x^2 - y", "x - y*t", "y - 2",
          "x*y + y^2", "x^2 - t*y")
_T_POLYS = ("t", "t^2 - 3", "t^2 - 5", "t^2 + 2*t", "4", "5", "9", "t - t", "0")
_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _random_formula(rng, variables, depth=2):
    if depth and rng.random() < 0.6:
        kind = rng.randrange(3)
        if kind == 0:
            return f"!({_random_formula(rng, variables, depth - 1)})"
        glue = " && " if kind == 1 else " || "
        return (f"({_random_formula(rng, variables, depth - 1)}){glue}"
                f"({_random_formula(rng, variables, depth - 1)})")
    polys = [f for f in _POLYS if "y" not in f or "y" in variables]

    def poly():
        return rng.choice(_T_POLYS if rng.random() < 0.25 else polys)

    def res(depth=1):
        kind = rng.randrange(7 if depth else 3)
        if kind == 0:
            return f"ac({poly()})"
        if kind == 1:
            return f"red({poly()})"
        if kind == 2:
            return str(rng.randrange(-2, 5))
        if kind == 3:
            return f"{res(depth - 1)} + {res(depth - 1)}"
        if kind == 4:
            return f"({res(depth - 1)})*({res(depth - 1)})"
        if kind == 5:
            return f"-({res(depth - 1)})"
        return f"({res(depth - 1)})^{rng.randrange(4)}"

    kind = rng.randrange(7)
    if kind == 0:
        return f"ord({poly()}) {rng.choice(_OPS)} {rng.randrange(-1, 4)}"
    if kind == 1:
        return f"ord({poly()}) {rng.choice(('==', '>=', '!='))} INFINITY"
    if kind == 2:
        shift = rng.choice(("", " + 1", " - 1", " + 2", " - 2"))
        return f"ord({poly()}) {rng.choice(_OPS)} ord({poly()}){shift}"
    if kind == 3:
        m = rng.randrange(2, 4)
        return f"ord({poly()}) mod {m} == {rng.randrange(m)}"
    if kind == 4:
        return f"{poly()} {rng.choice(('==', '!='))} {poly()}"
    side = f"{rng.choice(('ac', 'red'))}({poly()})" + rng.choice(("", f" + {res()}"))
    return f"{side} {rng.choice(('==', '!='))} {res()}"


# (name, ring, max_level of the measures over its level-0 ring)
_BATTERY_RINGS = (
    ("Z/3^2", make_ring(3, n=1), 2),
    ("Z/2^3", make_ring(2, n=2), 3),
    ("Z/5", make_ring(5), 1),
    ("ramified(3, e=2)", make_ring(3, e=2, eisenstein=(-3, 0), n=2), 2),
    ("ramified(5, e=2)", make_ring(5, e=2, eisenstein=(5, -5), n=1), 1),
    ("GR(4)", make_ring(2, r=2, n=1), 1),
)


def _battery_formulas(seed, count=30):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        variables = rng.choice((("x",), ("x", "y")))
        out.append((_random_formula(rng, variables), variables))
    return out


def _atoms(node):
    if isinstance(node, (And, Or)):
        return _atoms(node.left) + _atoms(node.right)
    if isinstance(node, Not):
        return _atoms(node.inner)
    return [node]


_ATOM_KINDS = {"OrdAtom:const", "OrdAtom:ord", "exact", "OrdCong", "ResAtom"}


def _atom_kind(atom):
    if not isinstance(atom, OrdAtom):
        return type(atom).__name__
    if (atom.op, atom.rhs) == ("==", ("const", INFINITY)):
        return "exact"
    return f"OrdAtom:{atom.rhs[0]}"


def test_battery_formulas_cover_every_atom_kind():
    texts = [text for seed in range(len(_BATTERY_RINGS))
             for text, _ in _battery_formulas(seed)]
    atoms = [atom for seed in range(len(_BATTERY_RINGS))
             for text, variables in _battery_formulas(seed)
             for atom in _atoms(parse_formula(text, variables))]

    assert {_atom_kind(a) for a in atoms} == _ATOM_KINDS
    for t_poly in _T_POLYS:
        assert any(f"ord({t_poly})" in text for text in texts), t_poly


# targets with generators, whose membership the ball walk reads per level
_CURVES = (
    AffineScheme.from_text("conic", ("x", "y"), ("x^2 + y^2 - 1",), 1),
    AffineScheme.from_text("cusp", ("x", "y"), ("y^2 - x^3",), 1),
)


def _tight_bound(base, target, max_level):
    """The least bound under which the measure's last level enumerates
    every tuple: q^(N(max_level+1))."""
    return (base.p**base.r) ** (len(target.variables) * (max_level + 1))


def _assert_walk_matches_pointwise(text, target, base, max_level):
    # the walk reads every point as the pointwise reference does with the
    # tree's checked certificates; the LiftAnalyzer reference decides no
    # point the tree leaves open, so its interval contains the walk's
    formula = parse_formula(text, target.variables)
    m = measure_formula(formula, target, len(target.variables), base, max_level=max_level,
                        bound=_tight_bound(base, target, max_level))
    assert (m.lower, m.upper, m.status) == _reference_measure(
        formula, target, base, max_level, _CheckedTree), (text, target.name)
    if base.int_modulus is not None:  # other rings ask no certificate
        lower, upper, _ = _reference_measure(formula, target, base, max_level)
        assert all(lo <= a <= b <= up
                   for lo, a, b, up in zip(lower, m.lower, m.upper, upper)), (text, target.name)


@pytest.mark.parametrize("seed, name", enumerate(name for name, _, _ in _BATTERY_RINGS))
def test_compiled_evaluation_matches_interpreter(seed, name):
    _, ring, max_level = _BATTERY_RINGS[seed]
    base = ring.at_level(0)
    for k, (text, variables) in enumerate(_battery_formulas(seed)):
        formula = parse_formula(text, variables)
        target = AffineScheme.affine_space(f"A{len(variables)}", variables)
        res = eval_formula(formula, target, ring)
        want = _reference_classes(formula, target, ring)
        assert (res.certain_true, res.certain_false, res.undetermined) == (
            want[True], want[False], want[None]), text
        if k % 2 == 0 or ring.int_modulus is not None:  # upgrades run on Z/p^(n+1)
            for measured in (target, _CURVES[k % 2]):
                _assert_walk_matches_pointwise(text, measured, base, max_level)


# the battery rings, and three rings at level 2: eval_formula reads each
# point at its coarsest decided truncation, so level 2 has two coarser
# levels to read first
_EVAL_RINGS = tuple(ring for _, ring, _ in _BATTERY_RINGS) + (
    make_ring(3, n=2), make_ring(3, e=2, eisenstein=(-3, 0), n=2), make_ring(2, r=2, n=2))


@pytest.mark.parametrize("index", range(len(_EVAL_RINGS)))
def test_eval_formula_matches_interpreter_on_targets_with_generators(index):
    # the coarsest decided truncation of a point reads as the interpreter
    # reads the point at the ring's own level, on the curves and on a
    # generator with p-content, taken in turn; level 0 (no coarser level)
    # included
    ring = _EVAL_RINGS[index]
    texts = [text for text, _ in _battery_formulas(index % len(_BATTERY_RINGS))][:7]
    texts += ["ord(x*y - t) == INFINITY", "ac(x - y) == 1 || ord(x) mod 2 == 1"]
    # p(xy - 1) = 0 has p-content: its points have xy = 1 one level down
    targets = _CURVES + (AffineScheme.from_text("pxy", ("x", "y"), (f"{ring.p}*(x*y - 1)",), 1),)
    for level in sorted({0, ring.n}):
        spec_at = ring.at_level(level)
        for k, text in enumerate(texts):
            target = targets[k % len(targets)]
            formula = parse_formula(text, target.variables)
            res = eval_formula(formula, target, spec_at)
            want = _reference_classes(formula, target, spec_at)
            assert res.level == level
            assert (res.certain_true, res.certain_false, res.undetermined) == (
                want[True], want[False], want[None]), (text, target.name, spec_at)


def test_eval_formula_bound_refusals_are_unchanged():
    # the points still come from enumerate_points, which refuses them
    f = parse_formula("ord(x*y - t) == INFINITY", ("x", "y"))
    for ring in (make_ring(3, n=2), make_ring(3, e=2, eisenstein=(-3, 0), n=2)):
        assert len(eval_formula(f, A2, ring, bound=729).certain_false) == 693
        with pytest.raises(BoundExceeded, match=r"^enumeration of 729 tuples exceeds bound 728$"):
            eval_formula(f, A2, ring, bound=728)
        with pytest.raises(ValueError, match=r"^bound must be at least 1, got 0$"):
            eval_formula(f, A2, ring, bound=0)


def _counted_reads(monkeypatch):
    """A Counter of formula reads, each a call of an evaluator that
    definable._compile hands out, by (ring level, args, overrides)."""
    reads = Counter()
    real_compile = definable._compile

    def compile_counted(formula, ring):
        evaluate, exact_atoms = real_compile(formula, ring)

        def counted(args, overrides):
            reads[ring.n, args, frozenset((overrides or {}).items())] += 1
            return evaluate(args, overrides)

        return counted, exact_atoms

    monkeypatch.setattr(definable, "_compile", compile_counted)
    return reads


def test_eval_formula_reads_each_coarse_truncation_once(monkeypatch):
    # xy = t over A2 at level 2: the 9 level-0 truncations are read, 5 of
    # them (xy = 0 mod t) stay open, and their 45 lifts to level 1 leave 12
    # open, whose 108 points are read at level 2: 162 reads for 729
    # points, on a ramified ring as on Z/3^3.  ord(t^2 xy) >= 3 is open at
    # every point below level n, so it reads every truncation: 9 + 81 +
    # 729, a ninth more reads than one per point
    reads = _counted_reads(monkeypatch)
    for ring in (make_ring(3, e=2, eisenstein=(-3, 0), n=2), make_ring(3, n=2)):
        for text, per_level in (("ord(x*y - t) == INFINITY", {0: 9, 1: 45, 2: 108}),
                                ("ord(t^2*x*y) >= 3", {0: 9, 1: 81, 2: 729})):
            reads.clear()
            res = eval_formula(text, A2, ring)
            points = res.certain_true + res.certain_false + res.undetermined
            assert len(points) == 729 and max(reads.values()) == 1
            assert Counter(n for n, _, _ in reads) == per_level, (text, ring)


def test_interpreter_reads_are_monotone_in_the_level():
    # the premise of both formula walks, on the reference interpreter
    # alone: a level-(n-1) point read true or false has every lift read the
    # same at level n, for up to four atoms of each kind of the battery
    # formulas on every battery ring (Z/5 is read at Z/25); and Kleene's
    # connectives keep a decided value when an undetermined operand is
    # decided
    for a, b in itertools.product((T, F, U), repeat=2):
        for a2, b2 in itertools.product(*((v,) if v is not U else (T, F, U) for v in (a, b))):
            for table in (_AND, _OR):
                assert table[a, b] is U or table[a2, b2] is table[a, b]
    kinds = Counter()
    for seed, (_, ring, _) in enumerate(_BATTERY_RINGS):
        fine = ring.at_level(max(ring.n, 1))
        coarse = fine.at_level(fine.n - 1)
        if fine.int_modulus is not None:
            def truncate(point, m=coarse.int_modulus):
                return tuple(x % m for x in point)
        else:
            def truncate(point, m=coarse.n):
                return tuple(x.reduce(m) for x in point)
        atoms, per_kind = {}, Counter()  # at most four atoms of each kind
        for text, variables in _battery_formulas(seed):
            for atom in _atoms(parse_formula(text, variables)):
                if atom not in atoms and per_kind[_atom_kind(atom)] < 4:
                    per_kind[_atom_kind(atom)] += 1
                    atoms[atom] = variables
        for atom, variables in atoms.items():
            target = AffineScheme.affine_space(f"A{len(variables)}", variables)
            lo, hi = _Interpreter(coarse), _Interpreter(fine)
            read = {}
            for point in enumerate_points(target, coarse):
                lo.set_point(point)
                read[point] = lo.eval(atom)
            decided = 0
            for point in enumerate_points(target, fine):
                below = read[truncate(point)]
                if below is not None:
                    hi.set_point(point)
                    assert hi.eval(atom) is below, (atom, point, fine)
                    decided += 1
            kinds[_atom_kind(atom)] += decided > 0
    assert set(kinds) == _ATOM_KINDS and all(kinds.values()), kinds


def test_ball_walk_matches_pointwise_one_level_deeper():
    # Z/2's battery at level 4, on the battery's own affine targets and on
    # the curves
    seed = 1
    _, ring, max_level = _BATTERY_RINGS[seed]
    for k, (text, variables) in enumerate(_battery_formulas(seed)):
        for target in (AffineScheme.affine_space(f"A{len(variables)}", variables),
                       _CURVES[k % 2]):
            _assert_walk_matches_pointwise(text, target, ring.at_level(0), max_level + 1)


# targets with a singular point at the origin: an exact atom through it
# has no Hensel closure there
_CUSP, _NODE = _CURVES[1], AffineScheme.from_text("node", ("x", "y"), ("y^2 - x^2 - x^3",), 1)


def test_joint_certificates_match_pointwise():
    # two exact-vanishing atoms stay open together, so the oracle asks one
    # joint certificate for both (none of the battery's formulas does);
    # then balls that must not close although the target and the atoms are
    # smooth there: an atom of a disjunction (the formula need not read
    # false with it false), a negated atom, and a conjunct left
    # undetermined with the atoms true; and exact atoms through a singular
    # point.  At p = 2, x - y, xy - 1 rescale to a dependent system that
    # the tree leaves open where the Newton minor certifies, and at p = 5
    # the reference's lift listing cannot confirm the tree's refutations
    # near the origin of the cusp and node atoms.
    cases = (("x - y == 0 && x*y - 1 == 0", A2, (3, 5)),
             ("x*y - 1 == 0 && x^2 - y == 0", A2, (2, 3, 5)),
             ("x == 0 && y - 1 == 0", _CURVES[0], (2, 3, 5)),
             ("x*y - t == 0 || x - y == 0", A2, (2, 3, 5)),
             ("x*y - t == 0 || x - y - 1 == 0", A2, (2, 3, 5)),
             ("!(x*y - t == 0)", A2, (2, 3, 5)),
             ("x*y - t == 0 && ord(x) >= 2", A2, (2, 3, 5)),
             ("x - y == 0", _CUSP, (2, 3, 5)),
             ("x - y == 0", _NODE, (2, 3, 5)),
             ("x + y == 0 || ord(y) >= 1", _NODE, (2, 3, 5)),
             ("y^2 - x^3 == 0", A2, (2, 3)),
             ("y^2 - x^2 - x^3 == 0", A2, (2, 3)))
    for text, target, primes in cases:
        for p in primes:
            _assert_walk_matches_pointwise(text, target, spec(p, 0), 2)
    # x = y, xy = 1 is the two points (1, 1) and (-1, -1), each certified
    m = measure_formula("x - y == 0 && x*y - 1 == 0", A2, 2, spec(3, 0), max_level=2)
    assert m.lower == m.upper == [Fraction(2, 9 ** (n + 1)) for n in range(3)]
    # (0, 1) is a true point of the conic: three generators in two
    # variables have no Newton minor, but the tree finds its centre exact
    for p in (3, 5):
        m = measure_formula("x == 0 && y - 1 == 0", _CURVES[0], 0, spec(p, 0), max_level=4)
        assert m.lower == m.upper == [1] * 5
        assert (m.status, m.value) == ("STABILIZED", 1)


def test_ball_with_an_undetermined_disjunct_stays_open():
    # on xy = t or ord(x - 1) >= 3, a point of the curve with x = 1 mod p
    # reads true with the exact atom true, but not false with it false
    # while ord(x - 1) >= 3 is undetermined, so its ball must stay open
    # (guard (c) of `_KeptPoints`).  The image mod p^(n+1) is the curve's
    # 2(p-1)p^n points and x = 1 mod p^min(3, n+1) with any y, less one
    # point of the curve for each such x
    for p in (2, 3):
        m = measure_formula("x*y - t == 0 || ord(x - 1) >= 3", A2, 2, spec(p, 0), max_level=4)
        for n, (lower, upper) in enumerate(zip(m.lower, m.upper)):
            xs = p ** (n + 1 - min(3, n + 1))
            image = Fraction(2 * (p - 1) * p**n + xs * p ** (n + 1) - xs, p ** (2 * n + 2))
            assert lower <= image <= upper, (p, n)
            assert n < 2 or lower == upper, (p, n)


def test_smooth_balls_close_by_hensel():
    # every ball on xy = p closes at level 0 (the curve is smooth there),
    # so a walk that reads at most 100 balls a level reaches level 6;
    # reading every point of the curve, level 4 alone reads 31,250
    m = measure_formula("ord(x*y - t) == INFINITY", A2, 1, spec(5, 0), max_level=6, bound=100)
    assert (m.status, m.value) == ("STABILIZED", Fraction(8, 5))
    assert m.lower == m.upper == [Fraction(8, 5)] * 7


def test_non_reduced_balls_close_by_hensel():
    # the ball tree's normal form drops a row's content and a repeat up to
    # a unit, so a target generator repeated as an exact atom (with or
    # without p-content) and an atom with p-content close their balls where
    # the reduced system is smooth; each walk reads as the pointwise
    # reference does.  At level 1, t*x == 0 && ord(x) < 2 reads true with
    # its atom true and false with it false at every x = p k, k a unit,
    # where the atom is open; but the atom's primitive part x does not
    # vanish there mod p^2, so no such ball closes.  A point read true
    # counts every point of the target below it, with no certificate: on
    # 5x = 0 over Z/25 that is every x = 0 mod 5, where the root state x
    # has one zero, so at p = 5 such a ball stays open (at p = 2, 3 the
    # content 5 is a unit and it closes); with an open atom x == 0 the
    # ball closes, as the tree refutes the atom at the target's other points
    xy5 = AffineScheme.from_text("xy5", ("x", "y"), ("x*y - 5",), 1)
    X5 = AffineScheme.from_text("X5", ("x",), ("5*x",), 1)
    C5 = AffineScheme.from_text("C5", ("x", "y"), ("5*(x^2 + y^2 - 1)",), 1)
    for text, target, primes in (("5*(x^2 + y^2 - 1) == 0", _CURVES[0], (3, 5)),
                                 ("x^2 + y^2 - 1 == 0", _CURVES[0], (3, 5)),
                                 ("t*x == 0", A1, (2, 3, 5)),
                                 ("t*x == 0 && ord(x) < 2", A1, (2, 3, 5)),
                                 ("!(2*x^2 + 3*x*y + 9*x^2*y^2 == 0) && 3*(x*y - 5) == 0",
                                  xy5, (5,)),
                                 ("ord(x) >= 0", X5, (2, 3, 5)),
                                 ("ord(x) >= 0", C5, (3, 5)),
                                 ("x == 0", X5, (2, 3, 5)),
                                 ("x == 0", C5, (3, 5))):
        for p in primes:
            _assert_walk_matches_pointwise(text, target, spec(p, 0), 2)
    # ord(t x) >= 1 leaves every x open at level 0: the ball of 0 closes
    # with fibre 1, and at the others the tree refutes the atom, so they
    # settle false and leave the walk; only the p balls of level 0 are read
    for p in (2, 3, 5):
        m = measure_formula("t*x == 0", A1, 0, spec(p, 0), max_level=4, bound=p)
        assert m.lower == m.upper == [1] * 5 and (m.status, m.value) == ("STABILIZED", 1)
    # a repeated generator's balls close at level 0, so reading at most 40
    # balls a level is enough
    m = measure_formula("x^2 + y^2 - 1 == 0", _CURVES[0], 1, spec(5, 0), max_level=3, bound=40)
    assert (m.status, m.value) == ("STABILIZED", Fraction(4, 5))


def test_balls_settled_false_leave_the_walk(monkeypatch):
    # a point settles false when the formula reads false with its refuted
    # exact atoms read false; the tree finds no Z_p-zero of the target and
    # such an atom in the ball, so at every point below the atom reads
    # false or is refuted again, no ball closes, and the point reads or
    # settles false.  The walk reads no child of such a ball, and its
    # per-level bounds are still those of reading every point
    settled, read = set(), []
    original = definable._KeptPoints.read

    def recorded(self, tv, evaluate, exact_atoms, point, args, n):
        fibre, truth = original(self, tv, evaluate, exact_atoms, point, args, n)
        read.append((n, point))
        if not fibre and truth is False:
            settled.add((n, point))
        return fibre, truth

    monkeypatch.setattr(definable._KeptPoints, "read", recorded)
    for text, target, primes, max_level in (
            ("t*x == 0", A1, (2, 3, 5), 3),
            ("x*y - t == 0 && ord(x) >= 2", A2, (2, 3), 3),
            ("x*y - t == 0 && ord(x) >= 2", A2, (5,), 2),
            ("y^2 - x^3 == 0", A2, (2,), 3),
            ("y^2 - x^3 == 0", A2, (3,), 2),
            ("x - y == 0", _CUSP, (2, 3, 5), 3)):
        for p in primes:
            settled.clear()
            read.clear()
            _assert_walk_matches_pointwise(text, target, spec(p, 0), max_level)
            assert settled, (text, p)
            assert not any((n - 1, tuple(x % p**n for x in point)) in settled
                           for n, point in read if n), (text, p)


def test_kept_points_ask_each_question_once(monkeypatch):
    # points whose balls close (the first formula), settle (the second) and
    # stay open (the cusp atom): each atom set's ball tree is built once,
    # and no point is evaluated twice under one set of overrides
    trees, evaluations = Counter(), _counted_reads(monkeypatch)

    def tree(gens, n_vars, p):
        trees[tuple(gens)] += 1
        return BallTree(gens, n_vars, p)

    monkeypatch.setattr(definable, "BallTree", tree)
    for text, d, checked in (("x*y - t == 0 || x - y == 0", 1, True),
                             ("x - y == 0 && x*y - 1 == 0", 0, True),
                             ("y^2 - x^3 == 0", 1, False)):
        trees.clear()
        evaluations.clear()
        measure_formula(text, A2, d, spec(3, 0), max_level=3)
        assert trees and max(trees.values()) == 1, text
        assert evaluations and max(evaluations.values()) == 1, text
        if checked:  # the reference refuses the cusp atom at level 3
            _assert_walk_matches_pointwise(text, A2, spec(3, 0), 3)


def test_true_balls_on_affine_space_build_no_tree(monkeypatch):
    # a point of a target without generators that reads true closes its
    # ball at once, with q^N points below it a level down, on Z/p^(n+1) as
    # on element rings: no tree is asked about it, and the walk still
    # reads as the pointwise reference does.  Only an open exact atom
    # builds a tree, for its atom set
    systems = []
    real_tree = definable.BallTree

    def tree(gens, n_vars, p):
        systems.append(tuple(gens))
        return real_tree(gens, n_vars, p)

    monkeypatch.setattr(definable, "BallTree", tree)
    ram3 = make_ring(3, e=2, eisenstein=(-3, 0))
    for text, target, atoms in (("ord(x) >= 1", A1, 0),
                                ("ac(x) == 1 && ord(y) mod 2 == 0", A2, 0),
                                ("x == 0 || ord(y) >= 1", A2, 1)):
        for base, max_level in ((spec(5, 0), 2), (ram3, 2)):
            systems.clear()
            _assert_walk_matches_pointwise(text, target, base, max_level)
            want = atoms if base.int_modulus is not None else 0
            assert len(systems) == want and all(systems), (text, base)


def test_formula_over_other_variables_is_refused(monkeypatch):
    # readers take a point's coordinates by position, so a formula over
    # (y,) on a target over (x, y) read x as y (ord(y) >= 1 on the line
    # x = 1 measured 0, not 1/5), and one over (x, y) on A1 ran off the
    # point; each is refused naming both lists, before any walk
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(definable, "_compile", no_walk)
    line = AffineScheme.from_text("line", ("x", "y"), ("x - 1",), 1)
    for text, variables, target in (("ord(y) >= 1", ("y",), line),
                                    ("ord(x*y) >= 1", ("x", "y"), A1),
                                    ("ac(y) == 1", ("y", "x"), A2)):
        formula = parse_formula(text, variables)
        want = re.escape(f"formula over {variables + ('t',)} does not fit a target "
                         f"over {target.variables + ('t',)}")
        for call in (lambda: measure_formula(formula, target, 1, spec(5, 0), max_level=2),
                     lambda: eval_formula(formula, target, spec(5, 1)),
                     lambda: specialize_primes(formula, target, 1, (3, 5), "1/q")):
            with pytest.raises(ValueError, match=f"^{want}$"):
                call()
