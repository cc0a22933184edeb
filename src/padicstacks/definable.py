"""Quantifier-free valued-field conditions on points of affine targets:
parsing, three-valued evaluation at finite level, measures of the defined
sets, and comparison of one formula across several primes.

Atoms speak about a point through ord (valuation), ac (angular component,
the leading digit), red (reduction to the residue field), valuation-sort
polynomial equalities, and congruences of ord values.  The constant symbol
t stands for the uniformizer of whatever ring the formula is interpreted
in.

Truncation semantics: at level n the valuation of a vanishing value is
only known to be >= n+1, so atoms evaluate in three-valued logic: every
point reads True or False for certain, or None (undetermined).  Measures are
sandwiched between the certain set and certain-plus-undetermined; on top
of that, an undetermined point whose only open atoms assert exact
vanishing can be settled by lift certificates (a true solution nearby
with the same truncation), which is what lets sets cut out by equations
reach a stabilized measure.  A refuted atom reads false at every lift,
so its negation is settled too.  A measure walks balls rather than
points: a level-n point read true or false reads the same at every
deeper point reducing to it, so a ball read false is dropped, and so is
one settled false, as its refuted atoms stay refuted below it.  A ball
whose count below follows in closed form is closed and not read again:
a true ball on a target without generators, on every ring and before
any tree is asked, and, on Z/p^(n+1), a ball that the ball tree of the
target and the open exact atoms closes at its root (Hensel's lemma) and
on which those atoms decide the formula.  One reader, `_KeptPoints`,
decides each kept point: it closes the ball or settles the point, asking
one cached tree per set of open atoms, built with each atom at t = p.  Only
the other balls are read at the next level.

Each condition parses to one syntax tree.  Exact vanishing has one atom,
ord(f) == INFINITY, which f == 0, f == g (with f - g) and ord(f) >=
INFINITY also parse to; every != and ord(f) < INFINITY parse to the
negation of the matching ==.

A formula is compiled once per ring into readers: each polynomial is
compiled by the ring, and the ord of the zero polynomial, and of a
polynomial in t alone on an unramified ring, is decided at compile time.
A point then only runs those readers on the point plus the uniformizer.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from math import gcd

from .measures import DEFAULT_MAX_LEVEL, _stabilize
from .polyscheme import DEFAULT_SLACK, MultiPoly, _PolyParser, enumerate_points
from .rings import INFINITY, LocalRingSpec, at_least, p_valuation, prime, record, size_limit
from .syntax import _ExprParser
from .tree import BallTree


class FormulaSyntaxError(ValueError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def _tv_not(a):
    if a is True:
        return False
    if a is False:
        return True
    return None


def _tv_and(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def _tv_or(a, b):
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return None


# ---------------------------------------------------------------------------
# syntax trees


class Formula:
    pass


@record(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@record(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@record(frozen=True)
class Not(Formula):
    inner: Formula


@record(frozen=True)
class OrdAtom(Formula):
    """ord(poly) OP rhs, OP one of == < <= > >=; rhs is ('const', c), c an
    integer or INFINITY, or ('ord', poly, offset).  The exact-vanishing
    atom f = 0 is OrdAtom(f, '==', ('const', INFINITY)), whichever way the
    formula spells it."""

    poly: MultiPoly
    op: str
    rhs: tuple


@record(frozen=True)
class OrdCong(Formula):
    """ord(poly) == residue (mod modulus); false at infinite valuation."""

    poly: MultiPoly
    modulus: int
    residue: int


class ResExpr:
    pass


@record(frozen=True)
class RConst(ResExpr):
    value: int


@record(frozen=True)
class RAc(ResExpr):
    poly: MultiPoly


@record(frozen=True)
class RRed(ResExpr):
    poly: MultiPoly


@record(frozen=True)
class RAdd(ResExpr):
    left: ResExpr
    right: ResExpr


@record(frozen=True)
class RMul(ResExpr):
    left: ResExpr
    right: ResExpr


@record(frozen=True)
class RNeg(ResExpr):
    inner: ResExpr


@record(frozen=True)
class RPow(ResExpr):
    inner: ResExpr
    exponent: int


@record(frozen=True)
class ResAtom(Formula):
    """Residue-sort polynomial equation over ac/red values."""

    left: ResExpr
    right: ResExpr


# ---------------------------------------------------------------------------
# parsing
#
# grammar:  formula  := disj ; disj := conj ('||' conj)* ;
#           conj     := unit ('&&' unit)* ;
#           unit     := '!' unit | '(' formula ')' | atom ;
#           atom     := 'ord' '(' poly ')' ['mod' INT] CMP ordrhs
#                     | side ('=='|'!=') side
#           ordrhs   := 'INFINITY' | INT | '-' INT
#                     | 'ord' '(' poly ')' [('+'|'-') INT]
#           side     := the shared expression grammar (syntax.py) with
#                       leaves INT, variable, 't', 'ac(poly)', 'red(poly)'
#
# a side containing ac/red is residue-sort; otherwise it is a valuation
# polynomial and the comparison must be an (in)equality against another
# valuation polynomial.  Each condition has one tree: f == g and
# ord(f - g) >= INFINITY read as ord(f - g) == INFINITY, and every != (of
# either sort) and ord(f) < INFINITY as the negation of the matching ==.


_CMP_TOKENS = ("==", "!=", "<=", ">=", "<", ">")
_AT_INFINITY = ("const", INFINITY)  # the rhs of the exact-vanishing atom
_FORMULA_SYMBOLS = ("&&", "||", "!", "+", "-", "*", "/", "^", "(", ")") + _CMP_TOKENS


class _FormulaParser(_PolyParser):
    """Formula grammar on top of the shared expression grammar, whose
    sides add the leaves ac(poly) and red(poly) and combine by sort."""

    symbols = _FORMULA_SYMBOLS
    error = FormulaSyntaxError

    def __init__(self, text, variables):
        if "t" in variables:
            raise FormulaSyntaxError("'t' is reserved for the uniformizer")
        super().__init__(text, tuple(variables) + ("t",))

    # -- formula level ------------------------------------------------------

    def formula(self):
        node = self.conj()
        while self.peek()[0] == "||":
            self.take()
            node = Or(node, self.conj())
        return node

    def conj(self):
        node = self.unit()
        while self.peek()[0] == "&&":
            self.take()
            node = And(node, self.unit())
        return node

    def unit(self):
        kind, value, pos = self.peek()
        if kind == "!":
            self.take()
            return Not(self.unit())
        if kind == "(":
            # could be a parenthesized formula or a parenthesized side
            saved = self.pos
            try:
                self.take()
                node = self.formula()
                self.take(")")
                return node
            except FormulaSyntaxError:
                self.pos = saved
                return self.atom()
        return self.atom()

    # -- atoms ----------------------------------------------------------------

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "name" and value == "ord" and self.peek(1)[0] == "(":
            return self.ord_atom()
        left = self.expr()
        op_kind, op, op_pos = self.take()
        if op_kind not in ("==", "!="):
            raise FormulaSyntaxError(
                f"only == and != compare non-ord expressions, found {op!r}", op_pos
            )
        right = self.expr()
        if isinstance(left, ResExpr) or isinstance(right, ResExpr):
            node = ResAtom(_coerce_res(left, op_pos), _coerce_res(right, op_pos))
        else:
            node = OrdAtom(left - right, "==", _AT_INFINITY)
        return Not(node) if op_kind == "!=" else node

    def ord_atom(self):
        self.take("name")
        poly = self.poly_arg()
        if self.peek()[0] == "name" and self.peek()[1] == "mod":
            self.take()
            kind, modulus, pos = self.take("int")
            if modulus < 2:
                raise FormulaSyntaxError("congruence modulus must be >= 2", pos)
            op_kind, op, op_pos = self.take()
            if op_kind != "==":
                raise FormulaSyntaxError("congruence atoms use ==", op_pos)
            _, residue, _ = self.take("int")
            return OrdCong(poly, modulus, residue % modulus)
        op_kind, op, op_pos = self.take()
        if op_kind not in _CMP_TOKENS:
            raise FormulaSyntaxError(f"expected a comparison, found {op!r}", op_pos)
        rhs = self.ord_rhs()
        if rhs == _AT_INFINITY:  # no valuation lies above INFINITY
            op_kind = {">=": "==", "<": "!="}.get(op_kind, op_kind)
        if op_kind == "!=":
            return Not(OrdAtom(poly, "==", rhs))
        return OrdAtom(poly, op_kind, rhs)

    def ord_rhs(self):
        kind, value, pos = self.peek()
        if kind == "name" and value == "INFINITY":
            self.take()
            return _AT_INFINITY
        if kind == "name" and value == "ord":
            self.take()
            poly = self.poly_arg()
            offset = 0
            if self.peek()[0] in ("+", "-"):
                sign = 1 if self.take()[0] == "+" else -1
                _, k, _ = self.take("int")
                offset = sign * k
            return ("ord", poly, offset)
        if kind == "-":
            self.take()
            _, k, _ = self.take("int")
            return ("const", -k)
        if kind == "int":
            self.take()
            return ("const", value)
        raise FormulaSyntaxError(
            f"expected INFINITY, an integer or ord(...), found {value!r}", pos
        )

    # -- sides ------------------------------------------------------------

    def poly_arg(self):
        """'(' poly ')': the valuation-sort argument of ord, ac and red."""
        self.take("(")
        poly = self.expr()
        if isinstance(poly, ResExpr):
            raise FormulaSyntaxError("residue-sort value where a polynomial is needed")
        self.take(")")
        return poly

    def leaf(self):
        kind, value, pos = self.peek()
        if kind == "name" and value in ("ac", "red") and self.peek(1)[0] == "(":
            self.take()
            poly = self.poly_arg()
            return RAc(poly) if value == "ac" else RRed(poly)
        if kind == "name" and value == "ord":
            raise FormulaSyntaxError(
                "ord(...) can only head an atom, not appear inside expressions", pos
            )
        return super().leaf()

    def binary(self, op, a, b):
        if isinstance(a, ResExpr) or isinstance(b, ResExpr):
            return _combine(a, b, op)
        return super().binary(op, a, b)

    def negate(self, a):
        return RNeg(a) if isinstance(a, ResExpr) else -a

    def power(self, a, k):
        return RPow(a, k) if isinstance(a, ResExpr) else super().power(a, k)


def _coerce_res(side, pos):
    if isinstance(side, ResExpr):
        return side
    if side.is_constant():
        return RConst(side.constant_value())
    raise FormulaSyntaxError(
        "valuation-sort variables cannot appear bare in residue equations; "
        "wrap them in red(...) or ac(...)",
        pos,
    )


def _combine(a, b, op):
    """Residue-sort a op b, where at least one side is residue-sort."""
    a = _coerce_res(a, None)
    b = _coerce_res(b, None)
    if op == "+":
        return RAdd(a, b)
    if op == "-":
        return RAdd(a, RNeg(b))
    return RMul(a, b)


def parse_formula(text, variables):
    """Parse a quantifier-free condition over the given point variables
    (plus the uniformizer symbol t, which no point variable may be named)."""
    parser = _FormulaParser(text, variables)
    return parser.end(parser.formula())


def _polys(node):
    """Every polynomial that a formula or residue expression reads."""
    for value in vars(node).values() if isinstance(node, (Formula, ResExpr)) else node:
        if isinstance(value, MultiPoly):
            yield value
        elif isinstance(value, (Formula, ResExpr, tuple)):
            yield from _polys(value)


def _over(formula, target):
    """The formula as a tree over the target's variables: text is parsed
    over them, and a tree whose polynomials are over other variables is
    refused (its readers would take the target's coordinates by position)."""
    if isinstance(formula, str):
        return parse_formula(formula, target.variables)
    want = tuple(target.variables) + ("t",)
    for poly in _polys(formula):
        if poly.variables != want:
            raise ValueError(f"formula over {poly.variables} does not fit a target "
                             f"over {want}")
    return formula


# ---------------------------------------------------------------------------
# three-valued evaluation


def _cmp_intervals(lhs, op, rhs):
    """Three-valued comparison of valuation intervals [a,b] op [c,d]."""
    a, b = lhs
    c, d = rhs
    if op == "<":
        if b < c:
            return True
        if a >= d:
            return False
        return None
    if op == "<=":
        if b <= c:
            return True
        if a > d:
            return False
        return None
    if op == ">":
        return _cmp_intervals(rhs, "<", lhs)
    if op == ">=":
        return _cmp_intervals(rhs, "<=", lhs)
    if op == "==":
        if a == b and c == d and a == c:
            return True
        if b < c or d < a:
            return False
        return None
    raise ValueError(f"unknown comparison {op!r}")


# residue-sort operators, applied to their operands' values in field order
_RES_OPS = {RAdd: operator.add, RMul: operator.mul, RNeg: operator.neg, RPow: operator.pow}


def _compile(formula, spec):
    """The formula compiled once for one ring: (evaluate, exact_atoms).

    exact_atoms lists (polynomial, reader args -> truth value) for each
    structurally distinct atom that asserts exact vanishing, in formula
    order; `_KeptPoints` reads it.  evaluate(args, overrides) is the
    truth value at args = point + (uniformizer coordinate,), where an
    exact-vanishing atom whose list position is a key of the overrides
    dict reads its value from there instead of from the point.  Point
    coordinates are read only through the ring.

    The readers are monotone in the level: a nonzero value keeps its ord,
    ac and red at every deeper level, a vanishing value's ord interval
    only shrinks, and comparisons and the Kleene connectives keep a
    decided value decided.  So a point that the formula compiled at
    level m reads true or false reads the same at every deeper point
    reducing to it."""
    n, p, field = spec.n, spec.p, spec.residue_field
    exact_atoms = []
    positions = {}  # exact-vanishing atom -> its index in exact_atoms

    def ord_reader(poly, shift=0):
        """args -> interval (lo, hi) holding ord(poly) + shift; hi may be
        INFINITY.  A polynomial in t alone on an unramified ring is the
        exact integer it becomes at t = p, so its interval is fixed, and
        so is the zero polynomial's on every ring."""
        if poly.is_zero():
            return lambda args: (INFINITY, INFINITY)
        if spec.e == 1 and "t" in poly.variables:
            t_idx = poly.variables.index("t")
            if not any(k for expo in poly.terms for i, k in enumerate(expo) if i != t_idx):
                g = sum(c * p ** expo[t_idx] for expo, c in poly.terms.items())
                exact = p_valuation(g, p) + shift
                return lambda args: (exact, exact)
        ev, valuation, floor = spec.compile(poly), spec.valuation, n + 1 + shift

        def read(args):
            v = valuation(ev(args))
            if v is INFINITY:
                return (floor, INFINITY)
            v += shift
            return (v, v)

        return read

    def res_reader(expr):
        """args -> residue-field value, or None when it depends on a
        leading digit the level does not show."""
        if isinstance(expr, RConst):
            const = field.from_int(expr.value)
            return lambda args: const
        if isinstance(expr, RAc):
            if expr.poly.is_zero():
                zero = field.zero()
                return lambda args: zero
            ev, ac = spec.compile(expr.poly), spec.ac

            def read_ac(args):
                value = ev(args)
                return ac(value) if value else None

            return read_ac
        if isinstance(expr, RRed):
            ev, residue = spec.compile(expr.poly), spec.residue
            return lambda args: residue(ev(args))
        op = _RES_OPS.get(type(expr))
        if op is None:
            raise TypeError(f"not a residue expression: {expr!r}")
        readers = [  # RPow's exponent reads as a constant
            res_reader(v) if isinstance(v, ResExpr) else (lambda args, k=v: k)
            for v in vars(expr).values()
        ]

        def read(args):
            values = [r(args) for r in readers]
            return None if any(v is None for v in values) else op(*values)

        return read

    def atom_reader(node):
        """args -> truth value of one atom at the point."""
        if isinstance(node, OrdAtom):
            lhs, op, kind = ord_reader(node.poly), node.op, node.rhs[0]
            if kind == "ord":
                rhs = ord_reader(node.rhs[1], node.rhs[2])
                return lambda args: _cmp_intervals(lhs(args), op, rhs(args))
            c = node.rhs[1]
            return lambda args: _cmp_intervals(lhs(args), op, (c, c))
        if isinstance(node, OrdCong):
            read, modulus, residue = ord_reader(node.poly), node.modulus, node.residue

            def cong(args):
                lo, hi = read(args)
                if lo is INFINITY:
                    return False  # infinite valuation satisfies no congruence
                if lo == hi:
                    return lo % modulus == residue
                return None

            return cong
        if isinstance(node, ResAtom):
            left, right = res_reader(node.left), res_reader(node.right)

            def res(args):
                a, b = left(args), right(args)
                if a is None or b is None:
                    return None
                return a == b

            return res
        raise TypeError(f"not an atom: {node!r}")

    def node_evaluator(node):
        if isinstance(node, (And, Or)):
            left, right = node_evaluator(node.left), node_evaluator(node.right)
            stop, combine = (
                (False, _tv_and) if isinstance(node, And) else (True, _tv_or)
            )

            def junction(args, overrides):
                a = left(args, overrides)
                return a if a is stop else combine(a, right(args, overrides))

            return junction
        if isinstance(node, Not):
            inner = node_evaluator(node.inner)
            return lambda args, overrides: _tv_not(inner(args, overrides))
        read = atom_reader(node)
        if not (isinstance(node, OrdAtom) and node.op == "==" and node.rhs == _AT_INFINITY):
            return lambda args, overrides: read(args)
        pos = positions.setdefault(node, len(positions))
        if pos == len(exact_atoms):  # the atom's first occurrence
            exact_atoms.append((node.poly, read))

        def exact_atom(args, overrides):
            if overrides and pos in overrides:
                return overrides[pos]
            return read(args)

        return exact_atom

    return node_evaluator(formula), exact_atoms


@record
class EvalResult:
    level: int
    certain_true: list
    certain_false: list
    undetermined: list


def eval_formula(formula, target, spec, bound=None):
    """Classify every level-n point of the target under the formula.

    Pointwise three-valued semantics: atoms whose truth is not determined
    by the visible digits come back undetermined (no lift certificates
    here; see measure_formula for the upgraded counting).

    A point takes its value from its coarsest truncation that reads
    decided, as every finer one reads the same (monotonicity, see
    `_compile`): it is read at levels m = 0, 1, ... through one memo per
    level, keyed by the truncation (x mod p^(m+1) on Z/p^(n+1), else the
    first m+1 digits), until a read is decided; a point still open below
    level n is read at level n."""
    formula = _over(formula, target)
    ints = spec.int_modulus is not None
    coarse = []  # per level m < n: (cut, ring, evaluate, uniformizer, memo)
    for m in range(spec.n):
        ring = spec.at_level(m)
        cut = ring.int_modulus if ints else m + 1
        read = _compile(formula, ring)[0]
        coarse.append((cut, ring, read, ring.uniformizer_coordinate(), {}))
    evaluate, _ = _compile(formula, spec)
    t = spec.uniformizer_coordinate()
    points = {True: [], False: [], None: []}
    for point in enumerate_points(target, spec, bound):
        for cut, ring, read, t_m, memo in coarse:
            key = tuple([x % cut for x in point] if ints else [x.digits[:cut] for x in point])
            if key not in memo:
                args = key if ints else tuple(map(ring.element, key))
                memo[key] = read(args + (t_m,), None)
            tv = memo[key]
            if tv is not None:
                break
        else:
            tv = evaluate(point + (t,), None)
        points[tv].append(point)
    return EvalResult(spec.n, points[True], points[False], points[None])


# ---------------------------------------------------------------------------
# measures of definable sets


class _KeptPoints:
    """Decides each point that the walk of `measure_formula` keeps: it
    closes the point's ball, or settles the point's truth.

    Let E be the exact atoms that read undetermined at a level-n point
    (none when it reads True), and the system the target's generators and
    E's polynomials at t = p.  The ball is closed when the target has no
    generators and the point reads True (on every ring, before any tree is
    asked), or, on Z/p^(n+1), when (a) the system's ball tree closes the
    ball at its root (`BallTree.fibre`), (b) the formula reads true with E
    overridden true, (c) false with any one atom of E overridden false, and
    (d) E is not empty or no generator has p-content.  Then p^((N - g) r) points r levels down truncate a
    Z_p-point of the system, each certified true.  With E empty these are
    all the target's points there, by (d); else the root's rows are
    independent mod p, so the tree of the target and one atom of E refutes
    some atom at each other point of the target there, which by (c) and
    monotonicity reads false.  Otherwise, on Z/p^(n+1), each atom of E
    gets one lift certificate, and the atoms left open after refutation at
    most one more, jointly with the target; on other rings the point stays
    undetermined.  A point settles false when the formula reads false with
    its refuted atoms false; as its ball holds no Z_p-zero of the target
    and such an atom, every point below reads or settles false.

    An atom's position in the compiled exact_atoms list names it at every
    level, so a system's ball tree is cached by its atoms' positions, each
    atom read at t = p when the tree is built.  That one tree answers
    closure and certificates: an atom's own, and the joint one of the
    atoms left live, which for one live atom is the atom's own tree."""

    def __init__(self, target, root, slack):
        self.target = target
        self.slack = slack
        self.p = root.p
        self.q = root.size
        self.certified = root.int_modulus is not None
        self.primitive = all(gcd(*g.terms.values()) % self.p for g in target.generators)
        self._trees = {}

    def _tree(self, exact_atoms, atoms):
        """The ball tree of the target's generators and the atoms at
        `atoms`, each folded at t = p."""
        if atoms not in self._trees:
            variables = self.target.variables
            at_p = {v: MultiPoly.variable(variables, v) for v in variables}
            at_p["t"] = MultiPoly.constant(variables, self.p)
            system = self.target.generators + tuple(exact_atoms[i][0].substitute(at_p)
                                                    for i in atoms)
            self._trees[atoms] = BallTree(system, len(variables), self.p)
        return self._trees[atoms]

    def read(self, tv, evaluate, exact_atoms, point, args, n):
        """(fibre, None) when the ball of the level-n point, which reads tv
        (True or None), is closed; else (None, the point's truth)."""
        if tv and not self.target.generators:
            return self.q ** len(point), None
        if not self.certified:
            return None, tv
        opened = () if tv else tuple(i for i, (_, read) in enumerate(exact_atoms)
                                     if read(args) is None)
        # the formula at the point, by override set; with no override the
        # point reads tv
        answers = {frozenset(): tv}

        def value(overrides):
            key = frozenset(overrides.items())
            if key not in answers:
                answers[key] = evaluate(args, overrides)
            return answers[key]

        if (value(dict.fromkeys(opened, True)) is True and (opened or self.primitive)
                and all(value({i: False}) is False for i in opened)):
            fibre = self._tree(exact_atoms, opened).fibre(point, n)
            if fibre:
                return fibre, None
        if tv:
            return None, tv
        verdicts = {i: self._tree(exact_atoms, (i,)).verdict(point, n, self.slack)
                    for i in opened}
        # a refuted atom is false at every lift of the point, so its override
        # is sound in any polarity; the atoms left open then read true, and a
        # true formula is certain once they and the target lift jointly (the
        # target alone when every open atom was refuted)
        live = tuple(i for i in opened if verdicts[i] is not False)
        if value({i: False for i in opened if i not in live}) is False:
            return None, False
        if value({i: i in live for i in opened}) is not True:
            return None, None
        return None, self._tree(exact_atoms, live).verdict(point, n, self.slack) or None


def measure_formula(formula, target, d, base_spec, max_level=DEFAULT_MAX_LEVEL,
                    slack=DEFAULT_SLACK, bound=None):
    """Measure of the subset of target points satisfying the formula,
    normalized as a d-dimensional set.

    Per level the count is sandwiched between the certainly-included and
    possibly-included points; STABILIZED requires the two bounds to agree,
    at a common value, on the last three levels.

    The points are walked as balls: a level-n point stands for every
    deeper point reducing to it, and the compiled readers are monotone in
    the level (see `_compile`).  So a ball read false is dropped.  Every
    other ball goes to one reader, `_KeptPoints`, which closes it
    (Hensel's lemma) or settles its point; a closed ball counts
    fibre^r certain-true points r levels down, and a ball settled false is
    dropped.  Only the other balls split into their q^N children at the
    next level.  A child off the target is dropped, and so is every point
    above it.  `bound` limits the balls read per level."""
    at_least("dimension", d, 0)
    at_least("max_level", max_level, 0)
    at_least("slack", slack, 0)
    formula = _over(formula, target)
    root = base_spec.at_level(0)
    q = root.size
    n_vars = len(target.variables)
    fanout = q**n_vars
    reader = _KeptPoints(target, root, slack)
    levels = list(range(max_level + 1))
    lower, upper = [], []
    # balls to split, each with whether it already reads true
    frontier = [((), False)]
    closed = Counter()  # fibre -> level-n points in closed balls of that fibre
    for n in levels:
        reads = len(frontier) * fanout
        size_limit(bound, reads, f"formula walk of {reads} balls at level {n}")
        spec = base_spec.at_level(n)
        evaluate, exact_atoms = _compile(formula, spec)
        gens = [spec.compile(g) for g in target.generators]
        t = spec.uniformizer_coordinate()
        for fibre in closed:
            closed[fibre] *= fibre
        tally = Counter()
        deeper = []
        for ball, read_true in frontier:
            if n:
                children = itertools.product(*map(spec.coordinates_above, ball))
            else:  # a target without variables lists no ring
                roots = spec.coordinates(bound) if n_vars else ()
                children = itertools.product(roots, repeat=n_vars)
            for child in children:
                if any(g(child) for g in gens):
                    continue
                args = child + (t,)
                tv = True if read_true else evaluate(args, None)
                if tv is False:
                    continue
                fibre, truth = reader.read(tv, evaluate, exact_atoms, child, args, n)
                if fibre:
                    closed[fibre] += 1
                    continue
                tally[truth] += 1
                if n < max_level and truth is not False:
                    deeper.append((child, tv is True))
        frontier = deeper
        denom = q ** ((n + 1) * d)
        certain = sum(closed.values()) + tally[True]
        lower.append(Fraction(certain, denom))
        upper.append(Fraction(certain + tally[None], denom))
    return _stabilize(levels, lower, upper)


# ---------------------------------------------------------------------------
# cross-prime comparison


class _QParser(_ExprParser):
    """Leaves: integers and the symbol q; '/' allowed.  Builds a callable
    Fraction -> Fraction."""

    symbols = _FORMULA_SYMBOLS  # --expect text is tokenized as formula text
    products = ("*", "/")
    error = FormulaSyntaxError

    def leaf(self):
        kind, value, pos = self.take()
        if kind == "int":
            return lambda qv, c=Fraction(value): c
        if kind == "name" and value == "q":
            return lambda qv: qv
        raise FormulaSyntaxError(f"unexpected token {value!r}", pos)

    def binary(self, op, a, b):
        f = super().binary
        return lambda qv: f(op, a(qv), b(qv))

    def negate(self, a):
        return lambda qv: -a(qv)

    def power(self, a, k):
        return lambda qv: a(qv) ** k


def parse_q_expression(text):
    """Rational expression in the symbol q: integers, + - * / ^, parens.
    Returns a callable Fraction -> Fraction."""
    parser = _QParser(text)
    return parser.end(parser.expr())


@record
class PrimeVerdict:
    prime: int
    expected: object
    measured: object
    status: str  # MATCH / MISMATCH / INCONCLUSIVE


def specialize_primes(formula, target, d, primes, expression,
                      bad_primes=(), max_level=DEFAULT_MAX_LEVEL,
                      slack=DEFAULT_SLACK, bound=None):
    """Evaluate the measure of one formula at several primes and compare
    each against a single rational expression in q (at q = p).

    PARTIAL measures propagate as INCONCLUSIVE, never as a match.  Every
    refusal (a non-prime, a prime listed twice, a prime declared bad, an
    expression undefined at q = p, a negative slack) comes before any
    measure runs."""
    at_least("slack", slack, 0)
    formula = _over(formula, target)
    for p in primes:
        prime(p)
        if primes.count(p) > 1:
            raise ValueError(f"prime {p} is listed twice")
    expect = (
        parse_q_expression(expression) if isinstance(expression, str) else expression
    )
    expected = []
    for p in primes:
        if p in bad_primes:
            raise ValueError(f"prime {p} is declared bad for this formula")
        try:
            expected.append(expect(Fraction(p)))
        except ZeroDivisionError:
            raise ValueError(f"expression undefined at q={p}") from None
    verdicts = []
    for p, want in zip(primes, expected):
        res = measure_formula(
            formula, target, d, LocalRingSpec(p), max_level, slack, bound
        )
        if res.status != "STABILIZED":
            verdicts.append(PrimeVerdict(p, want, None, "INCONCLUSIVE"))
        elif res.value == want:
            verdicts.append(PrimeVerdict(p, want, res.value, "MATCH"))
        else:
            verdicts.append(PrimeVerdict(p, want, res.value, "MISMATCH"))
    return verdicts
