"""Quantifier-free valued-field conditions on points of affine targets:
parsing, three-valued evaluation at finite level, measures of the defined
sets, and comparison of one formula across several primes.

Atoms speak about a point through ord (valuation), ac (angular component,
the leading digit), red (reduction to the residue field), valuation-sort
polynomial equalities, and congruences of ord values.  The constant symbol
t stands for the uniformizer of whatever ring the formula is interpreted
in.

Truncation semantics: at level n the valuation of a vanishing value is
only known to be >= n+1, so atoms evaluate in three-valued logic and every
point lands in certain-true, certain-false or undetermined.  Measures are
sandwiched between the certain set and certain-plus-undetermined; on top
of that, an undetermined point whose only open atoms assert exact
vanishing can be settled by a lift certificate (a true solution nearby
with the same truncation), which is what lets sets cut out by equations
reach a stabilized measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .measures import (
    DEFAULT_MAX_LEVEL,
    MeasureResult,
    STABLE_RUN,
    _stabilize,
    ring_at_level,
)
from .polyscheme import (
    DEFAULT_SLACK,
    LiftAnalyzer,
    LiftStatus,
    MultiPoly,
    enumerate_points,
)
from .rings import INFINITY, LocalRingSpec


class FormulaSyntaxError(ValueError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class TV(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def _tv_not(a):
    if a is TV.TRUE:
        return TV.FALSE
    if a is TV.FALSE:
        return TV.TRUE
    return TV.UNKNOWN


def _tv_and(a, b):
    if a is TV.FALSE or b is TV.FALSE:
        return TV.FALSE
    if a is TV.TRUE and b is TV.TRUE:
        return TV.TRUE
    return TV.UNKNOWN


def _tv_or(a, b):
    if a is TV.TRUE or b is TV.TRUE:
        return TV.TRUE
    if a is TV.FALSE and b is TV.FALSE:
        return TV.FALSE
    return TV.UNKNOWN


# ---------------------------------------------------------------------------
# syntax trees


class Formula:
    pass


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula


@dataclass(frozen=True)
class PolyEq(Formula):
    """Valuation-sort equality f = 0 (exact, not level-n vanishing)."""

    poly: MultiPoly


@dataclass(frozen=True)
class OrdAtom(Formula):
    """ord(poly) OP rhs; rhs is ('const', c), ('inf',) or
    ('ord', poly, offset)."""

    poly: MultiPoly
    op: str
    rhs: tuple


@dataclass(frozen=True)
class OrdCong(Formula):
    """ord(poly) == residue (mod modulus); false at infinite valuation."""

    poly: MultiPoly
    modulus: int
    residue: int


class ResExpr:
    pass


@dataclass(frozen=True)
class RConst(ResExpr):
    value: int


@dataclass(frozen=True)
class RAc(ResExpr):
    poly: MultiPoly


@dataclass(frozen=True)
class RRed(ResExpr):
    poly: MultiPoly


@dataclass(frozen=True)
class RAdd(ResExpr):
    left: ResExpr
    right: ResExpr


@dataclass(frozen=True)
class RMul(ResExpr):
    left: ResExpr
    right: ResExpr


@dataclass(frozen=True)
class RNeg(ResExpr):
    inner: ResExpr


@dataclass(frozen=True)
class RPow(ResExpr):
    inner: ResExpr
    exponent: int


@dataclass(frozen=True)
class ResAtom(Formula):
    """Residue-sort polynomial equation over ac/red values."""

    left: ResExpr
    right: ResExpr
    negated: bool = False


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
#           side     := residue/valuation expression over +,-,*,^ with
#                       leaves INT, variable, 'ac(poly)', 'red(poly)'
#
# a side containing ac/red is residue-sort; otherwise it is a valuation
# polynomial and the comparison must be an (in)equality against another
# valuation polynomial (normalized to f - g = 0).


_CMP_TOKENS = ("==", "!=", "<=", ">=", "<", ">")


def _tokenize_formula(text):
    tokens = []
    i = 0
    two_char = ("&&", "||", "==", "!=", "<=", ">=")
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pair = text[i : i + 2]
        if pair in two_char:
            tokens.append((pair, pair, i))
            i += 2
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()!<>":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _FormulaParser:
    def __init__(self, text, variables):
        self.tokens = _tokenize_formula(text)
        self.pos = 0
        self.variables = tuple(variables)
        if "t" not in self.variables:
            self.variables = self.variables + ("t",)

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

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
        left = self.side()
        op_kind, op, op_pos = self.take()
        if op_kind not in ("==", "!="):
            raise FormulaSyntaxError(
                f"only == and != compare non-ord expressions, found {op!r}", op_pos
            )
        right = self.side()
        lres = isinstance(left, ResExpr)
        rres = isinstance(right, ResExpr)
        if lres or rres:
            left = _coerce_res(left, op_pos)
            right = _coerce_res(right, op_pos)
            return ResAtom(left, right, negated=(op_kind == "!="))
        node = PolyEq(left - right)
        return Not(node) if op_kind == "!=" else node

    def ord_atom(self):
        self.take("name")
        self.take("(")
        poly = self.poly_expr()
        self.take(")")
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
        return OrdAtom(poly, op_kind, rhs)

    def ord_rhs(self):
        kind, value, pos = self.peek()
        if kind == "name" and value == "INFINITY":
            self.take()
            return ("inf",)
        if kind == "name" and value == "ord":
            self.take()
            self.take("(")
            poly = self.poly_expr()
            self.take(")")
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

    def poly_expr(self):
        """A pure valuation-sort polynomial (no ac/red)."""
        side = self.side()
        if isinstance(side, ResExpr):
            raise FormulaSyntaxError("residue-sort value where a polynomial is needed")
        return side

    def side(self):
        node = self.side_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.side_term()
            node = _combine(node, rhs, "+" if op == "+" else "-")
        return node

    def side_term(self):
        node = self.side_factor()
        while self.peek()[0] == "*":
            self.take()
            node = _combine(node, self.side_factor(), "*")
        return node

    def side_factor(self):
        node = self.side_base()
        if self.peek()[0] == "^":
            self.take()
            kind, k, pos = self.take()
            if kind != "int" or k < 0:
                raise FormulaSyntaxError("exponent must be a nonnegative integer", pos)
            if isinstance(node, ResExpr):
                return RPow(node, k)
            return node**k
        return node

    def side_base(self):
        kind, value, pos = self.take()
        if kind == "int":
            return MultiPoly.constant(self.variables, value)
        if kind == "-":
            inner = self.side_factor()
            return RNeg(inner) if isinstance(inner, ResExpr) else -inner
        if kind == "(":
            node = self.side()
            self.take(")")
            return node
        if kind == "name":
            if value in ("ac", "red") and self.peek()[0] == "(":
                self.take("(")
                poly = self.poly_expr()
                self.take(")")
                return RAc(poly) if value == "ac" else RRed(poly)
            if value == "ord":
                raise FormulaSyntaxError(
                    "ord(...) can only head an atom, not appear inside expressions",
                    pos,
                )
            if value not in self.variables:
                raise FormulaSyntaxError(f"unbound variable {value!r}", pos)
            return MultiPoly.variable(self.variables, value)
        raise FormulaSyntaxError(f"unexpected token {value!r}", pos)


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
    ares, bres = isinstance(a, ResExpr), isinstance(b, ResExpr)
    if not ares and not bres:
        return {"+": a + b, "-": a - b, "*": a * b}[op]
    a = a if ares else _coerce_res(a, None)
    b = b if bres else _coerce_res(b, None)
    if op == "+":
        return RAdd(a, b)
    if op == "-":
        return RAdd(a, RNeg(b))
    return RMul(a, b)


def parse_formula(text, variables):
    """Parse a quantifier-free condition over the given point variables
    (plus the uniformizer symbol t)."""
    parser = _FormulaParser(text, variables)
    node = parser.formula()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {value!r}", pos)
    return node


# ---------------------------------------------------------------------------
# specialization


@dataclass(frozen=True)
class SpecializationMap:
    """Interpretation of the uniformizer symbol at one prime/ring family.

    Sends sum a_i t^i to sum a_i omega^i, which is a ring homomorphism on
    integer polynomial constants."""

    base_spec: LocalRingSpec

    @property
    def prime(self):
        return self.base_spec.p

    def t_int(self):
        if self.base_spec.e != 1:
            raise ValueError("integer uniformizer only in the unramified case")
        return self.base_spec.p

    def t_element(self, spec_n):
        if spec_n.e == 1:
            return spec_n.from_int(spec_n.p)
        return spec_n.uniformizer()

    def fold_poly(self, poly, target_vars):
        """Substitute the integer uniformizer for t (unramified case),
        producing an integer polynomial over the target variables."""
        mapping = {
            v: MultiPoly.variable(target_vars, v) for v in poly.variables if v != "t"
        }
        mapping["t"] = MultiPoly.constant(target_vars, self.t_int())
        return poly.substitute(mapping)


# ---------------------------------------------------------------------------
# three-valued evaluation


class _Context:
    """Per-point atom evaluation over a level-n ring, caching compiled
    polynomial evaluators across points."""

    def __init__(self, spec, tmap):
        self.spec = spec
        self.n = spec.n
        self.p = spec.p
        self.field = spec.residue_field
        self.int_path = spec.int_modulus is not None
        self.tmap = tmap
        self._compiled = {}
        self._point = None
        self._values = {}

    def set_point(self, point):
        self._point = point
        self._values = {}

    def _value(self, poly):
        key = id(poly)
        if key in self._values:
            return self._values[key]
        if self.int_path:
            ev = self._compiled.get(key)
            if ev is None:
                ev = poly.compile_int(self.spec.int_modulus)
                self._compiled[key] = ev
            out = ev(self._point + (self.tmap.t_int() % self.spec.int_modulus,))
        else:
            out = poly.eval_elements(
                self._point + (self.tmap.t_element(self.spec),), self.spec.from_int
            )
        self._values[key] = out
        return out

    def _exact_int_value(self, poly):
        """For polynomials in t alone (no point variables), the value is an
        exact integer once t becomes the integer uniformizer; None when the
        refinement does not apply."""
        if self.spec.e != 1 or "t" not in poly.variables:
            return None
        t_idx = poly.variables.index("t")
        g = 0
        for expo, coeff in poly.terms.items():
            if any(e for k, e in enumerate(expo) if k != t_idx):
                return None
            g += coeff * self.tmap.prime ** expo[t_idx]
        return g

    def ord_interval(self, poly):
        """(lo, hi) for the true valuation; hi may be INFINITY."""
        g = self._exact_int_value(poly)
        if g is not None:
            if g == 0:
                return (INFINITY, INFINITY)
            v = 0
            while g % self.p == 0:
                g //= self.p
                v += 1
            return (v, v)
        value = self._value(poly)
        if self.int_path:
            if value == 0:
                return (self.n + 1, INFINITY)
            v = 0
            while value % self.p == 0:
                value //= self.p
                v += 1
            return (v, v)
        v = value.ord()
        if v is INFINITY:
            return (self.n + 1, INFINITY)
        return (v, v)

    def is_zero_visible(self, poly):
        value = self._value(poly)
        if self.int_path:
            return value == 0
        return value.is_zero()

    def ac_value(self, poly):
        """Leading digit as a residue-field element, or None if invisible."""
        if poly.is_zero():
            return self.field.zero()
        value = self._value(poly)
        if self.int_path:
            if value == 0:
                return None
            while value % self.p == 0:
                value //= self.p
            return self.field.from_int(value)
        if value.is_zero():
            return None
        return value.ac()

    def red_value(self, poly):
        value = self._value(poly)
        if self.int_path:
            return self.field.from_int(value % self.p)
        return value.residue()


def _cmp_intervals(lhs, op, rhs):
    """Three-valued comparison of valuation intervals [a,b] op [c,d]."""
    a, b = lhs
    c, d = rhs
    if op == "<":
        if b < c:
            return TV.TRUE
        if a >= d:
            return TV.FALSE
        return TV.UNKNOWN
    if op == "<=":
        if b <= c:
            return TV.TRUE
        if a > d:
            return TV.FALSE
        return TV.UNKNOWN
    if op == ">":
        return _cmp_intervals(rhs, "<", lhs)
    if op == ">=":
        return _cmp_intervals(rhs, "<=", lhs)
    if op == "==":
        if a == b and c == d and a == c:
            return TV.TRUE
        if b < c or d < a:
            return TV.FALSE
        return TV.UNKNOWN
    if op == "!=":
        return _tv_not(_cmp_intervals(lhs, "==", rhs))
    raise ValueError(f"unknown comparison {op!r}")


def _shift_interval(interval, k):
    lo, hi = interval
    return (lo + k, hi + k)


def _eval_res(expr, ctx):
    """Residue-field value or None (depends on an invisible leading digit)."""
    if isinstance(expr, RConst):
        return ctx.field.from_int(expr.value)
    if isinstance(expr, RAc):
        return ctx.ac_value(expr.poly)
    if isinstance(expr, RRed):
        return ctx.red_value(expr.poly)
    if isinstance(expr, RAdd):
        a, b = _eval_res(expr.left, ctx), _eval_res(expr.right, ctx)
        return None if a is None or b is None else a + b
    if isinstance(expr, RMul):
        a, b = _eval_res(expr.left, ctx), _eval_res(expr.right, ctx)
        return None if a is None or b is None else a * b
    if isinstance(expr, RNeg):
        a = _eval_res(expr.inner, ctx)
        return None if a is None else -a
    if isinstance(expr, RPow):
        a = _eval_res(expr.inner, ctx)
        return None if a is None else a**expr.exponent
    raise TypeError(f"not a residue expression: {expr!r}")


def _eval_atom(node, ctx, overrides):
    if overrides and node in overrides:
        return overrides[node]
    if isinstance(node, PolyEq):
        lo, hi = ctx.ord_interval(node.poly)
        if lo is INFINITY:
            return TV.TRUE  # exact zero, known outright
        if lo == hi:
            return TV.FALSE  # finite valuation: certainly nonzero
        return TV.UNKNOWN
    if isinstance(node, OrdAtom):
        lhs = ctx.ord_interval(node.poly)
        if node.rhs[0] == "inf":
            rhs = (INFINITY, INFINITY)
        elif node.rhs[0] == "const":
            rhs = (node.rhs[1], node.rhs[1])
        else:
            rhs = _shift_interval(ctx.ord_interval(node.rhs[1]), node.rhs[2])
        return _cmp_intervals(lhs, node.op, rhs)
    if isinstance(node, OrdCong):
        lo, hi = ctx.ord_interval(node.poly)
        if lo is INFINITY:
            return TV.FALSE  # infinite valuation satisfies no congruence
        if lo == hi:
            return TV.TRUE if lo % node.modulus == node.residue else TV.FALSE
        return TV.UNKNOWN
    if isinstance(node, ResAtom):
        a = _eval_res(node.left, ctx)
        b = _eval_res(node.right, ctx)
        if a is None or b is None:
            return TV.UNKNOWN
        eq = a == b
        if node.negated:
            eq = not eq
        return TV.TRUE if eq else TV.FALSE
    raise TypeError(f"not an atom: {node!r}")


def _eval_node(node, ctx, overrides=None):
    if isinstance(node, And):
        a = _eval_node(node.left, ctx, overrides)
        if a is TV.FALSE:
            return TV.FALSE
        return _tv_and(a, _eval_node(node.right, ctx, overrides))
    if isinstance(node, Or):
        a = _eval_node(node.left, ctx, overrides)
        if a is TV.TRUE:
            return TV.TRUE
        return _tv_or(a, _eval_node(node.right, ctx, overrides))
    if isinstance(node, Not):
        return _tv_not(_eval_node(node.inner, ctx, overrides))
    return _eval_atom(node, ctx, overrides)


def _collect_open_exactness_atoms(node, ctx, out):
    """Atoms of the shape 'this value vanishes exactly' that evaluated
    UNKNOWN at the current point."""
    if isinstance(node, (And, Or)):
        _collect_open_exactness_atoms(node.left, ctx, out)
        _collect_open_exactness_atoms(node.right, ctx, out)
    elif isinstance(node, Not):
        _collect_open_exactness_atoms(node.inner, ctx, out)
    elif isinstance(node, PolyEq):
        if _eval_atom(node, ctx, None) is TV.UNKNOWN:
            out.setdefault(node, node.poly)
    elif isinstance(node, OrdAtom):
        if node.rhs[0] == "inf" and node.op in ("==", ">="):
            if _eval_atom(node, ctx, None) is TV.UNKNOWN:
                out.setdefault(node, node.poly)


@dataclass
class EvalResult:
    level: int
    certain_true: list
    certain_false: list
    undetermined: list


def eval_formula(formula, target, spec, tmap=None, bound=None):
    """Classify every level-n point of the target under the formula.

    Pointwise three-valued semantics: atoms whose truth is not determined
    by the visible digits come back undetermined (no lift certificates
    here; see measure_formula for the upgraded counting)."""
    tmap = tmap or SpecializationMap(spec)
    ctx = _Context(spec, tmap)
    ct, cf, ud = [], [], []
    for point in enumerate_points(target, spec, bound):
        ctx.set_point(point)
        tv = _eval_node(formula, ctx)
        if tv is TV.TRUE:
            ct.append(point)
        elif tv is TV.FALSE:
            cf.append(point)
        else:
            ud.append(point)
    return EvalResult(spec.n, ct, cf, ud)


# ---------------------------------------------------------------------------
# measures of definable sets


class _UpgradeOracle:
    """Settles undetermined points whose open atoms all assert exact
    vanishing, by certifying (or refuting) a true solution of the joint
    system target-generators + open polynomials over the point."""

    def __init__(self, target, tmap, slack):
        self.target = target
        self.tmap = tmap
        self.slack = slack
        self.p = tmap.prime
        self._analyzers = {}
        self._folded = {}

    def _fold(self, poly):
        key = id(poly)
        if key not in self._folded:
            self._folded[key] = self.tmap.fold_poly(poly, self.target.variables)
        return self._folded[key]

    def _analyzer(self, atom_polys):
        key = tuple(sorted(id(q) for q in atom_polys))
        if key not in self._analyzers:
            gens = list(self.target.generators) + [self._fold(q) for q in atom_polys]
            self._analyzers[key] = LiftAnalyzer(
                gens, len(self.target.variables), self.p
            )
        return self._analyzers[key]

    def settle(self, formula, ctx, point, n):
        """TV.TRUE / TV.FALSE / TV.UNKNOWN for 'point lies in the level-n
        truncation of the defined set'."""
        open_atoms = {}
        _collect_open_exactness_atoms(formula, ctx, open_atoms)
        if not open_atoms:
            return TV.UNKNOWN
        atoms = list(open_atoms)
        # refute what can be refuted one atom at a time (valid for every
        # lift of the point, so the override is sound in any polarity)
        overrides = {}
        for atom in atoms:
            status = self._analyzer([open_atoms[atom]]).status(
                point, n, self.slack
            )
            if status is LiftStatus.CERTIFIED_NOT:
                overrides[atom] = TV.FALSE
        if overrides:
            tv = _eval_node(formula, ctx, overrides)
            if tv is TV.FALSE:
                return TV.FALSE
        # optimistic pass: certify the remaining open atoms jointly
        live = [a for a in atoms if a not in overrides]
        if live:
            optimistic = dict(overrides)
            for atom in live:
                optimistic[atom] = TV.TRUE
            if _eval_node(formula, ctx, optimistic) is TV.TRUE:
                status = self._analyzer([open_atoms[a] for a in live]).status(
                    point, n, self.slack
                )
                if status is LiftStatus.CERTIFIED_LIFTABLE:
                    return TV.TRUE
        elif overrides and self._target_liftable(point, n) is TV.TRUE:
            tv = _eval_node(formula, ctx, overrides)
            if tv is TV.TRUE:
                return TV.TRUE
        return TV.UNKNOWN

    def _target_liftable(self, point, n):
        status = self._analyzer([]).status(point, n, self.slack)
        if status is LiftStatus.CERTIFIED_LIFTABLE:
            return TV.TRUE
        if status is LiftStatus.CERTIFIED_NOT:
            return TV.FALSE
        return TV.UNKNOWN


def measure_formula(formula, target, d, base_spec, max_level=DEFAULT_MAX_LEVEL,
                    slack=DEFAULT_SLACK, bound=None, tmap=None):
    """Measure of the subset of target points satisfying the formula,
    normalized as a d-dimensional set.

    Per level the count is sandwiched between the certainly-included and
    possibly-included points; STABILIZED requires the two bounds to agree,
    at a common value, on the last three levels."""
    if isinstance(formula, str):
        formula = parse_formula(formula, target.variables)
    tmap = tmap or SpecializationMap(base_spec)
    q = base_spec.p**base_spec.r
    upgrades = (
        _UpgradeOracle(target, tmap, slack)
        if base_spec.int_modulus is not None
        else None
    )
    levels = list(range(max_level + 1))
    lower, upper = [], []
    for n in levels:
        spec_n = ring_at_level(base_spec, n)
        ctx = _Context(spec_n, tmap)
        sure = 0
        open_count = 0
        for point in enumerate_points(target, spec_n, bound):
            ctx.set_point(point)
            tv = _eval_node(formula, ctx)
            if tv is TV.UNKNOWN and upgrades is not None and spec_n.int_modulus:
                tv = upgrades.settle(formula, ctx, point, n)
            if tv is TV.TRUE:
                sure += 1
            elif tv is TV.UNKNOWN:
                open_count += 1
        denom = q ** ((n + 1) * d)
        lower.append(Fraction(sure, denom))
        upper.append(Fraction(sure + open_count, denom))
    result = _stabilize(levels, lower)
    if result.status == "STABILIZED":
        tail = upper[-STABLE_RUN:]
        if tail != lower[-STABLE_RUN:]:
            result = MeasureResult(None, "PARTIAL", levels, lower)
    result.lower = lower
    result.upper = upper
    return result


# ---------------------------------------------------------------------------
# cross-prime comparison


def parse_q_expression(text):
    """Rational expression in the symbol q: integers, + - * / ^, parens.
    Returns a callable Fraction -> Fraction."""
    tokens = _tokenize_formula(text)

    def parse(pos):
        def expr(i):
            node, i = term(i)
            while tokens[i][0] in ("+", "-"):
                op = tokens[i][0]
                rhs, i = term(i + 1)
                node = (
                    (lambda a, b: lambda qv: a(qv) + b(qv))(node, rhs)
                    if op == "+"
                    else (lambda a, b: lambda qv: a(qv) - b(qv))(node, rhs)
                )
            return node, i

        def term(i):
            node, i = factor(i)
            while tokens[i][0] in ("*", "/"):
                op = tokens[i][0]
                rhs, i = factor(i + 1)
                node = (
                    (lambda a, b: lambda qv: a(qv) * b(qv))(node, rhs)
                    if op == "*"
                    else (lambda a, b: lambda qv: a(qv) / b(qv))(node, rhs)
                )
            return node, i

        def factor(i):
            node, i = base(i)
            if tokens[i][0] == "^":
                kind, k, p_ = tokens[i + 1]
                if kind != "int":
                    raise FormulaSyntaxError("exponent must be an integer", p_)
                return (lambda a, kk: lambda qv: a(qv) ** kk)(node, k), i + 2
            return node, i

        def base(i):
            kind, value, p_ = tokens[i]
            if kind == "int":
                return (lambda v: lambda qv: Fraction(v))(value), i + 1
            if kind == "-":
                node, i = factor(i + 1)
                return (lambda a: lambda qv: -a(qv))(node), i
            if kind == "name" and value == "q":
                return (lambda qv: qv), i + 1
            if kind == "(":
                node, i = expr(i + 1)
                if tokens[i][0] != ")":
                    raise FormulaSyntaxError("unbalanced parentheses", tokens[i][2])
                return node, i + 1
            raise FormulaSyntaxError(f"unexpected token {value!r}", p_)

        return expr(pos)

    node, i = parse(0)
    if tokens[i][0] != "end":
        raise FormulaSyntaxError(f"trailing input {tokens[i][1]!r}", tokens[i][2])
    return node


@dataclass
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

    PARTIAL measures propagate as INCONCLUSIVE, never as a match."""
    expect = (
        parse_q_expression(expression) if isinstance(expression, str) else expression
    )
    verdicts = []
    for p in primes:
        if p in bad_primes:
            raise ValueError(f"prime {p} is declared bad for this formula")
        try:
            expected = expect(Fraction(p))
        except ZeroDivisionError:
            raise ValueError(f"expression undefined at q={p}") from None
        base_spec = LocalRingSpec(p)
        res = measure_formula(
            formula, target, d, base_spec, max_level, slack, bound
        )
        if res.status != "STABILIZED":
            verdicts.append(PrimeVerdict(p, expected, None, "INCONCLUSIVE"))
        elif res.value == expected:
            verdicts.append(PrimeVerdict(p, expected, res.value, "MATCH"))
        else:
            verdicts.append(PrimeVerdict(p, expected, res.value, "MISMATCH"))
    return verdicts
