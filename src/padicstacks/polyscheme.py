"""Multivariate integer polynomials, affine schemes, singular loci and
exact point enumeration over finite rings.

Polynomials keep integer coefficients; reduction into the working ring
happens at evaluation time, so one scheme definition serves every prime
and every truncation level.

Points over an unramified prime ring Z/p^(n+1) are represented as plain
integers in 0..p^(n+1)-1 (tuples thereof); over ramified or extension
rings they are tuples of ring elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .rings import BoundExceeded, size_limit

DEFAULT_SLACK = 2
DEFAULT_FRONTIER_BOUND = 50_000


class PolyParseError(ValueError):
    """Syntax error in the polynomial text format, with position info."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# polynomials


class MultiPoly:
    """Integer-coefficient polynomial, stored as exponent-vector -> coeff.

    Zero coefficients are never stored, so equality of the term dicts is
    equality of polynomials.  Instances are treated as immutable.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff:
                    clean[tuple(expo)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def constant(cls, variables, c):
        variables = tuple(variables)
        if c == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        idx = variables.index(name)
        expo = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {expo: 1})

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable lists")

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            new = terms.get(expo, 0) + coeff
            if new:
                terms[expo] = new
            else:
                terms.pop(expo, None)
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly(self.variables)
            return MultiPoly(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(expo, 0) + c1 * c2
                if new:
                    terms[expo] = new
                else:
                    del terms[expo]
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.constant(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def pow_mod(self, k, m):
        """self**k with coefficients reduced mod m after each product."""
        result = MultiPoly.constant(self.variables, 1)
        base = self.reduce_coeffs(m)
        while k:
            if k & 1:
                result = (result * base).reduce_coeffs(m)
            if k > 1:
                base = (base * base).reduce_coeffs(m)
            k >>= 1
        return result

    def reduce_coeffs(self, m):
        return MultiPoly(self.variables, {e: c % m for e, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.variables), 0)

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def partial(self, name):
        """Formal partial derivative with respect to one variable."""
        idx = self.variables.index(name)
        terms = {}
        for expo, coeff in self.terms.items():
            k = expo[idx]
            if k:
                new = list(expo)
                new[idx] = k - 1
                key = tuple(new)
                terms[key] = terms.get(key, 0) + coeff * k
        return MultiPoly(self.variables, terms)

    def rename(self, variables):
        """Same terms over a new variable list of equal length."""
        variables = tuple(variables)
        if len(variables) != len(self.variables):
            raise ValueError("variable count mismatch")
        return MultiPoly(variables, dict(self.terms))

    def extend(self, variables):
        """View this polynomial inside a larger variable list."""
        variables = tuple(variables)
        positions = [variables.index(v) for v in self.variables]
        width = len(variables)
        terms = {}
        for expo, coeff in self.terms.items():
            new = [0] * width
            for pos, e in zip(positions, expo):
                new[pos] = e
            terms[tuple(new)] = coeff
        return MultiPoly(variables, terms)

    # -- evaluation ---------------------------------------------------------

    def eval_int(self, point, modulus):
        """Evaluate at a tuple of ints, mod `modulus`."""
        acc = 0
        for expo, coeff in self.terms.items():
            t = coeff
            for i, e in enumerate(expo):
                if e:
                    t *= pow(point[i], e, modulus)
            acc += t
        return acc % modulus

    def compile_int(self, modulus):
        """Return a fast evaluator point-tuple -> int for a fixed modulus."""
        terms = [
            (coeff % modulus, tuple((i, e) for i, e in enumerate(expo) if e))
            for expo, coeff in sorted(self.terms.items())
        ]
        terms = [(c, f) for c, f in terms if c]

        def ev(point, _terms=tuple(terms), _m=modulus):
            acc = 0
            for c, factors in _terms:
                t = c
                for i, e in factors:
                    t = t * pow(point[i], e, _m) % _m
                acc += t
            return acc % _m

        return ev

    def eval_elements(self, point, from_int):
        """Evaluate at a tuple of ring elements.

        `from_int` embeds integer coefficients into the ring; elements must
        support + and *.
        """
        acc = from_int(0)
        for expo, coeff in self.terms.items():
            t = from_int(coeff)
            for i, e in enumerate(expo):
                for _ in range(e):
                    t = t * point[i]
            acc = acc + t
        return acc

    def substitute(self, mapping, modulus=None):
        """Plug polynomials in for variables.

        `mapping` sends each variable name to a MultiPoly; all images must
        share one variable list.  Coefficients are reduced mod `modulus`
        after every product when given.
        """
        images = [mapping[v] for v in self.variables]
        target_vars = images[0].variables if images else ()
        acc = MultiPoly(target_vars)
        for expo, coeff in self.terms.items():
            t = MultiPoly.constant(target_vars, coeff)
            for img, e in zip(images, expo):
                if e:
                    p = img.pow_mod(e, modulus) if modulus else img**e
                    t = t * p
                    if modulus:
                        t = t.reduce_coeffs(modulus)
            acc = acc + t
        if modulus:
            acc = acc.reduce_coeffs(modulus)
        return acc

    # -- text ---------------------------------------------------------------

    def sorted_terms(self):
        """Terms in a stable order: total degree descending, then exponent
        vector descending."""
        return sorted(
            self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        )

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.variables, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"


# ---------------------------------------------------------------------------
# polynomial text syntax: integers, variables, + - * ^, parentheses


def _tokenize_poly(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
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
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _PolyParser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def expr(self):
        if self.peek()[0] == "-":
            self.take()
            acc = -self.term()
        else:
            acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            return base**value
        return base

    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            return MultiPoly.constant(self.variables, value)
        if kind == "name":
            if value not in self.variables:
                raise PolyParseError(f"unbound variable {value!r}", pos)
            return MultiPoly.variable(self.variables, value)
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if kind == "-":
            return -self.factor()
        raise PolyParseError(f"unexpected token {value!r}", pos)


def parse_poly(text, variables):
    """Parse the input-file polynomial syntax over the given variables."""
    parser = _PolyParser(_tokenize_poly(text), variables)
    result = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {value!r}", pos)
    return result


# ---------------------------------------------------------------------------
# affine schemes


@dataclass(frozen=True)
class AffineScheme:
    """Affine scheme: variables, integer-coefficient generators, and a
    declared relative dimension over the base (not computed)."""

    name: str
    variables: tuple
    generators: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "generators", tuple(self.generators))
        n = len(self.variables)
        if not 0 <= self.dim <= n:
            raise ValueError(f"declared dim {self.dim} outside [0, {n}]")
        for g in self.generators:
            if g.variables != self.variables:
                raise ValueError("generator over wrong variable list")

    @classmethod
    def affine_space(cls, name, variables):
        return cls(name, tuple(variables), (), len(tuple(variables)))

    @classmethod
    def from_text(cls, name, variables, generator_texts, dim):
        gens = tuple(parse_poly(t, variables) for t in generator_texts)
        return cls(name, tuple(variables), gens, dim)

    @property
    def n_vars(self):
        return len(self.variables)

    def codim(self):
        return self.n_vars - self.dim


# ---------------------------------------------------------------------------
# enumeration over finite rings
#
# A "ring" argument is any object with .size, .elements(), .from_int(c) and,
# where applicable, .int_modulus (set to p^(n+1) for unramified prime rings,
# p for prime fields, None otherwise).  The int fast path keeps points as
# plain integer tuples.


def _int_modulus(ring):
    return getattr(ring, "int_modulus", None)


def enumerate_points(X, ring, bound=None):
    """Yield every point of X over the ring, in lexicographic order."""
    total = ring.size**X.n_vars
    size_limit(bound, total, f"enumeration of {total} tuples")
    m = _int_modulus(ring)
    if m is not None:
        evals = [g.compile_int(m) for g in X.generators]
        for point in itertools.product(range(m), repeat=X.n_vars):
            for ev in evals:
                if ev(point):
                    break
            else:
                yield point
    else:
        elements = list(ring.elements())
        from_int = ring.from_int
        zero = from_int(0)
        for point in itertools.product(elements, repeat=X.n_vars):
            if all(g.eval_elements(point, from_int) == zero for g in X.generators):
                yield point


def count_points(X, ring, bound=None):
    """Exact number of common zeros of X's generators over the ring."""
    if not X.generators:
        return ring.size**X.n_vars
    return sum(1 for _ in enumerate_points(X, ring, bound))


def _solve_mod_p(rows, rhs, p, n_vars):
    """Every solution of rows . delta = rhs over F_p, in lexicographic order.

    Gauss-Jordan elimination runs over the columns from last to first, so
    each pivot unknown depends only on free unknowns to its left; listing
    the free unknowns lexicographically then lists the solutions
    lexicographically.
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivot_cols = []
    for c in reversed(range(n_vars)):
        r = len(pivot_cols)
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [a * inv % p for a in aug[r]]
        for i, row in enumerate(aug):
            if i != r and row[c]:
                f = row[c]
                aug[i] = [(a - f * b) % p for a, b in zip(row, aug[r])]
        pivot_cols.append(c)
    if any(row[n_vars] for row in aug[len(pivot_cols):]):
        return ()
    free = [c for c in range(n_vars) if c not in pivot_cols]
    solutions = []
    for values in itertools.product(range(p), repeat=len(free)):
        delta = [0] * n_vars
        for c, v in zip(free, values):
            delta[c] = v
        for c, row in zip(pivot_cols, aug):
            delta[c] = (row[n_vars] - sum(row[j] * delta[j] for j in free)) % p
        solutions.append(tuple(delta))
    return tuple(solutions)


class _Lifter:
    """Level-by-level lifting of common zeros of an integer system over
    Z/p^(k+1), by Hensel linearisation.

    For k >= 1 and a zero x of the system mod p^k, Taylor expansion gives
    f(x + p^k delta) = f(x) + p^k J(x) delta (mod p^(k+1)), and J(x) mod p
    depends only on x0 = x mod p.  So the level-k lifts of x are the
    x + p^k delta with J(x0) delta = -f(x)/p^k over F_p: none, or exactly
    p^(N - rank J(x0)) of them.  The solution set is cached per
    (x0, f(x)/p^k) pair; the Jacobian is compiled on first use.
    """

    def __init__(self, gens, n_vars, p):
        self.gens = tuple(gens)
        self.n_vars = n_vars
        self.p = p
        self._gen_evals = {}
        self._jac_evals = None
        self._solutions = {}

    def evals_at(self, modulus):
        if modulus not in self._gen_evals:
            self._gen_evals[modulus] = [g.compile_int(modulus) for g in self.gens]
        return self._gen_evals[modulus]

    def is_smooth(self, x0):
        """rank J(x0) equals the number of generators: x0 lifts to exactly
        p^(N - g) points at every level."""
        g = len(self.gens)
        if g > self.n_vars:
            return False
        zero = (0,) * g
        return len(self._deltas(x0, zero)) == self.p ** (self.n_vars - g)

    def residue_points(self):
        """Common zeros over F_p, in lexicographic order."""
        evals = self.evals_at(self.p)
        return [
            pt
            for pt in itertools.product(range(self.p), repeat=self.n_vars)
            if all(ev(pt) == 0 for ev in evals)
        ]

    def _deltas(self, x0, rhs):
        key = (x0, rhs)
        if key not in self._solutions:
            if self._jac_evals is None:
                self._jac_evals = [
                    [g.partial(v).compile_int(self.p) for v in g.variables]
                    for g in self.gens
                ]
            rows = [[ev(x0) for ev in row] for row in self._jac_evals]
            self._solutions[key] = _solve_mod_p(rows, rhs, self.p, self.n_vars)
        return self._solutions[key]

    def lifts(self, point, k):
        """Level-k lifts (k >= 1) of a zero mod p^k, in the lexicographic
        order of their digit vectors delta."""
        p = self.p
        step = p**k
        rhs = tuple(-(ev(point) // step) % p for ev in self.evals_at(step * p))
        x0 = tuple(x % p for x in point)
        return [
            tuple(x + d * step for x, d in zip(point, delta))
            for delta in self._deltas(x0, rhs)
        ]

    def lift_frontier(self, frontier, k, limit, counted=0):
        """Level-k lifts of every point of a level-(k-1) frontier, in
        frontier order; raises once they and `counted` other level-k points
        exceed `limit`."""
        new_frontier = []
        for pt in frontier:
            new_frontier.extend(self.lifts(pt, k))
            if counted + len(new_frontier) > limit:
                raise BoundExceeded(f"lift frontier exceeds bound {limit}")
        return new_frontier


def enumerate_points_lifted(X, p, n, bound=None):
    """Points of X over Z/p^(n+1) by successive lifting from level 0.

    Level 0 is a search over F_p^N; every later level solves one linear
    system over F_p per point (Hensel linearisation, see `_Lifter`), so
    only real points are ever built.  Returns the same list as
    enumerate_points over the unramified prime ring: every point, sorted
    lexicographically.  Raises BoundExceeded when a level holds more than
    `bound` points.
    """
    limit = size_limit(bound, p**X.n_vars, "level-0 enumeration")
    lifter = _Lifter(X.generators, X.n_vars, p)
    frontier = lifter.residue_points()
    for k in range(1, n + 1):
        frontier = lifter.lift_frontier(frontier, k, limit)
    frontier.sort()
    return frontier


def count_points_lifted(X, p, n, bound=None):
    """|X(Z/p^(n+1))|, in closed form where Hensel's lemma allows it.

    A residue point x0 where rank J(x0) equals the number g <= N of
    generators lifts to exactly p^(N-g) points at each level, so it
    contributes p^(n(N-g)) points without being enumerated.  Only the other
    residue points are lifted level by level, as in
    enumerate_points_lifted.  The bound applies to the whole would-be
    frontier at each level, so the refusals match enumerate_points_lifted.
    """
    nv = X.n_vars
    if not X.generators:
        return p ** ((n + 1) * nv)
    limit = size_limit(bound, p**nv, "level-0 enumeration")
    lifter = _Lifter(X.generators, nv, p)
    frontier = []
    smooth = 0
    for x0 in lifter.residue_points():
        if lifter.is_smooth(x0):
            smooth += 1
        else:
            frontier.append(x0)
    fiber = p ** (nv - len(X.generators)) if smooth else 0
    for k in range(1, n + 1):
        smooth *= fiber  # level-k points over the smooth residue points
        size_limit(limit, smooth, "lift frontier")
        frontier = lifter.lift_frontier(frontier, k, limit, smooth)
    return smooth + len(frontier)


# ---------------------------------------------------------------------------
# Jacobians, minors, singular locus


def jacobian(X):
    """Matrix of formal partials: row per generator, column per variable."""
    return tuple(
        tuple(g.partial(v) for v in X.variables) for g in X.generators
    )


def _det(matrix):
    """Determinant of a small square matrix of MultiPoly, by expansion."""
    k = len(matrix)
    if k == 0:
        return None
    if k == 1:
        return matrix[0][0]
    variables = matrix[0][0].variables
    acc = MultiPoly(variables)
    for j in range(k):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        sub = [
            [row[c] for c in range(k) if c != j] for row in matrix[1:]
        ]
        cofactor = entry * _det(sub)
        acc = acc + cofactor if j % 2 == 0 else acc - cofactor
    return acc


def jacobian_minors(X, k):
    """All k x k minors of the Jacobian, in a deterministic order."""
    jac = jacobian(X)
    rows = range(len(jac))
    cols = range(X.n_vars)
    result = []
    for rsel in itertools.combinations(rows, k):
        for csel in itertools.combinations(cols, k):
            sub = [[jac[r][c] for c in csel] for r in rsel]
            result.append(_det(sub))
    return result


def singular_locus(X):
    """Closed subscheme where all codim-size Jacobian minors vanish.

    Realizes the Fitting-ideal locus for a presentation with exactly
    codim-many generators; declared dim of the result is kept at X's (an
    upper bound).
    """
    k = X.codim()
    if k == 0:
        # smooth by convention: cut out the empty scheme
        one = MultiPoly.constant(X.variables, 1)
        return AffineScheme(X.name + "_sing", X.variables, (one,), X.dim)
    if k > len(X.generators):
        raise ValueError(
            f"codim {k} exceeds generator count {len(X.generators)}; "
            "declared dim is inconsistent with the presentation"
        )
    gens = X.generators + tuple(jacobian_minors(X, k))
    return AffineScheme(X.name + "_sing", X.variables, gens, X.dim)


# ---------------------------------------------------------------------------
# truncation and Hensel certificates (unramified prime rings; integer points)


def tau_point(point, p, n):
    """Reduce an integer point to level n (i.e. mod p^(n+1))."""
    m = p ** (n + 1)
    return tuple(x % m for x in point)


class LiftStatus(Enum):
    CERTIFIED_LIFTABLE = "CERTIFIED_LIFTABLE"
    CERTIFIED_NOT = "CERTIFIED_NOT"
    UNKNOWN = "UNKNOWN"


def _ord_int(value, p, cap):
    """p-adic valuation of value mod p^cap; returns cap when 0 mod p^cap."""
    value %= p**cap
    if value == 0:
        return cap
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


class LiftAnalyzer:
    """Liftability certificates for level-n zeros of a generator system.

    Newton window: with g generators in N variables, a g x g minor of
    valuation v at a level-m lift certifies an exact zero of every
    generator congruent to the lift mod p^(m+1-v), provided 2v <= m; the
    zero truncates to the original level-n point when v <= m - n.  The
    minor route needs g <= N; refutation (empty lift frontier up to level
    n+slack) is always available.

    The frontier grows by the Hensel-linearised lifting behind
    enumerate_points_lifted (one linear system over F_p per point, see
    `_Lifter`), and the lifts of each point come in the lexicographic
    order of their digit vectors.  So a frontier capped at
    `frontier_bound` keeps the same points as a search over all p^N digit
    vectors would, and the outcome does not depend on the method.

    Symbolic minors are computed once per instance; evaluators are cached
    per modulus, and the Jacobian is compiled only when a frontier is first
    lifted, so batch classification of many points is cheap.
    """

    def __init__(self, gens, n_vars, p):
        self.gens = tuple(gens)
        self.n_vars = n_vars
        self.p = p
        self.use_minors = 0 < len(self.gens) <= n_vars
        if self.use_minors:
            jac = [
                [g.partial(v) for v in g.variables] for g in self.gens
            ]
            k = len(self.gens)
            self.minors = [
                _det([[jac[r][c] for c in csel] for r in range(k)])
                for csel in itertools.combinations(range(n_vars), k)
            ]
        else:
            self.minors = []
        self._lifter = _Lifter(self.gens, n_vars, p)
        self._minor_evals = {}

    def _minors_at(self, modulus):
        if modulus not in self._minor_evals:
            self._minor_evals[modulus] = [
                d.compile_int(modulus) for d in self.minors
            ]
        return self._minor_evals[modulus]

    def _minor_certificate(self, point, m, n):
        if not self.use_minors:
            return False
        window = min(m - n, m // 2)
        if window < 0:
            return False
        cap = m + 1
        modulus = self.p**cap
        for ev in self._minors_at(modulus):
            if _ord_int(ev(point), self.p, cap) <= window:
                return True
        return False

    def status(self, point, n, slack=DEFAULT_SLACK,
               frontier_bound=DEFAULT_FRONTIER_BOUND):
        """Classify a level-n point: certified truncation of a true zero,
        certified not, or unknown."""
        p = self.p
        if not self.gens:
            return LiftStatus.CERTIFIED_LIFTABLE
        point = tau_point(point, p, n)
        if any(ev(point) != 0 for ev in self._lifter.evals_at(p ** (n + 1))):
            return LiftStatus.CERTIFIED_NOT
        if self._minor_certificate(point, n, n):
            return LiftStatus.CERTIFIED_LIFTABLE
        frontier = [point]
        capped = False
        for m in range(n + 1, n + slack + 1):
            new_frontier = []
            for pt in frontier:
                for cand in self._lifter.lifts(pt, m):
                    if self._minor_certificate(cand, m, n):
                        return LiftStatus.CERTIFIED_LIFTABLE
                    new_frontier.append(cand)
                if len(new_frontier) > frontier_bound:
                    capped = True
                    new_frontier = new_frontier[:frontier_bound]
                    break
            if not new_frontier and not capped:
                return LiftStatus.CERTIFIED_NOT
            frontier = new_frontier
        return LiftStatus.UNKNOWN


def lift_analyzer_for_scheme(X, p):
    """Analyzer honoring the declared dimension: the minor criterion is
    only sound when the presentation has exactly codim-many generators."""
    analyzer = LiftAnalyzer(X.generators, X.n_vars, p)
    if len(X.generators) != X.codim():
        analyzer.use_minors = False
        analyzer.minors = []
    return analyzer


def hensel_liftable(X, point, p, n, slack=DEFAULT_SLACK,
                    frontier_bound=DEFAULT_FRONTIER_BOUND):
    """Certify whether a point of X over Z/p^(n+1) is a truncation of a
    Z_p-point.

    The Newton minor criterion applies when the presentation has exactly
    codim-many generators (a complete-intersection-style presentation);
    otherwise only exhaustive refutation can decide, and surviving points
    come back UNKNOWN.
    """
    return lift_analyzer_for_scheme(X, p).status(point, n, slack, frontier_bound)
