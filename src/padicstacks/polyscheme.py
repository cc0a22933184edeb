"""Multivariate integer polynomials, affine schemes, singular loci and
exact point enumeration over finite rings.

Polynomials keep integer coefficients; reduction into the working ring
happens at evaluation time, so one scheme definition serves every prime
and every truncation level.

The ring decides how a point coordinate is stored (`coordinates()` and
`compile(poly)` in rings.py): points over Z/p^(n+1) are tuples of plain
integers in 0..p^(n+1)-1, and over ramified and Galois rings tuples of
RingElements.  F_q is the Galois ring make_ring(p, r=r) at level 0.

`LiftAnalyzer` lifts points level by level to list them
(`enumerate_points_lifted`); its certificates (`status`) and brute
`enumerate_points` are the references the tests hold the ball tree of
tree.py to, so this module imports nothing from it.
"""

from __future__ import annotations

import itertools
import operator
from enum import Enum

from .rings import BoundExceeded, at_least, is_prime, p_valuation, power, record, size_limit
from .syntax import _ExprParser

DEFAULT_SLACK = 2
CERT_FRONTIER_BOUND = 50_000  # the test oracle's cap: points per level of a status frontier


# ---------------------------------------------------------------------------
# polynomials


class MultiPoly:
    """Integer-coefficient polynomial, stored as exponent-vector -> coeff.

    Zero coefficients are never stored, so equality of the term dicts is
    equality of polynomials.  Instances are treated as immutable.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff:
                    clean[tuple(expo)] = coeff
        self.terms = clean
        self._hash = None

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
        """Product.  Two polynomials multiply on packed monomials, one int
        per term (see "packed monomials" below): each operand is packed
        once and the product is unpacked once."""
        if isinstance(other, int):
            return MultiPoly(self.variables, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        radix = _radix(_degree(self) + _degree(other))
        product = _multiply_into({}, _pack(self, radix), _pack(other, radix))
        return MultiPoly(self.variables, _unpack(product, len(self.variables), radix))

    __rmul__ = __mul__

    def __pow__(self, k):
        """Power by `rings.power` on packed monomials: packed once, with a
        radix above every exponent of the result, and unpacked once."""
        if k < 0:
            raise ValueError("negative exponent")
        radix = _radix(_degree(self) * k)
        packed = power(_pack(self, radix), k, lambda a, b: _multiply_into({}, a, b), {0: 1})
        return MultiPoly(self.variables, _unpack(packed, len(self.variables), radix))

    def reduce_coeffs(self, m):
        return MultiPoly(self.variables, {e: c % m for e, c in self.terms.items()})

    __mod__ = reduce_coeffs  # lets ring vector arithmetic run on polynomials

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.variables), 0)

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
        share one variable list.  Constant images are folded into the
        coefficients first, so no product involves them.  Each other image
        is packed once, one int per term, and each of its powers is formed
        once; every product runs on packed monomials, with coefficients
        reduced mod `modulus` when given, and only the final sum is
        unpacked.
        """
        images = [mapping[v] for v in self.variables]
        target = images[0].variables if images else ()
        if any(img.variables != target for img in images):
            raise ValueError("polynomials over different variable lists")
        fixed = {j: img.constant_value() for j, img in enumerate(images) if img.is_constant()}
        moving = [j for j in range(len(images)) if j not in fixed]
        folded = self.terms
        if fixed:
            folded = {}
            for expo, coeff in self.terms.items():
                for j, c in fixed.items():
                    coeff *= pow(c, expo[j], modulus or None)
                key = tuple([expo[j] for j in moving])
                folded[key] = folded.get(key, 0) + coeff
            _reduce(folded, modulus)
        # no exponent of the result exceeds degree * largest image exponent
        radix = _radix(max(map(sum, folded), default=0)
                       * max((_degree(images[j]) for j in moving), default=0))
        packed = [_pack(images[j], radix) for j in moving]
        powers = [[{0: 1}] for _ in moving]  # powers[i][e] = packed[i]**e
        acc = {}
        for expo, coeff in folded.items():
            term = {0: coeff}
            for img, pw, e in zip(packed, powers, expo):
                while len(pw) <= e:
                    pw.append(_reduce(_multiply_into({}, pw[-1], img), modulus))
                if e:
                    term = _reduce(_multiply_into({}, term, pw[e]), modulus)
            _multiply_into(acc, term, {0: 1})  # acc += term
        return MultiPoly(target, _unpack(_reduce(acc, modulus), len(target), radix))

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


# packed monomials: the kernel of every polynomial product.  An exponent
# vector (e_0, ..., e_(n-1)) is packed into the int sum e_i * radix**i,
# so a monomial product is one int addition.  Each product takes a radix
# above every exponent of its result, so no digit can carry into the
# next.  The radix is odd, so the low bits of a key, where a dict probes
# first, depend on every exponent: with a large radix 2^w they would hold
# e_0 alone, and a large product would collide on them.  One kernel does
# use radix 2^w: witt._FoldedRing, for the functions on F_p, whose digits
# never exceed 2p - 2, so that a fold is a shift and a mask and the low bits
# still span several digits; the digit expansion keeps its Witt vectors in
# that form.  A Witt law's keys share halves: `_unpack_halves` decodes them.


def _degree(poly):
    """The largest exponent of any variable in any term."""
    return max(itertools.chain.from_iterable(poly.terms), default=0)


def _radix(bound):
    """The smallest odd radix above exponents 0..bound."""
    return (bound + 1) | 1


def _pack(poly, radix):
    weights = [radix**i for i in range(len(poly.variables))]
    return {sum(map(operator.mul, expo, weights)): c for expo, c in poly.terms.items()}


def _unpack(packed, n, radix):
    terms = {}
    for key, coeff in packed.items():
        expo = []
        for _ in range(n):
            key, e = divmod(key, radix)
            expo.append(e)
        terms[tuple(expo)] = coeff
    return terms


def _unpack_halves(packed, n, radix):
    """`_unpack` for keys that share their halves, as a Witt law's do: each
    key splits once into its low n - n // 2 and high n // 2 digits, and
    each distinct half is decoded once, by `_unpack`."""
    low = n - n // 2
    cut = radix**low
    lows = {b: e for e, b in _unpack({k % cut: k % cut for k in packed}, low, radix).items()}
    highs = {a: e for e, a in _unpack({k // cut: k // cut for k in packed}, n - low, radix).items()}
    return {lows[k % cut] + highs[k // cut]: c for k, c in packed.items()}


def _multiply_into(out, a, b):
    """The product loop: add a*b into `out`, all three dicts of packed
    keys.  Cancelled terms stay as zeros until `_reduce`."""
    get = out.get
    b = b.items()
    for k1, c1 in a.items():
        for k2, c2 in b:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _reduce(terms, modulus):
    """Reduce mod `modulus` when given and drop zero terms, in place."""
    if modulus:
        for k, c in terms.items():
            terms[k] = c % modulus
    for k in [k for k, c in terms.items() if not c]:
        del terms[k]
    return terms


# ---------------------------------------------------------------------------
# polynomial text (the grammar is in syntax.py)


class _PolyParser(_ExprParser):
    """Leaves: integers and the given variables, over MultiPoly."""

    def __init__(self, text, variables):
        super().__init__(text)
        self.variables = tuple(variables)

    def leaf(self):
        kind, value, pos = self.take()
        if kind == "int":
            return MultiPoly.constant(self.variables, value)
        if kind == "name":
            if value not in self.variables:
                raise self.error(f"unbound variable {value!r}", pos)
            return MultiPoly.variable(self.variables, value)
        raise self.error(f"unexpected token {value!r}", pos)

    def binary(self, op, a, b):
        if op != "*":
            return super().binary(op, a, b)
        # a short text can ask for a huge product: refuse it before it is built
        size = len(a.terms) * len(b.terms)
        size_limit(None, size, f"product of {len(a.terms)} by {len(b.terms)} terms")
        return a * b

    def power(self, a, k):
        # each product, squarings included, passes the size check of binary
        return power(a, k, lambda x, y: self.binary("*", x, y),
                     MultiPoly.constant(self.variables, 1))


def parse_poly(text, variables):
    """Parse the input-file polynomial syntax over the given variables."""
    parser = _PolyParser(text, variables)
    return parser.end(parser.expr())


# ---------------------------------------------------------------------------
# affine schemes


@record(frozen=True)
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
# A "ring" argument is a LocalRingSpec: it owns its point coordinates
# through .coordinates() and .compile(poly) (see rings.py).


def enumerate_points(X, ring, bound=None):
    """Yield every point of X over the ring, in lexicographic order of the
    ring's coordinates."""
    total = ring.size**X.n_vars
    size_limit(bound, total, f"enumeration of {total} tuples")
    evals = [ring.compile(g) for g in X.generators]
    coords = ring.coordinates(bound) if X.n_vars else ()  # no variables: list no ring
    for point in itertools.product(coords, repeat=X.n_vars):
        for ev in evals:
            if ev(point):
                break
        else:
            yield point


def row_reduce(aug, columns, inverse, canon):
    """Gauss-Jordan elimination, in place, on an augmented matrix: a list
    of rows, each ending in its right-hand side.

    Pivots are sought in `columns`, in the order given; `inverse(a)` is the
    inverse of a nonzero entry and `canon(a)` the normal form of an entry
    (reduction mod p, or the entry itself over a field of fractions).
    Returns the pivot columns in order, with row i of `aug` holding a 1 in
    the i-th of them and zeros in every other pivot column, or None when
    the system is inconsistent."""
    pivots = []
    for c in columns:
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = inverse(aug[r][c])
        aug[r] = [canon(a * inv) for a in aug[r]]
        for i, row in enumerate(aug):
            if i != r and row[c]:
                f = row[c]
                aug[i] = [canon(a - f * b) for a, b in zip(row, aug[r])]
        pivots.append(c)
    if any(row[-1] for row in aug[len(pivots):]):
        return None
    return pivots


def full_rank(rows, n_cols, p):
    """Whether the rows of an integer matrix with n_cols columns are
    linearly independent mod p (no rows are)."""
    if len(rows) > n_cols:
        return False
    aug = [list(row) + [0] for row in rows]
    pivots = row_reduce(aug, range(n_cols), lambda a: pow(a, -1, p), lambda a: a % p)
    return len(pivots) == len(rows)


def _solve_mod_p(rows, rhs, p, n_vars):
    """Every solution of rows . delta = rhs over F_p, in lexicographic order.

    Elimination pivots on the columns from last to first, so each pivot
    unknown depends only on free unknowns to its left; listing the free
    unknowns lexicographically then lists the solutions lexicographically.
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivot_cols = row_reduce(aug, reversed(range(n_vars)),
                            lambda a: pow(a, -1, p), lambda a: a % p)
    if pivot_cols is None:
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


def enumerate_points_lifted(X, p, n, bound=None):
    """Points of X over Z/p^(n+1) by successive lifting from level 0.

    Level 0 is a search over F_p^N; every later level solves one linear
    system over F_p per point (Hensel linearisation, see `LiftAnalyzer`), so
    only real points are ever built.  Returns the same list as
    enumerate_points over the unramified prime ring: every point, sorted
    lexicographically.  Raises BoundExceeded when a level holds more than
    `bound` points.
    """
    at_least("n", n, 0)
    limit = size_limit(bound, p**X.n_vars, "level-0 enumeration")
    lifter = LiftAnalyzer(X.generators, X.n_vars, p)
    frontier = lifter.residue_points()
    for k in range(1, n + 1):
        frontier = lifter.lift_frontier(frontier, k, limit)
    frontier.sort()
    return frontier


# ---------------------------------------------------------------------------
# Jacobians, minors, singular locus


def jacobian(X):
    """Matrix of formal partials: row per generator, column per variable."""
    return _jacobian(X.generators)


def _jacobian(gens):
    return tuple(tuple(g.partial(v) for v in g.variables) for g in gens)


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
    return _minors(jacobian(X), X.n_vars, k)


def _minors(jac, n_cols, k):
    result = []
    for rsel in itertools.combinations(range(len(jac)), k):
        for csel in itertools.combinations(range(n_cols), k):
            result.append(_det([[jac[r][c] for c in csel] for r in rsel]))
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


class LiftAnalyzer:
    """Hensel lifting and liftability certificates for the zeros of an
    integer generator system over Z/p^(k+1).

    Lifting: for k >= 1 and a zero x of the system mod p^k, Taylor
    expansion gives f(x + p^k delta) = f(x) + p^k J(x) delta (mod p^(k+1)),
    and J(x) mod p depends only on x0 = x mod p.  So the level-k lifts of x
    are the x + p^k delta with J(x0) delta = -f(x)/p^k over F_p: none, or
    exactly p^(N - rank J(x0)) of them, listed in the lexicographic order
    of delta.  The solution set is cached per (x0, f(x)/p^k) pair.

    Certificates: with g generators in N variables, a g x g minor of
    valuation v at a level-m lift certifies an exact zero of every
    generator congruent to the lift mod p^(m+1-v), provided 2v <= m; the
    zero truncates to the original level-n point when v <= m - n.  This
    is Newton's lemma on the minor and needs nothing from a declared
    dimension, so the route runs whenever 0 < g <= N (with g > N there is
    no g x g minor).  Refutation (an empty lift frontier up to level
    n+slack) is always available.  The frontier keeps at most CERT_FRONTIER_BOUND points per
    level; as lifts come in the order of their digit vectors, a capped
    frontier holds the same points as a search over all p^N digit vectors
    would.

    No library path calls `status`: `BallTree` answers every lift question.
    The class stays because its lifting is the listing path that
    cross-checks the tree's counts, and its certificates are the
    independent engine that the tests require the tree never to contradict.

    The Jacobian, the minors and every evaluator are built on first use
    and cached (evaluators per modulus), so lifting never builds minors.
    """

    def __init__(self, gens, n_vars, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.gens = tuple(gens)
        self.n_vars = n_vars
        self.p = p
        self.minors = None
        self._jac_evals = None
        self._gen_evals = {}
        self._minor_evals = {}
        self._solutions = {}

    # -- lifting ---------------------------------------------------------------

    def evals_at(self, modulus):
        if modulus not in self._gen_evals:
            self._gen_evals[modulus] = [g.compile_int(modulus) for g in self.gens]
        return self._gen_evals[modulus]

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
                    [d.compile_int(self.p) for d in row]
                    for row in _jacobian(self.gens)
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

    def lift_frontier(self, frontier, k, limit):
        """Level-k lifts of every point of a level-(k-1) frontier, in
        frontier order; raises once they exceed `limit`."""
        new_frontier = []
        for pt in frontier:
            new_frontier.extend(self.lifts(pt, k))
            if len(new_frontier) > limit:
                raise BoundExceeded(f"lift frontier exceeds bound {limit}")
        return new_frontier

    # -- certificates ------------------------------------------------------------

    def _minors_at(self, modulus):
        if modulus not in self._minor_evals:
            if self.minors is None:
                self.minors = _minors(_jacobian(self.gens), self.n_vars, len(self.gens))
            self._minor_evals[modulus] = [
                d.compile_int(modulus) for d in self.minors
            ]
        return self._minor_evals[modulus]

    def _minor_certificate(self, point, m, n):
        window = min(m - n, m // 2)
        if window < 0:
            return False
        for ev in self._minors_at(self.p ** (m + 1)):
            if p_valuation(ev(point), self.p) <= window:
                return True
        return False

    def status(self, point, n, slack=DEFAULT_SLACK):
        """Classify a level-n point: certified truncation of a true zero,
        certified not, or unknown."""
        p = self.p
        if not self.gens:
            return LiftStatus.CERTIFIED_LIFTABLE
        point = tau_point(point, p, n)
        if any(ev(point) != 0 for ev in self.evals_at(p ** (n + 1))):
            return LiftStatus.CERTIFIED_NOT
        if self._minor_certificate(point, n, n):
            return LiftStatus.CERTIFIED_LIFTABLE
        frontier = [point]
        capped = False
        for m in range(n + 1, n + slack + 1):
            new_frontier = []
            for pt in frontier:
                for cand in self.lifts(pt, m):
                    if self._minor_certificate(cand, m, n):
                        return LiftStatus.CERTIFIED_LIFTABLE
                    new_frontier.append(cand)
                if len(new_frontier) > CERT_FRONTIER_BOUND:
                    capped = True
                    new_frontier = new_frontier[:CERT_FRONTIER_BOUND]
                    break
            if not new_frontier and not capped:
                return LiftStatus.CERTIFIED_NOT
            frontier = new_frontier
        return LiftStatus.UNKNOWN
