"""The rescaled-ball tree: the one engine behind point counts, truncation
images and lift verdicts.

`BallTree` counts points on every ring (`level_counts`, on the Weil
restriction to Z_p) by a memoised walk over rescaled balls, and over
Z/p^(n+1) counts truncation images and decides single points
(`hensel_liftable`).  Brute `enumerate_points`, lifted
`enumerate_points_lifted` and `LiftAnalyzer`'s certificates in
polyscheme.py are the references the tests hold the tree to; polyscheme
imports nothing from this module.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

from .polyscheme import DEFAULT_SLACK, LiftStatus, MultiPoly, _jacobian, full_rank
from .rings import BoundExceeded, RingElement, at_least, is_prime, p_valuation, size_limit


def count_points(X, ring, bound=None):
    """Exact number of common zeros of X's generators over the ring: the
    last of `level_counts` at the ring's level."""
    return level_counts(X, ring, ring.n, bound)[-1]


def weil_restriction(gens, ring, width):
    """Generators over O = Z_p[Y]/(f)[omega]/(E) in Z_p-coordinates, by the
    ring's own vector arithmetic: with each coordinate sum x_(i,k) omega^i Y^k
    over i < width, k < r, one polynomial per slot (i, k) of each generator
    value, mod the ring's modulus for that slot.  The identity if e = r = 1."""
    if ring.e == ring.r == 1:
        return gens
    size = width * ring.r
    names = [f"{v}_{a}" for v in gens[0].variables for a in range(size)]
    point = [RingElement(ring, tuple(MultiPoly.variable(names, f"{v}_{a}") if a < size
                                     else 0 for a in range(ring.e * ring.r)))
             for v in gens[0].variables]
    return [MultiPoly(names) + c for g in gens
            for c in g.eval_elements(point, ring.from_int).vec]


def level_counts(X, ring, n, bound=None):
    """[|X(R_k)| for k = 0..n], R_k the ring's family at level k:
    `BallTree.level_counts` on X's Weil restriction, in the coordinates of
    the min(e, n+1) omega-slots that occur mod p.  Refuses when the residue
    search p^(N r min(e, n+1)) or the count at some level k <= n exceeds
    the bound; a target without generators is counted in closed form and
    never refused."""
    top = ring.at_level(max(n, 0))  # n = -1 asks for no level
    p, e, r = top.p, top.e, top.r
    if not X.generators:
        return [p ** (r * X.n_vars * (k + 1)) for k in range(n + 1)]
    w = min(e, n + 1)
    slots = [a // r for _ in X.generators for a in range(e * r)]
    tree = BallTree(weil_restriction(X.generators, top, w), X.n_vars * r * w, p, slots, e)
    return tree.level_counts(n, bound)


def hensel_liftable(X, point, p, n, slack=DEFAULT_SLACK):
    """Certify whether a point of X over Z/p^(n+1) is a truncation of a
    Z_p-point, by the rescaled-ball tree (`BallTree.verdict`): UNKNOWN
    when the tree leaves the point's ball open within `slack` levels."""
    at_least("n", n, 0)
    at_least("slack", slack, 0)
    if len(point) != X.n_vars:
        raise ValueError(f"point {point} has {len(point)} coordinates, "
                         f"{X.name} has {X.n_vars} variables")
    verdict = BallTree(X.generators, X.n_vars, p).verdict(point, n, slack)
    return {True: LiftStatus.CERTIFIED_LIFTABLE,
            False: LiftStatus.CERTIFIED_NOT}.get(verdict, LiftStatus.UNKNOWN)


# ---------------------------------------------------------------------------
# rescaled-ball trees (integer systems over Z_p)


def _shift(h, u0, p, modulus):
    """h(u0 + p v), coefficients mod `modulus` when given: what
    `h.substitute({x_j: p x_j + u0[j]}, modulus)` returns, by one binomial
    pass per variable on h's terms.  With a = u0[j], a term of exponent k
    in x_j spreads into C(k, i) a^(k-i) p^i at exponent i, i = 0..k; with
    a = 0 it only scales by p^k."""
    terms = h.terms
    for j, a in enumerate(u0):
        if not a:
            terms = {x: c * p ** x[j] for x, c in terms.items()}
            continue
        out = {}
        for x, c in terms.items():
            k = x[j]
            head, tail = x[:j], x[j + 1:]
            for i in range(k + 1):
                y = head + (i,) + tail
                out[y] = out.get(y, 0) + c * comb(k, i) * a ** (k - i) * p**i
        terms = out
    if modulus:
        terms = {x: c % modulus for x, c in terms.items()}
    return MultiPoly(h.variables, terms)


class BallTree:
    """Counts, truncation images and single-point verdicts over Z/p^(k+1)
    from memoised walks over rescaled balls (Denef, Invent. Math. 77, 1984),
    and counts of Weil restrictions (generator t in omega-slot slots[t]).

    A ball c + p^d Z_p^N is rescaled to Z_p^N by x = c + p^d u.  Its state
    is the generators restricted to it, h_i(u) = f_i(c + p^d u), in one
    normal form (`_state`): primitive, with a fixed leading unit, and
    with no repeat up to a unit.  What lies below a ball depends only on
    its state, so states are memoised.  When counting, condition i asks
    h_i = 0 mod p^(e_i) and is kept mod p^(e_i); it is dropped once the
    content reaches e_i.  For the image, conditions are exact (e_i None).

    A state's residue zeros u0 in F_p^N are its sub-balls at the next
    depth.  Where rank J(u0) over F_p equals the number g <= N of
    conditions, Hensel's lemma closes the sub-ball in closed form: it
    holds p^(N(m-1) - sum(e_i - 1)) zeros mod p^m, m the largest e_i, and
    p^((N-g)(r-1)) of its depth-r sub-balls hold a Z_p-zero.  Every other
    residue zero recurses on the state h_i(u0 + p v), formed by one
    binomial shift per variable (`_shift`) and checked against
    `MultiPoly.substitute`.  Each shift has
    p-content at least 1, so a ball at depth d in a walk has a centre that
    is a zero mod p^d: the states a walk makes at one depth are at most
    the points of one level.  `fibre` asks that closure of the root
    alone, at one point: it is how a formula measure closes a ball.
    """

    def __init__(self, gens, n_vars, p, slots=None, e=1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.gens = tuple(gens)
        self.slots = tuple(slots or (0,) * len(self.gens))
        self.n_vars = n_vars
        self.p = p
        self.e = e
        self._root = self._state((g, None) for g in self.gens)
        self._zeros = {}
        self._searches = {}
        self._children = {}
        self._counts = {}
        self._images = {}

    # -- states ------------------------------------------------------------------

    def _state(self, conditions):
        """The state of conditions (h, e), e None for an exact one, with
        p-content c.  An exact h is divided by the gcd of its coefficients
        and signed so that its largest exponent vector has a positive
        coefficient.  A counted h is dropped once c >= e, else divided by
        p^c and scaled mod p^(e - c) so that its largest exponent vector
        with a coefficient prime to p has coefficient 1.  A repeat up to a
        unit has the same zeros, so it goes: left in, it would keep every
        Jacobian short of full rank."""
        p, kept = self.p, []
        for h, e in conditions:
            if not h.terms:
                continue
            g = gcd(*h.terms.values())
            c = p_valuation(g, p)
            if e is None:
                g = g if h.terms[max(h.terms)] > 0 else -g
                kept.append((MultiPoly(h.variables, {x: a // g for x, a in h.terms.items()}), e))
            elif c < e:
                m, pc = p ** (e - c), p**c
                lead = max(x for x, a in h.terms.items() if a // pc % p)
                unit = pow(h.terms[lead] // pc, -1, m)
                h = MultiPoly(h.variables, {x: a // pc * unit for x, a in h.terms.items()})
                kept.append((h.reduce_coeffs(m), e - c))
        return tuple(dict.fromkeys(kept))

    def _residue_zeros(self, state):
        """{u0: smooth} over the common zeros u0 in F_p^N of a state, in
        lexicographic order; smooth when rank J(u0) is the condition count
        (always, with no condition left).  Only the coordinates that occur
        mod p are searched, the others held at 0; each zero then takes
        every value of those, in their places, and keeps its flag, as
        their Jacobian columns vanish.  One search per system of
        conditions mod p, on which both depend; cached on the state too."""
        zeros = self._zeros.get(state)
        if zeros is None:
            p, nv = self.p, self.n_vars
            polys = tuple(h.reduce_coeffs(p) for h, _ in state)
            zeros = self._searches.get(polys)
            if zeros is None:
                used = {j for j in range(nv) if any(x[j] for h in polys for x in h.terms)}
                evals = [h.compile_int(p) for h in polys]
                jac = [[d.compile_int(p) for d in row] for row in _jacobian(polys)]
                zeros = self._searches[polys] = {}
                for u0 in itertools.product(*[range(p) if j in used else (0,) for j in range(nv)]):
                    if not any(ev(u0) for ev in evals):
                        zeros[u0] = full_rank([[ev(u0) for ev in row] for row in jac], nv, p)
                if len(used) < nv:
                    zeros = self._searches[polys] = dict(sorted(
                        (u, smooth) for u0, smooth in zeros.items() for u in itertools.product(
                            *[(a,) if j in used else range(p) for j, a in enumerate(u0)])))
            self._zeros[state] = zeros
        return zeros

    def _child(self, state, u0):
        """The state of the sub-ball u0 + p Z_p^N."""
        key = (state, u0)
        if key not in self._children:
            p = self.p
            self._children[key] = self._state((_shift(h, u0, p, e and p**e), e) for h, e in state)
        return self._children[key]

    def _walk(self, bound, top=None):
        """The refusal rule of one walk, called on each new state with its
        depth: refuses a residue search p^N over the bound at once, and a
        walk past the bound of new states at one depth (which happens only
        where the count of a level is over it too).  An image walk gives
        the depth left below a state, and `top` is the depth of its deepest."""
        size = self.p**self.n_vars
        limit = size_limit(bound, size, f"residue search of {size} tuples")
        tally = {}

        def visit(depth):
            tally[depth] = tally.get(depth, 0) + 1
            if tally[depth] > limit:
                at = depth if top is None else top - depth
                raise BoundExceeded(
                    f"tree walk of {tally[depth]} states at depth {at} exceeds bound {limit}")
        return visit

    # -- counting ----------------------------------------------------------------

    def _count(self, state, depth, visit):
        """Zeros of a counting state over (Z/p^m)^N, m its largest e_i."""
        if not state:
            return 1
        if state not in self._counts:
            visit(depth)
            p, nv = self.p, self.n_vars
            m = max(e for _, e in state)
            closed = p ** (nv * (m - 1) - sum(e - 1 for _, e in state))
            total = 0
            for u0, smooth in self._residue_zeros(state).items():
                if smooth:
                    total += closed
                else:
                    child = self._child(state, u0)
                    top = max((e for _, e in child), default=0)
                    total += p ** (nv * (m - 1 - top)) * self._count(child, depth + 1, visit)
            self._counts[state] = total
        return self._counts[state]

    def level_counts(self, n, bound=None):
        """[|X(R_k)| for k = 0..n], one walk per level.  With k+1 = qe + s, a
        generator in slot i vanishes mod p^(q + [i < s]) on coordinates mod
        p^m, m = ceil((k+1)/e), which fill min(e, n+1) slots; a slot-i
        coordinate takes p^(m - q - [i < s]) values per one of R_k.  Refuses
        when one of these counts exceeds the bound, or by `_walk`."""
        p, nv, e = self.p, self.n_vars, self.e
        w = min(e, n + 1)
        counts = []
        for k in range(n + 1):
            q, s = divmod(k + 1, e)
            m = q + (s > 0)
            root = self._state(zip(self.gens, [q + (i < s) for i in self.slots]))
            top = max((c for _, c in root), default=0)
            fibre = nv // w * (w * (m - q) - s)
            count = p ** (nv * (m - top)) * self._count(root, 0, self._walk(bound)) // p**fibre
            size_limit(bound, count, f"count {count} at level {k}")
            counts.append(count)
        return counts

    # -- truncation images -------------------------------------------------------

    def _image(self, state, depth, slack, visit):
        """For r = 0..depth: (certified, open) over the depth-r sub-balls of
        a ball with exact conditions: how many hold a Z_p-zero for certain,
        and how many are left open.  A ball holds one when its centre is an
        exact zero; else its own slack-0 walk, untallied and one level
        deeper at a time up to `slack`, decides it at the first depth with
        a certified sub-ball (it holds one) or with none at all (it holds
        none), and leaves it open past `slack`.  Row r depends on the state
        and slack alone, so a state's rows are made again only when deeper
        rows are asked for."""
        rows = self._images.get((state, slack), ())
        if len(rows) <= depth:
            visit(depth)
            here = all(h.constant_value() == 0 for h, _ in state) or None
            r = 0
            while here is None and r < slack:
                r += 1
                c, o = self._image(state, r, 0, lambda depth: None)[r]
                here = True if c else None if o else False
            certified = [int(bool(here))] + [0] * depth
            opened = [int(here is None)] + [0] * depth
            if depth > 0:
                for u0, smooth in self._residue_zeros(state).items():
                    if smooth:
                        fiber = self.p ** (self.n_vars - len(state))
                        for r in range(1, depth + 1):
                            certified[r] += fiber ** (r - 1)
                        continue
                    below = self._image(self._child(state, u0), depth - 1, slack, visit)
                    for r, (c, o) in enumerate(below, 1):
                        certified[r] += c
                        opened[r] += o
            rows = self._images[state, slack] = list(zip(certified, opened))
        return rows[:depth + 1]

    def image_levels(self, n, slack, bound=None):
        """[(certified, open) for k = 0..n]: the points of X(Z/p^(k+1)) that
        truncate a Z_p-point for certain, and those the tree leaves open;
        the rest certainly do not.  Refuses by the rule of `level_counts`
        (`_walk`), and so only where that refuses."""
        return self._image(self._root, n + 1, slack, self._walk(bound, n + 1))[1:]

    def image_above(self, point, n, depth, slack):
        """image_levels over the level-(n+r) points above a level-n point,
        r = 0..depth, walking down its digits.  Hensel's step (`_lifts`) at
        the first smooth residue zero decides: p^((N-g)r) sub-balls, or none."""
        p, state = self.p, self._root
        for d in range(n + 1):
            u = [x // p**d for x in point]
            fiber = self._lifts(state, u, p ** (n + 1 - d))
            if fiber is not False:  # off the residue zeros (None) as with no lift (0)
                return [(fiber and fiber**r or 0, 0) for r in range(depth + 1)]
            state = self._child(state, tuple([x % p for x in u]))
        return self._image(state, depth, slack, self._walk(None, n + 1 + depth))

    def _lifts(self, state, u, m):
        """Hensel's step at u: None off the state's residue zeros, False at a
        singular one, else p^(N - g) if its g conditions vanish at u mod m, or 0."""
        smooth = self._residue_zeros(state).get(tuple([x % self.p for x in u]))
        if not smooth:
            return smooth
        vanish = not any([h.eval_int(u, m) for h, _ in state])
        return vanish * self.p ** (self.n_vars - len(state))

    def fibre(self, point, n):
        """p^(N - g) when the root's g conditions have rank g mod p at a
        level-n point and vanish there mod p^(n+1), else None."""
        return self._lifts(self._root, point, self.p ** (n + 1)) or None

    def verdict(self, point, n, slack=DEFAULT_SLACK):
        """Whether a level-n point truncates a Z_p-point: True, False, or
        None when the tree leaves it open."""
        certified, unknown = self.image_above(point, n, 0, slack)[0]
        return None if unknown else bool(certified)
