"""Reference polynomial arithmetic for the tests: products on exponent
tuples, substitution without constant folding, and Greenberg digit
components and the Witt structure laws from the ghost map over Z, and
Witt arithmetic over F_p by the ghost equations, and the Teichmuller
lift by its fixpoint iteration.  None
of it calls the product kernel of MultiPoly or Witt's packed solver, so
no kernel is checked only by itself.

Also a reference for the verdicts of BallTree's image walk that shares
none of its memo: a breadth-first search over the states below a ball,
level by level, with an optional cap on the states of one level; for
its residue search, which evaluates every tuple of F_p^N and takes each
rank by its own elimination; and for its closure at the root
(`BallTree.fibre`), by the rank of the system's own Jacobian."""

import itertools
import operator

from padicstacks.polyscheme import MultiPoly
from padicstacks.rings import power
from padicstacks.witt import ghost_components, witt_add_int, witt_from_int, witt_mul_int, witt_neg_int


def mul_reference(a, b):
    """a*b by zipping the exponent tuples of every pair of terms."""
    assert a.variables == b.variables
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            expo = tuple(map(operator.add, e1, e2))
            terms[expo] = terms.get(expo, 0) + c1 * c2
    return MultiPoly(a.variables, terms)


def pow_reference(q, k, modulus=None):
    """q**k by square-and-multiply on mul_reference, reduced mod
    `modulus` after every product when given."""
    def mul(a, b):
        c = mul_reference(a, b)
        return c.reduce_coeffs(modulus) if modulus else c

    return power(q, k, mul, MultiPoly.constant(q.variables, 1))


def substitute_reference(f, mapping, modulus=None):
    """Plug polynomials in for variables term by term: every image power,
    constant images too, is multiplied out on exponent tuples."""
    images = [mapping[v] for v in f.variables]
    target_vars = images[0].variables if images else ()
    acc = MultiPoly(target_vars)
    for expo, coeff in f.terms.items():
        t = MultiPoly.constant(target_vars, coeff)
        for img, e in zip(images, expo):
            if e:
                t = mul_reference(t, pow_reference(img, e, modulus))
                if modulus:
                    t = t.reduce_coeffs(modulus)
        acc = acc + t
    return acc.reduce_coeffs(modulus) if modulus else acc


def structure_reference(p, length):
    """The Witt laws over Z, (S_0, ...) and (P_0, ...), solved from the
    ghost equations w_i(S) = w_i(x) + w_i(y) and w_i(P) = w_i(x) w_i(y)
    one step at a time: p^i S_i = w_i(x) + w_i(y) - sum_(j<i) p^j
    S_j^(p^(i-j)), every power taken afresh by pow_reference."""
    names = tuple(f"x_{i}" for i in range(length)) + tuple(f"y_{i}" for i in range(length))
    xs = [MultiPoly.variable(names, f"x_{i}") for i in range(length)]
    ys = [MultiPoly.variable(names, f"y_{i}") for i in range(length)]

    def ghost(coords, i):
        return sum((pow_reference(coords[j], p ** (i - j)) * p**j for j in range(i + 1)),
                   MultiPoly(names))

    def solve(target):
        coords = []
        for i in range(length):
            acc = target(i)
            for j, c in enumerate(coords):
                acc = acc - pow_reference(c, p ** (i - j)) * p**j
            assert all(coeff % p**i == 0 for coeff in acc.terms.values())
            coords.append(MultiPoly(names, {e: c // p**i for e, c in acc.terms.items()}))
        return tuple(coords)

    return (solve(lambda i: ghost(xs, i) + ghost(ys, i)),
            solve(lambda i: mul_reference(ghost(xs, i), ghost(ys, i))))


def ghost_expand_reference(f, p, length, names):
    """Digit components of f over F_p from the ghost map, with no Witt
    structure polynomial: the Witt vector c = f(x) has ghost components
    f(w_i(x)), each constant entering through the ghost components of its
    Teichmuller digits, and p^i c_i = f(w_i) - sum_(j<i) p^j c_j^(p^(i-j)).

    Step i runs mod p^(i+1) on the digits c_j mod p: a = b mod p gives
    a^(p^k) = b^(p^k) mod p^(k+1), so the right side is p^i c_i mod
    p^(i+1) and its division by p^i must be exact there."""
    one = MultiPoly.constant(names, 1)
    digits = {
        v: [MultiPoly.variable(names, f"{v}_{i}") for i in range(length)]
        for v in f.variables
    }
    coords = []
    for i in range(length):
        m = p ** (i + 1)
        w = {
            v: sum((pow_reference(xs[j], p ** (i - j)) * p**j for j in range(i + 1)),
                   MultiPoly(names))
            for v, xs in digits.items()
        }
        acc = MultiPoly(names)
        for expo, coeff in f.terms.items():
            t = one * ghost_components(witt_from_int(coeff, p, length), p)[i]
            for v, e in zip(f.variables, expo):
                if e:
                    t = mul_reference(t, pow_reference(w[v], e, m))
            acc = (acc + t).reduce_coeffs(m)
        for j, c in enumerate(coords):
            acc = acc - pow_reference(c, p ** (i - j), p ** (i - j + 1)) * p**j
        acc = acc.reduce_coeffs(m)
        assert all(coeff % p**i == 0 for coeff in acc.terms.values())
        coords.append(MultiPoly(names, {e: c // p**i for e, c in acc.terms.items()}))
    return tuple(coords)


def rank_mod_p(rows, p):
    """Rank of an integer matrix over F_p, by elimination on a copy."""
    rows = [[a % p for a in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def full_rank_reference(polys, point, p):
    """Whether a system has rank len(polys) mod p at a point, by the rank
    of its own Jacobian there: no row is divided by its content and no
    repeat is dropped.  Where it has and the rows vanish at a level-n
    point, Hensel's lemma gives p^(N - len(polys)) zeros above it one
    level down."""
    rows = [[h.partial(v).eval_int(point, p) for v in h.variables] for h in polys]
    return rank_mod_p(rows, p) == len(polys)


def residue_zeros_reference(polys, n_vars, p):
    """BallTree._residue_zeros of a system, with no coordinate skipped:
    {u0: smooth} over every tuple u0 of F_p^N in lexicographic order at
    which each polynomial vanishes mod p, smooth when the Jacobian there
    has rank mod p equal to the number of polynomials."""
    jac = [[h.partial(v) for v in h.variables] for h in polys]
    zeros = {}
    for u0 in itertools.product(range(p), repeat=n_vars):
        if not any(h.eval_int(u0, p) for h in polys):
            rows = [[d.eval_int(u0, p) for d in row] for row in jac]
            zeros[u0] = rank_mod_p(rows, p) == len(polys)
    return zeros


def decide_reference(tree, state, slack, frontier_bound=50_000):
    """Whether a rescaled ball of `tree` holds a Z_p-zero: True when some
    state within `slack` levels below it has its centre as an exact zero
    (no condition left included) or has a smooth residue zero; False when
    the search runs out of residue zeros; None otherwise, or when a level
    holds more than `frontier_bound` states."""
    frontier = [state]
    for level in range(slack + 1):
        if any(all(h.constant_value() == 0 for h, _ in s) for s in frontier):
            return True
        if level == slack or len(frontier) > frontier_bound:
            return None
        below = {}
        for s in frontier:
            for u0, smooth in tree._residue_zeros(s).items():
                if smooth:
                    return True
                below[tree._child(s, u0)] = None
        if not below:
            return False
        frontier = list(below)


def image_reference(tree, state, depth, slack, visit, memo):
    """BallTree._image with each ball decided by decide_reference."""
    key = (state, depth)
    if key not in memo:
        visit(depth)
        here = decide_reference(tree, state, slack)
        certified = [int(bool(here))] + [0] * depth
        opened = [int(here is None)] + [0] * depth
        if depth > 0:
            for u0, smooth in tree._residue_zeros(state).items():
                if smooth:
                    fiber = tree.p ** (tree.n_vars - len(state))
                    for r in range(1, depth + 1):
                        certified[r] += fiber ** (r - 1)
                    continue
                below = image_reference(tree, tree._child(state, u0), depth - 1,
                                        slack, visit, memo)
                for r, (c, o) in enumerate(below, 1):
                    certified[r] += c
                    opened[r] += o
        memo[key] = list(zip(certified, opened))
    return memo[key]


def image_levels_reference(tree, n, slack, bound=None):
    """BallTree.image_levels by image_reference, refused by the tree's rule."""
    visit = tree._walk(bound, n + 1)
    return image_reference(tree, tree._root, n + 1, slack, visit, {})[1:]


def verdict_reference(tree, point, n, slack, frontier_bound=50_000):
    """BallTree.verdict: down the point's digits to its first smooth
    residue zero, where Hensel's lemma decides, or to its own ball."""
    p, state = tree.p, tree._root
    for d in range(n + 1):
        u = [x // p**d for x in point]
        u0 = tuple(x % p for x in u)
        smooth = tree._residue_zeros(state).get(u0)
        if smooth is None:
            return False
        if smooth:
            return not any(h.eval_int(u, p ** (n + 1 - d)) for h, _ in state)
        state = tree._child(state, u0)
    return decide_reference(tree, state, slack, frontier_bound)


def teichmuller_reference(c, p, precision):
    """The multiplicative lift of c mod p to Z/p^precision as the fixpoint
    of x -> x^p, iterated from c."""
    m = p**precision
    x = c % m
    for _ in range(precision + 2):
        nx = pow(x, p, m)
        if nx == x:
            break
        x = nx
    return x


# Witt arithmetic over F_p by the ghost equations: lift the digits to Z,
# run the integral law, reduce.  This equals evaluating the mod-p structure
# polynomials, since evaluation commutes with reduction.  WittVector
# computes in Z/p^L instead, through the Teichmuller digit coding.


def witt_add_modp(a, b, p):
    return tuple(c % p for c in witt_add_int(a, b, p))


def witt_mul_modp(a, b, p):
    return tuple(c % p for c in witt_mul_int(a, b, p))


def witt_neg_modp(a, p):
    return tuple(c % p for c in witt_neg_int(a, p))


def witt_scalar_modp(k, a, p):
    """k-fold Witt sum of a vector over F_p, by the ghost-equation sum."""
    acc = (0,) * len(a)
    for _ in range(k % p ** len(a)):
        acc = witt_add_modp(acc, a, p)
    return acc
