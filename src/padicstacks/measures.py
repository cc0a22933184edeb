"""Truncation images, the p-adic measure as stabilized normalized counts,
and the three point-count series with exact rational-function fitting.

Conventions, fixed once and embedded in every report:

  * level n means the ring R/(omega^(n+1)); the measure of a d-dimensional
    target normalizes level-n counts by q^((n+1)d), so the affine line has
    measure 1.
  * series coefficient 0 is the count over the zero ring (1 for nonempty
    targets); coefficient n >= 1 is the level-(n-1) count.
  * a target is an atlas X and a divisor w(n): a scheme is its own atlas
    with w(n) = 1, and a quotient stack [X/G] by a special group has the
    atlas X and w(n) = |G(R_n)|.  Series coefficient m >= 1 is the
    level-(m-1) count of X over w(m-1); the level-n measure value is
    |X(R_n)| / (w(0) * q^((n+1) dim X)), which makes the level sequence
    literally constant on the classifying-stack examples.
"""

from __future__ import annotations

from fractions import Fraction

from .polyscheme import DEFAULT_SLACK, enumerate_points_lifted, row_reduce, singular_locus
from .rings import at_least, record
from .stacks import QuotientStack, SpecialGroup, UnsupportedStack
from .tree import BallTree, level_counts

STABLE_RUN = 3
DEFAULT_MAX_LEVEL = 6
DEFAULT_TERMS = 8
HOLDOUT = 2  # series coefficients a rational fit must reproduce unseen

NORMALIZATION_NOTE = (
    "level n = R/(omega^(n+1)); mu_d = lim count(level n)/q^((n+1)d); "
    "series coeff 0 = zero-ring count, coeff n = level-(n-1) count; "
    "special-group stacks normalize through the atlas: "
    "|X(R_n)|/(|G(F_q)| q^((n+1) dim X))"
)


class FitNotFound(ValueError):
    """No linear recurrence of admissible order matches the coefficients."""


def _atlas(target, base_spec, what):
    """(X, weight): the scheme whose points a target counts and the divisor
    weight(n) of its level-n count; the target itself with weight 1, or X
    with |G(R_n)| for a special-group quotient [X/G]."""
    if not isinstance(target, QuotientStack):
        return target, lambda n: 1
    if not isinstance(target.group, SpecialGroup):
        raise UnsupportedStack(
            f"{what} of finite-group quotients at positive level are unsupported"
        )
    group = target.group
    return target.scheme, lambda n: group.size_over(base_spec.at_level(n))


# ---------------------------------------------------------------------------
# truncation maps


@record
class TauImageProfile:
    """Per-level certificate bookkeeping for the truncation image."""

    level: int
    slack: int
    certified: int
    refuted: int
    unknown: int

    @property
    def image_at_slack(self):
        """Points of X(R_n) not certified outside the truncation image:
        an upper bound on its size, equal to it when the profile is exact."""
        return self.certified + self.unknown

    @property
    def exact(self):
        return self.unknown == 0


def tau_image_profile(X, p, n, slack=DEFAULT_SLACK, bound=None):
    """The level-n profile; `refuted` is the rest of the count walk's total."""
    at_least("n", n, 0)
    at_least("slack", slack, 0)
    tree = BallTree(X.generators, X.n_vars, p)
    total = tree.level_counts(n, bound)[-1]
    certified, unknown = tree.image_levels(n, slack, bound)[-1]
    return TauImageProfile(n, slack, certified, total - certified - unknown, unknown)


def tau_image_count(X, p, n, slack=DEFAULT_SLACK, bound=None):
    """Upper bound on |tau_n(X(Z_p))| at the given slack: the points of
    X(R_n) not certified outside the image (TauImageProfile.image_at_slack)."""
    return tau_image_profile(X, p, n, slack, bound).image_at_slack


# ---------------------------------------------------------------------------
# p-adic measure


@record
class MeasureResult:
    """Stabilized normalized counts; STABILIZED needs a run of at least
    three equal values extending to the deepest level computed."""

    value: object
    status: str
    levels: list
    counts: list
    stabilized_at: object = None
    lower: list = None
    upper: list = None


def _stabilize(levels, lower, upper=None):
    """The verdict on normalized level values, with upper bounds when some
    points are open: STABILIZED at the start of a run of at least
    STABLE_RUN equal lower values that ends at the last level, when the
    upper values equal them on its last STABLE_RUN levels; else PARTIAL.
    The bounds are kept only when upper ones are given."""
    i = len(lower) - 1
    while i > 0 and lower[i - 1] == lower[-1]:
        i -= 1
    bounds = () if upper is None else (list(lower), list(upper))
    tail = lower[-STABLE_RUN:]
    if len(lower) - i >= STABLE_RUN and (upper is None or upper[-STABLE_RUN:] == tail):
        return MeasureResult(lower[-1], "STABILIZED", list(levels), list(lower), levels[i],
                             *bounds)
    return MeasureResult(None, "PARTIAL", list(levels), list(lower), None, *bounds)


def padic_measure(target, base_spec, max_level=DEFAULT_MAX_LEVEL, bound=None):
    """Measure of the full target (scheme or special-group quotient stack).

    Level-n counts use all R_n-points, with no lift certification.
    STABILIZED means three equal normalized values in a row, not a proof
    of the limit: the cusp y^2 = x^3 over Z_5 reads STABILIZED 9/5 at
    the default depth, while its measure is 5/6.  Without such a run the
    result is PARTIAL.
    """
    at_least("max_level", max_level, 0)
    q = base_spec.at_level(0).size
    X, weight = _atlas(target, base_spec, "measures")
    w0 = weight(0)
    levels = list(range(max_level + 1))
    counts = [
        Fraction(cnt, w0 * q ** ((n + 1) * X.dim))
        for n, cnt in zip(levels, level_counts(X, base_spec, max_level, bound))
    ]
    return _stabilize(levels, counts)


# ---------------------------------------------------------------------------
# series


@record
class SeriesTable:
    """Exact series coefficients, with certificate slop reported when the
    lift status of some points is unknown (never silently absorbed).

    Coefficients are the certified values; `unknown` / `unknown_down` give
    the upward and downward slack (a Q coefficient inherits downward slack
    from unresolved singular-locus points)."""

    kind: str
    target: str
    prime: int
    coefficients: list
    exact: bool = True
    unknown: list = None
    unknown_down: list = None

    def bounds(self):
        """(lower, upper) coefficient lists; equal when exact."""
        lower = list(self.coefficients)
        upper = list(self.coefficients)
        if self.unknown is not None:
            upper = [c + u for c, u in zip(upper, self.unknown)]
        if self.unknown_down is not None:
            lower = [c - d for c, d in zip(lower, self.unknown_down)]
        return lower, upper


def _series_tilde(X, weight, base_spec, terms, bound):
    counts = level_counts(X, base_spec, terms - 2, bound)
    coeffs = [Fraction(1)] + [
        Fraction(cnt, weight(n)) for n, cnt in enumerate(counts)]
    return coeffs, [Fraction(0)] * terms


def _series_p(X, weight, p, terms, slack, bound):
    rows = BallTree(X.generators, X.n_vars, p).image_levels(max(terms - 2, 0), slack, bound)
    # coefficient 0: nonemptiness of the Z_p-point set, probed at level 0
    certified0, open0 = rows[0]
    coeffs = [Fraction(int(certified0 > 0))]
    unknown = [Fraction(int(certified0 == 0 and open0 > 0))]
    for k, (certified, opened) in enumerate(rows[:terms - 1]):
        coeffs.append(Fraction(certified, weight(k)))
        unknown.append(Fraction(opened, weight(k)))
    return coeffs, unknown


def series(target, base_spec, kind="tilde", terms=DEFAULT_TERMS,
           slack=DEFAULT_SLACK, bound=None):
    """Series table for P-tilde ('tilde'), P ('p') or Q ('q').

    The Q series is the P series of the atlas minus the P series of its
    singular locus, both over the same divisor."""
    if kind not in ("tilde", "p", "q"):
        raise ValueError(f"unknown series kind {kind!r}")
    at_least("terms", terms, 1)
    at_least("slack", slack, 0)
    if kind != "tilde" and base_spec.at_level(0).int_modulus is None:
        raise UnsupportedStack(
            "lift-certified series need an unramified prime ring"
        )
    name = target.name if hasattr(target, "name") else str(target)
    X, weight = _atlas(target, base_spec, "series")
    down = None
    if kind == "tilde":
        coeffs, unknown = _series_tilde(X, weight, base_spec, terms, bound)
    else:
        coeffs, unknown = _series_p(X, weight, base_spec.p, terms, slack, bound)
    if kind == "q":
        cs, down = _series_p(
            singular_locus(X), weight, base_spec.p, terms, slack, bound
        )
        coeffs = [a - b for a, b in zip(coeffs, cs)]
    exact = all(u == 0 for u in unknown) and (
        down is None or all(d == 0 for d in down)
    )
    return SeriesTable(
        kind,
        name,
        base_spec.p,
        coeffs,
        exact,
        None if exact else unknown,
        None if exact or down is None else down,
    )


# ---------------------------------------------------------------------------
# rational-function fitting


@record(frozen=True)
class RationalFunction:
    """numerator / denominator as coefficient tuples in T, denominator
    constant term 1; expansion reproduces the fitted series."""

    numerator: tuple
    denominator: tuple

    def expand(self, terms):
        den = list(self.denominator)
        num = list(self.numerator)
        out = []
        for k in range(terms):
            acc = Fraction(num[k]) if k < len(num) else Fraction(0)
            for i in range(1, min(k, len(den) - 1) + 1):
                acc -= den[i] * out[k - i]
            out.append(acc)
        return out

    def to_text(self):
        num = _poly_text(self.numerator)
        if len([c for c in self.numerator if c != 0]) > 1:
            num = f"({num})"
        return f"{num}/({_poly_text(self.denominator)})"


def _frac_text(c, wrap=False):
    if c.denominator == 1:
        return str(c.numerator)
    text = f"{c.numerator}/{c.denominator}"
    return f"({text})" if wrap else text


def _poly_text(coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = _frac_text(mag)
        elif i == 1:
            body = "T" if mag == 1 else f"{_frac_text(mag, wrap=True)}T"
        else:
            body = f"T^{i}" if mag == 1 else f"{_frac_text(mag, wrap=True)}T^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    if not parts:
        return "0"
    return " ".join(parts)


def _solve_exact(rows, rhs, n_unknowns):
    """Gauss-Jordan over the rationals; returns a solution with free
    unknowns set to 0, or None when inconsistent."""
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    pivots = row_reduce(m, range(n_unknowns), lambda a: 1 / a, lambda a: a)
    if pivots is None:
        return None
    solution = [Fraction(0)] * n_unknowns
    for row, c in zip(m, pivots):
        solution[c] = row[-1]
    return solution


def rational_fit(coeffs):
    """Minimal-order linear recurrence fit, validated on held-out terms.

    Sweeps the recurrence order L upward; a candidate must reproduce every
    supplied coefficient, including HOLDOUT coefficients never shown to
    the solver.  Raises FitNotFound if no order up to floor((N-2)/2) works.
    """
    coeffs = [Fraction(c) for c in coeffs]
    total = len(coeffs)
    if total < 2 + HOLDOUT:
        raise FitNotFound("too few coefficients")
    train = coeffs[: total - HOLDOUT]
    max_order = (total - HOLDOUT) // 2
    for L in range(1, max_order + 1):
        rows = []
        rhs = []
        for n in range(L, len(train)):
            rows.append([train[n - i] for i in range(1, L + 1)])
            rhs.append(train[n])
        a = _solve_exact(rows, rhs, L)
        if a is None:
            continue
        den = [Fraction(1)] + [-ai for ai in a]
        # convolution with the denominator must vanish from degree L on,
        # across ALL supplied coefficients (this is the holdout check)
        conv = []
        ok = True
        for k in range(total):
            acc = Fraction(0)
            for i in range(min(k, L) + 1):
                acc += den[i] * coeffs[k - i]
            conv.append(acc)
            if k >= L and acc != 0:
                ok = False
                break
        if not ok:
            continue
        num = conv[:L]
        while len(num) > 1 and num[-1] == 0:
            num.pop()
        while len(den) > 1 and den[-1] == 0:
            den.pop()
        fit = RationalFunction(tuple(num), tuple(den))
        if fit.expand(total) == coeffs:
            return fit
    raise FitNotFound(
        f"no linear recurrence of order <= {max_order} matches; "
        "raise the number of terms"
    )


# ---------------------------------------------------------------------------
# the singular-complement identity behind the Q series


def q_coefficient_check(X, base_spec, level, max_level=DEFAULT_MAX_LEVEL,
                  slack=DEFAULT_SLACK, bound=None):
    """Compare the level-`level` Q coefficient against p^((level+1)d) times
    the measure of the points whose level-`level` truncation avoids the
    singular locus.

    Returns (lhs, rhs MeasureResult scaled, ok).  One tree on the scheme X
    gives X's part of the Q coefficient (its image through `level`) and the
    kept points: its image at levels `level`..`max_level` less what lies
    above the level-`level` points of the singular locus.  Raises on a
    stack, when level < 0 or level > max_level, the Q series is not exact
    (before any walk past `level`) or the tree leaves a kept point open.
    """
    at_least("level", level, 0)
    at_least("slack", slack, 0)
    if level > max_level:
        raise ValueError(f"level {level} exceeds max_level {max_level}")
    if isinstance(X, QuotientStack):
        raise UnsupportedStack("Q coefficient checks need a scheme target")
    sing = singular_locus(X)
    tbl = series(sing, base_spec, "p", terms=level + 2, slack=slack, bound=bound)
    p, d = base_spec.p, X.dim  # the series refused every ring but Z/p^(n+1)
    tree = BallTree(X.generators, X.n_vars, p)
    rows = tree.image_levels(level, slack, bound)
    if not tbl.exact or any(u for _, u in rows):
        raise UnsupportedStack("unresolved lift certificates in the Q series")
    lhs = rows[level][0] - tbl.coefficients[level + 1]
    kept = tree.image_levels(max_level, slack, bound)[level:]
    for centre in enumerate_points_lifted(sing, p, level, bound):
        above = tree.image_above(centre, level, max_level - level, slack)
        kept = [(c - a, u - b) for (c, u), (a, b) in zip(kept, above)]
    if any(u for _, u in kept):
        raise UnsupportedStack("unresolved lift certificate")
    levels = list(range(level, max_level + 1))
    counts = [Fraction(c, p ** ((ell + 1) * d)) for ell, (c, _) in zip(levels, kept)]
    result = _stabilize(levels, counts)
    if result.status != "STABILIZED":
        return lhs, result, False
    rhs = result.value * p ** ((level + 1) * d)
    return lhs, rhs, lhs == rhs
