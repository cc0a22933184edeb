"""Truncation images, the p-adic measure as stabilized normalized counts,
and the three point-count series with exact rational-function fitting.

Conventions, fixed once and embedded in every report:

  * level n means the ring R/(omega^(n+1)); the measure of a d-dimensional
    target normalizes level-n counts by q^((n+1)d), so the affine line has
    measure 1.
  * series coefficient 0 is the count over the zero ring (1 for nonempty
    targets); coefficient n >= 1 is the level-(n-1) count.
  * quotient stacks [X/G] by a special group measure through the atlas:
    the level-n normalized count is |X(R_n)| / (|G(F_q)| * q^((n+1) dim X)).
    For the constant-size groups involved this is what makes the level
    sequence literally constant on the classifying-stack examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polyscheme import (
    DEFAULT_FRONTIER_BOUND,
    DEFAULT_SLACK,
    LiftStatus,
    count_points,
    count_points_lifted,
    enumerate_points_lifted,
    lift_analyzer_for_scheme,
    singular_locus,
    tau_point,
)
from .rings import LocalRingSpec, make_ring
from .stacks import QuotientStack, SpecialGroup, UnsupportedStack

STABLE_RUN = 3
DEFAULT_MAX_LEVEL = 6

NORMALIZATION_NOTE = (
    "level n = R/(omega^(n+1)); mu_d = lim count(level n)/q^((n+1)d); "
    "series coeff 0 = zero-ring count, coeff n = level-(n-1) count; "
    "special-group stacks normalize through the atlas: "
    "|X(R_n)|/(|G(F_q)| q^((n+1) dim X))"
)


class FitNotFound(ValueError):
    """No linear recurrence of admissible order matches the coefficients."""


def ring_at_level(base_spec, n):
    """Same ring family as base_spec, truncated at level n."""
    return make_ring(
        base_spec.p,
        base_spec.e,
        base_spec.eisenstein,
        n,
        base_spec.r,
        base_spec.residue_field.modulus,
    )


def scheme_count_at_level(X, base_spec, n, bound=None):
    """|X(R_n)| in the family of base_spec."""
    spec_n = ring_at_level(base_spec, n)
    if spec_n.int_modulus is not None:
        return count_points_lifted(X, spec_n.p, n, bound)
    return count_points(X, spec_n, bound)


# ---------------------------------------------------------------------------
# truncation maps


@dataclass
class TauImageProfile:
    """Per-level certificate bookkeeping for the truncation image."""

    level: int
    slack: int
    certified: int
    refuted: int
    unknown: int

    @property
    def total(self):
        return self.certified + self.refuted + self.unknown

    @property
    def image_at_slack(self):
        """Points of X(R_n) admitting a lift to R_(n+slack)."""
        return self.certified + self.unknown

    @property
    def exact(self):
        return self.unknown == 0


def tau_image_profile(X, p, n, slack=DEFAULT_SLACK, bound=None,
                      frontier_bound=DEFAULT_FRONTIER_BOUND):
    analyzer = lift_analyzer_for_scheme(X, p)
    certified = refuted = unknown = 0
    for pt in enumerate_points_lifted(X, p, n, bound):
        status = analyzer.status(pt, n, slack, frontier_bound)
        if status is LiftStatus.CERTIFIED_LIFTABLE:
            certified += 1
        elif status is LiftStatus.CERTIFIED_NOT:
            refuted += 1
        else:
            unknown += 1
    return TauImageProfile(n, slack, certified, refuted, unknown)


def tau_image_count(X, p, n, slack=DEFAULT_SLACK, bound=None):
    """|{x in X(R_n) liftable to R_(n+slack)}|."""
    return tau_image_profile(X, p, n, slack, bound).image_at_slack


# ---------------------------------------------------------------------------
# p-adic measure


@dataclass
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
    note: str = NORMALIZATION_NOTE


def _stabilize(levels, counts):
    i = len(counts) - 1
    while i > 0 and counts[i - 1] == counts[-1]:
        i -= 1
    run = len(counts) - i
    if run >= STABLE_RUN:
        return MeasureResult(
            counts[-1], "STABILIZED", list(levels), list(counts), levels[i]
        )
    return MeasureResult(None, "PARTIAL", list(levels), list(counts))


def padic_measure(target, base_spec, max_level=DEFAULT_MAX_LEVEL, bound=None):
    """Measure of the full target (scheme or special-group quotient stack).

    Level-n counts use all R_n-points; the convergence of that sequence to
    the measure is what licenses skipping lift certification here, and the
    three-in-a-row stabilization rule is an honest heuristic: without it
    the result is PARTIAL, never a guess.
    """
    q = base_spec.p**base_spec.r
    levels = list(range(max_level + 1))
    counts = []
    if isinstance(target, QuotientStack):
        group = target.group
        if not isinstance(group, SpecialGroup):
            raise UnsupportedStack(
                "measures of finite-group quotients at positive level are unsupported"
            )
        X = target.scheme
        g_res = group.size_over(base_spec.residue_field)
        for n in levels:
            cnt = scheme_count_at_level(X, base_spec, n, bound)
            counts.append(Fraction(cnt, g_res * q ** ((n + 1) * X.dim)))
    else:
        d = target.dim
        for n in levels:
            cnt = scheme_count_at_level(target, base_spec, n, bound)
            counts.append(Fraction(cnt, q ** ((n + 1) * d)))
    return _stabilize(levels, counts)


# ---------------------------------------------------------------------------
# series


@dataclass
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


def _weighted(count, target, base_spec, n):
    if isinstance(target, QuotientStack):
        return Fraction(count, target.group.size_over(ring_at_level(base_spec, n)))
    return Fraction(count)


def _series_tilde(target, base_spec, terms, bound):
    X = target.scheme if isinstance(target, QuotientStack) else target
    coeffs = [Fraction(1)]
    for m in range(1, terms):
        n = m - 1
        cnt = scheme_count_at_level(X, base_spec, n, bound)
        coeffs.append(_weighted(cnt, target, base_spec, n))
    return coeffs, [Fraction(0)] * terms


def _series_p(target, base_spec, terms, slack, bound):
    X = target.scheme if isinstance(target, QuotientStack) else target
    if base_spec.int_modulus is None and base_spec.e * base_spec.r > 1:
        raise UnsupportedStack(
            "lift-certified series need an unramified prime ring"
        )
    p = base_spec.p
    analyzer = lift_analyzer_for_scheme(X, p)
    coeffs = []
    unknown = []
    # coefficient 0: nonemptiness of the Z_p-point set, probed at level 0
    prof0 = tau_image_profile(X, p, 0, slack, bound)
    if prof0.certified > 0:
        coeffs.append(Fraction(1))
        unknown.append(Fraction(0))
    elif prof0.unknown == 0:
        coeffs.append(Fraction(0))
        unknown.append(Fraction(0))
    else:
        coeffs.append(Fraction(0))
        unknown.append(Fraction(1))
    for m in range(1, terms):
        n = m - 1
        prof = tau_image_profile(X, p, n, slack, bound)
        coeffs.append(_weighted(prof.certified, target, base_spec, n))
        unknown.append(_weighted(prof.unknown, target, base_spec, n))
    return coeffs, unknown


def series(target, base_spec, kind="tilde", terms=8, slack=DEFAULT_SLACK,
           bound=None):
    """Series table for P-tilde ('tilde'), P ('p') or Q ('q')."""
    name = target.name if hasattr(target, "name") else str(target)
    down = None
    if kind == "tilde":
        coeffs, unknown = _series_tilde(target, base_spec, terms, bound)
    elif kind == "p":
        coeffs, unknown = _series_p(target, base_spec, terms, slack, bound)
    elif kind == "q":
        X = target.scheme if isinstance(target, QuotientStack) else target
        sing = singular_locus(X)
        if isinstance(target, QuotientStack):
            sing_target = QuotientStack(
                target.name + "_sing",
                type(target.action)(target.group, sing, target.action.polys),
            )
        else:
            sing_target = sing
        cx, ux = _series_p(target, base_spec, terms, slack, bound)
        cs, us = _series_p(sing_target, base_spec, terms, slack, bound)
        coeffs = [a - b for a, b in zip(cx, cs)]
        unknown = ux
        down = us
    else:
        raise ValueError(f"unknown series kind {kind!r}")
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


@dataclass(frozen=True)
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
    pivots = []
    r = 0
    for c in range(n_unknowns):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = m[r][c]
        m[r] = [v / scale for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][-1] != 0:
            return None
    solution = [Fraction(0)] * n_unknowns
    for row_idx, c in enumerate(pivots):
        solution[c] = m[row_idx][-1]
    return solution


def rational_fit(coeffs, holdout=2):
    """Minimal-order linear recurrence fit, validated on held-out terms.

    Sweeps the recurrence order L upward; a candidate must reproduce every
    supplied coefficient, including `holdout` coefficients never shown to
    the solver.  Raises FitNotFound if no order up to floor((N-2)/2) works.
    """
    coeffs = [Fraction(c) for c in coeffs]
    total = len(coeffs)
    if total < 2 + holdout:
        raise FitNotFound("too few coefficients")
    train = coeffs[: total - holdout]
    max_order = (total - holdout) // 2
    for L in range(1, max_order + 1):
        rows = []
        rhs = []
        for n in range(L, len(train)):
            rows.append([train[n - i] for i in range(1, L + 1)])
            rhs.append(train[n])
        if not rows:
            continue
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
    """Compare the level-`level` Q coefficient against q^((level+1)d) times
    the measure of the points whose level-`level` truncation avoids the
    singular locus.

    Returns (lhs, rhs MeasureResult scaled, ok).  Exact only when every
    lift certificate resolves; raises otherwise.
    """
    if base_spec.int_modulus is None:
        raise UnsupportedStack("q_coefficient_check needs an unramified prime ring")
    p = base_spec.p
    q = p**base_spec.r
    d = X.dim
    sing = singular_locus(X)
    tbl = series(X, base_spec, "q", terms=level + 2, slack=slack, bound=bound)
    if not tbl.exact:
        raise UnsupportedStack("unresolved lift certificates in the Q series")
    lhs = tbl.coefficients[level + 1]
    sing_modulus = p ** (level + 1)
    sing_evals = [g.compile_int(sing_modulus) for g in sing.generators]
    analyzer = lift_analyzer_for_scheme(X, p)
    levels = list(range(level, max_level + 1))
    counts = []
    for ell in levels:
        kept = 0
        for pt in enumerate_points_lifted(X, p, ell, bound):
            status = analyzer.status(pt, ell, slack)
            if status is LiftStatus.UNKNOWN:
                raise UnsupportedStack("unresolved lift certificate")
            if status is not LiftStatus.CERTIFIED_LIFTABLE:
                continue
            down = tau_point(pt, p, level)
            if all(ev(down) == 0 for ev in sing_evals):
                continue  # truncation hits the singular locus
            kept += 1
        counts.append(Fraction(kept, q ** ((ell + 1) * d)))
    result = _stabilize(levels, counts)
    if result.status != "STABILIZED":
        return lhs, result, False
    rhs = result.value * q ** ((level + 1) * d)
    return lhs, rhs, lhs == rhs
