"""Command-line interface: one command per invocation, declarative input
from a project file, deterministic structured text reports.

Exit codes: 0 success; 2 invalid project, formula or command-line value;
3 size limit exceeded; 4 non-stabilized/inexact result under --strict.
Exact rationals are serialized as "num/den".
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .definable import (
    FormulaSyntaxError,
    measure_formula,
    parse_formula,
    specialize_primes,
)
from .greenberg import greenberg_transform
from .measures import (
    NORMALIZATION_NOTE,
    FitNotFound,
    padic_measure,
    rational_fit,
    scheme_count_at_level,
    series,
)
from .polyscheme import PolyParseError, count_points_lifted, singular_locus
from .project import ProjectError, load_project
from .rings import BoundExceeded, FiniteField, RingConstructionError, is_prime
from .stacks import (
    QuotientStack,
    SpecialGroup,
    UnsupportedStack,
    stacky_count_finite,
    stacky_count_finite_level,
    stacky_count_special,
)
from .witt import structure_polynomials

EXIT_OK = 0
EXIT_PROJECT = 2
EXIT_BOUND = 3
EXIT_PARTIAL = 4


def _rat(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _ring_desc(name, spec):
    return f"{name} (p={spec.p}, e={spec.e}, n={spec.n}, r={spec.r})"


def _header(command):
    return [
        "# padicstacks report",
        f"command = {command}",
        f"normalization = {NORMALIZATION_NOTE}",
    ]


def _parse_field(text):
    """--field q=25 style prime-power field descriptions."""
    if "=" in text:
        key, _, value = text.partition("=")
        if key.strip() != "q":
            raise ProjectError(f"field spec must be q=<prime power>, got {text!r}")
        text = value
    q = int(text)
    if q < 2:
        raise ProjectError(f"{q} is not a prime power")
    p = 2
    while p * p <= q and q % p != 0:
        p += 1
    if q % p != 0:
        p = q
    r = 0
    qq = q
    while qq % p == 0:
        qq //= p
        r += 1
    if qq != 1 or not is_prime(p):
        raise ProjectError(f"{q} is not a prime power")
    return FiniteField(p, r)


def _stack_count(stack, ring, bound):
    """Weighted count of a quotient stack over a finite field or ring."""
    if isinstance(stack.group, SpecialGroup):
        return stacky_count_special(stack, ring, bound)
    if isinstance(ring, FiniteField):
        return stacky_count_finite(stack.action, ring, bound)
    return stacky_count_finite_level(stack.action, ring, bound)


# ---------------------------------------------------------------------------
# commands


def _cmd_count(args, project):
    target = project.target(args.target)
    spec = project.ring(args.ring)
    lines = _header("count")
    lines.append(f"target = {args.target}")
    lines.append(f"ring = {_ring_desc(args.ring, spec)}")
    if isinstance(target, QuotientStack):
        value = _stack_count(target, spec, args.bound)
        lines.append(f"count = {_rat(value)}")
    else:
        value = scheme_count_at_level(target, spec, spec.n, args.bound)
        lines.append(f"count = {value}")
    return lines, EXIT_OK


def _cmd_series(args, project):
    target = project.target(args.target)
    spec = project.ring(args.ring)
    terms = args.terms or project.defaults.get("terms", 8)
    slack = args.slack or project.defaults.get("slack", 2)
    kind = {"tilde": "tilde", "p": "p", "q": "q"}[args.kind]
    tbl = series(target, spec, kind, terms, slack, args.bound)
    lines = _header("series")
    lines.append(f"target = {args.target}")
    lines.append(f"ring = {_ring_desc(args.ring, spec)}")
    lines.append(f"kind = {kind}")
    lines.append(f"terms = {terms}")
    lines.append(f"exact = {str(tbl.exact).lower()}")
    for i, c in enumerate(tbl.coefficients):
        lines.append(f"coeff[{i}] = {_rat(c)}")
    status = EXIT_OK
    if not tbl.exact:
        lower, upper = tbl.bounds()
        for i, (lo, up) in enumerate(zip(lower, upper)):
            if lo != up:
                lines.append(f"bounds[{i}] = {_rat(lo)} .. {_rat(up)}")
        status = EXIT_PARTIAL
    if args.fit:
        if not tbl.exact:
            lines.append("fit = skipped (coefficients are not exact)")
        else:
            try:
                fit = rational_fit(tbl.coefficients)
                lines.append(f"fit = {fit.to_text()}")
                lines.append(
                    "fit_numerator = "
                    + " ".join(_rat(c) for c in fit.numerator)
                )
                lines.append(
                    "fit_denominator = "
                    + " ".join(_rat(c) for c in fit.denominator)
                )
            except FitNotFound as exc:
                lines.append(f"fit = NOT_FOUND ({exc})")
                status = EXIT_PARTIAL
    return lines, status


def _cmd_measure(args, project):
    max_level = args.max_level or project.defaults.get("max_level", 6)
    slack = args.slack or project.defaults.get("slack", 2)
    lines = _header("measure")
    if args.set:
        if args.set in project.formulas:
            entry = project.formula(args.set)
            target = project.target(entry.target)
            formula, dim = entry.formula, entry.dim
            lines.append(f"formula = {args.set} ({entry.text})")
        else:
            if not args.target:
                raise ProjectError("--set with literal text needs --target")
            target = project.target(args.target)
            if isinstance(target, QuotientStack):
                raise UnsupportedStack("formula measures need a scheme target")
            formula = parse_formula(args.set, target.variables)
            dim = args.dim if args.dim is not None else target.dim
            lines.append(f"formula = (inline) {args.set}")
        if isinstance(target, QuotientStack):
            raise UnsupportedStack("formula measures need a scheme target")
        spec = project.ring(args.ring)
        lines.append(f"target = {target.name}")
        lines.append(f"ring = {_ring_desc(args.ring, spec)}")
        res = measure_formula(
            formula, target, dim, spec, max_level, slack, args.bound
        )
        for n, lo, up in zip(res.levels, res.lower, res.upper):
            lines.append(f"level[{n}] = {_rat(lo)} .. {_rat(up)}")
    else:
        target = project.target(args.target)
        spec = project.ring(args.ring)
        lines.append(f"target = {args.target}")
        lines.append(f"ring = {_ring_desc(args.ring, spec)}")
        res = padic_measure(target, spec, max_level, args.bound)
        for n, c in zip(res.levels, res.counts):
            lines.append(f"level[{n}] = {_rat(c)}")
    lines.append(f"status = {res.status}")
    if res.status == "STABILIZED":
        lines.append(f"stabilized_at = {res.stabilized_at}")
        lines.append(f"measure = {_rat(res.value)}")
        return lines, EXIT_OK
    lines.append("measure = PARTIAL")
    return lines, EXIT_PARTIAL


def _cmd_greenberg(args, project):
    target = project.scheme(args.target)
    spec = project.ring(args.ring)
    if spec.int_modulus is None:
        raise UnsupportedStack("digit expansion needs an unramified prime ring")
    level = args.level if args.level is not None else spec.n
    G = greenberg_transform(target, spec.p, level)
    expansion_count = G.count_points(args.bound)
    source_count = count_points_lifted(target, spec.p, level, args.bound)
    lines = _header("greenberg")
    lines.append(f"target = {args.target}")
    lines.append(f"p = {spec.p}")
    lines.append(f"level = {level}")
    lines.append(f"digit_variables = {' '.join(G.scheme.variables)}")
    lines.append(f"generators = {len(G.scheme.generators)}")
    lines.append(f"expansion_points = {expansion_count}")
    lines.append(f"source_points = {source_count}")
    lines.append(
        f"counts_match = {str(expansion_count == source_count).lower()}"
    )
    if args.emit_equations:
        lines.extend(G.emit_equations())
    return lines, EXIT_OK


def _cmd_singular(args, project):
    target = project.scheme(args.target)
    sing = singular_locus(target)
    lines = _header("singular")
    lines.append(f"target = {args.target}")
    lines.append(f"generators = {len(sing.generators)}")
    for i, g in enumerate(sing.generators):
        lines.append(f"gen[{i}] = {g.to_text()}")
    if args.ring:
        spec = project.ring(args.ring)
        cnt = scheme_count_at_level(sing, spec, spec.n, args.bound)
        lines.append(f"ring = {_ring_desc(args.ring, spec)}")
        lines.append(f"count = {cnt}")
    return lines, EXIT_OK


def _cmd_witt(args, _project):
    sp = structure_polynomials(args.p, args.length)
    lines = _header("witt")
    lines.append(f"p = {args.p}")
    lines.append(f"length = {args.length}")
    if args.emit_polys:
        for i in range(sp.length):
            for tag, poly in (("S", sp.add_modp[i]), ("P", sp.mul_modp[i])):
                lines.append(f"{tag}_{i} = {poly.to_text()}")
                terms = " ".join(
                    f"{expo}:{coeff}"
                    for expo, coeff in poly.sorted_terms()
                )
                lines.append(f"{tag}_{i} terms = {terms}")
    else:
        lines.append("emit_polys = false (pass --emit-polys for the laws)")
    return lines, EXIT_OK


def _cmd_stack_count(args, project):
    stack = project.stack(args.stack)
    lines = _header("stack-count")
    lines.append(f"stack = {args.stack}")
    if args.field:
        ring = _parse_field(args.field)
        lines.append(f"field = q={ring.size}")
    elif args.ring:
        ring = project.ring(args.ring)
        lines.append(f"ring = {_ring_desc(args.ring, ring)}")
    else:
        raise ProjectError("stack-count needs --field or --ring")
    lines.append(f"count = {_rat(_stack_count(stack, ring, args.bound))}")
    return lines, EXIT_OK


def _cmd_specialize(args, project):
    entry = project.formula(args.formula)
    target = project.target(entry.target)
    if isinstance(target, QuotientStack):
        raise UnsupportedStack("formula measures need a scheme target")
    primes = tuple(int(p) for p in args.primes.split(","))
    max_level = args.max_level or project.defaults.get("max_level", 6)
    verdicts = specialize_primes(
        entry.formula,
        target,
        entry.dim,
        primes,
        args.expect,
        bad_primes=entry.bad_primes,
        max_level=max_level,
        bound=args.bound,
    )
    lines = _header("specialize")
    lines.append(f"formula = {args.formula} ({entry.text})")
    lines.append(f"target = {entry.target}")
    lines.append(f"expect = {args.expect}")
    status = EXIT_OK
    for v in verdicts:
        measured = "-" if v.measured is None else _rat(v.measured)
        lines.append(
            f"prime[{v.prime}] = expected {_rat(v.expected)}, "
            f"measured {measured}, {v.status}"
        )
        if v.status == "INCONCLUSIVE":
            status = EXIT_PARTIAL
    all_match = all(v.status == "MATCH" for v in verdicts)
    lines.append(f"all_match = {str(all_match).lower()}")
    return lines, status


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="padicstacks",
        description="exact point counts, digit expansions, p-adic measures "
        "and point-count series over truncated local rings",
    )
    parser.add_argument("--strict", action="store_true",
                        help="exit 4 on PARTIAL or inexact results")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, project=True, ring=False):
        if project:
            p.add_argument("--project", required=True, help="project file path")
        if ring:
            p.add_argument("--ring", required=True, help="ring name")
        p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("count", help="point count of a scheme or stack")
    common(p, ring=True)
    p.add_argument("--target", required=True)

    p = sub.add_parser("series", help="series of point counts, optionally fitted")
    common(p, ring=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kind", choices=("tilde", "p", "q"), default="tilde")
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--slack", type=int, default=None)
    p.add_argument("--fit", action="store_true")

    p = sub.add_parser("measure", help="stabilized normalized counts")
    common(p, ring=True)
    p.add_argument("--target", default=None)
    p.add_argument("--set", default=None,
                   help="formula name from the project, or literal text")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--slack", type=int, default=None)

    p = sub.add_parser("greenberg", help="digit expansion over F_p")
    common(p, ring=True)
    p.add_argument("--target", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--emit-equations", action="store_true")

    p = sub.add_parser("singular", help="singular locus presentation")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--ring", default=None)

    p = sub.add_parser("witt", help="structure polynomial laws")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--emit-polys", action="store_true")

    p = sub.add_parser("stack-count", help="weighted stack point count")
    common(p)
    p.add_argument("--stack", required=True)
    p.add_argument("--field", default=None, help="q=<prime power>")
    p.add_argument("--ring", default=None)

    p = sub.add_parser("specialize", help="one formula across several primes")
    common(p)
    p.add_argument("--formula", required=True)
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--expect", required=True,
                   help="rational expression in q, e.g. '2*(1-1/q)'")
    p.add_argument("--max-level", type=int, default=None)

    return parser


_COMMANDS = {
    "count": _cmd_count,
    "series": _cmd_series,
    "measure": _cmd_measure,
    "greenberg": _cmd_greenberg,
    "singular": _cmd_singular,
    "witt": _cmd_witt,
    "stack-count": _cmd_stack_count,
    "specialize": _cmd_specialize,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "bound", None) is not None and args.bound < 1:
        parser.error(f"--bound must be at least 1, got {args.bound}")
    try:
        project = None
        if getattr(args, "project", None):
            project = load_project(args.project)
            if args.bound is None:
                args.bound = project.defaults.get("bound")
        lines, status = _COMMANDS[args.command](args, project)
    except (ProjectError, FormulaSyntaxError, PolyParseError,
            RingConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROJECT
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (UnsupportedStack, FitNotFound, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROJECT
    sys.stdout.write("\n".join(lines) + "\n")
    if args.strict and status != EXIT_OK:
        return status
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
