"""Acceptance suite: one test per exit criterion, each printing a PASS
line with its headline numbers.  Runtime budgets are asserted where the
criterion states one."""

import hashlib
import itertools
import json
import pathlib
import random
import time
from collections import Counter
from fractions import Fraction

from padicstacks.cli import main as cli_main
from padicstacks.definable import measure_formula, specialize_primes
from padicstacks.greenberg import greenberg_transform
from padicstacks.measures import padic_measure, q_coefficient_check, rational_fit, series
from padicstacks.polyscheme import (
    AffineScheme,
    enumerate_points,
    enumerate_points_lifted,
    tau_point,
)
from padicstacks.rings import FiniteField, make_ring
from padicstacks.stacks import (
    GroupAction,
    QuotientStack,
    SpecialGroup,
    count_invertible_matrices,
    cyclic_group,
    fiber_decomposition_check,
    klein_four_group,
    stacky_count_finite,
    stacky_count_special,
    symmetric_group_3,
    weighted_subset_count,
)
from padicstacks.witt import (
    WittVector,
    frobenius_modp,
    ghost_components,
    verschiebung,
    witt_add_int,
    witt_mul_int,
    witt_mul_modp,
    witt_scalar_modp,
)

DEMO = str(pathlib.Path(__file__).parent / "data" / "demo.project")
DIGESTS = pathlib.Path(__file__).parent / "data" / "cli_digests.json"

A1 = AffineScheme.affine_space("A1", ("x",))
A2 = AffineScheme.affine_space("A2", ("x", "y"))
POINT = AffineScheme("pt", (), (), 0)
CONIC = AffineScheme.from_text("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1)


def scheme(name, variables, texts, dim):
    return AffineScheme.from_text(name, variables, texts, dim)


def brute_count_mod(X, m):
    return sum(
        1
        for pt in itertools.product(range(m), repeat=X.n_vars)
        if all(g.eval_int(pt, m) == 0 for g in X.generators)
    )


def test_criterion_1_witt_oracle_suite():
    start = time.monotonic()
    rng = random.Random(424242)
    pairs = 0
    for _ in range(1100):
        p = rng.choice((2, 3, 5))
        L = rng.randint(1, 4)
        a = tuple(rng.randint(-20, 20) for _ in range(L))
        b = tuple(rng.randint(-20, 20) for _ in range(L))
        ga, gb = ghost_components(a, p), ghost_components(b, p)
        assert ghost_components(witt_add_int(a, b, p), p) == tuple(
            x + y for x, y in zip(ga, gb)
        )
        assert ghost_components(witt_mul_int(a, b, p), p) == tuple(
            x * y for x, y in zip(ga, gb)
        )
        pairs += 1
    # exhaustive operator identities on W_3(F_2) and W_3(F_3)
    checked = 0
    for p in (2, 3):
        vectors = list(itertools.product(range(p), repeat=3))
        for a in vectors:
            pa = witt_scalar_modp(p, a, p)
            fa = frobenius_modp(a, p)
            assert verschiebung(fa) == pa  # VF = p
            assert frobenius_modp(verschiebung(a), p) == pa  # FV = p
            for b in vectors:
                lhs = witt_mul_modp(a, verschiebung(b), p)
                rhs = (0,) + witt_mul_modp(fa, b, p)[:2]
                assert lhs == rhs  # a V(b) = V(F(a) b)
                checked += 1
        for n, m in ((1, 1), (1, 2), (2, 1)):
            for a in vectors:
                for b in vectors:
                    va, vb = a, b
                    for _ in range(n):
                        va = verschiebung(va)
                    for _ in range(m):
                        vb = verschiebung(vb)
                    prod = witt_mul_modp(va, vb, p)
                    assert all(c == 0 for c in prod[: min(n + m, 3)])
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1 witt-oracles: PASS "
        f"({pairs} random ghost pairs, {checked} exhaustive V/F pairs, "
        f"{elapsed:.1f}s)"
    )


GR_BATTERY = [
    scheme("line", ("x", "y"), ["x + y - 1"], 1),
    scheme("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1),
    scheme("cusp", ("x", "y"), ["y^2 - x^3"], 1),
    scheme("hyper", ("x", "y"), ["x*y - 3"], 1),
    scheme("xx7", ("x",), ["x^2 - 7"], 0),
    scheme("fermat", ("x", "y", "z"), ["x^3 + y^3 + z^3"], 2),
]


def test_criterion_2_greenberg_equality():
    start = time.monotonic()
    seen = set()
    cases = 0
    for X in GR_BATTERY:
        for p in (2, 3, 5):
            for n in (0, 1, 2):
                if p ** (X.n_vars * (n + 1)) > 30_000:
                    continue
                G = greenberg_transform(X, p, n)
                m = p ** (n + 1)
                pts = G.enumerate_points()
                assert len(pts) == brute_count_mod(X, m), (X.name, p, n)
                # bijection through the digit coding, both directions
                decoded = sorted(G.decode_point(q) for q in pts)
                source = sorted(
                    pt
                    for pt in itertools.product(range(m), repeat=X.n_vars)
                    if all(g.eval_int(pt, m) == 0 for g in X.generators)
                )
                assert decoded == source, (X.name, p, n)
                expansion = set(pts)
                for pt in source:
                    assert G.encode_point(pt) in expansion
                seen.add((p, n))
                cases += 1
    assert seen == {(p, n) for p in (2, 3, 5) for n in (0, 1, 2)}
    # the pinned instance: x^2 - 7 over p = 3 at level 1 has 2 points
    G = greenberg_transform(scheme("xx7", ("x",), ["x^2 - 7"], 0), 3, 1)
    assert G.count_points() == 2
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 2 took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 2 greenberg-equality: PASS "
        f"({len(GR_BATTERY)} hypersurfaces, {cases} cases, {elapsed:.1f}s)"
    )


SMOOTH_BATTERY = [
    (A1, (2, 3, 5)),
    (A2, (2, 3)),
    (scheme("graph", ("x", "y"), ["y - x^2"], 1), (2, 3, 5)),
    (CONIC, (3, 5)),
    (scheme("plane", ("x", "y", "z"), ["x + y + z - 1"], 2), (2, 3)),
    (scheme("ell", ("x", "y"), ["y^2 - x^3 + x"], 1), (3, 5)),
]


def test_criterion_3_smooth_fiber_law():
    start = time.monotonic()
    fibers_checked = 0
    brute_checked = 0
    for X, primes in SMOOTH_BATTERY:
        for p in primes:
            for n in (0, 1, 2):
                hi = enumerate_points_lifted(X, p, n + 1)
                lo = set(enumerate_points_lifted(X, p, n))
                if p ** ((n + 2) * X.n_vars) <= 10_000:
                    # the lifted enumerator uses Hensel linearisation, so at
                    # the smallest sizes its output is checked against brute
                    # enumeration before the fibre law is read off it
                    ring = make_ring(p, n=n + 1)
                    assert hi == list(enumerate_points(X, ring)), (X.name, p, n)
                    brute_checked += 1
                fibers = Counter(tau_point(pt, p, n) for pt in hi)
                assert set(fibers) == lo, (X.name, p, n)  # smooth: every point lifts
                for base, size in fibers.items():
                    assert size == p**X.dim, (X.name, p, n, base)
                fibers_checked += len(fibers)
    assert brute_checked == 34
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 3 smooth-fiber-law: PASS "
        f"({fibers_checked} fibers, {brute_checked} cases brute-checked, "
        f"zero exceptions, {elapsed:.1f}s)"
    )


def test_criterion_4_stack_mass_formulas():
    zoo = {
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "Z4": cyclic_group(4),
        "Klein": klein_four_group(),
        "S3": symmetric_group_3(),
    }
    for name, group in zoo.items():
        for q in (5, 7):
            assert q % group.order != 0
            value = stacky_count_finite(GroupAction(group, POINT), FiniteField(q))
            assert value == 1, (name, q)
    bgm = GroupAction(SpecialGroup("Gm"), POINT)
    assert stacky_count_special(bgm, FiniteField(5)) == Fraction(1, 4)
    assert count_invertible_matrices(2, FiniteField(3)) == 48
    assert SpecialGroup("GL", 2).size_over(FiniteField(3)) == 48
    # fiber decomposition on every enumerated quotient instance
    from padicstacks.polyscheme import parse_poly

    pm = AffineScheme.from_text("pm", ("x",), ["x^2 - 1"], 0)
    negation = GroupAction(
        cyclic_group(2),
        pm,
        {
            "g0": (parse_poly("x", ("x",)),),
            "g1": (parse_poly("-x", ("x",)),),
        },
    )
    swap = GroupAction(
        cyclic_group(2),
        A2,
        {
            "g0": (parse_poly("x", ("x", "y")), parse_poly("y", ("x", "y"))),
            "g1": (parse_poly("y", ("x", "y")), parse_poly("x", ("x", "y"))),
        },
    )
    instances = [
        (GroupAction(cyclic_group(1), CONIC), FiniteField(5)),
        (negation, FiniteField(5)),
        (GroupAction(cyclic_group(2), POINT), FiniteField(5)),
        (GroupAction(zoo["S3"], POINT), FiniteField(7)),
        (GroupAction(zoo["Klein"], POINT), FiniteField(5)),
        (swap, FiniteField(3)),
    ]
    verdicts = 0
    for action, fld in instances:
        results, ok = fiber_decomposition_check(action, fld)
        assert ok
        verdicts += len(results)
    print(
        f"ACCEPTANCE 4 stack-mass-formulas: PASS "
        f"(zoo x q in {{5,7}}, BGm(F_5)=1/4, |GL2(F_3)|=48, "
        f"{verdicts} fiber verdicts)"
    )


def test_criterion_5_measures():
    start = time.monotonic()
    res = padic_measure(A1, make_ring(3), max_level=3)
    assert res.status == "STABILIZED" and res.value == 1 and res.stabilized_at == 0
    for p in (3, 5):
        X = scheme("xyp", ("x", "y"), [f"x*y - {p}"], 1)
        res = padic_measure(X, make_ring(p), max_level=3)
        assert res.status == "STABILIZED"
        assert res.value == 2 * (1 - Fraction(1, p))
    for p in (3, 5):
        bgm = QuotientStack("BGm", GroupAction(SpecialGroup("Gm"), POINT))
        res = padic_measure(bgm, make_ring(p), max_level=3)
        assert res.status == "STABILIZED"
        assert res.value == Fraction(1, p - 1)
        assert res.counts == [Fraction(1, p - 1)] * 4  # constant across 0..3
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 5 took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 5 measures: PASS "
        f"(mu(A1)=1 at level 0, mu(xy=p)=2(1-1/p), mu(BGm)=1/(p-1), "
        f"{elapsed:.1f}s)"
    )


def test_criterion_6_series_rationality():
    # geometric laws for affine space, at several dimensions and primes
    for d, p in ((1, 2), (1, 3), (1, 5), (2, 3), (3, 3)):
        X = AffineScheme.affine_space(
            f"A{d}", tuple(f"x{i}" for i in range(d))
        )
        tbl = series(X, make_ring(p), "tilde", terms=8)
        fit = rational_fit(tbl.coefficients)
        assert fit.numerator == (1,)
        assert fit.denominator == (1, -(p**d))
        assert fit.expand(10) == [Fraction(p ** (d * n)) for n in range(10)]
    # smooth conic: 1 + 4T/(1 - 5T), with two held-out terms checked
    # against an independently computed longer series
    long_tbl = series(CONIC, make_ring(5), "tilde", terms=10)
    fit = rational_fit(long_tbl.coefficients[:8])
    assert fit.numerator == (1, -1) and fit.denominator == (1, -5)
    assert fit.expand(10) == long_tbl.coefficients
    # Q-coefficient identity, exact on the stated battery
    checks = 0
    for X, p, level in (
        (A1, 3, 0),
        (A1, 3, 1),
        (CONIC, 5, 1),
        (scheme("xy3", ("x", "y"), ["x*y - 3"], 1), 3, 1),
        (scheme("xy3", ("x", "y"), ["x*y - 3"], 1), 3, 2),
        (scheme("xy5", ("x", "y"), ["x*y - 5"], 1), 5, 1),
    ):
        lhs, rhs, ok = q_coefficient_check(X, make_ring(p), level, max_level=4)
        assert ok, (X.name, p, level, lhs, rhs)
        checks += 1
    print(
        f"ACCEPTANCE 6 series-rationality: PASS "
        f"(A^d and conic fits with 2 held-out terms, {checks} Q-identity checks)"
    )


def test_criterion_7_definable_specialization():
    for p in (3, 5, 7):
        res = measure_formula("ord(x) >= 1", A1, 1, make_ring(p), max_level=3)
        assert res.status == "STABILIZED" and res.value == Fraction(1, p)
    res = measure_formula(
        "ord(x) mod 2 == 0 && ord(x) <= 4 && ac(x) == 1",
        A1,
        1,
        make_ring(3),
        max_level=6,
    )
    assert res.status == "STABILIZED" and res.value == Fraction(91, 243)
    verdicts = specialize_primes(
        "ord(x*y - t) == INFINITY", A2, 1, (3, 5), "2*(1 - 1/q)", max_level=3
    )
    assert [v.status for v in verdicts] == ["MATCH", "MATCH"]
    control = specialize_primes(
        "ord(x*y - t) == INFINITY", A2, 1, (3, 5), "1/q^2", max_level=3
    )
    assert [v.status for v in control] == ["MISMATCH", "MISMATCH"]
    print(
        "ACCEPTANCE 7 definable-specialization: PASS "
        "(1/p at p in {3,5,7}, 91/243 at p=3, xy=t matches 2(1-1/q), "
        "negative control rejected)"
    )


def test_criterion_8_determinism(capsys):
    # exit codes and stdout digests pinned in tests/data/cli_digests.json,
    # keyed by the argv with the demo project path written "demo.project"
    pinned = json.loads(DIGESTS.read_text())
    commands = [
        ["count", "--project", DEMO, "--target", "X_conic", "--ring", "p5n0"],
        ["count", "--project", DEMO, "--target", "X_conic", "--ring", "ram3"],
        ["count", "--project", DEMO, "--target", "X_conic", "--ring", "p5n3",
         "--bound", "100"],
        ["series", "--project", DEMO, "--target", "A1", "--ring", "p3n0",
         "--terms", "8", "--fit"],
        ["series", "--project", DEMO, "--target", "BGm", "--ring", "p5n0",
         "--terms", "6", "--fit"],
        ["measure", "--project", DEMO, "--ring", "p3n0", "--target", "xy3",
         "--max-level", "4"],
        ["measure", "--project", DEMO, "--ring", "p3n0", "--set", "even_ord_unit",
         "--max-level", "6"],
        ["greenberg", "--project", DEMO, "--target", "X_conic", "--ring", "p3n2",
         "--level", "1", "--emit-equations"],
        ["singular", "--project", DEMO, "--target", "cusp", "--ring", "p5n0"],
        ["witt", "--p", "3", "--length", "3", "--emit-polys"],
        ["stack-count", "--project", DEMO, "--stack", "BS3", "--field", "q=5"],
        ["stack-count", "--project", DEMO, "--stack", "BGL2", "--field", "q=3"],
        ["specialize", "--project", DEMO, "--formula", "xy_t", "--primes", "3,5",
         "--expect", "2*(1-1/q)", "--max-level", "3"],
    ]
    assert len(pinned) == len(commands)
    first_pass = []
    for argv in commands:
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        key = " ".join("demo.project" if a == DEMO else a for a in argv)
        assert code == pinned[key]["exit"], argv
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == pinned[key]["stdout_sha256"], f"report drift for {argv}"
        first_pass.append((code, out))
    for argv, expected in zip(commands, first_pass):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert (code, out) == expected, f"report drift for {argv}"
    print(
        f"ACCEPTANCE 8 determinism: PASS "
        f"({len(commands)} commands, exit codes and reports match the pinned "
        f"digests and repeat byte for byte)"
    )
