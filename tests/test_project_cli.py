import hashlib
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cli_sweep
import mutants
from padicstacks.cli import main
from padicstacks.polyscheme import AffineScheme, parse_poly
from padicstacks.project import ProjectError, load_project
from padicstacks.rings import FiniteField, RingConstructionError, make_ring
from padicstacks.stacks import (
    FiniteGroupData,
    GroupAction,
    GroupDataError,
    QuotientStack,
    SpecialGroup,
)

DEMO = str(pathlib.Path(__file__).parent / "data" / "demo.project")


# ---------------------------------------------------------------------------
# project loading


def test_load_demo_project():
    proj = load_project(DEMO)
    assert proj.ring("p3n2").size == 27
    assert proj.ring("ram3").size == 81
    assert proj.scheme("X_conic").dim == 1
    assert proj.groups["S3"].order == 6
    assert isinstance(proj.groups["Gm"], SpecialGroup)
    assert isinstance(proj.stack("BS3"), QuotientStack)
    assert proj.stack("BGm").dim == -1
    assert proj.formula("ord_ge_1").bad_primes == (2,)
    assert proj.defaults["max_level"] == 4


def test_unresolved_reference(tmp_path):
    bad = tmp_path / "bad.project"
    bad.write_text("[action a]\ngroup = nope\nscheme = nope\n")
    with pytest.raises(ProjectError):
        load_project(bad)


def test_bad_ring_parameters(tmp_path):
    bad = tmp_path / "bad.project"
    bad.write_text("[ring r]\np = 4\n")
    with pytest.raises(ProjectError):
        load_project(bad)


def test_bad_formula_reported_with_section(tmp_path):
    bad = tmp_path / "bad.project"
    bad.write_text(
        "[scheme A1]\nvars = x\n\n[formula f]\ntarget = A1\ntext = ord(y) >= 1\n"
    )
    with pytest.raises(ProjectError) as err:
        load_project(bad)
    assert "formula f" in str(err.value)


def test_formula_on_stack_target_rejected_at_load(tmp_path, capsys):
    bad = tmp_path / "bad.project"
    bad.write_text(
        "[ring r]\np = 3\n\n[scheme pt]\nvars =\ndim = 0\n\n"
        "[group Gm]\nspecial = Gm\n\n[stack BGm]\ngroup = Gm\nscheme = pt\n\n"
        "[formula f]\ntarget = BGm\ntext = 0 == 0\n"
    )
    with pytest.raises(ProjectError) as err:
        load_project(bad)
    assert "formula f" in str(err.value)
    argv = ["count", "--project", str(bad), "--target", "pt", "--ring", "r"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


@pytest.mark.parametrize(
    "text, message",
    [("[ring r]\np = 3\ne = 2\neisenstein = -3, x\n",
      "[ring r] invalid literal for int() with base 10: 'x'"),
     ("[ring r]\np = 3\nr = 2\nresidue_modulus = 2, a, 1\n",
      "[ring r] invalid literal for int() with base 10: 'a'"),
     ("[scheme A1]\nvars = x\n\n[formula f]\ntarget = A1\n"
      "text = ord(x) >= 1\nbad_primes = 2, z\n",
      "[formula f] invalid literal for int() with base 10: 'z'")],
    ids=["eisenstein", "residue_modulus", "bad_primes"],
)
def test_bad_integer_list_names_its_section(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.project"
    bad.write_text(text)
    assert main(["count", "--project", str(bad), "--target", "A1",
                 "--ring", "r"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_inline_stack_action_error_names_the_stack(tmp_path, capsys):
    bad = tmp_path / "bad.project"
    bad.write_text("[scheme A2]\nvars = x, y\n\n[group Gm]\nspecial = Gm\n\n"
                   "[stack X]\ngroup = Gm\nscheme = A2\npolys = lam*x\n")
    assert main(["count", "--project", str(bad), "--target", "X",
                 "--ring", "r"]) == 2
    assert capsys.readouterr().err == (
        "error: [stack X] needs one polynomial per scheme variable\n")


def test_duplicate_section_rejected(tmp_path):
    bad = tmp_path / "bad.project"
    bad.write_text("[ring r]\np = 3\n\n[ring  r]\np = 5\n")
    with pytest.raises(ProjectError):
        load_project(bad)


# ---------------------------------------------------------------------------
# CLI commands


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_count_conic(capsys):
    code, out = run(
        capsys, "count", "--project", DEMO, "--target", "X_conic", "--ring", "p5n0"
    )
    assert code == 0
    assert "count = 4" in out


def test_cli_count_stack(capsys):
    code, out = run(
        capsys, "stack-count", "--project", DEMO, "--stack", "BS3", "--field", "q=5"
    )
    assert code == 0
    assert "count = 1/1" in out


def test_cli_stack_count_gm_on_ring(capsys):
    code, out = run(
        capsys, "stack-count", "--project", DEMO, "--stack", "BGm", "--ring", "p5n0"
    )
    assert code == 0
    assert "count = 1/4" in out


@pytest.mark.parametrize(
    "stack, ring, count",
    [("BGm", "p5n0", "1/4"), ("A1_mod_Gm", "p3n2", "3/2")],
)
def test_cli_count_of_stack_matches_stack_count(capsys, stack, ring, count):
    code, out = run(capsys, "count", "--project", DEMO, "--target", stack,
                    "--ring", ring)
    assert code == 0
    assert f"count = {count}\n" in out
    code, twin = run(capsys, "stack-count", "--project", DEMO, "--stack", stack,
                     "--ring", ring)
    assert code == 0
    assert twin.splitlines()[-1] == out.splitlines()[-1]


def test_cli_series_fit(capsys):
    code, out = run(
        capsys,
        "series",
        "--project",
        DEMO,
        "--target",
        "A1",
        "--ring",
        "p3n0",
        "--kind",
        "tilde",
        "--terms",
        "8",
        "--fit",
    )
    assert code == 0
    assert "fit = 1/(1 - 3T)" in out


def test_cli_strict_fit_not_found_exits_4(capsys):
    # the coefficients are exact; five terms fit no recurrence
    code, out = run(capsys, "--strict", "series", "--project", DEMO, "--target", "cusp",
                    "--ring", "p5n0", "--kind", "p", "--terms", "5", "--fit")
    assert code == 4
    assert "exact = true\n" in out
    assert out.splitlines()[-1] == ("fit = NOT_FOUND (no linear recurrence of order <= 1 "
                                    "matches; raise the number of terms)")


def test_cli_measure_formula(capsys):
    code, out = run(
        capsys,
        "measure",
        "--project",
        DEMO,
        "--ring",
        "p3n0",
        "--set",
        "ord_ge_1",
        "--max-level",
        "3",
    )
    assert code == 0
    assert "measure = 1/3" in out
    assert "status = STABILIZED" in out


def test_cli_measure_target(capsys):
    code, out = run(
        capsys,
        "measure",
        "--project",
        DEMO,
        "--ring",
        "p3n0",
        "--target",
        "xy3",
        "--max-level",
        "4",
    )
    assert code == 0
    assert "measure = 4/3" in out


def test_cli_greenberg(capsys):
    code, out = run(
        capsys,
        "greenberg",
        "--project",
        DEMO,
        "--target",
        "X_conic",
        "--ring",
        "p3n2",
        "--level",
        "1",
        "--emit-equations",
    )
    assert code == 0
    assert "counts_match = true" in out
    assert "gen[0] =" in out


class _ExactExpansion(Exception):
    pass


def _no_exact_expansion(*args, **kwargs):
    raise _ExactExpansion


@pytest.mark.parametrize(
    "level, tail, digest",
    [
        ("2", ["digit_variables = x_0 x_1 x_2 y_0 y_1 y_2", "generators = 3",
               "expansion_points = 36", "source_points = 36"],
         "352479295daf9cc448011dcb02510651bbf3514c7b56957b12d3e97baef08dea"),
        ("3", ["digit_variables = x_0 x_1 x_2 x_3 y_0 y_1 y_2 y_3", "generators = 4",
               "expansion_points = 108", "source_points = 108"],
         "fbafd2c71d42bed13089cda0a9d1de7fa3c0025ac5400d8d3c6e29436790a0bb"),
    ],
)
def test_cli_greenberg_counts_without_exact_components(capsys, monkeypatch, level, tail,
                                                        digest):
    # the report reads the digit names and the generator count from the
    # source and counts on the folded components, so it stays as pinned
    # when the exact expansion cannot run; only --emit-equations reaches it
    import padicstacks.greenberg as greenberg

    monkeypatch.setattr(greenberg, "expand_poly", _no_exact_expansion)
    argv = ["greenberg", "--project", DEMO, "--target", "X_conic", "--ring", "p3n2",
            "--level", level]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-5:] == tail + ["counts_match = true"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    with pytest.raises(_ExactExpansion):
        main(argv + ["--emit-equations"])


def test_cli_singular(capsys):
    code, out = run(
        capsys,
        "singular",
        "--project",
        DEMO,
        "--target",
        "cusp",
        "--ring",
        "p5n0",
    )
    assert code == 0
    assert "count = 1" in out


def test_cli_witt_polys(capsys):
    code, out = run(capsys, "witt", "--p", "2", "--length", "2", "--emit-polys")
    assert code == 0
    assert "S_1 = x_0*y_0 + x_1 + y_1" in out or "S_1 = x_1 + y_1 + x_0*y_0" in out


def _no_laws(*args, **kwargs):
    raise AssertionError("structure polynomials built")


def test_cli_witt_builds_laws_only_to_emit_them(capsys, monkeypatch):
    # without --emit-polys the report prints no law, so it builds none;
    # building the laws for p = 7, length 4 did not finish in 300 s on a
    # 2-core Xeon
    import padicstacks.witt as witt

    monkeypatch.setattr(witt, "_structure_cache", {})
    monkeypatch.setattr(witt, "StructurePolys", _no_laws)
    code, out = run(capsys, "witt", "--p", "7", "--length", "4")
    assert code == 0
    assert out.splitlines()[-3:] == [
        "p = 7", "length = 4", "emit_polys = false (pass --emit-polys for the laws)"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cd3794fe87156645613f73bf3c601be28a8d7a7ce860c9fb7302a4696a90c691")
    with pytest.raises(AssertionError, match="structure polynomials built"):
        main(["witt", "--p", "7", "--length", "4", "--emit-polys"])


def test_cli_specialize(capsys):
    code, out = run(
        capsys,
        "specialize",
        "--project",
        DEMO,
        "--formula",
        "xy_t",
        "--primes",
        "3,5",
        "--expect",
        "2*(1-1/q)",
        "--max-level",
        "3",
    )
    assert code == 0
    assert "all_match = true" in out


def test_cli_specialize_negative_control(capsys):
    code, out = run(
        capsys,
        "specialize",
        "--project",
        DEMO,
        "--formula",
        "xy_t",
        "--primes",
        "3,5",
        "--expect",
        "1/q^2",
        "--max-level",
        "3",
    )
    assert code == 0
    assert "all_match = false" in out
    assert out.count("MISMATCH") == 2


def test_cli_specialize_too_shallow_is_inconclusive(capsys):
    # at max level 1 neither prime's measure of xy_t stabilizes
    argv = ["specialize", "--project", DEMO, "--formula", "xy_t", "--primes", "3,5",
            "--expect", "2*(1-1/q)", "--max-level", "1"]
    code, out = run(capsys, "--strict", *argv)
    assert code == 4
    assert "prime[3] = expected 4/3, measured -, INCONCLUSIVE\n" in out
    assert "prime[5] = expected 8/5, measured -, INCONCLUSIVE\n" in out
    assert out.endswith("all_match = false\n")
    code, plain = run(capsys, *argv)
    assert code == 0
    assert plain == out


def test_cli_exit_code_project_error(capsys):
    code = main(
        ["count", "--project", "/nonexistent.project", "--target", "x", "--ring", "r"]
    )
    assert code == 2


def test_cli_exit_code_bound(capsys):
    code = main(
        [
            "count",
            "--project",
            DEMO,
            "--target",
            "X_conic",
            "--ring",
            "p5n3",
            "--bound",
            "100",
        ]
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["witt", "--p", "3", "--length", "7"], 5),
        (["greenberg", "--project", DEMO, "--target", "X_conic",
          "--ring", "p3n2", "--level", "9"], 5),
    ],
)
def test_cli_length_limits_exit_3(capsys, argv, bound):
    assert main(argv) == 3
    assert f"exceeds bound {bound}\n" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("called after a refusal")


def test_cli_greenberg_reads_bound_before_expanding(capsys, monkeypatch):
    import padicstacks.cli as cli

    monkeypatch.setattr(cli, "greenberg_transform", _must_not_run)
    argv = ["greenberg", "--project", DEMO, "--target", "cusp", "--ring", "p5n0",
            "--level", "3", "--bound", "100"]
    assert main(argv) == 3
    assert "bound 100\n" in capsys.readouterr().err


def test_cli_greenberg_refuses_length_before_counting(capsys, monkeypatch):
    import padicstacks.cli as cli

    monkeypatch.setattr(cli, "count_points", _must_not_run)
    argv = ["greenberg", "--project", DEMO, "--target", "X_conic", "--ring", "p3n2",
            "--level", "9"]
    assert main(argv) == 3
    assert "digit length 10 exceeds bound 5\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stack-count", "--project", DEMO, "--stack", "BS3", "--field", "q=1"],
         "1 is not a prime power"),
        (["stack-count", "--project", DEMO, "--stack", "BS3", "--field", "q=0"],
         "0 is not a prime power"),
        (["witt", "--p", "4", "--length", "2"], "4 is not prime"),
        (["witt", "--p", "1", "--length", "2"], "1 is not prime"),
        (["specialize", "--project", DEMO, "--formula", "xy_t", "--primes", "3",
          "--expect", "1/0", "--max-level", "1"], "expression undefined at q=3"),
        (["specialize", "--project", DEMO, "--formula", "ord_ge_1", "--primes", "0",
          "--expect", "1/q"], "0 is not prime"),
        (["specialize", "--project", DEMO, "--formula", "ord_ge_1", "--primes", "3,4",
          "--expect", "1/(q-4)"], "4 is not prime"),
        (["stack-count", "--project", DEMO, "--stack", "BS3", "--field", "x=25"],
         "field spec must be q=<prime power>, got 'x=25'"),
        (["stack-count", "--project", DEMO, "--stack", "BS3", "--field", "q=12"],
         "12 is not a prime power"),
        (["stack-count", "--project", DEMO, "--stack", "BS3"],
         "stack-count needs --field or --ring"),
        (["measure", "--project", DEMO, "--ring", "p3n0", "--set", "ord(x) >= 1"],
         "--set with literal text needs --target"),
        (["measure", "--project", DEMO, "--ring", "p3n0", "--set", "ord(x) >= 1",
          "--target", "BS3"], "formula measures need a scheme target"),
        (["greenberg", "--project", DEMO, "--target", "cusp", "--ring", "ram3"],
         "digit expansion needs an unramified prime ring"),
        (["count", "--project", DEMO, "--target", "nope", "--ring", "p3n0"],
         "no scheme or stack named 'nope'"),
        (["specialize", "--project", DEMO, "--formula", "ord_ge_1", "--primes", "3,3",
          "--expect", "1/q"], "prime 3 is listed twice"),
    ],
)
def test_cli_bad_input_exits_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


PRELUDE = ("[ring r]\np = 3\n\n[scheme A1]\nvars = x\n\n"
           "[group Z2]\nelements = e, s\ntable =\n    e s\n    s e\n\n")


@pytest.mark.parametrize(
    "text, message",
    [pytest.param("[ring q]\nn = 2\n", "[ring q] is missing 'p'", id="ring-no-p"),
     pytest.param("[ring q]\np = 3\nn = two\n", "[ring q] n must be an integer",
                  id="ring-non-integer"),
     pytest.param("[scheme S]\ngens = x\n", "[scheme S] is missing 'vars'", id="scheme-no-vars"),
     pytest.param("[group G]\nspecial = SL2\n", "[group G] unknown special tag 'SL2'",
                  id="group-special-tag"),
     pytest.param("[group G]\nelements = e\n", "[group G] needs 'elements' and 'table'",
                  id="group-no-table"),
     pytest.param("[action a]\ngroup = Z2\n", "[action a] is missing 'scheme'",
                  id="action-missing-key"),
     pytest.param("[action a]\ngroup = Z2\nscheme = B\n",
                  "[action a] references unknown scheme 'B'", id="action-unknown-scheme"),
     pytest.param("[stack X]\naction = b\n", "[stack X] references unknown action 'b'",
                  id="stack-unknown-action"),
     pytest.param("[stack X]\ngroup = Z2\n",
                  "[stack X] needs 'action' or a 'group'/'scheme' pair", id="stack-no-form"),
     pytest.param("[formula f]\ntarget = A1\n", "[formula f] is missing 'text'",
                  id="formula-no-text"),
     pytest.param("[formula f]\ntarget = B\ntext = ord(x) >= 1\n",
                  "[formula f] references unknown target 'B'", id="formula-unknown-target"),
     pytest.param("[rings r2]\np = 3\n",
                  "section [rings r2] is not 'defaults' or '<kind> <name>' with kind in "
                  "['action', 'formula', 'group', 'ring', 'scheme', 'stack']", id="bad-header"),
     # a key no loader reads, misspelled or misplaced, is refused, not dropped
     pytest.param("[ring q]\np = 3\nlevel = 2\n", "[ring q] unknown key 'level'",
                  id="ring-unknown-key"),
     pytest.param("[scheme conic]\nvars = x, y\ngen = x^2 + y^2 - 1\n",
                  "[scheme conic] unknown key 'gen'", id="scheme-unknown-key"),
     pytest.param("[group G]\nelements = e\ntable = e\norder = 1\n",
                  "[group G] unknown key 'order'", id="group-unknown-key"),
     pytest.param("[group G]\nspecial = Gm\ntable = e\n", "[group G] unknown key 'table'",
                  id="special-group-unknown-key"),
     pytest.param("[action a]\ngroup = Z2\nscheme = A1\nt = -x\n",
                  "[action a] unknown key 't'", id="action-unknown-label"),
     pytest.param("[group Gm]\nspecial = Gm\n\n[action a]\ngroup = Gm\nscheme = A1\n"
                  "poly = lam*x\n", "[action a] unknown key 'poly'",
                  id="special-action-unknown-key"),
     pytest.param("[action a]\ngroup = Z2\nscheme = A1\n\n[stack X]\naction = a\n"
                  "scheme = A1\n", "[stack X] unknown key 'scheme'", id="stack-unknown-key"),
     pytest.param("[stack X]\ngroup = Z2\nscheme = A1\ns = -x\nt = x\n",
                  "[stack X] unknown key 't'", id="inline-stack-unknown-label"),
     pytest.param("[formula f]\ntarget = A1\ntext = ord(x) >= 1\nbad_prime = 2\n",
                  "[formula f] unknown key 'bad_prime'", id="formula-unknown-key"),
     pytest.param("[defaults]\nmax_levle = 2\n", "[defaults] unknown key 'max_levle'",
                  id="defaults-unknown-key")],
)
def test_malformed_project_section_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.project"
    bad.write_text(PRELUDE + text)
    with pytest.raises(ProjectError, match=f"^{re.escape(message)}$"):
        load_project(bad)
    assert main(["count", "--project", str(bad), "--target", "A1", "--ring", "r"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


A1_SCHEME = AffineScheme.affine_space("A1", ("x",))
NOT_ASSOCIATIVE = ["e a b".split(), "a e a".split(), "b a e".split()]


@pytest.mark.parametrize(
    "text, message, call, error",
    [pytest.param("[ring q]\np = 3\ne = 0\n", "ramification index must be >= 1",
                  lambda: make_ring(3, e=0), RingConstructionError, id="ring-e"),
     pytest.param("[ring q]\np = 3\nn = -1\n", "level must be >= 0",
                  lambda: make_ring(3, n=-1), RingConstructionError, id="ring-n"),
     pytest.param("[ring q]\np = 3\nr = 0\n", "residue degree must be >= 1",
                  lambda: make_ring(3, r=0), RingConstructionError, id="ring-r"),
     pytest.param("[ring q]\np = 3\ne = 2\n",
                  "Eisenstein coefficients c_0..c_(e-1) required when e > 1",
                  lambda: make_ring(3, e=2), RingConstructionError, id="ring-eisenstein"),
     pytest.param("[ring q]\np = 3\nr = 2\nresidue_modulus = 1, 1\n",
                  "modulus must be monic of the stated degree",
                  lambda: FiniteField(3, 2, (1, 1)), RingConstructionError,
                  id="field-modulus"),
     pytest.param("[group G]\nelements = e, e\ntable =\n    e e\n    e e\n",
                  "duplicate element labels",
                  lambda: FiniteGroupData(["e", "e"], [["e", "e"], ["e", "e"]]),
                  GroupDataError, id="group-duplicate"),
     pytest.param("[group G]\nelements = e, s\ntable =\n    e s\n    s\n",
                  "table row of wrong length",
                  lambda: FiniteGroupData(["e", "s"], [["e", "s"], ["s"]]),
                  GroupDataError, id="group-short-row"),
     pytest.param("[group G]\nelements = e, s\ntable =\n    e s\n    s u\n",
                  "table entry 'u' is not an element",
                  lambda: FiniteGroupData(["e", "s"], [["e", "s"], ["s", "u"]]),
                  GroupDataError, id="group-unknown-entry"),
     pytest.param("[group G]\nelements = e, a, b\ntable =\n    e a b\n    a e a\n    b a e\n",
                  "multiplication is not associative",
                  lambda: FiniteGroupData(["e", "a", "b"], NOT_ASSOCIATIVE),
                  GroupDataError, id="group-not-associative"),
     pytest.param("[group G]\nelements = e, a, b\ntable =\n    e a b\n    a b e\n",
                  "table has 2 rows for 3 elements",
                  lambda: FiniteGroupData(["e", "a", "b"], [["e", "a", "b"], ["a", "b", "e"]]),
                  GroupDataError, id="group-missing-row"),
     pytest.param("[group G]\nelements = e, s\ntable =\n    e s\n    s e\n    e s\n",
                  "table has 3 rows for 2 elements",
                  lambda: FiniteGroupData(["e", "s"], [["e", "s"], ["s", "e"], ["e", "s"]]),
                  GroupDataError, id="group-extra-row"),
     pytest.param("[group Gm]\nspecial = Gm\n\n[action a]\ngroup = Gm\nscheme = A1\n"
                  "polys = 2*lam*x\n", "identity coordinates must act trivially",
                  lambda: GroupAction(SpecialGroup("Gm"), A1_SCHEME,
                                      (parse_poly("2*lam*x", ("x", "lam")),)),
                  ValueError, id="action-identity-moves"),
     pytest.param(None, "special action polynomials must use scheme + group coordinates",
                  lambda: GroupAction(SpecialGroup("Gm"), A1_SCHEME, (parse_poly("x", ("x",)),)),
                  ValueError, id="action-variables")],
)
def test_construction_refusals(tmp_path, capsys, text, message, call, error):
    # each refusal of a ring, field, group or action constructor: from a
    # project file it exits 2 naming the section, and from the library it
    # raises its own type (a special action read from a project file always
    # uses the scheme and group coordinates, so that check is library-only)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
    if text is not None:
        bad = tmp_path / "bad.project"
        bad.write_text(PRELUDE + text)
        assert main(["count", "--project", str(bad), "--target", "A1", "--ring", "r"]) == 2
        section = re.findall(r"^\[(.*)\]$", text, re.M)[-1]  # the snippet's last
        assert capsys.readouterr().err == f"error: [{section}] {message}\n"


FINITE_GROUP = "series of finite-group quotients at positive level are unsupported"
PRIME_RING = "lift-certified series need an unramified prime ring"


@pytest.mark.parametrize(
    "stack, ring, kind, message",
    [pytest.param("BS3", "p3n0", "tilde", FINITE_GROUP, id="BS3-tilde"),
     pytest.param("pm1_mod_Z2", "p3n0", "p", FINITE_GROUP, id="pm1_mod_Z2-p"),
     pytest.param("pm1_mod_Z2", "p3n0", "q", FINITE_GROUP, id="pm1_mod_Z2-q"),
     # lift-certified kinds refuse a ring that is not Z/p^(n+1) first
     pytest.param("BS3", "ram3", "p", PRIME_RING, id="BS3-ram3-p"),
     pytest.param("BS3", "ram3", "q", PRIME_RING, id="BS3-ram3-q"),
     pytest.param("pm1_mod_Z2", "ram3", "p", PRIME_RING, id="pm1_mod_Z2-ram3-p"),
     pytest.param("pm1_mod_Z2", "ram3", "q", PRIME_RING, id="pm1_mod_Z2-ram3-q")],
)
def test_cli_series_of_finite_group_stack_exits_2(capsys, stack, ring, kind, message):
    argv = ["series", "--project", DEMO, "--target", stack, "--ring", ring,
            "--kind", kind, "--terms", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_bound_below_one_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--project", DEMO, "--target", "X_conic",
              "--ring", "p5n0", "--bound", value])
    assert exc.value.code == 2
    assert "--bound must be at least 1" in capsys.readouterr().err


def test_project_bound_below_one_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.project"
    bad.write_text("[defaults]\nbound = 0\n\n[ring r]\np = 3\n")
    with pytest.raises(ProjectError, match="bound must be at least 1"):
        load_project(bad)
    assert main(["count", "--project", str(bad), "--target", "x",
                 "--ring", "r"]) == 2


@pytest.mark.parametrize(
    "argv, flag, value, least",
    [
        (["series", "--project", DEMO, "--target", "A1", "--ring", "p3n0"],
         "--terms", "0", 1),
        (["series", "--project", DEMO, "--target", "A1", "--ring", "p3n0"],
         "--terms", "-3", 1),
        (["series", "--project", DEMO, "--target", "A1", "--ring", "p3n0",
          "--kind", "p"], "--slack", "-1", 0),
        (["measure", "--project", DEMO, "--target", "xy3", "--ring", "p3n0"],
         "--max-level", "-1", 0),
        (["greenberg", "--project", DEMO, "--target", "X_conic", "--ring", "p3n2"],
         "--level", "-1", 0),
        (["measure", "--project", DEMO, "--ring", "p3n0", "--target", "A1",
          "--set", "ord(x) >= 1"], "--dim", "-1", 0),
    ],
)
def test_cli_numeric_option_below_minimum_is_a_usage_error(
        capsys, argv, flag, value, least):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be at least {least}, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["0", "-2"])
def test_cli_witt_length_below_one_exits_2(capsys, length):
    assert main(["witt", "--p", "3", "--length", length]) == 2
    assert capsys.readouterr().err == (
        f"error: Witt length must be at least 1, got {length}\n")


def test_cli_zero_is_a_value_not_a_fallback(capsys):
    # --max-level 0 measures level 0 only; it used to fall back to the
    # project's max_level = 4
    code, out = run(capsys, "measure", "--project", DEMO, "--target", "A1",
                    "--ring", "p3n0", "--max-level", "0")
    assert code == 0
    assert "level[0]" in out and "level[1]" not in out


@pytest.mark.parametrize("key, value, least",
                         [("slack", -1, 0), ("max_level", -1, 0), ("terms", 0, 1)])
def test_project_defaults_below_minimum_rejected(tmp_path, key, value, least):
    bad = tmp_path / "bad.project"
    bad.write_text(f"[defaults]\n{key} = {value}\n\n[ring r]\np = 3\n")
    with pytest.raises(ProjectError, match=f"{key} must be at least {least}$"):
        load_project(bad)
    assert main(["count", "--project", str(bad), "--target", "x",
                 "--ring", "r"]) == 2


def test_numeric_options_resolve_flag_then_defaults_then_library(
        tmp_path, capsys, monkeypatch):
    import padicstacks.cli as cli

    seen = {}

    def fake_specialize(*args, **kwargs):
        seen.update(kwargs)
        return []

    monkeypatch.setattr(cli, "specialize_primes", fake_specialize)
    proj = tmp_path / "slack3.project"
    proj.write_text(pathlib.Path(DEMO).read_text().replace("slack = 2", "slack = 3"))
    argv = ["specialize", "--project", str(proj), "--formula", "xy_t",
            "--primes", "3", "--expect", "1"]
    assert main(argv) == 0
    assert (seen["slack"], seen["max_level"]) == (3, 4)
    assert main(argv + ["--max-level", "0"]) == 0
    assert seen["max_level"] == 0
    # no [defaults] at all: the library constants
    bare = tmp_path / "bare.project"
    bare.write_text("[ring p3n0]\np = 3\n\n[scheme A1]\nvars = x\n")
    code, out = run(capsys, "series", "--project", str(bare), "--target", "A1",
                    "--ring", "p3n0")
    assert code == 0
    assert "terms = 8\n" in out and "coeff[7]" in out and "coeff[8]" not in out


def test_target_variable_t_rejected_at_load(tmp_path, capsys):
    bad = tmp_path / "bad.project"
    bad.write_text("[ring r]\np = 3\n\n[scheme Axt]\nvars = x, t\n\n"
                   "[formula f]\ntarget = Axt\ntext = ord(t) >= 1\n")
    with pytest.raises(ProjectError, match="reserved for the uniformizer"):
        load_project(bad)
    assert main(["measure", "--project", str(bad), "--ring", "r",
                 "--set", "f"]) == 2
    assert "reserved for the uniformizer" in capsys.readouterr().err


def test_project_formula_negative_dim_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.project"
    bad.write_text("[ring r]\np = 3\n\n[scheme A1]\nvars = x\n\n"
                   "[formula f]\ntarget = A1\ndim = -1\ntext = ord(x) >= 1\n")
    assert main(["measure", "--project", str(bad), "--ring", "r", "--set", "f"]) == 2
    assert capsys.readouterr().err == "error: dimension must be at least 0, got -1\n"


def test_cli_oversized_parse_product_exits_3(tmp_path, capsys):
    big = tmp_path / "big.project"
    big.write_text("[ring r]\np = 3\n\n[scheme A2]\nvars = x, y\n\n"
                   "[scheme big]\nvars = x, y\ngens = (x+y+1)^200\ndim = 1\n")
    assert main(["count", "--project", str(big), "--target", "big",
                 "--ring", "r"]) == 3
    assert capsys.readouterr().err.endswith("exceeds bound 4000000\n")
    assert main(["measure", "--project", DEMO, "--ring", "p3n0", "--target", "A2",
                 "--set", "ord((x+y+1)^200) >= 1"]) == 3
    assert capsys.readouterr().err.endswith("exceeds bound 4000000\n")


def test_cli_formula_measure_bound_limits_balls_per_level(capsys):
    # undecided at every level: 9^(n+1) balls read at level n, over 1000 at level 3
    assert main(["measure", "--project", DEMO, "--ring", "p3n0", "--target", "A2",
                 "--set", "ord(t^30*x) == 40", "--bound", "1000"]) == 3
    assert capsys.readouterr().err.endswith(
        "formula walk of 6561 balls at level 3 exceeds bound 1000\n")


@pytest.mark.parametrize("ring, target, text, dim, levels, verdict", [
    ("p3n0", "A2", "y^2 - x^3 == 0", "1", ["1/1", "7/9", "20/27", "61/81"],
     ["status = PARTIAL", "measure = PARTIAL"]),
    ("p5n0", "cusp", "x - y == 0", "0", ["2/1"] * 4,
     ["status = STABILIZED", "stabilized_at = 0", "measure = 2/1"]),
])
def test_cli_formula_walk_drops_balls_settled_false(capsys, ring, target, text, dim, levels,
                                                    verdict):
    # the balls whose points settle false (their atom refuted by the tree)
    # leave the walk with their children unread, so a walk of at most 40
    # balls a level gives the unbounded report
    argv = ["measure", "--project", DEMO, "--ring", ring, "--target", target, "--set", text,
            "--max-level", "3", "--dim", dim]
    code, out = run(capsys, *argv, "--bound", "40")
    assert (code, out) == (0, run(capsys, *argv)[1])
    assert out.splitlines()[-4 - len(verdict):] == [
        *(f"level[{n}] = {v} .. {v}" for n, v in enumerate(levels)), *verdict]


def test_cli_conic_cut_by_its_own_equation_stabilizes(capsys):
    # the upgrade oracle walks the conic's generator and the folded atom,
    # the same polynomial twice, as one condition: each level-n point of
    # the conic lifts by Hensel's lemma
    code, out = run(capsys, "measure", "--project", DEMO, "--ring", "p5n0",
                    "--target", "X_conic", "--set", "x^2 + y^2 - 1 == 0")
    assert code == 0
    assert out.splitlines()[3:] == [
        "formula = (inline) x^2 + y^2 - 1 == 0",
        "target = X_conic",
        "ring = p5n0 (p=5, e=1, n=0, r=1)",
        *(f"level[{n}] = 4/5 .. 4/5" for n in range(5)),
        "status = STABILIZED",
        "stabilized_at = 0",
        "measure = 4/5",
    ]


@pytest.mark.parametrize("ring, text, value", [
    ("p5n0", "1 - x^2 - y^2 == 0", "4/5"),
    ("p3n0", "2*x^2 + 2*y^2 - 2 == 0", "4/3"),
])
def test_cli_conic_cut_by_a_unit_multiple_of_its_equation_stabilizes(capsys, ring, text, value):
    # the folded atom is the conic's generator times a unit: the tree
    # walks the pair as one condition, and answers at once
    start = time.perf_counter()
    code, out = run(capsys, "measure", "--project", DEMO, "--ring", ring,
                    "--target", "X_conic", "--set", text)
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out.splitlines()[-8:] == [
        *(f"level[{n}] = {value} .. {value}" for n in range(5)),
        "status = STABILIZED",
        "stabilized_at = 0",
        f"measure = {value}",
    ]


def test_cli_negation_spelled_through_ord_reports_as_the_equation_does(capsys):
    # the three spellings parse to one tree, so the points where x^2 - 5
    # vanishes mod 5 are certified off the set in each: level 0 reads
    # 1/1 .. 1/1, not 4/5 .. 1/1
    reports = set()
    for text in ("x^2 - 5 != 0", "ord(x^2 - 5) != INFINITY", "ord(x^2 - 5) < INFINITY"):
        code, out = run(capsys, "measure", "--project", DEMO, "--ring", "p5n0",
                        "--target", "A1", "--max-level", "3", "--set", text)
        lines = out.splitlines()
        assert (code, lines[3]) == (0, f"formula = (inline) {text}")
        reports.add("\n".join(lines[:3] + lines[4:]))
    assert len(reports) == 1
    assert "level[0] = 1/1 .. 1/1\n" in reports.pop()


def test_cli_strict_partial(capsys):
    code, out = run(
        capsys,
        "--strict",
        "measure",
        "--project",
        DEMO,
        "--ring",
        "p3n0",
        "--target",
        "xy3",
        "--max-level",
        "1",
    )
    assert code == 4
    # without --strict the same command reports PARTIAL but exits 0
    code2 = main(
        [
            "measure",
            "--project",
            DEMO,
            "--ring",
            "p3n0",
            "--target",
            "xy3",
            "--max-level",
            "1",
        ]
    )
    capsys.readouterr()
    assert code2 == 0


def test_cli_inexact_series_reports_bounds_around_the_truth(capsys):
    # with no slack the image tree leaves some cusp points open, so the
    # report gives bounds on the open coefficients and skips the fit; a
    # coefficient without bounds is exact
    argv = ["series", "--project", DEMO, "--target", "cusp", "--ring", "p5n0",
            "--kind", "p", "--terms", "4", "--slack", "0", "--fit"]
    code, out = run(capsys, "--strict", *argv)
    assert code == 4
    assert run(capsys, *argv) == (0, out)
    lines = out.splitlines()
    assert "exact = false" in lines
    assert "fit = skipped (coefficients are not exact)" in lines
    values = dict(line.split(" = ") for line in lines if line.startswith(("coeff[", "bounds[")))
    assert "bounds[3]" in values
    for i in (1, 2, 3):
        # the Z_5-points of y^2 = x^3 are (t^2, t^3), and mod 5^i they
        # depend only on t mod 5^i
        truth = len({(t**2 % 5**i, t**3 % 5**i) for t in range(5**i)})
        coeff = values[f"coeff[{i}]"]
        lo, hi = map(Fraction, values.get(f"bounds[{i}]", f"{coeff} .. {coeff}").split(" .. "))
        assert lo == Fraction(coeff) <= truth <= hi, i


def test_cli_cusp_p_series_is_exact(capsys):
    # the image tree decides every cusp point at levels 0-4: the P series
    # is the parametrization's image sizes
    code, out = run(capsys, "series", "--project", DEMO, "--target", "cusp",
                    "--ring", "p5n0", "--kind", "p", "--terms", "6")
    assert code == 0
    lines = out.splitlines()
    assert "exact = true" in lines
    coeffs = [line for line in lines if line.startswith("coeff[")]
    assert coeffs == [f"coeff[{i}] = {c}/1" for i, c in enumerate((1, 5, 21, 103, 521, 2603))]


def test_cli_reports_byte_identical(capsys):
    argv = [
        "series",
        "--project",
        DEMO,
        "--target",
        "X_conic",
        "--ring",
        "p5n0",
        "--terms",
        "6",
        "--fit",
    ]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert "normalization = " in out1


def test_cli_project_formula_honours_dim(capsys):
    base = ["measure", "--project", DEMO, "--ring", "p3n0", "--max-level", "2"]
    _, named = run(capsys, *base, "--set", "ord_ge_1", "--dim", "2")
    _, inline = run(capsys, *base, "--set", "ord(x) >= 1", "--target", "A1",
                    "--dim", "2")
    assert "level[0] = 1/9 .. 1/9" in named

    def body(out):
        return [line for line in out.splitlines() if not line.startswith("formula =")]
    assert body(named) == body(inline)
    # without --dim the formula's own dimension (1) applies
    _, default = run(capsys, *base, "--set", "ord_ge_1")
    assert "level[0] = 1/3 .. 1/3" in default


def test_cli_galois_ring_brute_measure(tmp_path, capsys):
    # GR(9): counted by the ball tree on the Weil restriction to Z_3
    project = tmp_path / "gr9.project"
    project.write_text(pathlib.Path(DEMO).read_text() + "\n[ring gr9n0]\np = 3\nr = 2\n")
    code, out = run(capsys, "measure", "--project", str(project), "--ring", "gr9n0",
                    "--target", "X_conic", "--max-level", "1")
    assert code == 0
    assert "level[0] = 8/9\nlevel[1] = 8/9\n" in out


def test_cli_sweep_smoke(capsys):
    # the refactor sweep: at least 300 distinct commands, each run as given
    # and with a bound; its first lines digest what the CLI prints here
    commands = cli_sweep.commands()
    assert len(commands) >= 300 and len({tuple(c) for c in commands}) == len(commands)
    assert sum("--bound" in c for c in commands) >= 150
    done = subprocess.run([sys.executable, cli_sweep.__file__, "--limit", "3"],
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 3 and done.stderr == ""
    for line, argv in zip(lines, commands):
        code = main(list(argv))
        captured = capsys.readouterr()
        digest = hashlib.sha256(f"{captured.out}\0{captured.err}".encode()).hexdigest()[:16]
        shown = " ".join("demo.project" if a == cli_sweep.DEMO else a for a in argv)
        assert line == f"{digest} {code} {shown}"
    # a checkout swept against itself differs nowhere
    checkout = str(pathlib.Path(cli_sweep.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, cli_sweep.__file__, "--limit", "3",
                           "--against", checkout], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_mutants_smoke(capsys):
    # every entry of the mutant table still finds its text; one cheap entry
    # is killed, the same fault survives tests that do not see it, and an
    # entry whose text is gone is stale
    for entry in mutants.MUTANTS:
        source = (mutants.ROOT / entry.path).read_text()
        assert source.count(entry.old) == 1 and entry.tests, entry.name
    assert mutants.main(["group-rows-unchecked"]) == 0
    assert capsys.readouterr().out == "KILLED   group-rows-unchecked: 2 of 2 test runs failed\n"
    entry = next(m for m in mutants.MUTANTS if m.name == "group-rows-unchecked")
    blind = entry._replace(tests=(f"{mutants.CLI}::test_construction_refusals[group-duplicate]",))
    assert mutants.run(blind) == ("SURVIVED", f"passed: {blind.tests[0]}")
    assert mutants.run(entry._replace(old="no such text"))[0] == "STALE"


# ---------------------------------------------------------------------------
# primes past trial division

M61 = 2**61 - 1  # a Mersenne prime


def _cli_child(*argv):
    """(exit code, stdout, stderr) of the CLI in a child process, which is
    killed after 15 s: trial division up to the square root of 2^61 - 1
    takes minutes, and must fail this test rather than hang the suite."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "padicstacks.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=15)
    return done.returncode, done.stdout, done.stderr


def test_mersenne_prime_commands_answer():
    code, out, _ = _cli_child("witt", "--p", str(M61), "--length", "1")
    assert code == 0 and f"p = {M61}" in out
    code, _, err = _cli_child("witt", "--p", str(M61 + 2), "--length", "1")
    assert (code, err) == (2, f"error: {M61 + 2} is not prime\n")
    code, _, err = _cli_child("specialize", "--project", DEMO, "--formula", "ord_ge_1",
                              "--primes", str(M61), "--expect", "1/q")
    assert (code, err) == (3, f"error: formula walk of {M61} balls at level 0 exceeds bound 4000000\n")
    code, out, _ = _cli_child("stack-count", "--project", DEMO, "--stack", "BS3",
                              "--field", f"q={M61}")
    assert code == 0 and out.endswith(f"field = q={M61}\ncount = 1/1\n")
    # past the proven range of the Miller-Rabin bases, a prime is refused
    code, _, err = _cli_child("witt", "--p", str(2**89 - 1), "--length", "1")
    assert (code, err) == (2, f"error: primality is decided only below "
                              f"3317044064679887385961981, got {2**89 - 1}\n")
