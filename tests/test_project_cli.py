import pathlib

import pytest

from padicstacks.cli import main
from padicstacks.project import ProjectError, load_project
from padicstacks.stacks import QuotientStack, SpecialGroup

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
    ],
)
def test_cli_bad_input_exits_2(capsys, argv, message):
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
