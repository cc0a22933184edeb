"""A fixed sweep of CLI commands over tests/data/demo.project, run in one
process, printing one line per command: `digest exit command`.  The digest
is the first 16 hex digits of the SHA-256 of the command's stdout, a NUL
byte and its stderr; `command` is the argv, shell-quoted, with the project
path written `demo.project`.

Every command runs as given and again with a small `--bound`, so refusals
are swept along with reports.  A change that must keep every report
byte-identical runs the sweep on both trees and compares:

    python tests/cli_sweep.py --against OLD_CHECKOUT

Options: `--root DIR` imports padicstacks from DIR/src (default: the
checkout holding this file); `--limit N` runs only the first N commands;
`--against DIR` runs this file's sweep for the root and for DIR, each in a
child process, prints the two lines (`-` DIR, `+` root) of every command
whose lines differ, and exits 1 if any differ.
"""

import argparse
import contextlib
import hashlib
import io
import pathlib
import shlex
import subprocess
import sys

DEMO = str(pathlib.Path(__file__).resolve().parent / "data" / "demo.project")

RINGS = ("p3n0", "p3n2", "p5n0", "p5n3", "ram3")
SCHEMES = ("A1", "A2", "X_conic", "cusp", "xy3", "pt", "pm1")
STACKS = ("BS3", "BGm", "BGL2", "pm1_mod_Z2", "A1_mod_Gm")
BOUND = ("--bound", "40")

# (target, formula text, extra flags): every comparison, congruences,
# ac/red, the connectives, t-only atoms, exact-vanishing atoms, the
# spellings of one condition that parse to one tree, and exact atoms whose
# balls the measure must not close by Hensel's lemma (in a disjunction,
# negated, beside an undetermined conjunct, through a singular point)
FORMULAS = (
    ("A1", "ord(x) < 2", ()),
    ("A1", "ord(x) <= 1", ()),
    ("A1", "ord(x) > 0", ()),
    ("A1", "ord(x) == 1", ()),
    ("A1", "ord(x) != 0", ()),
    ("A1", "ord(x) >= ord(t) + 1", ()),
    ("A1", "ord(x) mod 3 == 1", ()),
    ("A1", "red(x) == 2", ()),
    ("A1", "ac(x)^2 == 1", ()),
    ("A1", "!(ord(x) >= 1) || ac(x) == 2", ()),
    ("A1", "ord(t - 5) mod 2 == 0 && ord(x) >= 1", ()),
    ("A1", "ord(t^2 - 3) > 1 || ord(x) == 0", ()),
    ("A1", "x^2 - t == 0", ("--dim", "0")),
    ("A1", "ord(x) == INFINITY", ("--dim", "0")),
    ("A1", "x^2 - 5 != 0", ()),
    ("A1", "ord(x^2 - 5) != INFINITY", ()),
    ("A1", "ord(x^2 - 5) < INFINITY", ()),
    ("A1", "ac(x) != 1", ()),
    ("A1", "x - x == 0", ("--dim", "1")),
    ("A2", "ord(x) <= ord(y) + 1", ()),
    ("A2", "ac(x) + red(y) == 1", ()),
    ("A2", "x - y == 0 && x*y - 1 == 0", ("--dim", "0")),
    ("A2", "ord(x*y - t) >= INFINITY", ("--dim", "1")),
    ("A2", "x*y - t == 0 || x - y == 0", ("--dim", "1")),
    ("A2", "x*y - t == 0 || x - y - 1 == 0", ("--dim", "1")),
    ("A2", "!(x*y - t == 0)", ()),
    ("A2", "x*y - t == 0 && ord(x) >= 2", ("--dim", "1")),
    ("A2", "y^2 - x^3 == 0", ("--dim", "1")),
    ("A2", "y^2 - x^2 - x^3 == 0", ("--dim", "1")),
    ("cusp", "x - y == 0", ("--dim", "0")),
    ("X_conic", "x == 0 && y - 1 == 0", ("--dim", "0")),
    ("X_conic", "ord(x) >= 1", ()),
    ("X_conic", "x^2 + y^2 - 1 == 0", ()),
    ("X_conic", "ord(x - y) > 0 || ac(y) == 1", ()),
    ("X_conic", "x - y - 1 == 0", ("--dim", "0")),
    ("xy3", "ord(x) < ord(y)", ()),
)

# (formula, expected measure in q)
SPECIALIZE = (("ord_ge_1", "1/q"), ("xy_t", "2*(1-1/q)"), ("even_ord_unit", "1/q"))


def commands():
    """The sweep's argv lists, in a fixed order."""
    project = ("--project", DEMO)
    base = []
    for target in SCHEMES + STACKS:
        base += [["count", *project, "--target", target, "--ring", ring] for ring in RINGS]
        base += [["measure", *project, "--target", target, "--ring", ring]
                 for ring in ("p3n0", "p5n0", "ram3")]
    for target in ("A1", "X_conic", "cusp", "xy3", "BGm"):
        base += [["series", *project, "--target", target, "--ring", ring, "--kind", kind,
                  "--terms", "6", *fit]
                 for ring in ("p3n0", "p5n0") for kind in ("tilde", "p", "q")
                 for fit in ((), ("--fit",))]
    for name in ("ord_ge_1", "xy_t", "even_ord_unit"):
        base += [["measure", *project, "--ring", ring, "--set", name, "--max-level", "3"]
                 for ring in ("p3n0", "p5n0", "ram3")]
    for target, text, extra in FORMULAS:
        base += [["measure", *project, "--ring", ring, "--target", target, "--set", text,
                  "--max-level", "3", *extra]
                 for ring in ("p3n0", "p5n0", "ram3")]
    for name, expect in SPECIALIZE:
        base += [["specialize", *project, "--formula", name, "--primes", primes,
                  "--expect", expect, "--max-level", "3"]
                 for primes in ("3,5", "3,3", "2,3", "5,7")]
    for target in SCHEMES:
        base += [["singular", *project, "--target", target, *ring]
                 for ring in ((), ("--ring", "p3n0"))]
    for target in ("A1", "X_conic", "cusp"):
        base += [["greenberg", *project, "--target", target, "--ring", "p3n2", "--level", level]
                 for level in ("0", "1", "2", "3")]
    for target in ("X_conic", "cusp"):
        base += [["greenberg", *project, "--target", target, "--ring", "p3n2", "--level", level,
                  "--emit-equations"]
                 for level in ("1", "3")]
    for stack in STACKS:
        base += [["stack-count", *project, "--stack", stack, *where]
                 for where in (*(("--field", f"q={q}") for q in (2, 3, 4, 5, 7, 8, 9, 25, 27)),
                               ("--ring", "p3n0"), ("--ring", "ram3"))]
    swept = [bounded for argv in base for bounded in (argv, argv + list(BOUND))]
    swept += [["witt", "--p", p, "--length", length, *emit]
              for emit in (("--emit-polys",), ())
              for p in ("2", "3") for length in ("1", "2", "3")]
    return swept


def run(main, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def against(root, other, limit):
    """Run the sweep for `root` and for `other` in two child processes and
    print the lines of every command whose lines differ; 1 if any do."""
    extra = [] if limit is None else ["--limit", str(limit)]
    children = [subprocess.Popen([sys.executable, __file__, "--root", tree, *extra],
                                 stdout=subprocess.PIPE, text=True)
                for tree in (other, root)]
    old, new = (child.communicate()[0].splitlines() for child in children)
    if any(child.returncode for child in children) or len(old) != len(new):
        print("a sweep did not finish", file=sys.stderr)
        return 2
    differ = [(a, b) for a, b in zip(old, new) if a != b]
    for a, b in differ:
        print(f"- {a}\n+ {b}")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(pathlib.Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ is imported")
    parser.add_argument("--limit", type=int, default=None, help="run only the first N commands")
    parser.add_argument("--against", metavar="DIR",
                        help="compare the sweep for --root with the one for DIR")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.root, args.against, args.limit)
    sys.dont_write_bytecode = True  # leave no __pycache__ in the swept tree
    sys.path.insert(0, str(pathlib.Path(args.root) / "src"))
    from padicstacks.cli import main as cli_main

    for argv_ in commands()[:args.limit]:
        code, out, err = run(cli_main, argv_)
        digest = hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()[:16]
        shown = shlex.join("demo.project" if a == DEMO else a for a in argv_)
        print(f"{digest} {code} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
