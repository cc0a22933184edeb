"""Mutation checks: small faults planted in the library, each of which named
tests must catch.

An entry of MUTANTS gives a file of the checkout, an exact text that must
occur in it once, its replacement, and the tests that must fail once the
text is replaced.  Each entry runs on a temporary copy of the checkout's
src/, tests/ and perfbench/ (which some tests read), never on the
checkout itself, and prints one line:

    KILLED    every named test failed
    SURVIVED  some named test passed; they are listed
    STALE     the old text does not occur exactly once: the code has moved
              on, and the entry must be rewritten or dropped
    BROKEN    the named tests did not run to a verdict (a collection or
              usage error, or no verdict within TIMEOUT_S)

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # only these entries

Exits 1 unless every entry run is KILLED.
"""

import argparse
import collections
import contextlib
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT_S = 900

Mutant = collections.namedtuple("Mutant", "name path old new tests")

TREE = "src/padicstacks/tree.py"
KEPT = "src/padicstacks/definable.py"
MEASURES = "src/padicstacks/measures.py"
STACK_SRC = "src/padicstacks/stacks.py"
RINGS_SRC = "src/padicstacks/rings.py"
WITT = "src/padicstacks/witt.py"
POLY = "tests/test_polyscheme.py"
MEAS = "tests/test_measures.py"
DEFN = "tests/test_definable.py"
CLI = "tests/test_project_cli.py"
WITTS = "tests/test_witt.py"
GREEN = "tests/test_greenberg.py"
RINGS = "tests/test_rings.py"
STACKS = "tests/test_stacks.py"

# BallTree._image's extension of a row list, from its children's rows
_APPEND = """\
                zeros = self._residue_zeros(state)
                below = [self._image(self._child(state, u0), depth - 1, slack, visit)
                         for u0, smooth in zeros.items() if not smooth]
                smooth = sum(zeros.values())
                fiber = smooth and self.p ** (self.n_vars - len(state))
                for r in range(len(rows), depth + 1):
"""

MUTANTS = (
    # BallTree: the closed forms and the state's normal form
    Mutant("image-fibre-power", TREE,
           "smooth * fiber ** (r - 1)", "smooth * fiber ** r",
           (f"{POLY}::test_image_walk_matches_frontier_search_reference",
            f"{MEAS}::test_unit_multiples_walk_as_one")),
    Mutant("count-precision-dropped", TREE,
           "closed = p ** (nv * (m - 1) - sum(e - 1 for _, e in state))",
           "closed = p ** (nv * (m - 1))",
           (f"{POLY}::test_count_xy3_mod9",
            f"{POLY}::test_lifted_counts_match_brute",
            f"{MEAS}::test_unit_multiples_walk_as_one")),
    Mutant("state-unit-not-scaled", TREE,
           "unit = pow(h.terms[lead] // pc, -1, m)", "unit = 1",
           (f"{MEAS}::test_unit_multiples_walk_as_one",
            f"{POLY}::test_counted_unit_multiples_share_one_state")),
    Mutant("state-no-sign-step", TREE,
           "                g = g if h.terms[max(h.terms)] > 0 else -g\n", "",
           (f"{MEAS}::test_unit_multiples_walk_as_one",
            f"{CLI}::test_cli_conic_cut_by_a_unit_multiple_of_its_equation_stabilizes")),
    Mutant("state-keeps-repeats", TREE,
           "return tuple(dict.fromkeys(kept))", "return tuple(kept)",
           (f"{MEAS}::test_unit_multiples_walk_as_one",
            f"{POLY}::test_repeated_generator_walks_as_one",
            f"{POLY}::test_repeated_generator_in_its_slot_is_dropped_once",
            f"{POLY}::test_repeat_that_appears_below_the_root_is_dropped_there")),
    # Hensel's step of image_above and fibre, taken in one place (_lifts):
    # the residue-zero lookup, the rank test, the vanishing test, the fibre
    Mutant("fibre-full", TREE,
           "vanish * self.p ** (self.n_vars - len(state))", "vanish * self.p ** self.n_vars",
           (f"{MEAS}::test_q_check_is_the_image_less_the_singular_centres",
            f"{POLY}::test_fibre_matches_raw_rank_and_brute_lifts",
            f"{DEFN}::test_smooth_balls_close_by_hensel")),
    # BallTree._child: a child state by binomial passes (tree._shift).
    # (Dropping _shift's final reduction mod p^e is no fault in the walk:
    # _state reduces mod p^(e - c) after taking out the content.)
    Mutant("shift-binomial-off-by-one", TREE,
           "comb(k, i) * a ** (k - i)", "comb(k - 1, i) * a ** (k - i)",
           (f"{POLY}::test_shift_matches_substitute_battery",
            f"{POLY}::test_lifted_counts_match_brute",
            f"{POLY}::test_image_walk_matches_frontier_search_reference")),
    Mutant("shift-p-power-one-up", TREE,
           "a ** (k - i) * p**i", "a ** (k - i) * p ** (i + 1)",
           (f"{POLY}::test_shift_matches_substitute_battery",
            f"{POLY}::test_lifted_counts_match_brute")),
    Mutant("shift-wrong-coordinate", TREE,
           "for j, a in enumerate(u0):", "for j, a in enumerate(u0[1:] + u0[:1]):",
           (f"{POLY}::test_shift_matches_substitute_battery",
            f"{POLY}::test_lifted_counts_match_brute")),
    # the residue search: only the coordinates that occur mod p, each zero
    # extended in place and in order, and rank mod p
    Mutant("occurrence-wrong-index", TREE,
           "any(x[j] for h in polys for x in h.terms)", "any(x[j - 1] for h in polys for x in h.terms)",
           (f"{POLY}::test_residue_search_matches_every_tuple",)),
    Mutant("extension-unsorted", TREE,
           "zeros = dict(sorted(", "zeros = dict((",
           (f"{POLY}::test_residue_search_matches_every_tuple",
            f"{POLY}::test_residue_search_on_weil_restrictions_matches_every_tuple")),
    Mutant("full-rank-unreduced", "src/padicstacks/polyscheme.py",
           "range(n_cols), lambda a: pow(a, -1, p), lambda a: a % p)",
           "range(n_cols), lambda a: pow(a, -1, p), lambda a: a)",
           (f"{POLY}::test_residue_search_matches_every_tuple",)),
    # compiled polynomials on element rings
    Mutant("coefficient-slot-unreduced", RINGS_SRC,
           "tuple([c * a % m for a, m in zip(t or one, mods)])",
           "tuple([c * a for a, m in zip(t or one, mods)])",
           (f"{RINGS}::test_compile_matches_eval_elements_and_digit_oracle",
            f"{RINGS}::test_compiled_monomials_raise_by_square_and_multiply")),
    # a ring family holds one ring per level, and builds its vector
    # tables on first use
    Mutant("at-level-memo-ignores-level", RINGS_SRC,
           "ring = self._family.get(n)", "ring = self._family.get(next(iter(self._family)))",
           (f"{RINGS}::test_at_level_moves_both_ways",
            f"{RINGS}::test_a_family_holds_one_ring_per_level",
            f"{RINGS}::test_family_rings_compute_as_rings_built_apart")),
    Mutant("omega-rows-one-short", RINGS_SRC,
           "_power_rows(self._omega_poly, self.n + 1)", "_power_rows(self._omega_poly, self.n)",
           (f"{RINGS}::test_family_rings_compute_as_rings_built_apart",
            f"{RINGS}::test_vector_arithmetic_matches_digit_oracle",
            f"{RINGS}::test_canonical_vectors_distinct_and_round_trip")),
    # BallTree._image: a ball's own lookahead decides it
    Mutant("lookahead-ignores-certified", TREE,
           "here = True if c else None if o else False", "here = None if o else False",
           (f"{POLY}::test_image_walk_matches_frontier_search_reference",
            f"{MEAS}::test_p_series_bounded_by_its_image_walk")),
    Mutant("lookahead-empty-on-certified-only", TREE,
           "here = True if c else None if o else False", "here = True if c else False",
           (f"{POLY}::test_image_walk_matches_frontier_search_reference",
            f"{POLY}::test_hensel_cusp_unknown_at_small_slack")),
    Mutant("lookahead-one-level-short", TREE,
           "while here is None and r < slack:", "while here is None and r < slack - 1:",
           (f"{POLY}::test_image_walk_matches_frontier_search_reference",
            f"{POLY}::test_hensel_cusp_unknown_at_small_slack")),
    # formula measures close a kept ball by Hensel's lemma only when they
    # may: _KeptPoints' guards (b), (c) and p-content, and BallTree.fibre's (a)
    Mutant("kept-no-false-override-guard", KEPT,
           "\n                and all(value({i: False}) is False for i in opened)):", "):",
           (f"{DEFN}::test_joint_certificates_match_pointwise",
            f"{DEFN}::test_ball_with_an_undetermined_disjunct_stays_open")),
    Mutant("kept-true-on-p-content", KEPT,
           " and (opened or self.primitive)\n", "\n",
           (f"{DEFN}::test_non_reduced_balls_close_by_hensel",)),
    Mutant("fibre-no-rank-check", TREE,
           "        if not smooth:\n            return smooth\n",
           "        if smooth is None:\n            return smooth\n",
           (f"{POLY}::test_fibre_matches_raw_rank_and_brute_lifts",
            f"{DEFN}::test_joint_certificates_match_pointwise")),
    Mutant("fibre-no-vanishing-check", TREE,
           "vanish = not any([h.eval_int(u, m) for h, _ in state])", "vanish = True",
           (f"{POLY}::test_fibre_matches_raw_rank_and_brute_lifts",
            f"{DEFN}::test_non_reduced_balls_close_by_hensel")),
    # a ball whose point settles false leaves the formula walk
    Mutant("walk-keeps-settled-false", KEPT,
           "if n < max_level and truth is not False:", "if n < max_level:",
           (f"{DEFN}::test_non_reduced_balls_close_by_hensel",
            f"{DEFN}::test_balls_settled_false_leave_the_walk",
            f"{CLI}::test_cli_formula_walk_drops_balls_settled_false")),
    # eval_formula reads a point at its coarsest decided truncation: the
    # memo key is the whole truncation, an open read goes one level down,
    # and each level is read with its own uniformizer
    Mutant("eval-key-one-digit-short", KEPT,
           "[x % cut for x in point]", "[x % (cut // spec.p) for x in point]",
           (f"{DEFN}::test_eval_formula_matches_interpreter_on_targets_with_generators",
            f"{DEFN}::test_compiled_evaluation_matches_interpreter",
            f"{DEFN}::test_eval_formula_reads_each_coarse_truncation_once")),
    Mutant("eval-open-coarse-read-final", KEPT,
           "            if tv is not None:\n                break\n", "            break\n",
           (f"{DEFN}::test_eval_formula_matches_interpreter_on_targets_with_generators",
            f"{DEFN}::test_compiled_evaluation_matches_interpreter",
            f"{DEFN}::test_eval_formula_reads_each_coarse_truncation_once")),
    Mutant("eval-coarse-read-level-n-uniformizer", KEPT,
           "read(args + (t_m,), None)", "read(args + (t,), None)",
           (f"{DEFN}::test_eval_formula_matches_interpreter_on_targets_with_generators",
            f"{DEFN}::test_compiled_evaluation_matches_interpreter")),
    # the Q check: X's part of the coefficient, X's exactness through
    # `level` and the kept counts, all from one tree on X
    Mutant("q-check-no-singular-part", MEASURES,
           "lhs = rows[level][0] - tbl.coefficients[level + 1]", "lhs = Fraction(rows[level][0])",
           (f"{MEAS}::test_q_coefficient_identity_on_battery",
            f"{MEAS}::test_q_check_is_the_image_less_the_singular_centres",
            f"{MEAS}::test_q_check_bounded_outcomes_are_pinned")),
    Mutant("q-check-ignores-open-rows-of-x", MEASURES,
           "if not tbl.exact or any(u for _, u in rows):", "if not tbl.exact:",
           (f"{MEAS}::test_q_coefficient_check_refuses_inexact_q_series",
            f"{MEAS}::test_q_check_bounded_outcomes_are_pinned")),
    Mutant("q-check-kept-from-the-level-walk", MEASURES,
           "kept = tree.image_levels(max_level, slack, bound)[level:]", "kept = rows[level:]",
           (f"{MEAS}::test_q_coefficient_identity_on_battery",
            f"{MEAS}::test_q_check_is_the_image_less_the_singular_centres",
            f"{MEAS}::test_q_check_bounded_outcomes_are_pinned")),
    # BallTree._image: a state's rows are one list per (state, slack), and
    # a shallower ask reads its prefix
    Mutant("image-rows-one-short", TREE,
           "if len(rows) <= depth:", "if len(rows) < depth:",
           (f"{MEAS}::test_image_rows_are_kept_once_per_state_and_slack",
            f"{POLY}::test_image_walk_matches_frontier_search_reference")),
    # Witt laws: the closed-form Teichmuller lift
    Mutant("teichmuller-exponent-one-short", WITT,
           "p ** max(precision - 1, 0)", "p ** max(precision - 2, 0)",
           (f"{WITTS}::test_teichmuller_closed_form_is_the_fixpoint",
            f"{WITTS}::test_witt_from_int_teichmuller_example")),
    # Witt laws: the packed ghost solve and the ring of functions on F_p
    Mutant("fold-threshold-above-p", WITT,
           "self.offset = ones * ((1 << (w - 1)) - p)",
           "self.offset = ones * ((1 << (w - 1)) - p - 1)",
           (f"{WITTS}::test_packed_fold_matches_fold",)),
    Mutant("fold-width-one-bit-short", WITT,
           "self.w = w = (2 * p - 2).bit_length()", "self.w = w = (2 * p - 2).bit_length() - 1",
           (f"{WITTS}::test_packed_fold_matches_fold",)),
    Mutant("structure-radix-one-lower", WITT,
           "radix = _radix(p ** (length - 1))", "radix = _radix(p ** (length - 1) - 1)",
           (f"{WITTS}::test_structure_polys_match_reference_solve",)),
    Mutant("ghost-solve-wrong-square", WITT,
           "term = mul(term, square)", "term = mul(term, chain[-1])",
           (f"{WITTS}::test_structure_polys_match_reference_solve",)),
    Mutant("law-alpha-from-b-images", WITT,
           "for pw, e in zip(powers[half * L:], expo):", "for pw, e in zip(powers[L:], expo):",
           (f"{WITTS}::test_folded_operations_are_folds_of_exact_ones",
            f"{GREEN}::test_folded_expansion_is_the_fold_of_the_exact_one")),
    Mutant("fold-exponent-period-p", WITT,
           "fold = [0] + [(e - 1) % (p - 1) + 1 for e in range(1, top + 1)]",
           "fold = [0] + [(e - 1) % p + 1 for e in range(1, top + 1)]",
           (f"{WITTS}::test_packed_fold_matches_fold",
            f"{GREEN}::test_folded_expansion_is_the_fold_of_the_exact_one")),
    Mutant("fold-exponent-mod-p-minus-1", WITT,
           "fold = [0] + [(e - 1) % (p - 1) + 1 for e in range(1, top + 1)]",
           "fold = [0] + [e % (p - 1) for e in range(1, top + 1)]",
           (f"{WITTS}::test_packed_fold_matches_fold",
            f"{GREEN}::test_folded_expansion_is_the_fold_of_the_exact_one")),
    Mutant("folded-product-on-add-law", WITT,
           "law = polys.mul_groups if folded else polys.mul_modp",
           "law = polys.add_groups if folded else polys.mul_modp",
           (f"{WITTS}::test_folded_operations_are_folds_of_exact_ones",
            f"{GREEN}::test_folded_expansion_is_the_fold_of_the_exact_one")),
    # the digit expansion on packed Witt vectors
    # (swapping the two halves outright is no fault: both laws are
    # symmetric in x and y)
    Mutant("law-grouped-on-wrong-half", WITT,
           "groups.setdefault(expo[:L], [])", "groups.setdefault(expo[L:], [])",
           (f"{WITTS}::test_folded_operations_are_folds_of_exact_ones",
            f"{GREEN}::test_folded_expansion_is_the_fold_of_the_exact_one")),
    Mutant("digit-variable-wrong-slot", "src/padicstacks/greenberg.py",
           '{1 << ring.w * names.index(f"{v}_{i}"): 1}', "{1 << ring.w * i: 1}",
           (f"{GREEN}::test_folded_expansion_is_the_fold_of_the_exact_one",
            f"{GREEN}::test_folded_components_of_oracle_cases")),
    # twisted sectors: Frobenius of F_q raises to q, not to p
    Mutant("twisted-frobenius-to-p", STACK_SRC,
           "MultiPoly.variable(names, v) ** ring.size", "MultiPoly.variable(names, v) ** ring.p",
           (f"{STACKS}::test_twisted_sector_frobenius_raises_to_q",)),
    # finite-group stacks: one twisted sector per conjugacy class, weighted
    # by the class size, and groupoid classes from the centralizer
    Mutant("sector-class-weight-dropped", STACK_SRC,
           "total += len(cls) * twisted_sector_count(", "total += twisted_sector_count(",
           (f"{STACKS}::test_non_abelian_sectors_match_the_finite_field_oracle",
            f"{STACKS}::test_finite_counts_read_one_sector_per_conjugacy_class",
            f"{STACKS}::test_twisted_sectors_match_the_finite_field_oracle")),
    # (the children are asked first, and a child may be the state itself,
    # whose ask appends the shallower rows)
    Mutant("image-rows-appended-from-stale-length", TREE,
           _APPEND, "                start = len(rows)\n" + _APPEND.replace("len(rows)", "start"),
           (f"{MEAS}::test_self_looping_state_appends_its_rows_in_order",)),
    # a formula ball closes on affine space only where it reads true, and
    # a joint certificate asks the tree of every live atom
    Mutant("affine-closure-ignores-truth", KEPT,
           "if tv and not self.target.generators:", "if not self.target.generators:",
           (f"{DEFN}::test_true_balls_on_affine_space_build_no_tree",)),
    Mutant("joint-certificate-first-atom", KEPT,
           "self._tree(exact_atoms, live).verdict", "self._tree(exact_atoms, live[:1]).verdict",
           (f"{DEFN}::test_joint_certificates_match_pointwise",)),
    Mutant("groupoid-size-from-centralizer-orbit", STACK_SRC,
           "classes.append(((g, x), group.order // aut, aut))",
           "classes.append(((g, x), len(set(images)), aut))",
           (f"{STACKS}::test_non_abelian_sectors_match_the_finite_field_oracle",
            f"{STACKS}::test_twisted_sectors_match_the_finite_field_oracle")),
    Mutant("groupoid-aut-over-whole-group", STACK_SRC,
           "centralizer = group.centralizer(g)", "centralizer = group.labels",
           (f"{STACKS}::test_non_abelian_sectors_match_the_finite_field_oracle",
            f"{STACKS}::test_twisted_sectors_match_the_finite_field_oracle")),
    # the compatibility probe: an action must keep X
    Mutant("compat-probe-ignores-preservation", STACK_SRC,
           "if hx not in listed or ", "if ",
           (f"{STACKS}::test_compatibility_probe_checks_that_the_action_preserves_x",)),
    # input checks
    Mutant("group-rows-unchecked", STACK_SRC,
           "        if len(table) != n:\n", "        if False:\n",
           (f"{CLI}::test_construction_refusals[group-missing-row]",
            f"{CLI}::test_construction_refusals[group-extra-row]")),
    Mutant("project-keys-unchecked", "src/padicstacks/project.py",
           "        if key not in keys:\n", "        if False:\n",
           (f"{CLI}::test_malformed_project_section_exits_2[scheme-unknown-key]",
            f"{CLI}::test_malformed_project_section_exits_2[defaults-unknown-key]")),
)


@contextlib.contextmanager
def mutated_copy(mutant, root=ROOT):
    """A temporary copy of root's src/, tests/ and perfbench/ with the
    mutant planted, or None when its old text does not occur once."""
    source = (root / mutant.path).read_text()
    if source.count(mutant.old) != 1:
        yield None
        return
    with tempfile.TemporaryDirectory(prefix="padicstacks-mutant-") as tmp:
        copy = pathlib.Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(root / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(root / "pyproject.toml", copy)
        (copy / mutant.path).write_text(source.replace(mutant.old, mutant.new))
        yield copy


def pytest_run(copy, tests):
    """(exit code, [(classname, name, failed)]) of pytest on the named
    tests of a copy, from its JUnit report; (None, []) past TIMEOUT_S."""
    report = copy / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               f"--junitxml={report}", *tests],
                              cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, []
    cases = ET.parse(report).iter("testcase") if report.exists() else ()
    return done.returncode, [(case.get("classname"), case.get("name"),
                              any(c.tag in ("failure", "error") for c in case))
                             for case in cases]


def failed(test, results):
    """Whether a test, named as pytest names it (path::function, with or
    without its parameters), failed in one of its runs."""
    path, *rest = test.split("::")
    cls, name = ".".join([path.removesuffix(".py").replace("/", "."), *rest[:-1]]), rest[-1]
    return any(bad for c, n, bad in results
               if c == cls and (n == name or n.startswith(name + "[")))


def run(mutant, root=ROOT):
    """(status, detail) of one entry."""
    with mutated_copy(mutant, root) as copy:
        if copy is None:
            return "STALE", f"the old text does not occur once in {mutant.path}"
        code, results = pytest_run(copy, mutant.tests)
    if code not in (0, 1):
        return "BROKEN", f"pytest exit {code}" if code is not None else "timed out"
    missed = [t for t in mutant.tests if not failed(t, results)]
    if missed:
        return "SURVIVED", "passed: " + ", ".join(missed)
    return "KILLED", f"{sum(bad for *_, bad in results)} of {len(results)} test runs failed"


def main(argv=None):
    names = [m.name for m in MUTANTS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"entries to run (default: all): {', '.join(names)}")
    args = parser.parse_args(argv)
    unknown = set(args.names) - set(names)
    if unknown:
        parser.error(f"no entry named {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    statuses = []
    for mutant in chosen:
        status, detail = run(mutant)
        statuses.append(status)
        print(f"{status:8} {mutant.name}: {detail}", flush=True)
    return 0 if set(statuses) <= {"KILLED"} else 1


if __name__ == "__main__":
    sys.exit(main())
