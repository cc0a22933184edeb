from fractions import Fraction

import pytest

from padicstacks.definable import (
    And,
    FormulaSyntaxError,
    Not,
    OrdAtom,
    OrdCong,
    PolyEq,
    ResAtom,
    SpecializationMap,
    eval_formula,
    measure_formula,
    parse_formula,
    parse_q_expression,
    specialize_primes,
)
from padicstacks.polyscheme import AffineScheme, tau_point
from padicstacks.rings import make_ring

A1 = AffineScheme.affine_space("A1", ("x",))
A2 = AffineScheme.affine_space("A2", ("x", "y"))


def spec(p, n):
    return make_ring(p, n=n)


# ---------------------------------------------------------------------------
# parsing


def test_parse_ord_atom():
    f = parse_formula("ord(x) >= 1", ("x",))
    assert isinstance(f, OrdAtom)
    assert f.op == ">=" and f.rhs == ("const", 1)


def test_parse_conjunction_and_congruence():
    f = parse_formula("ac(x) == 1 && ord(x) mod 2 == 0", ("x",))
    assert isinstance(f, And)
    assert isinstance(f.left, ResAtom)
    assert isinstance(f.right, OrdCong)
    assert f.right.modulus == 2 and f.right.residue == 0


def test_parse_infinity_atom():
    f = parse_formula("ord(x*y - t) == INFINITY", ("x", "y"))
    assert isinstance(f, OrdAtom)
    assert f.rhs == ("inf",)


def test_parse_val_equality_and_ord_comparison():
    f = parse_formula("x*y - 3 == 0", ("x", "y"))
    assert isinstance(f, PolyEq)
    g = parse_formula("x != 0", ("x",))
    assert isinstance(g, Not) and isinstance(g.inner, PolyEq)
    h = parse_formula("ord(x) <= ord(y) + 2", ("x", "y"))
    assert h.rhs[0] == "ord" and h.rhs[2] == 2


def test_parse_errors():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ord(x) >=", ("x",))
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ord(z) >= 1", ("x",))  # unbound variable
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ord(x) mod 1 == 0", ("x",))  # modulus < 2
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ac(x) == y", ("x", "y"))  # sort mismatch
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ord(x) == 1 &&", ("x",))


def test_target_variable_t_is_rejected():
    # t names the uniformizer; a point coordinate called t used to be read
    # as p by ord(...), so ord(t) >= 1 came out true at all 9 points of
    # A^2(Z/3) instead of at the 3 with t = 0
    with pytest.raises(FormulaSyntaxError, match="'t' is reserved for the uniformizer"):
        parse_formula("ord(t) >= 1", ("x", "t"))


def test_parse_negation_and_parens():
    f = parse_formula("!(ord(x) >= 1) || ac(x) == 2", ("x",))
    assert isinstance(f.left, Not)


# ---------------------------------------------------------------------------
# pointwise evaluation


def ints(points):
    return sorted(pt[0] for pt in points)


def test_eval_ord_ge_one_over_z9():
    res = eval_formula(parse_formula("ord(x) >= 1", ("x",)), A1, spec(3, 1))
    assert ints(res.certain_true) == [0, 3, 6]
    assert not res.undetermined


def test_eval_ac_equals_two_over_z9():
    res = eval_formula(parse_formula("ac(x) == 2", ("x",)), A1, spec(3, 1))
    assert ints(res.certain_true) == [2, 5, 6, 8]
    # the invisible point x = 0 cannot decide its leading digit
    assert ints(res.undetermined) == [0]


def test_eval_ord_equals_two_at_level_one():
    res = eval_formula(parse_formula("ord(x) == 2", ("x",)), A1, spec(3, 1))
    assert res.certain_true == []
    assert ints(res.undetermined) == [0]
    assert len(res.certain_false) == 8


def test_eval_infinity_atom_undetermined():
    res = eval_formula(
        parse_formula("ord(x*y - t) == INFINITY", ("x", "y")), A2, spec(3, 1)
    )
    assert res.certain_true == []
    assert len(res.undetermined) == 12  # the level-1 points of xy = 3


def test_eval_constant_atoms_are_exact():
    # t = 3 here, so ord(t^2) = 2 exactly even at level 0
    res = eval_formula(parse_formula("ord(t*t) == 2", ("x",)), A1, spec(3, 0))
    assert len(res.certain_true) == 3
    res = eval_formula(parse_formula("t*t - 9 == 0", ("x",)), A1, spec(3, 0))
    assert len(res.certain_true) == 3


def test_eval_res_polynomial_equation():
    # red(x)^2 + red(y)^2 == 1 picks the conic residues
    f = parse_formula("red(x)^2 + red(y)^2 == 1", ("x", "y"))
    res = eval_formula(f, A2, spec(5, 0))
    assert len(res.certain_true) == 4
    assert not res.undetermined


def test_negation_soundness():
    f = parse_formula("ac(x) == 2", ("x",))
    g = Not(f)
    r1 = eval_formula(f, A1, spec(3, 1))
    r2 = eval_formula(g, A1, spec(3, 1))
    assert r1.certain_true == r2.certain_false
    assert r1.certain_false == r2.certain_true
    assert r1.undetermined == r2.undetermined


def test_truncation_compatibility():
    # certain truth at level n persists after truncating the point
    f = parse_formula("ord(x) >= 1 && ac(x) == 1", ("x",))
    hi = eval_formula(f, A1, spec(3, 2))
    lo = eval_formula(f, A1, spec(3, 1))
    lo_true = set(lo.certain_true) | set(lo.undetermined)
    for pt in hi.certain_true:
        assert tau_point(pt, 3, 1) in lo_true


def test_ramified_evaluation():
    # over Z_3[w]/(w^2 - 3): ord(t) = 1 and ord(3) = 2
    E = make_ring(3, e=2, eisenstein=(-3, 0), n=2)
    res = eval_formula(parse_formula("ord(t) == 1", ("x",)), A1, E)
    assert len(res.certain_true) == E.size
    res = eval_formula(parse_formula("ord(x) == 2", ("x",)), A1, E)
    assert len(res.certain_true) == (3 - 1) * 3 ** 0  # 3 * unit digits at slot 2


def test_specialization_map_is_multiplicative_on_constants():
    sm = SpecializationMap(make_ring(5, n=3))
    spec4 = make_ring(5, n=3)
    from padicstacks.polyscheme import parse_poly

    f = parse_poly("t^2 + 2*t + 3", ("x", "t"))
    g = parse_poly("t - 1", ("x", "t"))
    folded_prod = sm.fold_poly(f * g, ("x",))
    prod_folded = sm.fold_poly(f, ("x",)) * sm.fold_poly(g, ("x",))
    assert folded_prod == prod_folded


# ---------------------------------------------------------------------------
# measures of definable sets


def test_measure_ord_ge_one():
    for p in (3, 5, 7):
        res = measure_formula("ord(x) >= 1", A1, 1, make_ring(p), max_level=3)
        assert res.status == "STABILIZED"
        assert res.value == Fraction(1, p)


def test_measure_bounded_even_order_unit_class():
    f = "ord(x) mod 2 == 0 && ord(x) <= 4 && ac(x) == 1"
    res = measure_formula(f, A1, 1, make_ring(3), max_level=6)
    assert res.status == "STABILIZED"
    assert res.value == Fraction(91, 243)


def test_measure_exact_equation_set_via_certificates():
    # the set xy = p, cut out by an exact-vanishing atom, stabilizes at
    # 2(1 - 1/p) thanks to the lift-certificate upgrade of the sandwich
    res = measure_formula(
        "ord(x*y - t) == INFINITY", A2, 1, make_ring(3), max_level=3
    )
    assert res.status == "STABILIZED"
    assert res.value == Fraction(4, 3)


def test_measure_poly_eq_form_matches_infinity_form():
    r1 = measure_formula("x*y - t == 0", A2, 1, make_ring(3), max_level=3)
    r2 = measure_formula(
        "ord(x*y - t) == INFINITY", A2, 1, make_ring(3), max_level=3
    )
    assert r1.status == r2.status == "STABILIZED"
    assert r1.value == r2.value == Fraction(4, 3)


def test_measure_boolean_algebra_identity():
    # mu(f or g) + mu(f and g) = mu(f) + mu(g) on stabilized instances
    base = make_ring(3)
    f = "ord(x) <= 1"
    g = "ord(x) >= 1 && ord(x) <= 2"
    vals = {}
    for name, text in (
        ("f", f),
        ("g", g),
        ("or", f + " || " + g),
        ("and", "(" + f + ") && (" + g + ")"),
    ):
        res = measure_formula(text, A1, 1, base, max_level=5)
        assert res.status == "STABILIZED", name
        vals[name] = res.value
    assert vals["f"] == Fraction(8, 9)
    assert vals["g"] == Fraction(8, 27)
    assert vals["or"] + vals["and"] == vals["f"] + vals["g"]


def test_measure_additivity_of_leading_digit_partition():
    # the classes ac = 1, ac = 2 and {x = 0} partition Z_3; the certified
    # level counts add up to the full ring at every level
    base = make_ring(3)
    parts = ["ac(x) == 1", "ac(x) == 2", "x == 0"]
    results = [
        measure_formula(t, A1, 1, base, max_level=4) for t in parts
    ]
    for level in range(5):
        total = sum(r.lower[level] for r in results)
        assert total == 1


def test_measure_partial_when_bounds_stay_apart():
    # ac-class measures never stabilize: x = 0 stays undetermined forever
    res = measure_formula("ac(x) == 1", A1, 1, make_ring(3), max_level=4)
    assert res.status == "PARTIAL"
    assert res.value is None
    for lo, up in zip(res.lower, res.upper):
        assert up - lo > 0


def test_eval_determinism():
    f = parse_formula("ac(x) == 1 && ord(x) mod 2 == 0", ("x",))
    a = eval_formula(f, A1, spec(3, 2))
    b = eval_formula(f, A1, spec(3, 2))
    assert a.certain_true == b.certain_true
    assert a.certain_false == b.certain_false
    assert a.undetermined == b.undetermined


# ---------------------------------------------------------------------------
# specialization across primes


def test_q_expression_parser():
    e = parse_q_expression("2*(1 - 1/q)")
    assert e(Fraction(3)) == Fraction(4, 3)
    assert e(Fraction(5)) == Fraction(8, 5)
    assert parse_q_expression("1/q^2")(Fraction(3)) == Fraction(1, 9)
    with pytest.raises(FormulaSyntaxError):
        parse_q_expression("q +")



def test_specialize_ord_ge_one():
    verdicts = specialize_primes(
        "ord(x) >= 1", A1, 1, (3, 5, 7), "1/q", max_level=3
    )
    assert [v.status for v in verdicts] == ["MATCH"] * 3


def test_specialize_xy_t_set():
    verdicts = specialize_primes(
        "ord(x*y - t) == INFINITY", A2, 1, (3, 5), "2*(1 - 1/q)", max_level=3
    )
    assert [v.status for v in verdicts] == ["MATCH", "MATCH"]
    assert [v.measured for v in verdicts] == [Fraction(4, 3), Fraction(8, 5)]


def test_specialize_negative_control():
    verdicts = specialize_primes(
        "ord(x*y - t) == INFINITY", A2, 1, (3, 5), "1/q^2", max_level=3
    )
    assert [v.status for v in verdicts] == ["MISMATCH", "MISMATCH"]


@pytest.mark.parametrize("prime, expression", [(0, "1/q"), (4, "1/(q-4)")])
def test_specialize_non_prime_rejected(prime, expression):
    # a bad prime used to be blamed on the expression
    with pytest.raises(ValueError, match=f"^{prime} is not prime$"):
        specialize_primes("ord(x) >= 1", A1, 1, (3, prime), expression)


def test_specialize_bad_prime_rejected():
    with pytest.raises(ValueError):
        specialize_primes("ord(x) >= 1", A1, 1, (3,), "1/q", bad_primes=(3,))
