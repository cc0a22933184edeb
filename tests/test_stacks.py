import itertools
from fractions import Fraction

import pytest

from padicstacks.polyscheme import AffineScheme, MultiPoly, enumerate_points, parse_poly
from padicstacks.rings import BoundExceeded, FiniteField, make_ring
from padicstacks.stacks import (
    FiniteGroupData,
    GroupAction,
    GroupDataError,
    QuotientStack,
    SpecialGroup,
    UnsupportedStack,
    count_invertible_matrices,
    cyclic_group,
    fiber_decomposition_check,
    groupoid_classes_finite,
    klein_four_group,
    orbit_classes_special,
    stacky_count_finite,
    stacky_count_finite_level,
    stacky_count_special,
    symmetric_group_3,
    twisted_sector_count,
    weighted_subset_count,
)

POINT = AffineScheme("pt", (), (), 0)
GROUP_ZOO = {
    "Z2": cyclic_group(2),
    "Z3": cyclic_group(3),
    "Z4": cyclic_group(4),
    "Klein": klein_four_group(),
    "S3": symmetric_group_3(),
}


def trivial_action(group, scheme=POINT):
    return GroupAction(group, scheme)


def negation_action(group, texts):
    scheme = AffineScheme.from_text("pm", ("x",), texts, 0)
    x = MultiPoly.variable(("x",), "x")
    e, s = group.labels
    return GroupAction(group, scheme, {e: (x,), s: (-x,)})


# ---------------------------------------------------------------------------
# group data


def test_group_constructors():
    assert cyclic_group(4).order == 4
    assert klein_four_group().exponent() == 2
    s3 = symmetric_group_3()
    assert s3.order == 6
    assert s3.exponent() == 6
    assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]


def test_bad_tables_rejected():
    with pytest.raises(GroupDataError):
        FiniteGroupData(("e", "a"), [["e", "a"], ["a", "a"]])
    with pytest.raises(GroupDataError):
        FiniteGroupData(("e", "a"), [["e", "a"], ["e", "a"]])


def test_element_orders():
    z4 = cyclic_group(4)
    assert [z4.element_order(g) for g in z4.labels] == [1, 4, 2, 4]


# ---------------------------------------------------------------------------
# mass formula and twisted sectors


def conjugacy_mass(group):
    """Independent oracle: sum over conjugacy classes of 1/|centralizer|."""
    total = Fraction(0)
    for cls in group.conjugacy_classes():
        total += Fraction(1, group.centralizer_order(cls[0]))
    return total


def test_conjugacy_mass_oracle_is_one():
    for group in GROUP_ZOO.values():
        assert conjugacy_mass(group) == 1


def test_classifying_stack_mass_formula():
    for name, group in GROUP_ZOO.items():
        for q in (5, 7):
            if q % group.order == 0:
                continue
            fld = FiniteField(q)
            assert stacky_count_finite(trivial_action(group), fld) == 1, (name, q)


def test_trivial_group_on_point():
    fld = FiniteField(5)
    assert stacky_count_finite(trivial_action(cyclic_group(1)), fld) == 1


def test_free_negation_action_q5():
    # X = {x^2 = 1}, Z/2 acting by x -> -x: one orbit, no automorphisms
    act = negation_action(cyclic_group(2), ["x^2 - 1"])
    fld = FiniteField(5)
    assert twisted_sector_count(act, fld, "g0") == 2
    assert twisted_sector_count(act, fld, "g1") == 0
    assert stacky_count_finite(act, fld) == 1
    # free-action collapse to |X(F_q)| / |G| holds here
    assert stacky_count_finite(act, fld) == Fraction(2, 2)


def test_twisted_sector_with_no_rational_points():
    # X = {x^2 = -1} over F_3 is empty, but the twisted sector sees the
    # conjugate pair in F_9; the stack still has one point
    act = negation_action(cyclic_group(2), ["x^2 + 1"])
    fld = FiniteField(3)
    assert twisted_sector_count(act, fld, "g0") == 0
    assert twisted_sector_count(act, fld, "g1") == 2
    assert stacky_count_finite(act, fld) == 1


def burnside_stable_orbits(action, fld):
    """Descent oracle for free actions: Frobenius-stable G-orbits inside
    X over the degree-exponent extension."""
    group = action.group
    ext = FiniteField(fld.p, fld.degree * group.exponent())
    pts = []
    for x in enumerate_points(action.scheme, ext):
        pts.append(tuple(ext.from_int(c) if isinstance(c, int) else c for c in x))
    q = fld.size
    orbits = []
    seen = set()
    for x in pts:
        if x in seen:
            continue
        orbit = {
            tuple(p.eval_elements(x, ext.from_int) for p in action.polys[g])
            for g in group.labels
        }
        # freeness of the action on the algebraic closure probe
        assert len(orbit) == group.order
        seen |= orbit
        orbits.append(orbit)
    stable = 0
    for orbit in orbits:
        if all(tuple(c**q for c in x) in orbit for x in orbit):
            stable += 1
    return stable


def test_free_action_collapse_against_burnside_oracle():
    cases = [
        (negation_action(cyclic_group(2), ["x^2 - 1"]), FiniteField(5)),
        (negation_action(cyclic_group(2), ["x^2 + 1"]), FiniteField(3)),
        (negation_action(cyclic_group(2), ["x^2 - 2"]), FiniteField(5)),
    ]
    for act, fld in cases:
        assert stacky_count_finite(act, fld) == burnside_stable_orbits(act, fld)


def test_groupoid_classes_recompose_the_count():
    # compatibility with the weighted-count formula: recompute the total
    # from orbit/automorphism data
    for act, fld in [
        (trivial_action(GROUP_ZOO["S3"]), FiniteField(5)),
        (negation_action(cyclic_group(2), ["x^2 - 1"]), FiniteField(5)),
        (negation_action(cyclic_group(2), ["x^2 + 1"]), FiniteField(3)),
        (trivial_action(GROUP_ZOO["Klein"]), FiniteField(7)),
    ]:
        classes = groupoid_classes_finite(act, fld)
        recomposed = weighted_subset_count(aut for _, _, aut in classes)
        assert recomposed == stacky_count_finite(act, fld)


# ---------------------------------------------------------------------------
# fiber decomposition


def test_fiber_check_trivial_group():
    act = trivial_action(cyclic_group(1), AffineScheme.from_text("c", ("x", "y"), ["x^2 + y^2 - 1"], 1))
    results, ok = fiber_decomposition_check(act, FiniteField(5))
    assert ok
    assert all(lhs == 1 for lhs, _, _ in results)


def test_fiber_check_free_action():
    act = negation_action(cyclic_group(2), ["x^2 - 1"])
    results, ok = fiber_decomposition_check(act, FiniteField(5))
    assert ok
    trivial_sector = [r for r in results if r[0] > 0]
    assert trivial_sector == [(2, Fraction(2), True)]


def test_fiber_check_classifying_stack():
    act = trivial_action(cyclic_group(2))
    results, ok = fiber_decomposition_check(act, FiniteField(5))
    assert ok
    assert (1, Fraction(1), True) in results


# ---------------------------------------------------------------------------
# special groups


def test_special_group_sizes():
    f5 = FiniteField(5)
    assert SpecialGroup("Gm").size_over(f5) == 4
    assert SpecialGroup("Ga").size_over(f5) == 5
    R1 = make_ring(5, n=1)
    assert SpecialGroup("Gm").size_over(R1) == 20
    assert SpecialGroup("Ga").size_over(R1) == 25
    assert SpecialGroup("GL", 2).size_over(FiniteField(3)) == 48
    assert SpecialGroup("GL", 2).size_over(make_ring(3, n=1)) == 48 * 3**4


def test_gl2_f3_by_enumeration():
    assert count_invertible_matrices(2, FiniteField(3)) == 48


def test_special_group_elements_bound():
    R = make_ring(5, n=0)
    assert len(SpecialGroup("GL", 2).elements_over(R, bound=625)) == 480
    with pytest.raises(BoundExceeded, match="625 tuples exceeds bound 624$"):
        SpecialGroup("GL", 2).elements_over(R, bound=624)
    for kind in ("Ga", "Gm"):
        with pytest.raises(BoundExceeded, match="25 tuples exceeds bound 24$"):
            SpecialGroup(kind).elements_over(make_ring(5, n=1), bound=24)


def test_point_mod_gm():
    act = GroupAction(SpecialGroup("Gm"), POINT)
    assert stacky_count_special(act, FiniteField(5)) == Fraction(1, 4)
    assert stacky_count_special(act, make_ring(5, n=1)) == Fraction(1, 20)
    assert stacky_count_special(act, FiniteField(3)) == Fraction(1, 2)


def test_point_mod_gl2():
    act = GroupAction(SpecialGroup("GL", 2), POINT)
    assert stacky_count_special(act, FiniteField(3)) == Fraction(1, 48)


def test_unsupported_group_tag():
    with pytest.raises(UnsupportedStack):
        SpecialGroup("SL")
    with pytest.raises(UnsupportedStack):
        SpecialGroup("GL", 4)


def test_weighted_subset_count():
    assert weighted_subset_count([2, 3]) == Fraction(5, 6)
    assert weighted_subset_count([]) == 0
    with pytest.raises(ValueError):
        weighted_subset_count([2, 0])


def test_orbit_classes_scaling_action():
    # [A^1 / G_m] with lam . x = lam * x over Z/9
    names = ("x", "lam")
    act = GroupAction(
        SpecialGroup("Gm"),
        AffineScheme.affine_space("A1", ("x",)),
        (parse_poly("lam*x", names),),
    )
    spec = make_ring(3, n=1)
    classes = orbit_classes_special(act, spec)
    # strata: units (stab 1), ord-1 elements (stab 3 at level 1), zero
    data = sorted((size, stab) for _, size, stab in classes)
    assert data == [(1, 6), (2, 3), (6, 1)]
    # orbit-stabilizer consistency: weighted sum = |X|/|G|
    total = sum(Fraction(1, stab) for _, _, stab in classes)
    assert total == stacky_count_special(act, spec)


def test_identity_must_act_trivially():
    z2 = cyclic_group(2)
    x = MultiPoly.variable(("x",), "x")
    scheme = AffineScheme.affine_space("A1", ("x",))
    with pytest.raises(ValueError):
        GroupAction(z2, scheme, {"g0": (-x,), "g1": (x,)})


def test_compatibility_probe():
    act = negation_action(cyclic_group(2), ["x^2 - 1"])
    assert act.check_compatibility(FiniteField(5))
    # a non-homomorphic assignment: both non-identity elements of Z/4 * ...
    z4 = cyclic_group(4)
    x = MultiPoly.variable(("x",), "x")
    scheme = AffineScheme.affine_space("A1", ("x",))
    broken = GroupAction(
        z4, scheme, {"g0": (x,), "g1": (-x,), "g2": (x,), "g3": (x,)}
    )
    assert not broken.check_compatibility(FiniteField(5))


def test_finite_group_positive_level_unsupported():
    act = trivial_action(cyclic_group(2))
    assert stacky_count_finite_level(act, make_ring(5, n=0)) == 1
    with pytest.raises(UnsupportedStack):
        stacky_count_finite_level(act, make_ring(5, n=1))


def gm_orbit_data(action, spec):
    """Full orbits of the unit-group action with stabilizer orders."""
    from padicstacks.polyscheme import enumerate_points

    m = spec.int_modulus
    gelems = action.group.elements_over(spec)
    seen = set()
    orbits = []
    for x in enumerate_points(action.scheme, spec):
        if x in seen:
            continue
        orbit = set()
        stab = 0
        for gco in gelems:
            gx = action.apply_special_int(gco, x, m)
            orbit.add(gx)
            if gx == x:
                stab += 1
        seen |= orbit
        orbits.append((orbit, stab))
    return orbits


def test_smooth_stack_truncation_fiber_law():
    # for [X/G_m] with X smooth of dimension D, every truncation fiber of
    # classes has weighted size q^(D-1) * 1/|stab|, the stack dimension
    # convention being dim X - 1
    from fractions import Fraction as F

    cases = [
        (
            GroupAction(
                SpecialGroup("Gm"),
                AffineScheme.affine_space("A1", ("x",)),
                (parse_poly("lam*x", ("x", "lam")),),
            ),
            1,
        ),
        (
            GroupAction(
                SpecialGroup("Gm"),
                AffineScheme.affine_space("A2", ("x", "y")),
                (
                    parse_poly("lam*x", ("x", "y", "lam")),
                    parse_poly("lam*y", ("x", "y", "lam")),
                ),
            ),
            2,
        ),
    ]
    for action, D in cases:
        d = D - 1  # stack dimension
        for p in (2, 3):
            for n in (0, 1):
                lo = gm_orbit_data(action, make_ring(p, n=n))
                hi = gm_orbit_data(action, make_ring(p, n=n + 1))
                modulus = p ** (n + 1)
                for orbit, stab in lo:
                    fiber_weight = F(0)
                    for horbit, hstab in hi:
                        rep = next(iter(horbit))
                        if tuple(c % modulus for c in rep) in orbit:
                            fiber_weight += F(1, hstab)
                    assert fiber_weight == F(p**d, stab), (D, p, n)


def test_quotient_stack_dimension_convention():
    act = GroupAction(SpecialGroup("Gm"), POINT)
    assert QuotientStack("BGm", act).dim == -1
    a1 = GroupAction(
        SpecialGroup("Gm"),
        AffineScheme.affine_space("A1", ("x",)),
        (parse_poly("lam*x", ("x", "lam")),),
    )
    assert QuotientStack("A1modGm", a1).dim == 0
