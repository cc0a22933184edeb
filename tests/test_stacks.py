import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from padicstacks import rings, stacks
from padicstacks.polyscheme import AffineScheme, MultiPoly, enumerate_points, parse_poly
from padicstacks.project import load_project
from padicstacks.rings import BoundExceeded, FiniteField, LocalRingSpec, make_ring
from padicstacks.stacks import (
    FiniteGroupData,
    GroupAction,
    GroupDataError,
    QuotientStack,
    SpecialGroup,
    UnsupportedStack,
    cyclic_group,
    fiber_decomposition_check,
    groupoid_classes_finite,
    klein_four_group,
    stacky_count,
    stacky_count_finite,
    stacky_count_special,
    symmetric_group_3,
    twisted_sector_count,
    weighted_subset_count,
)
from stack_oracles import (
    count_invertible_matrices,
    ff_apply,
    ff_fiber_check,
    ff_groupoid_classes,
    ff_points,
    ff_stacky_count,
    group_elements,
    orbit_classes_special,
    special_orbits,
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
            fld = make_ring(q)
            assert stacky_count_finite(trivial_action(group), fld) == 1, (name, q)


def test_trivial_group_on_point():
    fld = make_ring(5)
    assert stacky_count_finite(trivial_action(cyclic_group(1)), fld) == 1


def test_free_negation_action_q5():
    # X = {x^2 = 1}, Z/2 acting by x -> -x: one orbit, no automorphisms
    act = negation_action(cyclic_group(2), ["x^2 - 1"])
    fld = make_ring(5)
    assert twisted_sector_count(act, fld, "g0") == 2
    assert twisted_sector_count(act, fld, "g1") == 0
    assert stacky_count_finite(act, fld) == 1
    # free-action collapse to |X(F_q)| / |G| holds here
    assert stacky_count_finite(act, fld) == Fraction(2, 2)


def test_twisted_sector_with_no_rational_points():
    # X = {x^2 = -1} over F_3 is empty, but the twisted sector sees the
    # conjugate pair in F_9; the stack still has one point
    act = negation_action(cyclic_group(2), ["x^2 + 1"])
    fld = make_ring(3)
    assert twisted_sector_count(act, fld, "g0") == 0
    assert twisted_sector_count(act, fld, "g1") == 2
    assert stacky_count_finite(act, fld) == 1


@pytest.mark.parametrize("p, r", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_twisted_sector_frobenius_raises_to_q(p, r):
    # the twist of A1 by x -> -x is A1 again: q points x of F_(q^2) with
    # x^q = -x.  The demo stacks live on points of F_p, where x^p = x^q,
    # so only a sector with points outside F_p tells the two apart
    x = MultiPoly.variable(("x",), "x")
    act = GroupAction(cyclic_group(2), AffineScheme.affine_space("A1", ("x",)),
                      {"g0": (x,), "g1": (-x,)})
    ring, q = make_ring(p, r=r), p**r
    assert twisted_sector_count(act, ring, "g0") == twisted_sector_count(act, ring, "g1") == q
    assert stacky_count_finite(act, ring) == q == ff_stacky_count(act, FiniteField(p, r))


def burnside_stable_orbits(action, ring):
    """Descent oracle for free actions: Frobenius-stable G-orbits inside
    X over the degree-exponent extension, on FFElement arithmetic."""
    group = action.group
    ext = FiniteField(ring.p, ring.r * group.exponent())
    q = ring.size
    orbits = []
    seen = set()
    for x in ff_points(action.scheme, ext):
        if x in seen:
            continue
        orbit = {ff_apply(action, g, x, ext) for g in group.labels}
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
        (negation_action(cyclic_group(2), ["x^2 - 1"]), make_ring(5)),
        (negation_action(cyclic_group(2), ["x^2 + 1"]), make_ring(3)),
        (negation_action(cyclic_group(2), ["x^2 - 2"]), make_ring(5)),
    ]
    for act, fld in cases:
        assert stacky_count_finite(act, fld) == burnside_stable_orbits(act, fld)


def test_groupoid_classes_recompose_the_count():
    # compatibility with the weighted-count formula: recompute the total
    # from orbit/automorphism data
    for act, fld in [
        (trivial_action(GROUP_ZOO["S3"]), make_ring(5)),
        (negation_action(cyclic_group(2), ["x^2 - 1"]), make_ring(5)),
        (negation_action(cyclic_group(2), ["x^2 + 1"]), make_ring(3)),
        (trivial_action(GROUP_ZOO["Klein"]), make_ring(7)),
    ]:
        classes = groupoid_classes_finite(act, fld)
        recomposed = weighted_subset_count(aut for _, _, aut in classes)
        assert recomposed == stacky_count_finite(act, fld)


# ---------------------------------------------------------------------------
# fiber decomposition


def test_fiber_check_trivial_group():
    act = trivial_action(cyclic_group(1), AffineScheme.from_text("c", ("x", "y"), ["x^2 + y^2 - 1"], 1))
    results, ok = fiber_decomposition_check(act, make_ring(5))
    assert ok
    assert all(lhs == 1 for lhs, _, _ in results)


def test_fiber_check_free_action():
    act = negation_action(cyclic_group(2), ["x^2 - 1"])
    results, ok = fiber_decomposition_check(act, make_ring(5))
    assert ok
    trivial_sector = [r for r in results if r[0] > 0]
    assert trivial_sector == [(2, Fraction(2), True)]


def test_fiber_check_classifying_stack():
    act = trivial_action(cyclic_group(2))
    results, ok = fiber_decomposition_check(act, make_ring(5))
    assert ok
    assert (1, Fraction(1), True) in results


# ---------------------------------------------------------------------------
# special groups


def test_special_group_sizes():
    f5 = make_ring(5)
    assert SpecialGroup("Gm").size_over(f5) == 4
    assert SpecialGroup("Ga").size_over(f5) == 5
    R1 = make_ring(5, n=1)
    assert SpecialGroup("Gm").size_over(R1) == 20
    assert SpecialGroup("Ga").size_over(R1) == 25
    assert SpecialGroup("GL", 2).size_over(make_ring(3)) == 48
    assert SpecialGroup("GL", 2).size_over(make_ring(3, n=1)) == 48 * 3**4


def test_gl2_f3_by_enumeration():
    assert count_invertible_matrices(2, make_ring(3)) == 48


def test_special_group_elements_bound():
    R = make_ring(5, n=0)
    assert len(group_elements(SpecialGroup("GL", 2), R, bound=625)) == 480
    with pytest.raises(BoundExceeded, match="625 tuples exceeds bound 624$"):
        group_elements(SpecialGroup("GL", 2), R, bound=624)
    for kind in ("Ga", "Gm"):
        with pytest.raises(BoundExceeded, match="25 tuples exceeds bound 24$"):
            group_elements(SpecialGroup(kind), make_ring(5, n=1), bound=24)


def test_point_mod_gm():
    act = GroupAction(SpecialGroup("Gm"), POINT)
    assert stacky_count_special(act, make_ring(5)) == Fraction(1, 4)
    assert stacky_count_special(act, make_ring(5, n=1)) == Fraction(1, 20)
    assert stacky_count_special(act, make_ring(3)) == Fraction(1, 2)


def test_point_mod_gl2():
    act = GroupAction(SpecialGroup("GL", 2), POINT)
    assert stacky_count_special(act, make_ring(3)) == Fraction(1, 48)


def test_conic_mod_gm_over_prime_ring_counts_by_lifting():
    # brute force over Z/5^6 would try 5^12 tuples, over the default bound
    conic = AffineScheme.from_text("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1)
    stack = QuotientStack("conic_mod_Gm", GroupAction(SpecialGroup("Gm"), conic))
    # every residue point of the conic is smooth, so each has 5^5 lifts
    residue = len(list(enumerate_points(conic, make_ring(5))))
    closed_form = Fraction(residue * 5**5, 5**6 - 5**5)  # |conic| / |G_m|
    assert stacky_count_special(stack, make_ring(5, n=5)) == closed_form == 1
    assert stacky_count(stack, make_ring(5, n=5)) == 1


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


def test_action_needs_one_substitution_per_variable():
    conic = AffineScheme.from_text("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1)
    names = ("x", "y", "lam")
    with pytest.raises(ValueError, match="needs one polynomial per scheme variable"):
        GroupAction(SpecialGroup("Gm"), conic, (parse_poly("lam*x", names),))
    z3 = cyclic_group(3)
    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    with pytest.raises(ValueError, match="substitution for 'g1' has wrong arity"):
        GroupAction(z3, conic, {"g1": (x,), "g2": (x, y)})
    with pytest.raises(ValueError, match="no substitution for group element 'g2'"):
        GroupAction(z3, conic, {"g1": (x, y)})
    # the identity may be left out: it acts trivially
    assert GroupAction(z3, conic, {"g1": (x, y), "g2": (x, y)}).polys["g0"] == (x, y)


def test_compatibility_probe():
    act = negation_action(cyclic_group(2), ["x^2 - 1"])
    assert act.check_compatibility(make_ring(5))
    # a non-homomorphic assignment: both non-identity elements of Z/4 * ...
    z4 = cyclic_group(4)
    x = MultiPoly.variable(("x",), "x")
    scheme = AffineScheme.affine_space("A1", ("x",))
    broken = GroupAction(
        z4, scheme, {"g0": (x,), "g1": (-x,), "g2": (x,), "g3": (x,)}
    )
    assert not broken.check_compatibility(make_ring(5))


def test_actions_compile_once_per_element_and_ring(monkeypatch):
    # g's polynomials are compiled once for each ring they act over, not
    # at every point: the swap of A2 compiles as often over F_5 (625
    # points in its twisted sector, over F_25) as over F_3 (81)
    real, calls = LocalRingSpec.compile, []

    def counted(self, poly):
        calls.append(poly)
        return real(self, poly)

    monkeypatch.setattr(LocalRingSpec, "compile", counted)
    plane = AffineScheme.affine_space("A2", ("x", "y"))
    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    made = []
    for p in (3, 5):
        action = GroupAction(cyclic_group(2), plane, {"g1": (y, x)})
        calls.clear()
        assert stacky_count(QuotientStack("swap", action), make_ring(p)) == p * p
        # q(q+1)/2 orbits in each of the two sectors
        assert len(groupoid_classes_finite(action, make_ring(p))) == p * (p + 1)
        assert action.check_compatibility(make_ring(p))
        made.append(len(calls))
    assert made[0] == made[1]


def test_compatibility_probe_refuses_special_group_before_enumerating():
    # the conic has 25 candidate tuples over F_5, over the bound of 3: the
    # refusal names the group, not the enumeration it never starts
    conic = AffineScheme.from_text("conic", ("x", "y"), ["x^2 + y^2 - 1"], 1)
    act = GroupAction(SpecialGroup("Gm"), conic)
    with pytest.raises(UnsupportedStack, match="finite groups"):
        act.check_compatibility(make_ring(5), bound=3)


def test_finite_group_positive_level_unsupported():
    stack = QuotientStack("BZ2", trivial_action(cyclic_group(2)))
    assert stacky_count(stack, make_ring(5, n=0)) == 1
    with pytest.raises(UnsupportedStack):
        stacky_count(stack, make_ring(5, n=1))


DEMO = load_project(str(Path(__file__).resolve().parent / "data" / "demo.project"))
DEMO_FINITE_STACKS = ("BS3", "pm1_mod_Z2")


def _as_ff(x, ring, g, group):
    """A sector point of the library, read as FFElements of F_(q^ord(g))."""
    ext = make_ring(ring.p, r=ring.r * group.element_order(g))
    return tuple(ext.residue(c) for c in x)


# q = 2, 3, 4, 5, 7, 8, 9, 25, 27
@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                  (5, 2), (3, 3)])
@pytest.mark.parametrize("name", DEMO_FINITE_STACKS)
def test_twisted_sectors_match_the_finite_field_oracle(name, p, r):
    # the library lists and evaluates on level-0 rings through their
    # compile; the oracle on FFElements with eval_elements and c**q
    action = DEMO.stack(name).action
    group = action.group
    assert not action.is_special
    ring, fld = make_ring(p, r=r), FiniteField(p, r)
    assert stacky_count_finite(action, ring) == ff_stacky_count(action, fld)
    got = [((g, _as_ff(x, ring, g, group)), size, aut)
           for (g, x), size, aut in groupoid_classes_finite(action, ring)]
    assert got == ff_groupoid_classes(action, fld)
    assert fiber_decomposition_check(action, ring) == ff_fiber_check(action, fld)
    assert action.check_compatibility(ring)


S3 = symmetric_group_3()
XYZ = ("x", "y", "z")


def s3_permuting(scheme, coords, negate_odd=False):
    """S3 permuting three coordinates, polynomials in the scheme's variables
    (which are the first ones): g sends coordinate i to coordinate g^(-1)(i)
    of symmetric_group_3's one-line labels, negated for a transposition
    when `negate_odd`."""
    polys = {}
    for g in S3.labels:
        sign = -1 if negate_odd and S3.element_order(g) == 2 else 1
        polys[g] = tuple(sign * coords[g.index(str(i))] for i in range(scheme.n_vars))
    return GroupAction(S3, scheme, polys)


def s3_on_xyz(negate_odd=False):
    scheme = AffineScheme.from_text("xyz1", XYZ, ["x*y*z - 1"], 2)
    return s3_permuting(scheme, [MultiPoly.variable(XYZ, v) for v in XYZ], negate_odd)


def s3_on_hexagonal_conic():
    # S3 permutes (x, y, -x - y), whose sum is 0, and keeps x^2 + x*y + y^2
    scheme = AffineScheme.from_text("hex", ("x", "y"), ["x^2 + x*y + y^2 - 1"], 1)
    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    return s3_permuting(scheme, [x, y, -x - y])


# sector sizes per conjugacy class: identity, 3-cycles, transpositions
@pytest.mark.parametrize("make, p, sectors", [(s3_on_xyz, 2, [1, 7, 3]),
                                              (s3_on_hexagonal_conic, 2, [3, 3, 1]),
                                              (s3_on_hexagonal_conic, 3, [6, 6, 0])])
def test_non_abelian_sectors_match_the_finite_field_oracle(make, p, sectors):
    # the classes' sectors differ, so a count that reads one sector per
    # class must weight it by the class size, and a groupoid class must
    # be read in its conjugacy class's first sector
    action, ring, fld = make(), make_ring(p), FiniteField(p, 1)
    assert action.check_compatibility(ring)
    classes = S3.conjugacy_classes()
    assert [{twisted_sector_count(action, ring, g) for g in cls} for cls in classes] == [
        {n} for n in sectors]
    assert stacky_count_finite(action, ring) == ff_stacky_count(action, fld)
    got = [((g, _as_ff(x, ring, g, S3)), size, aut)
           for (g, x), size, aut in groupoid_classes_finite(action, ring)]
    assert got == ff_groupoid_classes(action, fld)
    assert fiber_decomposition_check(action, ring) == ff_fiber_check(action, fld)


def test_finite_counts_read_one_sector_per_conjugacy_class(monkeypatch):
    counted, listed = [], []
    real_count, real_points = stacks.twisted_sector_count, stacks._twisted_points

    def count(action, ring, g, bound=None):
        counted.append(g)
        return real_count(action, ring, g, bound)

    def points(action, ring, g, ext, bound):
        listed.append(g)
        return real_points(action, ring, g, ext, bound)

    monkeypatch.setattr(stacks, "twisted_sector_count", count)
    monkeypatch.setattr(stacks, "_twisted_points", points)
    action, ring = s3_on_xyz(), make_ring(2)
    assert stacky_count_finite(action, ring) == Fraction(1 + 2 * 7 + 3 * 3, 6)
    assert counted == ["012", "120", "021"]
    listed.clear()
    groupoid_classes_finite(action, ring)
    assert listed == ["012", "120", "021"]
    assert S3.centralizer("120") == ("012", "120", "201")
    assert S3.centralizer("021") == ("012", "021")


def test_compatibility_probe_checks_that_the_action_preserves_x():
    # negating the transpositions composes as S3 does, but sends x*y*z = 1
    # to x*y*z = -1: off X over F_3, and back on it over F_2, where -1 = 1
    assert not s3_on_xyz(negate_odd=True).check_compatibility(make_ring(3))
    assert s3_on_xyz(negate_odd=True).check_compatibility(make_ring(2))
    assert s3_on_xyz().check_compatibility(make_ring(3))


def test_prime_field_points_are_ints():
    # over F_p the level-0 coordinates are plain ints; the action and
    # Frobenius are the ring's compiled polynomials, never c**q on a value
    stack = DEMO.stack("pm1_mod_Z2")
    assert stacky_count(stack, DEMO.ring("p3n0")) == 1
    classes = groupoid_classes_finite(stack.action, make_ring(3))
    assert classes == [(("e", (1,)), 2, 1)]
    assert stack.action.apply_finite_field("s", (1,), make_ring(3)) == (2,)


def test_ramified_level_0_ring_is_its_residue_field():
    ram3 = DEMO.ring("ram3")
    for name in DEMO_FINITE_STACKS:
        stack = DEMO.stack(name)
        assert stacky_count(stack, ram3.at_level(0)) == stacky_count(stack, make_ring(3))
        with pytest.raises(UnsupportedStack, match="positive-level"):
            stacky_count(stack, ram3)


def test_fiber_check_on_a_field_with_another_modulus():
    # X(F_q) and the identity sector are listed on one field, whatever
    # residue modulus the given ring was built with
    action = DEMO.stack("pm1_mod_Z2").action
    other = make_ring(3, r=2, residue_modulus=(2, 1, 1))
    assert other != make_ring(3, r=2)
    assert fiber_decomposition_check(action, other) == ([(2, Fraction(2), True)], True)


def test_stack_on_a_point_lists_no_ring(monkeypatch):
    # BS3 lives on pt: over q = 1000003 its order-3 sector's field has
    # about 10^18 elements, and none of them is needed
    def refuse(self, bound=None):
        raise AssertionError("a scheme without variables listed its ring")

    monkeypatch.setattr(LocalRingSpec, "elements", refuse)
    monkeypatch.setattr(FiniteField, "elements", refuse)
    assert stacky_count(DEMO.stack("BS3"), make_ring(1000003)) == 1
    assert stacky_count(DEMO.stack("BS3"), make_ring(3, r=4)) == 1
    assert list(enumerate_points(POINT, make_ring(2, r=61))) == [()]


def test_listing_honours_the_callers_bound(monkeypatch):
    # the listing inside enumerate_points is held to the caller's bound,
    # not to the default one
    monkeypatch.setattr(rings, "DEFAULT_BOUND", 10)
    A1 = AffineScheme.affine_space("A1", ("x",))
    for ring in (make_ring(5, r=2), make_ring(5, n=1)):
        assert len(list(enumerate_points(A1, ring, bound=30))) == 25
        with pytest.raises(BoundExceeded, match="bound 10$"):
            list(enumerate_points(A1, ring))


def gm_orbit_data(action, spec):
    """Full orbits of the unit-group action with stabilizer orders."""
    return [(orbit, stab) for _, orbit, stab in special_orbits(action, spec)]


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
