"""Results and syntax trees are value records (`rings.record`): built by
position or keyword, equal and hashed by their fields within one class,
frozen where the tree relies on hashing, and printed as Name(field=...)."""

import pytest

from padicstacks.definable import (
    And,
    Or,
    OrdAtom,
    RAdd,
    RConst,
    ResAtom,
    RMul,
    _compile,
    parse_formula,
)
from padicstacks.measures import MeasureResult, SeriesTable, TauImageProfile
from padicstacks.polyscheme import AffineScheme, parse_poly
from padicstacks.project import FormulaEntry, ProjectFile
from padicstacks.rings import INFINITY, make_ring, record
from padicstacks.stacks import SpecialGroup, UnsupportedStack

X = parse_poly("x", ("x",))
X_IS_0 = OrdAtom(X, "==", ("const", INFINITY))


def test_equal_fields_in_different_classes_are_not_equal():
    a, b = X_IS_0, OrdAtom(X, ">=", ("const", 1))
    assert And(a, b) == And(a, b) and Or(a, b) == Or(a, b)
    assert And(a, b) != Or(a, b)
    one, two = RConst(1), RConst(2)
    assert RAdd(one, two) != RMul(one, two)
    assert RAdd(one, two) != RAdd(two, one)


def test_frozen_records_hash_by_fields_and_refuse_assignment():
    a = And(X_IS_0, OrdAtom(X, "==", ("const", INFINITY)))
    b = And(OrdAtom(X, "==", ("const", INFINITY)), X_IS_0)
    assert a is not b and hash(a) == hash(b) and len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.left = X_IS_0
    with pytest.raises(AttributeError):
        del a.left
    with pytest.raises(AttributeError):
        SpecialGroup("Gm").k = 2
    assert a.left == X_IS_0


def test_plain_records_are_unhashable_and_mutable():
    profile = TauImageProfile(1, 2, 3, 0, 0)
    with pytest.raises(TypeError):
        hash(profile)
    profile.unknown = 4
    assert profile == TauImageProfile(1, 2, 3, 0, 4)


def test_construction_by_position_and_keyword():
    assert ResAtom(RConst(1), RConst(2)) == ResAtom(right=RConst(2), left=RConst(1))
    assert OrdAtom(X, "==", ("const", 1)) == OrdAtom(X, rhs=("const", 1), op="==")
    with pytest.raises(TypeError, match="missing .*'right'"):
        ResAtom(RConst(1))
    with pytest.raises(TypeError, match="unexpected .*'middle'"):
        ResAtom(RConst(1), RConst(2), middle=RConst(3))
    with pytest.raises(TypeError, match="multiple values for .*'left'"):
        ResAtom(RConst(1), RConst(2), left=RConst(3))
    with pytest.raises(TypeError, match="takes .*3"):
        OrdAtom(X, "==", ("const", 1), True)


def test_defaults():
    assert SpecialGroup("Gm").k == 1
    m = MeasureResult(1, "STABILIZED", [0], [1])
    assert (m.stabilized_at, m.lower, m.upper) == (None, None, None)
    s = SeriesTable("p", "X", 5, [1])
    assert (s.exact, s.unknown, s.unknown_down) == (True, None, None)
    assert FormulaEntry("f", "A1", 1, "x == 0", None).bad_primes == ()


def test_project_file_dicts_are_not_shared():
    a, b = ProjectFile(), ProjectFile()
    a.rings["r"] = 1
    a.defaults["bound"] = 2
    assert b.rings == {} and b.defaults == {}
    assert a.schemes is not b.schemes
    assert ProjectFile().rings == {}


def test_post_init_normalises_and_validates():
    s = AffineScheme("A1", ["x"], [X], 1)
    assert s.variables == ("x",) and s.generators == (X,)
    assert s == AffineScheme("A1", ("x",), (X,), 1)
    with pytest.raises(ValueError, match="declared dim 2 outside"):
        AffineScheme("A1", ("x",), (), 2)
    with pytest.raises(ValueError, match="wrong variable list"):
        AffineScheme("A2", ("x", "y"), (X,), 1)
    with pytest.raises(UnsupportedStack):
        SpecialGroup("GL", 4)


def test_repr():
    assert repr(RConst(3)) == "RConst(value=3)"
    assert repr(ResAtom(RConst(1), RConst(2))) == (
        "ResAtom(left=RConst(value=1), right=RConst(value=2))")
    assert repr(X_IS_0) == "OrdAtom(poly=MultiPoly('x'), op='==', rhs=('const', INFINITY))"
    assert repr(SpecialGroup("Gm")) == "SpecialGroup(kind='Gm', k=1)"


def test_structurally_equal_atoms_share_one_exact_atom_position():
    formula = parse_formula("x == 0 && (ord(x) >= 1 || x == 0)", ("x",))
    assert formula.left == formula.right.right and formula.left is not formula.right.right
    _, exact_atoms = _compile(formula, make_ring(3, n=1))
    assert len(exact_atoms) == 1


def test_record_fields_follow_annotation_order():
    @record(frozen=True)
    class Point:
        x: int
        y: int = 0

    assert Point._fields == ("x", "y")
    assert Point(1) == Point(x=1, y=0) and Point(1) != (1, 0)
    assert repr(Point(1, 2)) == "test_record_fields_follow_annotation_order.<locals>.Point(x=1, y=2)"
