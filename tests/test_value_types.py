"""The contract of the package's eleven immutable value types: construction by
position, keyword and default, the exact repr, equality and hash within one
class only, immutability, and no ordering."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest

from prismvol import (
    BraidWord,
    CaseResult,
    CoverCertificate,
    GroupPresentation,
    IntMatrix,
    MontesinosLink,
    Orbifold2D,
    SeifertSymbol,
    Slope,
    SurfaceData,
    VolumeConstant,
)
from prismvol.reader import Record

# (class, every field's argument in order, repr of the value they build);
# array fields are given as lists, so the repr also pins their normalisation
VALUES = [
    (
        SeifertSymbol,
        ("Oo", 0, [[1, 2], [-1, 3]]),
        "SeifertSymbol(base_class='Oo', genus=0, fibers=((1, 2), (-1, 3)))",
    ),
    (IntMatrix, (1, 2, [3, 4]), "IntMatrix(rows=1, cols=2, entries=(3, 4))"),
    (Slope, (1, -2), "Slope(p=-1, q=2)"),
    (SurfaceData, (0, 1, True), "SurfaceData(genus=0, boundary=1, orientable=True)"),
    (
        Orbifold2D,
        (True, 0, 0, [3, 2]),
        "Orbifold2D(orientable=True, genus=0, boundary=0, cones=(2, 3))",
    ),
    (
        CaseResult,
        (2, Orbifold2D(False, 1, 1, (2,)), Fraction(-1, 2), (), (6,)),
        "CaseResult(case=2, orbifold=Orbifold2D(orientable=False, genus=1, boundary=1, "
        "cones=(2,)), chi_orb=Fraction(-1, 2), degrees=(), chi_only_degrees=(6,))",
    ),
    (
        MontesinosLink,
        (0, [[1, 2], [1, 3]]),
        "MontesinosLink(genus=0, tangles=((1, 2), (1, 3)))",
    ),
    (BraidWord, (3, [1, -2]), "BraidWord(strands=3, letters=(1, -2))"),
    (
        GroupPresentation,
        (2, [[1, 2, -1]]),
        "GroupPresentation(generators=2, relators=((1, 2, -1),))",
    ),
    (VolumeConstant, ("v", 2.5, "p"), "VolumeConstant(name='v', value=2.5, provenance='p')"),
    (CoverCertificate, (2, 3.5, "x"), "CoverCertificate(degree=2, branch_volume=3.5, label='x')"),
]

FIELDS = {
    SeifertSymbol: ("base_class", "genus", "fibers"),
    IntMatrix: ("rows", "cols", "entries"),
    Slope: ("p", "q"),
    SurfaceData: ("genus", "boundary", "orientable"),
    Orbifold2D: ("orientable", "genus", "boundary", "cones"),
    CaseResult: ("case", "orbifold", "chi_orb", "degrees", "chi_only_degrees"),
    MontesinosLink: ("genus", "tangles"),
    BraidWord: ("strands", "letters"),
    GroupPresentation: ("generators", "relators"),
    VolumeConstant: ("name", "value", "provenance"),
    CoverCertificate: ("degree", "branch_volume", "label"),
}

by_class = pytest.mark.parametrize(
    "cls, args, text", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES]
)


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


@by_class
def test_repr_is_exact(cls, args, text):
    assert repr(cls(*args)) == text


@by_class
def test_equal_values_are_equal_and_hash_alike(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert len({a, b}) == 1


@by_class
def test_a_value_is_not_its_field_tuple(cls, args, text):
    value = cls(*args)
    assert value != _fields(value)
    assert _fields(value) != value
    assert value != list(_fields(value))


@by_class
def test_fields_can_be_neither_assigned_nor_deleted(cls, args, text):
    value = cls(*args)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


@by_class
def test_keyword_construction_matches_positional(cls, args, text):
    names = FIELDS[cls]
    assert cls(**dict(zip(names, args))) == cls(*args)
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == cls(*args)


def test_class_patterns_match_fields_in_order():
    match Slope(1, -2), SurfaceData(2, 1):
        case Slope(p, q), SurfaceData(genus, boundary, orientable=True):
            assert (p, q, genus, boundary) == (-1, 2, 2, 1)
        case _:
            pytest.fail("no class pattern matched")


def test_defaults():
    assert SurfaceData(0, 1) == SurfaceData(0, 1, True) == SurfaceData(genus=0, boundary=1)
    assert Orbifold2D(True, 0, 0) == Orbifold2D(True, 0, 0, ())
    assert Orbifold2D(True, 0, 0).cones == ()


@by_class
def test_a_missing_extra_or_repeated_argument_is_a_type_error(cls, args, text):
    names = FIELDS[cls]
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args[:1])
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(*args, extra=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})


@by_class
def test_copies_and_pickles_are_equal(cls, args, text):
    value = cls(*args)
    assert copy.copy(value) == copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_slopes_are_not_ordered(compare):
    for a, b in [(Slope(1, 2), Slope(1, 3)), (Slope(1, 0), Slope(1, 0))]:
        with pytest.raises(TypeError):
            compare(a, b)


def test_a_record_class_takes_no_order_option():
    with pytest.raises(TypeError):

        class Ordered(Record, order=True):
            x: int


def test_only_slopes_of_one_class_compare():
    with pytest.raises(TypeError):
        Slope(1, 2) < SurfaceData(0, 1)
    with pytest.raises(TypeError):
        Slope(1, 2) >= (1, 2)
    with pytest.raises(TypeError):
        SurfaceData(0, 1) < SurfaceData(0, 2)
    assert Slope(1, 2) != SurfaceData(0, 1)
