"""The package's record types behave as immutable values: equal by field
values within one class, hashable when every field is, shown in the form
ClassName(field=value, ...), closed to assignment and deletion, and copied
or pickled back through their own checks.  None of them is a tuple."""

import copy
import pickle

import pytest

from qleech.lattices import ReducedBasis, ShortVectorCount, ThetaCheck, ThetaRow
from qleech.lorentz import GramMatrix, LorentzVector
from qleech.observations import CannonballSolution, CongruenceReport
from qleech.qseries import LaurentSeries

A2 = ((2, -1), (-1, 2))
MEMBER = (2, 2) + (0,) * 24


def sample(kind):
    """A fresh instance of each record type, with its field values."""
    counts = ShortVectorCount(2, {1: 0, 2: 6})
    row = ThetaRow(2, 6, 6, True)
    cls, fields = {
        "series": (LaurentSeries, (-1, 2, (1, 0, 744))),
        "vector": (LorentzVector, (MEMBER,)),
        "gram": (GramMatrix, (2, A2)),
        "reduced": (ReducedBasis, (GramMatrix(2, A2), ((1, 0), (0, 1)))),
        "counts": (ShortVectorCount, (2, {1: 0, 2: 6})),
        "row": (ThetaRow, (2, 6, 6, True)),
        "check": (ThetaCheck, ("a2", None, counts, (row,), True)),
        "report": (CongruenceReport, ("j", -1, 0, 70, 553537, 47)),
        "cannonball": (CannonballSolution, (24, 70)),
    }[kind]
    return cls(*fields), fields


FIELDS = {
    "series": ("valuation", "order", "coeffs"),
    "vector": ("doubled",),
    "gram": ("dim", "entries"),
    "reduced": ("gram", "transform"),
    "counts": ("max_norm", "counts"),
    "row": ("norm", "enumerated", "series_coefficient", "matches"),
    "check": ("lattice", "combination", "counts", "rows", "ok"),
    "report": ("sequence", "lo", "hi", "modulus", "sum_of_squares", "residue"),
    "cannonball": ("n", "m"),
}
KINDS = list(FIELDS)
# a dict field makes the record unhashable, as a dict is
UNHASHABLE = {"counts", "check"}

REPRS = {
    "series": "LaurentSeries(valuation=-1, order=2, coeffs=(1, 0, 744))",
    "vector": f"LorentzVector(doubled={MEMBER!r})",
    "gram": "GramMatrix(dim=2, entries=((2, -1), (-1, 2)))",
    "reduced": (
        "ReducedBasis(gram=GramMatrix(dim=2, entries=((2, -1), (-1, 2))),"
        " transform=((1, 0), (0, 1)))"
    ),
    "counts": "ShortVectorCount(max_norm=2, counts={1: 0, 2: 6})",
    "row": "ThetaRow(norm=2, enumerated=6, series_coefficient=6, matches=True)",
    "check": (
        "ThetaCheck(lattice='a2', combination=None,"
        " counts=ShortVectorCount(max_norm=2, counts={1: 0, 2: 6}),"
        " rows=(ThetaRow(norm=2, enumerated=6, series_coefficient=6, matches=True),), ok=True)"
    ),
    "report": (
        "CongruenceReport(sequence='j', lo=-1, hi=0, modulus=70, sum_of_squares=553537, residue=47)"
    ),
    "cannonball": "CannonballSolution(n=24, m=70)",
}


@pytest.mark.parametrize("kind", KINDS)
def test_equal_values_are_equal_and_hash_alike(kind):
    (a, _), (b, _) = sample(kind), sample(kind)
    assert a is not b and a == b and not a != b
    if kind in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_unequal_to_a_tuple_of_its_values(kind):
    value, fields = sample(kind)
    assert value != fields and fields != value
    assert value != list(fields)


@pytest.mark.parametrize("kind", KINDS)
def test_repr_is_pinned(kind):
    assert repr(sample(kind)[0]) == REPRS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_fields_can_be_neither_assigned_nor_deleted(kind):
    value, fields = sample(kind)
    assert tuple(getattr(value, name) for name in FIELDS[kind]) == fields
    for name in FIELDS[kind]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == sample(kind)[0]


@pytest.mark.parametrize("kind", KINDS)
def test_copies_and_pickles_compare_equal(kind):
    value, _ = sample(kind)
    pickled = (pickle.dumps(value, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
    for twin in (copy.copy(value), copy.deepcopy(value), *map(pickle.loads, pickled)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


@pytest.mark.parametrize("kind", ["series", "vector", "gram"])
def test_no_sequence_or_ordering_behaviour(kind):
    value, _ = sample(kind)
    for op in (
        lambda x: 3 * x,
        lambda x: (1, 2) + x,
        len,
        lambda x: x[0],
        iter,
        lambda x: x < x,
    ):
        with pytest.raises(TypeError):
            op(value)


@pytest.mark.parametrize("kind", KINDS)
def test_a_wrong_number_of_values_is_refused(kind):
    # the base counts the values against the slots before it sets any
    value, fields = sample(kind)
    name, size = type(value).__name__, len(fields)
    for wrong in (fields[:-1], (*fields, None)):
        with pytest.raises(TypeError, match=rf"^{name} takes {size} values$"):
            type(value)(*wrong)
