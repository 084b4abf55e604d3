"""The contract of `Record`, checked on an example of every record type."""

from fractions import Fraction

import pytest

from conftest import A, graph_from_fixture
from lielimits.algebras import SimpleAlgebra
from lielimits.index import (Diagonal, Embedding, General, ModuleDecomposition, SemisimpleAlgebra,
                             Standard, Summand, decomposition)
from lielimits.oracle import WeightMultiset
from lielimits.record import Record
from lielimits.socle import (ConstituentSocle, ExtendedDim, InvariantsReport, IsotypicRow,
                             SocleReport, SubsetInvariants)
from lielimits.subspaces import EvConstFunctional, StandardForm, SubspaceDescriptor, Verdict
from lielimits.system import BratteliGraph, Constituent, LevelSpec, RefinementReport

A1, A2, A3 = A(1), A(2), A(3)
ONE = SemisimpleAlgebra((A1,))
DOUBLED = decomposition([A1], [(((1,),), 2)])
FIVE = ExtendedDim("finite", 5, None, True, (5, 5, 5))
S2 = graph_from_fixture("s2.json")

# Every positional argument of each record type's constructor, optional ones included.
EXAMPLES = {
    SimpleAlgebra: ("B", 3),
    SemisimpleAlgebra: ((A1, A2),),
    Summand: (((1,), (0, 1)), 2),
    ModuleDecomposition: (ONE, (Summand(((1,),), 2),)),
    Embedding: (ONE, A3, DOUBLED),
    Standard: (True,),
    Diagonal: (2, 1, 0),
    General: (),
    WeightMultiset: (A1, (((-1,), 1), ((1,), 1))),
    ExtendedDim: ("countable", None, 7, True, (3, 5, 7)),
    ConstituentSocle: (0, "SlInf", None, 1, 0, FIVE, FIVE),
    IsotypicRow: (1, "A1", (1,), 2),
    SocleReport: ((), (), FIVE, FIVE),
    SubsetInvariants: ((0, 1), FIVE, FIVE, FIVE, FIVE),
    InvariantsReport: (((0, 1, 0),), ()),
    EvConstFunctional: ((1, 2), 0),
    StandardForm: ("symplectic",),
    SubspaceDescriptor: ("V", 3, [[1, 2, 0]], False),
    Verdict: ("gl", "ia", True, "the commutator", None, None, None, ((1, Fraction(1, 2)),)),
    LevelSpec: (ONE, A3, DOUBLED, DOUBLED),
    BratteliGraph: (S2.levels, S2.edges, S2.alpha, S2.beta),
    Constituent: (0, "SlInf", None, ((1, 0), (2, 0)), True),
    RefinementReport: (((1, 0), (2, 0)), (A1, A3), (True,), 1),
}
# Types whose every field has a default.
ALL_DEFAULT = {Standard, General}
TYPES = list(EXAMPLES)
IDS = [cls.__name__ for cls in TYPES]


def test_every_record_type_has_an_example():
    library = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("lielimits.")}
    assert library == set(EXAMPLES)
    assert len(library) == 23


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = cls(*EXAMPLES[cls]), cls(*EXAMPLES[cls])
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_records_of_different_types_are_unequal():
    class Left(Record):
        x: int

    class Right(Record):
        x: int

    assert Left(1) != Right(1) and not Left(1) == Right(1) and Left(1) == Left(1)
    assert Left(1) != (1,) and Left(1) != 1
    records = [cls(*args) for cls, args in EXAMPLES.items()]
    assert all((a == b) == (i == j) for i, a in enumerate(records) for j, b in enumerate(records))
    assert Standard() != General() and Standard(dual=False) == Standard()


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(*EXAMPLES[cls])
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, name)
    assert record == cls(*EXAMPLES[cls])


# The CLI prints a subspace descriptor's own repr as `witness subspace: ...`.
GENERIC_REPR = [cls for cls in TYPES if cls is not SubspaceDescriptor]


@pytest.mark.parametrize("cls", GENERIC_REPR, ids=[cls.__name__ for cls in GENERIC_REPR])
def test_repr_names_the_class_and_its_fields(cls):
    record = cls(*EXAMPLES[cls])
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__qualname__}({fields})"


def test_repr_examples():
    assert repr(A1) == "SimpleAlgebra(series='A', rank=1)"
    assert repr(Summand(((1,),))) == "Summand(weights=((1,),), mult=1)"
    assert repr(General()) == "General()"


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_bad_arguments_raise_type_error(cls):
    args = EXAMPLES[cls]
    with pytest.raises(TypeError):
        cls(*args, None)  # one positional argument too many
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    if cls._fields:
        with pytest.raises(TypeError):
            cls(*args, **{cls._fields[0]: args[0]})  # given twice
    if cls not in ALL_DEFAULT:
        with pytest.raises(TypeError):
            cls()


def test_generic_constructor_messages():
    with pytest.raises(TypeError, match=r"^IsotypicRow\(\) takes the fields \(cid, algebra, weight, "
                                        r"mult\), got 2 by position and \(\) by name$"):
        IsotypicRow(1, "A1")
    with pytest.raises(TypeError, match=r"got 0 by position and \(dual, colour\) by name$"):
        Standard(dual=True, colour="red")


def test_defaults_apply_when_left_out():
    assert Summand(((1,),)).mult == 1
    assert LevelSpec(ONE, A3, DOUBLED).conatural_branching is None
    countable = ExtendedDim("countable")
    assert (countable.value, countable.lower_bound, countable.tail_assumed, countable.evidence) == (
        None, None, False, ())
    assert ExtendedDim("finite", evidence=(1,)) == ExtendedDim("finite", None, None, False, (1,))
    assert Standard().dual is False
    verdict = Verdict("gl", "ia", True, "the commutator")
    assert (verdict.subspace, verdict.perp_space, verdict.witness, verdict.witness_vector) == (None,) * 4


def test_derived_attributes_are_not_fields():
    level = LevelSpec(*EXAMPLES[LevelSpec])
    assert level.embedding == Embedding(ONE, A3, DOUBLED) and "embedding" not in repr(level)
    assert BratteliGraph._fields == ("levels", "edges")
    assert S2.succ and "alpha" not in repr(S2)
    with pytest.raises(AttributeError):
        level.embedding = None
