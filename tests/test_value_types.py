"""The value types keep the repr, hash, immutability and constructor checks
they had as dataclasses. The pinned reprs were recorded from the dataclasses."""

import copy
import pickle

import pytest

from schurwin.bott import HomogeneousWeight
from schurwin.partitions import Context, GeneratorLabel, Partition, ShapeError, canonicalize
from schurwin.shifts import Term, TermComplex, general_shift, k_matrix
from schurwin.staircase import (
    SequenceTerm,
    StaircaseData,
    StaircaseStep,
    resolution_sequence,
    staircase_diagrams,
)
from schurwin.verify import VerificationReport


def _values():
    """name -> (value, its field names in order, repr recorded on the dataclass)."""
    ctx = Context(4, 2)
    return {
        "Partition": (Partition((2, 1, 0)), ("parts",), "Partition(parts=(2, 1))"),
        "Context": (ctx, ("d", "r"), "Context(d=4, r=2)"),
        "GeneratorLabel": (
            canonicalize((3, 1)),
            ("delta", "det_power"),
            "GeneratorLabel(delta=Partition(parts=(2,)), det_power=1)",
        ),
        "Term": (
            Term(1, canonicalize((2, 0)), 2, 3),
            ("degree", "label", "ext_power", "copies"),
            "Term(degree=1, label=GeneratorLabel(delta=Partition(parts=(2,)), det_power=0), "
            "ext_power=2, copies=3)",
        ),
        "TermComplex": (
            general_shift(ctx, 1, 0, canonicalize((3, 3))),
            ("terms", "honest"),
            "TermComplex(terms=(Term(degree=0, label=GeneratorLabel(delta=Partition(parts=()), "
            "det_power=2), ext_power=2, copies=1), Term(degree=1, label=GeneratorLabel("
            "delta=Partition(parts=(1,)), det_power=1), ext_power=1, copies=1), Term(degree=2, "
            "label=GeneratorLabel(delta=Partition(parts=(2,)), det_power=0), ext_power=0, "
            "copies=1)), honest=True)",
        ),
        "StaircaseStep": (
            staircase_diagrams(ctx, Partition((1,))).steps[0],
            ("delta", "s"),
            "StaircaseStep(delta=Partition(parts=(1, 1)), s=1)",
        ),
        "StaircaseData": (
            staircase_diagrams(Context(3, 2), Partition((1,))),
            ("ctx", "base", "steps"),
            "StaircaseData(ctx=Context(d=3, r=2), base=Partition(parts=(1,)), steps=("
            "StaircaseStep(delta=Partition(parts=(1, 1)), s=1), StaircaseStep(delta="
            "Partition(parts=(2, 2)), s=3)))",
        ),
        "SequenceTerm": (
            resolution_sequence(ctx, Partition((2,)))[0],
            ("delta", "ext_power", "ext_dim"),
            "SequenceTerm(delta=Partition(parts=(3, 3)), ext_power=4, ext_dim=1)",
        ),
        "KMatrix": (
            k_matrix(Context(2, 1), 1, 0),
            ("ctx", "from_k", "to_k", "entries"),
            "KMatrix(ctx=Context(d=2, r=1), from_k=1, to_k=0, entries=((0, 1), (-1, 2)))",
        ),
        "HomogeneousWeight": (
            HomogeneousWeight([1, 0], [0, -1]),
            ("s_part", "q_part"),
            "HomogeneousWeight(s_part=(1, 0), q_part=(0, -1))",
        ),
        "VerificationReport": (
            VerificationReport(
                "x", {"d": 2}, passed=False, counterexample={"a": 1}, timing=0.5, note="n"
            ),
            ("check", "parameters", "passed", "counterexample", "timing", "note"),
            "VerificationReport(check='x', parameters={'d': 2}, passed=False, "
            "counterexample={'a': 1}, timing=0.5, note='n')",
        ),
    }


NAMES = list(_values())
FROZEN = [n for n in NAMES if n != "VerificationReport"]


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_unchanged(name):
    value, _, pinned = _values()[name]
    assert type(value).__name__ == name
    assert repr(value) == pinned


@pytest.mark.parametrize("name", FROZEN)
def test_hash_is_the_hash_of_the_field_tuple(name):
    value, fields, _ = _values()[name]
    assert hash(value) == hash(tuple(getattr(value, f) for f in fields))


def test_report_stays_unhashable_and_mutable():
    report = _values()["VerificationReport"][0]
    with pytest.raises(TypeError):
        hash(report)
    report.note = "changed"
    assert report.note == "changed"
    assert report != _values()["VerificationReport"][0]


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned(name):
    value, fields, _ = _values()[name]
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, getattr(value, f))


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_round_trip(name):
    value, _, _ = _values()[name]
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


def test_constructor_errors_still_raise():
    with pytest.raises(ShapeError):
        Partition((1, 2))
    with pytest.raises(ShapeError):
        Partition((2, -1))
    with pytest.raises(ShapeError):
        Context(0, 1)
    with pytest.raises(ShapeError):
        Context(3, 4)
    with pytest.raises(ShapeError):
        Context(4, 2)._replace(r=5)
    with pytest.raises(ShapeError):
        TermComplex(())
    label = GeneratorLabel()
    with pytest.raises(ShapeError):
        TermComplex((Term(0, label), Term(2, label)))
    with pytest.raises(ShapeError):
        TermComplex((Term(0, label),))._replace(terms=())
    with pytest.raises(ShapeError):
        HomogeneousWeight((0, 1), (0,))
    with pytest.raises(ShapeError):
        HomogeneousWeight((1, 0), (0, 1))
    assert HomogeneousWeight((1, 0), (0,))._replace(q_part=[2]).q_part == (2,)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, passed=False)


def test_equality_is_by_type_and_fields():
    # a Partition is not a tuple; the NamedTuple types compare as tuples do
    assert Partition((2, 1)) == Partition((2, 1, 0))
    assert Partition((2, 1)) != (2, 1)
    assert Context(4, 2) == (4, 2)
    assert canonicalize((3, 1)) == GeneratorLabel(Partition((2,)), 1)
    assert len(Partition((3, 1))) == 2
    assert list(Partition((3, 1))) == [3, 1]
    assert not Partition(())
