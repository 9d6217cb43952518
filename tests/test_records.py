"""Value classes: repr, equality, hash and frozen fields.

Domains, parameters and the plain records share one base, errors.Record.
The reprs are pinned because the summary's `domain:` line and the error
messages print them.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from berezin_lab.constants import SemiclassicalParams
from berezin_lab.geometry import (
    AxisBox,
    BoxUnion,
    Disk,
    DiskSections,
    SectionAtoms,
    SlicingStats,
)
from berezin_lab.harness import BoundReport
from berezin_lab.remainder import RemainderResult
from berezin_lab.spectra import Spectrum, enumerate_spectrum

UNION = BoxUnion((AxisBox((1, 1)), AxisBox((2, 0.5), origin=(1, 0))), slicing_axis=1)

REPRS = [
    (AxisBox((1, 2)), "AxisBox(sides=(1.0, 2.0), origin=(0.0, 0.0), slicing_axis=2)"),
    (
        AxisBox((1.5,), origin=(-2,), slicing_axis=1),
        "AxisBox(sides=(1.5,), origin=(-2.0,), slicing_axis=1)",
    ),
    (
        UNION,
        "BoxUnion(boxes=(AxisBox(sides=(1.0, 1.0), origin=(0.0, 0.0), slicing_axis=2),"
        " AxisBox(sides=(2.0, 0.5), origin=(1.0, 0.0), slicing_axis=2)), slicing_axis=1)",
    ),
    (Disk(2), "Disk(radius=2.0)"),
    (SemiclassicalParams(1, 2), "SemiclassicalParams(sigma=1.0, dim=2)"),
    (
        SlicingStats(np.array([0.5, 1.0]), 2.0),
        "SlicingStats(vol_omega_lambda=array([0.5, 1. ]), d_lambda=2.0)",
    ),
    (
        SectionAtoms(np.array([1.0]), np.array([2.0])),
        "SectionAtoms(lengths=array([1.]), weights=array([2.]))",
    ),
    (DiskSections(1.5), "DiskSections(radius=1.5)"),
    (
        RemainderResult(2.0, 0.5, 1.25, 3.0),
        "RemainderResult(mu=2.0, epsilon=0.5, argmin_a=1.25, scan_upper=3.0)",
    ),
    (
        enumerate_spectrum(AxisBox((1, 1)), 60.0),
        "Spectrum(cutoff=60.0, eigenvalues=array([19.7392088 , 49.34802201]),"
        " multiplicities=array([1, 2]), join_positions=array([], dtype=int64),"
        " join_gaps=array([], dtype=float64))",
    ),
]


@pytest.mark.parametrize("value, text", REPRS, ids=lambda v: type(v).__name__)
def test_repr_names_each_field(value, text):
    assert repr(value) == text


# (a value, an equal one built differently, its fields as a tuple, a value
# of another class with the same fields)
HASHABLE = [
    (AxisBox((1, 2)), AxisBox([1.0, 2.0], (0, 0), 2), ((1.0, 2.0), (0.0, 0.0), 2), None),
    (UNION, BoxUnion(list(UNION.boxes), 1), (UNION.boxes, 1), None),
    (Disk(1), Disk(1.0), (1.0,), DiskSections(1.0)),
    (SemiclassicalParams(1, 2), SemiclassicalParams(1.0, 2), (1.0, 2), None),
    (DiskSections(1.0), DiskSections(1.0), (1.0,), Disk(1.0)),
    (
        RemainderResult(2.0, 0.5, 1.25, 3.0),
        RemainderResult(2, 0.5, 1.25, 3),
        (2.0, 0.5, 1.25, 3.0),
        None,
    ),
]


@pytest.mark.parametrize(
    "value, same, fields, twin", HASHABLE, ids=lambda v: type(v).__name__
)
def test_equality_and_hash_are_by_value_and_type(value, same, fields, twin):
    assert value == same and not value != same
    assert hash(value) == hash(same) == hash(fields)
    assert len({value, same}) == 1
    # type-strict: never equal to its fields' tuple or to another class
    assert value != fields and fields != value
    if twin is not None:
        assert value != twin and hash(value) == hash(twin)
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_domains_differ_in_any_field():
    assert AxisBox((1, 2)) != AxisBox((1, 2), slicing_axis=1)
    assert AxisBox((1, 2)) != AxisBox((1, 2), origin=(0, 1))
    assert AxisBox((1, 2)) != BoxUnion((AxisBox((1, 2)),))
    assert SemiclassicalParams(1.5, 2) != SemiclassicalParams(1.5, 3)
    assert RemainderResult(2.0, 0.5, 1.25, 3.0) != RemainderResult(2.0, 0.5, 1.25, 4.0)


@pytest.mark.parametrize("value", [v for v, _ in REPRS], ids=lambda v: type(v).__name__)
def test_fields_refuse_assignment(value):
    name = value._fields[0]
    before = repr(value)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(value, name, 1.0)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(value, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        value.extra = 1.0
    assert repr(value) == before


def test_spectrum_is_equal_only_to_itself_and_caches_its_arrays():
    spec = enumerate_spectrum(AxisBox((1, 1)), 60.0)
    twin = Spectrum(
        spec.cutoff, spec.eigenvalues, spec.multiplicities, spec.join_positions, spec.join_gaps
    )
    assert spec == spec and spec != twin
    assert hash(spec) == object.__hash__(spec) and len({spec, twin}) == 2
    assert spec.expanded is spec.expanded
    assert spec.expanded.tolist() == [spec.eigenvalues[0]] + [spec.eigenvalues[1]] * 2
    assert spec.cumulative_counts is spec.cumulative_counts
    assert not spec.eigenvalues.flags.writeable
    assert spec.multiplicities.dtype == np.int64 and twin.join_gaps.dtype == np.float64


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: AxisBox(()), "box needs at least one side"),
        (lambda: AxisBox((1, -1)), "box sides must be positive finite reals, got (1.0, -1.0)"),
        (lambda: AxisBox((1, 1), origin=(0,)), "origin length must match sides length"),
        (lambda: AxisBox((1,), origin=(math.inf,)), "origin must be finite, got (inf,)"),
        (lambda: AxisBox((1, 1), slicing_axis=3), "slicing_axis must lie in [1, 2], got 3"),
        (lambda: Disk(0), "radius must be positive and finite, got 0"),
        (lambda: BoxUnion(()), "union needs at least one box"),
        (
            lambda: BoxUnion((AxisBox((1,)), AxisBox((1, 1)))),
            "all boxes in a union must share the dimension",
        ),
        (
            lambda: BoxUnion((AxisBox((1, 1)), AxisBox((1, 1), origin=(0.5, 0)))),
            "boxes 0 and 1 have overlapping interiors",
        ),
        (lambda: BoxUnion(UNION.boxes, 0), "slicing_axis must lie in [1, 2], got 0"),
        (lambda: SemiclassicalParams(-1, 2), "sigma must be finite and >= 0, got -1"),
        (lambda: SemiclassicalParams(1, 2.0), "dimension must be a positive integer, got 2.0"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SlicingStats(1.0), "SlicingStats takes 2 fields, got 1"),
        (lambda: DiskSections(1.0, 2.0), "DiskSections takes 1 fields, got 2"),
        (lambda: RemainderResult(), "RemainderResult takes 4 fields, got 0"),
    ],
)
def test_plain_records_take_each_field_once(make, message):
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


def test_bound_report_gets_a_fresh_metadata_dict():
    columns = {"x": np.zeros(2)}
    a, b = BoundReport("t", columns, ()), BoundReport(kind="t", columns=columns, checks=())
    assert a.metadata == {} and a.metadata is not b.metadata
    a.metadata["k"] = 1
    assert b.metadata == {}
    given = {"k": 2}
    assert BoundReport("t", columns, (), given).metadata is given
