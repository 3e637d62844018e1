"""The canonical JSON writer against json's indented dump, its reference."""

import enum
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lnegerm import RunConfig, builtin, run_scenario
from lnegerm.report import canonical_json


def _jsonable(obj):
    """The conversion ``canonical_json`` ran before ``json.dumps``: plain
    JSON types, non-finite floats as None."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in seq]
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _reference(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


class Color(str, enum.Enum):
    RED = "red"
    BLUE = "blüe\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


class Holder:
    def __init__(self, data):
        self.data = data

    def to_dict(self):
        return {"data": self.data}


_text = st.text(st.characters(max_codepoint=0x2FFFF, exclude_categories=("Cs",)), max_size=6)
_floats = st.floats(allow_nan=True, allow_infinity=True)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    _floats,
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.fractions(max_denominator=10**6),
    _text,
    st.sampled_from(list(Color) + list(Level)),
)
# keys equal after str(): 1 and "1", True and "True", Color.RED and
# "Color.RED", Level.LOW and "1"
_keys = st.one_of(
    _text,
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from([1, "1", "True", "Color.RED", "Level.LOW", 1.5, "1.5", None, "None"]),
    st.sampled_from(list(Color) + list(Level)),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
        st.frozensets(st.integers(-5, 5), max_size=4),
        st.sets(_text, max_size=4),
        st.lists(_floats, max_size=4).map(np.array),
        st.dictionaries(_text, children, max_size=3).map(Holder),
    )


_values = st.recursive(_leaves, _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_writer_matches_the_indented_dump(value):
    assert canonical_json(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        set(),
        {"a": {}, "b": [], "c": [[], {}, [[]]], "d": {"e": {"f": []}}},
        [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("-inf")],
        [True, 1, False, 0, np.int64(1), 1.0, Level.LOW],
        {1: "int", "1": "str", True: "bool", Level.LOW: "enum"},
        {Color.RED: Color.BLUE, "\u0000\x1f\"\\/ ": "퟿\U0001f600\t\x7f"},
        {"n": Fraction(-3, 4), "s": {3, 1, 2}, "t": (1, (2,)), "a": np.arange(4).reshape(2, 2)},
        [2**64, -(2**70), 5e-324, -0.0, 1e16, 1.7976931348623157e308],
        Holder({"x": Holder([1.5])}),
    ],
)
def test_writer_matches_the_indented_dump_on_edge_values(value):
    assert canonical_json(value) == _reference(value)


def test_writer_refuses_what_the_dump_refuses():
    for value in (object(), {"a": [np.bool_(True)]}, {"x": {1, "a"}}):
        with pytest.raises(TypeError):
            _reference(value)
        with pytest.raises(TypeError):
            canonical_json(value)


@pytest.mark.parametrize("label", ["cusp", "three_tangent", "horn3d"])
def test_writer_matches_the_dump_on_scenario_results(label):
    result = run_scenario(builtin(label), RunConfig()).to_dict()
    assert canonical_json(result) == _reference(result)
