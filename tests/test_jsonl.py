"""``--format jsonl`` writes each row through a template, byte for byte ``json.dumps(row)``."""
import json
import math
import sys

import pytest

from gridfactors.cli import _jsonl_lines, _print_rows

SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456789.125, -3.0,
]


def _dumps(rows):
    return [json.dumps(r) for r in rows]


def test_rows_of_one_shape_match_json_dumps():
    rows = [
        {"branch": k, "from": 10**30 * (k + 1), "to": -k, "islands": k % 2 == 0,
         "criterion": x, "post_max_flow": -x}
        for k, x in enumerate(SPECIAL_FLOATS)
    ]
    assert _jsonl_lines(rows) == _dumps(rows)


def test_sweep_settings_match_json_dumps():
    rows = [{"setting": format(k, "08b"), "max_flow": x, "islands": bool(k % 3)}
            for k, x in enumerate(SPECIAL_FLOATS)]
    assert _jsonl_lines(rows) == _dumps(rows)


def test_mixed_columns_and_shapes_match_json_dumps():
    rows = [
        {"a": 1, "b": 1.5},
        {"a": True, "b": 2},  # a column of bools and ints, one of floats and ints
        {"a": 2**70, "b": math.nan},
        {"b": "x", "a": None},  # other keys, other order
        {},
        {"100% \"odd\" key\n": "é ", "n": [1, 2.5]},
        {"a": False, "b": -0.0},
    ]
    assert _jsonl_lines(rows) == _dumps(rows)


def test_print_rows_writes_the_lines(capsys):
    rows = [{"branch": k, "flow": x} for k, x in enumerate(SPECIAL_FLOATS)]
    _print_rows(rows, "jsonl")
    assert capsys.readouterr().out == "".join(line + "\n" for line in _dumps(rows))


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.text(max_size=8),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.dictionaries(st.sampled_from("abcd"), VALUES, max_size=4), max_size=12))
def test_drawn_rows_match_json_dumps(rows):
    assert _jsonl_lines(rows) == _dumps(rows)


def test_large_ints_survive_the_template():
    big = sys.maxsize * 10**5
    assert _jsonl_lines([{"v": big}, {"v": -big}]) == _dumps([{"v": big}, {"v": -big}])
