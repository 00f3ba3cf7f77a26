"""Property test of the modification-document reader: any JSON in any part of a
``--mods`` or ``--after`` document ends in a documented exit code, never in a
traceback, and every input error (exit 2) is reported as ``error: ...``."""
import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactors.cases import case6ww_text
from gridfactors.cli import main

_ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
# near-valid pieces of case6ww's ids and states, so documents also reach the update
_ID = st.integers(-1, 12) | _ANY
_KEY = st.sampled_from(["1", "3", "5", "8", "-1", "07", "2.5", " 4", "x"]) | st.text(max_size=3)
_DELTA = st.fixed_dictionaries({"branch": _ID, "db": st.sampled_from([-0.5, 0.3, -1e9]) | _ANY})
_STATES = st.dictionaries(_KEY, st.sampled_from(["open", "closed", True, False]) | _ANY, max_size=3)
_SPLIT = st.fixed_dictionaries(
    {"parent": _ID,
     "assignments": st.dictionaries(_KEY, st.sampled_from(["new", "parent"]) | _ANY, max_size=3)},
    optional={"new_bus": _ID, "injection_to_new": st.sampled_from([0.0, -0.7]) | _ANY},
)
_DOCS = st.fixed_dictionaries({}, optional={
    "deltas": st.lists(_DELTA | _ANY, max_size=2) | _ANY,
    "switches": _STATES | _ANY,
    "splits": st.lists(_SPLIT | _ANY, max_size=2) | _ANY,
})


@pytest.fixture(scope="module")
def ww_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "case6ww.m"
    path.write_text(case6ww_text())
    return str(path)


@given(doc=_DOCS)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_any_modification_document_exits_with_a_documented_code(ww_path, doc):
    text = json.dumps(doc)
    for argv in (["whatif", ww_path, "--mods", text],
                 ["whatif", ww_path, "--mods", text, "--enumerate"],
                 ["n1", ww_path, "--after", text]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4), (argv, code)
        if code == 2:
            assert err.getvalue().startswith("error:"), (argv, err.getvalue())
