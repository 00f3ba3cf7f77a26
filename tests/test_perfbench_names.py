"""Every name the benchmark times resolves in the package.

``perfbench/run.py`` reports the functions in ``FUNCS`` on their own and
``perfbench/tracing.py`` patches the modules in ``LAYERS``. A renamed
function would silently read zero in the traced run, and a renamed module
would crash it. The two tuples are read with ``ast``: perfbench is neither
imported nor run here.
"""
import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tuple(file: str, name: str) -> tuple[str, ...]:
    with open(os.path.join(PERFBENCH, file)) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{file} assigns no {name}")


@pytest.mark.parametrize("layer", _tuple("tracing.py", "LAYERS"))
def test_traced_layer_is_a_module(layer):
    importlib.import_module(f"gridfactors.{layer}")


@pytest.mark.parametrize("name", _tuple("run.py", "FUNCS"))
def test_traced_function_resolves(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"gridfactors.{module}")
    for part in path:
        obj = getattr(obj, part)
    assert callable(obj), name
