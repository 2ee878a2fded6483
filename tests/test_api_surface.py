"""The names that outside code reaches into plclab for still exist.

perfbench/tracing.py patches library functions by (module, name), and its
workloads call the package through `api.<name>`. A removal that breaks either
would only show when the benchmark runs, so these tests read the benchmark's
source (without importing or changing it) and resolve every name it uses.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import plclab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
            ]
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def _workload_names():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return sorted({
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "api"
    })


@pytest.mark.parametrize(
    "module,name",
    _traced()
    + [("plc_engine", "PlcInstance.__post_init__"), ("protocol_core", "Demand.evaluate")],
)
def test_traced_functions_exist(module, name):
    obj = importlib.import_module(f"plclab.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("name", _workload_names())
def test_workload_names_resolve(name):
    assert hasattr(plclab, name) or importlib.util.find_spec(f"plclab.{name}")


def test_all_names_resolve():
    missing = [name for name in plclab.__all__ if not hasattr(plclab, name)]
    assert missing == []
    assert len(set(plclab.__all__)) == len(plclab.__all__)
