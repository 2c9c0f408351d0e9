"""The package's public names: each module declares its own, the package re-exports them."""

import inspect
import json
import os
import subprocess
import sys

import pytest

import shadowtrack
from shadowtrack import constants, errors, geometry, matrices, scenarios, series, solver, tracker

MODULES = (errors, constants, matrices, series, solver, geometry, tracker, scenarios)


def test_package_exports_the_union_of_the_module_lists():
    names = shadowtrack.__all__
    assert len(names) == len(set(names))
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert set(names) == {"__version__", *declared}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(shadowtrack, name) is getattr(module, name)


def test_each_name_is_filed_under_the_module_that_defines_it():
    assert {module: set(names) for module, names in shadowtrack._EXPORTS.items()} == {
        module.__name__.rpartition(".")[2]: set(module.__all__) for module in MODULES}
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name


def test_dir_covers_the_exports_and_the_modules():
    listed = dir(shadowtrack)
    assert set(shadowtrack.__all__) <= set(listed)
    assert {"cli", "fileio", "series", "solver", "tracker"} <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    assert not hasattr(shadowtrack, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        shadowtrack.no_such_name


def test_series_classes_are_one_object_wherever_imported():
    for name in ("ScalarObservationSeries", "VectorObservationSeries"):
        assert getattr(solver, name) is getattr(series, name)
        assert getattr(shadowtrack, name) is getattr(series, name)


def fresh_json(probe):
    """The JSON that ``probe`` prints, run in a fresh interpreter."""
    package_root = os.path.dirname(os.path.dirname(shadowtrack.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_star_import_in_a_fresh_interpreter():
    assert fresh_json("from shadowtrack import *\n"
                      "import json, shadowtrack\n"
                      "print(json.dumps([n for n in shadowtrack.__all__ "
                      "if n not in globals()]))") == []


def loaded_after(statement):
    return fresh_json(f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")


def test_the_constants_load_only_their_own_module():
    modules = loaded_after("from shadowtrack import POLICIES, MODE_PROPAGATE, SCENARIO_IDS")
    assert [name for name in modules if name.startswith("shadowtrack")] == [
        "shadowtrack", "shadowtrack.constants"]
    assert [name for name in modules if name.split(".")[0] == "numpy"] == []


def test_the_input_checks_and_the_operator_layer_load_no_production_solve():
    """``series`` rests on ``errors`` alone, and ``matrices`` on ``series`` and ``errors``."""
    modules = loaded_after("import shadowtrack.series")
    assert [name for name in modules if name.startswith("shadowtrack.")] == [
        "shadowtrack.errors", "shadowtrack.series"]
    modules = loaded_after("import shadowtrack.matrices")
    assert [name for name in modules if name.startswith("shadowtrack.")] == [
        "shadowtrack.errors", "shadowtrack.matrices", "shadowtrack.series"]


def test_the_series_classes_load_no_solver():
    modules = loaded_after("from shadowtrack import ScalarObservationSeries, "
                           "VectorObservationSeries")
    assert "shadowtrack.series" in modules
    assert "shadowtrack.solver" not in modules
