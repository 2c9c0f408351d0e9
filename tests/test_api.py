"""The package's public names: each module declares its own, the package re-exports them."""

import json
import os
import subprocess
import sys

import pytest

import shadowtrack
from shadowtrack import errors, geometry, matrices, scenarios, series, solver, tracker

MODULES = (errors, matrices, solver, geometry, tracker, scenarios)


def test_package_exports_the_union_of_the_module_lists():
    names = shadowtrack.__all__
    assert len(names) == len(set(names))
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert set(names) == {"__version__", *declared}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(shadowtrack, name) is getattr(module, name)


def test_dir_covers_the_exports_and_the_modules():
    listed = dir(shadowtrack)
    assert set(shadowtrack.__all__) <= set(listed)
    assert {"cli", "fileio", "series", "solver", "tracker"} <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    assert not hasattr(shadowtrack, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        shadowtrack.no_such_name


def test_series_classes_are_one_object_wherever_imported():
    for name in series.__all__:
        assert getattr(solver, name) is getattr(series, name)
        assert getattr(shadowtrack, name) is getattr(series, name)


def test_star_import_in_a_fresh_interpreter():
    package_root = os.path.dirname(os.path.dirname(shadowtrack.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = ("from shadowtrack import *\n"
             "import json, shadowtrack\n"
             "print(json.dumps([n for n in shadowtrack.__all__ if n not in globals()]))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(done.stdout) == []
