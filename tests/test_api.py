"""The package's public names: each module declares its own, the package re-exports them."""

import shadowtrack
from shadowtrack import errors, geometry, matrices, scenarios, solver, tracker

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
