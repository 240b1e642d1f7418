import importlib

import pytest

MODULES = ("stickylab", "stickylab.pathgen", "stickylab.transforms", "stickylab.stopping",
           "stickylab.stickiness", "stickylab.market", "stickylab.cli")


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # tools that wrap every exported function look each name up with getattr,
    # so a name left behind by a deletion would break them
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
