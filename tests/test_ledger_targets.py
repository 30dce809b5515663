"""The performance ledger's span wrappers still find every target.

``benchmarks/ledger/traced_serve.py`` wraps each ``(module, attribute
path)`` in its ``TARGETS`` at server startup and fails on a missing name, so
renaming or deleting a wrapped function breaks the traced ledger run.  This
checks the names without starting a server.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED_SERVE = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "traced_serve.py"
)


def _targets():
    spec = importlib.util.spec_from_file_location("ledger_traced_serve", TRACED_SERVE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path, span", _targets(), ids=str)
def test_target_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    for attribute in path.split("."):
        assert hasattr(owner, attribute), f"{module_name}.{path} ({span}) is gone"
        owner = getattr(owner, attribute)
    assert callable(owner)
