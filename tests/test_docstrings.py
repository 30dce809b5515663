"""Run the ``>>>`` examples in every ``repro`` module docstring.

The examples are the first code a reader copies, so each one must run and
print what it shows.  Modules are found by scanning the source tree for
``>>>``, so a new example is checked without editing this file.
"""

import doctest
import importlib
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent


def _modules_with_examples():
    names = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = ("repro",) + path.relative_to(PACKAGE_ROOT).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


MODULES = _modules_with_examples()


def test_examples_are_found():
    assert "repro.core.batch" in MODULES
    assert "repro.events.event_set" in MODULES


@pytest.mark.parametrize("module_name", MODULES)
def test_module_examples_pass(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False, report=False)
    assert result.attempted > 0, f"{module_name} has no runnable examples"
    assert result.failed == 0, (
        f"{result.failed} of {result.attempted} examples failed in "
        f"{module_name} (the diffs are in the captured stdout)"
    )
