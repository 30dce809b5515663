#!/usr/bin/env python
"""Check that ``import repro.cli`` loads only what ``tesc serve`` runs.

Every ``tesc`` invocation, ``tesc serve`` boots included, imports the CLI
first.  The experiment harness, the synthetic datasets and the simulation
study load when their own subcommands run, and ``http.server`` when a
server starts its ``--metrics-port`` endpoint, so none of them may be
imported by the CLI module itself.

Usage::

    python scripts/check_cli_imports.py

The script imports whichever ``repro`` the interpreter finds (the checkout
with ``PYTHONPATH=src``, otherwise the installed package), prints its path
and exits 1 naming every module it should not have loaded.
"""

from __future__ import annotations

import sys

#: Modules ``import repro.cli`` must leave unloaded.
UNLOADED = (
    "repro.experiments",
    "repro.datasets",
    "repro.simulation",
    "http.server",
)


def main() -> int:
    import repro
    import repro.cli  # noqa: F401 - the import under test

    loaded = sorted(set(UNLOADED) & set(sys.modules))
    print(f"import repro.cli from {repro.__file__}")
    if loaded:
        print(f"import repro.cli loaded {', '.join(loaded)}", file=sys.stderr)
        return 1
    print(f"none of {', '.join(UNLOADED)} loaded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
