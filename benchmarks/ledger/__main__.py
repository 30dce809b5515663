"""Entry point: ``python3 benchmarks/ledger`` or ``python -m benchmarks.ledger``.

The ledger builds nothing: it runs the checkout's own sources from
``src/``.  Without them there is nothing to measure, so it stops at once
with a non-zero exit code and no result line.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"ledger: no repro sources under {SRC}; nothing to measure",
              file=sys.stderr)
        sys.exit(2)
    # Run as a directory, Python puts this directory first on the path;
    # the modules here are imported through their package instead.
    sys.path[:] = [path for path in sys.path if os.path.abspath(path or ".") != HERE]
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.ledger.run import main

    sys.exit(main())
