"""Non-blank, non-comment line counts of the `qredshift` package.

    python3 tools/ncloc.py

prints one `<lines>  <module>` row per module of src/qredshift, then the
total.  A line counts unless it is blank or its first non-blank character
is `#`; docstring lines count.  This is the size measure the ROADMAP's
simplicity gates quote.  Standard library only.
"""

from __future__ import annotations

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qredshift"


def ncloc(path: Path) -> int:
    """Lines of `path` that are neither blank nor a comment."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))


def main() -> int:
    counts = {path.name: ncloc(path) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
