"""Make ``import repro`` load the checkout's own ``src/`` tree, or stop."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` and verify ``repro`` is from it.

    Raises ``SystemExit`` (exit code 1, no result printed) when the
    checkout has no ``src/repro`` or another installed copy would shadow it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")
