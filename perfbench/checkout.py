"""Locate the checkout the benchmark runs in and import durfee from its src/."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "durfee"


def import_cli():
    """Import durfee.cli from this checkout's src/ and refuse any other copy.

    Exits with a message (status 1) when the sources are missing, so a
    directory holding only the benchmark never reports a result.
    """
    if not (PACKAGE / "cli.py").is_file():
        raise SystemExit(f"perfbench: no durfee sources at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import durfee.cli

    if Path(durfee.cli.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: imported durfee from {durfee.cli.__file__}, not {PACKAGE}")
    return durfee.cli
