"""README's table of ``REPRO_*`` variables lists exactly what ``src/`` reads.

A knob whose reader is deleted must lose its row, and a row needs a
reader.  ``REPRO_PARALLEL_WORKER`` is set by a pool worker for itself,
not by a user, so it has no row.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INTERNAL = {"REPRO_PARALLEL_WORKER"}

#: ``os.environ.get("REPRO_X"...)``, ``os.environ["REPRO_X"]``, ``os.getenv("REPRO_X"...)``.
_READ = re.compile(r'os\.(?:environ\.get\(|environ\[|getenv\()\s*"(REPRO_[A-Z0-9_]+)"')

_ROW = re.compile(r"\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|")


def _read_by_src() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(_READ.findall(path.read_text()))
    return names - _INTERNAL


def _readme_rows() -> list[str]:
    text = (ROOT / "README.md").read_text()
    _, after = text.split("All `REPRO_*` environment variables:", 1)
    rows: list[str] = []
    for line in after.strip().splitlines():
        if not line.startswith("|"):
            break
        rows.extend(_ROW.findall(line))
    return rows


def test_readme_table_lists_exactly_the_knobs_src_reads():
    rows = _readme_rows()
    assert len(rows) == len(set(rows)), f"duplicate rows: {rows}"
    assert set(rows) == _read_by_src()
