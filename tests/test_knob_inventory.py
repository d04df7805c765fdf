"""The README's environment-variable table is the knob inventory.

Every ``REPRO_*`` name the package mentions must have a row in the
README table, and every row must name a variable the package still
reads, so adding or removing a knob is a visible diff in both places.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NAME = re.compile(r"REPRO_[A-Z_]+")


def _source_knobs() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            names.update(_NAME.findall(
                path.read_text(encoding="utf-8", errors="replace")))
    return names


def _readme_knobs() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Environment variables", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M)


def test_readme_table_lists_exactly_the_knobs_the_code_reads():
    table = _readme_knobs()
    assert len(table) == len(set(table)), "duplicate README rows"
    assert set(table) == _source_knobs()
