"""README's figures that a change to the source moves."""

import re

from conftest import REPO


def test_readme_layout_states_the_source_line_count():
    stated = re.search(r"`wc -l src/critline/\*\.py` counts (\d+) lines",
                       (REPO / "README.md").read_text(encoding="utf-8"))
    assert stated, "README's Layout section no longer states the line count"
    # wc -l counts newline characters
    lines = sum(p.read_bytes().count(b"\n") for p in (REPO / "src" / "critline").glob("*.py"))
    assert int(stated.group(1)) == lines
