"""The README's headline examples run as written and give what their
comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(heading):
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_matches_its_comments():
    code = _section_code("Library")
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert str(ns["splitting_type"](ns["E"])) == "{1, 1}"
    cert = ns["cert"]
    assert cert.even_blocks == () and cert.odd_blocks == (-1,)
    assert ns["verify_certificate"](cert, ns["S"]) is True
    # every commented claim in the block is one of the three checked above
    assert re.findall(r"#\s*(\S.*)", code) == [
        "{1, 1}", "the paired structure on O(-1) + O(-1)",
        "even_blocks = (), odd_blocks = (-1,)", "True"]
