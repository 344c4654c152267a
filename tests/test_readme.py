"""The README's quick tour runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Quick tour\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Quick tour'"
    return match.group(1)


def test_quick_tour_prints_its_comments():
    code = _quick_tour()
    # each print(...) line states its output as a trailing comment, either
    # alone or followed by ": " and an explanation
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected and all(expected)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, comment in zip(printed, expected):
        assert comment == got or comment.startswith(got + ": "), (got, comment)
