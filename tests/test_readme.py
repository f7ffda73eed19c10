"""The Python quick start in README.md, and in its copy in PAPER.md,
prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _check_quick_start(path: Path):
    text = path.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    expected = []
    for line in block.splitlines():
        if line.startswith("print("):
            code, sep, comment = line.partition("# ")
            assert sep, f"print without a trailing comment: {line!r}"
            expected.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(path), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_quick_start_prints_its_trailing_comments():
    _check_quick_start(ROOT / "README.md")


def test_paper_copy_quick_start_prints_its_trailing_comments():
    _check_quick_start(ROOT / "PAPER.md")
