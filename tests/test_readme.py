"""The README's Python examples run as written and print what they say."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run_and_print_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        out = StringIO()
        with redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        # each print(...) line states its output in a trailing comment
        expected = re.findall(r"^print\(.*#\s*(.*)$", block, re.M)
        assert out.getvalue().splitlines() == expected
