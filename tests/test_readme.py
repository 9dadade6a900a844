"""The README's library example runs as written, and its comment gives
the value that `double_bracket` returns there."""

import re
from pathlib import Path

from tiedbracket.laurent import parse_poly

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    (block,) = blocks
    value = re.search(r"^double_bracket\(d\) +# BivariateLaurent: (.+)$", block, re.M)
    assert value.group(1) == "-A^4 - A^2 - c - A^-2 - A^-4"
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["double_bracket"](scope["d"]) == parse_poly(value.group(1))
