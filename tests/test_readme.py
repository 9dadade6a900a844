"""The README's library example runs as written, and its comment gives
the value that `double_bracket` returns there; its diagram text example
parses; each of its command lines runs and exits 0."""

import re
import shlex
from pathlib import Path

from tiedbracket.catalog import parse_diagram
from tiedbracket.cli import main
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


def test_readme_diagram_text_parses():
    section = README.read_text().split("\n### Diagram text format\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    d = parse_diagram(block)
    assert len(d.crossings) == 3 and len(d.components()) == 1
    assert sorted(d.free_loops) == [1, 1, 2]


def test_readme_commands_run(capsys):
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    commands = []
    for token in shlex.split(block, comments=True):
        if token == "tiedbracket":
            commands.append([])
        else:
            commands[-1].append(token)
    assert len(commands) == 9
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
