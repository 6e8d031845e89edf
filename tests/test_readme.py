import re
import shlex
from pathlib import Path

from edgeoffload.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_imports_resolve():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [line for line in block.splitlines() if line.startswith(("from ", "import "))]
    assert imports
    exec("\n".join(imports), {})


def test_cli_examples_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("edgeoffload ")]
    parser = build_parser()
    commands = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        commands.add(args.command)
    assert commands == {"generate", "label", "train", "eval", "solve", "split-plan", "experiment"}
