import re
import shlex
from pathlib import Path

from edgeoffload.cli import build_parser
from edgeoffload.experiments import EXPERIMENT_KINDS, ExperimentSpec, resolve_config

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


def test_experiment_config_examples_resolve(tmp_path):
    """Each README experiment config is labelled with its kind and resolves
    through the resolver that ``run_experiment`` uses."""
    text = README.read_text(encoding="utf-8")
    examples = re.findall(r"```ini (\S+)\n(.*?)```", text, re.S)
    assert len(re.findall(r"```ini", text)) == len(examples)  # every example labelled
    assert sorted(kind for kind, _ in examples) == sorted(EXPERIMENT_KINDS)
    for kind, config_text in examples:
        resolve_config(ExperimentSpec(kind=kind, out_dir=tmp_path / kind,
                                      config_text=config_text))
    assert not list(tmp_path.iterdir())
