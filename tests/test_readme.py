import argparse
import re
import shlex
from pathlib import Path

import numpy as np

from edgeoffload.cli import build_parser
from edgeoffload.config import default_config_text, parse_kv_text
from edgeoffload.experiments import EXPERIMENT_KINDS, ExperimentSpec, resolve_config
from edgeoffload.model import feature_count
from edgeoffload.mtl import _init_model, save_model_bytes

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


def test_cli_table_matches_the_parser():
    """Each row of the README's command table lists exactly its subparser's
    positionals, options and required options."""
    section = README.read_text(encoding="utf-8").split("| command | options |", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", section.split("\n\n", 1)[0], re.M)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert [usage.split()[0] for usage, _ in rows] == list(subparsers)
    for usage, options in rows:
        command, *positionals = usage.split()
        actions = [a for a in subparsers[command]._actions if "--help" not in a.option_strings]
        assert positionals == [a.dest.upper() for a in actions if not a.option_strings]
        assert re.findall(r"`(--[\w-]+)`", options) == [
            opt for a in actions for opt in a.option_strings], command
        assert re.findall(r"`(--[\w-]+)` \(required\)", options) == [
            opt for a in actions if a.required for opt in a.option_strings], command


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


def test_split_keys_match_the_shipped_config():
    """The README's split bullet names exactly the keys of the shipped
    split_default.cfg, with its layerN.* keys written as layerK.*."""
    bullet = README.read_text(encoding="utf-8").split("- **split** —", 1)[1].split("\n- ", 1)[0]
    documented = set(re.findall(r"`([\w.]+)`", bullet.split("Keys:", 1)[1]))
    shipped = {re.sub(r"^layer\d+\.", "layerK.", key)
               for key in parse_kv_text(default_config_text("split"), "split_default.cfg")}
    assert documented == shipped


def test_model_sizes_match_the_model_files():
    """Each "N=n model (hidden widths ...) is B bytes" in the File formats
    section is the length of such a model's file."""
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
    sizes = re.findall(r"N=(\d+) model \(hidden widths ([\d,]+)(, no class head)?\) is "
                       r"(\d[\d ]*) bytes", " ".join(section.split()))
    assert len(sizes) == 3
    for n, widths, headless, size in sizes:
        d = feature_count(int(n))
        model = _init_model(int(n), tuple(int(w) for w in widths.split(",")), np.zeros(d),
                            np.ones(d), np.random.default_rng(0), not headless)
        assert len(save_model_bytes(model)) == int(size.replace(" ", "")), (n, widths, headless)
