"""The README's examples stay in step with the command line and the exports."""

import ast
import re
import shlex
from pathlib import Path

import labelcal
from labelcal.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")


def blocks(language):
    """The text of each fenced block of ``language`` in the README."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def command_lines():
    """Each ``labelcal`` command of the ``sh`` blocks, its ``\\`` continuations joined."""
    joined = "\n".join(blocks("sh")).replace("\\\n", " ")
    return [shlex.split(line) for line in joined.splitlines() if line.startswith("labelcal ")]


def test_every_readme_command_parses():
    commands = command_lines()
    assert len({argv[1] for argv in commands}) == 11  # an example of every subcommand
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        assert args.command == argv[1]


def test_every_name_the_readme_example_imports_is_exported():
    (example,) = blocks("python")
    imported = [alias.name for node in ast.walk(ast.parse(example))
                if isinstance(node, ast.ImportFrom) and node.module == "labelcal"
                for alias in node.names]
    assert "out_of_fold" in imported
    assert set(imported) <= set(labelcal.__all__)
