"""The README's examples are tested: its Quick start commands parse with the
real argument parser, and its library example runs."""

import re
import shlex
from pathlib import Path

import pytest

from rgrams.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def _quick_start_commands() -> list[str]:
    [block] = _blocks(_section("Quick start"), "sh")
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("rgrams ")]


def test_quick_start_covers_every_command():
    used = {shlex.split(cmd)[1] for cmd in _quick_start_commands()}
    assert used == {"train", "apply", "decode", "stats", "embed", "eval"}


@pytest.mark.parametrize("command", _quick_start_commands())
def test_quick_start_command_parses(command):
    argv = shlex.split(command)[1:]
    args = build_parser().parse_args(argv)  # a rejected flag exits with SystemExit
    assert callable(args.func)


def test_library_example_runs():
    [example] = _blocks(README, "python")
    exec(compile(example, "README.md", "exec"), {})
