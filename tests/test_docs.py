"""The README's examples are tested: its Quick start commands parse with the
real argument parser, every flag it names exists, and its library example
runs."""

import argparse
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


_CODE = re.compile(r"```\w*\n(.*?)```|`([^`]+)`", re.S)
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _readme_commands() -> list[str]:
    """The prose outside code, each line of a code block, and each inline span."""
    out = [_CODE.sub("", README)]
    for block, span in _CODE.findall(README):
        out += block.replace("\\\n", " ").splitlines() if block else [span]
    return out


def _runs_pip_or_python(command: str) -> bool:
    words = command.split()
    while words and "=" in words[0]:  # environment assignments
        words.pop(0)
    return words[:1] in (["pip"], ["python"])


def _options(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of parser and of its subcommands, at any depth."""
    opts: set[str] = set()
    for action in parser._actions:
        opts.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                opts |= _options(sub)
    return opts


def test_readme_flags_are_parser_options():
    named = {
        flag
        for command in _readme_commands()
        if not _runs_pip_or_python(command)
        for flag in _FLAG.findall(command)
    }
    assert "--vectors-out" in named
    assert named - _options(build_parser()) == set()
