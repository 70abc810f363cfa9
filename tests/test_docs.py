"""The README's examples are tested: its Quick start commands parse with the
real argument parser, every flag and every `Class.attr` it names exists, and
its library example runs. The package's export list is checked too."""

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
import shlex
import textwrap
from pathlib import Path

import pytest

import rgrams
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


_CLASS_ATTR = re.compile(r"(?<![\w.])([A-Z][a-z]\w*)\.([A-Za-z_]\w*)")


def _classes() -> dict[str, type]:
    """Every class defined in an rgrams submodule, by name."""
    found = {}
    for info in pkgutil.iter_modules(rgrams.__path__):
        module = importlib.import_module(f"rgrams.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                found[name] = obj
    return found


def _attributes(cls: type) -> set[str]:
    """cls's class attributes and annotated fields, and every attribute its
    methods assign on self."""
    names = set(dir(cls)) | set(getattr(cls, "__annotations__", {}))
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(cls)))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


def test_readme_class_attributes_exist():
    named = {m for _, span in _CODE.findall(README) if span for m in _CLASS_ATTR.findall(span)}
    assert ("VectorSet", "unit_rows") in named
    classes = _classes()
    missing = {
        f"{cls}.{attr}"
        for cls, attr in named
        if cls not in classes or attr not in _attributes(classes[cls])
    }
    assert missing == set()


def test_all_matches_init_imports():
    # a name removed from a module must leave __all__ too
    tree = ast.parse(Path(rgrams.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(rgrams.__all__) == sorted(imported)
    for name in rgrams.__all__:
        assert hasattr(rgrams, name), name
