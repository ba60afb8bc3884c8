"""The README names only what the package has, and its code is valid."""

import argparse
import importlib
import re
from pathlib import Path

from eventforest.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("features", "dataset", "forest", "detect", "evaluate", "cli")


def readme_references() -> list:
    """``(module, dotted name)`` of each `` `module.name` `` reference and of
    each name a ``from eventforest.module import ...`` line imports."""
    text = README.read_text()
    pattern = r"`(?:eventforest\.)?(%s)\.(\w+(?:\.\w+)*)" % "|".join(MODULES)
    refs = re.findall(pattern, text)
    for module, names in re.findall(r"^from eventforest\.(\w+) import (.+)$",
                                    text, re.M):
        refs += [(module, name.strip()) for name in names.split(",")]
    return refs


def resolves(module: str, dotted: str) -> bool:
    target = importlib.import_module(f"eventforest.{module}")
    for part in dotted.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_readme_references_resolve():
    refs = readme_references()
    assert len(refs) >= 20, refs
    missing = [f"{module}.{name}" for module, name in refs
               if not resolves(module, name)]
    assert missing == []


def test_readme_python_blocks_compile():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        compile(block, str(README), "exec")


def test_readme_flags_exist_on_a_subcommand():
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    flags = {flag for parser in subparsers.choices.values()
             for action in parser._actions for flag in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text()))
    assert len(named) >= 20, named
    assert named - flags == {"--no-build-isolation"}  # pip's, not ours
