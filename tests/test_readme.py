"""The README names only what the package has."""

import importlib
import re
from pathlib import Path

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
