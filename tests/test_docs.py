"""Docstrings of `src/hatmem`: pointers that resolve, and no change history.

A rule is stated once, in its home docstring, and other docstrings point to
it by a backticked dotted name such as `HatTree.flush` or `llm.remembered`.
These tests keep such pointers from going stale when code moves.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import hatmem

MODULES = {info.name: importlib.import_module(f"hatmem.{info.name}")
           for info in pkgutil.iter_modules(hatmem.__path__)}
# Classes by name, each from the module that defines it.
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if inspect.isclass(obj) and obj.__module__ == module.__name__}
HEADS = MODULES.keys() | CLASSES.keys()

_SPAN = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
_PR_NUMBER = re.compile(r"\bPR \d+")


def docstrings():
    """(file name, docstring) for the module and every class and function in it."""
    for path in sorted(Path(hatmem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield path.name, doc


def references():
    """(file name, dotted name) for each backticked name headed by a hatmem module or class."""
    for name, doc in docstrings():
        for span in _SPAN.findall(doc):
            dotted = _DOTTED.match(span)
            if dotted and dotted.group().split(".")[0] in HEADS:
                yield name, dotted.group()


def resolves(dotted: str) -> bool:
    head, *attributes = dotted.split(".")
    target = MODULES.get(head) or CLASSES[head]
    for attribute in attributes:
        if not hasattr(target, attribute):
            return False
        target = getattr(target, attribute)
    return True


def test_every_hatmem_reference_in_a_docstring_resolves():
    found = list(references())
    assert len({dotted for _, dotted in found}) >= 5  # the homes are pointed to, so some exist
    assert [(name, dotted) for name, dotted in found if not resolves(dotted)] == []


def test_resolver_refuses_a_missing_attribute():
    assert resolves("HatTree.flush") and resolves("llm.remembered")
    assert not resolves("HatTree.no_such_method")
    assert not resolves("traversal.no_such_function")


def test_no_docstring_names_a_pr_number():
    assert [(name, match) for name, doc in docstrings() for match in _PR_NUMBER.findall(doc)] == []
