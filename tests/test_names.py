"""Every name the benchmark tracer wraps, and every exported name, exists.

``perfbench/spans.py`` wraps functions and methods of the package by name
for ``perfbench/run.py --trace 1``.  Its smoke test runs outside the default
test paths, so a deleted or renamed traced name would otherwise go unnoticed
here.  ``spans.py`` is loaded from its file; it imports nothing of the
package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import mesolabe

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module_name, path, span", _traced())
def test_traced_name_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    if "." in path:
        # the tracer replaces methods in the class's own namespace
        class_name, attr = path.split(".")
        owner = getattr(owner, class_name)
        assert attr in vars(owner), f"{module_name}.{path} ({span})"
        return
    assert callable(getattr(owner, path, None)), f"{module_name}.{path} ({span})"


@pytest.mark.parametrize("name", mesolabe.__all__)
def test_exported_name_resolves(name):
    assert hasattr(mesolabe, name)
