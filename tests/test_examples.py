"""Every example script imports cleanly against the current API.

The examples are runnable scripts, not tests: nothing else imports them, so
a renamed or deleted public name would otherwise break one silently.  Each
is imported as a module (its ``main()`` is not called, so no experiment
runs) and must expose a callable ``main``.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
