"""The package root: it exports nothing, and each module imports on its own."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "exclusim").glob("*.py") if path.stem != "__init__")


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """`code` run by a new interpreter that imports exclusim from this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # The root loads nothing, so this is the first import of the module's dependencies.
    result = _fresh_python(f"import exclusim.{module}")
    assert result.returncode == 0, result.stderr


def test_package_root_exports_nothing():
    result = _fresh_python(
        "import sys, exclusim\n"
        "print(sorted(name for name in vars(exclusim) if not name.startswith('_')))\n"
        "print(sorted(name for name in sys.modules if name.startswith('exclusim.')))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"
