"""The repository's pytest configuration, exercised on a run of its own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_failing_property_is_one_failure_not_an_internal_error(tmp_path):
    """Under the repository's warnings-as-errors filter, a failing
    hypothesis property is reported as a failed test, exit 1. Printing its
    failing example imports libcst, which warns from mypy_extensions;
    unfiltered, that warning ends the whole run in INTERNALERROR, exit 3."""
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers(0, 10))\n"
        "def test_below_five(n):\n"
        "    assert n < 5\n"
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_property.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed" in out
