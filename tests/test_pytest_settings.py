"""The project's pytest settings report a failing property like any failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


def test_passes():
    pass


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_property_prints_its_example_under_the_warning_filters(tmp_path):
    # on failure hypothesis imports a module whose import warns; every other
    # warning is an error, so that one would end the session in INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
