import os
import subprocess
import sys
from pathlib import Path

import pytest

import twopoint


def test_star_import_yields_exactly_the_documented_names():
    namespace = {}
    exec("from twopoint import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == ["Method", "ck_sequence", "error_sequence", "load_problems", "parse", "solve"]


def test_cli_import_leaves_statistics_unloaded():
    # a fresh interpreter, so no other test's imports count; statistics
    # alone took about a tenth of the CLI's import time
    src = str(Path(twopoint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, twopoint.cli; print(sorted(m for m in ('statistics', 'twopoint.cli') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "['twopoint.cli']\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # dataclasses, with the inspect, ast and dis it imports, took about two
    # thirds of the CLI's import time; the value types do without them.  Only
    # what the import adds counts: on some hosts site has loaded inspect already
    src = str(Path(twopoint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys; before = set(sys.modules); import twopoint.cli; "
        "print(sorted((set(sys.modules) - before) & {'dataclasses', 'inspect'}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("pin_file", ["test_cli_bytes", "test_corpus_bits", "test_eval_pins", "test_parse_pins"])
def test_pin_file_imports_without_pytest_or_hypothesis(pin_file):
    # run as a script, each pin file checks its data where neither is installed
    src = str(Path(twopoint.__file__).resolve().parents[1])
    path = os.pathsep.join((src, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")))
    code = f"import sys; sys.modules['pytest'] = sys.modules['hypothesis'] = None; import {pin_file}"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_failing_property_reports_its_example_under_the_repo_config(tmp_path):
    # filterwarnings = ["error"] must leave hypothesis's report hook working: a
    # warning raised there stops the session with INTERNALERROR and no example
    pytest.importorskip("hypothesis")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    argv = [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    proc = subprocess.run(argv + ["test_property.py"], cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
