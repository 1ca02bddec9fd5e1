import os
import subprocess
import sys
from pathlib import Path

import pytest
from pins import PIN_FILES

import twopoint


def test_star_import_yields_exactly_the_documented_names():
    namespace = {}
    exec("from twopoint import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == ["Method", "ck_sequence", "error_sequence", "load_problems", "parse", "solve"]


def _modules_cli_import_adds(names):
    # a fresh interpreter, so no other test's imports count, and without site
    # (-S), whose hooks on some hosts load typing, inspect or pathlib first and
    # so hide what the import adds
    src = str(Path(twopoint.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import twopoint.cli; "
        f"print(sorted((set(sys.modules) - before) & {set(names)!r}))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_statistics_unloaded():
    # statistics alone took about a tenth of the CLI's import time
    assert _modules_cli_import_adds(("statistics",)) == "[]\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # dataclasses, with the inspect, ast and dis it imports, took about two
    # thirds of the CLI's import time; the value types do without them
    assert _modules_cli_import_adds(("dataclasses", "inspect")) == "[]\n"


def test_cli_import_leaves_json_pathlib_and_typing_unloaded():
    # json, which only --format json and --problems use, took a fifth of the
    # import time; pathlib and typing (with contextlib) about two fifths under -S
    assert _modules_cli_import_adds(("json", "pathlib", "typing", "contextlib")) == "[]\n"


@pytest.mark.parametrize("pin_file", PIN_FILES)
def test_pin_file_imports_without_pytest_or_hypothesis(pin_file):
    # run as a script, each pin file checks its data where neither is installed
    src = str(Path(twopoint.__file__).resolve().parents[1])
    path = os.pathsep.join((src, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")))
    code = f"import sys; sys.modules['pytest'] = sys.modules['hypothesis'] = None; import {pin_file}"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_pin_file_is_listed():
    # a test file whose script mode checks recorded data is a pin file, and
    # the workflow runs as scripts exactly those that PIN_FILES lists
    tests = Path(__file__).parent
    checking = [
        path.stem
        for path in sorted(tests.glob("test_*.py"))
        if "check_or_record(" in path.read_text(encoding="utf-8").partition('if __name__ == "__main__":')[2]
    ]
    assert checking == sorted(PIN_FILES)


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
