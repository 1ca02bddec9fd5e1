import json

import pytest

from twopoint.corpus import (
    ExpectedResult,
    ProblemFileError,
    builtin_problems,
    find_problem,
    load_problems,
    table1_problems,
    table2_problems,
    _cell,
)
from twopoint.expressions import eval_dual, parse
from twopoint.solvers import Converged, Diverged, Method


def test_reference_roots_are_transcribed_correctly():
    for prob in builtin_problems():
        if prob.reference_root is None:
            continue
        residual = eval_dual(prob.expression, prob.reference_root).value
        assert abs(residual) <= 1e-9, prob.name


def test_starts_are_in_domain():
    for prob in builtin_problems():
        for start in prob.starts:
            eval_dual(prob.expression, start)  # must not raise


def test_builtin_order_is_stable():
    names = [p.name for p in builtin_problems()]
    assert names == [p.name for p in builtin_problems()]
    assert len(names) == len(set(names))
    assert names[: len(table1_problems())] == [p.name for p in table1_problems()]


def test_tables_partition_builtins():
    assert len(table1_problems()) == 6
    assert len(table2_problems()) == 8
    assert len(builtin_problems()) == 15  # + the near-critical sine demo


def test_expected_cells():
    log_mix = find_problem("x - 3 * ln(x)")
    assert log_mix.expected[(Method.TWO_POINT, 2.0)] == ExpectedResult(Converged.label, 4)
    cube = find_problem("cbrt(x)")
    assert cube.expected[(Method.NEWTON, 1.0)] == ExpectedResult(Diverged.label)
    arctan = find_problem("atan(x)")
    assert arctan.expected[(Method.SECANT, 3.0)] == ExpectedResult(Diverged.label)


def test_find_problem_unknown():
    with pytest.raises(KeyError):
        find_problem("nope")


def test_find_problem_searches_extra_before_builtins():
    builtin = find_problem("atan(x)")
    own = builtin._replace(source="atan(x) - 1", expression=parse("atan(x) - 1"))
    assert find_problem("atan(x)", (own,)) is own
    assert find_problem("cbrt(x)", (own,)) is find_problem("cbrt(x)")
    with pytest.raises(KeyError) as info:
        find_problem("nope", (own,))
    assert info.value.args == ("no problem named 'nope'",)


def test_iteration_count_validation():
    with pytest.raises(ValueError):
        _cell(0)
    with pytest.raises(ValueError):
        _cell(True)


# --- problem files ------------------------------------------------------------


def test_load_minimal_entry(tmp_path):
    path = tmp_path / "problems.json"
    path.write_text(json.dumps([{"name": "t", "expr": "x^2-4", "starts": [3]}]))
    (prob,) = load_problems(path)
    assert prob.name == "t"
    assert prob.starts == (3.0,)
    assert prob.reference_root is None
    assert not prob.expected


def test_load_bad_expression_names_entry_and_field(tmp_path):
    path = tmp_path / "problems.json"
    path.write_text(json.dumps([{"name": "t", "expr": "x^^2", "starts": [1]}]))
    with pytest.raises(ProblemFileError) as info:
        load_problems(path)
    assert "entry 0" in str(info.value)
    assert "'expr'" in str(info.value)


def test_load_out_of_domain_start(tmp_path):
    path = tmp_path / "problems.json"
    path.write_text(json.dumps([{"name": "t", "expr": "ln(x)", "starts": [-1]}]))
    with pytest.raises(ProblemFileError) as info:
        load_problems(path)
    assert "'starts'" in str(info.value)


def test_load_entry_matches_builtin(tmp_path):
    builtin = find_problem("atan(x)")
    entry = {
        "name": "atan(x)",
        "expr": "atan(x)",
        "root": 0.0,
        "starts": [3.0, -3.0],
        "expected": {
            "secant@3.0": "diverges",
            "newton@3.0": "diverges",
            "twopoint@3.0": 6,
            "secant@-3.0": "diverges",
            "newton@-3.0": "diverges",
            "twopoint@-3.0": 6,
        },
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps([entry]))
    (prob,) = load_problems(path)
    assert prob == builtin


@pytest.mark.parametrize(
    "entry,field",
    [
        ({"expr": "x", "starts": [1]}, "name"),
        ({"name": "t", "starts": [1]}, "expr"),
        ({"name": "t", "expr": "x"}, "starts"),
        ({"name": "t", "expr": "x", "starts": []}, "starts"),
        ({"name": "t", "expr": "x", "starts": [1], "root": "no"}, "root"),
        ({"name": "t", "expr": "x", "starts": [True]}, "starts"),
        ({"name": "t", "expr": "x", "starts": [1], "expected": {"bogus@1": 3}}, "expected"),
        ({"name": "t", "expr": "x", "starts": [1], "expected": {"newton@x": 3}}, "expected"),
        ({"name": "t", "expr": "x", "starts": [1], "expected": {"newton@1": "sometimes"}}, "expected"),
        ({"name": "t", "expr": "x", "starts": [1], "expected": {"newton@1": -2}}, "expected"),
        ({"name": "t", "expr": "x", "starts": [10**400]}, "starts"),
        ({"name": "t", "expr": "x", "starts": [1], "root": -(10**400)}, "root"),
        # an expected key names one of its entry's starts
        ({"name": "t", "expr": "x", "starts": [3.0], "expected": {"newton@nan": 3}}, "expected"),
        ({"name": "t", "expr": "x", "starts": [3.0], "expected": {"twopoint@inf": 3}}, "expected"),
        ({"name": "t", "expr": "x", "starts": [3.0], "expected": {"secant@9": 3}}, "expected"),
        # and no two keys name the same cell
        ({"name": "t", "expr": "x", "starts": [3.0], "expected": {"newton@3": 5, "newton@3.0": "diverges"}}, "expected"),
    ],
)
def test_load_schema_violations(tmp_path, entry, field):
    path = tmp_path / "problems.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(ProblemFileError) as info:
        load_problems(path)
    assert f"'{field}'" in str(info.value)


def test_load_rejects_non_array(tmp_path):
    path = tmp_path / "problems.json"
    path.write_text("{}")
    with pytest.raises(ProblemFileError):
        load_problems(path)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "problems.json"
    # the second is "[]" after a UTF-16 byte-order mark: JSON text is UTF-8
    for data in (b"not json", b"\xff\xfe[]"):
        path.write_bytes(data)
        with pytest.raises(ProblemFileError, match="^not valid JSON: "):
            load_problems(path)


def test_load_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "problems.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ProblemFileError):
        load_problems(path)


def test_load_rejects_integer_too_long_to_convert(tmp_path):
    path = tmp_path / "problems.json"
    path.write_text('[{"name": "t", "expr": "x", "starts": [1' + "0" * 5000 + "]}]")
    with pytest.raises(ProblemFileError) as info:
        load_problems(path)
    # "(4300 digits)" from Python 3.11 on, "(4300)" before
    assert str(info.value).startswith("not valid JSON: Exceeds the limit (4300")


@pytest.mark.parametrize(
    ("data", "want"),
    [
        ([1], "entry 0: expected an object, got int"),
        (
            [{"name": "t", "expr": "x", "starts": [1], "expected": [1]}],
            "entry 0, field 'expected': must be an object keyed 'method@start'",
        ),
    ],
)
def test_load_names_an_entry_of_the_wrong_type(tmp_path, data, want):
    path = tmp_path / "problems.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ProblemFileError) as info:
        load_problems(path)
    assert str(info.value) == want


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_problems(tmp_path / "absent.json")


@pytest.mark.parametrize(
    ("value", "want"),
    [
        ("wat", "bad value 'wat' for 'newton@1', want a count or one of ['diverges', 'fails', 'oscillates']"),
        (0, "bad value 0 for 'newton@1', want a positive integer"),
        (True, "bad value True for 'newton@1', want a positive integer"),
        (2.0, "bad value 2.0 for 'newton@1', want a positive integer"),
        (None, "bad value None for 'newton@1', want a positive integer"),
    ],
)
def test_bad_expected_value_names_entry_and_key(tmp_path, value, want):
    path = tmp_path / "problems.json"
    path.write_text(json.dumps([{"name": "t", "expr": "x", "starts": [1], "expected": {"newton@1": value}}]))
    with pytest.raises(ProblemFileError) as info:
        load_problems(path)
    assert str(info.value) == f"entry 0, field 'expected': {want}"
