def test_star_import_yields_exactly_the_documented_names():
    namespace = {}
    exec("from twopoint import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == ["Method", "ck_sequence", "error_sequence", "load_problems", "parse", "solve"]
