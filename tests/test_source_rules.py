"""Rules on the package's own source files."""

import ast
import pathlib
import re

import polarkit


def test_one_whole_number_rule():
    """``errors.whole`` (and ``integral_array`` for arrays) alone decides what
    an integer argument is: no module writes its own integrality test or
    brings back a private digit, branch or value coercion of its own."""
    sources = sorted(pathlib.Path(polarkit.__file__).parent.glob("*.py"))
    assert {"errors.py", "becpolar.py", "extval.py"} <= {p.name for p in sources}
    for path in sources:
        text = path.read_text(encoding="utf-8")
        if path.name != "errors.py":
            assert "integral(" not in text, path.name
        for name in ("_digit", "_branch", "_as_extval"):
            assert not re.search(rf"^\s*def {name}\(", text, re.M), (path.name, name)


def test_one_json_record_writer():
    """``serialize.dumps_17g`` alone turns a report into JSON: no other
    module imports ``json``, flattens a record with ``asdict`` or defines a
    ``to_dict`` of its own."""
    sources = sorted(pathlib.Path(polarkit.__file__).parent.glob("*.py"))
    assert "serialize.py" in {p.name for p in sources}
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*def to_dict\(", text, re.M), path.name
        if path.name != "serialize.py":
            assert not re.search(r"^\s*(import|from) json\b", text, re.M), path.name
            assert "asdict" not in text, path.name


def test_one_real_number_rule():
    """``errors.real`` alone checks a scalar real argument: ``math.isnan``
    appears only in ``errors.py`` and ``q_function``, and no raised error
    brings back an interval wording of its own."""
    old = ("must lie", "strictly inside", "outside [", "must be finite", "must not be nan")
    sources = sorted(pathlib.Path(polarkit.__file__).parent.glob("*.py"))
    assert {"errors.py", "asymptotics.py"} <= {p.name for p in sources}
    for path in sources:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        allowed = text if path.name == "errors.py" else ""
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "q_function":
                allowed += ast.get_source_segment(text, node)
            if isinstance(node, ast.Raise) and node.exc is not None:
                message = ast.unparse(node.exc)
                assert not any(w in message for w in old), (path.name, message)
        assert text.count("math.isnan(") == allowed.count("math.isnan("), path.name
