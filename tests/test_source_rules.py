"""Rules on the package's own source files."""

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
