"""The one rule for scalar real arguments, ``errors.real``."""

import math

import numpy as np
import pytest

from polarkit.errors import DomainError, real


def test_numbers_count_as_the_float_they_equal():
    for x, want in ((0.25, 0.25), (1, 1.0), (np.float64(0.5), 0.5), (np.float32(0.25), 0.25),
                    (np.int64(-3), -3.0), (True, 1.0), (False, 0.0), (np.True_, 1.0)):
        got = real(x, "x")
        assert type(got) is float and got == want


@pytest.mark.parametrize("bad", ["0.5", None, np.array([0.5]), np.array(0.5), 0.5j, math.nan])
def test_anything_else_is_not_a_number(bad):
    with pytest.raises(DomainError, match=r"^x .* is not a number in \[-inf, inf\]$"):
        real(bad, "x")


def test_infinities_lie_in_closed_unbounded_intervals():
    assert real(math.inf, "x") == math.inf and real(-math.inf, "x") == -math.inf
    for ends, x in (("()", math.inf), ("()", -math.inf), ("[)", math.inf), ("(]", -math.inf)):
        with pytest.raises(DomainError):
            real(x, "x", ends=ends)


@pytest.mark.parametrize("ends", ["[]", "[)", "(]", "()"])
def test_each_end_open_or_closed(ends):
    assert real(0.5, "p", 0.0, 1.0, ends) == 0.5
    for x, closed in ((0.0, ends[0] == "["), (1, ends[1] == "]")):
        if closed:
            assert real(x, "p", 0.0, 1.0, ends) == x
        else:
            with pytest.raises(DomainError, match=rf"^p {x!r} is not a number in "
                                                  rf"\{ends[0]}0, 1\{ends[1]}$"):
                real(x, "p", 0.0, 1.0, ends)
    for x in (-1e-300, math.nextafter(1.0, 2.0), -math.inf, math.inf):
        with pytest.raises(DomainError):
            real(x, "p", 0.0, 1.0, ends)


def test_one_wording():
    with pytest.raises(DomainError) as exc:
        real(1.5, "eps", 0, 1, "(]")
    assert str(exc.value) == "eps 1.5 is not a number in (0, 1]"
    with pytest.raises(DomainError) as exc:
        real(0.75, "rate", 0.0, 0.5, "()")
    assert str(exc.value) == "rate 0.75 is not a number in (0, 0.5)"
    with pytest.raises(DomainError) as exc:
        real(np.float64(0.5), "s", 1.0, math.inf, "[)")
    assert str(exc.value) == "s np.float64(0.5) is not a number in [1, inf)"
