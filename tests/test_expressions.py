import math

import numpy as np
import pytest

from trapsurf.errors import InvalidExpression
from trapsurf.expressions import template

NAMES = ("r", "th")


def value(text, point=(2.0, 0.5), constants=None):
    """The value of a single-text template at one point."""
    fn, = template(NAMES, [text], constants).bind(constants)
    return fn([point])[0, 0]


def parse(text, constants=None):
    """Compile a single-text template; a bad text raises."""
    return template(NAMES, [text], constants)


def test_parse_basic():
    assert value("r**2 * sin(th)**2", (2.0, math.pi / 2)) == pytest.approx(4.0)
    assert value("r**2 * sin(th)**2") == 4.0 * math.sin(0.5) ** 2


def test_caret_is_power():
    assert value("r^2") == value("r**2") == 4.0
    assert value("pow(r, 3)") == value("r^3") == 8.0


def test_pi_and_rationals():
    assert value("pi * r / 2") == math.pi
    assert value("1/2 * r") == 1.0


def test_constants_are_substituted():
    fn, = template(NAMES, ["M / r"], {"M": 3.0}).bind({"M": 3.0})
    assert fn([[2.0, 0.0]])[0, 0] == pytest.approx(1.5)


def test_unknown_symbol_rejected():
    with pytest.raises(InvalidExpression):
        parse("r + q")


def test_unknown_function_rejected():
    with pytest.raises(InvalidExpression):
        parse("tan(th)")


def test_keywords_rejected():
    with pytest.raises(InvalidExpression):
        parse("lambda r")


@pytest.mark.parametrize("bad", [
    "__import__('os').system('true')",
    "r.__class__",
    "open('x')",
    "r = 2",
    "exec('1')",
    "[1, 2]",
    "{'a': 1}",
    "r; th",
    'getattr(r, "conjugate")',
    # texts the token check lets through, but that are not in the grammar
    "(r, 1)",
    "2j * r",
    "1e400 * r",
    "r / 0",
    "r / (0 * th)",
    "sin(r, th)",
    "pow(r)",
    "r(th)",
])
def test_injection_attempts_rejected(bad):
    with pytest.raises(InvalidExpression):
        parse(bad)


def test_parse_matrix_shape():
    compiled = template(NAMES, [["r", "0"], ["0", "sin(th)"]])
    fn, = compiled.bind()
    assert compiled.shape == (2, 2)
    assert np.array_equal(fn([[2.0, 0.5]]), [[[2.0, 0.0], [0.0, math.sin(0.5)]]])
