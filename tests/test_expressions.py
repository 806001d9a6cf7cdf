import math

import pytest
import sympy as sp

from trapsurf.errors import InvalidExpression
from trapsurf.expressions import make_symbols, template

NAMES = ("r", "th")


@pytest.fixture
def syms():
    return make_symbols(NAMES)


def parse(text, constants=None):
    """The one parsed expression of a single-text template."""
    return template(NAMES, [text], constants).exprs[0]


def test_parse_basic(syms):
    compiled = template(NAMES, ["r**2 * sin(th)**2"])
    assert compiled.exprs[0] == syms["r"] ** 2 * sp.sin(syms["th"]) ** 2
    fn, = compiled.bind()
    assert fn([[2.0, math.pi / 2]])[0, 0] == pytest.approx(4.0)


def test_caret_is_power(syms):
    assert parse("r^2") == syms["r"] ** 2


def test_pi_and_rationals(syms):
    assert parse("pi * r / 2") == sp.pi * syms["r"] / 2


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
])
def test_injection_attempts_rejected(bad):
    with pytest.raises(InvalidExpression):
        parse(bad)


def test_parse_matrix_shape(syms):
    compiled = template(NAMES, [["r", "0"], ["0", "sin(th)"]])
    rows = compiled.exprs
    assert compiled.shape == (2, 2)
    assert len(rows) == 2 and len(rows[0]) == 2
    assert rows[1][1] == sp.sin(syms["th"])
