import math

import pytest
import sympy as sp

from trapsurf.errors import InvalidExpression
from trapsurf.expressions import (
    make_symbols,
    parse_expression,
    template,
)


@pytest.fixture
def syms():
    return make_symbols(("r", "th"))


def test_parse_basic(syms):
    compiled = template(("r", "th"), ["r**2 * sin(th)**2"])
    assert compiled.exprs[0] == parse_expression("r**2 * sin(th)**2", syms)
    fn, = compiled.bind()
    assert fn([2.0, math.pi / 2])[0] == pytest.approx(4.0)


def test_caret_is_power(syms):
    assert parse_expression("r^2", syms) == syms["r"] ** 2


def test_pi_and_rationals(syms):
    expr = parse_expression("pi * r / 2", syms)
    assert expr == sp.pi * syms["r"] / 2


def test_constants_are_substituted(syms):
    expr = parse_expression("M / r", syms, constants={"M": 3.0})
    assert float(expr.subs(syms["r"], 2.0)) == pytest.approx(1.5)


def test_unknown_symbol_rejected(syms):
    with pytest.raises(InvalidExpression):
        parse_expression("r + q", syms)


def test_unknown_function_rejected(syms):
    with pytest.raises(InvalidExpression):
        parse_expression("tan(th)", syms)


def test_keywords_rejected(syms):
    with pytest.raises(InvalidExpression):
        parse_expression("lambda r", syms)


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
def test_injection_attempts_rejected(syms, bad):
    with pytest.raises(InvalidExpression):
        parse_expression(bad, syms)


def test_parse_matrix_shape(syms):
    compiled = template(("r", "th"), [["r", "0"], ["0", "sin(th)"]])
    rows = compiled.exprs
    assert compiled.shape == (2, 2)
    assert len(rows) == 2 and len(rows[0]) == 2
    assert rows[1][1] == sp.sin(syms["th"])
