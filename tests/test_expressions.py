import io
import keyword
import math
import re
import tokenize
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapsurf import expressions
from trapsurf.errors import InvalidExpression
from trapsurf.expressions import ALLOWED_FUNCTIONS, Template, template

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
    with pytest.raises(InvalidExpression, match="unknown symbol 'q'"):
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
    # texts of allowed characters that are not in the grammar
    "(r, 1)",
    "2j * r",
    "1e400 * r",
    "r / 0",
    "r / (0 * th)",
    "sin(r, th)",
    "pow(r)",
    "r(th)",
    "1if r",
    "r if r else th",
    "True*r",
    "not r",
    # characters outside the whitelist
    "r # c",
    "r\x1f",
    "r\x0b+1",
    "6\r",
])
def test_injection_attempts_rejected(bad):
    with pytest.raises(InvalidExpression):
        parse(bad)


def test_parse_matrix_shape():
    compiled = template(NAMES, [["r", "0"], ["0", "sin(th)"]])
    fn, = compiled.bind()
    assert compiled.shape == (2, 2)
    assert np.array_equal(fn([[2.0, 0.5]]), [[[2.0, 0.0], [0.0, math.sin(0.5)]]])


def test_a_syntax_warning_is_an_invalid_expression(recwarn):
    with pytest.raises(InvalidExpression, match="invalid decimal literal"):
        parse("1if r")
    assert not [w for w in recwarn if issubclass(w.category, SyntaxWarning)]


@pytest.mark.parametrize("text", ["R + 1/(R - 1.5)", "R + 0**(-1)", "R + 10**400",
                                  "10**400"])
def test_failing_constant_arithmetic_is_an_invalid_expression(text):
    # arithmetic with a constant's value fails when the template is bound,
    # literal-only arithmetic already when it is built (below)
    with pytest.raises(InvalidExpression, match="constant arithmetic"):
        fn, = template(NAMES, [text], {"R": 1.5}).bind({"R": 1.5})
        fn([[2.0, 0.5]])


@pytest.mark.parametrize("text", ["R + 1/(R - 1.5)", "pow(R - 1.5, -1)", "(R - 1.5)**-2"])
def test_failing_constant_only_arithmetic_fails_when_bound(text):
    # a coordinate-free entry is evaluated once per bind, not per block
    compiled = template(NAMES, [["r", text]], {"R": 1.5})
    compiled.bind({"R": 2.0})
    with pytest.raises(InvalidExpression, match="constant arithmetic"):
        compiled.bind({"R": 1.5})


def test_failing_constant_arithmetic_in_a_coordinate_entry_fails_when_evaluated():
    fn, = template(NAMES, ["r * (1/(R - 1.5))"], {"R": 1.5}).bind({"R": 1.5})
    with pytest.raises(InvalidExpression, match="constant arithmetic"):
        fn([[2.0, 0.5]])


@pytest.mark.parametrize("text", ["pow(R, 0.5)", "r * R**0.5"])
def test_a_complex_constant_power_is_an_invalid_expression(text):
    # Python's power of a negative float is complex, and a float array
    # would keep only its real part
    compiled = template(NAMES, [text], {"R": -1.0})
    with pytest.raises(InvalidExpression, match="complex value"):
        fn, = compiled.bind({"R": -1.0})
        fn([[2.0, 0.5]])


def test_constant_entries_fill_every_row_and_keep_a_complex_block():
    fn, = template(NAMES, [["R", "r * th"], ["0", "sin(th)"]], {"R": 1.5}).bind({"R": 1.5})
    x = np.array([[2.0, 0.5], [3.0, -1.0]])
    assert np.array_equal(fn(x), [[[1.5, 1.0], [0.0, math.sin(0.5)]],
                                  [[1.5, -3.0], [0.0, math.sin(-1.0)]]])
    z = fn(x + 1e-30j)
    assert z.dtype == complex and np.array_equal(z.real, fn(x))
    assert np.array_equal(z.imag[:, 0, 0], [0.0, 0.0])


@pytest.mark.parametrize("text", ["R + 7**7**9", "R + 7**(7**7)", "pow(7, pow(7, 7))",
                                  "R + 0**(-1)", "R + 10**400", "10**400", "r * (1e308*10)",
                                  "th + (-8)**(1/3)"])
def test_literal_arithmetic_fails_when_the_template_is_built(text):
    # exact integer powers once took minutes at every evaluation; folded in
    # float arithmetic, they overflow while the tree is built
    with pytest.raises(InvalidExpression, match="constant arithmetic"):
        template(NAMES, [text], {"R": 1.5})


def test_literal_subtrees_fold_to_one_number():
    compiled = template(NAMES, ["r * (2**3 - 1/4)", "2**-1 * th"])
    assert compiled.trees == [("*", ("var", "_x0"), ("num", 7.75)),
                              ("*", ("num", 0.5), ("var", "_x1"))]
    assert value("pow(2, 10) + r") == 1026.0


# texts from the grammar's characters and words, the keywords and some near
# misses: grammar-like compositions, half of their pieces from the grammar,
# and free runs of characters and words
_WORDS = [*NAMES, "M", "pi", "0", "2", "0.5", "1e3"]
_ODD_WORDS = ["1e400", "2j", "_x0", "__class__", *keyword.kwlist]
_OPS = ["+", "-", "*", "/", "**", "^", " + ", "\t*", "\f/"]
_ODD_JOINS = [",", ".", "(", " ", "", "\n", "\r", "\x0b",
              *(f" {k} " for k in keyword.kwlist)]


def _either(good, odd):
    return st.one_of(st.sampled_from(good), st.sampled_from(odd))


_COMPOSED = st.recursive(_either(_WORDS, _ODD_WORDS), lambda inner: st.one_of(
    st.builds("{}{}{}".format, inner, _either(_OPS, _ODD_JOINS), inner),
    st.builds("{}({})".format, st.sampled_from(["", "-", *ALLOWED_FUNCTIONS]), inner)),
    max_leaves=8)
_RUNS = st.lists(st.sampled_from(list("rthM0123456789_+-*/^()., ") + _ODD_JOINS
                                 + _ODD_WORDS), max_size=12).map("".join)
_TEXTS = st.one_of(_COMPOSED, _RUNS)
_SOURCE_NAME = re.compile(r"_[xc][0-9]+")
_SOURCE_OPS = {"+", "-", "*", "/", "**", "(", ")", ","}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_TEXTS)
def test_generated_source_holds_only_grammar_tokens(text):
    # a text is rejected, or every token of the source compiled from it, and
    # from its first and second derivatives, is an argument name, a finite
    # number, an operator or a grammar function
    sources = []
    real = expressions._function

    def recording(arguments, trees):
        sources.extend(map(expressions._source, trees))
        return real(arguments, trees)

    with mock.patch.object(expressions, "_function", recording):
        try:
            Template(NAMES, (text,), ("M",), 2, False)
        except InvalidExpression:
            return
    assert sources
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert _SOURCE_NAME.fullmatch(tok.string) or tok.string in ALLOWED_FUNCTIONS
            elif tok.type == tokenize.NUMBER:
                assert math.isfinite(float(tok.string)), source
            elif tok.type == tokenize.OP:
                assert tok.string in _SOURCE_OPS, source
            else:
                assert tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER), tok
