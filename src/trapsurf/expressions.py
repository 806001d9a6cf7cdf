"""Closed-form expression grammar for user-defined metrics, maps and fields.

Component functions are given as strings in a small arithmetic grammar:
+, -, *, /, ** (or ^), exp, log, sin, cos, sinh, cosh, sqrt, the declared
coordinate/parameter symbols, named constants and pi.  Strings are parsed
into sympy expressions (which also supplies analytic derivatives) after a
strict token whitelist check, so arbitrary code can never be evaluated.
"""

import io
import keyword
import re
import tokenize

import numpy as np
import sympy as sp

from .errors import InvalidExpression

ALLOWED_FUNCTIONS = {
    "exp": sp.exp,
    "log": sp.log,
    "sin": sp.sin,
    "cos": sp.cos,
    "sinh": sp.sinh,
    "cosh": sp.cosh,
    "sqrt": sp.sqrt,
    "pow": sp.Pow,
}

_ALLOWED_CHARS = re.compile(r"^[A-Za-z0-9_+\-*/^().,\s]*$")
_ALLOWED_OPS = {"+", "-", "*", "/", "**", "^", "(", ")", ","}


def _check_tokens(text, names):
    if not _ALLOWED_CHARS.match(text):
        raise InvalidExpression(f"illegal character in expression {text!r}")
    try:
        toks = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except tokenize.TokenError as exc:
        raise InvalidExpression(f"cannot tokenize {text!r}: {exc}") from exc
    for tok in toks:
        if tok.type == tokenize.NAME:
            name = tok.string
            if keyword.iskeyword(name):
                raise InvalidExpression(f"keyword {name!r} not allowed")
            if name not in names and name not in ALLOWED_FUNCTIONS and name != "pi":
                raise InvalidExpression(
                    f"unknown symbol {name!r} in expression {text!r}"
                )
        elif tok.type == tokenize.OP:
            if tok.string not in _ALLOWED_OPS:
                raise InvalidExpression(f"operator {tok.string!r} not allowed")
        elif tok.type in (
            tokenize.NUMBER,
            tokenize.NEWLINE,
            tokenize.NL,
            tokenize.ENDMARKER,
            tokenize.INDENT,
            tokenize.DEDENT,
        ):
            continue
        else:
            raise InvalidExpression(f"token {tok.string!r} not allowed")


def parse_expression(text, symbols, constants=None):
    """Parse one expression string into a sympy expression.

    `symbols` maps coordinate/parameter names to sympy Symbols; `constants`
    maps names to numeric values which are substituted immediately.
    """
    constants = dict(constants or {})
    local = dict(symbols)
    local.update({k: sp.Float(v) for k, v in constants.items()})
    _check_tokens(str(text), set(local))
    local.update(ALLOWED_FUNCTIONS)
    local["pi"] = sp.pi
    source = str(text).replace("^", "**")
    try:
        expr = sp.parsing.sympy_parser.parse_expr(
            source,
            local_dict=local,
            # the tokenizer needs the numeric constructors; nothing else leaks in
            global_dict={"Integer": sp.Integer, "Float": sp.Float,
                         "Rational": sp.Rational, "Symbol": sp.Symbol},
            evaluate=True,
        )
    except Exception as exc:
        raise InvalidExpression(f"cannot parse {text!r}: {exc}") from exc
    extra = expr.free_symbols - set(symbols.values())
    if extra:
        raise InvalidExpression(f"unknown symbols {sorted(map(str, extra))}")
    return expr


def make_symbols(names):
    return {name: sp.Symbol(name, real=True) for name in names}


def blockwise(fn):
    """Mark `fn` as evaluating a whole block of points (N, n) in one call."""
    fn.blockwise = True
    return fn


def lift(fn):
    """`fn` as a callable on blocks of points (N, n).

    A callable marked `blockwise` is returned as it is.  Any other callable
    is taken to accept one point (n,): the lifted version calls it once per
    node and stacks the results, and passes a single point straight through.
    None stays None.
    """
    if fn is None or getattr(fn, "blockwise", False):
        return fn

    def lifted(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return fn(x)
        return np.array([np.asarray(fn(row), dtype=float) for row in x])

    return blockwise(lifted)


def lambdify_array(exprs, syms):
    """Lambdify a nested list / sympy Array of expressions into a blockwise
    x -> ndarray.

    One point x (n,) gives an array of the expressions' shape; a block
    (N, n) gives (N, *shape) from one call.  Constant entries, which numpy
    evaluates to scalars, are broadcast over the block.
    """
    arr = sp.Array(exprs)
    shape = arr.shape
    entries = sp.flatten(arr.tolist())
    f = sp.lambdify(syms, entries, modules="numpy")

    def wrapped(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (len(entries),))
        for k, value in enumerate(f(*np.moveaxis(x, -1, 0))):
            out[..., k] = value
        return out.reshape(x.shape[:-1] + shape)

    return blockwise(wrapped)


def parse_matrix(rows, symbols, constants=None):
    return [[parse_expression(e, symbols, constants) for e in row] for row in rows]


def parse_vector(entries, symbols, constants=None):
    return [parse_expression(e, symbols, constants) for e in entries]
