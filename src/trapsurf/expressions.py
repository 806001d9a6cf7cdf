"""Closed-form expression grammar for user-defined metrics, maps and fields.

Component functions are given as strings in a small arithmetic grammar:
+, -, *, /, ** (or ^), exp, log, sin, cos, sinh, cosh, sqrt, the declared
coordinate/parameter symbols, named constants and pi.  Strings are parsed
into sympy expressions (which also supplies analytic derivatives) after a
strict token whitelist check, so arbitrary code can never be evaluated.

The unit of compilation is a template: the texts, the symbol names and the
names of the constants.  A template is parsed, differentiated and
lambdified once per process, with each constant as an argument, so objects
that differ only in their constants' values share one compiled template.
"""

import functools
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


def _parse(text, symbols, bound):
    """Parse `text` in the coordinate `symbols` and the `bound` constants
    (name -> sympy number or symbol); a bound name shadows a coordinate."""
    local = dict(symbols)
    local.update(bound)
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
    extra = expr.free_symbols - set(symbols.values()) - set(bound.values())
    if extra:
        raise InvalidExpression(f"unknown symbols {sorted(map(str, extra))}")
    return expr


def parse_expression(text, symbols, constants=None):
    """Parse one expression string into a sympy expression.

    `symbols` maps coordinate/parameter names to sympy Symbols; `constants`
    maps names to numeric values which are substituted immediately.
    """
    bound = {k: sp.Float(v) for k, v in dict(constants or {}).items()}
    return _parse(text, symbols, bound)


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
    node and stacks the results.  None stays None.
    """
    if fn is None or getattr(fn, "blockwise", False):
        return fn

    def lifted(x):
        return np.array([np.asarray(fn(row), dtype=float) for row in x])

    return blockwise(lifted)


def _shape(nested):
    """The shape of a regular nested list of expressions."""
    if not isinstance(nested, (list, tuple)):
        return ()
    shapes = {_shape(e) for e in nested}
    if len(shapes) > 1:
        raise InvalidExpression(
            f"ragged expression array: entry shapes {sorted(shapes)}")
    return (len(nested),) + (shapes.pop() if shapes else ())


class _Lambdified:
    """A nested list of expressions lambdified once, in the coordinates
    followed by the constants; `bind` fixes the constants' values."""

    def __init__(self, exprs, syms):
        self.shape = _shape(exprs)
        self.entries = sp.flatten(exprs)
        self.fn = sp.lambdify(syms, self.entries, modules="numpy")

    def bind(self, values):
        """A blockwise x -> ndarray: one point x (n,) gives an array of the
        expressions' shape, a block (N, n) gives (N, *shape) from one call.
        Constant entries, which numpy evaluates to scalars, are broadcast."""
        fn, size, shape = self.fn, len(self.entries), self.shape

        def wrapped(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape[:-1] + (size,))
            for k, value in enumerate(fn(*np.moveaxis(x, -1, 0), *values)):
                out[..., k] = value
            return out.reshape(x.shape[:-1] + shape)

        return blockwise(wrapped)


# Compiled templates kept per process; like BLOCK_NODES, a fixed bound.
TEMPLATE_CACHE_SIZE = 128


def _map(fn, nested):
    if isinstance(nested, list):
        return [_map(fn, e) for e in nested]
    return fn(nested)


def _derivatives(exprs, syms, axis_first):
    """d exprs / d s for each s in syms, on a new first or last axis."""
    if axis_first:
        return [_map(lambda e: sp.diff(e, s), exprs) for s in syms]
    return _map(lambda e: [sp.diff(e, s) for s in syms], exprs)


def _constant_symbols(names, constant_names):
    """A symbol per constant, named apart from every coordinate (a constant
    may shadow a coordinate's name in the text) and from the functions of
    the generated code.  Plain, fixed names, not Dummies: lambdify orders
    products by symbol name, so the evaluation order (and the rounding)
    depends on the template alone."""
    taken = set(names)
    symbols = {}
    for c in constant_names:
        name = "_" + c
        while name in taken:
            name = "_" + name
        taken.add(name)
        symbols[c] = sp.Symbol(name, real=True)
    return symbols


class Template:
    """Expression texts compiled once for every value of their constants.

    The constants are sympy symbols while parsing, differentiating and
    lambdifying; each object built from the template binds its own values.
    `exprs` is the parsed nested list, `constant_symbols` maps each constant
    name to its symbol.
    """

    def __init__(self, names, texts, constant_names, order, axis_first):
        syms = make_symbols(names)
        ordered = [syms[n] for n in names]
        self.constant_symbols = _constant_symbols(names, constant_names)
        parsed = {}

        def parse(node):
            if isinstance(node, tuple):
                return [parse(e) for e in node]
            if node not in parsed:
                parsed[node] = _parse(node, syms, self.constant_symbols)
            return parsed[node]

        self.exprs = parse(texts)
        args = ordered + list(self.constant_symbols.values())
        arrays = [self.exprs]
        for _ in range(order):
            arrays.append(_derivatives(arrays[-1], ordered, axis_first))
        self._arrays = [_Lambdified(a, args) for a in arrays]
        self.shape = self._arrays[0].shape

    @functools.cached_property
    def _asymmetry(self):
        """exprs[i][j] - exprs[j][i] for each i < j where the two entries
        differ for some constant values (square templates only)."""
        m = self.exprs
        diffs = []
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                if m[i][j] != m[j][i]:
                    diff = sp.simplify(m[i][j] - m[j][i])
                    if diff != 0:
                        diffs.append(diff)
        return tuple(diffs)

    def symmetric(self, constants):
        """Whether a square template is symmetric at these constant values.

        The symbolic check runs once per template; only entry pairs that
        differ symbolically are checked again with the values substituted.
        """
        values = dict(zip(self.constant_symbols.values(), self._values(constants)))
        return all(sp.simplify(d.subs(values)) == 0 for d in self._asymmetry)

    def _values(self, constants):
        """The constants' values as floats, in argument order."""
        return tuple(float(constants[c]) for c in self.constant_symbols)

    def bind(self, constants=None):
        """Blockwise callables for the expressions and each derivative
        order, with `constants` (name -> value) fixed."""
        values = self._values(constants)
        return [a.bind(values) for a in self._arrays]


def _texts(nested):
    if isinstance(nested, (list, tuple)):
        return tuple(_texts(e) for e in nested)
    return str(nested)


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _compile(names, texts, constant_names, order, axis_first):
    return Template(names, texts, constant_names, order, axis_first)


def template(names, texts, constants=None, order=0, axis_first=False):
    """The compiled template of `texts`, a nested list of expression strings
    in the symbols `names` and the names of `constants`, with derivatives up
    to `order` in `names`, each on a new last (or, with `axis_first`, first)
    axis.

    Compiled templates are cached by text and names, never by constant
    values, in a least-recently-used cache of TEMPLATE_CACHE_SIZE entries.
    A text that fails a check raises InvalidExpression on every attempt.
    """
    return _compile(tuple(names), _texts(texts), tuple(sorted(constants or ())),
                    order, axis_first)

