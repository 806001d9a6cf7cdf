"""Closed-form expression grammar for user-defined metrics, maps and fields.

Component functions are given as strings in a small arithmetic grammar:
+, -, *, /, ** (or ^), exp, log, sin, cos, sinh, cosh, sqrt, pow(a, b), the
declared coordinate/parameter symbols, named constants and pi.  A text of
whitelisted characters is parsed by `ast` (a SyntaxWarning is an error) into
a tree of the grammar's own nodes; any other node (a keyword, an unknown
symbol, a tuple, an attribute, a complex or non-finite literal, a call of
anything but a grammar function at its arity, a division by the literal 0)
raises InvalidExpression.

The unit of compilation is a template: the texts, the symbol names and the
names of the constants.  A template's trees are differentiated here, by the
rules of calculus with 0 and 1 folded away, and each derivative order is
compiled once per process into two numpy functions: one of the constants
for the coordinate-free entries, evaluated once when an object binds its
values, and one of the coordinates and the constants for the rest.  So
objects that differ only in their constants' values share one compiled
template.  A bound callable takes a real or a complex block and returns an
array of the block's dtype; `findiff` differentiates it by complex steps.
The generated source holds only the renamed arguments `_x{k}` (coordinates)
and `_c{k}` (constants), the repr of finite numeric literals, the five
operators and the grammar's functions, bound from numpy; no text of the
caller reaches it.
"""

import ast
import functools
import math
import operator
import re
import warnings

import numpy as np

from .errors import InvalidExpression

# the grammar's functions: pow(a, b) is a ** b, the others are numpy's
ALLOWED_FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt", "pow")

# ASCII letters and digits, the grammar's punctuation, and space, tab, newline
# and form feed: no carriage return or other control character gets through
_ALLOWED_CHARS = re.compile(r"[A-Za-z0-9_+\-*/^().,\t\n\f ]*")


# -- trees ------------------------------------------------------------------
#
# A tree is a tuple: ("num", value), ("var", argument name), ("neg", a),
# (op, a, b) for op in + - * / **, or (function, a).  The constructors fold
# 0 and 1, so derivatives carry no dead terms.

_ZERO, _ONE, _TWO = ("num", 0), ("num", 1), ("num", 2)


def _is(node, value):
    return node[0] == "num" and node[1] == value


def _add(a, b):
    return b if _is(a, 0) else a if _is(b, 0) else ("+", a, b)


def _sub(a, b):
    return a if _is(b, 0) else _neg(b) if _is(a, 0) else ("-", a, b)


def _neg(a):
    if a[0] == "num":
        return ("num", -a[1])
    return a[1] if a[0] == "neg" else ("neg", a)


def _mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return _ZERO
    return b if _is(a, 1) else a if _is(b, 1) else ("*", a, b)


def _div(a, b):
    if _is(b, 0):
        raise InvalidExpression("division by zero")
    return a if _is(a, 0) or _is(b, 1) else ("/", a, b)


def _pow(a, b):
    return _ONE if _is(b, 0) else a if _is(b, 1) else ("**", a, b)


# each operator's tree constructor and its float arithmetic
_BINARY = {ast.Add: (_add, operator.add), ast.Sub: (_sub, operator.sub),
           ast.Mult: (_mul, operator.mul), ast.Div: (_div, operator.truediv),
           ast.Pow: (_pow, operator.pow)}


def _binary(op, a, b):
    """The tree of a op b, two literals folded in float arithmetic: a
    literal-only text such as 7**7**9 fails here, not at every evaluation."""
    build, arithmetic = _BINARY[op]
    if a[0] != "num" or b[0] != "num":
        return build(a, b)
    try:
        value = arithmetic(float(a[1]), float(b[1]))
    except ArithmeticError as exc:
        raise InvalidExpression(f"constant arithmetic fails: {exc}") from None
    if not (isinstance(value, float) and math.isfinite(value)):
        raise InvalidExpression(f"constant arithmetic gives {value!r}")
    return ("num", value)


def _tree(node, variables):
    """The grammar tree of an `ast` node; `variables` maps each name to its
    argument name."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _binary(type(node.op), _tree(node.left, variables),
                       _tree(node.right, variables))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _tree(node.operand, variables)
        return _neg(operand) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            finite = math.isfinite(node.value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise InvalidExpression("non-finite number")
        return ("num", node.value)
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return ("num", math.pi)
        if node.id in variables:
            return ("var", variables[node.id])
        raise InvalidExpression(f"unknown symbol {node.id!r}")
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ALLOWED_FUNCTIONS and not node.keywords
            and len(node.args) == (2 if node.func.id == "pow" else 1)):
        args = [_tree(arg, variables) for arg in node.args]
        return _binary(ast.Pow, *args) if node.func.id == "pow" else (node.func.id, *args)
    raise InvalidExpression(f"{ast.unparse(node)!r} is not in the expression grammar")


def _parse(text, variables):
    if not _ALLOWED_CHARS.fullmatch(text):
        raise InvalidExpression(f"illegal character in expression {text!r}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            body = ast.parse(text.replace("^", "**").strip(), mode="eval").body
        return _tree(body, variables)
    except (SyntaxError, RecursionError, InvalidExpression) as exc:
        raise InvalidExpression(f"cannot parse {text!r}: {exc}") from exc


def _diff(node, var):
    """d node / d var, for the argument name `var`."""
    op = node[0]
    if op == "num":
        return _ZERO
    if op == "var":
        return _ONE if node[1] == var else _ZERO
    if op == "neg":
        return _neg(_diff(node[1], var))
    a, da = node[1], _diff(node[1], var)
    if op in ("+", "-", "*", "/", "**"):
        b, db = node[2], _diff(node[2], var)
        if op in ("+", "-"):
            return (_add if op == "+" else _sub)(da, db)
        if op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if op == "/":
            return _sub(_div(da, b), _div(_mul(a, db), _pow(b, _TWO)))
        if b[0] == "num":
            return _mul(_mul(b, _pow(a, ("num", b[1] - 1))), da)
        return _add(_mul(_mul(node, ("log", a)), db),
                    _mul(_mul(b, _pow(a, _sub(b, _ONE))), da))
    if _is(da, 0):
        return _ZERO
    if op == "log":
        return _div(da, a)
    if op == "sqrt":
        return _div(da, _mul(_TWO, node))
    outer = {"exp": node, "sin": ("cos", a), "cos": _neg(("sin", a)),
             "sinh": ("cosh", a), "cosh": ("sinh", a)}[op]
    return _mul(outer, da)


def _source(node):
    op = node[0]
    if op == "num":
        return f"({node[1]!r})"
    if op == "var":
        return node[1]
    if op == "neg":
        return f"(-{_source(node[1])})"
    if len(node) == 3:
        return f"({_source(node[1])} {op} {_source(node[2])})"
    return f"{op}({_source(node[1])})"


_NUMPY = {name: getattr(np, name) for name in ALLOWED_FUNCTIONS if name != "pow"}


def _function(arguments, trees):
    """A numpy function of `arguments` that returns the list of `trees`."""
    source = (f"def f({', '.join(arguments)}):\n"
              f"    return [{', '.join(map(_source, trees))}]\n")
    scope = {"__builtins__": {}, **_NUMPY}
    exec(compile(source, "<expression template>", "exec"), scope)
    return scope["f"]


def _substitute(node, values):
    if node[0] == "var":
        return ("num", values[node[1]]) if node[1] in values else node
    if node[0] == "num":
        return node
    return (node[0], *(_substitute(a, values) for a in node[1:]))


# -- templates --------------------------------------------------------------

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


def _uses_coordinates(node):
    """Whether a tree reads a coordinate argument `_x{k}`."""
    if node[0] == "var":
        return node[1].startswith("_x")
    return node[0] != "num" and any(_uses_coordinates(a) for a in node[1:])


def _array(shape, trees, arguments, dim):
    """An expression array compiled for `_bind`: (shape, the flat indices of
    the coordinate-free entries, a function of the constants that returns
    them, the indices of the other entries, a function of the coordinates
    and the constants that returns those)."""
    moving = [_uses_coordinates(t) for t in trees]
    fixed = [t for t, m in zip(trees, moving) if not m]
    varying = [t for t, m in zip(trees, moving) if m]
    return (shape, np.flatnonzero(np.logical_not(moving)), _function(arguments[dim:], fixed),
            np.flatnonzero(moving), _function(arguments, varying))


def _entries(fn, args, complex_block):
    """fn(*args) as one array.  Failing constant-only arithmetic (1/0, an
    int beyond the float range) raises InvalidExpression, and so does a
    complex value from a real block, which only Python's power of a
    negative constant can give."""
    try:
        entries = np.array(fn(*args))
    except ArithmeticError as exc:
        raise InvalidExpression(f"constant arithmetic fails: {exc}") from None
    if entries.dtype.kind == "c" and not complex_block:
        raise InvalidExpression("constant arithmetic gives a complex value")
    return entries


def _bind(array, values):
    """A blockwise x -> ndarray of an `_array` at the constants' `values`: a
    block (N, n) gives (N, *shape), complex for a complex block.  The
    coordinate-free entries are evaluated here, once; the others come from
    one call per block, written in one stacked assignment.

    The result is marked `compiled`: every entry is a composition of the
    grammar's analytic functions, so a complex step differentiates it."""
    shape, fixed, fixed_fn, moving, moving_fn = array
    row = np.empty(math.prod(shape))
    row[fixed] = _entries(fixed_fn, values, False)

    def wrapped(x):
        x = np.asarray(x)
        complex_block = x.dtype.kind == "c"
        x = x.astype(complex if complex_block else float, copy=False)
        if x.ndim != 2:
            raise ValueError(f"expected a block of points (N, n), got shape {x.shape}")
        out = np.empty((len(x), len(row)), dtype=x.dtype)
        out[:] = row
        if len(moving):
            out[:, moving] = _entries(moving_fn, (*x.T, *values), complex_block).T
        return out.reshape((len(x),) + shape)

    wrapped.compiled = True
    return blockwise(wrapped)


# Compiled templates kept per process; like BLOCK_NODES, a fixed bound.
TEMPLATE_CACHE_SIZE = 128


def _flatten(nested):
    if isinstance(nested, tuple):
        return [leaf for e in nested for leaf in _flatten(e)]
    return [nested]


class Template:
    """Expression arrays compiled once for every value of their constants.

    `arrays` holds the compiled array (see `_array`) of the expressions and
    of each derivative order; its functions take the coordinates and the
    constants, in the order of `constant_names`.  Each object built from the
    template binds its own values.
    """

    def __init__(self, names, texts, constant_names, order, axis_first):
        self.constant_names = constant_names
        self.shape = _shape(texts)
        xs = [f"_x{k}" for k in range(len(names))]
        cs = [f"_c{k}" for k in range(len(constant_names))]
        self.arguments, self.dim = xs + cs, len(xs)
        # a constant shadows a coordinate of the same name
        variables = {**dict(zip(names, xs)), **dict(zip(constant_names, cs))}
        parsed = {text: _parse(text, variables) for text in set(_flatten(texts))}
        self.trees = [parsed[text] for text in _flatten(texts)]
        trees, shape, self.arrays = self.trees, self.shape, []
        for k in range(order + 1):
            if k:
                if axis_first:
                    trees = [_diff(t, x) for x in xs for t in trees]
                    shape = (len(xs),) + shape
                else:
                    trees = [_diff(t, x) for t in trees for x in xs]
                    shape = shape + (len(xs),)
            self.arrays.append(_array(shape, trees, self.arguments, self.dim))

    def symmetric(self, constants):
        """Whether a square template is symmetric at these constant values:
        each pair of trees is equal once the values are substituted, or
        agrees at fixed probe points."""
        values = tuple(float(constants[c]) for c in self.constant_names)
        by_name = dict(zip(self.arguments[self.dim:], values))
        n = self.shape[0]
        pairs = [(_substitute(self.trees[i * n + j], by_name),
                  _substitute(self.trees[j * n + i], by_name))
                 for i in range(n) for j in range(i + 1, n)]
        unequal = [tree for a, b in pairs if a != b for tree in (a, b)]
        if not unequal:
            return True
        probes = np.random.default_rng(0).uniform(0.5, 1.5, (8, self.dim))
        with np.errstate(all="ignore"):
            got = _bind(_array((len(unequal),), unequal, self.arguments, self.dim),
                        values)(probes).T
        return np.allclose(got[0::2], got[1::2], rtol=1e-12, atol=0.0, equal_nan=True)

    def bind(self, constants=None):
        """Blockwise callables for the expressions and each derivative
        order, with `constants` (name -> value) fixed."""
        values = tuple(float(constants[c]) for c in self.constant_names)
        return [_bind(array, values) for array in self.arrays]


def _texts(nested):
    if isinstance(nested, (list, tuple)):
        return tuple(_texts(e) for e in nested)
    return str(nested)


_compile = functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)(Template)


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
