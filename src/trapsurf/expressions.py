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

The catalog's templates are compiled ahead of time: the generated module
`_compiled` holds the numpy source that lambdify emits for each of them, and
a template found there is bound without importing sympy.  Sympy is imported
only for inline and user expressions.  `python -m trapsurf.expressions`
regenerates `_compiled.py` from every catalog entry.
"""

import functools
import io
import keyword
import math
import re
import tokenize

import numpy as np

from . import _compiled
from .errors import InvalidExpression

# the grammar's functions; `_parse` maps each to its sympy function
ALLOWED_FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt", "pow")

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
    import sympy as sp

    local = dict(symbols)
    local.update(bound)
    _check_tokens(str(text), set(local))
    local.update({name: getattr(sp, name) for name in ALLOWED_FUNCTIONS if name != "pow"})
    local["pow"] = sp.Pow
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


def make_symbols(names):
    import sympy as sp

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


def _bind(fn, shape, values):
    """A blockwise x -> ndarray: a block (N, n) gives (N, *shape) from one
    call of `fn`, which takes the coordinates followed by the constants'
    `values` and returns the flat list of entries.  Constant entries, which
    numpy evaluates to scalars, are broadcast."""
    size = math.prod(shape)

    def wrapped(x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"expected a block of points (N, n), got shape {x.shape}")
        out = np.empty((len(x), size))
        for k, value in enumerate(fn(*x.T, *values)):
            out[:, k] = value
        return out.reshape((len(x),) + shape)

    return blockwise(wrapped)


# Compiled templates kept per process; like BLOCK_NODES, a fixed bound.
TEMPLATE_CACHE_SIZE = 128


def _map(fn, nested):
    if isinstance(nested, list):
        return [_map(fn, e) for e in nested]
    return fn(nested)


def _derivatives(exprs, syms, axis_first):
    """d exprs / d s for each s in syms, on a new first or last axis."""
    import sympy as sp

    if axis_first:
        return [_map(lambda e: sp.diff(e, s), exprs) for s in syms]
    return _map(lambda e: [sp.diff(e, s) for s in syms], exprs)


def _constant_symbols(names, constant_names):
    """A symbol per constant, named apart from every coordinate (a constant
    may shadow a coordinate's name in the text) and from the functions of
    the generated code.  Plain, fixed names, not Dummies: lambdify orders
    products by symbol name, so the evaluation order (and the rounding)
    depends on the template alone."""
    import sympy as sp

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
    """Expression arrays compiled once for every value of their constants.

    `arrays` holds the (shape, fn) of the expressions and of each derivative
    order; fn takes the coordinates followed by the constants, in the order
    of `constant_names`, and returns the flat list of entries.  Each object
    built from the template binds its own values.  A template of the
    generated module `_compiled` is symmetric wherever it is square.
    """

    def __init__(self, constant_names, arrays):
        self.constant_names = constant_names
        self.arrays = arrays
        self.shape = arrays[0][0]

    def symmetric(self, constants):
        """Whether a square template is symmetric at these constant values."""
        return True

    def bind(self, constants=None):
        """Blockwise callables for the expressions and each derivative
        order, with `constants` (name -> value) fixed."""
        values = tuple(float(constants[c]) for c in self.constant_names)
        return [_bind(fn, shape, values) for shape, fn in self.arrays]


class SympyTemplate(Template):
    """A template parsed, differentiated and lambdified with sympy.

    The constants are sympy symbols while parsing, differentiating and
    lambdifying.  `exprs` is the parsed nested list, `constant_symbols` maps
    each constant name to its symbol.
    """

    def __init__(self, names, texts, constant_names, order, axis_first):
        import sympy as sp

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
        super().__init__(constant_names, [
            (_shape(a), sp.lambdify(args, sp.flatten(a), modules="numpy"))
            for a in arrays])

    @functools.cached_property
    def _asymmetry(self):
        """exprs[i][j] - exprs[j][i] for each i < j where the two entries
        differ for some constant values (square templates only)."""
        import sympy as sp

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
        import sympy as sp

        values = {self.constant_symbols[c]: float(constants[c])
                  for c in self.constant_names}
        return all(sp.simplify(d.subs(values)) == 0 for d in self._asymmetry)


def _texts(nested):
    if isinstance(nested, (list, tuple)):
        return tuple(_texts(e) for e in nested)
    return str(nested)


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _compile(names, texts, constant_names, order, axis_first):
    arrays = _compiled.TEMPLATES.get((names, texts, constant_names, order, axis_first))
    if arrays is not None:
        return Template(constant_names, arrays)
    return SympyTemplate(names, texts, constant_names, order, axis_first)


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


# -- the generated module ---------------------------------------------------

# the numpy names generated code may use; generation fails on any other
_GENERATED_NAMES = ("cos", "cosh", "exp", "log", "pi", "sin", "sinh", "sqrt")


def catalog_parameter_sets():
    """(name, params) of every instantiable catalog entry at each finite
    choice of its texts: each Minkowski dimension and each choice-valued
    parameter (the Robertson-Walker scale); other parameters keep their
    defaults, since their values never enter the texts."""
    from . import catalog

    for entry in catalog.list_entries():
        if entry.builder is None:
            continue
        sets = [{}]
        for spec in entry.params:
            if entry.name == "minkowski":
                choices = range(math.floor(spec.lo) + 1, math.ceil(spec.hi))
            else:
                choices = spec.choices or ()
            if choices:
                sets = [{**s, spec.name: c} for s in sets for c in choices]
        for params in sets:
            yield entry.name, params


def _catalog_templates():
    """key -> SympyTemplate for every template the catalog compiles at
    `catalog_parameter_sets`, in order of first use; the generated module
    is never consulted."""
    from . import catalog

    global _compile
    found = {}

    def record(*key):
        if key not in found:
            found[key] = SympyTemplate(*key)
        return found[key]

    saved, _compile = _compile, record
    try:
        for name, params in catalog_parameter_sets():
            catalog.instantiate(name, **params)
    finally:
        _compile = saved
    return found


def generate():
    """The source of `_compiled.py`: every catalog template that is not
    square or is symmetric for all constant values, one function per
    derivative order (identical functions shared), and `TEMPLATES`."""
    import ast
    import inspect

    import sympy as sp

    functions = {}  # lambdify source -> generated name
    imports = set()
    entries = []
    for key, tmpl in _catalog_templates().items():
        square = len(tmpl.shape) == 2 and tmpl.shape[0] == tmpl.shape[1]
        if square and tmpl._asymmetry:
            continue
        arrays = []
        for shape, fn in tmpl.arrays:
            source = inspect.getsource(fn)
            tree = ast.parse(source).body[0]
            reads = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                     - {arg.arg for arg in tree.args.args})
            if not reads <= set(_GENERATED_NAMES):
                raise ValueError(f"generated source uses {sorted(reads)}: {source}")
            imports |= reads
            name = functions.setdefault(source, f"_f{len(functions)}")
            arrays.append(f"({shape!r}, {name})")
        entries.append(f"    {key!r}:\n        ({', '.join(arrays)},),\n")
    header = (
        '"""Compiled expression templates of the catalog: generated, do not edit.\n'
        "\n"
        f"Generated with sympy {sp.__version__} by `python -m trapsurf.expressions`,\n"
        "which rewrites this file.  Each function is the numpy source that\n"
        "`sympy.lambdify` emits for one derivative order of a template.\n"
        "`TEMPLATES` maps a template's key (names, texts, constant names, order,\n"
        "axis_first) to the (shape, function) of each array.\n"
        '"""\n'
    )
    parts = [header, "\n", f"from numpy import {', '.join(sorted(imports))}\n"]
    for source, name in functions.items():
        parts.append("\n\n" + source.replace("_lambdifygenerated", name, 1))
    parts.append("\n\nTEMPLATES = {\n" + "".join(entries) + "}\n")
    return "".join(parts)


if __name__ == "__main__":
    # `python -m trapsurf.expressions` rewrites _compiled.py.  The catalog
    # compiles through the package's copy of this module, so generate with it.
    from pathlib import Path

    from trapsurf import expressions

    Path(expressions._compiled.__file__).write_text(expressions.generate())
