"""Compiled expression templates: every derivative order agrees with a
complex step of the order below it, and the catalog, the CLI and inline
configs run without sympy."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trapsurf
from trapsurf import catalog, expressions

STEP = 1e-30


def catalog_parameter_sets():
    """(name, params) of every instantiable catalog entry at each finite
    choice of its texts: each Minkowski dimension and each choice-valued
    parameter (the Robertson-Walker scale); other parameters keep their
    defaults, since their values never enter the texts."""
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


def complex_step(bound, k, axis_first, points):
    """d/dx of the bound callable k at `points`, one complex step per
    coordinate, laid out as callable k + 1: Im f_k(x + i h e_s) / h."""
    steps = []
    for s in range(points.shape[1]):
        z = points.astype(complex)
        z[:, s] += STEP * 1j
        value = bound[k](z)
        assert value.dtype == complex
        steps.append(np.imag(value).reshape(len(points), -1) / STEP)
    d = np.stack(steps, axis=1 if axis_first else -1)  # (N, n, size) or (N, size, n)
    return d.reshape(bound[k + 1](points).shape)


def assert_derivatives_match_complex_step(tmpl, constants, axis_first, points):
    bound = tmpl.bind(constants)
    for k in range(len(bound) - 1):
        exact = bound[k + 1](points)
        stepped = complex_step(bound, k, axis_first, points)
        assert np.all(np.abs(exact - stepped) <= 1e-13 * np.maximum(np.abs(exact), 1.0))


def test_catalog_derivatives_match_complex_step(monkeypatch):
    compiled = {}
    real = expressions.template

    def recording(names, texts, constants=None, order=0, axis_first=False):
        tmpl = real(names, texts, constants, order, axis_first)
        compiled[id(tmpl), tuple(sorted((constants or {}).items()))] = (
            tmpl, dict(constants or {}), axis_first)
        return tmpl

    monkeypatch.setattr(expressions, "template", recording)
    for name, params in catalog_parameter_sets():
        catalog.instantiate(name, **params)
    monkeypatch.undo()
    # every Minkowski dimension 2-8, each RW scale, every embedding and field
    assert len({id(tmpl) for tmpl, _, _ in compiled.values()}) >= 25
    rng = np.random.default_rng(0)
    for tmpl, constants, axis_first in compiled.values():
        points = rng.uniform(0.5, 2.0, (5, tmpl.dim))
        assert_derivatives_match_complex_step(tmpl, constants, axis_first, points)


# texts that are finite and real at the probe points: log, sqrt, division
# and powers take arguments bounded away from 0 and the negative axis
_LEAVES = st.sampled_from(["x", "y", "c", "2", "0.5", "3", "pi"])


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*"]), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, children).map(lambda t: f"({t[0]}) / (2 + cos({t[1]}))"),
        children.map(lambda a: f"-({a})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sinh", "cosh"]), children).map(
            lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda a: f"sqrt(1 + ({a})**2)"),
        children.map(lambda a: f"log(1 + ({a})^2)"),
        st.tuples(children, st.sampled_from(["2", "3", "-1", "0.5"])).map(
            lambda t: f"(1.5 + sin({t[0]}))**{t[1]}"),
        st.tuples(children, children).map(lambda t: f"pow(1.5 + sin({t[0]}), {t[1]})"),
    )


_TEXTS = st.recursive(_LEAVES, _extend, max_leaves=8)
_PROBES = np.array([[0.6, 1.3], [1.1, 0.7], [1.45, 1.05]])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_TEXTS)
def test_drawn_derivatives_match_complex_step(text):
    tmpl = expressions.template(("x", "y"), [text], {"c": 0.7}, order=2)
    with np.errstate(all="ignore"):
        arrays = [f(_PROBES) for f in tmpl.bind({"c": 0.7})]
    # overflowing draws (exp of cosh of ...) are outside the test's scope
    assume(all(np.all(np.abs(a) < 1e6) for a in arrays))
    assert_derivatives_match_complex_step(tmpl, {"c": 0.7}, False, _PROBES)


SCRIPT = """
import sys
sys.modules["sympy"] = None  # any import of sympy now fails
from trapsurf import catalog, cli

for entry in catalog.list_entries():
    if entry.builder is not None:
        catalog.instantiate(entry.name)
codes = (cli.main(["classify", "--embedding", "ef_sphere:radius=1.5", "--grid", "4,8"]),
         cli.main(["verify", "eq3"]),
         cli.main(["classify", "--config", sys.argv[1], "--grid", "4,8"]),
         cli.main(["verify", "killing", "--config", sys.argv[2], "--grid", "4,8"]))
print(codes)
"""

_INLINE_EF = {
    "metric": {"inline": {
        "coordinates": ["v", "r", "th", "ph"],
        "components": [["-(1 - 2*M/r)", "1", "0", "0"], ["1", "0", "0", "0"],
                       ["0", "0", "r^2", "0"], ["0", "0", "0", "r^2*sin(th)^2"]],
        "time_orientation": ["1", "-(1 + 2*M/r)/2", "0", "0"],
        "constants": {"M": 1.0},
    }},
    "embedding": {"inline": {
        "parameters": ["u1", "u2"],
        "map": ["0", "R", "u1", "u2"],
        "domain": [[0.0, math.pi], [0.0, 2 * math.pi]],
        "periodic": [False, True],
        "closed": True,
        "constants": {"R": 1.5},
    }},
}


def test_catalog_and_cli_run_without_sympy(tmp_path):
    classify = {"schema_version": 1, **_INLINE_EF}
    killing = {"schema_version": 1, "embedding": {"catalog": "round_sphere"},
               "fields": [{"inline": {"coordinates": ["t", "x", "y", "z"],
                                      "components": ["k*t", "k*x", "k*y", "k*z"],
                                      "constants": {"k": 2.0}}}]}
    paths = [tmp_path / "classify.json", tmp_path / "killing.json"]
    for path, config in zip(paths, (classify, killing)):
        path.write_text(json.dumps(config))
    # a fresh process, so that no module is loaded yet
    src = str(Path(trapsurf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, paths)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert run.stdout.splitlines()[-1] == "(0, 0, 0, 0)"
    assert "FutureTrapped" in run.stdout

