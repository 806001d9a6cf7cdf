"""The generated module `_compiled`: current, bit-identical to lambdify, and
enough to build the catalog without importing sympy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trapsurf
from trapsurf import _compiled, catalog, expressions


def test_generated_module_is_up_to_date():
    committed = Path(_compiled.__file__).read_text()
    assert expressions.generate() == committed, (
        "src/trapsurf/_compiled.py differs from what the catalog and the installed "
        "sympy generate; regenerate it with `python -m trapsurf.expressions`")


def _draws(name, params, rng):
    """`params`, then two draws of the entry's other parameters within 25%
    of each default (+-0.5 around 0)."""
    yield params
    for _ in range(2):
        drawn = dict(params)
        for spec in catalog.get_entry(name).params:
            if spec.name not in params:
                default = float(spec.default)
                half = 0.25 * abs(default) if default else 0.5
                drawn[spec.name] = float(rng.uniform(default - half, default + half))
        yield drawn


def test_generated_arrays_equal_lambdify_bit_for_bit(monkeypatch):
    calls = []
    real = expressions.template

    def recording(names, texts, constants=None, order=0, axis_first=False):
        calls.append((names, texts, dict(constants or {}), order, axis_first))
        return real(names, texts, constants, order, axis_first)

    monkeypatch.setattr(expressions, "template", recording)
    rng = np.random.default_rng(0)
    for name, params in expressions.catalog_parameter_sets():
        for drawn in _draws(name, params, rng):
            catalog.instantiate(name, **drawn)
    monkeypatch.undo()

    lambdified = {}
    for names, texts, constants, order, axis_first in calls:
        key = (tuple(names), expressions._texts(texts), tuple(sorted(constants)),
               order, axis_first)
        assert key in _compiled.TEMPLATES, key
        generated = expressions.template(names, texts, constants, order, axis_first)
        assert type(generated) is expressions.Template
        if key not in lambdified:  # built directly: the lookup is bypassed
            lambdified[key] = expressions.SympyTemplate(*key)
        points = rng.uniform(0.5, 2.0, (5, len(names)))
        for got, want in zip(generated.bind(constants), lambdified[key].bind(constants),
                             strict=True):
            a, b = got(points), want(points)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), key
    assert set(lambdified) == set(_compiled.TEMPLATES)


SCRIPT = """
import sys
from trapsurf import catalog, cli, expressions

for name, params in expressions.catalog_parameter_sets():
    catalog.instantiate(name, **params)
codes = (cli.main(["classify", "--embedding", "ef_sphere:radius=1.5", "--grid", "4,8"]),
         cli.main(["verify", "eq3"]))
print(codes, "sympy" in sys.modules)
"""


def test_catalog_and_cli_run_without_sympy():
    # a fresh process: this one has sympy loaded
    src = str(Path(trapsurf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert run.stdout.splitlines()[-1] == "(0, 0) False"


def test_generation_fails_on_a_name_outside_the_numpy_imports(monkeypatch):
    allowed = tuple(n for n in expressions._GENERATED_NAMES if n != "sin")
    monkeypatch.setattr(expressions, "_GENERATED_NAMES", allowed)
    with pytest.raises(ValueError, match="sin"):
        expressions.generate()
