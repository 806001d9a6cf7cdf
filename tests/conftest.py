from dataclasses import replace

import numpy as np
import pytest

from trapsurf import catalog
from trapsurf.expressions import blockwise
from trapsurf.variation import flow_block


def cat(name, **params):
    """A catalog object; its expression template compiles once per run."""
    return catalog.instantiate(name, **params)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def flowed_embedding(E, xi, tau):
    """The flowed submanifold phi_tau(S) as an Embedding of its own, with a
    numerically differentiated frame: the flow oracle's surface, one at a
    time."""

    @blockwise
    def moved(us):
        p = E.point_block(us)
        return p + flow_block(E.ambient, xi, p, tau)

    return replace(E, chart_map=moved, jacobian=None, hessian=None,
                   name=f"{E.name}@tau={tau:g}")
