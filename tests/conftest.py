import numpy as np
import pytest

from trapsurf import catalog


def cat(name, **params):
    """A catalog object; its expression template compiles once per run."""
    return catalog.instantiate(name, **params)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
