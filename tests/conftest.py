"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from qdecimate import evolution


@pytest.fixture
def apply_calls(monkeypatch):
    """The shapes of every vector an IsingChain acts on, in call order.

    ``IsingChain.apply`` and the Chebyshev series share one private action.
    """
    calls = []
    action = evolution._ising_action

    def counted(sites, field, diagonal, x):
        calls.append(np.shape(x))
        return action(sites, field, diagonal, x)

    monkeypatch.setattr(evolution, "_ising_action", counted)
    return calls
