"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from qdecimate import IsingChain


@pytest.fixture
def apply_calls(monkeypatch):
    """The shapes of every IsingChain.apply argument, in call order."""
    calls = []
    apply = IsingChain.apply

    def counted(chain, x):
        calls.append(np.shape(x))
        return apply(chain, x)

    monkeypatch.setattr(IsingChain, "apply", counted)
    return calls
