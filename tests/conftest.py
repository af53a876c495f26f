import numpy as np
import pytest

from semigeo.grid import TensorField
from semigeo.stepper import run


@pytest.fixture(scope="session")
def run_states():
    """run() plus every state it reached, collected through its observer."""

    def run_and_collect(s0, config, **kwargs):
        states = []
        res = run(s0, config, observe=lambda j, st, sol: states.append(st), **kwargs)
        return res, states

    return run_and_collect


def mean_tilt(s):
    """Volume mean of grad P - x; recovers a exactly on tilt-type states."""
    return np.array([
        float(np.mean(s.grad_p.values[..., a] - s.spec.cell_centers()[..., a]))
        for a in range(3)
    ])


def kf_inverse(c):
    """Per-cell diag(f, f, 1) of a Coriolis field."""
    vals = np.zeros(c.spec.dims + (3, 3))
    vals[..., 0, 0] = c.f.values
    vals[..., 1, 1] = c.f.values
    vals[..., 2, 2] = 1.0
    return TensorField(c.spec, vals, symmetric=True)
