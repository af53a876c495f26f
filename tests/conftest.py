import pytest

from semigeo.stepper import run


@pytest.fixture(scope="session")
def run_states():
    """run() plus every state it reached, collected through its observer."""

    def run_and_collect(s0, config, **kwargs):
        states = []
        res = run(s0, config, observe=lambda j, st, sol: states.append(st), **kwargs)
        return res, states

    return run_and_collect
