import numpy as np
import pytest
from hypothesis import settings

from linking_saddle import (
    DomainSpec,
    ProblemSpec,
    discretize,
    power_nonlinearity,
)

# Property tests draw the same examples on every run, and a loaded host
# cannot fail them on time.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def toy_problem():
    """One interior node on the unit interval; everything is closed-form."""
    spec = ProblemSpec(domain=DomainSpec.interval(1), nonlinearity=power_nonlinearity())
    return discretize(spec)


@pytest.fixture(scope="session")
def line_problem():
    spec = ProblemSpec(domain=DomainSpec.interval(31), nonlinearity=power_nonlinearity())
    return discretize(spec)


@pytest.fixture(scope="session")
def square_problem():
    spec = ProblemSpec(domain=DomainSpec.square(16), nonlinearity=power_nonlinearity())
    return discretize(spec)


@pytest.fixture(scope="session")
def rect_problem():
    spec = ProblemSpec(domain=DomainSpec.rectangle(8, 7), nonlinearity=power_nonlinearity())
    return discretize(spec)


def random_state(problem, seed):
    rng = np.random.default_rng(seed)
    from linking_saddle import StatePair

    return StatePair(
        rng.standard_normal(problem.n),
        rng.standard_normal(problem.n),
    )
