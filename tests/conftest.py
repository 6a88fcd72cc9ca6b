import pytest

from tsattack import SystemSpec, batch_form
from tsattack.experiments import random_test_system


def make_scalar_spec(T=1, x0=1.0):
    """The scalar battery system used throughout: A=C=Q=R=1, B=-1."""
    return SystemSpec(A=1.0, B=-1.0, C=1.0, Q=1.0, R=1.0, T=T, x0=x0)


def random_system(rng, n_max=3, m_max=3, p_max=3, t_max=10):
    """Random well-scaled system: spectral radius of A kept near 1."""
    return random_test_system(rng, n_max=n_max, m_max=m_max, p_max=p_max,
                              t_max=t_max)


@pytest.fixture
def scalar_t1():
    return batch_form(make_scalar_spec(T=1))


@pytest.fixture
def scalar_t2():
    return batch_form(make_scalar_spec(T=2))
