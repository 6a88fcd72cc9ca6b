import numpy as np
import pytest

from tsattack import SystemSpec, batch_form, compile_constraints, solve_unconstrained
from tsattack.experiments import random_test_system


def make_scalar_spec(T=1, x0=1.0):
    """The scalar battery system used throughout: A=C=Q=R=1, B=-1."""
    return SystemSpec(A=1.0, B=-1.0, C=1.0, Q=1.0, R=1.0, T=T, x0=x0)


def random_system(rng, n_max=3, m_max=3, p_max=3, t_max=10):
    """Random well-scaled system: spectral radius of A kept near 1."""
    return random_test_system(rng, n_max=n_max, m_max=m_max, p_max=p_max,
                              t_max=t_max)


def random_state_box_instance(seed, mixed, state_scale, action_scale):
    """Random system and series under a state box scaled to the free
    trajectory and, when mixed, an action box scaled to the free actions."""
    rng = np.random.default_rng(seed)
    spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
    batch = batch_form(spec)
    s = rng.standard_normal(batch.p_total)
    u_free = solve_unconstrained(batch, s)
    x_free = (batch.x0_response + batch.M @ u_free + batch.N @ s).ravel()
    x_bound = float(np.abs(x_free).max()) * state_scale + 1e-3
    action_box = None
    if mixed:
        u_bound = float(np.abs(u_free).max()) * action_scale + 1e-3
        action_box = (-u_bound, u_bound)
    cons = compile_constraints(spec, batch, action_box=action_box,
                               state_box=(-x_bound, x_bound))
    return batch, cons, s


@pytest.fixture
def scalar_t1():
    return batch_form(make_scalar_spec(T=1))


@pytest.fixture
def scalar_t2():
    return batch_form(make_scalar_spec(T=2))
