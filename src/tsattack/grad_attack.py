"""Gradient attacks through the constrained controller's solution map.

At an optimum with active rows A the KKT conditions

    2 K u + 2 (k_const + L s_hat) + G_A' mu_A = 0
    G_A u = h0_A + H_A s_hat

define u implicitly as a function of the observed series.  Differentiating
both lines gives a linear system for du/ds_hat that accounts for the series
entering the objective (through L) and the constraint right-hand sides
(through H).  With no active rows this collapses to -K^{-1} L, the
unconstrained action/forecast coupling.

An attack then ascends any differentiable target of the actions: perturb the
series by delta along Unit(J g), where J is the solution-map Jacobian and g
the target's gradient in action space.  J g is one adjoint solve on the
Cholesky factor of K; J itself is never formed.  When that direction
vanishes the attack returns the series unchanged, flagged ``zero-gradient``;
the cost-change target always stalls this way at the unperturbed optimum of
an unconstrained or action-box controller, since the optimum is a local
extremum of the cost under fixed constraint right-hand sides.

The single step is the first candidate of the projected ascent and shares
its clean solve and direction.  The attacks solve every series they try
once and hand back the actions of the series they return
(``AttackResult.u_hat``), so callers need not solve it again.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cost_attack import (
    AttackResult,
    FLAG_DEGENERATE_KKT,
    FLAG_INFEASIBLE,
    FLAG_WEAK_ACTIVE,
    FLAG_ZERO_GRADIENT,
    _norm,
)
from .lqr import BatchForm, _solve_triangular, check_series, linear_term, rollout_cost
from .qp import ConstraintSet, QpSolution, solve_qp

#: Directions with L2 norm at or below this are treated as zero gradients.
ZERO_DIRECTION_TOL = 1e-12

#: Singular values of C^-1 G_A' (K = C C', G_A the active rows) at or below
#: this share of the largest count as zero: the active rows violate LICQ.
LICQ_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SolutionJacobian:
    """Derivative of the controller's actions w.r.t. the observed series.

    ``J[i, j] = d u*_j / d s_hat_i`` (shape pT x mT).  ``weak_active_flag``
    marks solutions where some active constraint had a near-zero dual: the
    derivative is taken from the active branch and may disagree with finite
    differences there.  ``degenerate_flag`` marks linearly dependent active
    rows (such as duplicated rows, which violate LICQ): the multipliers'
    derivative is then not unique and J uses the least-norm one.
    """

    J: np.ndarray
    weak_active_flag: bool = False
    degenerate_flag: bool = False


class TargetFunction(enum.Enum):
    """Differentiable attack targets evaluated on the controller's actions;
    each value names the experiment scenario that attacks the target."""

    MAX_ACTION = "max-action"
    MIN_ACTION = "min-action"
    L1_ENERGY = "l1"
    COST_CHANGE = "cost-gradient"


def target_value(target: TargetFunction, u, batch: BatchForm, s_real) -> float:
    """Value of the attack target at actions u, judged against the real series."""
    u = np.asarray(u, dtype=float).ravel()
    if target is TargetFunction.MAX_ACTION:
        return float(u.max())
    if target is TargetFunction.MIN_ACTION:
        return float((-u).max())
    if target is TargetFunction.L1_ENERGY:
        return float(np.abs(u).sum())
    if target is TargetFunction.COST_CHANGE:
        return rollout_cost(batch.spec, u, s_real)
    raise ValueError(f"unknown target {target!r}")


def target_gradient(target: TargetFunction, u, batch: BatchForm, s_real) -> np.ndarray:
    """Gradient (or subgradient) of the target w.r.t. the action vector.

    Kinks are resolved deterministically: argmax/argmin ties break to the
    lowest index and sign(0) = 0.  ``s_real`` is a series that
    :func:`tsattack.lqr.check_series` has already passed.
    """
    u = np.asarray(u, dtype=float).ravel()
    if target is TargetFunction.MAX_ACTION:
        g = np.zeros_like(u)
        g[int(np.argmax(u))] = 1.0
        return g
    if target is TargetFunction.MIN_ACTION:
        g = np.zeros_like(u)
        g[int(np.argmin(u))] = -1.0
        return g
    if target is TargetFunction.L1_ENERGY:
        return np.sign(u)
    if target is TargetFunction.COST_CHANGE:
        return 2.0 * batch.K @ u + 2.0 * linear_term(batch, s_real)
    raise ValueError(f"unknown target {target!r}")


def _adjoint(batch: BatchForm, cons: ConstraintSet, sol: QpSolution, g):
    """(du/ds)' g at an optimum, and whether its active rows violate LICQ.

    On the active rows A, du/ds = F + K^{-1} G_A' S^{-1} (H_A - G_A F) with
    F = -K^{-1} L and S = G_A K^{-1} G_A', so (du/ds)' g = F'(g - G_A' nu)
    + H_A' nu with nu = S^{-1} G_A K^{-1} g: the least-squares solution of
    (C^{-1} G_A') nu = C^{-1} g for K = C C' (``batch.K_factor``), least-norm
    when its rank is below |A| at :data:`LICQ_TOL`.  g has mT rows.
    """
    free = batch.free_jacobian.T
    if not sol.active:
        return free @ g, False
    active = list(sol.active)
    GA_t = cons.G[active].T
    c, lower = batch.K_factor
    B = _solve_triangular(c, GA_t, lower, int(not lower))  # C^-1 G_A'
    b = _solve_triangular(c, g, lower, int(not lower))  # C^-1 g
    nu, _, rank, _ = np.linalg.lstsq(B, b, rcond=LICQ_TOL)
    return free @ (g - GA_t @ nu) + cons.H[active].T @ nu, rank < len(active)


def solution_jacobian(
    batch: BatchForm, cons: ConstraintSet, sol: QpSolution
) -> SolutionJacobian:
    """Implicit KKT derivative of the QP solution map at an optimum.

    The attacks' adjoint product taken with the identity; the attacks never
    form J.  Rows of G are treated as fixed.  Weakly active rows stay in the
    active set (the derivative follows the active branch) and raise the
    warning flag; linearly dependent active rows raise ``degenerate_flag``.
    """
    if not sol.optimal:
        raise ValueError("solution_jacobian requires an optimal QpSolution")
    J, degenerate = _adjoint(batch, cons, sol, np.eye(batch.m_total))
    return SolutionJacobian(J=J, weak_active_flag=bool(sol.weakly_active),
                            degenerate_flag=degenerate)


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize to unit L2 norm; only valid for norms above the zero tolerance."""
    norm = float(np.linalg.norm(v))
    if norm <= ZERO_DIRECTION_TOL:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / norm


def project_ball(x: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Project x onto the L2 ball of the given radius around center."""
    offset = x - center
    norm = _norm(offset)
    if norm <= radius:
        return x
    return center + offset * (radius / norm)


def _attack_direction(batch, cons, sol, target, s_real):
    """Ascent direction J g at an optimum, with its diagnostic flags."""
    grad = target_gradient(target, sol.u, batch, s_real)
    direction, degenerate = _adjoint(batch, cons, sol, grad)
    flags = set()
    if sol.weakly_active:
        flags.add(FLAG_WEAK_ACTIVE)
    if degenerate:
        flags.add(FLAG_DEGENERATE_KKT)
    return direction, flags


def _ascend(batch, cons, s, delta, target, steps, step_size) -> AttackResult:
    """Projected ascent from a validated series s; the clean direction gives
    the saturated single step and the first of ``steps`` projected steps.
    ``steps`` is 0 for :func:`single_step_attack` and at least 1 for
    :func:`iterated_attack`; errors name that caller."""
    sol = solve_qp(batch, cons, s)
    if not sol.optimal:
        caller = "iterated_attack" if steps else "single_step_attack"
        raise ValueError(f"{caller} requires a feasible unattacked problem")
    direction, flags = _attack_direction(batch, cons, sol, target, s)

    def result(s_hat, attained, u_hat=None):
        return AttackResult(
            s_hat=s_hat,
            delta=float(delta),
            attained=float(attained),
            norm_used=_norm(s_hat - s),
            flags=frozenset(flags),
            u_hat=u_hat,
        )

    norm = np.linalg.norm(direction)
    if norm <= ZERO_DIRECTION_TOL:
        flags.add(FLAG_ZERO_GRADIENT)
        return result(s.copy(), target_value(target, sol.u, batch, s), sol.u)

    heading = direction / norm  # unit(direction), with the norm taken once
    s_hat = s + delta * heading
    attacked = solve_qp(batch, cons, s_hat)
    if not attacked.optimal:
        flags.add(FLAG_INFEASIBLE)
        return result(s_hat, np.inf)
    best = (s_hat, target_value(target, attacked.u, batch, s), attacked.u)

    s_cur, sol_cur = s, sol
    for i in range(steps):
        if i:
            direction, step_flags = _attack_direction(batch, cons, sol_cur, target, s)
            flags |= step_flags
            norm = np.linalg.norm(direction)
            if norm <= ZERO_DIRECTION_TOL:
                break
            heading = direction / norm
        s_next = project_ball(s_cur + step_size * heading, s, delta)
        fixed_point = np.array_equal(s_next, s_cur)
        sol_next = sol_cur if fixed_point else solve_qp(batch, cons, s_next)
        if not sol_next.optimal:
            flags.add(FLAG_INFEASIBLE)
            return result(s_next, np.inf)
        value = target_value(target, sol_next.u, batch, s)
        # A later iterate must win by more than rounding: on a target that is
        # flat on the delta sphere (l1) ties would be broken by the last ulp.
        if value - best[1] > 1e-12 * abs(best[1]):
            best = (s_next, value, sol_next.u)
        if fixed_point:
            break
        s_cur, sol_cur = s_next, sol_next
    return result(*best)


def single_step_attack(
    batch: BatchForm,
    cons: ConstraintSet,
    s,
    delta: float,
    target: TargetFunction,
) -> AttackResult:
    """One saturated step s + delta * Unit(J g) of the linearized attack.

    ``attained`` is the target evaluated at the controller's response to the
    perturbed series (judged against the real one), and ``u_hat`` is that
    response.  An infeasible attacked problem is reported with the
    ``infeasible`` flag, attained = +inf and no ``u_hat``: that outcome is a
    success for the infeasibility attack angle.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")
    return _ascend(batch, cons, check_series(batch, s), delta, target, 0, None)


def iterated_attack(
    batch: BatchForm,
    cons: ConstraintSet,
    s,
    delta: float,
    target: TargetFunction,
    steps: int = 20,
    step_size: float = None,
) -> AttackResult:
    """Projected gradient ascent on the target within the delta ball.

    Each iteration ascends along J g at the current iterate with
    ``step_size`` (default delta / 10; must be positive and finite),
    projects back onto the ball around s and solves the QP at the new
    iterate.  The best iterate by attained value is kept, with its actions
    as ``u_hat``; a later iterate replaces it only when it is larger by
    more than a relative 1e-12, so among iterates that tie to rounding the
    earliest is kept.  The
    candidate pool also contains the saturated single step, which shares
    the clean solve and the clean direction with the first iteration, so
    the result is never worse than :func:`single_step_attack`.
    The ascent stops early at a projected fixed point: when the projection
    returns the current iterate bitwise, every later step would repeat the
    same solve, direction and comparison.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")
    if step_size is None:
        step_size = delta / 10.0
    elif not 0 < step_size < math.inf:
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    return _ascend(batch, cons, check_series(batch, s), delta, target, steps, step_size)
