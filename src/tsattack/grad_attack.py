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
Cholesky factor of K (:func:`_adjoint`); J itself is never formed.  It
follows the active branch where an active row has a near-zero dual (flag
``weak-active``) and takes the least-norm multipliers when the active rows
violate LICQ (flag ``degenerate-kkt``).  When that direction vanishes the
attack returns the series unchanged, flagged ``zero-gradient``; the
cost-change target always stalls this way at the unperturbed optimum of an
unconstrained or action-box controller, since the optimum is a local
extremum of the cost under fixed constraint right-hand sides.

The single step is the first candidate of the projected ascent and shares
its clean solve and direction.  The attacks solve every series they try
once and hand back the actions of the series they return
(``AttackResult.u_hat``), so callers need not solve it again.

The ascent runs over a block of series in lockstep (:func:`_ascend_rows`;
the public attacks are its one-row case): each step solves the rows still
moving as one block, and each row keeps its own iterate, best candidate,
flags and exits.  The adjoint products of rows with no active row and every
norm are stacked matmuls that issue each row's own BLAS call
(:func:`tsattack.lqr._row_products`, :func:`tsattack.lqr._row_dots`); only
a row with an active set takes its own :func:`_adjoint`.  So every row is
bit for bit the ascent of that series alone.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .cost_attack import (
    AttackResult,
    FLAG_DEGENERATE_KKT,
    FLAG_INFEASIBLE,
    FLAG_WEAK_ACTIVE,
    FLAG_ZERO_GRADIENT,
    _norms,
)
from .lqr import (BatchForm, _rollout_costs, _row_dots, _row_products, _solve_triangular,
                  check_series)
from .qp import ConstraintSet, QpSolution, _held, _solve_rows

#: Directions with L2 norm at or below this are treated as zero gradients.
ZERO_DIRECTION_TOL = 1e-12

#: Singular values of C^-1 G_A' (K = C C', G_A the active rows) at or below
#: this share of the largest count as zero: the active rows violate LICQ.
LICQ_TOL = 1e-10


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
    return float(_target_values(target, u[None], batch, [s_real])[0])


def _target_values(target: TargetFunction, U: np.ndarray, batch: BatchForm,
                   S_real) -> np.ndarray:
    """:func:`target_value` of each row of the (W, mT) block U, judged
    against the matching real series.  The action targets are row-wise
    reductions over the contiguous axis, so each equals the same reduction
    of the row on its own, bit for bit, and the costs are rolled out together
    (:func:`tsattack.lqr._rollout_costs`), each bit for bit its own rollout."""
    if target is TargetFunction.MAX_ACTION:
        return U.max(axis=1)
    if target is TargetFunction.MIN_ACTION:
        return (-U).max(axis=1)
    if target is TargetFunction.L1_ENERGY:
        return np.abs(U).sum(axis=1)
    if target is TargetFunction.COST_CHANGE:
        return _rollout_costs(batch.spec, U, np.asarray(S_real, dtype=float))
    raise ValueError(f"unknown target {target!r}")


def target_gradient(target: TargetFunction, u, batch: BatchForm, s_real) -> np.ndarray:
    """Gradient (or subgradient) of the target w.r.t. the action vector.

    Kinks are resolved deterministically: argmax/argmin ties break to the
    lowest index and sign(0) = 0.  ``s_real`` is a series that
    :func:`tsattack.lqr.check_series` has already passed.
    """
    u = np.asarray(u, dtype=float).ravel()
    return _target_gradients(target, u[None], batch, [s_real])[0]


def _target_gradients(target: TargetFunction, U: np.ndarray, batch: BatchForm,
                      S_real) -> np.ndarray:
    """:func:`target_gradient` at each row of the (W, mT) block U, with the
    matching real series; the cost gradient's products are stacked, bit for
    bit the per-row ``2K @ u`` and ``L @ s``."""
    if target in (TargetFunction.MAX_ACTION, TargetFunction.MIN_ACTION):
        G = np.zeros_like(U)
        if target is TargetFunction.MAX_ACTION:
            G[np.arange(len(U)), U.argmax(axis=1)] = 1.0
        else:
            G[np.arange(len(U)), U.argmin(axis=1)] = -1.0
        return G
    if target is TargetFunction.L1_ENERGY:
        return np.sign(U)
    if target is TargetFunction.COST_CHANGE:
        linear = batch.k_const + _row_products(batch.L, np.asarray(S_real, dtype=float))
        return _row_products(2.0 * batch.K, U) + 2.0 * linear
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


def _adjoints(batch: BatchForm, cons: ConstraintSet, sols, grads: np.ndarray):
    """:func:`_adjoint` of each optimum sols[i] with its target gradient
    grads[i], the rows of a (W, mT) block.

    The rows with no active row take ``free_jacobian.T @ g`` as one stacked
    product (:func:`tsattack.lqr._row_products`), bit for bit the product of
    each row alone; only the rows with an active set call :func:`_adjoint`.
    Returns the (W, pT) directions, whether each row's active rows violate
    LICQ, and by row the exception a row's adjoint raised, held for its
    task.
    """
    directions = _row_products(batch.free_jacobian.T, grads)
    degenerate, failures = np.zeros(len(sols), dtype=bool), {}
    for i, sol in enumerate(sols):
        if sol.active:
            try:
                directions[i], degenerate[i] = _adjoint(batch, cons, sol, grads[i])
            except Exception as exc:  # held for the row's task
                failures[i] = exc
    return directions, degenerate, failures


def project_ball(x: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Project x onto the L2 ball of the given radius around center.

    A (W, n) block x is projected row by row onto the balls around the rows
    of center.  A point inside its ball is kept as it is; each norm is the
    norm of that row alone, bit for bit, though all are taken at once.
    """
    offset = x - center
    rows = np.atleast_2d(offset)
    norms = _norms(rows, radius)
    far = ~(norms <= radius)
    if not far.any():
        return x
    projected = np.array(x, dtype=float)
    np.atleast_2d(projected)[far] = (np.broadcast_to(center, rows.shape)[far]
                                     + rows[far] * (radius / norms[far])[:, None])
    return projected


def _ascend_rows(batch, cons, S, clean, delta, target, steps, step_size) -> list:
    """Projected ascent from every row of the checked (W, pT) block S at once.

    ``clean`` holds each row's optimal clean :class:`QpSolution`.  Its
    direction gives the saturated single step and the first of ``steps``
    projected steps of ``step_size`` (default delta / 10); ``steps`` is 0
    for the single step alone.  The rows move in lockstep: each step solves
    the rows that need a solve as one :func:`tsattack.qp._solve_rows`
    block, and each row leaves at its own zero-gradient, infeasible or
    fixed-point exit.  The directions come from one :func:`_adjoints` call
    per step, and the direction and perturbation norms from one stacked dot
    each; headings, candidates, the projection's scaling, the target values,
    the tie rule and the fixed-point test are elementwise or row-wise.  So
    each row's result is bit for bit the ascent of that row alone.
    Returns, per row, its :class:`AttackResult` or the exception the row
    raised, held for the caller to raise.
    """
    if step_size is None:
        step_size = delta / 10.0
    W = len(S)
    out: list = [None] * W
    flags = [set() for _ in range(W)]
    sols = list(clean)
    heading, best_s = np.empty_like(S), np.empty_like(S)
    best_u, best_v = [None] * W, np.empty(W)

    def finish(rows, S_hat, attained, U_hat):
        """Record the results of ``rows``: one row of S_hat and one entry of
        attained and U_hat each."""
        if not rows.size:
            return
        norms = _norms(S_hat - S[rows], delta).tolist()
        for row, s_hat, value, u_hat, norm in zip(rows.tolist(), S_hat, attained, U_hat,
                                                  norms):
            try:
                out[row] = AttackResult(s_hat=s_hat, delta=float(delta), attained=float(value),
                                        norm_used=norm, flags=frozenset(flags[row]),
                                        u_hat=u_hat)
            except Exception as exc:  # held for the row's task
                out[row] = exc

    def finish_best(rows):
        finish(rows, best_s[rows], best_v[rows], [best_u[row] for row in rows.tolist()])

    def steer(rows):
        """Set each row's unit heading at its solution; returns the rows that
        move and the rows whose direction vanished."""
        at = [sols[row] for row in rows.tolist()]
        grads = _target_gradients(target, np.array([sol.u for sol in at]), batch, S[rows])
        directions, degenerate, failures = _adjoints(batch, cons, at, grads)
        moves = np.ones(len(rows), dtype=bool)
        for i, exc in failures.items():
            out[rows[i]], moves[i] = exc, False
        for i in np.flatnonzero(moves).tolist():
            if at[i].weakly_active:
                flags[rows[i]].add(FLAG_WEAK_ACTIVE)
            if degenerate[i]:
                flags[rows[i]].add(FLAG_DEGENERATE_KKT)
        norms = np.sqrt(_row_dots(directions))  # np.linalg.norm of each row
        stalled = moves & (norms <= ZERO_DIRECTION_TOL)
        moves &= ~stalled
        heading[rows[moves]] = directions[moves] / norms[moves, None]
        return rows[moves], rows[stalled]

    def solve(rows, X):
        """Solve the rows' candidates X; a row whose solve fails or is
        infeasible finishes here.  Returns which rows are kept, and their
        solutions."""
        kept, found, infeasible = np.ones(len(rows), dtype=bool), [], []
        for i, (row, sol) in enumerate(zip(rows.tolist(), _solve_rows(batch, cons, X))):
            if isinstance(sol, Exception):
                out[row], kept[i] = sol, False
            elif not sol.optimal:
                flags[row].add(FLAG_INFEASIBLE)
                kept[i] = False
                infeasible.append(i)
            else:
                found.append(sol)
        if infeasible:
            finish(rows[infeasible], X[infeasible], np.full(len(infeasible), np.inf),
                   [None] * len(infeasible))
        return kept, found

    def values(rows, found):
        if not found:
            return np.empty(0)
        return _target_values(target, np.array([sol.u for sol in found]), batch, S[rows])

    rows, stalled = steer(np.arange(W))
    U = [sols[row].u for row in stalled.tolist()]
    for row in stalled.tolist():
        flags[row].add(FLAG_ZERO_GRADIENT)
    if U:
        finish(stalled, S[stalled], _target_values(target, np.array(U), batch, S[stalled]), U)
    X = S[rows] + delta * heading[rows]
    kept, found = solve(rows, X)
    rows, X = rows[kept], X[kept]
    best_v[rows] = values(rows, found)
    best_s[rows] = X
    for row, sol in zip(rows.tolist(), found):
        best_u[row] = sol.u

    S_cur = S.copy()
    for step in range(steps):
        if not rows.size:
            break
        if step:
            rows, stalled = steer(rows)
            finish_best(stalled)
        X = project_ball(S_cur[rows] + step_size * heading[rows], S[rows], delta)
        fixed = (X == S_cur[rows]).all(axis=1)  # array_equal, row by row
        moved = np.flatnonzero(~fixed)
        if moved.size:
            kept, found = solve(rows[moved], X[moved])
            for row, sol in zip(rows[moved][kept].tolist(), found):
                sols[row] = sol
            keep = np.ones(len(rows), dtype=bool)
            keep[moved] = kept
            rows, X, fixed = rows[keep], X[keep], fixed[keep]
        value, best = values(rows, [sols[row] for row in rows.tolist()]), best_v[rows]
        # A later iterate must win by more than rounding: on a target that is
        # flat on the delta sphere (l1) ties would be broken by the last ulp.
        wins = np.flatnonzero(value - best > 1e-12 * np.abs(best))
        best_s[rows[wins]], best_v[rows[wins]] = X[wins], value[wins]
        for row in rows[wins].tolist():
            best_u[row] = sols[row].u
        finish_best(rows[fixed])
        rows = rows[~fixed]
        S_cur[rows] = X[~fixed]
    finish_best(rows)
    return out


def _attack(batch, cons, s, delta, target, steps, step_size) -> AttackResult:
    """:func:`_ascend_rows` of one validated series s; ``steps`` is 0 for
    :func:`single_step_attack`, which errors name."""
    S = check_series(batch, s)[None]
    (clean,) = _solve_rows(batch, cons, S)
    if not _held(clean).optimal:
        caller = "iterated_attack" if steps else "single_step_attack"
        raise ValueError(f"{caller} requires a feasible unattacked problem")
    (result,) = _ascend_rows(batch, cons, S, [clean], delta, target, steps, step_size)
    return _held(result)


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
    return _attack(batch, cons, s, delta, target, 0, None)


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
    if step_size is not None and not 0 < step_size < math.inf:
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    return _attack(batch, cons, s, delta, target, steps, step_size)
