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
once and hand back the actions of the series they return, so callers need
not solve it again.

The ascent runs over a block of series in lockstep (:func:`_ascend_rows`;
the public attacks are its one-row case).  The block spans budgets and
targets too: each row has its own delta, target and step size, so one
ascent serves every gradient (delta, scenario) pair of an experiment, and
the targets' gradients and values are taken once per distinct target over
its rows; a target's value is its scenario's record metric.  Each step
solves the rows still moving as one block, each solve warm-started on the
working set of the solve its series perturbs, and each row keeps its own
iterate, best candidate, flags and exits.  The adjoint products of rows
with no active row and every norm are stacked matmuls that issue each
row's own BLAS call (:func:`tsattack.lqr._row_products`,
:func:`tsattack.lqr._row_dots`).  A row with an active set takes
:func:`_adjoint` of its (active rows, target gradient), memoized in the
stage's :class:`tsattack.qp._StageCache`, which the ascent's solves share
too: only a pair the stage has not seen is solved.  So every row is bit
for bit the ascent of that series alone.  The block stays arrays
throughout: each row's current solution, best candidate and result are
rows of arrays, and the ascent returns one attacked block
(:class:`tsattack.cost_attack._AttackedBlock`); only the public one-series
attacks build an :class:`AttackResult` (``u_hat`` None exactly when flagged
``infeasible``).  The first failure in a block stops it, and a failed
solve or norm check carries the failing row's name.
"""

from __future__ import annotations

import enum
import math
from itertools import compress
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .cost_attack import (_COL_DEGENERATE, _COL_INFEASIBLE, _COL_WEAK, _COL_ZERO, _FLAGS,
                          AttackResult, _AttackedBlock, _checked_norms, _norms)
from .lqr import (BatchForm, _costs_of_responses, _row_dots, _row_products,
                  _solve_triangular, check_series)
from .qp import WEAK_DUAL_TOL, ConstraintSet, _StageCache, _solve_rows

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


class _Metric(NamedTuple):
    """An outcome metric of the actions played against the real series."""

    name: str  # the record columns are <name>_orig and <name>_adv
    block: Callable  # (batch, U, NS) -> one value per row, bit for bit the row's own
    pct: bool  # whether the aggregates report its mean percent increase
    scenarios: Tuple[str, ...]  # whose p-value compares it with random


#: The outcome metrics, in record column order, of (rows, mT) actions U against
#: the real series whose responses ``N s`` are the rows of NS.  The first is the
#: realized cost: an infeasible answer costs inf there and NaN in the others.
_METRICS = (
    _Metric("j", _costs_of_responses, True, ("cost-adv", "cost-gradient")),
    _Metric("max_u", lambda batch, U, NS: U.max(axis=1), True, ("max-action",)),
    _Metric("min_u", lambda batch, U, NS: U.min(axis=1), False, ("min-action",)),
    _Metric("l1", lambda batch, U, NS: np.abs(U).sum(axis=1), True, ("l1",)),
)


def _by_target(targets: np.ndarray):
    """Yield each distinct target of the per-row ``targets``, in order of
    first appearance, with its (W,) bool row mask; one array comparison per
    target, none per row."""
    left = np.ones(len(targets), dtype=bool)
    while left.any():
        target = targets[left.argmax()]
        rows = targets == target
        yield target, rows
        left &= ~rows


def _target_values(targets: np.ndarray, U: np.ndarray, batch: BatchForm,
                   NS) -> np.ndarray:
    """Value of each row's attack target (``targets``, one per row) at each
    row of the (W, mT) actions U: its scenario's metric of :data:`_METRICS`
    (negated for ``min-action``), bit for bit the row's own, against the real
    series whose responses ``N s`` are the rows of NS (read by the cost only)."""
    values = np.empty(len(U))
    for target, rows in _by_target(targets):
        scenario = target.value if isinstance(target, TargetFunction) else None
        metric = next((m for m in _METRICS if scenario in m.scenarios), None)
        if metric is None:
            raise ValueError(f"unknown target {target!r}")
        value = metric.block(batch, U[rows], NS[rows])
        values[rows] = -value if target is TargetFunction.MIN_ACTION else value
    return values


def _target_gradients(targets: np.ndarray, U: np.ndarray, batch: BatchForm,
                      S_real) -> np.ndarray:
    """Gradient (or subgradient) of each row's target (``targets``, one per
    row) w.r.t. the actions at each row of the (W, mT) block U, with the
    matching real series, which :func:`tsattack.lqr.check_series` has passed.
    Each distinct target takes its rows at once.

    Kinks are resolved deterministically: argmax/argmin ties break to the
    lowest index and sign(0) = 0.  The cost gradient's products are
    stacked, bit for bit the per-row ``2K @ u`` and ``L @ s``.
    """
    G = np.zeros_like(U)
    for target, rows in _by_target(targets):
        if target is TargetFunction.MAX_ACTION:
            G[rows, U[rows].argmax(axis=1)] = 1.0
        elif target is TargetFunction.MIN_ACTION:
            G[rows, U[rows].argmin(axis=1)] = -1.0
        elif target is TargetFunction.L1_ENERGY:
            G[rows] = np.sign(U[rows])
        elif target is TargetFunction.COST_CHANGE:
            linear = batch.k_const + _row_products(batch.L, S_real[rows])
            G[rows] = _row_products(2.0 * batch.K, U[rows]) + 2.0 * linear
        else:
            raise ValueError(f"unknown target {target!r}")
    return G


def _adjoint(batch: BatchForm, cons: ConstraintSet, active, g):
    """(du/ds)' g at an optimum with the active rows ``active`` (indices of
    rows of cons), and whether they violate LICQ.

    On the active rows A, du/ds = F + K^{-1} G_A' S^{-1} (H_A - G_A F) with
    F = -K^{-1} L and S = G_A K^{-1} G_A', so (du/ds)' g = F'(g - G_A' nu)
    + H_A' nu with nu = S^{-1} G_A K^{-1} g: the least-squares solution of
    (C^{-1} G_A') nu = C^{-1} g for K = C C' (``batch.K_factor``), least-norm
    when its rank is below |A| at :data:`LICQ_TOL`.  g has mT rows.
    """
    free = batch.free_jacobian.T
    if not len(active):
        return free @ g, False
    GA_t = cons.G[active].T
    c, lower = batch.K_factor
    B = _solve_triangular(c, GA_t, lower, int(not lower))  # C^-1 G_A'
    b = _solve_triangular(c, g, lower, int(not lower))  # C^-1 g
    nu, _, rank, _ = np.linalg.lstsq(B, b, rcond=LICQ_TOL)
    return free @ (g - GA_t @ nu) + cons.H[active].T @ nu, rank < len(active)


def _adjoints(batch: BatchForm, cons: ConstraintSet, active: np.ndarray,
              grads: np.ndarray, cache=None):
    """:func:`_adjoint` at each row of a block of optima, given as its
    (W, q) bool active rows and its (W, mT) target gradients.

    The rows with no active row take ``free_jacobian.T @ g`` as one stacked
    product (:func:`tsattack.lqr._row_products`), bit for bit the product of
    each row alone.  A row with an active set reads its (active rows,
    gradient) from the ``adjoints`` memo of ``cache``, the stage's
    :class:`tsattack.qp._StageCache` (None: a memo of this block's own), and
    only a key the memo has not seen calls :func:`_adjoint`.  Returns the
    (W, pT) directions and whether each row's active rows violate LICQ.
    """
    directions = _row_products(batch.free_jacobian.T, grads)
    degenerate = np.zeros(len(grads), dtype=bool)
    memo = {} if cache is None else cache.adjoints
    for i in np.flatnonzero(active.any(axis=1)).tolist():
        key = (active[i].tobytes(), grads[i].tobytes())
        found = memo.get(key)
        if found is None:
            found = memo[key] = _adjoint(batch, cons, np.flatnonzero(active[i]), grads[i])
        directions[i], degenerate[i] = found
    return directions, degenerate


def project_ball(x: np.ndarray, center: np.ndarray, radius) -> np.ndarray:
    """Project x onto the L2 ball of the given radius around center.

    A (W, n) block x is projected row by row onto the balls around the rows
    of center, each with its own radius when ``radius`` holds one per row.
    A point inside its ball is kept as it is; each norm is the norm of that
    row alone, bit for bit, though all are taken at once.
    """
    offset = x - center
    rows = np.atleast_2d(offset)
    radii = np.broadcast_to(radius, len(rows))
    norms = _norms(rows, radii)
    far = ~(norms <= radii)
    if not far.any():
        return x
    projected = np.array(x, dtype=float)
    np.atleast_2d(projected)[far] = (np.broadcast_to(center, rows.shape)[far]
                                     + rows[far] * (radii[far] / norms[far])[:, None])
    return projected


def _ascend_rows(batch, cons, S, clean, delta, target, steps, step_size,
                 names=None, cache=None) -> _AttackedBlock:
    """Projected ascent from every row of the checked (W, pT) block S at once.

    ``clean`` is the optimal clean :class:`tsattack.qp._SolvedBlock` of S
    that :func:`tsattack.qp._solve_rows` returns.  Each row has its own
    budget, target and step size: ``delta`` and ``target`` are (W,) arrays,
    and ``step_size`` is one too, or None for delta / 10 on every row.  The
    clean direction gives the saturated single step and the first of
    ``steps`` projected steps; ``steps`` is 0 for the single step alone.
    The rows move in lockstep: each step solves the rows that need a solve
    as one :func:`tsattack.qp._solve_rows` block, each row warm-started on
    the multipliers of its current solution (the clean one for the single
    step and the first iterate, then the previous iterate), and each row
    leaves at its own zero-gradient, infeasible or fixed-point exit.  The
    directions come from one :func:`_adjoints` call per step, and the
    direction and perturbation norms from one stacked dot each; each
    distinct target takes its rows' gradients and values at once (each cost
    row's ``N s`` is computed once); headings, candidates, the projection's
    scaling, the target values, the tie rule and the fixed-point test are
    elementwise or row-wise.  So each row's result is bit for bit the ascent
    of that row alone.

    ``cache`` is the stage's :class:`tsattack.qp._StageCache` of (batch,
    cons), which every solve and adjoint of the ascent shares; None builds
    one for this ascent.

    Returns the :class:`tsattack.cost_attack._AttackedBlock`, each row's
    norm checked against its delta as the row finishes.  The first failure
    stops the block: the first step where a row fails, and within that step
    the first failing row of the failing phase (direction, norm check or
    solve).  A failed solve or norm check names its row by ``names`` (one
    per row).
    """
    if step_size is None:
        step_size = delta / 10.0
    if names is not None:
        names = np.array(names, dtype=object)
    if cache is None:
        cache = _StageCache(batch, cons)
    W = len(S)
    U, mu, active = clean.U.copy(), clean.mu.copy(), clean.active.copy()  # current solutions
    costed = target == TargetFunction.COST_CHANGE  # the rows that read N s
    NS = np.empty((W, len(batch.N)))
    if costed.any():
        NS[costed] = _row_products(batch.N, S[costed])
    # A moving row's best candidate so far, and a finished row's result.
    S_hat, U_hat, heading = np.empty_like(S), np.empty_like(U), np.empty_like(S)
    attained, norms = np.empty(W), np.empty(W)
    flags = np.zeros((W, len(_FLAGS)), dtype=bool)

    def finish(rows):
        """End ``rows`` on their results, checking their norms."""
        if rows.size:
            norms[rows] = _checked_norms(S_hat[rows] - S[rows], delta[rows],
                                         None if names is None else names[rows])

    def steer(rows):
        """Set each row's unit heading at its solution; returns the rows that
        move and the rows whose direction vanished."""
        at = active[rows]
        grads = _target_gradients(target[rows], U[rows], batch, S[rows])
        directions, degenerate = _adjoints(batch, cons, at, grads, cache)
        flags[rows, _COL_WEAK] |= (at & (mu[rows] < WEAK_DUAL_TOL)).any(axis=1)
        flags[rows, _COL_DEGENERATE] |= degenerate
        lengths = np.sqrt(_row_dots(directions))  # np.linalg.norm of each row
        stalled = lengths <= ZERO_DIRECTION_TOL
        moves = ~stalled
        heading[rows[moves]] = directions[moves] / lengths[moves, None]
        return rows[moves], rows[stalled]

    def solve(rows, X):
        """Solve the rows' candidates X, each warm from the row's current
        solution; a row whose problem is infeasible finishes here.  Returns
        which rows are kept, and the solved block."""
        found = _solve_rows(batch, cons, X, None if names is None else names[rows], mu[rows],
                            cache)
        kept = found.optimal
        if not kept.all():
            out = rows[~kept]
            flags[out, _COL_INFEASIBLE] = True
            S_hat[out], attained[out], U_hat[out] = X[~kept], np.inf, np.nan
            finish(out)
        return kept, found

    rows, stalled = steer(np.arange(W))
    if stalled.size:
        flags[stalled, _COL_ZERO] = True
        S_hat[stalled], U_hat[stalled] = S[stalled], U[stalled]
        attained[stalled] = _target_values(target[stalled], U[stalled], batch, NS[stalled])
        finish(stalled)
    X = S[rows] + delta[rows, None] * heading[rows]
    kept, found = solve(rows, X)
    rows, X, U_kept = rows[kept], X[kept], found.U[kept]
    attained[rows] = _target_values(target[rows], U_kept, batch, NS[rows])
    S_hat[rows], U_hat[rows] = X, U_kept

    S_cur = S.copy()
    for step in range(steps):
        if not rows.size:
            break
        if step:
            rows, stalled = steer(rows)
            finish(stalled)
        X = project_ball(S_cur[rows] + step_size[rows, None] * heading[rows], S[rows],
                         delta[rows])
        fixed = (X == S_cur[rows]).all(axis=1)  # array_equal, row by row
        moved = np.flatnonzero(~fixed)
        if moved.size:
            kept, found = solve(rows[moved], X[moved])
            solved = rows[moved][kept]
            U[solved], mu[solved] = found.U[kept], found.mu[kept]
            active[solved] = found.active[kept]
            keep = np.ones(len(rows), dtype=bool)
            keep[moved] = kept
            rows, X, fixed = rows[keep], X[keep], fixed[keep]
        value, best = _target_values(target[rows], U[rows], batch, NS[rows]), attained[rows]
        # A later iterate must win by more than rounding: on a target that is
        # flat on the delta sphere (l1) ties would be broken by the last ulp.
        wins = np.flatnonzero(value - best > 1e-12 * np.abs(best))
        S_hat[rows[wins]], attained[rows[wins]] = X[wins], value[wins]
        U_hat[rows[wins]] = U[rows[wins]]
        finish(rows[fixed])
        rows = rows[~fixed]
        S_cur[rows] = X[~fixed]
    finish(rows)
    return _AttackedBlock(S_hat, U_hat, attained, norms, flags)


def _attack(batch, cons, s, delta, target, steps, step_size) -> dict:
    """:func:`_ascend_rows` of one validated series s, as the fields of its
    :class:`AttackResult`; ``steps`` is 0 for :func:`single_step_attack`,
    which errors name."""
    S = check_series(batch, s)[None]
    cache = _StageCache(batch, cons)
    clean = _solve_rows(batch, cons, S, cache=cache)
    if not clean.optimal[0]:
        caller = "iterated_attack" if steps else "single_step_attack"
        raise ValueError(f"{caller} requires a feasible unattacked problem")
    found = _ascend_rows(batch, cons, S, clean, np.full(1, float(delta)), np.array([target]),
                         steps, None if step_size is None else np.full(1, float(step_size)),
                         cache=cache)
    flags = found.flags[0]
    return dict(s_hat=found.S_hat[0], delta=float(delta), attained=float(found.attained[0]),
                norm_used=float(found.norms[0]), flags=frozenset(compress(_FLAGS, flags)),
                u_hat=None if flags[_COL_INFEASIBLE] else found.U_hat[0])


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
    return AttackResult(**_attack(batch, cons, s, delta, target, 0, None))


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
    return AttackResult(**_attack(batch, cons, s, delta, target, steps, step_size))
