"""Constrained controller: dense QP with the batch LQR objective.

The controller minimizes u' K u + 2 k(x0, s_obs)' u subject to affine
inequalities G u <= h0 + H s_obs.  Action boxes have H = 0; state boxes are
compiled through the stacked dynamics, so their right-hand side moves with
the *observed* series, which is the lever the infeasibility attack pulls.

The solver is a primal active-set method warm-started from the unconstrained
optimum.  It returns exact active sets and dual multipliers, which the
attack code differentiates through; first-order solvers would blur both.
Infeasibility is detected by an explicit phase-1 LP, never by divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import linprog

from .errors import ConfigurationError, NumericalError
from .lqr import BatchForm, SystemSpec, check_series, linear_term

#: An active constraint with a dual below this is classified weakly active.
WEAK_DUAL_TOL = 1e-9

#: Limits on the :func:`kkt_residuals` of every constrained solve.
KKT_LIMITS = {"stationarity": 1e-8, "feasibility": 1e-9,
              "complementarity": 1e-8, "dual_sign": 1e-12}


def activity_tolerance(rhs: np.ndarray) -> np.ndarray:
    """Per-row slack threshold under which a constraint counts as active."""
    return 1e-9 * (1.0 + np.abs(rhs))


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Affine inequalities G u <= h0 + H s for the controller.

    ``action_lower``/``action_upper`` mirror the box rows when the set was
    compiled from an action box; they only speed up feasible warm starts and
    carry no information beyond G, h0, H.
    """

    G: np.ndarray
    h0: np.ndarray
    H: np.ndarray
    action_lower: Optional[np.ndarray] = None
    action_upper: Optional[np.ndarray] = None

    @property
    def q(self) -> int:
        return self.G.shape[0]

    def rhs(self, s_obs: np.ndarray) -> np.ndarray:
        if self.q == 0:
            return self.h0
        return self.h0 + self.H @ np.asarray(s_obs, dtype=float).ravel()

    @staticmethod
    def empty(m_total: int, p_total: int) -> "ConstraintSet":
        return ConstraintSet(
            G=np.zeros((0, m_total)), h0=np.zeros(0), H=np.zeros((0, p_total))
        )


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Solver output: actions, duals, active set, and status.

    ``active`` lists rows holding with equality within the activity
    tolerance; ``weakly_active`` is the subset whose dual is below
    ``WEAK_DUAL_TOL``.  For status ``infeasible`` the numeric fields are
    None.
    """

    u: Optional[np.ndarray]
    mu: Optional[np.ndarray]
    active: Tuple[int, ...]
    weakly_active: Tuple[int, ...]
    status: str

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _expand_bounds(value, per_step: int, total: int, name: str) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(value, dtype=float)).ravel()
    if vec.size == 1:
        return np.full(total, vec[0])
    if vec.size == per_step:
        return np.tile(vec, total // per_step)
    if vec.size == total:
        return vec.astype(float)
    raise ConfigurationError(
        f"{name} must be a scalar, a per-step vector of length {per_step}, "
        f"or a full vector of length {total}; got length {vec.size}"
    )


def compile_constraints(
    spec: SystemSpec,
    batch: BatchForm,
    action_box=None,
    state_box=None,
) -> ConstraintSet:
    """Compile action and state boxes into a ConstraintSet.

    action_box: optional (u_min, u_max); scalars, per-step (m,) vectors, or
        full (mT,) vectors.  Compiles to +/- I rows with H = 0.
    state_box: optional (x_min, x_max); scalars, per-step (n,) vectors, or
        full (nT,) vectors, bounding x_1 .. x_T.  Compiles through the
        stacked dynamics to rows +/- M_t u <= +/-(bound - A^{t+1} x0)
        -/+ N_t s_hat, so H = -/+ N_t: the feasible set follows the series
        the controller observes.
    """
    mT, pT = batch.m_total, batch.p_total
    n, T = spec.n, spec.T
    blocks_G, blocks_h, blocks_H = [], [], []
    lower = upper = None

    if action_box is not None:
        u_min, u_max = action_box
        lower = _expand_bounds(u_min, spec.m, mT, "u_min")
        upper = _expand_bounds(u_max, spec.m, mT, "u_max")
        if np.any(lower > upper):
            raise ConfigurationError("u_min exceeds u_max in some component")
        eye = np.eye(mT)
        blocks_G += [eye, -eye]
        blocks_h += [upper, -lower]
        blocks_H += [np.zeros((mT, pT)), np.zeros((mT, pT))]

    if state_box is not None:
        x_min, x_max = state_box
        x_lo = _expand_bounds(x_min, n, n * T, "x_min")
        x_hi = _expand_bounds(x_max, n, n * T, "x_max")
        if np.any(x_lo > x_hi):
            raise ConfigurationError("x_min exceeds x_max in some component")
        M_flat = batch.M.reshape(n * T, mT)
        N_flat = batch.N.reshape(n * T, pT)
        free = batch.x0_response.reshape(n * T)
        blocks_G += [M_flat, -M_flat]
        blocks_h += [x_hi - free, free - x_lo]
        blocks_H += [-N_flat, N_flat]

    if not blocks_G:
        return ConstraintSet.empty(mT, pT)
    return ConstraintSet(
        G=np.vstack(blocks_G),
        h0=np.concatenate(blocks_h),
        H=np.vstack(blocks_H),
        action_lower=lower,
        action_upper=upper,
    )


def _classify_active(G, u, rhs, mu) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    slack = rhs - G @ u
    active = np.nonzero(np.abs(slack) <= activity_tolerance(rhs))[0]
    weak = tuple(int(i) for i in active if mu[i] < WEAK_DUAL_TOL)
    return tuple(int(i) for i in active), weak


def _phase1_start(G, rhs) -> Optional[np.ndarray]:
    """Feasible point via the LP  min t  s.t.  G u - t <= rhs,  t >= -1.

    A strictly feasible region yields t* < 0 and an interior start; returns
    None when the minimal violation t* is positive beyond tolerance.
    """
    q, nvar = G.shape
    cost = np.zeros(nvar + 1)
    cost[-1] = 1.0
    A_ub = np.hstack([G, -np.ones((q, 1))])
    bounds = [(None, None)] * nvar + [(-1.0, None)]
    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=rhs,
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        raise NumericalError(f"phase-1 feasibility LP failed: {res.message}")
    if res.fun > 1e-9 * (1.0 + np.max(np.abs(rhs), initial=0.0)):
        return None
    return np.asarray(res.x[:nvar], dtype=float)


def _active_set_minimize(batch, k, G, rhs, u):
    """Primal active-set loop from a feasible u; returns (u, mu)."""
    mT = u.size
    K2 = 2.0 * batch.K
    k2 = 2.0 * k
    work: list[int] = []
    in_work = np.zeros(G.shape[0], dtype=bool)
    max_iter = 50 + 10 * (G.shape[0] + mT)

    for _ in range(max_iter):
        grad = K2 @ u + k2
        if work:
            GW = G[work]
            nW = len(work)
            kkt = np.block([[K2, GW.T], [GW, np.zeros((nW, nW))]])
            rhs_sys = np.concatenate([-grad, np.zeros(nW)])
            try:
                sol = np.linalg.solve(kkt, rhs_sys)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(kkt, rhs_sys, rcond=None)[0]
            step = sol[:mT]
            lam = sol[mT:]
        else:
            step = -0.5 * cho_solve(batch.K_factor, grad, check_finite=False)
            lam = np.zeros(0)

        if np.max(np.abs(step), initial=0.0) <= 1e-10 * (1.0 + np.max(np.abs(u))):
            if lam.size == 0 or lam.min() >= -1e-9:
                mu = np.zeros(G.shape[0])
                if work:
                    mu[work] = np.maximum(lam, 0.0)
                return u, mu
            drop = int(np.argmin(lam))  # most negative dual, lowest index first
            in_work[work.pop(drop)] = False
            continue

        directional = G @ step
        slack = rhs - G @ u
        blocking = ~in_work & (directional > 1e-13 * (1.0 + np.abs(directional).max()))
        alpha = 1.0
        add = -1
        if np.any(blocking):
            idx = np.nonzero(blocking)[0]
            ratios = np.maximum(slack[idx], 0.0) / directional[idx]
            j = int(np.argmin(ratios))
            if ratios[j] < alpha:
                alpha = float(ratios[j])
                add = int(idx[j])
        u = u + alpha * step
        if add >= 0:
            work.append(add)
            in_work[add] = True

    raise NumericalError("active-set QP did not converge within the iteration cap")


def solve_qp(batch: BatchForm, cons: ConstraintSet, s_obs) -> QpSolution:
    """Minimize u' K u + 2 k(x0, s_obs)' u  s.t.  G u <= h0 + H s_obs.

    Warm-starts from the unconstrained optimum (clipped into the action box
    when one exists); falls back to a phase-1 LP for a feasible start and
    reports status ``infeasible`` when none exists.  The KKT residuals of
    every constrained solve are checked against :data:`KKT_LIMITS`; a
    violation raises :class:`NumericalError`, also under ``python -O``.
    """
    s_obs = check_series(batch, s_obs, "s_obs")
    k = batch.k_const + batch.L @ s_obs
    u0 = -cho_solve(batch.K_factor, k, check_finite=False)

    if cons.q == 0:
        return QpSolution(u=u0, mu=np.zeros(0), active=(), weakly_active=(),
                          status="optimal")

    rhs = cons.rhs(s_obs)
    tol = activity_tolerance(rhs)
    if np.all(cons.G @ u0 <= rhs + tol):
        u, mu = u0, np.zeros(cons.q)
    else:
        start = None
        if cons.action_lower is not None:
            clipped = np.clip(u0, cons.action_lower, cons.action_upper)
            if np.all(cons.G @ clipped <= rhs + tol):
                start = clipped
        if start is None:
            start = _phase1_start(cons.G, rhs)
        if start is None:
            return QpSolution(u=None, mu=None, active=(), weakly_active=(),
                              status="infeasible")
        u, mu = _active_set_minimize(batch, k, cons.G, rhs, start)

    active, weak = _classify_active(cons.G, u, rhs, mu)
    sol = QpSolution(u=u, mu=mu, active=active, weakly_active=weak,
                     status="optimal")
    residuals = _kkt_residuals(batch, cons, k, rhs, sol)
    for name, limit in KKT_LIMITS.items():
        if not residuals[name] <= limit:  # also catches NaN
            raise NumericalError(
                f"QP solution fails the KKT check: {name} residual "
                f"{residuals[name]:.3g} exceeds {limit:g} ({residuals})"
            )
    return sol


def kkt_residuals(batch: BatchForm, cons: ConstraintSet, s_obs, sol: QpSolution) -> dict:
    """Scale-relative KKT residuals of an optimal solution.

    stationarity   ||2Ku + 2k + G'mu||_inf over the size of its terms
    feasibility    worst violation of G u <= rhs, relative to 1 + |rhs_i|
    complementarity worst |mu_i (G u - rhs)_i|, relative per row
    dual_sign      how far any multiplier dips below zero (absolute)
    """
    if not sol.optimal:
        raise ValueError("KKT residuals are only defined for optimal solutions")
    s_obs = check_series(batch, s_obs, "s_obs")
    return _kkt_residuals(batch, cons, batch.k_const + batch.L @ s_obs,
                          cons.rhs(s_obs), sol)


def _kkt_residuals(batch, cons, k, rhs, sol) -> dict:
    """:func:`kkt_residuals` from the linear term k and the right-hand side rhs."""
    grad = 2.0 * batch.K @ sol.u + 2.0 * k
    pull = cons.G.T @ sol.mu
    slack = cons.G @ sol.u - rhs
    stat_scale = 1.0 + max(np.abs(grad - 2.0 * k).max(initial=0.0),
                           np.abs(2.0 * k).max(initial=0.0),
                           np.abs(pull).max(initial=0.0))
    row_scale = (1.0 + np.abs(sol.mu)) * (1.0 + np.abs(rhs))
    return {
        "stationarity": float(np.abs(grad + pull).max(initial=0.0) / stat_scale),
        "feasibility": float(np.max(slack / (1.0 + np.abs(rhs)), initial=0.0)),
        "complementarity": float(np.max(np.abs(sol.mu * slack) / row_scale,
                                        initial=0.0)),
        "dual_sign": float(max(0.0, -sol.mu.min(initial=0.0))),
    }


def qp_objective(batch: BatchForm, s_obs, u) -> float:
    """Objective value u' K u + 2 k(x0, s_obs)' u."""
    u = np.asarray(u, dtype=float).ravel()
    k = linear_term(batch, s_obs)
    return float(u @ batch.K @ u + 2.0 * k @ u)


def projected_gradient_solve(
    K: np.ndarray,
    k: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> np.ndarray:
    """Reference solver for box-constrained instances of the controller QP.

    Accelerated projected gradient on f(u) = u'Ku + 2k'u with clamping to
    [lower, upper].  Independent of the active-set path: no working sets, no
    duals, no linear solves.  Intended as a test oracle, not for production
    use.
    """
    K = np.asarray(K, dtype=float)
    k = np.asarray(k, dtype=float).ravel()
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    eigs = np.linalg.eigvalsh(K)
    lip = 2.0 * eigs[-1]
    strong = 2.0 * max(eigs[0], 0.0)
    step = 1.0 / lip
    momentum = 0.0
    if strong > 0:
        ratio = np.sqrt(strong / lip)
        momentum = (1.0 - ratio) / (1.0 + ratio)

    u = np.clip(-k / np.maximum(np.diag(K), 1e-300), lower, upper)
    v = u.copy()
    for _ in range(max_iter):
        grad = 2.0 * (K @ v) + 2.0 * k
        u_next = np.clip(v - step * grad, lower, upper)
        v = u_next + momentum * (u_next - u)
        if np.max(np.abs(u_next - u)) <= tol * (1.0 + np.max(np.abs(u_next))):
            return u_next
        u = u_next
    raise NumericalError("projected-gradient reference did not converge")
