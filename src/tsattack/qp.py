"""Constrained controller: dense QP with the batch LQR objective.

The controller minimizes u' K u + 2 k(x0, s_obs)' u subject to affine
inequalities G u <= h0 + H s_obs.  Action boxes have H = 0; state boxes are
compiled through the stacked dynamics, so their right-hand side moves with
the *observed* series, which is the lever the infeasibility attack pulls.

The solver is the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983), started from the unconstrained optimum, so it needs
no feasible start.  It returns exact active sets and dual multipliers, which
the attack code differentiates through; first-order solvers would blur both.
Infeasibility is proved by a Farkas ray from the dual iteration, never
inferred from divergence.  Solves with the Cholesky factor of K call LAPACK
``potrs``/``trtrs`` directly (bitwise what scipy's wrappers return, without
their per-call cost), an empty working set skips its QR, and the KKT or
Farkas check of every solve still runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
# The solver needs no LP.  The benchmark tracer (perfbench/tracing.py) still
# wraps this name to count phase-1 LP calls, so it stays importable here.
from scipy.optimize import linprog  # noqa: F401

from .errors import ConfigurationError, NumericalError
from .lqr import (BatchForm, SystemSpec, _cho_solve, _finite_array, _solve_triangular,
                  check_series, linear_term)

#: An active constraint with a dual below this is classified weakly active.
WEAK_DUAL_TOL = 1e-9

#: Limits on the :func:`kkt_residuals` of every constrained solve.
KKT_LIMITS = {"stationarity": 1e-8, "feasibility": 1e-9,
              "complementarity": 1e-8, "dual_sign": 1e-12}

#: Strict limits on the :func:`_farkas_residuals` of every infeasible solve.
FARKAS_LIMITS = {"dual_sign": 1e-12, "alignment": 1e-8, "gap": 0.0}


def activity_tolerance(rhs: np.ndarray) -> np.ndarray:
    """Per-row slack threshold under which a constraint counts as active."""
    return 1e-9 * (1.0 + np.abs(rhs))


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Affine inequalities G u <= h0 + H s for the controller."""

    G: np.ndarray
    h0: np.ndarray
    H: np.ndarray

    @property
    def q(self) -> int:
        return self.G.shape[0]

    def rhs(self, s_obs: np.ndarray) -> np.ndarray:
        return self.h0 + self.H @ s_obs

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
    vec = np.atleast_1d(_finite_array(value, name)).ravel()
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
        flat stacked dynamics to rows +/- M u <= +/-(bound - x0_response)
        -/+ N s_hat, so H = -/+ N: the feasible set follows the series the
        controller observes.  Row block t, the rows +/- M_t, bounds x_{t+1}.
    """
    mT, pT = batch.m_total, batch.p_total
    n, T = spec.n, spec.T
    blocks_G, blocks_h, blocks_H = [], [], []

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
        blocks_G += [batch.M, -batch.M]
        blocks_h += [x_hi - batch.x0_response, batch.x0_response - x_lo]
        blocks_H += [-batch.N, batch.N]

    if not blocks_G:
        return ConstraintSet.empty(mT, pT)
    return ConstraintSet(
        G=np.vstack(blocks_G), h0=np.concatenate(blocks_h), H=np.vstack(blocks_H)
    )


def _dual_active_set(batch, k, G, rhs, tol):
    """Goldfarb-Idnani dual active set from the unconstrained optimum.

    Keeps u optimal for its working rows W (G_W u = rhs_W, duals mu_W >= 0)
    and adds the row j outside W whose violation most exceeds its activity
    tolerance ``tol`` (W is never scanned: when |u| is large, the rounding
    of u on a held row can exceed tol).  Raising mu_j by t moves u by -t z
    and mu_W by -t r, where (H = 2K, n = G_j', N = G_W') r = (N'H^-1 N)^-1 N'H^-1 n
    and z = H^-1 (n - N r), both from a QR of L^-1 N (K = L L'), which does
    not square the conditioning of W.  The step ends when row j holds (it
    joins W) or a working dual reaches zero first (that row leaves W).
    Returns (u, mu, None) at the optimum, with working rows of one nonzero
    entry pinning their action to rhs_j / G_ji exactly, or (None, None, y)
    with the Farkas ray y_j = 1, y_W = -r once n lies in the span of N and no
    dual can drop.
    """
    q, mT = G.shape
    c, lower = batch.K_factor
    u = -_cho_solve(batch.K_factor, k)
    mu = np.zeros(q)
    work: list[int] = []
    B = np.zeros((mT, 0))  # L^-1 N, one column per working row
    j = -1
    for _ in range(50 + 10 * (q + mT)):
        if j < 0:
            excess = G @ u - rhs - tol
            excess[work] = -np.inf
            j = int(np.argmax(excess))
            if excess[j] <= 0.0:
                break
            b = _solve_triangular(c, G[j], lower, int(not lower))  # L^-1 n
        if work:
            Qw, R = np.linalg.qr(B)
            r = _solve_triangular(R, Qw.T @ b)
            residual = b - Qw @ (Qw.T @ b)  # L^-1 (n - N r)
        else:  # what the QR of the empty B gives, bit for bit
            r, residual = np.zeros(0), b
        blocking = np.flatnonzero(r > 0.0)
        drop = blocking[np.argmin(mu[work][blocking] / r[blocking])] if blocking.size else -1
        t_drop = mu[work[drop]] / r[drop] if blocking.size else np.inf
        if len(work) == mT or np.abs(residual).max() <= 1e-10 * np.abs(b).max():
            if drop < 0:
                y = np.zeros(q)
                y[j] = 1.0
                y[work] = -r
                return None, None, y
            t = t_drop
        else:
            z = 0.5 * _solve_triangular(c, residual, lower, int(lower))
            t = min((G[j] @ u - rhs[j]) / (G[j] @ z), t_drop)
            u = u - t * z
        mu[work] -= t * r
        mu[j] += t
        if t < t_drop:
            work.append(j)
            B = np.column_stack([B, b])
            j = -1
        else:
            mu[work.pop(drop)] = 0.0
            B = np.delete(B, drop, axis=1)
    else:
        raise NumericalError("dual active-set QP did not converge within the iteration cap")
    for row in work:
        (nonzero,) = np.nonzero(G[row])
        if nonzero.size == 1:
            u[nonzero[0]] = rhs[row] / G[row, nonzero[0]]
    return u, np.maximum(mu, 0.0), None


def solve_qp(batch: BatchForm, cons: ConstraintSet, s_obs) -> QpSolution:
    """Minimize u' K u + 2 k(x0, s_obs)' u  s.t.  G u <= h0 + H s_obs.

    Runs the dual active-set method from the unconstrained optimum, so no
    feasible start is needed; status ``infeasible`` comes with a Farkas ray
    y (y >= 0, G'y = 0, y' rhs < 0) that proves it.  The KKT residuals of
    every optimal constrained solve are checked against
    :data:`KKT_LIMITS` and the ray of every infeasible one against
    :data:`FARKAS_LIMITS`; a failed check raises :class:`NumericalError`,
    also under ``python -O``.

    ``s_obs`` is a series that :func:`tsattack.lqr.check_series` has
    already passed (the attacks and the experiment check theirs where they
    enter); it is not checked again.
    """
    k = linear_term(batch, s_obs)
    if cons.q == 0:
        u0 = -_cho_solve(batch.K_factor, k)
        return QpSolution(u=u0, mu=np.zeros(0), active=(), weakly_active=(),
                          status="optimal")

    rhs = cons.rhs(s_obs)
    tol = activity_tolerance(rhs)
    u, mu, ray = _dual_active_set(batch, k, cons.G, rhs, tol)
    if ray is not None:
        _check("infeasibility certificate", _farkas_residuals(cons.G, rhs, ray),
               FARKAS_LIMITS, strict=True)
        return QpSolution(u=None, mu=None, active=(), weakly_active=(),
                          status="infeasible")

    slack = cons.G @ u - rhs
    active = np.flatnonzero(np.abs(slack) <= tol)
    sol = QpSolution(u=u, mu=mu, active=tuple(active.tolist()),
                     weakly_active=tuple(active[mu[active] < WEAK_DUAL_TOL].tolist()),
                     status="optimal")
    _check("KKT check", _kkt_residuals(batch, cons, k, rhs, slack, sol), KKT_LIMITS)
    return sol


def _check(what, residuals, limits, strict=False):
    """Raise NumericalError unless every residual stays within its limit."""
    for name, limit in limits.items():
        value = residuals[name]
        if not (value < limit if strict else value <= limit):  # also catches NaN
            raise NumericalError(
                f"QP solution fails the {what}: {name} residual "
                f"{value:.3g} is outside its limit {limit:g} ({residuals})"
            )


def _farkas_residuals(G, rhs, y) -> dict:
    """How far y is from proving G u <= rhs infeasible.

    dual_sign  how far any entry of y dips below zero (absolute)
    alignment  ||G'y||_inf over the size of its terms
    gap        y' rhs, which must be negative
    """
    scale = max(np.max(np.abs(G).T @ np.abs(y)), np.finfo(float).tiny)
    return {
        "dual_sign": float(max(0.0, -y.min())),
        "alignment": float(np.abs(G.T @ y).max() / scale),
        "gap": float(y @ rhs),
    }


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
    rhs = cons.rhs(s_obs)
    return _kkt_residuals(batch, cons, linear_term(batch, s_obs), rhs,
                          cons.G @ sol.u - rhs, sol)


def _kkt_residuals(batch, cons, k, rhs, slack, sol) -> dict:
    """:func:`kkt_residuals` from the linear term k, the right-hand side rhs
    and the slack G u - rhs; each of the terms 2Ku, 2k and G'mu is formed
    once."""
    quad, lin, pull = 2.0 * (batch.K @ sol.u), 2.0 * k, cons.G.T @ sol.mu
    stat_scale = 1.0 + max(np.abs(quad).max(initial=0.0), np.abs(lin).max(initial=0.0),
                           np.abs(pull).max(initial=0.0))
    rhs_scale = 1.0 + np.abs(rhs)
    row_scale = (1.0 + np.abs(sol.mu)) * rhs_scale
    return {
        "stationarity": float(np.abs(quad + lin + pull).max(initial=0.0) / stat_scale),
        "feasibility": float((slack / rhs_scale).max(initial=0.0)),
        "complementarity": float((np.abs(sol.mu * slack) / row_scale).max(initial=0.0)),
        "dual_sign": float(max(0.0, -sol.mu.min(initial=0.0))),
    }


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
