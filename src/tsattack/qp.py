"""Constrained controller: dense QP with the batch LQR objective.

The controller minimizes u' K u + 2 k(x0, s_obs)' u subject to affine
inequalities G u <= h0 + H s_obs.  Action boxes have H = 0; state boxes are
compiled through the stacked dynamics, so their right-hand side moves with
the *observed* series, which is the lever the infeasibility attack pulls.

The solver is the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983), started from the unconstrained optimum, so it needs
no feasible start.  A caller that solves a series near one it has solved
(an attack step) may hand each row that solution, as in the online
active-set strategy (Ferreau, Bock and Diehl, Int. J. Robust Nonlinear
Control 18(8), 2008): the iteration then starts from the equality QP on
its working set, the rows with a positive multiplier, when they are
independent and its multipliers nonnegative, and cold otherwise.  The
module keeps no state between solves, and :func:`solve_qp` always starts
cold.  It returns exact active sets and dual multipliers, which
the attack code differentiates through; first-order solvers would blur both.
Infeasibility is proved by a Farkas ray from the dual iteration, never
inferred from divergence.  Solves with the Cholesky factor of K call LAPACK
``potrs``/``trtrs`` directly, and the QR of the working rows calls
``geqrf``/``orgqr`` directly (bitwise what the scipy and numpy wrappers
return, without their per-call cost); an empty working set skips its QR, and
the KKT or Farkas check of every solve still runs.

Series are solved in blocks (:func:`_solve_rows`; :func:`solve_qp` is the
one-row case).  The products ``L @ s``, ``H @ s`` and ``G @ u`` of a block
are stacked matmuls that issue the per-series BLAS call for every row
(:func:`tsattack.lqr._row_products`), and the Cholesky solve and the dual
iteration stay per series, so each row of a block is bit for bit the
series solved on its own.  A series whose unconstrained optimum violates no
row needs no dual iteration.  A solved block is arrays, one row per series
(:class:`_SolvedBlock`); only :func:`solve_qp` builds a :class:`QpSolution`.
A block stops at its first failing row; given the rows' names, its error (a
failed check, or an overflowing ``L @ s`` under constraints) is raised again
with the row's name in front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs
# The solver needs no LP.  The benchmark tracer (perfbench/tracing.py) still
# wraps this name to count phase-1 LP calls, so it stays importable here.
from scipy.optimize import linprog  # noqa: F401

from .errors import ConfigurationError, NumericalError
from .lqr import (BatchForm, SystemSpec, _cho_solve, _finite_array, _row_products,
                  _solve_triangular, check_series, linear_term)

_GEQRF, _ORGQR = get_lapack_funcs(("geqrf", "orgqr"), dtype=np.float64)

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


@lru_cache(maxsize=256)
def _qr_lwork(m: int, n: int) -> tuple:
    """The optimal ``geqrf`` and ``orgqr`` workspaces of an (m, n) QR, queried
    as ``np.linalg.qr`` queries them: LAPACK picks blocked or unblocked code
    by the workspace it gets, and the two round differently."""
    probe = np.zeros((m, n), order="F")
    qr, tau, work, _ = _GEQRF(probe, lwork=-1)
    lwork = max(int(work[0]), n)
    return lwork, max(int(_ORGQR(qr, tau, lwork=-1)[1][0]), n)


def _qr(B: np.ndarray) -> tuple:
    """``np.linalg.qr(B)`` of an (m, n) B with m >= n, bit for bit, without
    its per-call cost.  Q is C-contiguous and R C-ordered, as numpy returns
    them, so products and solves with them take the same BLAS calls; R's
    strictly lower part holds the reflectors, which a triangular solve with
    R never reads."""
    lwork, lwork_q = _qr_lwork(*B.shape)
    qr, tau, _, info = _GEQRF(B, lwork=lwork)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal geqrf")
    R = qr[:B.shape[1]].copy()
    Q, _, info = _ORGQR(qr, tau, lwork=lwork_q, overwrite_a=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal orgqr")
    return Q.copy(), R


def _warm_start(factor, u, mu, G, rhs, warm, B) -> list:
    """Start the dual iteration on the rows ``warm`` (a working set of a
    nearby solve) if they hold a dual-feasible point.

    Solves the equality QP min u'Ku + 2k'u s.t. G_W u = rhs_W from the
    unconstrained optimum u with one QR of L^-1 G_W' (K = L L'; its columns
    go into the iteration's buffer B, each solved as a joining row's is):
    with v = G_W u - rhs_W and w = R^-T v, the multipliers are 2 R^-1 w and
    u moves by -L^-T Q w.  The start is kept when every row adds a direction
    by the iteration's span rule and no multiplier is negative; then u and
    mu are overwritten and the rows are returned.  Otherwise this returns
    [] with u and mu untouched: a cold start, bit for bit.
    """
    if not 0 < len(warm) <= B.shape[0]:
        return []
    c, lower = factor
    for col, row in enumerate(warm):
        B[:, col] = _solve_triangular(c, G[row], lower, int(not lower))
    N = B[:, :len(warm)]
    Qw, R = _qr(N)
    # Column i leaves the residual Q_i R_ii off the span of the ones before it.
    if not (np.abs(Qw).max(axis=0) * np.abs(np.diag(R))
            > 1e-10 * np.abs(N).max(axis=0)).all():
        return []
    w = _solve_triangular(R, G[warm] @ u - rhs[warm], trans=1)
    mu_w = 2.0 * _solve_triangular(R, w)
    if not (mu_w >= 0.0).all():  # a NaN fails too
        return []
    u -= _solve_triangular(c, Qw @ w, lower, int(lower))
    mu[warm] = mu_w
    return list(warm)


def _dual_active_set(batch, u, G, rhs, tol, warm=()):
    """Goldfarb-Idnani dual active set from the unconstrained optimum u (a
    copy of the one :func:`_solve_rows` solved, which this may overwrite),
    warm-started on the working rows ``warm`` when :func:`_warm_start`
    keeps them, and cold (no working row) otherwise.

    Keeps u optimal for its working rows W (G_W u = rhs_W, duals mu_W >= 0)
    and adds the row j outside W whose violation most exceeds its activity
    tolerance ``tol`` (W is never scanned: when |u| is large, the rounding
    of u on a held row can exceed tol).  Raising mu_j by t moves u by -t z
    and mu_W by -t r, where (H = 2K, n = G_j', N = G_W') r = (N'H^-1 N)^-1 N'H^-1 n
    and z = H^-1 (n - N r), both from a QR of L^-1 N (K = L L'), which does
    not square the conditioning of W.  The columns of L^-1 N live in one
    preallocated buffer (a row joining W writes a column, a row leaving
    shifts the later ones left), and the QR is taken afresh each iteration.
    The step ends when row j holds (it joins W) or a working dual reaches
    zero first (that row leaves W).
    Returns (u, mu, None) at the optimum, with working rows of one nonzero
    entry pinning their action to rhs_j / G_ji exactly, or (None, None, y)
    with the Farkas ray y_j = 1, y_W = -r once n lies in the span of N and no
    dual can drop.
    """
    q, mT = G.shape
    c, lower = batch.K_factor
    mu = np.zeros(q)
    B = np.empty((mT, mT), order="F")  # L^-1 N in its first len(work) columns
    work = _warm_start(batch.K_factor, u, mu, G, rhs, warm, B)
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
            Qw, R = _qr(B[:, :len(work)])
            Qtb = Qw.T @ b
            r = _solve_triangular(R, Qtb)
            residual = b - Qw @ Qtb  # L^-1 (n - N r)
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
            B[:, len(work)] = b
            work.append(j)
            j = -1
        else:
            mu[work.pop(drop)] = 0.0
            B[:, drop:len(work)] = B[:, drop + 1:len(work) + 1]
    else:
        raise NumericalError("dual active-set QP did not converge within the iteration cap")
    for row in work:
        (nonzero,) = np.nonzero(G[row])
        if nonzero.size == 1:
            u[nonzero[0]] = rhs[row] / G[row, nonzero[0]]
    return u, np.maximum(mu, 0.0), None


class _SolvedBlock(NamedTuple):
    """The solve of a (W, pT) block of series, one row per series (:func:`_solve_rows`)."""

    U: np.ndarray  # (W, mT) actions; NaN on an infeasible row
    mu: np.ndarray  # (W, q) multipliers; zero on an infeasible row
    active: np.ndarray  # (W, q) bool rows held within the activity tolerance
    optimal: np.ndarray  # (W,) bool: the row's problem is feasible


def solve_qp(batch: BatchForm, cons: ConstraintSet, s_obs) -> QpSolution:
    """Minimize u' K u + 2 k(x0, s_obs)' u  s.t.  G u <= h0 + H s_obs.

    Runs the dual active-set method from the unconstrained optimum, so no
    feasible start is needed; status ``infeasible`` comes with a Farkas ray
    y (y >= 0, G'y = 0, y' rhs < 0) that proves it.  The KKT residuals of
    every optimal constrained solve are checked against
    :data:`KKT_LIMITS` and the ray of every infeasible one against
    :data:`FARKAS_LIMITS`; a failed check raises :class:`NumericalError`,
    also under ``python -O``.  This is the one-row case of the block solve
    :func:`_solve_rows`.

    ``s_obs`` is a series that :func:`tsattack.lqr.check_series` has
    already passed (the attacks and the experiment check theirs where they
    enter); it is not checked again.
    """
    S = np.asarray(s_obs, dtype=float).reshape(1, -1)
    (u,), (mu,), (active,), (optimal,) = _solve_rows(batch, cons, S)
    if not optimal:
        return QpSolution(u=None, mu=None, active=(), weakly_active=(), status="infeasible")
    rows = np.flatnonzero(active)
    return QpSolution(u=u, mu=mu, active=tuple(rows.tolist()),
                      weakly_active=tuple(rows[mu[rows] < WEAK_DUAL_TOL].tolist()),
                      status="optimal")


def _solve_rows(batch: BatchForm, cons: ConstraintSet, S: np.ndarray, names=None,
                warm=None) -> _SolvedBlock:
    """:func:`solve_qp` of every row of the checked (W, pT) block S.

    Returns the :class:`_SolvedBlock`; an infeasible row has NaN actions
    and no multiplier or active row, and the weakly active rows are
    ``active & (mu < WEAK_DUAL_TOL)``.  The products that reach u, mu, a
    slack or the active set (``L @ s``, ``H @ s``, ``G @ u``) are stacked
    over the block with :func:`tsattack.lqr._row_products`, which issues
    each row's own BLAS call; the Cholesky solve stays per row (a
    multi-right-hand-side solve rounds differently).  So each row is bit for
    bit its own solve with the same warm set.  A row whose unconstrained
    optimum violates no row keeps it, with zero multipliers; the others run
    :func:`_dual_active_set` in row order: cold, or, when ``warm`` (the
    (W, q) multipliers of optima of nearby series, one row per row of S) is
    given, warm-started on the working set of ``warm[row]``, its rows with a
    positive multiplier.  The KKT residuals of every optimal row are checked
    as one block.  The first row to fail stops the block: a
    :class:`NumericalError` is raised with ``names[row]`` in front when
    ``names`` (one label per row) is given, and unchanged otherwise, as is
    any other exception.  A row whose ``L @ s`` overflows gets a non-finite
    u and stays optimal, for the caller to name; in a constrained block it
    raises a :class:`ConfigurationError`.
    """
    W, m_total = len(S), batch.m_total
    # An overflowing row is named below (constrained) or by the caller.
    with np.errstate(over="ignore", invalid="ignore"):
        k = _row_products(batch.L, S)
        k += batch.k_const  # k = k_const + L s, as linear_term adds it
    U = np.empty((W, m_total))
    for k_row, u in zip(k, U):
        u[:] = _cho_solve(batch.K_factor, k_row)
    np.negative(U, out=U)
    mu = np.zeros((W, cons.q))
    if cons.q == 0:
        return _SolvedBlock(U, mu, np.zeros((W, 0), dtype=bool), np.ones(W, dtype=bool))
    overflow = ~np.isfinite(k).all(axis=1)
    if overflow.any():
        _raise_named(ConfigurationError("the controller's linear term L s overflows; use a "
                                        "smaller delta or rescale the series"),
                     names, int(np.argmax(overflow)))

    rhs = _row_products(cons.H, S)
    rhs += cons.h0  # rhs = h0 + H s, as ConstraintSet.rhs adds it
    slack = _row_products(cons.G, U)
    slack -= rhs
    tol = activity_tolerance(rhs)
    optimal = (slack - tol <= 0.0).all(axis=1)  # a NaN excess is not optimal yet
    moved = []
    for row in np.flatnonzero(~optimal).tolist():
        try:
            start = () if warm is None else np.flatnonzero(warm[row] > 0.0).tolist()
            u, mu_row, ray = _dual_active_set(batch, U[row].copy(), cons.G, rhs[row],
                                              tol[row], start)
            if ray is None:
                U[row], mu[row] = u, mu_row
                moved.append(row)
                continue
            _check("infeasibility certificate", _farkas_residuals(cons.G, rhs[row], ray),
                   FARKAS_LIMITS, strict=True)
            U[row] = np.nan
        except NumericalError as exc:
            _raise_named(exc, names, row)
    if moved:
        slack[moved] = _row_products(cons.G, U[moved]) - rhs[moved]
        optimal[moved] = True
    active = (np.abs(slack) <= tol) & optimal[:, None]
    rows = np.flatnonzero(optimal)
    checked = (k, rhs, slack, U, mu)
    if rows.size < W:
        checked = tuple(block[rows] for block in checked)
    residuals = _kkt_residuals(batch, cons, *checked)
    passed = np.ones(rows.size, dtype=bool)
    for name, limit in KKT_LIMITS.items():
        passed &= residuals[name] <= limit  # a NaN fails; a scalar broadcasts
    if not passed.all():
        i = int(np.argmin(passed))
        try:
            _check("KKT check", {name: float(np.broadcast_to(value, passed.shape)[i])
                                 for name, value in residuals.items()}, KKT_LIMITS)
        except NumericalError as exc:
            _raise_named(exc, names, rows[i])
    return _SolvedBlock(U, mu, active, optimal)


def _raise_named(exc: Exception, names, row):
    """Raise ``exc``, the failure of block row ``row``, again: as its own class
    with ``names[row]`` in front of its message when the block has names."""
    if names is None:
        raise exc
    raise type(exc)(f"{names[row]}: {exc}") from exc


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
    residuals = _kkt_residuals(batch, cons, linear_term(batch, s_obs)[None], rhs[None],
                               (cons.G @ sol.u - rhs)[None], sol.u[None], sol.mu[None])
    return {name: float(value[0]) for name, value in residuals.items()}


def _kkt_residuals(batch, cons, k, rhs, slack, U, mu) -> dict:
    """:func:`kkt_residuals` of a block of solves, one array entry per row.

    Row i of the linear terms k, the right-hand sides rhs, the slacks
    G u - rhs, the actions U and the multipliers mu belongs to one solve.
    Each of the terms 2Ku, 2k and G'mu is formed once for the block; the
    product U K is not bitwise each row's K u, which is why these values
    only gate.
    """
    quad, lin, pull = 2.0 * (U @ batch.K), 2.0 * k, mu @ cons.G
    stat_scale = 1.0 + np.maximum(np.maximum(np.abs(quad).max(axis=1, initial=0.0),
                                             np.abs(lin).max(axis=1, initial=0.0)),
                                  np.abs(pull).max(axis=1, initial=0.0))
    rhs_scale = 1.0 + np.abs(rhs)
    row_scale = (1.0 + np.abs(mu)) * rhs_scale
    return {
        "stationarity": np.abs(quad + lin + pull).max(axis=1, initial=0.0) / stat_scale,
        "feasibility": (slack / rhs_scale).max(axis=1, initial=0.0),
        "complementarity": (np.abs(mu * slack) / row_scale).max(axis=1, initial=0.0),
        "dual_sign": np.maximum(0.0, -mu.min(axis=1, initial=0.0)),
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
