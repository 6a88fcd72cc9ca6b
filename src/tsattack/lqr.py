"""Batch (non-recursive) finite-horizon LQR driven by an external timeseries.

The plant is

    x_{t+1} = A x_t + B u_t + C s_t,      t = 0 .. T-1,

where s_t is an externally forecast input the controller cannot influence.
Stacking the horizon turns the states into one affine map of the flat,
time-major action and series vectors, x = x0_response + M u + N s, so the
quadratic cost

    J(u; s, x0) = sum_{t=0}^{T} x_t' Q x_t + sum_{t=0}^{T-1} u_t' R u_t

collapses to  u' K u + 2 k(x0, s)' u + const  with K positive definite and
k affine in s.  Every attack in this package works on the resulting
coefficients: the optimal-action map -K^{-1} k, the series-to-cost
coupling L, its free Jacobian -K^{-1} L and Psi = L' K^{-1} L.

K is never inverted explicitly; a Cholesky factorization is stored on the
batch form and reused for all solves.  The solvers' hot paths solve with it
through :func:`_cho_solve` and :func:`_solve_triangular`, which call LAPACK
directly, and take the products and norms of a block of series through
:func:`_row_products` and :func:`_row_dots`, bit for bit the per-series ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs

from .errors import ConfigurationError

SYMMETRY_TOL = 1e-12

_POTRS, _TRTRS = get_lapack_funcs(("potrs", "trtrs"), dtype=np.float64)


def _cho_solve(factor, b) -> np.ndarray:
    """``scipy.linalg.cho_solve(factor, b, check_finite=False)``, bit for bit,
    without its per-call wrapper cost.  ``b`` is a non-empty float array."""
    c, lower = factor
    x, info = _POTRS(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _solve_triangular(a, b, lower=False, trans=0) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, trans, lower, check_finite=False)``
    for real a and non-empty b, bit for bit, without its per-call wrapper
    cost.  Like scipy, a C-ordered ``a`` is solved as ``a.T`` with ``lower``
    and ``trans`` flipped; a zero on the diagonal raises LinAlgError."""
    if a.flags.f_contiguous:
        x, info = _TRTRS(a, b, lower=lower, trans=trans)
    else:
        x, info = _TRTRS(a.T, b, lower=not lower, trans=not trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _row_products(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``A @ x`` for every row x of the 2-D block X, bit for bit.  The stacked
    np.matmul makes numpy's C loop issue one BLAS gemv per row with the
    arguments ``A @ x`` passes; the one gemm ``X @ A.T`` rounds differently."""
    return np.matmul(A, X[:, :, None])[:, :, 0]


def _row_dots(X: np.ndarray) -> np.ndarray:
    """``x @ x`` for every row x of the 2-D block X, bit for bit what
    np.linalg.norm squares: one BLAS ddot per row, from one np.matmul."""
    X = np.ascontiguousarray(X)  # a strided row would take another ddot kernel
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


def _finite_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, or a ConfigurationError naming ``name``
    when it is not numeric (booleans, also nested in lists, are not) or has
    a NaN or infinite entry."""
    if any(isinstance(item, (bool, np.bool_))
           for item in np.asarray(value, dtype=object).ravel()):
        raise ConfigurationError(f"{name} must be numeric, got {value!r}")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be numeric, got {value!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return arr


def _as_matrix(value, name: str) -> np.ndarray:
    mat = np.atleast_2d(_finite_array(value, name))
    if mat.ndim != 2:
        raise ConfigurationError(f"{name} must be a 2-D matrix, got shape {mat.shape}")
    return mat


def _check_spd(mat: np.ndarray, name: str) -> None:
    if np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL:
        raise ConfigurationError(f"{name} is not symmetric (tolerance {SYMMETRY_TOL})")
    try:
        cho_factor(mat)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(f"{name} is not positive definite") from exc


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """The controller's world model.

    Attributes:
        A: State transition matrix (n x n).
        B: Action gain matrix (n x m).
        C: Series input gain matrix (n x p).
        Q: State cost weight (n x n), symmetric positive definite.
        R: Action cost weight (m x m), symmetric positive definite.
        T: Horizon length in steps (>= 1).
        x0: Initial state (n,).

    Scalars are accepted for all matrix fields (the n = m = p = 1 shorthand).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    T: int
    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        object.__setattr__(self, "Q", _as_matrix(self.Q, "Q"))
        object.__setattr__(self, "R", _as_matrix(self.R, "R"))
        object.__setattr__(self, "x0", np.atleast_1d(_finite_array(self.x0, "x0")))
        if (isinstance(self.T, bool) or not isinstance(self.T, (int, np.integer))
                or self.T < 1):
            raise ConfigurationError(f"T must be a positive integer, got {self.T!r}")
        object.__setattr__(self, "T", int(self.T))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigurationError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n or self.C.shape[0] != n:
            raise ConfigurationError("B and C must have the same row count as A")
        if self.Q.shape != (n, n):
            raise ConfigurationError(f"Q must be {n}x{n}, got {self.Q.shape}")
        m = self.B.shape[1]
        if self.R.shape != (m, m):
            raise ConfigurationError(f"R must be {m}x{m}, got {self.R.shape}")
        if self.x0.shape != (n,):
            raise ConfigurationError(f"x0 must have length {n}, got {self.x0.shape}")
        _check_spd(self.Q, "Q")
        _check_spd(self.R, "R")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[1]


@dataclass(frozen=True, eq=False)
class BatchForm:
    """Stacked-horizon matrices and derived cost coefficients.

    All maps are flat and time-major; Qbar = I_T (x) Q:

        M             (nT x mT)  states x = x0_response + M u + N s
        N             (nT x pT)  series-to-state map
        x0_response   (nT,)      free response, row block t is A^{t+1} x0
        K             (mT x mT)  quadratic action coefficient, SPD
        L             (mT x pT)  series-to-cost coupling M' Qbar N
        Psi           (pT x pT)  forecast-error sensitivity L' K^{-1} L, PSD
        k_const       (mT,)      x0-dependent part of the linear term
        K_factor                 Cholesky factorization of K
        free_jacobian (mT x pT)  du*/ds = -K^{-1} L, read-only; the solution
                                 Jacobian of every solve with no active row

    The linear term of the cost is k(x0, s) = k_const + L s.  Build
    instances with :func:`batch_form`; they are immutable and all operations
    on them are pure.  The dominant eigenpair of Psi is computed on first
    use of :attr:`eigenpair` and reused after.
    """

    spec: SystemSpec
    M: np.ndarray
    N: np.ndarray
    x0_response: np.ndarray
    K: np.ndarray
    L: np.ndarray
    Psi: np.ndarray
    k_const: np.ndarray
    K_factor: tuple
    free_jacobian: np.ndarray

    @property
    def m_total(self) -> int:
        return self.spec.m * self.spec.T

    @property
    def p_total(self) -> int:
        return self.spec.p * self.spec.T

    @cached_property
    def eigenpair(self):
        """Dominant eigenpair of Psi (a :class:`tsattack.cost_attack.EigenPair`).

        It depends only on the system, so one eigendecomposition serves every
        series and budget.  It is deliberately not built by
        :func:`batch_form`: constrained runs never use it.
        """
        from .cost_attack import dominant_eigenpair  # cost_attack imports lqr

        pair = dominant_eigenpair(self.Psi)
        pair.v1.flags.writeable = False  # one array handed to every caller
        return pair


def check_series(batch: BatchForm, s, name: str = "s") -> np.ndarray:
    """Validate a flat time-major series vector of length p*T.

    Returns it as a float vector, or raises ValueError naming ``name`` when
    its length is not p*T or an entry is NaN or infinite.  Series are
    checked once, where they enter: the public functions that take a
    caller's series call this, and the solver underneath them does not.
    """
    vec = np.asarray(s, dtype=float).ravel()
    if vec.shape != (batch.p_total,):
        raise ValueError(
            f"{name} must have length p*T = {batch.p_total}, got {vec.shape[0]}"
        )
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} contains non-finite entries")
    return vec


def _stack_dynamics(spec: SystemSpec):
    """Unroll the recursion into (x_1, ..., x_T) = x0_response + M u + N s.

    Returns the flat, time-major (M, N, x0_response).  Row block t covers
    x_{t+1}: M_t = [A^t B, A^{t-1} B, ..., B, 0, ..., 0], N_t likewise with
    C, right-padded with zero blocks to the full mT / pT width, and A^{t+1} x0.
    """
    n, m, p, T = spec.n, spec.m, spec.p, spec.T
    # A^j B and A^j C for j = 0 .. T-1, built incrementally.
    AjB = np.zeros((T, n, m))
    AjC = np.zeros((T, n, p))
    AjB[0], AjC[0] = spec.B, spec.C
    for j in range(1, T):
        AjB[j] = spec.A @ AjB[j - 1]
        AjC[j] = spec.A @ AjC[j - 1]

    x0_response = np.zeros((T, n))
    free = spec.A @ spec.x0
    for t in range(T):
        x0_response[t] = free
        free = spec.A @ free

    # Block (t, j) is A^{t-j} B for j <= t and zero above the diagonal.
    lag = np.arange(T)[:, None] - np.arange(T)[None, :]
    causal = (lag >= 0)[:, :, None, None]
    lag = np.maximum(lag, 0)
    M = np.where(causal, AjB[lag], 0.0).transpose(0, 2, 1, 3).reshape(n * T, m * T)
    N = np.where(causal, AjC[lag], 0.0).transpose(0, 2, 1, 3).reshape(n * T, p * T)
    return M, N, x0_response.reshape(n * T)


def batch_form(spec: SystemSpec) -> BatchForm:
    """Stack the dynamics and build K, L, k_const, Psi and the free Jacobian.

    K, L and k_const are products with one shared operand, (Qbar M)'.
    K^{-1} L is solved once, through the Cholesky factorization of K (never
    an explicit inverse), for F = -K^{-1} L and Psi = -L' F.  K and Psi are
    symmetrized to remove roundoff skew.
    """
    M, N, x0_response = _stack_dynamics(spec)
    QM_t = (spec.Q @ M.reshape(spec.T, spec.n, -1)).reshape(M.shape).T
    K = np.kron(np.eye(spec.T), spec.R) + QM_t @ M
    K = 0.5 * (K + K.T)
    try:
        factor = cho_factor(K)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError("K is not positive definite; check Q and R") from exc
    L = QM_t @ N
    free_jacobian = -cho_solve(factor, L)
    free_jacobian.flags.writeable = False
    Psi = -(L.T @ free_jacobian)
    Psi = 0.5 * (Psi + Psi.T)
    return BatchForm(spec=spec, M=M, N=N, x0_response=x0_response, K=K, L=L,
                     Psi=Psi, k_const=QM_t @ x0_response, K_factor=factor,
                     free_jacobian=free_jacobian)


def linear_term(batch: BatchForm, s) -> np.ndarray:
    """Linear cost coefficient k(x0, s) = k_const + L s.

    ``s`` is a series that :func:`check_series` has already passed; it is
    not checked again.
    """
    return batch.k_const + batch.L @ s


def solve_unconstrained(batch: BatchForm, s) -> np.ndarray:
    """Optimal flat action vector u* = -K^{-1} k(x0, s)."""
    return -cho_solve(batch.K_factor, linear_term(batch, check_series(batch, s)))


def rollout_cost(spec: SystemSpec, u, s) -> float:
    """Ground-truth cost of actions u simulated against the real series s.

    Simulates x_{t+1} = A x_t + B u_t + C s_t from x0 and accumulates
    sum_{t=0}^{T} x_t' Q x_t + sum_{t=0}^{T-1} u_t' R u_t.  Attacked
    controllers are always costed here against the real series, never the
    perturbed one.  This is the one-row case of :func:`_rollout_costs`.
    """
    u = np.asarray(u, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    n, m, p, T = spec.n, spec.m, spec.p, spec.T
    if u.shape != (m * T,):
        raise ValueError(f"u must have length m*T = {m * T}, got {u.shape[0]}")
    if s.shape != (p * T,):
        raise ValueError(f"s must have length p*T = {p * T}, got {s.shape[0]}")
    return float(_rollout_costs(spec, u[None], s[None])[0])


def _rollout_costs(spec: SystemSpec, U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """:func:`rollout_cost` of each action row of U against the matching row
    of S, all rows stepped together.  Every product is the per-row product
    (:func:`_row_products`, and the quadratic forms ``(x @ Q) @ x`` one
    stacked matmul each), so each cost is bit for bit its own rollout."""
    m, p = spec.m, spec.p
    x0 = spec.x0
    X = np.tile(x0, (len(U), 1))
    total = np.full(len(U), float(x0 @ spec.Q @ x0))
    for t in range(spec.T):
        U_t, S_t = U[:, t * m:(t + 1) * m], S[:, t * p:(t + 1) * p]
        total += _quadratic_forms(U_t, spec.R)
        X = _row_products(spec.A, X) + _row_products(spec.B, U_t) + _row_products(spec.C, S_t)
        total += _quadratic_forms(X, spec.Q)
    return total


def _quadratic_forms(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``x @ P @ x`` for every row x of X, bit for bit: one stacked
    vector-matrix and one stacked dot."""
    return np.matmul(np.matmul(X[:, None, :], P), X[:, :, None])[:, 0, 0]


def realized_costs(batch: BatchForm, U, S) -> np.ndarray:
    """Costs of action rows U played against real-series rows S, all at once.

    Row r gives the same cost as ``rollout_cost(spec, U[r], S[r])`` up to
    roundoff: the states come from the stacked form,
    x_{t+1} = A^{t+1} x0 + M_t u + N_t s, as two matrix products over all
    rows.  Returns one cost per row.
    """
    spec = batch.spec
    U = np.asarray(U, dtype=float)
    S = np.asarray(S, dtype=float)
    if U.ndim != 2 or U.shape[1] != batch.m_total:
        raise ValueError(f"U must have shape (rows, m*T = {batch.m_total}), got {U.shape}")
    if S.shape != (U.shape[0], batch.p_total):
        raise ValueError(
            f"S must have shape ({U.shape[0]}, p*T = {batch.p_total}), got {S.shape}"
        )
    rows, T = U.shape[0], spec.T
    X = (U @ batch.M.T + S @ batch.N.T + batch.x0_response).reshape(rows, T, spec.n)
    U = U.reshape(rows, T, spec.m)
    state_cost = np.einsum("rti,ij,rtj->r", X, spec.Q, X)
    action_cost = np.einsum("rti,ij,rtj->r", U, spec.R, U)
    return float(spec.x0 @ spec.Q @ spec.x0) + state_cost + action_cost


def cost_delta_quadratic(batch: BatchForm, s_hat, s) -> float:
    """Cost increase (s_hat - s)' Psi (s_hat - s) of acting on s_hat.

    This is the closed-form gap between costing the controller's response to
    s_hat and its response to s, both evaluated against the real series s.
    """
    s_hat = check_series(batch, s_hat, "s_hat")
    s = check_series(batch, s)
    d = s_hat - s
    return float(d @ batch.Psi @ d)
