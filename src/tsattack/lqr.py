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
Every realized cost comes from :func:`realized_costs` or its kernel,
:func:`_costs_of_responses`, which takes each real series' response
``N s`` ready made; nothing in the package calls the reference
:func:`rollout_cost`.

A batch form depends only on the system, so :func:`batch_form` keeps the
form of the last system it built, keyed by its exact content, and hands an
equal system the same read-only form, with its cached eigenpair of Psi: a
process that runs many experiments on one system stacks the dynamics and
decomposes Psi once.

Building a form, the attack stage and the experiment runner run on one
BLAS thread (:func:`_one_blas_thread`) and restore the caller's count on
return: their LAPACK calls are small enough that a second OpenBLAS thread
costs more than it gives, and at T = 500 it moves ``potrf`` of K by up to
7e-13 relative, so one thread makes the records the same at any core count.
The scope sets every OpenBLAS loaded when this module is imported and does
nothing where there is none (another OS, MKL, Accelerate); it is not safe
to change the count from several Python threads at once.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs

from .errors import ConfigurationError

SYMMETRY_TOL = 1e-12

_POTRS, _TRTRS = get_lapack_funcs(("potrs", "trtrs"), dtype=np.float64)

#: Thread-count symbols of numpy's OpenBLAS, scipy's and a system OpenBLAS;
#: a library's first exported pair is its control.
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))


def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process, found through /proc/self/maps and opened without loading
    anything new; empty where there is no maps file or no OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:  # not a loaded library, e.g. a deleted file
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                controls.append((get, put))
                break
    return tuple(controls)


#: numpy and scipy.linalg are imported above, so both OpenBLAS copies are in.
_BLAS_CONTROLS = _openblas_controls()


@contextmanager
def _one_blas_thread():
    """Run the body, or a function it decorates, with every OpenBLAS in
    :data:`_BLAS_CONTROLS` on one thread, and restore each library's count
    on exit, also when the body raises; nested scopes restore the count
    they found."""
    counts = [get() for get, _ in _BLAS_CONTROLS]
    for _, put in _BLAS_CONTROLS:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(_BLAS_CONTROLS, counts):
            put(count)


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


def _read_only_copy(arr: np.ndarray) -> np.ndarray:
    """A C-ordered, read-only copy of ``arr`` that no caller holds."""
    arr = np.array(arr, order="C")
    arr.flags.writeable = False
    return arr


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
    The spec keeps read-only, C-ordered copies of the arrays it is given, so
    a caller changing its own array later changes neither the spec nor a
    batch form built from it.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    T: int
    x0: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "Q", "R"):
            object.__setattr__(self, name,
                               _read_only_copy(_as_matrix(getattr(self, name), name)))
        object.__setattr__(self, "x0",
                           _read_only_copy(np.atleast_1d(_finite_array(self.x0, "x0"))))
        if (isinstance(self.T, bool) or not isinstance(self.T, (int, np.integer))
                or self.T < 1):
            raise ConfigurationError(f"T must be a positive integer, got {self.T!r}")
        object.__setattr__(self, "T", int(self.T))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigurationError(f"A must be square, got {self.A.shape}")
        if not n:
            raise ConfigurationError("A must have at least one row")
        if self.B.shape[0] != n or self.C.shape[0] != n:
            raise ConfigurationError("B and C must have the same row count as A")
        for name in ("B", "C"):
            if not getattr(self, name).shape[1]:
                raise ConfigurationError(f"{name} must have at least one column")
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
        free_jacobian (mT x pT)  du*/ds = -K^{-1} L, the solution
                                 Jacobian of every solve with no active row

    The linear term of the cost is k(x0, s) = k_const + L s.  Build
    instances with :func:`batch_form`, which shares one form among equal
    systems; they are immutable (every array, the factor's matrix too, is
    read-only) and all operations on them are pure.  The dominant eigenpair
    of Psi is computed on first use of :attr:`eigenpair` and reused after.
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
        from .cost_attack import _top_eigenpair  # cost_attack imports lqr

        pair = _top_eigenpair(self.Psi)  # Psi is symmetric as built
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

    return _block_toeplitz(AjB), _block_toeplitz(AjC), x0_response.reshape(n * T)


def _block_toeplitz(powers: np.ndarray) -> np.ndarray:
    """The (nT x kT) map whose block (t, j) is ``powers[t - j]`` for j <= t
    and zero above the diagonal, from the (T, n, k) stack of A^j X.

    Row block t is the window of T blocks starting at block T-1-t of the
    row [A^{T-1} X, ..., A X, X, 0, ..., 0] (T-1 zero blocks), so the map
    is one strided copy of that row's windows.
    """
    T, n, k = powers.shape
    row = np.zeros((n, (2 * T - 1) * k))
    row[:, :T * k] = powers[::-1].transpose(1, 0, 2).reshape(n, T * k)
    windows = np.lib.stride_tricks.sliding_window_view(row, T * k, axis=1)[:, ::k]
    # copy(): where a reshape alone would not copy (n = 1), it would return
    # read-only, overlapping windows of ``row``.
    return windows[:, ::-1].transpose(1, 0, 2).copy().reshape(n * T, k * T)


#: The last system :func:`batch_form` built, as (its key, its form); a new
#: system replaces it, so at most one form is kept.
_last_form: tuple | None = None


def _system_key(spec: SystemSpec) -> tuple:
    """The exact content of a system: T and the shape and bytes of each
    array, so -0.0 and 0.0, or two floats one ulp apart, differ."""
    return (spec.T, *((arr.shape, arr.tobytes())
                      for arr in (spec.A, spec.B, spec.C, spec.Q, spec.R, spec.x0)))


def batch_form(spec: SystemSpec) -> BatchForm:
    """The batch form of ``spec``: stacked maps, K, L, k_const, Psi and the
    free Jacobian.

    A system equal in content to the last one built gets that system's form
    back, the same object with its ``spec`` and cached eigenpair, without a
    BLAS call; any other is built by :func:`_build_form` and replaces it.
    """
    global _last_form
    key = _system_key(spec)
    if _last_form is None or _last_form[0] != key:
        _last_form = (key, _build_form(spec))
    return _last_form[1]


@_one_blas_thread()
def _build_form(spec: SystemSpec) -> BatchForm:
    """Stack the dynamics and build K, L, k_const, Psi and the free Jacobian.

    K, L and k_const are products with one shared operand, (Qbar M)'.
    K^{-1} L is solved once, through the Cholesky factorization of K (never
    an explicit inverse), for F = -K^{-1} L and Psi = -L' F.  K and Psi are
    symmetrized to remove roundoff skew.  Every array is made read-only.
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
    Psi = -(L.T @ free_jacobian)
    Psi = 0.5 * (Psi + Psi.T)
    k_const = QM_t @ x0_response
    for arr in (M, N, x0_response, K, L, Psi, k_const, factor[0], free_jacobian):
        arr.flags.writeable = False
    return BatchForm(spec=spec, M=M, N=N, x0_response=x0_response, K=K, L=L,
                     Psi=Psi, k_const=k_const, K_factor=factor,
                     free_jacobian=free_jacobian)


def linear_term(batch: BatchForm, s) -> np.ndarray:
    """Linear cost coefficient k(x0, s) = k_const + L s.

    ``s`` is a series that :func:`check_series` has already passed; it is
    not checked again.
    """
    return batch.k_const + batch.L @ s


def rollout_cost(spec: SystemSpec, u, s) -> float:
    """Reference cost of actions u simulated against the real series s.

    Simulates x_{t+1} = A x_t + B u_t + C s_t from x0 one step at a time
    and accumulates sum_{t=0}^{T} x_t' Q x_t + sum_{t=0}^{T-1} u_t' R u_t:
    the step-by-step check on :func:`realized_costs`.
    """
    u = np.asarray(u, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    m, p, T = spec.m, spec.p, spec.T
    if u.shape != (m * T,):
        raise ValueError(f"u must have length m*T = {m * T}, got {u.shape[0]}")
    if s.shape != (p * T,):
        raise ValueError(f"s must have length p*T = {p * T}, got {s.shape[0]}")
    x, total = spec.x0, float(spec.x0 @ spec.Q @ spec.x0)
    for t in range(T):
        u_t, s_t = u[t * m:(t + 1) * m], s[t * p:(t + 1) * p]
        total += float(u_t @ spec.R @ u_t)
        x = spec.A @ x + spec.B @ u_t + spec.C @ s_t
        total += float(x @ spec.Q @ x)
    return total


def _quadratic_forms(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``x @ P @ x`` for every row x of X, bit for bit: one stacked
    vector-matrix and one stacked dot."""
    return np.matmul(np.matmul(X[:, None, :], P), X[:, :, None])[:, 0, 0]


def realized_costs(batch: BatchForm, U, S) -> np.ndarray:
    """Costs of action rows U played against real-series rows S, all at once.

    Row r is ``rollout_cost(spec, U[r], S[r])`` up to roundoff and bit for
    bit row r costed alone: the states x_{t+1} = A^{t+1} x0 + M_t u + N_t s
    and each step's quadratic forms are per-row products, and each row sums
    its own horizon.  An overflowing cost is inf, for the caller to name.
    Its kernel, :func:`_costs_of_responses`, sums the states as
    ``(M u + N s) + x0_response`` and takes each ``N s`` ready made, so a
    caller that plays many action rows against a few series computes each
    series' response once; it costs the records and the ``cost-gradient``
    target (:data:`tsattack.grad_attack._METRICS`).
    """
    U = np.asarray(U, dtype=float)
    S = np.asarray(S, dtype=float)
    if U.ndim != 2 or U.shape[1] != batch.m_total:
        raise ValueError(f"U must have shape (rows, m*T = {batch.m_total}), got {U.shape}")
    if S.shape != (U.shape[0], batch.p_total):
        raise ValueError(
            f"S must have shape ({U.shape[0]}, p*T = {batch.p_total}), got {S.shape}"
        )
    return _costs_of_responses(batch, U, _row_products(batch.N, S))


def _costs_of_responses(batch: BatchForm, U: np.ndarray, NS: np.ndarray) -> np.ndarray:
    """:func:`realized_costs` of the (rows, mT) action rows U against the real
    series whose responses ``N s`` are the rows of the (rows, nT) array NS,
    each from :func:`_row_products`; every cost is bit for bit
    ``realized_costs`` of its row alone."""
    spec = batch.spec
    rows, T = U.shape[0], spec.T
    X = _row_products(batch.M, U) + NS + batch.x0_response
    with np.errstate(over="ignore"):
        state_cost = _quadratic_forms(X.reshape(rows * T, spec.n), spec.Q).reshape(rows, T)
        action_cost = _quadratic_forms(U.reshape(rows * T, spec.m), spec.R).reshape(rows, T)
        return float(spec.x0 @ spec.Q @ spec.x0) + state_cost.sum(1) + action_cost.sum(1)


def cost_delta_quadratic(batch: BatchForm, s_hat, s) -> float:
    """Cost increase (s_hat - s)' Psi (s_hat - s) of acting on s_hat.

    This is the closed-form gap between costing the controller's response to
    s_hat and its response to s, both evaluated against the real series s.
    """
    s_hat = check_series(batch, s_hat, "s_hat")
    s = check_series(batch, s)
    d = s_hat - s
    return float(d @ batch.Psi @ d)
