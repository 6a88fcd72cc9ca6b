"""Closed-form worst-case cost attack and the control-agnostic baseline.

Over the L2 ball ||s_hat - s||_2 <= delta the cost increase
(s_hat - s)' Psi (s_hat - s) is maximized exactly by stepping delta along the
dominant eigenvector of Psi, attaining delta^2 * lambda_1 (stepping along
-v1 attains the same value).  The perturbation direction depends only on
the system, never on the series or the initial state.  The baseline perturbs
by delta in a uniformly random direction instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .lqr import BatchForm, _row_dots, check_series

#: Diagnostic flag values carried by AttackResult.flags.
FLAG_ZERO_GRADIENT = "zero-gradient"
FLAG_INFEASIBLE = "infeasible"
FLAG_WEAK_ACTIVE = "weak-active"
FLAG_DEGENERATE_KKT = "degenerate-kkt"


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Dominant eigenvalue/eigenvector of the sensitivity matrix."""

    lambda1: float
    v1: np.ndarray


@dataclass(frozen=True, eq=False)
class AttackResult:
    """Outcome of one attack on one series.

    Attributes:
        s_hat: The perturbed series handed to the controller.
        delta: The L2 perturbation budget.
        attained: Value of the attack's target function at s_hat
            (+inf when the attacked problem became infeasible).
        norm_used: Actual ||s_hat - s||_2 spent.
        flags: Diagnostics such as ``zero-gradient`` / ``infeasible``.
        u_hat: The controller's actions on s_hat when the attack solved
            them (the gradient attacks), else None: always None for the
            closed-form and random attacks and after an infeasible outcome.
    """

    s_hat: np.ndarray
    delta: float
    attained: float
    norm_used: float
    flags: frozenset = frozenset()
    u_hat: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.norm_used <= self.delta * (1.0 + 1e-9):  # NaN fails too
            problem = "exceeds" if math.isfinite(self.norm_used) else "overflows at"
            raise ValueError(
                f"perturbation norm {self.norm_used} {problem} delta {self.delta}"
            )


def dominant_eigenpair(psi: np.ndarray) -> EigenPair:
    """Largest eigenvalue and unit eigenvector of a symmetric PSD matrix.

    The eigenvector is canonicalized so its first component of magnitude
    above 1e-12 is positive.  With a degenerate top eigenvalue any
    eigenvector from the solver's deterministic ordering is returned.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {psi.shape}")
    if np.max(np.abs(psi - psi.T)) > 1e-10:
        raise ValueError("matrix is not symmetric to 1e-10")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (psi + psi.T))
    lambda1 = float(max(eigvals[-1], 0.0))
    v1 = eigvecs[:, -1].copy()
    nonzero = np.nonzero(np.abs(v1) > 1e-12)[0]
    if nonzero.size and v1[nonzero[0]] < 0:
        v1 = -v1
    return EigenPair(lambda1=lambda1, v1=v1)


def cost_attack(batch: BatchForm, s, delta: float) -> AttackResult:
    """Worst-case cost perturbation s + delta*v1 of the series.

    ``attained`` is the closed-form cost increase delta^2 * lambda_1;
    s - delta*v1 attains the same value.  The eigenpair is the one cached on
    the batch form, so repeated attacks share it.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    return _closed_form(batch, check_series(batch, s), float(delta))


def _closed_form(batch: BatchForm, s: np.ndarray, delta: float) -> AttackResult:
    """:func:`cost_attack` of a checked series s for a positive finite delta."""
    eig = batch.eigenpair
    s_hat = s + delta * eig.v1
    return AttackResult(
        s_hat=s_hat,
        delta=delta,
        attained=delta * delta * eig.lambda1,  # delta ** 2 raises on overflow
        norm_used=_norm(s_hat - s, delta),
    )


def _norm(v: np.ndarray, budget: float) -> float:
    """||v||_2 of an offset meant to lie within ``budget``: the one-row case
    of :func:`_norms`."""
    return float(_norms(v[None], budget)[0])


def _norms(X: np.ndarray, budget: float) -> np.ndarray:
    """||x||_2 of every row x of the (W, n) block X, offsets meant to lie
    within ``budget``.  The sums of squares are one stacked
    :func:`tsattack.lqr._row_dots`, bit for bit the ``np.linalg.norm`` of
    each row.  Past 1.3e154 a sum of squares overflows, so from a budget of
    1e150 the scaled BLAS norm is taken (inf only when an entry is itself
    inf); below it, only for a row whose sum overflows anyway, as a
    :func:`tsattack.grad_attack.project_ball` offset up to the step size
    past its budget can."""
    if budget < 1e150:
        norms = np.sqrt(_row_dots(X))
        scaled = np.flatnonzero(norms == math.inf) if np.isinf(norms).any() else ()
    else:
        norms, scaled = np.empty(len(X)), range(len(X))
    for row in scaled:
        norms[row] = scipy.linalg.norm(X[row], check_finite=False)
    return norms


def random_sphere_attack(s, delta: float, seed: int) -> AttackResult:
    """Perturb by delta in a uniformly random direction (control-agnostic).

    The direction is a normalized standard-normal draw, deterministic for a
    given seed.  ``attained`` is the control-agnostic objective
    ||s_hat - s||^2 = delta^2; callers who know the system measure the cost
    effect with :func:`tsattack.lqr.cost_delta_quadratic`.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    s = np.asarray(s, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(s.size)
    norm = np.linalg.norm(w)
    while norm < 1e-12:  # probability ~0, but keeps the contract exact
        w = rng.standard_normal(s.size)
        norm = np.linalg.norm(w)
    with np.errstate(over="ignore"):  # an inf step fails AttackResult's norm check
        step = delta * w / norm
    delta = float(delta)
    return AttackResult(
        s_hat=s + step,
        delta=delta,
        attained=delta * delta,  # delta ** 2 raises on overflow
        norm_used=_norm(step, delta),
    )
