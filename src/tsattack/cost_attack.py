"""Closed-form worst-case cost attack and the control-agnostic baseline.

Over the L2 ball ||s_hat - s||_2 <= delta the cost increase
(s_hat - s)' Psi (s_hat - s) is maximized exactly by stepping delta along the
dominant eigenvector of Psi, attaining delta^2 * lambda_1 (stepping along
-v1 attains the same value).  The perturbation direction depends only on
the system, never on the series or the initial state.  The baseline perturbs
by delta in a uniformly random direction instead.

Both attacks are block operations on a (W, pT) block of series, one row per
window (:func:`_closed_forms`, :func:`_random_spheres`); the public
:func:`cost_attack` and :func:`random_sphere_attack` are their one-row
cases, and every row is bit for bit the row attacked alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .lqr import BatchForm, _row_dots, check_series

#: Diagnostic flag values carried by AttackResult.flags.
FLAG_ZERO_GRADIENT = "zero-gradient"
FLAG_INFEASIBLE = "infeasible"
FLAG_WEAK_ACTIVE = "weak-active"
FLAG_DEGENERATE_KKT = "degenerate-kkt"

#: The flag columns of an attacked block, one bool column per flag in sorted
#: name order, so the flags of a row, joined in column order, are sorted.
_FLAGS = (FLAG_DEGENERATE_KKT, FLAG_INFEASIBLE, FLAG_WEAK_ACTIVE, FLAG_ZERO_GRADIENT)
_COL_DEGENERATE, _COL_INFEASIBLE, _COL_WEAK, _COL_ZERO = range(len(_FLAGS))


class _AttackedBlock(NamedTuple):
    """The attacks on a (W, pT) block of series, one row per series."""

    S_hat: np.ndarray  # (W, pT) attacked series
    U_hat: np.ndarray  # (W, mT) answers on them; NaN where flagged infeasible
    attained: np.ndarray  # (W,) target values; +inf where infeasible
    norms: np.ndarray  # (W,) perturbation norms, checked against delta
    flags: np.ndarray  # (W, len(_FLAGS)) bool flag columns


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
        u_hat: The controller's actions on s_hat, or None: the gradient
            attacks set it unless flagged ``infeasible``; :func:`cost_attack`
            and :func:`random_sphere_attack` leave it None.
    """

    s_hat: np.ndarray
    delta: float
    attained: float
    norm_used: float
    flags: frozenset = frozenset()
    u_hat: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_norm(self.norm_used, self.delta)


def _check_norm(norm_used: float, delta: float, name: Optional[str] = None) -> None:
    """Raise a ValueError unless ``norm_used`` is within ``delta`` (to a
    relative 1e-9); NaN fails too.  The message starts with ``name`` when
    one is given."""
    if not norm_used <= delta * (1.0 + 1e-9):
        problem = "exceeds" if math.isfinite(norm_used) else "overflows at"
        named = "" if name is None else f"{name}: "
        raise ValueError(f"{named}perturbation norm {norm_used} {problem} delta {delta}")


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
    return _top_eigenpair(0.5 * (psi + psi.T))


def _top_eigenpair(psi: np.ndarray) -> EigenPair:
    """:func:`dominant_eigenpair` of an exactly symmetric float matrix,
    unchecked; symmetrizing it again would change no bit."""
    eigvals, eigvecs = np.linalg.eigh(psi)
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
    delta = float(delta)
    S_hat, attained, norms = _closed_forms(batch, check_series(batch, s)[None], delta)
    return AttackResult(s_hat=S_hat[0], delta=delta, attained=attained,
                        norm_used=float(norms[0]))


def _closed_forms(batch: BatchForm, S: np.ndarray, delta: float, names=None):
    """:func:`cost_attack` of every row of the checked (W, pT) block S for a
    positive finite delta: (S_hat, attained, norms), the attacked block
    ``S + delta * v1``, the one attained value and each row's checked
    ``norm_used`` (a failed check named by ``names``, as
    :func:`_checked_norms` names it)."""
    eig = batch.eigenpair
    S_hat = S + delta * eig.v1
    # delta * delta: delta ** 2 raises on overflow
    return S_hat, delta * delta * eig.lambda1, _checked_norms(S_hat - S, delta, names)


def _checked_norms(steps: np.ndarray, budgets, names=None) -> np.ndarray:
    """:func:`_norms` of the (W, pT) block of perturbations ``steps``, each
    checked against its row's budget as :class:`AttackResult` checks it: the
    first row past its budget raises its error, naming that row's budget,
    with ``names[row]`` in front when ``names`` (one label per row) is
    given.  ``budgets`` holds one budget per row, or one for every row."""
    budgets = np.broadcast_to(budgets, len(steps))
    norms = _norms(steps, budgets)
    over = np.flatnonzero(~(norms <= budgets * (1.0 + 1e-9)))
    if over.size:
        _check_norm(float(norms[over[0]]), float(budgets[over[0]]),
                    None if names is None else names[over[0]])
    return norms


def _norms(X: np.ndarray, budgets) -> np.ndarray:
    """||x||_2 of every row x of the (W, n) block X, offsets meant to lie
    within their row's budget (``budgets``: one per row, or one for every
    row).  The sums of squares are one stacked
    :func:`tsattack.lqr._row_dots`, bit for bit the ``np.linalg.norm`` of
    each row.  Past 1.3e154 a sum of squares overflows, so a row whose
    budget is 1e150 or more takes the scaled BLAS norm (inf only when an
    entry is itself inf), and so does a row below it whose sum overflows
    anyway, as a :func:`tsattack.grad_attack.project_ball` offset up to the
    step size past its budget can."""
    huge = np.broadcast_to(budgets, len(X)) >= 1e150
    if huge.any():
        norms = np.full(len(X), math.inf)
        norms[~huge] = np.sqrt(_row_dots(X[~huge]))
    else:
        norms = np.sqrt(_row_dots(X))
    for row in np.flatnonzero(norms == math.inf):
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
    delta = float(delta)
    s = np.asarray(s, dtype=float).ravel()
    S_hat, attained, norms = _random_spheres(s[None], delta, [seed])
    return AttackResult(s_hat=S_hat[0], delta=delta, attained=attained,
                        norm_used=float(norms[0]))


def _random_spheres(S: np.ndarray, delta: float, seeds, names=None):
    """:func:`random_sphere_attack` of every row of the (W, pT) block S, row
    w drawing from ``default_rng(seeds[w])``, for a positive finite delta:
    (S_hat, attained, norms) as :func:`_closed_forms` returns them, a failed
    norm check named by ``names``.

    The rows are drawn in order, one generator each, and a draw of norm
    below 1e-12 (probability ~0, but it keeps the contract exact) is drawn
    again from its row's generator.
    """
    draws = np.empty_like(S)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    for row, rng in zip(draws, rngs):
        rng.standard_normal(out=row)
    lengths = np.sqrt(_row_dots(draws))  # bit for bit np.linalg.norm of each draw
    for w in np.flatnonzero(lengths < 1e-12):
        while lengths[w] < 1e-12:
            rngs[w].standard_normal(out=draws[w])
            lengths[w] = np.linalg.norm(draws[w])
    with np.errstate(over="ignore"):  # an inf step fails the norm check
        steps = delta * draws / lengths[:, None]
    # delta * delta: delta ** 2 raises on overflow
    return S + steps, delta * delta, _checked_norms(steps, delta, names)
