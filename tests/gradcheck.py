"""The finite-difference gradient contract the test suite checks the
hand-derived backward pass against: grad_check, and loss, the objective it
differentiates numerically."""

from typing import Callable

import numpy as np

from nrpa import model as M
from nrpa import training as T
from nrpa.data import batch_arrays


def loss(batch, params: M.ModelParams, stores, l2_weight: float = 0.0,
         ablation: M.AblationSpec = M.FULL_ATTENTION,
         exclude_target: bool = False) -> float:
    """Mean squared residual over the batch plus the L2 penalty, taken by
    backward's own L2 walk, whose gradient goes to a scratch buffer."""
    users, items, ratings = batch_arrays(batch)
    user_store, item_store = stores
    preds, _, _ = M.predict_batch(params, user_store, item_store, users, items,
                                  exclude_target, ablation)
    res = preds - ratings
    return float(np.mean(res * res)) + T._dense_pass(params, l2_weight, ablation,
                                                       params.zeros_like())


def grad_check(
    f: Callable[[np.ndarray], float],
    point: np.ndarray,
    analytic_grad: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic_grad and central differences of f.

    Per-coordinate error is |analytic - numeric| / max(1, |analytic|, |numeric|),
    so tiny gradients are compared absolutely and large ones relatively.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    point = np.asarray(point, dtype=np.float64).reshape(-1)
    analytic = np.asarray(analytic_grad, dtype=np.float64).reshape(-1)
    if point.shape != analytic.shape:
        raise ValueError(f"point {point.shape} vs analytic grad {analytic.shape}")
    worst = 0.0
    for k in range(point.size):
        bumped = point.copy()
        bumped[k] = point[k] + eps
        f_hi = float(f(bumped))
        bumped[k] = point[k] - eps
        f_lo = float(f(bumped))
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise FloatingPointError(f"non-finite f at coordinate {k}")
        numeric = (f_hi - f_lo) / (2.0 * eps)
        err = abs(analytic[k] - numeric) / max(1.0, abs(analytic[k]), abs(numeric))
        worst = max(worst, err)
    return worst
