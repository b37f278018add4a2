"""Dense float64 tensor primitives and the finite-difference gradient contract.

Matrices are 2-d C-contiguous (row-major) float64 ndarrays, vectors are 1-d.
Every operation here is a pure function of its inputs; nothing is mutated.
"""

from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to mask==True positions.

    The max is subtracted first, so large logits cannot overflow. Masked
    positions get weight exactly 0. Rows with no unmasked position come back
    all-zero rather than raising, so empty reviews/profiles stay scorable; a
    row with a NaN logit at an unmasked position comes back all-NaN, so a
    corrupt parameter shows in the output instead of pooling to zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape:
        raise ShapeError(f"logits {logits.shape} vs mask {mask.shape}")
    neg = np.where(mask, logits, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    # rows with no unmasked entry have mx = -inf; their total is 0
    safe_mx = np.where(np.isfinite(mx), mx, 0.0)
    # after the shift every exponent is <= 0; the shift itself can only
    # overflow at the float64 extremes, to -inf (numpy warns), which gives
    # weight exactly 0
    e = np.where(mask, np.exp(neg - safe_mx), 0.0)
    total = e.sum(axis=-1, keepdims=True)
    return np.divide(e, total, out=np.zeros_like(e), where=total != 0)


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
        raise ShapeError(f"point {point.shape} vs analytic grad {analytic.shape}")
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
