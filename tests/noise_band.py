"""The seed noise band that the acceptance checks read their shape claims
through: per-point standard errors across seeds, and the steps of a curve
that rise beyond that band."""

from __future__ import annotations

import numpy as np


def seed_standard_error(curves) -> np.ndarray:
    """Standard error of the mean across per-seed curves (rows = seeds)."""
    stacked = np.asarray(curves, dtype=float)
    k = stacked.shape[0]
    if k < 2:
        return np.zeros(stacked.shape[1])
    return np.std(stacked, axis=0, ddof=1) / np.sqrt(k)


def increase_violations(
    values, standard_errors=None, rel_tol: float = 0.02
) -> list[int]:
    """Indices i where values[i] rises above values[i-1] beyond the noise band.

    A step counts as a violation only when the increase exceeds rel_tol of the
    previous value *and* (when per-point standard errors are supplied) one
    standard error of the larger point. Small wobbles within either band are
    treated as seed noise.
    """
    values = np.asarray(values, dtype=float)
    out = []
    for i in range(1, values.size):
        step = values[i] - values[i - 1]
        if step <= 0:
            continue
        beyond_rel = step > rel_tol * abs(values[i - 1])
        beyond_se = True
        if standard_errors is not None:
            beyond_se = step > float(np.asarray(standard_errors)[i])
        if beyond_rel and beyond_se:
            out.append(i)
    return out
