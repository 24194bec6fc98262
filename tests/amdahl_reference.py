"""The strong-scaling fit as first written, one group per call.

``scalefit.fit_amdahl_many`` runs this damped Gauss-Newton loop on many
groups at once; it must give each group exactly the result this function
gives. The code is kept as it was, as the reference for that comparison.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from perfchar.exceptions import ConvergenceError, ParameterError, UnderdeterminedError
from perfchar.scalefit import A_LOWER_BOUND, AmdahlFit


def _amdahl_model(a: float, b: float, p: np.ndarray) -> np.ndarray:
    return 1.0 / ((1.0 - a) + a / p) + b


def _amdahl_jacobian(a: float, p: np.ndarray) -> np.ndarray:
    denom = (1.0 - a) + a / p
    return np.column_stack([(1.0 - 1.0 / p) / denom**2, np.ones_like(p)])


def fit_amdahl_reference(
    points: Iterable[tuple[float, float]],
    *,
    weighting: str = "relative",
    initial: tuple[float, float] = (0.9, 0.0),
    max_iter: int = 200,
    tol: float = 1e-13,
) -> AmdahlFit:
    """Fit the strong-scaling model to (p, speedup) points.

    ``weighting="relative"`` divides residuals by the measured speedups
    (constant relative error); ``"absolute"`` uses raw residuals. Raises
    UnderdeterminedError below three distinct p values and ConvergenceError
    (carrying the best iterate) if the loop exhausts ``max_iter``.
    """
    pts = sorted(points)
    p = np.array([q for q, _ in pts], dtype=float)
    s = np.array([v for _, v in pts], dtype=float)
    if len(set(p.tolist())) < 3:
        raise UnderdeterminedError("strong-scaling fit needs >= 3 distinct p values")
    if np.any(p < 1):
        raise ParameterError("unit counts must be >= 1")
    if np.any(s <= 0):
        raise ParameterError("speedups must be positive")
    if weighting == "relative":
        w = 1.0 / s
    elif weighting == "absolute":
        w = np.ones_like(s)
    else:
        raise ParameterError(f"weighting must be 'relative' or 'absolute', got {weighting!r}")

    def ssr_at(a: float, b: float) -> float:
        return float(np.sum((w * (s - _amdahl_model(a, b, p))) ** 2))

    a, b = initial
    a = min(max(a, A_LOWER_BOUND), 1.0)
    lam = 1e-3
    ssr = ssr_at(a, b)
    converged = False
    for _ in range(max_iter):
        jac = w[:, None] * _amdahl_jacobian(a, p)
        resid = w * (s - _amdahl_model(a, b, p))
        jtj = jac.T @ jac
        grad = jac.T @ resid
        step = None
        for _ in range(40):
            damped = jtj + lam * np.diag(np.diag(jtj))
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            a_new = min(max(a + step[0], A_LOWER_BOUND), 1.0)
            b_new = b + step[1]
            ssr_new = ssr_at(a_new, b_new)
            if ssr_new <= ssr:
                improvement = ssr - ssr_new
                a, b, ssr = a_new, b_new, ssr_new
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        else:
            # No damping level improves the fit: we are at a local optimum.
            converged = True
            break
        if float(np.linalg.norm(step)) < tol or improvement < tol * (1.0 + ssr):
            converged = True
            break

    sigma_a, sigma_b = _amdahl_uncertainties(a, p, w, ssr)
    fit = AmdahlFit(a=a, b=b, sigma_a=sigma_a, sigma_b=sigma_b, residual=ssr)
    if not converged:
        raise ConvergenceError(
            f"strong-scaling fit did not converge within {max_iter} iterations", best_fit=fit
        )
    return fit


def _amdahl_uncertainties(a: float, p: np.ndarray, w: np.ndarray, ssr: float) -> tuple[float, float]:
    jac = w[:, None] * _amdahl_jacobian(a, p)
    dof = len(p) - 2
    scale = ssr / dof if dof > 0 else 0.0
    try:
        cov = scale * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return math.inf, math.inf
    return math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(max(cov[1, 1], 0.0))
