"""The closed-form scaling fits and the projection as first written, one group per call.

``scalefit.fit_mpi_shares_many``, ``scalefit.fit_gustafson_many`` and
``scalefit.project_many`` run these on many groups at once, and the model
evaluations ``eval_amdahl`` and ``eval_gustafson`` now go through
``project_many``; they must give each group exactly the result, or the error,
that these functions give. The code is kept as it was, as the reference for
that comparison.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from perfchar.exceptions import InvalidDataError, ParameterError, UnderdeterminedError
from perfchar.scalefit import _SINGULAR, AmdahlFit, GustafsonFit, MpiShareFit, ProjectionPoint


def eval_amdahl(a: float, b: float, p: float) -> float:
    """Strong-scaling speedup at p units: 1/((1-a) + a/p) + b."""
    if not 0 < a <= 1:
        raise ParameterError("parallel fraction a must be in (0, 1]")
    if p < 1:
        raise ParameterError("unit count p must be >= 1")
    return 1.0 / ((1.0 - a) + a / p) + b


def eval_gustafson(a: float, p: float) -> float:
    """Weak-scaling speedup at p units: (1-a) + a*p."""
    if not 0 <= a <= 1:
        raise ParameterError("parallel fraction a must be in [0, 1]")
    if p < 1:
        raise ParameterError("unit count p must be >= 1")
    return (1.0 - a) + a * p


def fit_gustafson_reference(points: Iterable[tuple[float, float]]) -> GustafsonFit:
    """Closed-form least squares for the weak-scaling model (linear in a)."""
    pts = sorted(points)
    p = np.array([q for q, _ in pts], dtype=float)
    s = np.array([v for _, v in pts], dtype=float)
    if len(set(p.tolist())) < 2:
        raise UnderdeterminedError("weak-scaling fit needs >= 2 distinct p values")
    if np.any(p < 1):
        raise ParameterError("unit counts must be >= 1")
    x = p - 1.0
    y = s - 1.0
    sxx = float(np.sum(x * x))
    a = float(np.sum(x * y)) / sxx
    a_clamped = min(max(a, 0.0), 1.0)
    resid = float(np.sum((s - ((1.0 - a_clamped) + a_clamped * p)) ** 2))
    dof = len(p) - 1
    sigma_a = math.sqrt((resid / dof) / sxx) if dof > 0 else 0.0
    return GustafsonFit(a=a_clamped, sigma_a=sigma_a, residual=resid)


def fit_mpi_shares_reference(points: Iterable[tuple[float, float, float]]) -> MpiShareFit:
    """Fit the share decomposition to (p, lb_share_pct, com_share_pct) points.

    The load-balance share is fitted with ordinary least squares; the
    communication share is the sample mean with its standard error.
    """
    pts = sorted(points)
    p = np.array([q for q, _, _ in pts], dtype=float)
    lb = np.array([v for _, v, _ in pts], dtype=float)
    com = np.array([v for _, _, v in pts], dtype=float)
    if len(set(p.tolist())) < 3:
        raise UnderdeterminedError("share fit needs >= 3 distinct p values")
    if np.any(p < 1):
        raise ParameterError("unit counts must be >= 1")
    if np.any(lb < 0) or np.any(lb > 100) or np.any(com < 0) or np.any(com > 100):
        raise InvalidDataError("shares must lie within [0, 100] percent")
    if np.any(lb + com > 100.0):
        bad = p[lb + com > 100.0]
        raise InvalidDataError(
            f"load-balance and communication shares exceed 100% at p = {bad.tolist()}"
        )

    n = len(p)
    design = np.column_stack([p, np.ones_like(p)])
    coef, *_ = np.linalg.lstsq(design, lb, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    resid = float(np.sum((lb - (a * p + b)) ** 2))
    dof = n - 2
    scale = resid / dof if dof > 0 else 0.0
    try:
        cov = scale * np.linalg.inv(design.T @ design)
    except np.linalg.LinAlgError:
        raise InvalidDataError(_SINGULAR) from None
    if not (math.isfinite(cov[0, 0]) and math.isfinite(cov[1, 1])):
        raise InvalidDataError(_SINGULAR)
    sigma_a = math.sqrt(max(cov[0, 0], 0.0))
    sigma_b = math.sqrt(max(cov[1, 1], 0.0))

    c = float(np.mean(com))
    if n > 1:
        sigma_c = float(np.std(com, ddof=1)) / math.sqrt(n)
    else:
        sigma_c = 0.0

    fitted_lb = a * p + b
    if np.any(fitted_lb < 0) or np.any(fitted_lb + c > 100.0):
        raise InvalidDataError("fitted shares leave [0, 100] percent at observed p")
    return MpiShareFit(
        a=a, b=b, c=c, sigma_a=sigma_a, sigma_b=sigma_b, sigma_c=sigma_c,
        residual=resid,
    )


def project_reference(fit: AmdahlFit | GustafsonFit, p_list: Sequence[float]) -> list[ProjectionPoint]:
    """Evaluate a fitted model over unit counts, with efficiency = speedup / p."""
    if isinstance(fit, AmdahlFit):
        speedup_at = lambda p: eval_amdahl(fit.a, fit.b, p)
    elif isinstance(fit, GustafsonFit):
        speedup_at = lambda p: eval_gustafson(fit.a, p)
    else:
        raise ParameterError(f"cannot project a {type(fit).__name__}")
    points = []
    for p in sorted(p_list):
        s = speedup_at(p)
        points.append(ProjectionPoint(units=p, speedup=s, efficiency=s / p))
    return points
