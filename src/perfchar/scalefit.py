"""Scaling-law fitting and projection.

Three models cover the measured regimes:

* strong scaling: ``s(p) = 1/((1-a) + a/p) + b`` where ``a`` is the parallel
  fraction and ``b`` approximates a constant parallelization overhead;
* weak scaling: ``s(p) = (1-a) + a*p``;
* MPI-time decomposition: the load-balance share of total time follows a line
  ``a*p + b`` (percent) while the communication share stays constant at ``c``.

The strong-scaling fit uses variable projection (Golub & Pereyra, 1973): at
any ``a`` the best offset ``b`` is a weighted mean, so the fit searches ``a``
alone, on the grid ``AMDAHL_GRID`` and then by ``AMDAHL_BISECTIONS``
bisections. Speedup measurements carry roughly constant *relative* error, so
residuals are weighted by 1/s; with that weighting the reported 1-sigma
uncertainties (covariance at the optimum, scaled by reduced chi-square) are
calibrated. The weak-scaling fit is linear and closed-form. The share fit's line is
LAPACK's SVD least squares, one call per stack through numpy's private ``lstsq`` gufunc.

Each ``*_many`` function fits many groups, those with the same number of points
together as stacked arrays cut from one ``PointGroups``, and ``project_many``
evaluates many fits; each group's result is bit-identical to fitting it alone,
and the one-group functions are the batch of one. ``_screen`` checks every
model's points first: finite, enough distinct unit counts, none below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .exceptions import (
    InvalidDataError,
    ParameterError,
    PerfcharError,
    UnderdeterminedError,
)

A_LOWER_BOUND = 1e-6  # open lower end of the parallel fraction's domain

#: Where the strong-scaling fit first evaluates its SSR: even steps, and steps that shrink towards 1, where
#: speedups at large unit counts tell nearby a apart. np.union1d's grid, without the numpy.ma it imports.
AMDAHL_GRID = np.sort(np.concatenate([np.linspace(A_LOWER_BOUND, 1.0, 17), 1.0 - np.geomspace(0.1, 1e-9, 16)]))
AMDAHL_GRID = AMDAHL_GRID[np.append(True, AMDAHL_GRID[1:] != AMDAHL_GRID[:-1])]
#: Halvings that take the widest grid cell down to the float64 spacing just below 1.
AMDAHL_BISECTIONS = int(np.ceil(np.log2(np.diff(AMDAHL_GRID).max() / np.spacing(0.5))))

#: Memory model for lattice weak-scaling sizing: doubles stored per cell.
LATTICE_VALUES_PER_CELL = 41
BYTES_PER_DOUBLE = 8


@dataclass(frozen=True)
class AmdahlFit:
    """Strong-scaling parameters with 1-sigma uncertainties."""

    a: float  # parallel fraction, (0, 1]
    b: float  # overhead offset
    sigma_a: float
    sigma_b: float
    residual: float  # weighted sum of squared residuals

    def __post_init__(self):
        if not 0 < self.a <= 1:
            raise ParameterError("parallel fraction a must be in (0, 1]")
        if self.sigma_a < 0 or self.sigma_b < 0:
            raise ParameterError("uncertainties must be >= 0")


@dataclass(frozen=True)
class GustafsonFit:
    """Weak-scaling parameter with 1-sigma uncertainty."""

    a: float  # parallel fraction, [0, 1]
    sigma_a: float
    residual: float

    def __post_init__(self):
        if not 0 <= self.a <= 1:
            raise ParameterError("parallel fraction a must be in [0, 1]")
        if self.sigma_a < 0:
            raise ParameterError("uncertainties must be >= 0")


@dataclass(frozen=True)
class MpiShareFit:
    """MPI-time decomposition parameters, all in percent of total time."""

    a: float  # load-balance share slope, % per unit
    b: float  # load-balance share intercept, %
    c: float  # communication share constant, %
    sigma_a: float
    sigma_b: float
    sigma_c: float
    residual: float

    def __post_init__(self):
        if self.c < 0:
            raise ParameterError("communication share must be >= 0")
        if min(self.sigma_a, self.sigma_b, self.sigma_c) < 0:
            raise ParameterError("uncertainties must be >= 0")


@dataclass(frozen=True)
class CriticalPoint:
    """Unit count where a share expression reaches the threshold."""

    units: float


@dataclass(frozen=True)
class ProjectionPoint:
    units: float
    speedup: float
    efficiency: float


@dataclass(frozen=True)
class WeakScalingSize:
    """Global problem dimensions for a per-unit block times a decomposition."""

    global_dims: tuple[int, int, int]
    total_cells: int
    memory_bytes: int


@dataclass(frozen=True, eq=False)
class PointGroups:
    """Groups of fit points held as one array.

    ``points`` holds the groups one after another, each group's rows in the
    order ``sorted()`` gives their tuples, and ``sizes`` each group's row count.
    Build one with ``of`` or ``from_groups``, which sort the rows.
    """

    sizes: np.ndarray  # (G,) rows per group
    points: np.ndarray  # (N, width)

    @classmethod
    def of(cls, group: np.ndarray, points: np.ndarray, count: int) -> "PointGroups":
        """The ``count`` groups of the rows of ``points``, row i in group ``group[i]``.

        Within a group, rows sort by their first column, then the next; equal
        rows keep their order. Rows that are not finite may sort otherwise
        than ``sorted()`` puts them; a fit refuses their group whatever the order.
        """
        return cls(np.bincount(group, minlength=count), points[np.lexsort((*points.T[::-1], group))])

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable], width: int) -> "PointGroups":
        """The PointGroups of groups of ``width``-value points."""
        groups = [list(points) for points in groups]
        flat = list(chain.from_iterable(groups))
        if set(map(len, flat)) - {width}:
            raise ValueError(f"a point must hold {width} values")
        sizes = np.fromiter(map(len, groups), np.intp, len(groups))
        points = np.fromiter(chain.from_iterable(flat), float, width * len(flat)).reshape(-1, width)
        return cls.of(np.repeat(np.arange(len(groups)), sizes), points, len(groups))

    @cached_property
    def starts(self) -> np.ndarray:
        """Each group's first row in ``points``."""
        return np.cumsum(self.sizes) - self.sizes

    def __len__(self) -> int:
        return len(self.sizes)


def eval_amdahl(a: float, b: float, p: float) -> float:
    """Strong-scaling speedup at p units: 1/((1-a) + a/p) + b."""
    return project(AmdahlFit(a, b, 0.0, 0.0, 0.0), [p])[0].speedup


def eval_gustafson(a: float, p: float) -> float:
    """Weak-scaling speedup at p units: (1-a) + a*p."""
    return project(GustafsonFit(a, 0.0, 0.0), [p])[0].speedup


def _amdahl_search(p, s, w):
    """a, b and the weighted SSR of the least-squares fit of G groups; p, s, w are (G, n).

    With b at its optimum, sum(v * (s - model)), the SSR is taken at each grid
    point; the two cells around a group's best one are then bisected on the
    sign of dSSR/da = -2 sum(r * w * (1 - 1/p) * model**2), in which b drops out.
    A group keeps its best grid point if lower. Every sum runs along one group.
    """
    w2 = w * w
    v = w2 / np.sum(w2, axis=1, keepdims=True)
    w2_ramp = w2 * (1.0 - 1.0 / p)

    def profile(a):  # the model without b, the residuals and b, at a of shape (G, 1) or ()
        f = 1.0 / ((1.0 - a) + a / p)
        d = s - f
        b = np.sum(v * d, axis=1, keepdims=True)
        return f, d - b, b

    def ssr(r):
        return np.sum((w * r) ** 2, axis=1)

    grid_ssr = np.stack([ssr(profile(a)[1]) for a in AMDAHL_GRID.tolist()], axis=1)
    best = np.argmin(grid_ssr, axis=1)
    lo = AMDAHL_GRID[np.maximum(best - 1, 0), None]
    hi = AMDAHL_GRID[np.minimum(best + 1, len(AMDAHL_GRID) - 1), None]
    for _ in range(AMDAHL_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f, r, _ = profile(mid)
        falling = np.sum(r * w2_ramp * f * f, axis=1, keepdims=True) > 0  # dSSR/da < 0
        lo, hi = np.where(falling, mid, lo), np.where(falling, hi, mid)
    # hi, the lowest a seen where the SSR stops falling, reaches a = 1 exactly.
    a = np.where(ssr(profile(hi)[1]) <= np.min(grid_ssr, axis=1), hi[:, 0], AMDAHL_GRID[best])[:, None]
    _, r, b = profile(a)
    return a[:, 0], b[:, 0], ssr(r)


def _weighted_jacobian(a, p, w) -> np.ndarray:
    """(G, n, 2) partial derivatives by a and b, each row times its weight."""
    denom = (1.0 - a) + a / p
    return np.stack((w * ((1.0 - 1.0 / p) / denom**2), w), axis=2)


def _inverse(normal: np.ndarray) -> np.ndarray:
    """The inverse of each matrix of a stack, each taken alone: a singular one gives NaN."""
    with np.errstate(all="ignore"):  # np.linalg.inv's gufunc, which flags a singular matrix invalid
        return _umath_linalg.inv(normal, signature="d->d")


#: np.linalg.lstsq's gufunc, LAPACK's dgelsd on each matrix of a stack: numpy-private, ``lstsq_n`` before numpy 2.
_LSTSQ = getattr(_umath_linalg, "lstsq", None) or _umath_linalg.lstsq_n


def _lstsq(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.lstsq(d, y, rcond=None)'s solution, rank and singular values per (n, 2) design d and row y."""
    try:
        with np.errstate(all="ignore", invalid="raise"):  # as np.linalg.lstsq
            coef, _, rank, singular = _LSTSQ(design, y[:, :, None], np.finfo(float).eps * max(design.shape[1:]),
                                             signature="ddd->ddid")
    except FloatingPointError:
        raise LinAlgError("SVD did not converge in Linear Least Squares") from None
    return coef[:, :, 0], rank, singular


def _sigmas(scale: np.ndarray, normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, 2) 1-sigma uncertainties, the sqrt of the diagonal of scale * inv(normal), and
    whether each group's variances are finite: a singular normal matrix gives NaN, and one
    whose sums underflow can give -inf, which the clamp at 0 would hide."""
    with np.errstate(over="ignore", invalid="ignore"):  # a group left not finite fails
        variance = scale[:, None] * np.diagonal(_inverse(normal), axis1=1, axis2=2)
    return np.sqrt(np.maximum(variance, 0.0)), np.isfinite(variance).all(axis=1)


#: The error of a group whose uncertainties are not finite, or would be noise.
_SINGULAR = "the fit's uncertainties are not finite: its normal matrix is singular or ill-conditioned"


def _one(results: list):
    """The fit of a batch of one group, or raise its error."""
    if isinstance(results[0], PerfcharError):
        raise results[0]
    return results[0]


def fit_amdahl(points: Iterable[tuple[float, float]]) -> AmdahlFit:
    """Fit the strong-scaling model to (p, speedup) points, residuals weighted by 1/s.

    Raises UnderdeterminedError below three distinct unit counts, and
    InvalidDataError when the normal matrix is too ill-conditioned for
    finite uncertainties.
    """
    return _one(fit_amdahl_many([points]))


def _stacks(groups, width: int) -> tuple[list, list[tuple[list[int], np.ndarray]]]:
    """A result slot per group, and stacks (input positions, (G, n, width) sorted points) by n.

    The stacks are cut from ``groups`` as a PointGroups; groups given as lists of points are made one first.
    """
    if not isinstance(groups, PointGroups):
        groups = PointGroups.from_groups(groups, width)
    stacks = []
    for n in np.unique(groups.sizes).tolist():
        index = np.flatnonzero(groups.sizes == n)
        stacks.append((index.tolist(), groups.points[groups.starts[index, None] + np.arange(n)]))
    return [None] * len(groups), stacks


def _screen(index: list[int], results: list, points: np.ndarray, model: str, least: int, checks) -> list[int]:
    """Record each group's error from the first check it fails; return the positions that pass.

    A group fails first on a point that is not finite, then on fewer than ``least`` distinct unit counts (the
    sorted first column), then on one below 1, then on each (failing groups' mask, position -> error) of ``checks``."""
    p, failed = points[:, :, 0], np.zeros(len(index), dtype=bool)
    for mask, error in [
        (~np.isfinite(points).all(axis=(1, 2)), lambda k: InvalidDataError("fit points must be finite")),
        (np.count_nonzero(p[:, 1:] != p[:, :-1], axis=1) + (p.shape[1] > 0) < least,
         lambda k: UnderdeterminedError(f"{model} fit needs >= {least} distinct p values")),
        (np.any(p < 1, axis=1), lambda k: ParameterError("unit counts must be >= 1")),
        *checks,
    ]:
        for k in np.flatnonzero(mask & ~failed).tolist():
            results[index[k]] = error(k)
        failed |= mask
    return np.flatnonzero(~failed).tolist()


def fit_amdahl_many(groups: Iterable[Iterable[tuple[float, float]]]) -> list[AmdahlFit | PerfcharError]:
    """Per group of (p, speedup) points, in input order: its AmdahlFit, or fit_amdahl's error."""
    results, stacks = _stacks(groups, 2)
    for index, ps in stacks:
        p, s = ps[:, :, 0].copy(), ps[:, :, 1].copy()
        valid = _screen(index, results, ps, "strong-scaling", 3, [
            (np.any(s <= 0, axis=1), lambda k: ParameterError("speedups must be positive")),
        ])
        if not valid:
            continue
        p, s = p[valid], s[valid]
        with np.errstate(all="ignore"):  # a group whose weights or sums under- or overflow fails below
            w = 1.0 / s
            a, b, ssr = _amdahl_search(p, s, w)
            jac = _weighted_jacobian(a[:, None], p, w)
            normal = jac.transpose(0, 2, 1) @ jac
            # np.linalg.cond raises on NaN; a group with a non-finite matrix fails on its sigmas.
            conditioned = np.linalg.cond(np.where(np.isfinite(normal), normal, 0.0)) * np.finfo(float).eps < 1
        sigma, finite = _sigmas(ssr / (p.shape[1] - 2), normal)
        for k, *values, ok in zip(valid, a.tolist(), b.tolist(), *sigma.T.tolist(), ssr.tolist(),
                                  (conditioned & finite).tolist()):
            # a is kept within [A_LOWER_BOUND, 1], so a fit with finite sigmas is a valid AmdahlFit.
            results[index[k]] = AmdahlFit(*values) if ok else InvalidDataError(_SINGULAR)
    return results


def fit_gustafson(points: Iterable[tuple[float, float]]) -> GustafsonFit:
    """Closed-form least squares for the weak-scaling model (linear in a)."""
    return _one(fit_gustafson_many([points]))


def fit_gustafson_many(groups: Iterable[Iterable[tuple[float, float]]]) -> list[GustafsonFit | PerfcharError]:
    """Per group of (p, speedup) points, in input order: its GustafsonFit, or fit_gustafson's error."""
    results, stacks = _stacks(groups, 2)
    for index, ps in stacks:
        p, s = ps[:, :, 0].copy(), ps[:, :, 1].copy()
        x = p - 1.0
        with np.errstate(all="ignore"):  # a group that overflows, or has no fit, fails below
            sxx = np.sum(x * x, axis=1)
            sxs = np.sum(x * (s - 1.0), axis=1)
            # Clamped with Python's min and max, which keep the sign of a zero.
            a = np.array([min(max(v, 0.0), 1.0) for v in (sxs / sxx).tolist()])
            resid = np.sum((s - ((1.0 - a[:, None]) + a[:, None] * p)) ** 2, axis=1)
            sigma_a = np.sqrt((resid / (p.shape[1] - 1)) / sxx)
        valid = _screen(index, results, ps, "weak-scaling", 2, [
            (~np.isfinite([sxx, sxs, resid, sigma_a]).all(axis=0), lambda k: InvalidDataError(
                f"unit counts up to p = {float(p[k][-1])!r} overflow the weak-scaling fit")),
        ])
        for k, *values in zip(valid, a[valid].tolist(), sigma_a[valid].tolist(), resid[valid].tolist()):
            results[index[k]] = GustafsonFit(*values)
    return results


def fit_mpi_shares(points: Iterable[tuple[float, float, float]]) -> MpiShareFit:
    """Fit the share decomposition to (p, lb_share_pct, com_share_pct) points.

    The load-balance share is fitted with ordinary least squares; the
    communication share is the sample mean with its standard error.
    """
    return _one(fit_mpi_shares_many([points]))


def fit_mpi_shares_many(
    groups: Iterable[Iterable[tuple[float, float, float]]],
) -> list[MpiShareFit | PerfcharError]:
    """Per group of share points, in input order: its MpiShareFit, or fit_mpi_shares's error."""
    results, stacks = _stacks(groups, 3)
    for index, pts in stacks:
        p, lb, com = (pts[:, :, j].copy() for j in range(3))
        design = np.stack((p, np.ones_like(p)), axis=2)
        with np.errstate(over="ignore", invalid="ignore"):  # a group that overflows fails below
            normal = design.transpose(0, 2, 1) @ design
            over = lb + com > 100.0
        valid = _screen(index, results, pts, "share", 3, [
            (np.any((lb < 0) | (lb > 100) | (com < 0) | (com > 100), axis=1),
             lambda k: InvalidDataError("shares must lie within [0, 100] percent")),
            (np.any(over, axis=1), lambda k: InvalidDataError(
                f"load-balance and communication shares exceed 100% at p = {p[k][over[k]].tolist()}")),
            (~np.isfinite(normal).all(axis=(1, 2)),
             lambda k: InvalidDataError(f"unit counts up to p = {float(p[k][-1])!r} overflow the share fit")),
        ])
        if not valid:
            continue
        p, lb, com, design, normal = p[valid], lb[valid], com[valid], design[valid], normal[valid]
        n = p.shape[1]
        coef, rank, _ = _lstsq(design, lb)
        a, b = coef[:, :1], coef[:, 1:]
        fitted = a * p + b
        resid = np.sum((lb - fitted) ** 2, axis=1)
        sigma, finite = _sigmas(resid / (n - 2), normal)
        finite = (finite & (rank == 2)).tolist()  # rank 1: no unique line
        c = np.mean(com, axis=1)
        outside = np.any((fitted < 0) | (fitted + c[:, None] > 100.0), axis=1).tolist()
        for k, a_k, b_k, c_k, sigma_a, sigma_b, sigma_c, res, out, bounded in zip(
            valid, *a.T.tolist(), *b.T.tolist(), c.tolist(), *sigma.T.tolist(),
            (np.std(com, ddof=1, axis=1) / math.sqrt(n)).tolist(), resid.tolist(), outside, finite,
        ):
            if not bounded:
                results[index[k]] = InvalidDataError(_SINGULAR)
            elif out:
                results[index[k]] = InvalidDataError("fitted shares leave [0, 100] percent at observed p")
            else:
                results[index[k]] = MpiShareFit(a_k, b_k, c_k, sigma_a, sigma_b, sigma_c, res)
    return results


def critical_units(
    fit: MpiShareFit, threshold_pct: float = 100.0, definition: str = "lb_only"
) -> CriticalPoint | None:
    """Smallest p where the chosen share expression reaches the threshold.

    ``lb_only`` solves a*p + b = threshold; ``lb_plus_com`` adds the constant
    communication share. Returns None when the slope is not positive (the
    share never reaches the threshold). Raises InvalidDataError when the
    point is not finite, as a subnormal slope makes it.
    """
    if definition not in ("lb_only", "lb_plus_com"):
        raise ParameterError(f"definition must be 'lb_only' or 'lb_plus_com', got {definition!r}")
    if fit.a <= 0:
        return None
    offset = fit.b if definition == "lb_only" else fit.b + fit.c
    units = (threshold_pct - offset) / fit.a
    if not math.isfinite(units):
        raise InvalidDataError(f"{definition} critical point is not finite (slope a = {fit.a!r})")
    return CriticalPoint(units)


def project(fit: AmdahlFit | GustafsonFit, p_list: Sequence[float]) -> list[ProjectionPoint]:
    """Evaluate a fitted model over unit counts, with efficiency = speedup / p."""
    units, speedup, efficiency = project_many([fit], p_list)
    return list(map(ProjectionPoint, units, speedup[0].tolist(), efficiency[0].tolist()))


def project_many(fits: Sequence[AmdahlFit | GustafsonFit], p_list: Sequence[float]):
    """The sorted unit counts, and (G, m) speedups and efficiencies of G fits over them."""
    for fit in fits:
        if not isinstance(fit, (AmdahlFit, GustafsonFit)):
            raise ParameterError(f"cannot project a {type(fit).__name__}")
    units = sorted(p_list)
    p = np.array(units, dtype=float)
    if not np.isfinite(p).all():
        raise ParameterError("unit counts must be finite")
    if np.any(p < 1):
        raise ParameterError("unit count p must be >= 1")
    a = np.array([fit.a for fit in fits], dtype=float).reshape(-1, 1)
    b = np.array([getattr(fit, "b", 0.0) for fit in fits], dtype=float).reshape(-1, 1)
    strong = np.array([isinstance(fit, AmdahlFit) for fit in fits], dtype=bool).reshape(-1, 1)
    speedup = np.where(strong, 1.0 / ((1.0 - a) + a / p) + b, (1.0 - a) + a * p)
    return units, speedup, speedup / p


def share_decomposition(t_cal: float, t_com: float, t_lb: float) -> tuple[float, float, float]:
    """Fractions of total time spent computing, communicating, and waiting.

    The three components are additive, so the returned fractions sum to one.
    """
    if min(t_cal, t_com, t_lb) < 0:
        raise ParameterError("time components must be >= 0")
    total = t_cal + t_com + t_lb
    if total <= 0:
        raise ParameterError("total time must be positive")
    return t_cal / total, t_com / total, t_lb / total


def weak_scaling_size(
    per_unit_dims: tuple[int, int, int],
    decomposition: tuple[int, int, int],
) -> WeakScalingSize:
    """Global lattice size for a per-unit block replicated over a decomposition.

    Memory is cells * LATTICE_VALUES_PER_CELL * 8 bytes (double precision).
    """
    if len(per_unit_dims) != 3 or len(decomposition) != 3:
        raise ParameterError("dims and decomposition must both have 3 components")
    if min(per_unit_dims) < 1 or min(decomposition) < 1:
        raise ParameterError("all components must be >= 1")
    global_dims = tuple(d * r for d, r in zip(per_unit_dims, decomposition))
    cells = global_dims[0] * global_dims[1] * global_dims[2]
    return WeakScalingSize(
        global_dims=global_dims,
        total_cells=cells,
        memory_bytes=cells * LATTICE_VALUES_PER_CELL * BYTES_PER_DOUBLE,
    )
