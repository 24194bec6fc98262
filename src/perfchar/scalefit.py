"""Scaling-law fitting and projection.

Three models cover the measured regimes:

* strong scaling: ``s(p) = 1/((1-a) + a/p) + b`` where ``a`` is the parallel
  fraction and ``b`` approximates a constant parallelization overhead;
* weak scaling: ``s(p) = (1-a) + a*p``;
* MPI-time decomposition: the load-balance share of total time follows a line
  ``a*p + b`` (percent) while the communication share stays constant at ``c``.

The strong-scaling fit is a damped Gauss-Newton (Levenberg-Marquardt style)
loop with analytic partial derivatives, started at ``AMDAHL_START`` and run
for at most ``AMDAHL_MAX_ITER`` iterations. Speedup measurements carry roughly
constant *relative* error, so residuals are weighted by 1/s; with that
weighting the reported 1-sigma uncertainties (covariance at the optimum,
scaled by reduced chi-square) are calibrated. The weak-scaling and share
models are linear and solved in closed form.

Each ``*_many`` function fits many groups, those with the same number of
points together as stacked arrays, and ``project_many`` evaluates many fits;
each group's result is bit-identical to fitting it alone, and the one-group
functions are the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import (
    ConvergenceError,
    InvalidDataError,
    ParameterError,
    PerfcharError,
    UnderdeterminedError,
)

A_LOWER_BOUND = 1e-6  # open lower end of the parallel fraction's domain

#: The strong-scaling fit: its start (a, b), iteration cap and stopping tolerance
#: on the step norm and on the SSR gain.
AMDAHL_START = (0.9, 0.0)
AMDAHL_MAX_ITER = 200
AMDAHL_TOL = 1e-13

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


def eval_amdahl(a: float, b: float, p: float) -> float:
    """Strong-scaling speedup at p units: 1/((1-a) + a/p) + b."""
    return project(AmdahlFit(a, b, 0.0, 0.0, 0.0), [p])[0].speedup


def eval_gustafson(a: float, p: float) -> float:
    """Weak-scaling speedup at p units: (1-a) + a*p."""
    return project(GustafsonFit(a, 0.0, 0.0), [p])[0].speedup


_DIAG = np.arange(2)  # index of the diagonal of a 2x2 matrix
_DAMPING_TRIES = 40  # rejected damping levels after which a fit is at a local optimum


def _weighted_residuals(a, b, p, s, w) -> np.ndarray:
    """w * (s - model) for G groups: a, b of shape (G, 1); p, s, w of shape (G, n)."""
    return w * (s - (1.0 / ((1.0 - a) + a / p) + b))


def _ssr(a, b, p, s, w) -> np.ndarray:
    return np.sum(_weighted_residuals(a, b, p, s, w) ** 2, axis=1)


def _weighted_jacobian(a, p, w, ramp) -> np.ndarray:
    """(G, n, 2) partial derivatives by a and b, each row times its weight.

    ``ramp`` is 1 - 1/p, which does not change while a group is fitted.
    """
    denom = (1.0 - a) + a / p
    return np.stack((w * (ramp / denom**2), w), axis=2)


def _stacked(routine, *stacks) -> np.ndarray:
    """Apply a numpy.linalg routine to a stack of matrices.

    numpy raises for the whole stack when one matrix is singular. Then each
    matrix is taken alone, so one group never changes another's result, and
    a singular one gives NaN.
    """
    try:
        return routine(*stacks)
    except np.linalg.LinAlgError:
        pass
    results = []
    for args in zip(*stacks):
        try:
            results.append(routine(*args))
        except np.linalg.LinAlgError:
            results.append(np.full_like(args[-1], np.nan))
    return np.array(results)


def _levenberg_marquardt(p, s, w):
    """Damped Gauss-Newton on G groups of n points at once; p, s, w are (G, n).

    Every group takes the steps, damping changes and exits it would take if
    fitted alone, through the same floating-point operations. Returns a, b,
    the weighted SSR and a converged mask, each of shape (G,).
    """
    count = len(p)
    a = np.full(count, AMDAHL_START[0])
    b = np.full(count, AMDAHL_START[1])
    lam = np.full(count, 1e-3)
    ssr = _ssr(a[:, None], b[:, None], p, s, w)
    ramp = 1.0 - 1.0 / p
    converged = np.zeros(count, dtype=bool)
    live = np.arange(count)  # groups still iterating
    for _ in range(AMDAHL_MAX_ITER):
        if not live.size:
            break
        a_live, p_live, w_live = a[live, None], p[live], w[live]
        jac = _weighted_jacobian(a_live, p_live, w_live, ramp[live])
        jt = jac.transpose(0, 2, 1)
        jtj = jt @ jac
        grad = jt @ _weighted_residuals(a_live, b[live, None], p_live, s[live], w_live)[:, :, None]
        scale = np.zeros_like(jtj)
        scale[:, _DIAG, _DIAG] = jtj[:, _DIAG, _DIAG]
        step = np.empty((live.size, 2, 1))
        improvement = np.empty(live.size)
        todo = np.arange(live.size)  # positions in live still looking for a step that helps
        for _ in range(_DAMPING_TRIES):
            g = live[todo]
            # A singular system gives a NaN step, which is rejected like any
            # step that does not lower the SSR: lam grows tenfold.
            trial = _stacked(np.linalg.solve, jtj[todo] + lam[g, None, None] * scale[todo], grad[todo])
            a_new = np.minimum(np.maximum(a[g] + trial[:, 0, 0], A_LOWER_BOUND), 1.0)
            b_new = b[g] + trial[:, 1, 0]
            ssr_new = _ssr(a_new[:, None], b_new[:, None], p[g], s[g], w[g])
            better = ssr_new <= ssr[g]
            lam[g] = np.where(better, np.maximum(lam[g] / 10.0, 1e-12), lam[g] * 10.0)
            kept, at = g[better], todo[better]
            improvement[at] = ssr[kept] - ssr_new[better]
            a[kept], b[kept], ssr[kept] = a_new[better], b_new[better], ssr_new[better]
            step[at] = trial[better]
            todo = todo[~better]
            if not todo.size:
                break
        # Groups left in todo found no damping level that improves the fit:
        # they are at a local optimum. The others stop on a small step or gain.
        moved = np.ones(live.size, dtype=bool)
        moved[todo] = False
        stop = ~moved
        taken = step[moved]
        norm = np.sqrt(taken.transpose(0, 2, 1) @ taken)[:, 0, 0]
        stop[moved] = (norm < AMDAHL_TOL) | (improvement[moved] < AMDAHL_TOL * (1.0 + ssr[live[moved]]))
        converged[live[stop]] = True
        live = live[~stop]
    return a, b, ssr, converged


def _sigmas(scale: np.ndarray, normal: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """(G, 2) 1-sigma uncertainties, the sqrt of the diagonal of scale * inv(normal), and
    whether each group's variances are finite: a singular normal matrix gives NaN, and one
    whose sums underflow can give -inf, which the clamp at 0 would hide."""
    with np.errstate(over="ignore", invalid="ignore"):  # a group left not finite fails
        variance = (scale[:, None, None] * _stacked(np.linalg.inv, normal))[:, _DIAG, _DIAG]
    return np.sqrt(np.maximum(variance, 0.0)), np.isfinite(variance).all(axis=1).tolist()


#: The error of a group whose uncertainties _sigmas finds not finite.
_SINGULAR = "the fit's uncertainties are not finite: its normal matrix is singular or ill-conditioned"


def _one(results: list):
    """The fit of a batch of one group, or raise its error."""
    if isinstance(results[0], PerfcharError):
        raise results[0]
    return results[0]


def fit_amdahl(points: Iterable[tuple[float, float]]) -> AmdahlFit:
    """Fit the strong-scaling model to (p, speedup) points, residuals weighted by 1/s.

    Raises UnderdeterminedError below three distinct p values and
    ConvergenceError (carrying the best iterate) if the loop exhausts
    ``AMDAHL_MAX_ITER`` iterations.
    """
    return _one(fit_amdahl_many([points]))


def _stacks(groups, width: int) -> tuple[list, list[tuple[list[int], np.ndarray]]]:
    """A result slot per group, and stacks (input positions, (G, n, width) sorted points) by n."""
    groups = [sorted(points) for points in groups]
    sizes: dict[int, list[int]] = {}
    for i, pts in enumerate(groups):
        sizes.setdefault(len(pts), []).append(i)
    return [None] * len(groups), [
        (index, np.array([groups[i] for i in index], dtype=float).reshape(len(index), n, width))
        for n, index in sorted(sizes.items())
    ]


def _screen(index: list[int], results: list, points: np.ndarray, checks) -> list[int]:
    """Record each group's error from the first check it fails; return the positions that pass.

    A point that is not finite fails first, then each (mask of failing groups,
    position -> error) pair of ``checks`` in turn.
    """
    failed = np.zeros(len(index), dtype=bool)
    finite = np.isfinite(points).all(axis=(1, 2))
    for mask, error in [(~finite, lambda k: InvalidDataError("fit points must be finite")), *checks]:
        for k in np.flatnonzero(mask & ~failed).tolist():
            results[index[k]] = error(k)
        failed |= mask
    return np.flatnonzero(~failed).tolist()


def _distinct(p: np.ndarray) -> np.ndarray:
    """Number of distinct values in each row of sorted unit counts."""
    return np.count_nonzero(p[:, 1:] != p[:, :-1], axis=1) + (p.shape[1] > 0)


def fit_amdahl_many(groups: Iterable[Iterable[tuple[float, float]]]) -> list[AmdahlFit | PerfcharError]:
    """Per group of (p, speedup) points, in input order: its AmdahlFit, or fit_amdahl's error."""
    results, stacks = _stacks(groups, 2)
    for index, ps in stacks:
        p, s = ps[:, :, 0].copy(), ps[:, :, 1].copy()
        valid = _screen(index, results, ps, [
            (_distinct(p) < 3,
             lambda k: UnderdeterminedError("strong-scaling fit needs >= 3 distinct p values")),
            (np.any(p < 1, axis=1), lambda k: ParameterError("unit counts must be >= 1")),
            (np.any(s <= 0, axis=1), lambda k: ParameterError("speedups must be positive")),
        ])
        p, s = p[valid], s[valid]
        w = 1.0 / s
        a, b, ssr, converged = _levenberg_marquardt(p, s, w)
        jac = _weighted_jacobian(a[:, None], p, w, 1.0 - 1.0 / p)
        sigma, finite = _sigmas(ssr / (p.shape[1] - 2), jac.transpose(0, 2, 1) @ jac)
        for k, *values, ok, bounded in zip(valid, a.tolist(), b.tolist(), *sigma.T.tolist(), ssr.tolist(),
                                           converged.tolist(), finite):
            # a is kept within [A_LOWER_BOUND, 1], so a fit with finite sigmas is a valid AmdahlFit.
            if not bounded:
                results[index[k]] = InvalidDataError(_SINGULAR)
                continue
            fit = AmdahlFit(*values)
            results[index[k]] = fit if ok else ConvergenceError(
                f"strong-scaling fit did not converge within {AMDAHL_MAX_ITER} iterations", best_fit=fit
            )
    return results


def fit_gustafson(points: Iterable[tuple[float, float]]) -> GustafsonFit:
    """Closed-form least squares for the weak-scaling model (linear in a)."""
    return _one(fit_gustafson_many([points]))


def fit_gustafson_many(groups: Iterable[Iterable[tuple[float, float]]]) -> list[GustafsonFit | PerfcharError]:
    """Per group of (p, speedup) points, in input order: its GustafsonFit, or fit_gustafson's error."""
    results, stacks = _stacks(groups, 2)
    for index, ps in stacks:
        p, s = ps[:, :, 0].copy(), ps[:, :, 1].copy()
        valid = _screen(index, results, ps, [
            (_distinct(p) < 2,
             lambda k: UnderdeterminedError("weak-scaling fit needs >= 2 distinct p values")),
            (np.any(p < 1, axis=1), lambda k: ParameterError("unit counts must be >= 1")),
        ])
        p, s = p[valid], s[valid]
        x = p - 1.0
        sxx = np.sum(x * x, axis=1)
        # Clamped with Python's min and max, which keep the sign of a zero.
        a = np.array([min(max(v, 0.0), 1.0) for v in (np.sum(x * (s - 1.0), axis=1) / sxx).tolist()])
        resid = np.sum((s - ((1.0 - a[:, None]) + a[:, None] * p)) ** 2, axis=1)
        sigma_a = np.sqrt((resid / (p.shape[1] - 1)) / sxx)
        for k, *values in zip(valid, a.tolist(), sigma_a.tolist(), resid.tolist()):
            try:
                results[index[k]] = GustafsonFit(*values)
            except ParameterError as exc:
                results[index[k]] = exc
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
        valid = _screen(index, results, pts, [
            (_distinct(p) < 3,
             lambda k: UnderdeterminedError("share fit needs >= 3 distinct p values")),
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
        # numpy's lstsq takes no stack of matrices, so it runs once per group.
        coef = np.array([np.linalg.lstsq(d, y, rcond=None)[0] for d, y in zip(design, lb)])
        a, b = coef[:, :1], coef[:, 1:]
        fitted = a * p + b
        resid = np.sum((lb - fitted) ** 2, axis=1)
        sigma, finite = _sigmas(resid / (n - 2), normal)
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
