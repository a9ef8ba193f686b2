"""Solution-dependent nonlocal invariants for 1D first-order-in-time PDEs.

Given a solution f of df/dt + O_x f = 0 on a periodic interval and a finite
set of sample points x_i, the matrix M[k][i] = (d^k f / dt^k)(x_i, 0) of
time derivatives up to order N has a (numerical) nullspace; each null
vector alpha defines g(t) = sum_i alpha_i f(x_i, t) whose first N time
derivatives vanish at t = 0, so g drifts like t^(N+1).  For linear dynamics
confined to few Fourier modes the truncated construction is already exact.

Time derivatives are measured, not derived: short high-resolution
evolutions around t = 0 are centrally differenced on a 7-point stencil and
Richardson extrapolated, which treats nonlinear operators and linear ones
identically.  Every run steps the rfft coefficients of f with classical
RK4: an advection stage makes no transform, a Burgers or KdV stage one
irfft (f) and one rfft (f^2).  Samples are read from the coefficients
through one interpolant table per call, and only `evolve_1d` synthesises
node values, all steps in one batched irfft.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Diverged, StepTooLarge

_PDE_KINDS = ("advection", "burgers", "kdv")

# 7-point central difference stencils for d^k/dt^k and their leading error
# orders; Richardson over (tau, tau/2) doubles down on these.
_STENCILS = {
    1: (np.array([-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60]), 6),
    2: (np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90]), 6),
    3: (np.array([1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8]), 4),
    4: (np.array([-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6]), 4),
    5: (np.array([-1 / 2, 2.0, -5 / 2, 0.0, 5 / 2, -2.0, 1 / 2]), 2),
    6: (np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]), 2),
}

MAX_ORDER = 6
DRIFT_SAMPLES = 64  # samples of g(t) after t = 0 over a drift horizon


@dataclass(frozen=True)
class Pde1D:
    """Periodic 1D PDE: advection (c), viscous Burgers (nu), or KdV."""

    kind: str
    length: float = 2.0 * np.pi
    n: int = 128
    c: float = 1.0
    nu: float = 0.0

    def __post_init__(self):
        if self.kind not in _PDE_KINDS:
            raise ValueError(f"unknown pde kind {self.kind!r}")
        if self.n < 32:
            raise ValueError("resolution must be >= 32")
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError("length must be positive")
        if not (np.isfinite(self.c) and np.isfinite(self.nu)) or self.nu < 0:
            raise ValueError("parameters must be finite with nu >= 0")

    @property
    def dx(self) -> float:
        return self.length / self.n

    def nodes(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)


def _symbols(pde: Pde1D):
    """(linear, flux) with d fh/dt = linear fh + flux rfft(f^2) on the rfft
    coefficients (None for a missing term): conservative forms, so the mean
    is exact.  Odd derivatives vanish at an even n's Nyquist mode, as irfft
    drops their imaginary part there, so the field stays real."""
    k = pde.wavenumbers()
    ik = 1j * k
    if pde.n % 2 == 0:
        ik[-1] = 0.0
    if pde.kind == "advection":
        return -pde.c * ik, None
    if pde.kind == "burgers":
        return (-pde.nu * k * k if pde.nu > 0.0 else None), -0.5 * ik
    return ik * k * k, -3.0 * ik  # kdv: df/dt + 6 f f_x + f_xxx = 0


def _rhs(fh: np.ndarray, n: int, linear, flux) -> np.ndarray:
    """d fh/dt for (a multiple of) the `_symbols`: no transform for a linear
    PDE, one irfft and one rfft for a nonlinear one."""
    if flux is None:
        return linear * fh
    out = flux * np.fft.rfft(np.square(np.fft.irfft(fh, n)))
    if linear is not None:
        out += linear * fh
    return out


def suggested_max_dt(pde: Pde1D, f0: np.ndarray) -> float:
    """RK4 stability-based step bound (documented constants).

    Advective spectral eigenvalues reach |c| k_max, diffusive nu k_max^2,
    dispersive k_max^3; the RK4 stability radius is ~2.8 on both axes and
    a 0.8 safety factor is applied.
    """
    kmax = np.pi / pde.dx
    speed = max(abs(pde.c) if pde.kind == "advection" else np.max(np.abs(f0)), 1e-12)
    if pde.kind == "kdv":
        speed = 6.0 * max(np.max(np.abs(f0)), 1e-12)
        limit = 2.8 / (speed * kmax + kmax**3)
    elif pde.kind == "burgers" and pde.nu > 0.0:
        limit = 2.8 / (speed * kmax + pde.nu * kmax**2)
    else:
        limit = 2.8 / (speed * kmax)
    return 0.8 * limit


def _check_step(dt: float, limit: float):
    if abs(dt) > limit * (1.0 + 1e-12):
        raise StepTooLarge(f"|dt|={abs(dt)} exceeds suggested bound {limit}")


def _march(pde: Pde1D, f0: np.ndarray, dt, nsteps: int, every: int = 1) -> np.ndarray:
    """RK4 on the rfft coefficients of f0, one row per dt (a scalar or a
    (rows, 1) array), as y + (a + 2 (b + c) + d) / 3 with stages of h/2
    times the rate; returns the coefficients of steps 0, every, ..., nsteps.
    Raises Diverged at the first step with a sample that is not finite or
    exceeds 1e6 max(|f0|, 1): (2/n) sum |fh| bounds every sample, so only a
    step whose sum reaches half of that is synthesised to be checked."""
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != (pde.n,):
        raise ValueError(f"f0 must have shape ({pde.n},)")
    half = 0.5 * np.asarray(dt)
    n, bound = pde.n, 1e6 * max(np.max(np.abs(f0)), 1.0)
    fh = np.fft.rfft(f0) * np.ones(half.shape)
    out = np.empty((nsteps // every + 1, *fh.shape), dtype=complex)
    out[0] = fh
    with np.errstate(over="ignore", invalid="ignore"):
        linear, flux = (None if s is None else half * s for s in _symbols(pde))
        for i in range(1, nsteps + 1):
            a = _rhs(fh, n, linear, flux)
            b = _rhs(fh + a, n, linear, flux)
            c = _rhs(fh + b, n, linear, flux)
            d = _rhs(fh + 2.0 * c, n, linear, flux)
            fh = fh + (a + 2.0 * (b + c) + d) / 3.0
            if not (np.abs(fh).sum() <= 0.25 * n * bound
                    or np.abs(np.fft.irfft(fh, n)).max() <= bound):
                raise Diverged(f"solution blew up at step {i}")
            if i % every == 0:
                out[i // every] = fh
    return out


_LAST_DRIFT_RUN = {}  # at most one entry: the last drift run's exact inputs -> its spectra


def _drift_run(pde: Pde1D, f0, dt: float, nsteps: int, every: int) -> np.ndarray:
    """`_march`'s read-only sampled spectra of a drift run, kept for the last
    inputs, so drift checks of several orders on one f0 march it once; a
    run that raised is not kept."""
    f0 = np.asarray(f0, dtype=float)
    key = (pde, f0.shape, f0.tobytes(), dt, nsteps, every)
    if key not in _LAST_DRIFT_RUN:
        spectra = _march(pde, f0, dt, nsteps, every)
        spectra.flags.writeable = False
        _LAST_DRIFT_RUN.clear()
        _LAST_DRIFT_RUN[key] = spectra
    return _LAST_DRIFT_RUN[key]


def evolve_1d(pde: Pde1D, f0, dt: float, nsteps: int):
    """RK4 on the rfft coefficients (`_march`); returns (times,
    series[nsteps+1, n]), the series synthesised by one batched irfft, with
    f0 itself as row 0.  Raises StepTooLarge above the documented stability
    bound and Diverged if the solution grows past 1e6 times its initial
    amplitude."""
    _check_step(dt, suggested_max_dt(pde, np.asarray(f0, dtype=float)))
    series = np.fft.irfft(_march(pde, f0, dt, nsteps), pde.n)
    series[0] = f0
    return dt * np.arange(nsteps + 1), series


def _interpolant(pde: Pde1D, points: np.ndarray) -> np.ndarray:
    """(P, 2K) real table t with f(x_p) = sum_m t[p, m] c_m for the rfft
    coefficients c of f as (re, im) pairs: w_k exp(-i k x_p), w_k = 1/n at
    DC and (even n) Nyquist and 2/n at the modes that stand for a pair."""
    k = pde.wavenumbers()
    w = np.full(len(k), 2.0 / pde.n)
    w[[0, -1 if pde.n % 2 == 0 else 0]] = 1.0 / pde.n
    return (w * np.exp(-1j * np.multiply.outer(points, k))).view(float)


def _read(table: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """(..., P) samples of the coefficient rows (..., K): one multiply and
    sum per point, so permuting the points permutes them bit for bit."""
    return np.sum(np.ascontiguousarray(spectra).view(float)[..., None, :] * table, axis=-1)


def sample_values(pde: Pde1D, f: np.ndarray, points) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points."""
    points = np.asarray(points, dtype=float)
    samples = _read(_interpolant(pde, points.ravel()), np.fft.rfft(f))
    return samples.reshape(np.shape(f)[:-1] + points.shape)


@dataclass(eq=False)
class MomentMatrix:
    """matrix[k-1][i] = (d^k f/dt^k)(x_i) at t = 0, k = 1..order."""

    matrix: np.ndarray
    points: np.ndarray
    order: int
    extrapolation_suspect: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.matrix.shape != (self.order, len(self.points)):
            raise ValueError("moment matrix shape mismatch")
        if not np.isfinite(self.matrix).all():
            raise ValueError("moment matrix must be finite")


def time_derivative_samples(
    pde: Pde1D, f0, points, n_order: int, dt_probe: float = 0.01
) -> MomentMatrix:
    """Richardson-extrapolated central differencing of short evolutions.

    f is advanced to the 13 times j*dt_probe/2, j = -6..6, by one 2-row run
    (backward probes use a negative RK4 step; for diffusive operators the
    anti-diffusive amplification over these few fine steps is harmless at
    the probe sizes used here).  Each derivative order k = 1..n_order is
    evaluated on the 7-point stencil at spacings dt_probe and dt_probe/2 and
    extrapolated at its known leading order.  No symbolic differentiation.
    """
    if not 1 <= n_order <= MAX_ORDER:
        raise ValueError(f"n_order must be in 1..{MAX_ORDER}")
    points = np.asarray(points, dtype=float)
    half = dt_probe / 2.0
    try:
        runs = _march(pde, f0, np.array([[half], [-half]]), 6)
    except Diverged:
        raise Diverged("probe evolution blew up; reduce dt_probe") from None
    ladder = np.concatenate((runs[:0:-1, 1], runs[:, 0]))  # times -6..6 half steps
    samples = _read(_interpolant(pde, points), ladder)
    amp = max(np.max(np.abs(samples)), 1e-300)
    rows = np.empty((n_order, len(points)))
    suspect = False
    for order in range(1, n_order + 1):
        coeffs, p = _STENCILS[order]
        # elementwise multiply-sum keeps each point's column arithmetic
        # independent of the others (bit-level permutation equivariance)
        coarse = (coeffs[:, None] * samples[::2]).sum(axis=0) / dt_probe**order
        fine = (coeffs[:, None] * samples[3:10]).sum(axis=0) / half**order
        rows[order - 1] = (2.0**p * fine - coarse) / (2.0**p - 1.0)
        sig = max(np.max(np.abs(fine)), np.max(np.abs(coarse)))
        noise_floor = 64.0 * np.finfo(float).eps * amp * np.sum(np.abs(coeffs)) / half**order
        if sig > 10.0 * noise_floor and np.max(np.abs(fine - coarse)) > 0.25 * sig:
            suspect = True
    return MomentMatrix(rows, points, n_order, suspect)


@dataclass(eq=False)
class InvariantCoefficients:
    """Orthonormal nullspace basis of a moment matrix."""

    alphas: np.ndarray  # (n_invariants, P), unit rows
    points: np.ndarray

    def __len__(self):
        return len(self.alphas)


def nullspace_invariants(m: MomentMatrix, tol: float = 1e-8) -> InvariantCoefficients:
    """Right singular vectors with sigma <= tol * sigma_max.

    Rows are equilibrated to unit max-magnitude first (the kernel is
    unchanged, but high-order rows stop drowning the relative accuracy of
    low-order ones), so the tolerance and the reported numerical rank refer
    to the equilibrated matrix.  The basis size equals P minus that rank,
    exactly.  Points are sorted internally before the decomposition and the
    coefficients mapped back, so reordering the input points permutes the
    output entries bit for bit.
    """
    p = len(m.points)
    perm = np.argsort(m.points, kind="stable")
    sorted_matrix = np.ascontiguousarray(m.matrix[:, perm])
    row_scale = np.max(np.abs(sorted_matrix), axis=1, keepdims=True)
    smax = float(np.max(row_scale)) if sorted_matrix.size else 0.0
    if smax == 0.0:
        alphas_sorted = np.eye(p)
    else:
        scaled = sorted_matrix / np.where(row_scale == 0.0, 1.0, row_scale)
        _, s, vh = np.linalg.svd(scaled, full_matrices=True)
        s_full = np.zeros(p)
        s_full[: len(s)] = s
        keep = s_full <= tol * s_full[0]
        alphas_sorted = vh[keep]
    inv = np.empty_like(perm)
    inv[perm] = np.arange(p)
    return InvariantCoefficients(alphas_sorted[:, inv], m.points)


@dataclass(eq=False)
class DriftResult:
    """|g(t) - g(0)| along an evolution, with a fitted early-time exponent."""

    times: np.ndarray
    values: np.ndarray
    drift: np.ndarray
    exponent: float


def verify_invariant_drift(
    pde: Pde1D,
    f0,
    coeffs: InvariantCoefficients,
    horizon: float,
    fit_window=None,
    drift_floor: float = 1e-12,
):
    """Measure g(t) = sum_i alpha_i f(x_i, t) for every basis vector.

    Returns a list of DriftResult aligned with coeffs.alphas, each sampled
    at DRIFT_SAMPLES + 1 evenly spaced times from 0 to horizon.  The exponent
    is the log-log least-squares slope of the drift over fit_window
    (default [horizon/20, horizon/2]), restricted to samples above
    drift_floor; NaN when fewer than three samples qualify (e.g. exact
    invariants sitting at the noise floor).
    """
    dt_max = suggested_max_dt(pde, np.asarray(f0, dtype=float))
    nsteps = max(int(np.ceil(horizon / dt_max)), DRIFT_SAMPLES)
    per_sample = max(1, int(np.ceil(nsteps / DRIFT_SAMPLES)))
    nsteps = per_sample * DRIFT_SAMPLES
    dt = horizon / nsteps
    _check_step(dt, dt_max)
    times = dt * np.arange(0, nsteps + 1, per_sample)
    sampled = _read(_interpolant(pde, coeffs.points), _drift_run(pde, f0, dt, nsteps, per_sample))
    lo, hi = fit_window if fit_window is not None else (horizon / 20.0, horizon / 2.0)
    out = []
    for alpha in coeffs.alphas:
        g = sampled @ alpha
        drift = np.abs(g - g[0])
        mask = (times >= lo) & (times <= hi) & (drift > drift_floor)
        if mask.sum() >= 3:
            slope = np.polyfit(np.log(times[mask]), np.log(drift[mask]), 1)[0]
        else:
            slope = float("nan")
        out.append(DriftResult(times, g, drift, float(slope)))
    return out
