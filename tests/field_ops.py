"""Oracles for the tests: the spectral curl, the exact flow of every mode
by a dense 6 x 6 propagator and a real-space Yee leapfrog of the field
equations dE/dt = curl B - J, dB/dt = -curl E on periodic data, the
closed form of many free leapfrog steps, random band-limited data built
in the full spectrum, band-limited resampling by zero padding, a Gaussian
current's profile projected transverse by an FFT round trip, an
engine's pairing weights taken from an rfftn of real-space data, the
1D forge's RK4 stepped in real space, and discovery's collocation rows at
every node of a step."""

import numpy as np

from twopoint.discover import _rows_at
from twopoint.grid import VectorField, _mode_numbers, _wavenumbers, spectral_wavevectors
from twopoint.laws import _pulled6, _stack6


def spectral_curl(v: VectorField) -> np.ndarray:
    """Spectral curl of a vector field with periodic wrap, shape (3, Nx, Ny, Nz)."""
    kx, ky, kz = spectral_wavevectors(v.grid)
    vh = np.fft.rfftn(v.data, axes=(-3, -2, -1))
    ch = np.stack([
        1j * (ky * vh[2] - kz * vh[1]),
        1j * (kz * vh[0] - kx * vh[2]),
        1j * (kx * vh[1] - ky * vh[0]),
    ])
    return np.fft.irfftn(ch, s=v.grid.dims, axes=(-3, -2, -1))


def exact_flow(u, grid, mask, dt: float, nsteps: int, current=None, t: float = 0.0,
               points: int = 16):
    """Gathered coefficients u (6, modes) at the modes of `mask` after nsteps
    steps of dt from time t of the exact flow u' = i C u + (-J, 0) f(t), C u
    = (k x B, -k x E), each axis's k 0 at its Nyquist mode.  Per mode, the
    dense 6 x 6 C is real symmetric, so eigh gives C = Q diag(lam) Q^T, and
    e^{i tau C} = Q diag(e^{i lam tau}) Q^T.  Its eigenvalues are 0 and
    +-|k|, and are taken as exactly those, so that a free leap turns by
    nsteps (|k| dt): at 10^12 steps the rounding of that phase is 1e-4.
    A current adds, per step, its Duhamel integral by `points`-point
    Gauss-Legendre: 16, exact to rounding for the tests' currents, or 3,
    the engine's rule.  The reference for the spectral engine's steps and
    free leaps."""
    k = np.stack([np.where(2 * np.abs(n) == d, 0.0, a)[i] for n, d, a, i in
                  zip(_mode_numbers(grid.dims), grid.dims, _wavenumbers(grid.dims, grid.spacing),
                      np.nonzero(mask))])
    kx, ky, kz = k
    kappa = np.sqrt(kx * kx + ky * ky + kz * kz)
    zero = np.zeros_like(kx)
    cross = np.moveaxis(np.array([[zero, -kz, ky], [kz, zero, -kx], [-ky, kx, zero]]), -1, 0)
    c = np.zeros((len(kx), 6, 6))
    c[:, :3, 3:], c[:, 3:, :3] = cross, -cross  # cross @ v = k x v
    lam, q = np.linalg.eigh(c)
    sign = np.rint(lam / np.where(kappa == 0.0, 1.0, kappa)[:, None])

    def turn(w, phase):
        """e^{i tau C} w for the per-mode phases |k| tau."""
        return np.einsum("mab,mb,mcb,cm->am", q, np.exp(1j * sign * phase[:, None]), q, w)

    if current is None or current.is_zero:
        return turn(u, nsteps * (kappa * dt))
    jh = np.fft.rfftn(current.spatial_profile(grid), axes=(-3, -2, -1))[:, mask]
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes = 0.5 * dt * (nodes + 1.0)
    drive = [0.5 * dt * w * turn(np.concatenate((-jh, 0.0 * jh)), kappa * (dt - s))
             for s, w in zip(nodes, weights)]
    for n in range(nsteps):
        u = turn(u, kappa * dt) + sum(current.time_factor(t + n * dt + s) * d
                                      for s, d in zip(nodes, drive))
    return u


def yee_leapfrog(state, current, dt: float, nsteps: int) -> np.ndarray:
    """Node-collocated data, shape (6, Nx, Ny, Nz), of `state` after
    nsteps >= 1 Yee leapfrog steps of every node, done in real space with
    periodic np.roll stencils: the reference for the Yee engine, which
    applies each stencil as its Fourier symbol on the active modes."""
    h = state.grid.spacing
    e_axes, b_axes = ((0,), (1,), (2,)), ((1, 2), (0, 2), (0, 1))

    def half_cell(f, axis, up):
        # 4th-order interpolation from the nodes to i + 1/2 (up) or back
        if up:
            return (-np.roll(f, 1, axis) + 9.0 * f + 9.0 * np.roll(f, -1, axis)
                    - np.roll(f, -2, axis)) / 16.0
        return (-np.roll(f, 2, axis) + 9.0 * np.roll(f, 1, axis) + 9.0 * f
                - np.roll(f, -1, axis)) / 16.0

    def stagger(v, axes_per_comp, up):
        out = []
        for comp, axes in zip(v, axes_per_comp):
            for axis in axes:
                comp = half_cell(comp, axis, up)
            out.append(comp)
        return np.stack(out)

    def dplus(f, axis):
        return (np.roll(f, -1, axis) - f) / h[axis]

    def dminus(f, axis):
        return (f - np.roll(f, 1, axis)) / h[axis]

    def curl(v, d):
        return np.stack([d(v[2], 1) - d(v[1], 2), d(v[0], 2) - d(v[2], 0),
                         d(v[1], 0) - d(v[0], 1)])

    e = stagger(state.data[:3], e_axes, True)
    bh = stagger(state.data[3:], b_axes, True) + 0.5 * dt * curl(e, dplus)  # B(t - dt/2)
    j = None if current.is_zero else stagger(current.spatial_profile(state.grid), e_axes, True)
    for n in range(nsteps):
        bh = bh - dt * curl(e, dplus)
        de = curl(bh, dminus)
        if j is not None:
            de = de - j * current.time_factor(state.t + (n + 0.5) * dt)
        e = e + dt * de
    b = bh - 0.5 * dt * curl(e, dplus)  # B averaged to the whole step
    return np.concatenate([stagger(e, e_axes, False), stagger(b, b_axes, False)])


def _curl(d, v):
    return np.cross(d, v, axis=0)


def leapfrog_power(u, grid, mask, dt: float, steps: int) -> np.ndarray:
    """Staggered coefficients u (6, modes) of (E, B(t - dt/2)) at the modes
    of `mask` after `steps` free leapfrog steps B -= curl+ E, E += curl- B,
    in the Chebyshev form L u + cos(p theta) v + sin(p theta)/sin(theta)
    (M - cos(theta)) v.  The step M keeps the longitudinal part L u (E
    along d+, B along d-) and turns the rest v = u - L u by theta, cos(theta)
    = 1 - s/2 for s = sum |dt d+|^2, where (M - cos(theta)) v = (curl- v_B -
    s/2 v_E, s/2 v_B - curl+ v_E).  The reference for the Yee engine's free
    leaps."""
    z = np.stack([np.exp(2j * np.pi * n / d)[i] for n, d, i in
                  zip(_mode_numbers(grid.dims), grid.dims, np.nonzero(mask))])
    dth = dt / np.reshape(grid.spacing, (3, 1))
    dp, dm = dth * (z - 1.0), dth * (1.0 - 1.0 / z)
    s = np.sum(dp.real**2 + dp.imag**2, axis=0)
    mean = s == 0.0
    s[mean] = 1.0
    lu = np.concatenate((dp * np.sum(dm * u[:3], axis=0),
                         dm * np.sum(dp * u[3:], axis=0))) / -s  # d- . d+ = -s
    lu[:, mean] = u[:, mean]
    v, half = u - lu, 0.5 * s
    nv = np.concatenate((_curl(dm, v[3:]) - half * v[:3], half * v[3:] - _curl(dp, v[:3])))
    theta = 2.0 * np.arcsin(np.sqrt(0.5 * half))
    return lu + np.cos(steps * theta) * v + np.sin(steps * theta) / np.sin(theta) * nv


def full_spectrum_band_limited(grid, seed, kmax=2, amplitude=1.0, mean_b=(0.0, 0.0, 0.0)):
    """Data array of `random_band_limited` built the long way: every mode and
    its conjugate placed in a full complex (6, Nx, Ny, Nz) spectrum, then one
    complex ifftn, with the same draws, projection and scaling."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = np.zeros((6, *grid.dims), dtype=complex)
    for nx in range(-kmax, kmax + 1):
        for ny in range(-kmax, kmax + 1):
            for nz in range(-kmax, kmax + 1):
                n = (nx, ny, nz)
                if n == (0, 0, 0):
                    continue
                coeff = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                khat = np.asarray(n, dtype=float)
                khat /= np.linalg.norm(khat)
                for block in (0, 3):
                    c = coeff[block : block + 3]
                    coeff[block : block + 3] = c - (c @ khat) * khat
                spec[(slice(None), *(m % d for m, d in zip(n, grid.dims)))] += coeff
                spec[(slice(None), *(-m % d for m, d in zip(n, grid.dims)))] += np.conj(coeff)
    data = np.real(np.fft.ifftn(spec, axes=(-3, -2, -1)))
    energy = np.sum(data * data) * grid.cell_volume
    if energy > 0.0:
        data *= amplitude / np.sqrt(energy)
    data[3:] += np.reshape(mean_b, (3, 1, 1, 1))
    return data


def zero_padded_refine(data, grid, fine):
    """Samples on `fine` of the band-limited (Nx, Ny, Nz) array `data` on
    the coarser `grid` of the same box, the long way: its rfftn copied into
    a zero rfftn array of `fine` (modes at or above half of the coarse node
    count dropped), then one irfftn over every fine node.  The reference
    for `grid._refine`, which synthesises only the coarse modes' block."""
    fh = np.fft.rfftn(data)
    out = np.zeros((*fine.dims[:2], fine.dims[2] // 2 + 1), dtype=complex)
    src, dst = [], []
    for modes, m, n in zip(_mode_numbers(grid.dims), grid.dims, fine.dims):
        keep = np.flatnonzero(2 * np.abs(modes) < m)
        src.append(keep)
        dst.append(modes[keep] % n)
    out[np.ix_(*dst)] = fh[np.ix_(*src)] * (fine.num_nodes / grid.num_nodes)
    return np.fft.irfftn(out, s=fine.dims, axes=(0, 1, 2))


def projected_gaussian(current, grid) -> np.ndarray:
    """(3, Nx, Ny, Nz) profile of a GaussianPulseCurrent, the long way: each
    component of polarization * bump sampled on the nodes, its rfftn
    projected transverse to k, then one irfftn.  The reference for the
    current's `modes` and `spatial_profile`, which transform the bump once
    and make the projected spectrum that of a real profile directly."""
    r2 = np.zeros(grid.dims)
    for x, c, L in zip(grid.meshgrid(), current.center, grid.lengths):
        d = np.remainder(x - c + 0.5 * L, L) - 0.5 * L
        r2 += d * d
    bump = np.exp(-r2 / (2.0 * current.width**2))
    vh = np.fft.rfftn(np.stack([p * bump for p in current.polarization]), axes=(-3, -2, -1))
    kx, ky, kz = spectral_wavevectors(grid)
    k2 = kx**2 + ky**2 + kz**2
    kdotv = (kx * vh[0] + ky * vh[1] + kz * vh[2]) / np.where(k2 == 0.0, 1.0, k2)
    vh = np.stack([vh[0] - kx * kdotv, vh[1] - ky * kdotv, vh[2] - kz * kdotv])
    return np.fft.irfftn(vh, s=grid.dims, axes=(-3, -2, -1))


def forge_rhs(pde, f):
    """df/dt of the samples f of a forge PDE, round-tripping through rfft
    and irfft: conservative forms, so the mean is exact."""
    k = pde.wavenumbers()
    fh = np.fft.rfft(f)
    if pde.kind == "advection":
        return np.fft.irfft(-1j * k * pde.c * fh, n=pde.n)
    if pde.kind == "burgers":
        out = np.fft.irfft(-1j * k * np.fft.rfft(0.5 * f * f), n=pde.n)
        if pde.nu > 0.0:
            out += np.fft.irfft(-pde.nu * k * k * fh, n=pde.n)
        return out
    # kdv: df/dt + 6 f f_x + f_xxx = 0
    return np.fft.irfft(-1j * k * np.fft.rfft(3.0 * f * f) + 1j * k**3 * fh, n=pde.n)


def forge_rk4(pde, f0, dt: float, nsteps: int):
    """(series[nsteps + 1, n], first blown-up step or None) of classical
    RK4 on the samples with `forge_rhs`, stopped at the first step whose
    samples are not finite or exceed 1e6 max(|f0|, 1): the reference for
    `forge.evolve_1d`, which steps the rfft coefficients."""
    scale = max(np.max(np.abs(f0)), 1.0)
    series = [np.asarray(f0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, nsteps + 1):
            f = series[-1]
            k1 = forge_rhs(pde, f)
            k2 = forge_rhs(pde, f + 0.5 * dt * k1)
            k3 = forge_rhs(pde, f + 0.5 * dt * k2)
            k4 = forge_rhs(pde, f + dt * k3)
            f = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(f).all() or np.max(np.abs(f)) > 1e6 * scale:
                return np.array(series), i
            series.append(f)
    return np.array(series), None


def scattered_snapshot(engine, grid) -> np.ndarray:
    """(6, Nx, Ny, Nz) samples of an engine's current step on `grid` (its own
    or its analysis grid), made eagerly: the collocated coefficients times
    the layout's scale, scattered into a zero rfftn array of `grid`, then one
    irfftn.  The reference for the lazy states of `SpectralEngine.state`."""
    index, scale = engine._layout[grid]
    nx, ny, nz = grid.dims
    out = np.zeros((6, nx * ny * (nz // 2 + 1)), dtype=complex)
    out[:, index] = engine._nodes() * scale
    return np.fft.irfftn(out.reshape(6, nx, ny, nz // 2 + 1), s=grid.dims, axes=(-3, -2, -1))


def whole_grid_rows(traj, amap, m, n):
    """Discovery's collocation rows (nodes, 144) at every node of interior
    step n, in node order, the long way: F and F~ (F at step i + m pulled
    back along the map, `laws._pulled6`) on the whole grid at steps n - 1,
    n + 1 and n, and the gradient of both at n by one spectral
    differentiation matrix per axis.  The reference for discovery's rows,
    which read F and F~ at sampled nodes only."""
    grid = traj.grid

    def fields(i):
        return np.concatenate([_stack6(traj.states[i]), _pulled6(traj.states[i + m], amap)])

    now = fields(n)
    grads = []
    for axis, (size, h) in enumerate(zip(grid.dims, grid.spacing)):
        k = 2.0 * np.pi * np.fft.rfftfreq(size, d=h)
        d = np.fft.irfft(1j * k[:, None] * np.fft.rfft(np.eye(size), axis=0), size, axis=0)
        grads.append(np.moveaxis(np.tensordot(d, now, axes=(1, axis + 1)), 0, axis + 1))
    flat = [x.reshape(*x.shape[:-3], -1) for x in (fields(n - 1), fields(n + 1), now,
                                                    np.stack(grads))]
    return _rows_at(flat, traj.dt)
