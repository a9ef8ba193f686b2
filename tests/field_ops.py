"""Spectral oracles for the tests: the curl and a dense RK4 stepper of the
field equations dE/dt = curl B - J, dB/dt = -curl E on band-limited
periodic data, and random band-limited data built in the full spectrum."""

import numpy as np

from twopoint.grid import VectorField, spectral_wavevectors


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


def dense_rk4(state, current, dt: float, nsteps: int) -> np.ndarray:
    """rfftn coefficients, shape (6, Nx, Ny, Nz // 2 + 1), of `state` after
    nsteps classical RK4 steps of every mode, stage by stage: the reference
    for the spectral engine, which steps only the active modes, each with
    RK4's stability polynomial."""
    kx, ky, kz = spectral_wavevectors(state.grid)
    jh = None
    if not current.is_zero:
        jh = np.fft.rfftn(current.spatial_profile(state.grid), axes=(-3, -2, -1))

    def rhs(u, t):
        E, B = u[:3], u[3:]
        out = np.empty_like(u)
        out[0] = 1j * (ky * B[2] - kz * B[1])
        out[1] = 1j * (kz * B[0] - kx * B[2])
        out[2] = 1j * (kx * B[1] - ky * B[0])
        out[3] = -1j * (ky * E[2] - kz * E[1])
        out[4] = -1j * (kz * E[0] - kx * E[2])
        out[5] = -1j * (kx * E[1] - ky * E[0])
        if jh is not None:
            out[:3] -= jh * current.time_factor(t)
        return out

    u = np.fft.rfftn(state.data, axes=(-3, -2, -1))
    for n in range(nsteps):
        t = state.t + n * dt
        k = rhs(u, t)
        acc = k
        k = rhs(u + (0.5 * dt) * k, t + 0.5 * dt)
        acc = acc + 2.0 * k
        k = rhs(u + (0.5 * dt) * k, t + 0.5 * dt)
        acc = acc + 2.0 * k
        k = rhs(u + dt * k, t + dt)
        u = u + (dt / 6.0) * (acc + k)
    return u


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
