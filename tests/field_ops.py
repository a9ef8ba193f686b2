"""Spectral curl for the tests: an oracle for the field equations
dE/dt = curl B - J, dB/dt = -curl E on band-limited periodic data."""

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
