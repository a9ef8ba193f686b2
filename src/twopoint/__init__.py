"""Maxwell field simulation and nonlocal two-point conservation laws.

The package simulates the source-driven Maxwell system on periodic grids,
evaluates quadratic "two-point" conserved densities that pair the field at
x with its value at an affinely mapped point (and possibly a later time),
verifies the corresponding balance laws to quantified tolerance, discovers
new laws numerically from trajectory ensembles, and builds solution-
dependent nonlocal invariants for 1D first-order-in-time PDEs.
"""

from .errors import (
    ConfigError,
    Diverged,
    GridMismatch,
    HistoryUnderflow,
    InsufficientData,
    InvalidMap,
    InvalidWavenumber,
    NotARotation,
    StepTooLarge,
    TwoPointError,
)
from .grid import (
    AffineMap,
    FieldState,
    GridSpec,
    ScalarField,
    VectorField,
    divergence,
    pullback,
    volume_integral,
)
from .maxwell import (
    CurrentSpec,
    GaussianPulseCurrent,
    PlaneWaveCurrent,
    Trajectory,
    UniformOscillating,
    ZeroCurrent,
    cfl_max_dt,
    evolve,
)
from .waves import (
    PlaneWaveSpec,
    plane_wave,
    random_band_limited,
    standing_wave,
    twopoint_energy_analytic,
)
from .laws import (
    BalanceReport,
    TwoPointLawSpec,
    density,
    flux,
    law_inversion,
    law_local_energy,
    law_rotation,
    law_symmetry,
    law_translation,
    load_law,
    residual,
    run_balance,
    save_law,
    source_power,
)
from .discover import Candidate, DiscoveryResult, discover_laws
from .forge import (
    DriftResult,
    InvariantCoefficients,
    MomentMatrix,
    Pde1D,
    evolve_1d,
    nullspace_invariants,
    sample_values,
    time_derivative_samples,
    verify_invariant_drift,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
