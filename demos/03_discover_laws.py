"""Rediscover two-point conservation laws from trajectory data alone.

For a fixed point map, every quadratic law is a vector of coefficients
(W, K).  Sampling the balance residual at collocation points of many short
source-free runs gives a linear system whose near-nullspace IS the space
of conservation laws.  The singular spectrum separates cleanly: law
directions sit at the time differencing noise floor, everything else
orders of magnitude above.

The rows are built at the sampled nodes only: the time derivative of each
product F_a(x) F_b(Ax) comes from the products at the node, its gradient
from the product rule on spectral gradients of the field components.  That
equals spectral differentiation of the sampled product while the products
are alias free (2 kmax < N/2, as here: kmax = 2 on 16^3); outside that
range the product rule gives the exact derivative at the nodes.
"""

from twopoint import (
    AffineMap,
    GridSpec,
    ZeroCurrent,
    discover_laws,
    evolve,
    law_inversion,
    law_local_energy,
    law_symmetry,
    random_band_limited,
)

grid = GridSpec.cube(1.0, 16)
ensemble = [
    evolve(random_band_limited(grid, seed=100 + i, kmax=2), ZeroCurrent(), 1.5e-5, 4)
    for i in range(24)
]
print(f"ensemble: {len(ensemble)} source-free trajectories on {grid.dims}")

mirror_x = AffineMap((-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
for name, amap, known in (
    ("identity", AffineMap.identity(), law_local_energy()),
    ("inversion", AffineMap.inversion(), law_inversion()),
    ("mirror x", mirror_x, law_symmetry(mirror_x)),
):
    result = discover_laws(ensemble, amap, seed=7)
    print(f"\nmap = {name}")
    print(f"  nullspace dimension : {len(result.candidates)}")
    print(f"  sigma gap           : {result.singular_gap:.2e} (smallest discarded / "
          f"largest kept, of sigma_max {result.singular_values[0]:.2e})")
    print(f"  projection of the {known.label} law: "
          f"{result.projection_of(known):.6f}")
    worst = max(c.holdout_max_r for c in result.candidates)
    print(f"  held-out max residual of candidates: {worst:.2e} "
          f"(reference {result.reference_max_r:.2e})")

print("\nEvery yardstick is one formula, law_symmetry: with E' = a^T E~ and")
print("B' = det(a) a^T B~ (B is a pseudovector), a proper map a pairs by energy,")
print("rho = E.E' + B.B', and an improper one (inversion, mirror x: the")
print("disconnected branch) by duality, rho = E.B' - B.E'.")
print("\nEach nullspace is larger than the one formula law in it.  For the")
print("identity map the extra directions are degenerate (antisymmetric W or K")
print("give identically zero density and flux).  For the inversion map they")
print("are genuine: besides the symmetrized law above there is a companion")
print("with rho = E.E~ - B.B~, plus six antisymmetric-W laws whose densities")
print("are odd under x -> -x, so their global charge vanishes identically")
print("while the pointwise balance still holds.")
