"""Monte-Carlo cross-validation of the exact engine.

The delay model is simulated exactly (the OU one-step transition has a
closed form, so there is no discretization error) and the empirical
CCDF is compared cell-by-cell against the exact grid in units of the
binomial standard error.
"""

import numpy as np

from aoi_lab import (
    CorrelationMode,
    DelayModel,
    GenerationSchedule,
    LinkFunction,
    exact_ccdf_grid,
    simulate_empirical_ccdf,
)

model = DelayModel(
    link=LinkFunction("shifted-lognormal", x_min=0.5, mu_hat=0.452, s_hat=1.312),
    correlation=CorrelationMode("ou", kappa=0.081),
    schedule=GenerationSchedule(tau=2.0),
)

t_grid = np.arange(0.5, 10.5, 0.5)
x_grid = np.arange(0.2, 10.2, 0.2)
n_paths = 100_000

exact = exact_ccdf_grid(model, t_grid, x_grid, threads=2)
emp = simulate_empirical_ccdf(model, t_grid, x_grid, n_paths=n_paths, seed=11)

diff = np.abs(exact.p - emp.grid.p)
se = np.sqrt(exact.p * (1.0 - exact.p) / n_paths)
z = np.where(diff <= 1e-9, 0.0, diff / np.maximum(se, 1e-300))

print(f"{n_paths} simulated paths over a {exact.p.shape} grid")
print(f"max |z|            : {z.max():.2f}")
print(f"cells within 3 se  : {100 * np.mean(z <= 3):.2f}%")
print(f"paths with no update yet at t = 0.5: {int(emp.n_infinite[0])}")
