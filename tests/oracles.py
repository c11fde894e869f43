"""Test-only oracles for Gaussian orthant probabilities: the closed forms
of the independent and fully-frozen limits, and a plain Monte-Carlo
estimator over the chain's covariance matrix as an independent
cross-check of the stagewise engine."""

import numpy as np

from aoi_lab.errors import EvaluationError
from aoi_lab.orthant import std_normal_tail


def orthant_iid(a) -> float:
    """Product-form tail probability for independent standard normals."""
    return float(np.prod(std_normal_tail(a)))


def orthant_frozen(a) -> float:
    """Tail probability when all coordinates are the same normal draw."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 1.0
    return float(std_normal_tail(np.max(a)))


def ou_covariance(rho: float, n: int) -> np.ndarray:
    """Covariance matrix rho**|i-j| of n consecutive samples of the chain."""
    lags = np.arange(n)
    return float(rho) ** np.abs(lags[:, None] - lags[None, :])


def mvn_orthant_mc(
    cov: np.ndarray,
    a,
    n_samples: int,
    seed: int,
    chunk: int = 1 << 17,
) -> tuple[float, float]:
    """Monte-Carlo estimate of Pr(Z > a componentwise) for Z ~ N(0, cov).

    Returns (estimate, binomial standard error).  Deterministic given the
    seed; the covariance may be singular (tolerance-clipped eigenfactor).
    """
    a = np.asarray(a, dtype=float)
    sigma = np.asarray(cov, dtype=float)
    if a.shape != (sigma.shape[0],):
        raise ValueError("threshold vector length must match covariance size")
    w, v = np.linalg.eigh(sigma)
    if w.min() < -1e-8 * max(w.max(), 1.0):
        raise EvaluationError(
            f"covariance matrix is indefinite (min eigenvalue {w.min():.3e})"
        )
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    remaining = int(n_samples)
    while remaining > 0:
        k = min(chunk, remaining)
        z = rng.standard_normal((k, a.size)) @ factor.T
        hits += int(np.all(z > a, axis=1).sum())
        remaining -= k
    p = hits / n_samples
    return p, float(np.sqrt(p * (1.0 - p) / n_samples))
