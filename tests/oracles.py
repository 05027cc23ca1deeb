"""Reference forms that only tests call.

The weighted polynomial fit from explicit sample arrays is what the running
moments of `depthcal.maps.FitMoments` stand in for: the same normal
equations, summed over stored samples, with the condition number taken from
an SVD. The moment solve is checked against it.
"""

import numpy as np

from depthcal.maps import FitMoments, MapError, PolyFn


def _design_columns(z, degree, constant_zero):
    powers = range(1 if constant_zero else 0, degree + 1)
    return np.stack([z ** p for p in powers], axis=-1)


def fit_weighted_poly_batch(z, z_pi, mask, nm, degree, constant_zero, cond_limit=1e12):
    """Weighted polynomial fits for many sample sets at once.

    z, z_pi, mask: (G, N) arrays; masked-out entries are ignored. Returns
    (coeffs (G, degree+1), ok (G,)) where ok is False for sets that are
    underdetermined or numerically singular; their coefficient rows are 0.
    """
    z = np.asarray(z, dtype=float)
    z_pi = np.asarray(z_pi, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    ncoef = degree if constant_zero else degree + 1
    zs = np.where(mask, z, 1.0)  # placeholder value, zero weight below
    sigma = nm.sigma(zs)
    w = np.where(mask, 1.0 / (sigma * sigma), 0.0)
    phi = _design_columns(zs, degree, constant_zero)  # (G, N, ncoef)
    wphi = phi * w[..., None]
    normal = np.einsum("gnk,gnl->gkl", wphi, phi)
    rhs = np.einsum("gnk,gn->gk", wphi, np.where(mask, z_pi, 0.0))
    counts = mask.sum(axis=1)
    ok = counts >= ncoef
    coeffs = np.zeros((z.shape[0], degree + 1))
    if np.any(ok):
        cond = np.full(z.shape[0], np.inf)
        cond[ok] = np.linalg.cond(normal[ok])
        ok = ok & (cond < cond_limit)
        if np.any(ok):
            sol = np.linalg.solve(normal[ok], rhs[ok][..., None])[..., 0]
            coeffs[np.nonzero(ok)[0], (1 if constant_zero else 0):] = sol
    return coeffs, ok


def fit_weighted_poly(samples, nm, degree, constant_zero=False) -> PolyFn:
    """Fit one polynomial minimizing sum (f(z) - z_pi)^2 / sigma^2(z).

    `samples` is a (z, z_pi) pair of arrays. Raises MapError when the
    samples do not determine the fit.
    """
    z, z_pi = (np.asarray(a, dtype=float) for a in samples)
    ncoef = degree if constant_zero else degree + 1
    if z.size < ncoef:
        raise MapError(f"need at least {ncoef} samples for degree {degree}")
    coeffs, ok = fit_weighted_poly_batch(z[None, :], z_pi[None, :],
                                         np.ones((1, z.size), dtype=bool),
                                         nm, degree, constant_zero)
    if not ok[0]:
        raise MapError("singular normal matrix (samples do not determine the fit)")
    return PolyFn(tuple(coeffs[0]), constant_zero)


def moments_of(z, z_pi, nm, degree):
    """A one-pixel FitMoments state holding the samples (z[k], z_pi[k])."""
    moments = FitMoments((1, 1), degree)
    for zk, zpk in zip(np.asarray(z, dtype=float), np.asarray(z_pi, dtype=float)):
        moments.add(np.array([0]), np.array([zk]), np.array([zpk]), nm)
    return moments
