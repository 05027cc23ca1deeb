"""Depth correction maps.

Two families of per-pixel depth corrections, both built from low-degree
polynomials of the depth:

* UndistortionMap: a binned grid of control polynomials; every other pixel
  blends its 4 surrounding control functions bilinearly. Removes the local,
  per-pixel distortion that makes flat surfaces look curved.
* GlobalMap: one polynomial per image corner, with the fourth corner locked
  to gWH = gW0 + g0H - g00 so the blended coefficient field stays affine
  over the image. Removes the systematic depth bias.

Maps are immutable after estimation; application is embarrassingly parallel
per pixel and may be called concurrently on a shared map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DepthImage, NoiseModel, OrganizedCloud

MAX_DEGREE = 4


class MapError(ValueError):
    """Raised on inconsistent map construction or application."""


@dataclass(frozen=True)
class PolyFn:
    """Polynomial of the depth, meters -> meters, degree <= 4.

    `constant_zero` pins the constant term to exactly 0 (used by the global
    map so a pure depth shift cannot masquerade as a sensor translation).
    """

    coefficients: tuple
    constant_zero: bool = False

    def __init__(self, coefficients, constant_zero=False):
        coeffs = tuple(float(c) for c in coefficients)
        if not 1 <= len(coeffs) <= MAX_DEGREE + 1:
            raise MapError("polynomial degree must be between 0 and 4")
        if constant_zero and coeffs[0] != 0.0:
            raise MapError("constant_zero polynomial must have a zero constant term")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "constant_zero", bool(constant_zero))

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @staticmethod
    def identity(degree=1, constant_zero=False):
        coeffs = [0.0, 1.0] + [0.0] * (degree - 1)
        return PolyFn(tuple(coeffs[:degree + 1]), constant_zero)

    def __call__(self, z):
        return poly_eval(self, z)


def poly_eval(f: PolyFn, z):
    """Horner evaluation; accepts scalars or arrays."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for c in reversed(f.coefficients):
        out = out * z + c
    return float(out) if out.ndim == 0 else out


class FitMoments:
    """Running weighted moments of the (z, z_pi) samples of a grid of control pixels.

    Each control polynomial is a weighted linear least-squares fit, so its
    normal equations are sums over samples. Per control pixel this keeps
    sum w z^p for p <= 2 * degree and sum w z^p z_pi for p <= degree, with
    w = 1 / sigma(z)^2, plus the sample count and the running depth range for
    the spread gates. Fits of any degree up to `degree` read these sums; the
    samples themselves are not kept.

    Arrays are indexed by (grid row, grid column); `add` takes flat control
    indices j * gw + i.
    """

    __slots__ = ("degree", "zpow", "zpi", "count", "zmin", "zmax")

    def __init__(self, grid_shape, degree):
        gh, gw = grid_shape
        self.degree = int(degree)
        self.zpow = np.zeros((gh, gw, 2 * self.degree + 1))
        self.zpi = np.zeros((gh, gw, self.degree + 1))
        self.count = np.zeros((gh, gw), dtype=np.int64)
        self.zmin = np.full((gh, gw), np.inf)
        self.zmax = np.full((gh, gw), -np.inf)

    def add(self, idx, z, z_pi, nm: NoiseModel):
        """Add one sample (z[k], z_pi[k]) to control pixel idx[k], in place.

        `idx` holds distinct flat control indices.
        """
        z = np.asarray(z, dtype=float)
        if np.any(z <= 0):
            raise MapError("sample depths must be positive")
        sigma = nm.sigma(z)
        w = 1.0 / (sigma * sigma)
        wz = w[:, None] * z[:, None] ** np.arange(2 * self.degree + 1)
        g = self.count.size
        self.zpow.reshape(g, -1)[idx] += wz
        self.zpi.reshape(g, -1)[idx] += wz[:, :self.degree + 1] * np.asarray(z_pi)[:, None]
        self.count.reshape(g)[idx] += 1
        zmin = self.zmin.reshape(g)
        zmax = self.zmax.reshape(g)
        zmin[idx] = np.minimum(zmin[idx], z)
        zmax[idx] = np.maximum(zmax[idx], z)


def fit_weighted_poly_batch(zpow, zpi, count, degree, constant_zero, cond_limit=1e12):
    """Weighted polynomial fits minimizing sum w (f(z) - z_pi)^2, one per row.

    zpow (R, >= 2 * degree + 1), zpi (R, >= degree + 1) and count (R,) are
    rows of a FitMoments state; the normal equations of each fit are built
    from them. With constant_zero the constant column is omitted. Returns
    (coeffs (R, degree + 1), ok (R,)) where ok is False for fits that are
    underdetermined or whose normal matrix has a 2-norm condition number of
    at least cond_limit; their coefficient rows are 0.
    """
    zpow = np.asarray(zpow, dtype=float)
    first = 1 if constant_zero else 0
    powers = np.arange(first, degree + 1)
    normal = zpow[:, powers[:, None] + powers[None, :]]
    rhs = np.asarray(zpi, dtype=float)[:, powers]
    ok = np.asarray(count) >= powers.size
    coeffs = np.zeros((zpow.shape[0], degree + 1))
    if np.any(ok):
        # symmetric PSD: the singular values are the absolute eigenvalues
        eig = np.abs(np.linalg.eigvalsh(normal[ok]))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = eig.max(axis=1) / eig.min(axis=1)
        ok[ok] = cond < cond_limit
        if np.any(ok):
            coeffs[ok, first:] = np.linalg.solve(normal[ok], rhs[ok][..., None])[..., 0]
    return coeffs, ok


def _grid_shape(width, height, chi, psi):
    return (-(-height // psi) + 1, -(-width // chi) + 1)  # ceil division + 1


class UndistortionMap:
    """Binned grid of control polynomials with bilinear blending.

    Control pixels sit at (i * chi, j * psi) on a grid of
    (ceil(W/chi)+1) x (ceil(H/psi)+1) functions so the 4-point stencil is
    defined for every image pixel including the last row/column.
    """

    __slots__ = ("width", "height", "chi", "psi", "coefficients",
                 "constant_zero", "_dense")

    def __init__(self, width, height, chi, psi, coefficients, constant_zero=False):
        if chi <= 0 or psi <= 0:
            raise MapError("bin sizes must be positive")
        gh, gw = _grid_shape(width, height, chi, psi)
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape[:2] != (gh, gw):
            raise MapError(f"coefficient grid must be {gh}x{gw} for this image and bin size")
        if not 2 <= coefficients.shape[2] <= MAX_DEGREE + 1:
            raise MapError("coefficient rows must hold degree+1 entries, degree 1..4")
        if constant_zero and np.any(coefficients[:, :, 0] != 0.0):
            raise MapError("constant_zero map must have zero constant terms")
        self.width = int(width)
        self.height = int(height)
        self.chi = int(chi)
        self.psi = int(psi)
        self.coefficients = coefficients
        self.coefficients.setflags(write=False)
        self.constant_zero = bool(constant_zero)
        self._dense = None

    @staticmethod
    def identity(width, height, chi, psi, degree=2, constant_zero=False):
        gh, gw = _grid_shape(width, height, chi, psi)
        coeffs = np.zeros((gh, gw, degree + 1))
        coeffs[:, :, 1] = 1.0
        return UndistortionMap(width, height, chi, psi, coeffs, constant_zero)

    @property
    def degree(self):
        return self.coefficients.shape[2] - 1

    @property
    def grid_shape(self):
        return self.coefficients.shape[:2]

    def with_coefficients(self, coefficients):
        return UndistortionMap(self.width, self.height, self.chi, self.psi,
                               coefficients, self.constant_zero)

    def control_function(self, i, j) -> PolyFn:
        """Control polynomial at grid column i, row j."""
        return PolyFn(tuple(self.coefficients[j, i]), self.constant_zero)

    def pixel_coefficients(self, u, v):
        """Blended polynomial coefficients at pixel(s) (u, v).

        Two-lerp form of the bilinear blend: equal control functions blend
        to themselves bit-exactly, so an all-identity map is the identity.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        i0 = (u // self.chi).astype(int)
        j0 = (v // self.psi).astype(int)
        fu = ((u - i0 * self.chi) / self.chi)[..., None]
        fv = ((v - j0 * self.psi) / self.psi)[..., None]
        c = self.coefficients
        top = c[j0, i0] + fu * (c[j0, i0 + 1] - c[j0, i0])
        bot = c[j0 + 1, i0] + fu * (c[j0 + 1, i0 + 1] - c[j0 + 1, i0])
        return top + fv * (bot - top)

    def dense_coefficients(self):
        """Per-pixel blended coefficients, (H, W, degree+1); cached."""
        if self._dense is None:
            u = np.arange(self.width, dtype=float)[None, :]
            v = np.arange(self.height, dtype=float)[:, None]
            self._dense = self.pixel_coefficients(np.broadcast_to(u, (self.height, self.width)),
                                                  np.broadcast_to(v, (self.height, self.width)))
            self._dense.setflags(write=False)
        return self._dense

    def __eq__(self, other):
        return (isinstance(other, UndistortionMap)
                and (self.width, self.height, self.chi, self.psi, self.constant_zero)
                == (other.width, other.height, other.chi, other.psi, other.constant_zero)
                and np.array_equal(self.coefficients, other.coefficients))


def surrounding(umap: UndistortionMap, u, v):
    """The 4 control pixels around (u, v) with their bilinear weights.

    Weights are the product of the two 1D hat weights 1 - |u - s|/chi and
    sum to exactly 1; a pixel sitting on a control pixel gets weight 1 there.
    """
    if not (0 <= u < umap.width and 0 <= v < umap.height):
        raise MapError("pixel outside the image")
    i0 = int(u // umap.chi)
    j0 = int(v // umap.psi)
    out = []
    for dj in (0, 1):
        for di in (0, 1):
            s = (i0 + di) * umap.chi
            t = (j0 + dj) * umap.psi
            w = (1.0 - abs(u - s) / umap.chi) * (1.0 - abs(v - t) / umap.psi)
            out.append(((s, t), w))
    return out


def undistort_depth(umap: UndistortionMap, u, v, d):
    """Corrected depth at one pixel: the 4 surrounding functions blended."""
    if d <= 0.0:
        return 0.0
    coeffs = umap.pixel_coefficients(float(u), float(v))
    out = 0.0
    for c in coeffs[::-1]:
        out = out * d + c
    return float(out)


def _eval_dense(dense, d):
    out = np.zeros_like(d)
    for k in range(dense.shape[2] - 1, -1, -1):
        out = out * d + dense[:, :, k]
    return out


def _apply_to_image(dense, img: DepthImage) -> DepthImage:
    corrected = _eval_dense(dense, img.data)
    corrected = np.where(img.valid & (corrected > 0.0), corrected, 0.0)
    return DepthImage(img.width, img.height, corrected)


def _apply_to_cloud(dense, cloud: OrganizedCloud) -> OrganizedCloud:
    z = cloud.points[:, :, 2]
    corrected = _eval_dense(dense, z)
    valid = cloud.valid & (corrected > 0.0)
    ratio = np.where(valid, corrected / np.where(cloud.valid, z, 1.0), 0.0)
    pts = np.empty_like(cloud.points)
    pts[:, :, 0] = cloud.points[:, :, 0] * ratio
    pts[:, :, 1] = cloud.points[:, :, 1] * ratio
    pts[:, :, 2] = np.where(valid, corrected, 0.0)
    return OrganizedCloud(cloud.width, cloud.height, pts, valid)


def apply_undistortion(umap: UndistortionMap, target):
    """Correct a DepthImage or OrganizedCloud with the map.

    Cloud points are scaled along their line of sight so the corrected z
    equals the blended polynomial value; invalid pixels pass through
    unchanged (and stay invalid).
    """
    if (target.width, target.height) != (umap.width, umap.height):
        raise MapError("input size does not match the map")
    dense = umap.dense_coefficients()
    if isinstance(target, DepthImage):
        return _apply_to_image(dense, target)
    if isinstance(target, OrganizedCloud):
        return _apply_to_cloud(dense, target)
    raise MapError(f"cannot apply a map to {type(target).__name__}")


def complete_dependent_corner(g00: PolyFn, gw0: PolyFn, g0h: PolyFn) -> PolyFn:
    """Fourth-corner polynomial from the planarity constraint gWH = gW0 + g0H - g00."""
    if not (g00.degree == gw0.degree == g0h.degree):
        raise MapError("corner polynomials must share the same degree")
    if not (g00.constant_zero and gw0.constant_zero and g0h.constant_zero):
        raise MapError("corner polynomials must have constant_zero set")
    coeffs = tuple(b + c - a for a, b, c in
                   zip(g00.coefficients, gw0.coefficients, g0h.coefficients))
    return PolyFn(coeffs, constant_zero=True)


class GlobalMap:
    """Four-corner systematic error correction.

    Three free corner polynomials at (0,0), (W,0) and (0,H); the corner at
    (W,H) is always rebuilt from the planarity constraint, so the blended
    coefficient field is affine over the image no matter what the free
    corners are.
    """

    __slots__ = ("width", "height", "corner_00", "corner_w0", "corner_0h",
                 "corner_wh", "_grid")

    def __init__(self, width, height, corner_00: PolyFn, corner_w0: PolyFn,
                 corner_0h: PolyFn):
        self.width = int(width)
        self.height = int(height)
        self.corner_00 = corner_00
        self.corner_w0 = corner_w0
        self.corner_0h = corner_0h
        self.corner_wh = complete_dependent_corner(corner_00, corner_w0, corner_0h)
        grid = np.array([
            [corner_00.coefficients, corner_w0.coefficients],
            [corner_0h.coefficients, self.corner_wh.coefficients],
        ], dtype=float)
        self._grid = UndistortionMap(width, height, width, height, grid,
                                     constant_zero=True)

    @staticmethod
    def identity(width, height, degree=2):
        ident = PolyFn.identity(degree, constant_zero=True)
        return GlobalMap(width, height, ident, ident, ident)

    @staticmethod
    def from_free_coefficients(width, height, coeffs, degree=2):
        """GlobalMap from a flat array of the 3 free corners' nonconstant coefficients."""
        coeffs = np.asarray(coeffs, dtype=float).reshape(3, degree)
        corners = [PolyFn((0.0, *row), constant_zero=True) for row in coeffs]
        return GlobalMap(width, height, *corners)

    def free_coefficients(self):
        """Nonconstant coefficients of the 3 free corners, flattened (3 * degree)."""
        return np.concatenate([
            self.corner_00.coefficients[1:],
            self.corner_w0.coefficients[1:],
            self.corner_0h.coefficients[1:],
        ])

    @property
    def degree(self):
        return self.corner_00.degree

    def pixel_coefficients(self, u, v):
        return self._grid.pixel_coefficients(u, v)

    def __eq__(self, other):
        return (isinstance(other, GlobalMap)
                and (self.width, self.height) == (other.width, other.height)
                and self.corner_00 == other.corner_00
                and self.corner_w0 == other.corner_w0
                and self.corner_0h == other.corner_0h)


def global_eval(gmap: GlobalMap, u, v, d):
    """Globally corrected depth at one pixel (bilinear blend of the 4 corners)."""
    if d <= 0.0:
        return 0.0
    coeffs = gmap.pixel_coefficients(float(u), float(v))
    out = 0.0
    for c in coeffs[::-1]:
        out = out * d + c
    return float(out)


def apply_global(gmap: GlobalMap, target):
    """Correct a DepthImage or OrganizedCloud with the global map."""
    if (target.width, target.height) != (gmap.width, gmap.height):
        raise MapError("input size does not match the map")
    dense = gmap._grid.dense_coefficients()
    if isinstance(target, DepthImage):
        return _apply_to_image(dense, target)
    if isinstance(target, OrganizedCloud):
        return _apply_to_cloud(dense, target)
    raise MapError(f"cannot apply a map to {type(target).__name__}")


def correct_depth_image(umap: UndistortionMap, gmap: GlobalMap,
                        img: DepthImage) -> DepthImage:
    """Fully corrected depths d* = g(u(d)); invalid pixels stay invalid."""
    if (img.width, img.height) != (umap.width, umap.height):
        raise MapError("input size does not match the undistortion map")
    if (img.width, img.height) != (gmap.width, gmap.height):
        raise MapError("input size does not match the global map")
    undistorted = _eval_dense(umap.dense_coefficients(), img.data)
    corrected = _eval_dense(gmap._grid.dense_coefficients(), undistorted)
    corrected = np.where(img.valid & (undistorted > 0.0) & (corrected > 0.0),
                         corrected, 0.0)
    return DepthImage(img.width, img.height, corrected)


def apply_full_correction(umap: UndistortionMap, gmap: GlobalMap,
                          img: DepthImage, intr) -> OrganizedCloud:
    """Undistort, globally correct, and back-project a depth image."""
    from .geometry import depth_to_cloud

    return depth_to_cloud(correct_depth_image(umap, gmap, img), intr)
