"""Depth correction maps.

Two families of per-pixel depth corrections, both built from low-degree
polynomials of the depth:

* UndistortionMap: a binned grid of control polynomials; every other pixel
  blends its 4 surrounding control functions bilinearly. Removes the local,
  per-pixel distortion that makes flat surfaces look curved. `_hat` is the
  one definition of the bilinear weights; the blend and `UndistortionMap.splat`,
  which sums pixel samples onto control pixels for stage one, both use it.
* GlobalMap: one polynomial per image corner, with the fourth corner locked
  to gWH = gW0 + g0H - g00 so the blended coefficient field is affine over
  the image: c00 + (u/W)(cW0 - c00) + (v/H)(c0H - c00). `GlobalMap.correct`
  is its one evaluator. Over a whole image the field is a (W,) row term plus
  an (H,) column term, so G keeps no per-pixel cache. Removes the systematic
  depth bias.

`correct_rows` is the one correction kernel, d* = g(u(d)) on a band of
image rows; `correct_depth_image` and `pipeline.apply_calibration` run it.
Maps are immutable after estimation; application is embarrassingly parallel
per pixel and may be called concurrently on a shared map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DepthImage, NoiseModel, OrganizedCloud, horner

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
    return horner(f.coefficients, z)


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


def _ldl_inverse(a):
    """Factors of the inverses of a stack of symmetric matrices (k, k, R).

    Unpivoted LDL^T, with L inverted row by row as it is formed. Returns
    (m, d): m = L^-1 (k, k, R), unit lower triangular, and the pivots d
    (k, R), so that A^-1 = m^T diag(1 / d) m. The stack runs along the last
    axis, so every step is an elementwise operation on R-vectors. A matrix
    with a pivot <= 0 is not positive definite, and its later factors are
    meaningless.
    """
    k = a.shape[0]
    low = np.zeros_like(a)
    m = np.zeros_like(a)
    d = np.zeros(a.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(k):
            for p in range(i):
                low[i, p] = (a[i, p] - np.sum(low[i, :p] * d[:p] * low[p, :p],
                                              axis=0)) / d[p]
            d[i] = a[i, i] - np.sum(low[i, :i] ** 2 * d[:i], axis=0)
            m[i, :i] = -np.sum(low[i, :i, None] * m[:i, :i], axis=0)
            m[i, i] = 1.0
    return m, d


def fit_weighted_poly_batch(zpow, zpi, count, degree, constant_zero, cond_limit=1e12):
    """Weighted polynomial fits minimizing sum w (f(z) - z_pi)^2, one per row.

    zpow (R, >= 2 * degree + 1), zpi (R, >= degree + 1) and count (R,) are
    rows of a FitMoments state; the normal equations of each fit are built
    from them. With constant_zero the constant column is omitted. Returns
    (coeffs (R, degree + 1), ok (R,)) where ok is False for fits that are
    underdetermined or whose normal matrix has a 2-norm condition number of
    at least cond_limit; their coefficient rows are 0.

    All rows are factored at once by `_ldl_inverse`, and the solve uses the
    same factors. A pivot <= 0 makes a fit not ok: LDL^T of a positive
    definite A completes whenever 20 k^1.5 cond_2(H) eps < 1, with H the
    unit-diagonal scaling of A (Demmel, 1989), and cond_2(H) <=
    k cond_2(A); so for k <= 5 and a cond_limit up to 8e12 such a row is
    beyond the limit. For a positive definite A, lambda_max <= tr(A) and
    1 / lambda_min <= tr(A^-1), so cond_2(A) <= tr(A) tr(A^-1) <=
    k^2 cond_2(A). A row that this bound puts below cond_limit / 2 is ok,
    with room for the rounding of the bound; only the remaining rows are
    decided by their eigenvalues.
    """
    first = 1 if constant_zero else 0
    powers = np.arange(first, degree + 1)
    k = powers.size
    # (k, k, R) and (k, R): one matrix per row along the last axis
    normal = np.asarray(zpow, dtype=float).T[powers[:, None] + powers[None, :]]
    rhs = np.asarray(zpi, dtype=float).T[powers]
    m, d = _ldl_inverse(normal)
    ok = (np.asarray(count) >= k) & np.all(d > 0, axis=0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = np.trace(normal) * np.sum(np.sum(m * m, axis=1) / d, axis=0)
        # x = m^T diag(1 / d) m rhs
        y = np.sum(m * rhs, axis=1) / d
        coeffs = np.zeros((normal.shape[2], degree + 1))
        coeffs[:, first:] = np.sum(m * y[:, None], axis=0).T
    exact = ok & ~(bound < cond_limit / 2)
    if np.any(exact):
        # symmetric PSD: the singular values are the absolute eigenvalues
        eig = np.abs(np.linalg.eigvalsh(np.moveaxis(normal[..., exact], -1, 0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = eig.max(axis=1) / eig.min(axis=1)
        ok[exact] = cond < cond_limit
    coeffs[~ok] = 0.0
    return coeffs, ok


def _grid_shape(width, height, chi, psi):
    return (-(-height // psi) + 1, -(-width // chi) + 1)  # ceil division + 1


def _hat(x, step):
    """Control index i0 and fraction of coordinate(s) x on a grid of `step`.

    Control pixels i0 and i0 + 1 get the hat weights 1 - frac and frac.
    """
    i0 = (x // step).astype(int)
    return i0, (x - i0 * step) / step


def _hat_matrix(n, step, size):
    """(n, size) weights of the coordinates 0..n-1 on `size` control pixels."""
    i0, frac = _hat(np.arange(n), step)
    rows = np.arange(n)
    out = np.zeros((n, size))
    out[rows, i0] = 1.0 - frac
    out[rows, i0 + 1] = frac
    return out


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
        i0, fu = _hat(np.asarray(u, dtype=float), self.chi)
        j0, fv = _hat(np.asarray(v, dtype=float), self.psi)
        fu, fv = fu[..., None], fv[..., None]
        c = self.coefficients
        top = c[j0, i0] + fu * (c[j0, i0 + 1] - c[j0, i0])
        bot = c[j0 + 1, i0] + fu * (c[j0 + 1, i0 + 1] - c[j0 + 1, i0])
        return top + fv * (bot - top)

    def dense_coefficients(self):
        """Per-pixel blended coefficients, (H, W, degree+1); cached.

        Each grid row is lerped along u once, then the rows along v: the
        arithmetic, and so the bits, of `pixel_coefficients`. Each plane
        [:, :, k] is contiguous, so a Horner step reads only the plane it needs.
        """
        if self._dense is None:
            i0, fu = _hat(np.arange(self.width, dtype=float), self.chi)
            j0, fv = _hat(np.arange(self.height, dtype=float), self.psi)
            # np.take keeps the (k, ., .) memory order; fancy indexing does not
            c = np.moveaxis(self.coefficients, -1, 0)  # (k, gh, gw)
            left = c.take(i0, axis=2)
            rows = left + fu * (c.take(i0 + 1, axis=2) - left)  # (k, gh, W)
            top = rows.take(j0, axis=1)
            planes = top + fv[:, None] * (rows.take(j0 + 1, axis=1) - top)
            self._dense = np.moveaxis(planes, 0, -1)
            self._dense.setflags(write=False)
        return self._dense

    def splat(self, u, v, values):
        """The blend run backwards: weighted sums of samples per control pixel.

        `values` (..., N) holds samples at the N distinct pixels (u, v). Each
        sample adds itself times its blend weight to each control pixel, so
        the result is (..., gh, gw). Computed as Av^T X Au: X the samples
        scattered onto the image, Av (H, gh) and Au (W, gw) the hat weights.
        """
        values = np.asarray(values, dtype=float)
        gh, gw = self.grid_shape
        image = np.zeros(values.shape[:-1] + (self.height, self.width))
        image[..., v, u] = values
        av = _hat_matrix(self.height, self.psi, gh)
        au = _hat_matrix(self.width, self.chi, gw)
        return av.T @ image @ au

    def __eq__(self, other):
        return (isinstance(other, UndistortionMap)
                and (self.width, self.height, self.chi, self.psi, self.constant_zero)
                == (other.width, other.height, other.chi, other.psi, other.constant_zero)
                and np.array_equal(self.coefficients, other.coefficients))


def _eval_dense(dense, d, out=None):
    """Horner evaluation of per-pixel coefficients `dense` at depths d (same shape)."""
    out = np.empty(d.shape) if out is None else out
    np.copyto(out, dense[:, :, -1])
    for k in range(dense.shape[2] - 2, -1, -1):
        out *= d
        out += dense[:, :, k]
    return out


def _apply(target, evaluate):
    """Correct a DepthImage or OrganizedCloud with evaluate(depths (H, W)).

    Cloud points are scaled along their line of sight so the corrected z
    equals the evaluated value; invalid pixels pass through unchanged (and
    stay invalid).
    """
    if isinstance(target, DepthImage):
        corrected = evaluate(target.data)
        corrected = np.where(target.valid & (corrected > 0.0), corrected, 0.0)
        return DepthImage(target.width, target.height, corrected)
    if isinstance(target, OrganizedCloud):
        z = target.points[:, :, 2]
        corrected = evaluate(z)
        valid = target.valid & (corrected > 0.0)
        ratio = np.where(valid, corrected / np.where(target.valid, z, 1.0), 0.0)
        pts = np.empty_like(target.points)
        pts[:, :, 0] = target.points[:, :, 0] * ratio
        pts[:, :, 1] = target.points[:, :, 1] * ratio
        pts[:, :, 2] = np.where(valid, corrected, 0.0)
        return OrganizedCloud(target.width, target.height, pts, valid)
    raise MapError(f"cannot apply a map to {type(target).__name__}")


def apply_undistortion(umap: UndistortionMap, target):
    """Correct a DepthImage or OrganizedCloud with the map."""
    if (target.width, target.height) != (umap.width, umap.height):
        raise MapError("input size does not match the map")
    return _apply(target, lambda d: _eval_dense(umap.dense_coefficients(), d))


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
                 "corner_wh", "corners")

    def __init__(self, width, height, corner_00: PolyFn, corner_w0: PolyFn,
                 corner_0h: PolyFn):
        self.width = int(width)
        self.height = int(height)
        self.corner_00 = corner_00
        self.corner_w0 = corner_w0
        self.corner_0h = corner_0h
        self.corner_wh = complete_dependent_corner(corner_00, corner_w0, corner_0h)
        self.corners = np.array([corner_00.coefficients, corner_w0.coefficients,
                                 corner_0h.coefficients])
        self.corners.setflags(write=False)

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

    def correct(self, u, v, d, out=None):
        """g(d) at pixels (u, v); u, v and d broadcast together. Written to
        `out` when given.

        The coefficients at (u, v) are c00 + (u/W)(cW0 - c00) + (v/H)(c0H - c00),
        a row term in u plus a column term in v. Equal free corners blend to
        exactly their value, so an identity map is the identity. For an
        image band pass u (W,) and v (rows, 1): no per-pixel coefficient
        array is formed.
        """
        un = np.asarray(u, dtype=float) / self.width
        vn = np.asarray(v, dtype=float) / self.height
        c00, cw0, c0h = self.corners
        du = cw0 - c00
        dv = c0h - c00
        top = c00.size - 1
        if out is None:
            out = np.empty(np.broadcast_shapes(un.shape, vn.shape, np.shape(d)))
        np.add(c00[top] + un * du[top], vn * dv[top], out=out)
        for k in range(top - 1, -1, -1):
            out *= d
            out += c00[k] + un * du[k]
            out += vn * dv[k]
        return out

    def __eq__(self, other):
        return (isinstance(other, GlobalMap)
                and (self.width, self.height) == (other.width, other.height)
                and self.corner_00 == other.corner_00
                and self.corner_w0 == other.corner_w0
                and self.corner_0h == other.corner_0h)


def _correct_image_rows(gmap: GlobalMap, d, v0=0, out=None):
    """g(d) for the image rows v0, v0 + 1, ... held by d (rows, W)."""
    return gmap.correct(np.arange(gmap.width), np.arange(v0, v0 + d.shape[0])[:, None],
                        d, out)


def apply_global(gmap: GlobalMap, target):
    """Correct a DepthImage or OrganizedCloud with the global map."""
    if (target.width, target.height) != (gmap.width, gmap.height):
        raise MapError("input size does not match the map")
    return _apply(target, lambda d: _correct_image_rows(gmap, d))


def check_sizes(umap: UndistortionMap, gmap: GlobalMap, img: DepthImage):
    """Raise MapError unless the image has the size of both maps."""
    if (img.width, img.height) != (umap.width, umap.height):
        raise MapError("input size does not match the undistortion map")
    if (img.width, img.height) != (gmap.width, gmap.height):
        raise MapError("input size does not match the global map")


def correct_rows(dense_u, gmap: GlobalMap, data, v0, v1, out, valid, scratch):
    """The correction kernel: d* = g(u(d)) on image rows v0:v1 of data.

    `dense_u` is the undistortion map's `dense_coefficients()`. Writes d*
    to `out` (rows, W) and its mask to `valid`; pixels whose input, u(d) or
    d* is not positive get 0 and False. `scratch` (2, rows, W) is work
    space. The kernel allocates no image-sized array, so bands run in
    worker threads without going through the allocator. Sizes are not
    checked here; callers run `check_sizes` first.
    """
    d = data[v0:v1]
    dhat = _eval_dense(dense_u[v0:v1], d, scratch[0])
    dstar = _correct_image_rows(gmap, dhat, v0, scratch[1])
    # min(d, u(d), d*) > 0 is the validity test; a NaN anywhere fails it
    np.minimum(dhat, d, out=dhat)
    np.minimum(dhat, dstar, out=dhat)
    np.greater(dhat, 0.0, out=valid)
    out[...] = 0.0
    np.copyto(out, dstar, where=valid)


def correct_depth_image(umap: UndistortionMap, gmap: GlobalMap,
                        img: DepthImage) -> DepthImage:
    """Fully corrected depths d* = g(u(d)); invalid pixels stay invalid."""
    check_sizes(umap, gmap, img)
    out = np.empty((img.height, img.width))
    correct_rows(umap.dense_coefficients(), gmap, img.data, 0, img.height, out,
                 np.empty(out.shape, dtype=bool), np.empty((2,) + out.shape))
    return DepthImage(img.width, img.height, out)
