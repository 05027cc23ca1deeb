"""Depth correction maps.

Two families of per-pixel depth corrections, both built from low-degree
polynomials of the depth, each held as a float coefficient array, constant
term first (`PolyFn` checks one for callers outside the package):

* UndistortionMap: a binned grid of control polynomials; every other pixel
  blends its 4 surrounding control functions bilinearly. Removes the local,
  per-pixel distortion that makes flat surfaces look curved. `_hat` is the
  one definition of the bilinear weights; the blend and `UndistortionMap.splat`,
  which sums pixel samples onto control pixels for stage one, both use it.
* GlobalMap: one polynomial per image corner, with the fourth corner locked
  to gWH = gW0 + g0H - g00 so the blended coefficient field is affine over
  the image: c00 + (u/W)(cW0 - c00) + (v/H)(c0H - c00). The three free
  corners are the rows of one read-only array, `GlobalMap.corners`, and
  `GlobalMap.correct` is its evaluator. Over a whole image the field is a
  (W,) row term plus an (H,) column term per coefficient;
  `GlobalMap.correct_image_rows` computes those once and keeps them, so G
  keeps no per-pixel cache. Removes the systematic depth bias.

Maps correct depth images, never clouds: a corrected cloud is the pinhole
back-projection of a corrected image. `correct_rows` is the one kernel of
the full correction, d* = g(u(d)) on one block of image rows, small enough
to stay in cache through all its passes. `pipeline.apply_calibration` runs
it block by block, its threads taking blocks from a shared queue, and
back-projects each block as soon as it is corrected. The per-pixel
arithmetic does not depend on the blocks, so every block size and thread
count gives the same bits; with `GlobalMap.identity` the result is the
undistorted-only cloud. The calibration stages read U with the same
Horner on the cached coefficients, over a whole frame
(`calib_undistort.undistorted_points`). Maps are immutable after
estimation (their caches hold only what their grid and coefficients define);
application is embarrassingly parallel per pixel and may be called
concurrently on a shared map.

The full-frame forms `apply_undistortion` and `apply_global`, which take a
DepthImage and return one, are on no program path. They are kept for the
spans of `benchmark/workloads.py` and for the tests, and move to
`tests/oracles.py` when the benchmark stops timing them.
"""

from __future__ import annotations

import numpy as np

from .geometry import KINECT1_QUANTIZATION, DepthImage, horner

MAX_DEGREE = 4
# Image rows per block of the correction kernel and of U's cache build.
# At 640 wide one of a block's arrays takes 246 KB, and a pass of the
# kernel touches a few of them, so they stay in a core's 2 MiB L2 from pass
# to pass. 32 to 64 rows measured fastest on a 640x480 frame; fewer rows
# pay more per-call overhead.
BLOCK_ROWS = 48
COND_LIMIT = 1e12  # a fit whose normal matrix is this ill-conditioned is not ok


class MapError(ValueError):
    """Raised on inconsistent map construction or application."""


def PolyFn(coefficients, constant_zero=False):
    """A depth polynomial, meters -> meters, of degree 0 to 4, as its
    read-only float coefficient array, constant term first, which `horner`
    evaluates. With `constant_zero` the constant term must be exactly 0.

    No module of the package calls it: the maps build their arrays
    directly. It checks the arrays that scripts and `benchmark/workloads.py`
    pass to `GlobalMap` and to `synthbench.bowl_distortion`.
    """
    coeffs = np.array(coefficients, dtype=float)
    if coeffs.ndim != 1 or not 1 <= coeffs.size <= MAX_DEGREE + 1:
        raise MapError(f"polynomial degree must be between 0 and {MAX_DEGREE}")
    if not np.all(np.isfinite(coeffs)):
        raise MapError("polynomial coefficients must be finite")
    if constant_zero and coeffs[0] != 0.0:
        raise MapError("constant_zero polynomial must have a zero constant term")
    coeffs.setflags(write=False)
    return coeffs


class FitMoments:
    """Running weighted moments of the (z, z_pi) samples of a grid of control pixels.

    Each control polynomial is a weighted linear least-squares fit, so its
    normal equations are sums over samples. Per control pixel this keeps
    sum w z^p for p <= 2 * degree and sum w z^p z_pi for p <= degree, with
    w = 1 / sigma(z)^2, plus the sample count and the running depth range for
    the spread gates. sigma is the depth noise of the one sensor model,
    `geometry.KINECT1_QUANTIZATION`. Fits of any degree up to `degree` read
    these sums; the samples themselves are not kept.

    Arrays are indexed by (grid row, grid column). `add` reads the grid
    flat, control pixel (i, j) at row j * gw + i, and takes the pixels it
    adds to as a (gh * gw,) bool mask.
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

    def add(self, mask, z, z_pi):
        """Add one sample (z[j], z_pi[j]) to each control pixel j where the
        (G,) bool `mask` is True, in place; G = gh * gw.

        z and z_pi are (G,) over the flat grid. Their entries off the mask
        are never added and may be anything, NaN included. Each moment is
        worked as one (G,) plane and added with `where=mask`, so no row is
        gathered or scattered, and each masked row gets the bits it gets
        alone. The powers z^p take their exponents from an array, as
        z[:, None] ** p does; a scalar exponent of 2 would square instead,
        which rounds differently.
        """
        z = np.asarray(z, dtype=float)
        if np.any((z <= 0) & mask):
            raise MapError("sample depths must be positive")
        g = self.count.size
        sigma = horner(KINECT1_QUANTIZATION, z)
        w = 1.0 / (sigma * sigma)
        powers = np.arange(2.0 * self.degree + 1).repeat(g).reshape(-1, g)
        wz = np.power(z, powers, out=powers)
        wz *= w  # (2 * degree + 1, G): w z^p
        np.add(self.zpow.reshape(g, -1).T, wz, out=self.zpow.reshape(g, -1).T, where=mask)
        wz = wz[:self.degree + 1]
        wz *= np.asarray(z_pi, dtype=float)
        np.add(self.zpi.reshape(g, -1).T, wz, out=self.zpi.reshape(g, -1).T, where=mask)
        count = self.count.reshape(g)
        count += mask
        zmin = self.zmin.reshape(g)
        zmax = self.zmax.reshape(g)
        np.minimum(zmin, z, out=zmin, where=mask)
        np.maximum(zmax, z, out=zmax, where=mask)


def _sum(tmp, products):
    """0 + p_0 + p_1 + ... for products p = f_0 * f_1 * ... of R-vectors (a
    product may have one factor), each formed left to right in the work
    R-vector `tmp`: the operations of `np.sum(axis=0)` over the stacked
    products, which adds the rows of a (p, R) array one by one from 0, with
    no (p, R) array formed."""
    out = np.zeros(tmp.size)
    for first, *rest in products:
        if rest:
            np.multiply(first, rest[0], out=tmp)
            for factor in rest[1:]:
                tmp *= factor
            out += tmp
        else:
            out += first
    return out


def _ldl_inverse(a, k, tmp):
    """Factors of the inverses of a stack of symmetric k x k matrices whose
    entry (i, j) is the R-vector a[i + j].

    Unpivoted LDL^T, with L inverted row by row as it is formed. Returns
    (m, d): m[i][q], q < i, the R-vectors of m = L^-1 below its unit
    diagonal, and the k pivots d, so that A^-1 = m^T diag(1 / d) m. Every
    step is an elementwise operation on R-vectors, and every sum is
    `_sum`'s, with `tmp` its work space: the bits of factoring the
    (k, k, R) stack with `np.sum(axis=0)` over (p, R) arrays of products,
    except that the products with m's zeros above its diagonal are left out.
    A sum from 0 is never -0, so adding such a product's +-0 changes no bit
    while the product is finite. A matrix with a pivot <= 0 is not positive
    definite, and its later factors are meaningless.
    """
    low = [[None] * k for _ in range(k)]
    m = [[None] * k for _ in range(k)]
    d = [None] * k
    for i in range(k):
        for p in range(i):
            s = _sum(tmp, [(low[i][q], d[q], low[p][q]) for q in range(p)])
            low[i][p] = (a[i + p] - s) / d[p]
        d[i] = a[2 * i] - _sum(tmp, [(low[i][q], low[i][q], d[q]) for q in range(i)])
        for q in range(i):
            m[i][q] = -_sum(tmp, [(low[i][q],)] + [(low[i][p], m[p][q])
                                                   for p in range(q + 1, i)])
    return m, d


def fit_weighted_poly_batch(zpow, zpi, count, degree):
    """Weighted polynomial fits minimizing sum w (f(z) - z_pi)^2, one per row.

    zpow (R, >= 2 * degree + 1), zpi (R, >= degree + 1) and count (R,) are
    rows of a FitMoments state; the normal equations of each fit are built
    from them. Returns (coeffs (R, degree + 1), ok (R,)) where ok is False
    for fits that are underdetermined or whose normal matrix has a 2-norm
    condition number of at least COND_LIMIT; their coefficient rows are 0.

    All rows are factored at once by `_ldl_inverse`, and the solve uses the
    same factors. Each matrix entry is one R-vector, a column of zpow read
    in place; no (k, k, R) stack is formed, and every sum keeps the order of
    the form that factored one (`tests/oracles.py` keeps it), so a row whose
    moments are finite gets its bits. A pivot <= 0 makes a fit not ok:
    LDL^T of a positive definite A completes whenever
    20 k^1.5 cond_2(H) eps < 1, with H the unit-diagonal scaling of A
    (Demmel, 1989), and cond_2(H) <= k cond_2(A); so for k <= 5 and a
    COND_LIMIT up to 8e12 such a row is beyond the limit. For a positive
    definite A, lambda_max <= tr(A) and 1 / lambda_min <= tr(A^-1), so
    cond_2(A) <= tr(A) tr(A^-1) <= k^2 cond_2(A). A row that this bound
    puts below COND_LIMIT / 2 is ok, with room for the rounding of the
    bound; only the remaining rows are decided by their eigenvalues.
    """
    k = degree + 1
    zpow = np.asarray(zpow, dtype=float)
    b = np.asarray(zpi, dtype=float).T  # right sides: b[i] is an R-vector
    tmp = np.empty(zpow.shape[0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m, d = _ldl_inverse(zpow.T, k, tmp)
        ok = np.asarray(count) >= k
        for pivot in d:
            ok &= pivot > 0
        # tr(A) tr(A^-1), with tr(A^-1) = sum_i (sum_q m[i][q]^2) / d[i]
        inv_rows = [_sum(tmp, [(m[i][q], m[i][q]) for q in range(i)] + [(1.0,)]) / d[i]
                    for i in range(k)]
        bound = (_sum(tmp, [(zpow[:, 2 * i],) for i in range(k)])
                 * _sum(tmp, [(row,) for row in inv_rows]))
        # x = m^T diag(1 / d) m b
        y = [_sum(tmp, [(m[i][q], b[q]) for q in range(i)] + [(b[i],)]) / d[i]
             for i in range(k)]
        coeffs = np.array([_sum(tmp, [(y[j],)] + [(m[i][j], y[i]) for i in range(j + 1, k)])
                           for j in range(k)]).T
    exact = ok & ~(bound < COND_LIMIT / 2)
    if np.any(exact):
        powers = np.arange(k)
        normal = zpow[exact][:, powers[:, None] + powers[None, :]]
        # symmetric PSD: the singular values are the absolute eigenvalues
        eig = np.abs(np.linalg.eigvalsh(normal))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = eig.max(axis=1) / eig.min(axis=1)
        ok[exact] = cond < COND_LIMIT
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

    __slots__ = ("width", "height", "chi", "psi", "coefficients", "_dense", "_hats")

    def __init__(self, width, height, chi, psi, coefficients):
        if chi <= 0 or psi <= 0:
            raise MapError("bin sizes must be positive")
        gh, gw = _grid_shape(width, height, chi, psi)
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape[:2] != (gh, gw):
            raise MapError(f"coefficient grid must be {gh}x{gw} for this image and bin size")
        if not 2 <= coefficients.shape[2] <= MAX_DEGREE + 1:
            raise MapError("coefficient rows must hold degree+1 entries, degree 1..4")
        if not np.all(np.isfinite(coefficients)):
            raise MapError("control polynomial coefficients must be finite")
        self.width = int(width)
        self.height = int(height)
        self.chi = int(chi)
        self.psi = int(psi)
        self.coefficients = coefficients
        self.coefficients.setflags(write=False)
        self._dense = None
        self._hats = None

    @staticmethod
    def identity(width, height, chi, psi, degree=2):
        gh, gw = _grid_shape(width, height, chi, psi)
        coeffs = np.zeros((gh, gw, degree + 1))
        coeffs[:, :, 1] = 1.0
        return UndistortionMap(width, height, chi, psi, coeffs)

    @property
    def degree(self):
        return self.coefficients.shape[2] - 1

    @property
    def grid_shape(self):
        return self.coefficients.shape[:2]

    def with_coefficients(self, coefficients):
        """The map of the same grid with other coefficients. It keeps this
        map's hat matrices, which depend on the grid alone: stage one
        splats every frame onto the map the frame before made."""
        new = UndistortionMap(self.width, self.height, self.chi, self.psi, coefficients)
        new._hats = self._hats
        return new

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

        Each grid row is lerped along u once, into `rows` (k, gh, W), then
        the image rows along v as top + fv * (bot - top): the arithmetic,
        and so the bits, of `pixel_coefficients`. The cache starts as each
        image row's top grid row; the steps bot - top are grid-row
        differences, formed once, and fv times a step is added in place
        BLOCK_ROWS image rows at a time through one block-sized scratch.
        So only the cache itself is ever full-size. Each plane [:, :, k] is
        contiguous, so a Horner step reads only the plane it needs.
        """
        if self._dense is None:
            i0, fu = _hat(np.arange(self.width, dtype=float), self.chi)
            j0, fv = _hat(np.arange(self.height, dtype=float), self.psi)
            # np.take keeps the (k, ., .) memory order; fancy indexing does not
            c = np.moveaxis(self.coefficients, -1, 0)  # (k, gh, gw)
            left = c.take(i0, axis=2)
            rows = left + fu * (c.take(i0 + 1, axis=2) - left)  # (k, gh, W)
            del left  # grid-sized arrays go as soon as they are used
            step = rows[:, 1:] - rows[:, :-1]
            planes = rows.take(j0, axis=1)  # (k, H, W), each row's top grid row
            del rows
            scratch = np.empty((planes.shape[0], min(BLOCK_ROWS, self.height), self.width))
            for v0 in range(0, self.height, BLOCK_ROWS):
                v1 = min(v0 + BLOCK_ROWS, self.height)
                work = scratch[:, :v1 - v0]
                step.take(j0[v0:v1], axis=1, out=work)
                work *= fv[v0:v1, None]
                planes[:, v0:v1] += work
            self._dense = np.moveaxis(planes, 0, -1)
            self._dense.setflags(write=False)
        return self._dense

    def splat(self, mask, values):
        """The blend run backwards: weighted sums of samples per control pixel.

        `values` is a sequence of k channels, each a scalar or an (N,) array
        of samples at the N True pixels of the (H, W) bool `mask`, row-major.
        Each sample adds itself times its blend weight to each control pixel,
        so the result is (k, gh, gw). Computed as Av^T X Au: X the samples
        scattered onto the image, Av (H, gh) and Au (W, gw) the hat weights,
        which the map builds once and keeps.
        """
        gh, gw = self.grid_shape
        image = np.zeros((len(values), self.height, self.width))
        for plane, channel in zip(image, values):
            plane[mask] = channel
        if self._hats is None:
            self._hats = (_hat_matrix(self.height, self.psi, gh),
                          _hat_matrix(self.width, self.chi, gw))
        av, au = self._hats
        return av.T @ image @ au

    def __eq__(self, other):
        return (isinstance(other, UndistortionMap)
                and (self.width, self.height, self.chi, self.psi)
                == (other.width, other.height, other.chi, other.psi)
                and np.array_equal(self.coefficients, other.coefficients))


def _correct_image(m, img, evaluate):
    """DepthImage of evaluate(img.data (H, W)) for a map `m` of img's size.

    Pixels whose input or corrected depth is not positive get 0, so invalid
    pixels stay invalid. Any input other than a DepthImage raises MapError:
    a corrected cloud is the back-projection of a corrected image.
    """
    if not isinstance(img, DepthImage):
        raise MapError(f"maps correct depth images, not {type(img).__name__}")
    if (img.width, img.height) != (m.width, m.height):
        raise MapError("input size does not match the map")
    corrected = evaluate(img.data)
    return DepthImage(img.width, img.height,
                      np.where(img.valid & (corrected > 0.0), corrected, 0.0))


def apply_undistortion(umap: UndistortionMap, img: DepthImage) -> DepthImage:
    """u(d) on every pixel of a depth image.

    Kept for the benchmark's spans and the tests (see the module notes).
    """
    return _correct_image(umap, img,
                          lambda d: horner(umap.dense_coefficients(), d))


class GlobalMap:
    """Four-corner systematic error correction.

    Three free corner polynomials at (0,0), (W,0) and (0,H), coefficient
    rows of one degree from 1 to 4 whose constant terms are 0, held as the
    rows of the read-only (3, degree + 1) array `corners`; the corner at
    (W,H) is never stored: the planarity constraint gWH = gW0 + g0H - g00
    makes the blended coefficient field affine over the image no matter
    what the free corners are. A zero constant term keeps a pure depth
    shift from passing for a sensor translation.
    """

    __slots__ = ("width", "height", "corners", "_image_terms")

    def __init__(self, width, height, corner_00, corner_w0, corner_0h):
        free = [np.asarray(c, dtype=float) for c in (corner_00, corner_w0, corner_0h)]
        if len({c.shape for c in free}) > 1 or free[0].ndim != 1:
            raise MapError("corner polynomials must share one degree")
        if not 2 <= free[0].size <= MAX_DEGREE + 1:
            raise MapError(f"corner polynomials must have degree 1 or more, at most {MAX_DEGREE}")
        self.corners = np.array(free)
        if np.any(self.corners[:, 0] != 0.0):
            raise MapError("corner polynomials must have a zero constant term")
        if not np.all(np.isfinite(self.corners)):
            raise MapError("corner polynomial coefficients must be finite")
        self.corners.setflags(write=False)
        self.width = int(width)
        self.height = int(height)
        self._image_terms = None

    @staticmethod
    def identity(width, height, degree=2):
        ident = np.eye(1, degree + 1, 1)[0]  # 0 + z + 0 z^2 + ...
        return GlobalMap(width, height, ident, ident, ident)

    @staticmethod
    def from_free_coefficients(width, height, coeffs):
        """GlobalMap from a flat array of the 3 free corners' nonconstant
        coefficients, 3 * degree of them."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.size % 3:
            raise MapError(f"expected 3 * degree free coefficients, got {coeffs.size}")
        return GlobalMap(width, height, *np.insert(coeffs.reshape(3, -1), 0, 0.0, axis=1))

    def free_coefficients(self):
        """Nonconstant coefficients of the 3 free corners, flattened (3 * degree)."""
        return self.corners[:, 1:].flatten()

    @property
    def degree(self):
        return self.corners.shape[1] - 1

    def correct(self, u, v, d):
        """g(d) at pixels (u, v); u, v and d broadcast together.

        The coefficients at (u, v) are c00 + (u/W)(cW0 - c00) + (v/H)(c0H - c00),
        a row term in u plus a column term in v. Equal free corners blend to
        exactly their value, so an identity map is the identity. Every
        constant term is 0, so Horner's last step only scales by d. For an
        image block pass u (W,) and v (rows, 1): no per-pixel coefficient
        array is formed.
        """
        return self._horner(*self._terms(u, v), d)

    def correct_image_rows(self, d, v0=0, out=None):
        """`correct` on the image rows v0, v0 + 1, ... held by d (rows, W),
        from row and column terms computed once for the whole image."""
        if self._image_terms is None:
            self._image_terms = self._terms(np.arange(self.width),
                                            np.arange(self.height)[:, None])
        rows, cols = self._image_terms
        return self._horner(rows, [c[v0:v0 + d.shape[0]] for c in cols], d, out)

    def _terms(self, u, v):
        """Row terms c00 + (u/W)(cW0 - c00) and column terms (v/H)(c0H - c00)
        of the coefficients from the top one down to the first. The constant
        one is 0 at every corner and is left out."""
        un = np.asarray(u, dtype=float) / self.width
        vn = np.asarray(v, dtype=float) / self.height
        c00, cw0, c0h = self.corners
        du = cw0 - c00
        dv = c0h - c00
        ks = range(c00.size - 1, 0, -1)
        return [c00[k] + un * du[k] for k in ks], [vn * dv[k] for k in ks]

    def _horner(self, rows, cols, d, out=None):
        """Horner's rule on the coefficients rows[i] + cols[i], top first."""
        if out is None:
            out = np.empty(np.broadcast_shapes(rows[0].shape, cols[0].shape, np.shape(d)))
        np.add(rows[0], cols[0], out=out)
        for row, col in zip(rows[1:], cols[1:]):
            out *= d
            out += row
            out += col
        out *= d  # the constant term, 0 at every corner
        return out

    def __eq__(self, other):
        return (isinstance(other, GlobalMap)
                and (self.width, self.height) == (other.width, other.height)
                and np.array_equal(self.corners, other.corners))


def apply_global(gmap: GlobalMap, img: DepthImage) -> DepthImage:
    """g(d) on every pixel of a depth image.

    Kept for the benchmark's spans and the tests (see the module notes).
    """
    return _correct_image(gmap, img, gmap.correct_image_rows)


def check_sizes(umap: UndistortionMap, gmap: GlobalMap, img: DepthImage):
    """Raise MapError unless the image has the size of both maps."""
    if (img.width, img.height) != (umap.width, umap.height):
        raise MapError("input size does not match the undistortion map")
    if (img.width, img.height) != (gmap.width, gmap.height):
        raise MapError("input size does not match the global map")


def correct_rows(dense_u, gmap: GlobalMap, data, v0, v1, valid, scratch):
    """The correction kernel: d* = g(u(d)) on one block of image rows v0:v1.

    `dense_u` is the undistortion map's `dense_coefficients()`. Writes the
    block's mask to `valid` (rows, W) and returns d* (rows, W) as a view of
    `scratch[1]`; pixels whose input, u(d) or d* is not positive get 0 and
    False. `scratch` (2, rows, W) is work space that a caller reuses from
    block to block: with a few dozen rows of a 640-wide image, the block's
    arrays stay in a core's L2 cache through every pass of the kernel. Only
    block-sized arrays are allocated. Sizes are not checked here; callers
    run `check_sizes` first.
    """
    d = data[v0:v1]
    dhat = horner(dense_u[v0:v1], d, scratch[0])
    dstar = gmap.correct_image_rows(dhat, v0, scratch[1])
    # min(d, u(d), d*) > 0 is the validity test; a NaN anywhere fails it
    np.minimum(dhat, d, out=dhat)
    np.minimum(dhat, dstar, out=dhat)
    np.greater(dhat, 0.0, out=valid)
    np.copyto(dstar, 0.0, where=~valid)
    return dstar
