"""Core 3D/2D geometry for RGB-D calibration.

Planes, rigid transforms, pinhole projection with radial/tangential
distortion, organized point clouds, total-least-squares plane fitting,
plane-pair rigid transform estimation, planar PnP and a generic damped
least-squares solver. Everything works in meters and pixels; depth images
use 0.0 as the invalid-depth marker. A set of pixels, such as a frame's
wall, is a (height, width) bool mask, whose points
`OrganizedCloud.points_at` gathers.

A polynomial of the depth is a float array of its coefficients, constant
term first, which `horner` evaluates; the sensor noise sigma(z),
`KINECT1_QUANTIZATION`, is one. `forward_steps` is the one step rule of
the forward-difference Jacobians, `lm_jacobian`'s and stage two's.

All values are immutable after construction and all operations are pure
functions of their inputs, so they are safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Raised on degenerate geometric input (rank-deficient, parallel, ...)."""


# ---------------------------------------------------------------------------
# quaternion helpers (scalar-first: w, x, y, z). quat_normalize,
# quat_multiply, quat_to_matrix and axis_angle_to_quat take one (4,) / (3,)
# array or a stack (..., 4) / (..., 3) and act on the last axis.


def _norm(v):
    """Euclidean norms over the last axis, keeping it (length 1).

    The matmul takes the same dot product as `np.linalg.norm` on a single
    vector, so one vector and a stack give the same bits.
    """
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    # a squared norm beyond float64 overflows to inf, which the check below
    # rejects; the overflow itself is not worth a warning
    with np.errstate(over="ignore"):
        n = _norm(q)
    if not np.all(np.isfinite(n)):
        raise GeometryError("quaternion norm is not finite")
    if np.any(n == 0.0):
        raise GeometryError("zero quaternion")
    # q / n of a unit quaternion can move its last bits, so a quaternion that
    # is unit to within the rounding of n is kept: normalizing is idempotent,
    # and a transform written to text reads back to the same bits
    q = np.where(np.abs(n - 1.0) <= 4 * np.finfo(float).eps, q, q / n)
    # fix the double-cover sign so equal rotations compare equal
    return np.where(q[..., :1] < 0.0, -q, q)


def quat_multiply(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    # .T puts the component axis first and, on the product, last again
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]).T


def quat_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q):
    w, x, y, z = np.asarray(q, dtype=float).T
    # written column by column: .T reverses the axes, which moves the stack
    # axes first and turns the columns back into rows. The copy restores the
    # row-major layout, which decides the BLAS path, and so the rounding, of
    # products with the matrix.
    return np.ascontiguousarray(np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)],
        [2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x)],
        [2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)],
    ]).T)


def matrix_to_quat(m):
    m = np.asarray(m, dtype=float)
    t = np.trace(m)
    if t > 0:
        s = 0.5 / np.sqrt(t + 1.0)
        q = np.array([0.25 / s,
                      (m[2, 1] - m[1, 2]) * s,
                      (m[0, 2] - m[2, 0]) * s,
                      (m[1, 0] - m[0, 1]) * s])
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(m[i, i] - m[j, j] - m[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    return quat_normalize(q)


def axis_angle_to_quat(rvec):
    """Exponential map: rotation vector (axis * angle, radians) -> quaternion."""
    rvec = np.asarray(rvec, dtype=float)
    theta = _norm(rvec)
    # below 1e-12 rad the second-order series keeps the map smooth through
    # zero; there cos(theta / 2) rounds to 1
    small = theta < 1e-12
    vec = np.where(small, 0.5 * rvec,
                   rvec / np.where(small, 1.0, theta) * np.sin(theta / 2.0))
    return quat_normalize(np.concatenate([np.cos(theta / 2.0), vec], axis=-1))


def quat_to_axis_angle(q):
    q = quat_normalize(q)
    w = min(max(q[0], -1.0), 1.0)
    theta = 2.0 * np.arccos(w)
    s = np.sqrt(max(1.0 - w * w, 0.0))
    if s < 1e-12:
        return np.array([2.0 * q[1], 2.0 * q[2], 2.0 * q[3]])
    return (q[1:] / s) * theta


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, eq=False)
class Plane:
    """Plane in Hessian form: normal . x - offset = 0.

    The equation may be given with any nonzero normal; it is stored
    canonically (unit normal, offset >= 0) so two representations of the
    same plane compare equal.
    """

    normal: np.ndarray
    offset: float

    def __eq__(self, other):
        return (isinstance(other, Plane)
                and np.array_equal(self.normal, other.normal)
                and self.offset == other.offset)

    def __init__(self, normal, offset):
        normal = np.asarray(normal, dtype=float)
        n = np.linalg.norm(normal)
        if not np.isfinite(n) or n < 1e-12:
            raise GeometryError("plane normal must be a nonzero finite vector")
        normal = normal / n
        offset = float(offset) / n
        if offset < 0.0 or (offset == 0.0 and _first_nonzero_negative(normal)):
            normal = -normal
            offset = -offset
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)
        self.normal.setflags(write=False)

    def signed_distance(self, points):
        points = np.asarray(points, dtype=float)
        return points @ self.normal - self.offset


def _first_nonzero_negative(v):
    for c in v:
        if c != 0.0:
            return c < 0.0
    return False


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rigid body motion: x' = R(q) x + t, quaternion scalar-first."""

    quaternion: np.ndarray
    translation: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, RigidTransform)
                and np.array_equal(self.quaternion, other.quaternion)
                and np.array_equal(self.translation, other.translation))

    def __init__(self, quaternion, translation):
        q = quat_normalize(np.asarray(quaternion, dtype=float))
        t = np.asarray(translation, dtype=float).reshape(3).copy()
        object.__setattr__(self, "quaternion", q)
        object.__setattr__(self, "translation", t)
        self.quaternion.setflags(write=False)
        self.translation.setflags(write=False)

    @staticmethod
    def identity():
        return RigidTransform((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    @property
    def rotation_matrix(self):
        return quat_to_matrix(self.quaternion)

    def apply(self, points):
        points = np.asarray(points, dtype=float)
        return points @ self.rotation_matrix.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self o other: apply `other` first, then `self`."""
        q = quat_multiply(self.quaternion, other.quaternion)
        t = self.apply(other.translation)
        return RigidTransform(q, t)

    def inverse(self) -> "RigidTransform":
        qinv = quat_conjugate(self.quaternion)
        rinv = quat_to_matrix(qinv)
        return RigidTransform(qinv, -(rinv @ self.translation))

    def rotation_angle(self):
        """Magnitude of the rotation, radians."""
        return float(np.linalg.norm(quat_to_axis_angle(self.quaternion)))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera with radial (k1, k2, k3) and tangential (p1, p2) distortion."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    radial_dist: tuple = (0.0, 0.0, 0.0)
    tangential_dist: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (np.isfinite(self.fx) and np.isfinite(self.fy)
                and self.fx > 0 and self.fy > 0):
            raise GeometryError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise GeometryError("principal point must lie inside the image")
        if len(self.radial_dist) > 3 or len(self.tangential_dist) != 2:
            raise GeometryError("expected up to 3 radial and exactly 2 tangential coefficients")
        object.__setattr__(self, "radial_dist",
                           tuple(self.radial_dist) + (0.0,) * (3 - len(self.radial_dist)))
        object.__setattr__(self, "tangential_dist", tuple(self.tangential_dist))


@dataclass(frozen=True, eq=False)
class DepthImage:
    """Row-major grid of depths in meters; 0.0 marks an invalid measurement."""

    width: int
    height: int
    data: np.ndarray  # (height, width) float64

    def __eq__(self, other):
        return (isinstance(other, DepthImage)
                and (self.width, self.height) == (other.width, other.height)
                and np.array_equal(self.data, other.data))

    def __init__(self, width, height, data):
        data = np.asarray(data, dtype=float).reshape(height, width)
        if not np.all(np.isfinite(data)):
            raise GeometryError("depth image contains non-finite values")
        if np.any(data < 0):
            raise GeometryError("depth image contains negative values")
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "data", data)
        self.data.setflags(write=False)

    @property
    def valid(self):
        return self.data > 0.0


@dataclass(frozen=True, eq=False)
class OrganizedCloud:
    """Point grid mirroring the depth image layout; invalid pixels carry no point."""

    width: int
    height: int
    points: np.ndarray  # (height, width, 3)
    valid: np.ndarray  # (height, width) bool

    def __eq__(self, other):
        return (isinstance(other, OrganizedCloud)
                and (self.width, self.height) == (other.width, other.height)
                and np.array_equal(self.valid, other.valid)
                and np.array_equal(self.points[self.valid],
                                   other.points[other.valid]))

    def __init__(self, width, height, points, valid):
        points = np.asarray(points, dtype=float).reshape(height, width, 3)
        valid = np.asarray(valid, dtype=bool).reshape(height, width)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "valid", valid)
        self.points.setflags(write=False)
        self.valid.setflags(write=False)

    def points_at(self, mask):
        """Points (N, 3) at the True pixels of a (height, width) bool mask,
        row-major.

        Raises GeometryError unless the mask is a bool array of the cloud's
        size, since an int array would select rows, not pixels, and unless
        every pixel in it is valid: an invalid pixel carries no point.
        """
        if not isinstance(mask, np.ndarray) or mask.dtype != bool:
            raise GeometryError("a pixel set must be a bool mask")
        if mask.shape != self.valid.shape:
            raise GeometryError("pixel set: mask size does not match the cloud")
        if (mask & ~self.valid).any():
            raise GeometryError("pixel set holds invalid pixels")
        return self.points[mask]


class IndexSet:
    """Not a type: a pixel set is its (height, width) bool mask. The name
    stays only because `benchmark/workloads.calib_accuracy` calls
    `IndexSet.from_mask`."""

    @staticmethod
    def from_mask(mask):
        """A read-only bool copy of a (height, width) mask."""
        out = np.array(mask, dtype=bool)
        out.setflags(write=False)
        return out


def horner(coefficients, z, out=None):
    """sum_k c[..., k] z^k by Horner's rule, c (..., k) broadcasting against
    z, into `out` when given; a float for one coefficient row and scalar z."""
    c = np.asarray(coefficients, dtype=float)
    z = np.asarray(z, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(c.shape[:-1], z.shape))
    top = c.shape[-1] - 1
    if top == 0:
        np.copyto(out, c[..., 0])
    else:
        # c_top * z in one pass: the bits of copying c_top and scaling by z
        np.multiply(c[..., top], z, out=out)
        out += c[..., top - 1]
    for k in range(top - 2, -1, -1):
        out *= z
        out += c[..., k]
    return float(out) if out.ndim == 0 else out


# Depth noise sigma(z) of a structured-light sensor's quantization, z and
# sigma in meters: read-only coefficients for `horner`, constant term first.
# sigma is positive over the working range [0.5, 5.0] m.
KINECT1_QUANTIZATION = np.array((-0.00029, 0.00037, 0.001365))
KINECT1_QUANTIZATION.setflags(write=False)


# ---------------------------------------------------------------------------
# operations


def back_project(z, u, v, intr: CameraIntrinsics, out=None) -> np.ndarray:
    """Pinhole points (..., 3) of depths z at integer pixels (u, v), which
    broadcast against z; into `out` when given, and z may be `out[..., 2]`.

    Every cloud and both calibration stages back-project here, so their
    points agree bit for bit. Lens distortion is deliberately not applied:
    the per-pixel undistortion map absorbs residual depth-lens effects.
    """
    xs, ys = _ray_slopes(intr)
    out = np.empty(np.shape(z) + (3,)) if out is None else out
    np.multiply(z, xs[u], out=out[..., 0])
    np.multiply(z, ys[v], out=out[..., 1])
    out[..., 2] = z
    return out


@functools.lru_cache(maxsize=16)
def _ray_slopes(intr: CameraIntrinsics):
    """x/z of each pixel column and y/z of each pixel row, read-only."""
    xs = (np.arange(intr.width, dtype=float) - intr.cx) / intr.fx
    ys = (np.arange(intr.height, dtype=float) - intr.cy) / intr.fy
    xs.setflags(write=False)
    ys.setflags(write=False)
    return xs, ys


def depth_to_cloud(img: DepthImage, intr: CameraIntrinsics) -> OrganizedCloud:
    """Back-project every pixel of a depth image (`back_project`)."""
    if (img.width, img.height) != (intr.width, intr.height):
        raise GeometryError("depth image size does not match intrinsics")
    pts = back_project(img.data, np.arange(img.width),
                       np.arange(img.height)[:, None], intr)
    return OrganizedCloud(img.width, img.height, pts, img.valid)


def project_point(intr: CameraIntrinsics, p) -> np.ndarray:
    """Pinhole projection with radial/tangential distortion.

    Accepts a single 3-vector or an (N, 3) array; z must be positive.
    """
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    pts = p.reshape(-1, 3)
    z = pts[:, 2]
    if np.any(z <= 0):
        raise GeometryError("cannot project points with non-positive z")
    x = pts[:, 0] / z
    y = pts[:, 1] / z
    k1, k2, k3 = intr.radial_dist
    p1, p2 = intr.tangential_dist
    r2 = x * x + y * y
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    uv = np.column_stack([intr.fx * xd + intr.cx, intr.fy * yd + intr.cy])
    return uv[0] if single else uv


UNDISTORT_ITERATIONS = 10  # fixed-point steps of `undistort_pixel`


def undistort_pixel(intr: CameraIntrinsics, uv) -> np.ndarray:
    """Invert the distortion model: pixel -> normalized (x, y) coordinates.

    Up to UNDISTORT_ITERATIONS fixed-point steps. The loop stops once a step
    leaves the bits of every x and y unchanged: each later step would repeat
    the same values, so the result has the bits of running all of them.
    """
    uv = np.asarray(uv, dtype=float)
    single = uv.ndim == 1
    px = uv.reshape(-1, 2)
    xd = (px[:, 0] - intr.cx) / intr.fx
    yd = (px[:, 1] - intr.cy) / intr.fy
    k1, k2, k3 = intr.radial_dist
    p1, p2 = intr.tangential_dist
    x, y = xd.copy(), yd.copy()
    for _ in range(UNDISTORT_ITERATIONS):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dx = 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        dy = p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        x_next = (xd - dx) / radial
        y_next = (yd - dy) / radial
        if x_next.tobytes() == x.tobytes() and y_next.tobytes() == y.tobytes():
            break
        x, y = x_next, y_next
    out = np.column_stack([x, y])
    return out[0] if single else out


def fit_planes(points):
    """Total-least-squares plane of one point set (N, 3), with its scatter.

    The normal is the eigenvector of the smallest eigenvalue of the 3 x 3
    scatter matrix about the centroid. Returns (normal (3,), offset,
    eigenvalues (3,) ascending), the normal oriented so the offset is >= 0;
    the smallest eigenvalue over N is the mean squared distance to the
    plane. Nothing is checked: `fit_plane` does that.

    The centroid is each column's running sum over n. On row-major points
    that is the bits of `points.mean(axis=0)`, which adds the rows one after
    another, without its 3-element inner loop. The running sum fills the
    column of the centered copy, which is then centered in place.
    """
    n = points.shape[0]
    centroid = np.empty(3)
    centered = np.empty_like(points)
    for j in range(3):
        column = centered[:, j]
        np.cumsum(points[:, j], out=column)
        centroid[j] = column[-1] / n
        np.subtract(points[:, j], centroid[j], out=column)
    lam, vec = np.linalg.eigh(centered.T @ centered)
    normal = vec[:, 0]
    offset = np.einsum("i,i->", normal, centroid)
    if offset < 0:
        normal, offset = -normal, -offset
    return normal, offset, lam


def fit_plane(points) -> Plane:
    """Total-least-squares plane through 3D points (see `fit_planes`).

    Needs at least 3 points whose scatter has a second eigenvalue of more
    than 1e-12 times the largest: the rounding of the 3 x 3 scatter matrix
    is about 1e-16 times its largest eigenvalue, so a ratio near that is
    noise, and the points are collinear. In singular values of the centered
    points that is sigma_2 > 1e-6 * sigma_1, a narrower input range than an
    SVD of the points accepts (sigma_2 > 1e-12 * sigma_1): sets whose ratio
    lies between the two, a strip of points 1e-6 times as wide as it is
    long, now raise GeometryError.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if points.shape[0] < 3:
        raise GeometryError("plane fit needs at least 3 points")
    normal, offset, lam = fit_planes(points)
    if not lam[1] > 1e-12 * lam[2]:
        raise GeometryError("plane fit is rank deficient (collinear points)")
    return Plane(normal, float(offset))


def plane_through(points) -> Plane:
    """The plane through 3 points (3, 3), normal (p1 - p0) x (p2 - p0).

    Raises GeometryError when the two edges are parallel to 1e-12 (sine of
    the angle between them), which includes repeated points.
    """
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = np.asarray(points, dtype=float).tolist()
    ax, ay, az = x1 - x0, y1 - y0, z1 - z0
    bx, by, bz = x2 - x0, y2 - y0, z2 - z0
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    if (nx * nx + ny * ny + nz * nz
            <= 1e-24 * (ax * ax + ay * ay + az * az) * (bx * bx + by * by + bz * bz)):
        raise GeometryError("three-point plane: collinear or repeated points")
    return Plane((nx, ny, nz), nx * x0 + ny * y0 + nz * z0)


def transform_plane(t: RigidTransform, pl: Plane) -> Plane:
    normal = t.rotation_matrix @ pl.normal
    offset = pl.offset + normal @ t.translation
    return Plane(normal, offset)


def estimate_transform_from_planes(planes_a, planes_b) -> RigidTransform:
    """Rigid transform t with transform_plane(t, planes_a[i]) ~ planes_b[i].

    Rotation by Procrustes alignment of the normals; translation from the
    linear system n_b . t = d_b - d_a. Needs >= 3 pairs whose normals
    span 3D.
    """
    if len(planes_a) != len(planes_b) or len(planes_a) < 3:
        raise GeometryError("need at least 3 corresponding plane pairs")
    na = np.array([p.normal for p in planes_a])
    nb = np.array([p.normal for p in planes_b])
    da = np.array([p.offset for p in planes_a])
    db = np.array([p.offset for p in planes_b])
    if np.linalg.svd(na, compute_uv=False)[-1] < 1e-6:
        raise GeometryError("plane normals do not span 3D")
    m = nb.T @ na
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    rot = u @ np.diag([1.0, 1.0, d]) @ vt
    # canonical plane storage may have flipped individual normals; re-align
    rotated = na @ rot.T
    flip = np.sign(np.sum(rotated * nb, axis=1))
    flip[flip == 0] = 1.0
    nb_al = nb * flip[:, None]
    db_al = db * flip
    # translation: n_b . t = d_b - d_a (rotation leaves the offset unchanged)
    t, *_ = np.linalg.lstsq(nb_al, db_al - da, rcond=None)
    return RigidTransform(matrix_to_quat(rot), t)


def _homography_dlt(src, dst):
    """Direct linear transform homography src (N,2) -> dst (N,2), normalized."""

    def normalize(pts):
        c = pts.mean(axis=0)
        scale = np.sqrt(2.0) / max(np.mean(np.linalg.norm(pts - c, axis=1)), 1e-12)
        t = np.array([[scale, 0, -scale * c[0]],
                      [0, scale, -scale * c[1]],
                      [0, 0, 1.0]])
        ph = np.column_stack([pts, np.ones(len(pts))]) @ t.T
        return ph[:, :2], t

    sn, ts = normalize(src)
    dn, td = normalize(dst)
    n = len(src)
    a = np.zeros((2 * n, 9))
    a[0::2, 0:2] = sn
    a[0::2, 2] = 1.0
    a[0::2, 6:8] = -sn * dn[:, 0:1]
    a[0::2, 8] = -dn[:, 0]
    a[1::2, 3:5] = sn
    a[1::2, 5] = 1.0
    a[1::2, 6:8] = -sn * dn[:, 1:2]
    a[1::2, 8] = -dn[:, 1]
    _, _, vt = np.linalg.svd(a)
    h = vt[-1].reshape(3, 3)
    h = np.linalg.inv(td) @ h @ ts
    return h / h[2, 2]


def _pose_from_homography(board_xy, norm_xy):
    """Initial pose of a planar target from its homography to normalized coords."""
    h = _homography_dlt(board_xy, norm_xy)
    h1, h2, h3 = h[:, 0], h[:, 1], h[:, 2]
    lam = 2.0 / (np.linalg.norm(h1) + np.linalg.norm(h2))
    r1 = h1 * lam
    r2 = h2 * lam
    t = h3 * lam
    r3 = np.cross(r1, r2)
    rot = np.column_stack([r1, r2, r3])
    u, _, vt = np.linalg.svd(rot)
    rot = u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt
    if t[2] < 0:
        rot = np.column_stack([-rot[:, 0], -rot[:, 1], rot[:, 2]])
        t = -t
    return RigidTransform(matrix_to_quat(rot), t)


def solve_pnp(board_points, image_points, intr: CameraIntrinsics):
    """Pose of a planar target from 2D-3D correspondences.

    Initialization by planar-homography decomposition, refinement with the
    Levenberg-Marquardt solver below. Returns (pose, rms) where rms is the
    final RMS reprojection error in pixels.
    """
    board_points = np.asarray(board_points, dtype=float).reshape(-1, 3)
    image_points = np.asarray(image_points, dtype=float).reshape(-1, 2)
    n = board_points.shape[0]
    if n < 4 or image_points.shape[0] != n:
        raise GeometryError("PnP needs at least 4 point pairs with matching counts")
    if np.max(np.abs(board_points[:, 2])) > 1e-9:
        raise GeometryError("PnP expects coplanar board points with z = 0")

    norm_xy = undistort_pixel(intr, image_points)
    pose0 = _pose_from_homography(board_points[:, :2], norm_xy)
    q0 = pose0.quaternion

    def residual(x):
        pose = RigidTransform(quat_multiply(axis_angle_to_quat(x[:3]), q0), x[3:6])
        cam = pose.apply(board_points)
        if np.any(cam[:, 2] <= 0):
            return np.full(2 * n, 1e6)
        return (project_point(intr, cam) - image_points).ravel()

    x0 = np.concatenate([np.zeros(3), pose0.translation])
    if not np.all(np.isfinite(x0)):
        raise GeometryError("degenerate correspondences: homography initialization failed")
    result = lm_minimize(residual, x0)
    x = result.x
    pose = RigidTransform(quat_multiply(axis_angle_to_quat(x[:3]), q0), x[3:6])
    rms = float(np.sqrt(result.final_cost / n))
    if not np.isfinite(rms) or rms > 5.0 or (not result.converged and rms > 1.0):
        raise GeometryError(f"PnP did not converge (rms {rms:.3g} px)")
    return pose, rms


@dataclass
class LMResult:
    """Outcome of `lm_minimize`.

    `reason` says why the solver stopped: "ftol" or "xtol" when the cost
    drop or the step fell below its tolerance, "max_iter" at the iteration
    limit, "damping_exhausted" when no damping below 1e12 gave a
    non-increasing cost. `converged` is True for every reason but max_iter.
    `residual` is the residual vector at `x`, so `final_cost == residual @
    residual`.
    """

    x: np.ndarray
    final_cost: float
    iterations: int
    reason: str
    cost_trace: list = field(default_factory=list)
    residual: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.reason != "max_iter"


def forward_steps(x):
    """The forward-difference step of each parameter: max(1e-6, 1e-6 |x_i|)."""
    return np.maximum(1e-6, 1e-6 * np.abs(x))


def lm_jacobian(residual_fn, x, r=None):
    """Forward finite-difference Jacobian, with the steps of `forward_steps`."""
    x = np.asarray(x, dtype=float)
    if r is None:
        r = np.asarray(residual_fn(x), dtype=float)
    steps = forward_steps(x)
    jac = np.empty((r.size, x.size))
    for i in range(x.size):
        xp = x.copy()
        xp[i] += steps[i]
        jac[:, i] = (np.asarray(residual_fn(xp), dtype=float) - r) / steps[i]
    return jac


def lm_minimize(residual_fn, x0, max_iter=200, ftol=1e-10, xtol=1e-12,
                normal_fn=None) -> LMResult:
    """Levenberg-Marquardt over a residual vector function.

    Each iteration solves the damped normal equations (JᵀJ + λ diag(JᵀJ)) δ
    = -Jᵀr. `normal_fn(fn, x, r)` returns (JᵀJ, Jᵀr); by default both are
    formed from the dense forward-difference Jacobian of `lm_jacobian`.
    `calib_global.refine` supplies one that sums them from the Jacobian's
    per-frame blocks. Damping starts at 1e-3, is multiplied by 10 on a
    rejected step and divided by 10 on an accepted one; the accepted cost
    sequence is non-increasing. Terminates when the cost drop falls below
    ftol * max(cost, 1), the step norm falls below xtol, when damping
    reaches 1e12 without an accepted step, or at max_iter; `reason` on the
    result names which.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual_fn(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise GeometryError("residuals are not finite at the initial point")
    cost = float(r @ r)
    lam = 1e-3
    trace = [cost]
    iterations = 0
    reason = "max_iter"
    while iterations < max_iter:
        iterations += 1
        if normal_fn is None:
            jac = lm_jacobian(residual_fn, x, r)
            jtj, jtr = jac.T @ jac, jac.T @ r
        else:
            jtj, jtr = normal_fn(residual_fn, x, r)
        diag = np.diag(jtj).copy()
        diag[diag < 1e-12] = 1e-12
        accepted = False
        while lam < 1e12:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + step
            r_new = np.asarray(residual_fn(x_new), dtype=float)
            cost_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
            if cost_new <= cost:
                accepted = True
                step_norm = float(np.linalg.norm(step))
                drop = cost - cost_new
                x, r, cost = x_new, r_new, cost_new
                trace.append(cost)
                lam = max(lam / 10.0, 1e-15)
                if drop < ftol * max(cost, 1.0):
                    reason = "ftol"
                elif step_norm < xtol:
                    reason = "xtol"
                break
            lam *= 10.0
        if not accepted:
            reason = "damping_exhausted"  # local minimum within precision
            break
        if reason != "max_iter":
            break
    return LMResult(x=x, final_cost=cost, iterations=iterations, reason=reason,
                    cost_trace=trace, residual=r)
