"""Reference forms that only tests call.

The weighted polynomial fit from explicit sample arrays is what the running
moments of `depthcal.maps.FitMoments` stand in for: the same normal
equations, summed over stored samples, with the condition number taken from
an SVD. The moment solve is checked against it.

`estimate_undistortion_map` is stage one reading every frame as two
whole-frame clouds, the original and the undistorted one, where the library
back-projects only the pixels it reads.

The per-pixel map evaluations, the per-frame stage-two residuals and the
line-of-sight and orthogonal projections are scalar or per-frame forms of
what the library computes vectorized. `global_eval` blends all four corners
bilinearly, the fourth from `complete_dependent_corner`, so it does not share
the affine evaluator of `GlobalMap.correct`, which stores no fourth corner.

`correct_rows` is the correction kernel making each pass over a whole frame,
with the Horner steps of `horner_steps` and `global_correct`, one pass more
each than the library's. It is the reference for the bits of the blocked
kernel that `pipeline.apply_calibration` runs.

The text writers at the end format one number at a time with
`format(x, ".17g")`. They are the reference for the bytes of the files
`depthcal.formats` writes a block at a time.
"""

import numpy as np

from depthcal.calib_global import FrameObservations
from depthcal.calib_undistort import (
    BoardSpec,
    CalibrationError,
    fit_reference_plane,
    select_wall_points,
    sort_frames_by_distance,
    update_map,
)
from depthcal.formats import FORMAT_VERSION, _intr_tokens, _transform_lines
from depthcal.geometry import (
    KINECT1_QUANTIZATION,
    CameraIntrinsics,
    DepthImage,
    GeometryError,
    NoiseModel,
    OrganizedCloud,
    Plane,
    RigidTransform,
    depth_to_cloud,
    fit_plane,
    project_point,
)
from depthcal.maps import (
    FitMoments,
    GlobalMap,
    MapError,
    PolyFn,
    UndistortionMap,
    apply_undistortion,
    check_sizes,
)


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


def moments_of(z, z_pi, degree):
    """A one-pixel FitMoments state holding the samples (z[k], z_pi[k])."""
    moments = FitMoments((1, 1), degree)
    for zk, zpk in zip(np.asarray(z, dtype=float), np.asarray(z_pi, dtype=float)):
        moments.add(np.array([0]), np.array([zk]), np.array([zpk]))
    return moments


# ---------------------------------------------------------------------------
# maps, one pixel at a time


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


def _horner(coeffs, d):
    out = 0.0
    for c in coeffs[::-1]:
        out = out * d + c
    return float(out)


def undistort_depth(umap: UndistortionMap, u, v, d):
    """Corrected depth at one pixel: the 4 surrounding functions blended."""
    if d <= 0.0:
        return 0.0
    return _horner(umap.pixel_coefficients(float(u), float(v)), d)


def complete_dependent_corner(g00: PolyFn, gw0: PolyFn, g0h: PolyFn) -> PolyFn:
    """Fourth-corner polynomial from the planarity constraint gWH = gW0 + g0H - g00."""
    if not (g00.degree == gw0.degree == g0h.degree):
        raise MapError("corner polynomials must share the same degree")
    if not (g00.constant_zero and gw0.constant_zero and g0h.constant_zero):
        raise MapError("corner polynomials must have constant_zero set")
    coeffs = tuple(b + c - a for a, b, c in
                   zip(g00.coefficients, gw0.coefficients, g0h.coefficients))
    return PolyFn(coeffs, constant_zero=True)


def corner_wh(gmap: GlobalMap) -> PolyFn:
    """The dependent corner (W, H) of a global map."""
    return complete_dependent_corner(gmap.corner_00, gmap.corner_w0, gmap.corner_0h)


def four_corner_coefficients(gmap: GlobalMap, u, v):
    """Bilinear blend of all 4 corner polynomials (the dependent one too)."""
    fu = np.asarray(u, dtype=float)[..., None] / gmap.width
    fv = np.asarray(v, dtype=float)[..., None] / gmap.height
    c = [np.asarray(f.coefficients) for f in
         (gmap.corner_00, gmap.corner_w0, gmap.corner_0h, corner_wh(gmap))]
    return ((1 - fu) * (1 - fv) * c[0] + fu * (1 - fv) * c[1]
            + (1 - fu) * fv * c[2] + fu * fv * c[3])


def global_eval(gmap: GlobalMap, u, v, d):
    """Globally corrected depth at one pixel (bilinear blend of the 4 corners)."""
    if d <= 0.0:
        return 0.0
    return _horner(four_corner_coefficients(gmap, u, v), d)


def horner_steps(c, z, out):
    """sum_k c[..., k] z^k into `out`: c_top copied there, then one in-place
    scale by z and add per lower coefficient. `geometry.horner` gives these
    bits with one pass fewer."""
    np.copyto(out, c[..., -1])
    for k in range(c.shape[-1] - 2, -1, -1):
        out *= z
        out += c[..., k]
    return out


def global_correct(gmap: GlobalMap, u, v, d, out=None):
    """`GlobalMap.correct` with every Horner step, the zero constant terms
    added too. The same bits, except that a -0.0 comes out as +0.0."""
    un = np.asarray(u, dtype=float) / gmap.width
    vn = np.asarray(v, dtype=float) / gmap.height
    c00, cw0, c0h = gmap.corners
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


def correct_rows(dense_u, gmap: GlobalMap, data, v0, v1, out, valid, scratch):
    """d* = g(u(d)) on image rows v0:v1 of data, each pass over all the rows.

    The correction kernel as it was before `depthcal.maps.correct_rows`
    walked row blocks, and the reference for the bits of
    `pipeline.apply_calibration`. Writes d* to `out` (rows, W) and its mask
    to `valid`; pixels whose input, u(d) or d* is not positive get 0 and
    False. `scratch` (2, rows, W) is work space.
    """
    d = data[v0:v1]
    dhat = horner_steps(dense_u[v0:v1], d, scratch[0])
    dstar = global_correct(gmap, np.arange(gmap.width), np.arange(v0, v1)[:, None],
                           dhat, scratch[1])
    # min(d, u(d), d*) > 0 is the validity test; a NaN anywhere fails it
    np.minimum(dhat, d, out=dhat)
    np.minimum(dhat, dstar, out=dhat)
    np.greater(dhat, 0.0, out=valid)
    out[...] = 0.0
    np.copyto(out, dstar, where=valid)


def correct_depth_image(umap: UndistortionMap, gmap: GlobalMap,
                        img: DepthImage) -> DepthImage:
    """Fully corrected depths d* = g(u(d)); invalid pixels stay invalid.

    The depth image that `pipeline.apply_calibration` back-projects, from
    one whole-frame call of `correct_rows`.
    """
    check_sizes(umap, gmap, img)
    out = np.empty((img.height, img.width))
    correct_rows(umap.dense_coefficients(), gmap, img.data, 0, img.height, out,
                 np.empty(out.shape, dtype=bool), np.empty((2,) + out.shape))
    return DepthImage(img.width, img.height, out)


def apply_full_correction(umap: UndistortionMap, gmap: GlobalMap, img,
                          intr: CameraIntrinsics):
    """Undistort, globally correct, and back-project a depth image."""
    return depth_to_cloud(correct_depth_image(umap, gmap, img), intr)


# ---------------------------------------------------------------------------
# stage one


def estimate_undistortion_map(frames, t0, intr_rgb, intr_depth, board, cfg):
    """Stage one over whole-frame clouds: (map, walls, board_poses) as
    `depthcal.estimate_undistortion_map` returns them.

    Per frame it back-projects the whole depth image twice, as it is and
    undistorted by the current map, selects the wall among the undistorted
    cloud's valid points, and takes the original points at the wall pixels.
    """
    rng = np.random.default_rng(cfg.seed)
    umap = UndistortionMap.identity(intr_depth.width, intr_depth.height,
                                    cfg.chi, cfg.psi, cfg.degree)
    moments = FitMoments(umap.grid_shape, cfg.degree)
    walls, board_poses = {}, {}
    for frame, pose in sort_frames_by_distance(frames, intr_rgb, board):
        original = depth_to_cloud(frame.depth, intr_depth)
        undistorted = depth_to_cloud(apply_undistortion(umap, frame.depth), intr_depth)
        try:
            inliers = select_wall_points(undistorted.points[undistorted.valid],
                                         undistorted.valid, pose, t0, board, cfg, rng)
            plane = fit_reference_plane(original.points_at(inliers), inliers, cfg)
        except (CalibrationError, GeometryError):
            continue
        umap = update_map(umap, moments, original.points_at(inliers), inliers,
                          plane)
        wall = np.zeros((intr_depth.height, intr_depth.width), dtype=bool)
        wall[inliers.v, inliers.u] = True
        walls[frame.frame_id] = wall
        board_poses[frame.frame_id] = pose
    return umap, walls, board_poses


# ---------------------------------------------------------------------------
# geometry


def orth_project(p, pl: Plane):
    """Project point(s) orthogonally onto a plane."""
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    pts = p.reshape(-1, 3)
    out = pts - np.outer(pts @ pl.normal - pl.offset, pl.normal)
    return out[0] if single else out


def los_project(p, pl: Plane):
    """Project point(s) onto a plane along the line of sight through the origin."""
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    pts = p.reshape(-1, 3)
    denom = pts @ pl.normal
    if np.any(np.abs(denom) < 1e-12):
        raise GeometryError("line of sight is parallel to the plane")
    out = pts * (pl.offset / denom)[:, None]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# stage-two residuals, one frame at a time


def residual_repr(pose: RigidTransform, corners, intr_rgb: CameraIntrinsics,
                  board: BoardSpec, sigma_c=0.2):
    """Checkerboard reprojection residuals, 2 entries per corner, / sigma_c."""
    cam = pose.apply(board.corners_3d())
    if np.any(cam[:, 2] <= 0):
        raise CalibrationError("board corner behind the camera")
    proj = project_point(intr_rgb, cam)
    return ((proj - np.asarray(corners).reshape(-1, 2)) / sigma_c).ravel()


def board_plane_depth(extrinsic: RigidTransform, pose: RigidTransform,
                      board: BoardSpec) -> Plane:
    """The board plane in the depth frame."""
    corners_depth = extrinsic.inverse().apply(pose.apply(board.corners_3d()))
    return fit_plane(corners_depth)


def residual_pos(extrinsic: RigidTransform, pose: RigidTransform,
                 gmap: GlobalMap, intr_depth: CameraIntrinsics,
                 obs: FrameObservations, board: BoardSpec,
                 sigma_u: NoiseModel = KINECT1_QUANTIZATION):
    """Point-to-board-plane residuals of the globally corrected wall points.

    One entry per wall point: the distance between the corrected point and
    its orthogonal projection onto the board plane (depth frame), scaled by
    1 / (sqrt(|I|) * sigma_u(z)).
    """
    if obs.uv.shape[0] == 0:
        raise CalibrationError("empty inlier set")
    plane = board_plane_depth(extrinsic, pose, board)
    u = obs.uv[:, 0].astype(float)
    v = obs.uv[:, 1].astype(float)
    rays = np.column_stack([(u - intr_depth.cx) / intr_depth.fx,
                            (v - intr_depth.cy) / intr_depth.fy,
                            np.ones_like(u)])
    pts = rays * obs.dhat[:, None]
    coeffs = four_corner_coefficients(gmap, u, v)
    corrected = np.zeros_like(obs.dhat)
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        corrected = corrected * obs.dhat + coeffs[:, k]
    pts = pts * (corrected / obs.dhat)[:, None]
    dist = np.linalg.norm(orth_project(pts, plane) - pts, axis=1)
    sign = np.sign(plane.signed_distance(pts))
    scale = np.sqrt(obs.uv.shape[0]) * sigma_u.sigma(obs.dhat)
    return sign * dist / scale


# ---------------------------------------------------------------------------
# text files, one number at a time


def _fmt(x):
    return format(float(x), ".17g")


def _fn_lines(umap: UndistortionMap):
    gh, gw = umap.grid_shape
    lines = []
    for j in range(gh):
        for i in range(gw):
            coeffs = " ".join(_fmt(c) for c in umap.coefficients[j, i])
            lines.append(f"umap_fn {i} {j} {coeffs}")
    return lines


def corners_text(corners):
    corners = np.asarray(corners, dtype=float)
    lines = ["row,col,u,v"]
    for r in range(corners.shape[0]):
        for c in range(corners.shape[1]):
            lines.append(f"{r},{c},{_fmt(corners[r, c, 0])},{_fmt(corners[r, c, 1])}")
    return "\n".join(lines) + "\n"


def calibration_text(umap: UndistortionMap, gmap: GlobalMap,
                     extrinsic: RigidTransform, intr_depth: CameraIntrinsics,
                     intr_rgb: CameraIntrinsics):
    lines = [
        "# depthcal calibration",
        f"version {FORMAT_VERSION}",
        f"rgb_intrinsics {_intr_tokens(intr_rgb)}",
        f"depth_intrinsics {_intr_tokens(intr_depth)}",
        *_transform_lines("extrinsic", extrinsic),
        f"umap_size {umap.width} {umap.height}",
        f"umap_bins {umap.chi} {umap.psi}",
        f"umap_degree {umap.degree}",
        *_fn_lines(umap),
        f"gmap_degree {gmap.degree}",
    ]
    for name, fn in (("00", gmap.corner_00), ("w0", gmap.corner_w0),
                     ("0h", gmap.corner_0h)):
        coeffs = " ".join(_fmt(c) for c in fn.coefficients)
        lines.append(f"gmap_corner_{name} {coeffs}")
    return "\n".join(lines) + "\n"


def ply_text(cloud: OrganizedCloud):
    pts = cloud.points[cloud.valid]
    lines = [
        "ply",
        "format ascii 1.0",
        "comment depthcal corrected point cloud",
        f"element vertex {pts.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    lines.extend(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}" for p in pts)
    return "\n".join(lines) + "\n"
