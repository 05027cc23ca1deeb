"""Reference forms that only tests call.

The weighted polynomial fit from explicit sample arrays is what the running
moments of `depthcal.maps.FitMoments` stand in for: the same normal
equations, summed over stored samples, with the condition number taken from
an SVD. The moment solve is checked against it.

`moment_fit_batch` is the moment solve on a (k, k, R) stack of normal
matrices, whose factorization `ldl_inverse` sums (p, R) arrays of products,
and `update_map_gathered` is the map update that gathers the sampled
control pixels' rows, adds to them with `add_gathered` and scatters the
fits back. The library works on the whole grid's planes and on one
R-vector per matrix entry instead; these are the references for its bits.
`fit_reference_plane_scanned` scans every wall pixel, where the library
scans the box around the centroid.

`estimate_undistortion_map` is stage one reading every frame as two
whole-frame clouds, the original and the undistorted one, where the library
back-projects only the pixels it reads. Its `select_wall_points` draws the
RANSAC samples one candidate at a time and scores every candidate over all
points, where the library draws them in one call and stops scoring a
candidate that can no longer win. `fit_planes_with_mean` is the plane fit
with the centroid of `mean(axis=0)`, where the library sums each column.

The per-pixel map evaluations, the per-frame stage-two residuals and the
line-of-sight and orthogonal projections are scalar or per-frame forms of
what the library computes vectorized. `normal_equations_by_residual` forms
every column of the refine Jacobian from whole residuals, where the library
fills the global columns' reprojection entries with zeros and evaluates
only their plane rows. `global_eval` blends all four corners
bilinearly, the fourth from `complete_dependent_corner`, so it does not share
the affine evaluator of `GlobalMap.correct`, which stores no fourth corner.

`correct_rows` is the correction kernel making each pass over a whole frame,
with the Horner steps of `horner_steps` and `global_correct`, one pass more
each than the library's. It is the reference for the bits of the blocked
kernel that `pipeline.apply_calibration` runs.

The text writers at the end format one number at a time with
`format(x, ".17g")`. They are the reference for the bytes of the files
`depthcal.formats` writes a block at a time. `ply_bytes` packs one point at
a time with `struct`, the reference for the binary PLY written whole.
`read_keyvals` splits every line of a key-value file into key and text in
Python, the reference for the reader that takes a repeated key's lines out
of the text in one split.
"""

import struct

import numpy as np

from depthcal.calib_global import FrameObservations
from depthcal.calib_undistort import (
    KAPPA,
    MIN_SPREAD_LINEAR,
    MIN_SPREAD_SUPERLINEAR,
    RANSAC_ITERATIONS,
    SEED_ANGLE_DEG,
    SEED_OFFSET_M,
    BoardSpec,
    CalibrationError,
    _seed_plane,
    fit_reference_plane,
    sort_frames_by_distance,
    update_map,
)
from depthcal.formats import (
    FORMAT_VERSION,
    FormatError,
    _intr_tokens,
    _read_text,
    _transform_lines,
    _values,
)
from depthcal.geometry import (
    KINECT1_QUANTIZATION,
    CameraIntrinsics,
    DepthImage,
    GeometryError,
    OrganizedCloud,
    Plane,
    RigidTransform,
    depth_to_cloud,
    fit_plane,
    forward_steps,
    horner,
    plane_through,
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


def fit_weighted_poly_batch(z, z_pi, mask, nm, degree, cond_limit=1e12):
    """Weighted polynomial fits for many sample sets at once.

    z, z_pi, mask: (G, N) arrays; masked-out entries are ignored. Returns
    (coeffs (G, degree+1), ok (G,)) where ok is False for sets that are
    underdetermined or numerically singular; their coefficient rows are 0.
    """
    z = np.asarray(z, dtype=float)
    z_pi = np.asarray(z_pi, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    ncoef = degree + 1
    zs = np.where(mask, z, 1.0)  # placeholder value, zero weight below
    sigma = horner(nm, zs)
    w = np.where(mask, 1.0 / (sigma * sigma), 0.0)
    phi = np.stack([zs ** p for p in range(ncoef)], axis=-1)  # (G, N, ncoef)
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
            coeffs[ok] = sol
    return coeffs, ok


def fit_weighted_poly(samples, nm, degree):
    """Fit one polynomial minimizing sum (f(z) - z_pi)^2 / sigma^2(z).

    `samples` is a (z, z_pi) pair of arrays; returns the coefficients,
    constant term first. Raises MapError when the samples do not determine
    the fit.
    """
    z, z_pi = (np.asarray(a, dtype=float) for a in samples)
    ncoef = degree + 1
    if z.size < ncoef:
        raise MapError(f"need at least {ncoef} samples for degree {degree}")
    coeffs, ok = fit_weighted_poly_batch(z[None, :], z_pi[None, :],
                                         np.ones((1, z.size), dtype=bool),
                                         nm, degree)
    if not ok[0]:
        raise MapError("singular normal matrix (samples do not determine the fit)")
    return PolyFn(coeffs[0])


def moments_of(z, z_pi, degree):
    """A one-pixel FitMoments state holding the samples (z[k], z_pi[k])."""
    moments = FitMoments((1, 1), degree)
    for zk, zpk in zip(np.asarray(z, dtype=float), np.asarray(z_pi, dtype=float)):
        moments.add(np.array([True]), np.array([zk]), np.array([zpk]))
    return moments


# ---------------------------------------------------------------------------
# the moment solve and the map update on gathered rows


def add_gathered(moments, idx, z, z_pi):
    """`FitMoments.add` on the gathered rows of the distinct flat control
    indices `idx`: sample (z[k], z_pi[k]) goes to control pixel idx[k]."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise MapError("sample depths must be positive")
    sigma = horner(KINECT1_QUANTIZATION, z)
    w = 1.0 / (sigma * sigma)
    wz = w[:, None] * z[:, None] ** np.arange(2 * moments.degree + 1)
    g = moments.count.size
    moments.zpow.reshape(g, -1)[idx] += wz
    moments.zpi.reshape(g, -1)[idx] += wz[:, :moments.degree + 1] * np.asarray(z_pi)[:, None]
    moments.count.reshape(g)[idx] += 1
    zmin = moments.zmin.reshape(g)
    zmax = moments.zmax.reshape(g)
    zmin[idx] = np.minimum(zmin[idx], z)
    zmax[idx] = np.maximum(zmax[idx], z)


def ldl_inverse(a):
    """Factors of the inverses of a stack of symmetric matrices (k, k, R):
    (m, d), m = L^-1 (k, k, R) unit lower triangular and the pivots d (k, R)
    of the unpivoted LDL^T, so that A^-1 = m^T diag(1 / d) m. Each step sums
    a (p, R) array of products with `np.sum(axis=0)`."""
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


def moment_fit_batch(zpow, zpi, count, degree, cond_limit=1e12):
    """`depthcal.maps.fit_weighted_poly_batch` on a (k, k, R) stack of normal
    matrices factored by `ldl_inverse`: the reference for its bits."""
    k = degree + 1
    powers = np.arange(k)
    normal = np.asarray(zpow, dtype=float).T[powers[:, None] + powers[None, :]]
    rhs = np.asarray(zpi, dtype=float).T[powers]
    m, d = ldl_inverse(normal)
    ok = (np.asarray(count) >= k) & np.all(d > 0, axis=0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = np.trace(normal) * np.sum(np.sum(m * m, axis=1) / d, axis=0)
        y = np.sum(m * rhs, axis=1) / d
        coeffs = np.sum(m * y[:, None], axis=0).T
    exact = ok & ~(bound < cond_limit / 2)
    if np.any(exact):
        eig = np.abs(np.linalg.eigvalsh(np.moveaxis(normal[..., exact], -1, 0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = eig.max(axis=1) / eig.min(axis=1)
        ok[exact] = cond < cond_limit
    coeffs[~ok] = 0.0
    return coeffs, ok


def update_map_gathered(umap, moments, points, wall, plane):
    """`depthcal.update_map` on gathered rows: the sampled control pixels'
    indices `sel`, their moments gathered for each fit by index into `sel`
    and the fitted rows scattered back, with `add_gathered` and
    `moment_fit_batch`."""
    denom = points @ plane.normal
    good = np.abs(denom) > 1e-12
    wall = np.array(wall, dtype=bool)
    wall[wall] = good
    z = points[good, 2]
    z_pi = plane.offset * z / denom[good]
    gh, gw = umap.grid_shape
    w_sum, wz_sum, wzpi_sum = umap.splat(wall, (1.0, z, z_pi)).reshape(3, gh * gw)
    sel = np.nonzero(w_sum > 0)[0]
    add_gathered(moments, sel, wz_sum[sel] / w_sum[sel], wzpi_sum[sel] / w_sum[sel])
    zpow = moments.zpow.reshape(gh * gw, -1)[sel]
    zpi = moments.zpi.reshape(gh * gw, -1)[sel]
    count = moments.count.reshape(gh * gw)[sel]
    spread = moments.zmax.reshape(gh * gw)[sel] - moments.zmin.reshape(gh * gw)[sel]
    new_coeffs = umap.coefficients.copy()
    flat_out = new_coeffs.reshape(gh * gw, -1)
    pending = np.ones(sel.size, dtype=bool)
    for deg in range(umap.degree, 0, -1):
        if not np.any(pending):
            break
        min_spread = MIN_SPREAD_LINEAR if deg == 1 else MIN_SPREAD_SUPERLINEAR
        rows = np.nonzero(pending & (spread >= min_spread))[0]
        if rows.size == 0:
            continue
        coeffs, ok = moment_fit_batch(zpow[rows], zpi[rows], count[rows], deg)
        good = rows[ok]
        flat_out[sel[good], :] = 0.0
        flat_out[sel[good], :deg + 1] = coeffs[ok]
        pending[good] = False
    return umap.with_coefficients(new_coeffs)


def fit_reference_plane_scanned(points, wall, cfg):
    """`depthcal.fit_reference_plane` scanning every wall pixel, with the
    centroid `u.mean()`, `v.mean()` of their coordinates."""
    v, u = np.nonzero(wall)
    if u.size == 0:
        raise CalibrationError("empty inlier set")
    keep = np.hypot(u - u.mean(), v - v.mean()) <= cfg.fit_radius
    if np.count_nonzero(keep) < 3:
        raise CalibrationError("fewer than 3 inliers inside the fit radius")
    return fit_plane(points[keep])


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


def complete_dependent_corner(g00, gw0, g0h):
    """Fourth-corner coefficients from the planarity constraint gWH = gW0 + g0H - g00."""
    g00, gw0, g0h = (np.asarray(c, dtype=float) for c in (g00, gw0, g0h))
    if not (g00.shape == gw0.shape == g0h.shape):
        raise MapError("corner polynomials must share the same degree")
    if not (g00[0] == gw0[0] == g0h[0] == 0.0):
        raise MapError("corner polynomials must have a zero constant term")
    return PolyFn(gw0 + g0h - g00, constant_zero=True)


def corner_wh(gmap: GlobalMap):
    """The dependent corner (W, H) of a global map."""
    return complete_dependent_corner(*gmap.corners)


def four_corner_coefficients(gmap: GlobalMap, u, v):
    """Bilinear blend of all 4 corner polynomials (the dependent one too)."""
    fu = np.asarray(u, dtype=float)[..., None] / gmap.width
    fv = np.asarray(v, dtype=float)[..., None] / gmap.height
    c = [*gmap.corners, corner_wh(gmap)]
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


def select_wall_points(points, pixels, board_pose, t0, board, cfg, rng):
    """`depthcal.select_wall_points` scoring every candidate in full: one
    `rng.integers(0, N, size=3)` draw per iteration, and every candidate near
    the seed scored over all N points."""
    seed = _seed_plane(board_pose, t0, board)
    if points.shape[0] != np.count_nonzero(pixels):
        raise CalibrationError("wall selection needs one point per pixel")
    if points.shape[0] < cfg.min_inliers:
        raise CalibrationError("not enough valid depth points for wall selection")
    if abs(seed.normal[2]) > 0.2:
        z_bar = seed.offset / abs(seed.normal[2])
    else:
        z_bar = float(np.mean(points[:, 2]))
    threshold = KAPPA * horner(KINECT1_QUANTIZATION, z_bar)
    cos_gate = np.cos(np.deg2rad(SEED_ANGLE_DEG))

    def near_seed(plane):
        return (abs(plane.normal @ seed.normal) >= cos_gate
                and abs(plane.offset - seed.offset) <= SEED_OFFSET_M)

    def count_inliers(plane):
        return np.abs(plane.signed_distance(points)) <= threshold

    best_mask = count_inliers(seed)
    best_count = np.count_nonzero(best_mask)
    for _ in range(RANSAC_ITERATIONS):
        take = rng.integers(0, points.shape[0], size=3)
        try:
            cand = plane_through(points[take])
        except GeometryError:
            continue
        if not near_seed(cand):
            continue
        mask = count_inliers(cand)
        n = np.count_nonzero(mask)
        if n > best_count:
            best_mask, best_count = mask, n
    if best_count < cfg.min_inliers:
        raise CalibrationError("no candidate plane near the checkerboard seed")
    refined = fit_plane(points[best_mask])
    if near_seed(refined):
        mask = count_inliers(refined)
        if np.count_nonzero(mask) >= cfg.min_inliers:
            best_mask = mask
    return np.flatnonzero(pixels)[best_mask]


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
        wall = np.zeros((intr_depth.height, intr_depth.width), dtype=bool)
        try:
            wall.reshape(-1)[select_wall_points(
                undistorted.points[undistorted.valid], undistorted.valid, pose, t0,
                board, cfg, rng)] = True
            plane = fit_reference_plane(original.points[wall], wall, cfg)
        except (CalibrationError, GeometryError):
            continue
        umap = update_map(umap, moments, original.points[wall], wall, plane)
        walls[frame.frame_id] = wall
        board_poses[frame.frame_id] = pose
    return umap, walls, board_poses


# ---------------------------------------------------------------------------
# geometry


def fit_planes_with_mean(points):
    """`depthcal.geometry.fit_planes` with the centroid `points.mean(axis=0)`
    and the centered copy `points - centroid`."""
    centroid = points.mean(axis=0)
    centered = points - centroid
    lam, vec = np.linalg.eigh(centered.T @ centered)
    normal = vec[:, 0]
    offset = np.einsum("i,i->", normal, centroid)
    if offset < 0:
        normal, offset = -normal, -offset
    return normal, offset, lam


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
                 sigma_u=KINECT1_QUANTIZATION):
    """Point-to-board-plane residuals of the globally corrected wall points.

    One entry per wall point: the distance between the corrected point and
    its orthogonal projection onto the board plane (depth frame), scaled by
    1 / (sqrt(|I|) * sigma_u(z)), sigma_u a noise polynomial's coefficients.
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
    scale = np.sqrt(obs.uv.shape[0]) * horner(sigma_u, obs.dhat)
    return sign * dist / scale


def normal_equations_by_residual(problem, fn, x, r):
    """`_RefineProblem.normal_equations` with every column a forward
    difference of whole residuals: 16 evaluations of `fn` for the global
    columns, reprojection rows included, and 6 for the pose columns. The
    reference for the bits of JᵀJ and Jᵀr."""
    steps = forward_steps(x)
    m = len(problem.obs)
    r_frame = r.reshape(m, -1)
    jac = np.empty(r_frame.shape + (22,))
    for i in range(16):
        xp = x.copy()
        xp[i] += steps[i]
        jac[:, :, i] = ((fn(xp) - r) / steps[i]).reshape(m, -1)
    pose_steps = steps[16:].reshape(m, 6)
    for p in range(6):
        xp = x.copy()
        xp[16 + p::6] += pose_steps[:, p]
        jac[:, :, 16 + p] = (fn(xp) - r).reshape(m, -1) / pose_steps[:, p, None]
    prod = jac.transpose(0, 2, 1) @ jac
    jtj = np.zeros((x.size, x.size))
    jtj[:16, :16] = prod[:, :16, :16].sum(axis=0)
    jtj[:16, 16:] = prod[:, :16, 16:].transpose(1, 0, 2).reshape(16, -1)
    jtj[16:, :16] = jtj[:16, 16:].T
    frames = np.arange(m)
    jtj[16:, 16:].reshape(m, 6, m, 6)[frames, :, frames, :] = prod[:, 16:, 16:]
    jtr = np.einsum("mri,mr->mi", jac, r_frame)
    return jtj, np.concatenate([jtr[:, :16].sum(axis=0), jtr[:, 16:].ravel()])


# ---------------------------------------------------------------------------
# text files, one number or line at a time


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
    for name, row in zip(("00", "w0", "0h"), gmap.corners):
        coeffs = " ".join(_fmt(c) for c in row)
        lines.append(f"gmap_corner_{name} {coeffs}")
    return "\n".join(lines) + "\n"


def read_keyvals(path, repeated=()):
    """`depthcal.formats._read_keyvals` one line at a time, for any number of
    repeated keys: ({key: tokens}, {key: texts})."""
    kv = {}
    texts = {key: [] for key in repeated}
    for line in _read_text(path).split("\n"):
        head = line.partition("#")[0].split(None, 1)
        if not head:
            continue
        key, text = head if len(head) == 2 else (head[0], "")
        if key in texts:
            texts[key].append(text)
        elif key in kv:
            raise FormatError(f"{path}: {key} given twice")
        else:
            kv[key] = text.split()
    if "version" in kv:
        [version] = _values(kv["version"], 1, f"{path}: version", int)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
    return kv, texts


def ply_bytes(cloud: OrganizedCloud):
    pts = cloud.points[cloud.valid]
    lines = [
        "ply",
        "format binary_little_endian 1.0",
        "comment depthcal corrected point cloud",
        f"element vertex {pts.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    header = ("\n".join(lines) + "\n").encode("ascii")
    return header + b"".join(struct.pack("<3d", *p) for p in pts.tolist())
