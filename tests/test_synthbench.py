import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthcal as dc
from depthcal import formats
from depthcal import synthbench as sb
from depthcal.geometry import horner
from depthcal.maps import PolyFn
from depthcal.synthbench import invert_monotone_quadratic


def tiny_scene(**kw):
    params = dict(n_train=10, n_test=3, seed=2, noise=False, width=80, height=60,
                  distortion=sb.bowl_distortion(80, 60, grid_bin=(2, 2)))
    params.update(kw)
    return sb.standard_scene(**params)


# ---------------------------------------------------------------------------
# quadratic inversion


@settings(max_examples=100, deadline=None)
@given(b=st.floats(0.9, 1.1), c=st.floats(-0.02, 0.02), z=st.floats(0.5, 5.0))
def test_invert_monotone_quadratic_round_trip(b, c, z):
    y = b * z + c * z * z
    back = invert_monotone_quadratic(0.0, b, c, y)
    assert back == pytest.approx(z, abs=1e-10)


def test_invert_rejects_unreachable_value():
    with pytest.raises(ValueError):
        invert_monotone_quadratic(0.0, 1.0, -0.1, 10.0)


# ---------------------------------------------------------------------------
# GroundTruthDistortion


def test_distortion_requires_monotone_field():
    field = dc.UndistortionMap.identity(16, 16, 16, 16, degree=2)
    coeffs = field.coefficients.copy()
    coeffs[:, :, 2] = -0.2  # slope 1 - 0.4 d goes negative inside [0.5, 5]
    with pytest.raises(ValueError):
        sb.GroundTruthDistortion(field.with_coefficients(coeffs),
                                 (0.0, 1.0, 0.0))


@pytest.mark.parametrize("where", ["field", "global"])
def test_distortion_rejects_nan_coefficients(where):
    # NaN fails every comparison, so a `slope <= 0` check lets it through
    field = dc.UndistortionMap.identity(16, 16, 16, 16, degree=2)
    coeffs = field.coefficients.copy()
    gc = [0.0, 1.0, 0.0]
    if where == "field":
        coeffs[0, 0, 2] = np.nan
    else:
        gc[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sb.GroundTruthDistortion(field.with_coefficients(coeffs),
                                 PolyFn(gc, constant_zero=True))


@pytest.mark.parametrize("field_degree,gc", [
    (2, (0.0, 0.97, 0.008, 0.001)),  # corrupt inverts G's terms up to z^2 only
    (2, (0.0, 0.97, 0.008, 0.0, 1e-4)),
    (2, (0.0,)),
    (1, (0.0, 1.0, 0.0)),  # corrupt inverts the field as a quadratic
    (3, (0.0, 1.0, 0.0)),
])
def test_distortion_rejects_degrees_the_renderer_cannot_invert(field_degree, gc):
    field = dc.UndistortionMap.identity(16, 16, 16, 16, degree=field_degree)
    with pytest.raises(ValueError, match="degree"):
        sb.GroundTruthDistortion(field, PolyFn(gc, constant_zero=True))


def test_distortion_holds_its_global_correction_as_a_read_only_array():
    field = dc.UndistortionMap.identity(16, 16, 16, 16, degree=2)
    dist = sb.GroundTruthDistortion(field, [0, 0.97, 0.008])
    assert dist.global_correction.dtype == float
    assert dist.global_correction.tolist() == [0.0, 0.97, 0.008]
    assert not dist.global_correction.flags.writeable
    with pytest.raises(ValueError, match="zero constant term"):
        sb.GroundTruthDistortion(field, (0.01, 0.97, 0.008))


def test_corrupt_then_correct_is_identity():
    dist = sb.bowl_distortion(32, 24, peak=0.02, grid_bin=(4, 4),
                              global_correction=PolyFn((0.0, 0.97, 0.008),
                                                       constant_zero=True))
    rng = np.random.default_rng(0)
    true_depth = rng.uniform(0.8, 4.5, (24, 32))
    valid = np.ones((24, 32), dtype=bool)
    observed = dist.corrupt(true_depth, valid)
    uu, vv = np.meshgrid(np.arange(32.0), np.arange(24.0))
    back = dist.correct_exact(uu, vv, observed)
    assert np.max(np.abs(back - true_depth)) < 1e-10


# ---------------------------------------------------------------------------
# render_frame


def test_render_constant_depth_on_fronto_parallel_wall():
    scene = tiny_scene(distortion=sb.bowl_distortion(80, 60, peak=0.0,
                                                     grid_bin=(2, 2)))
    idx = scene.n_train + 1  # fronto-parallel test pose
    lf = sb.render_frame(scene, idx)
    wall = lf.labels == sb.LABEL_WALL
    d = scene.test_distances[1]
    assert wall.any()
    assert np.allclose(lf.frame.depth.data[wall], d, atol=1e-12)


def test_render_border_depth_matches_forward_field():
    scene = tiny_scene()
    idx = scene.n_train + 2  # farthest test pose
    lf = sb.render_frame(scene, idx)
    d_true = lf.true_depth.data
    observed = lf.frame.depth.data
    expected = scene.distortion.corrupt(d_true, lf.true_depth.valid)
    assert np.max(np.abs(observed - expected)[lf.true_depth.valid]) < 1e-12
    # the border pixels really are pushed away from the wall
    assert observed[30, 0] > d_true[30, 0] + 0.01


def test_render_noise_statistics():
    scene = tiny_scene(noise=True, width=160, height=120,
                       distortion=sb.bowl_distortion(160, 120, peak=0.0,
                                                     grid_bin=(2, 2)))
    lf = sb.render_frame(scene, scene.n_frames - 1)  # 4.5 m, big sigma
    wall = (lf.labels == sb.LABEL_WALL) & lf.frame.depth.valid
    assert wall.sum() >= 10_000
    residual = lf.frame.depth.data[wall] - lf.true_depth.data[wall]
    sigma = horner(dc.KINECT1_QUANTIZATION, 4.5)
    assert np.std(residual) == pytest.approx(sigma, rel=0.10)


def test_render_is_deterministic():
    scene = tiny_scene(noise=True)
    a = sb.render_frame(scene, 3)
    b = sb.render_frame(scene, 3)
    assert np.array_equal(a.frame.depth.data, b.frame.depth.data)
    assert np.array_equal(a.frame.corners, b.frame.corners)


def test_render_wall_labels_lie_on_wall_plane():
    scene = tiny_scene(floor_y=0.8)
    for idx in (0, scene.n_frames - 1):
        lf = sb.render_frame(scene, idx)
        cloud = dc.depth_to_cloud(lf.true_depth, scene.intr_depth)
        wall_s = dc.transform_plane(scene.pose(idx).inverse(), scene.wall)
        pts = cloud.points[lf.labels == sb.LABEL_WALL]
        assert np.max(np.abs(wall_s.signed_distance(pts))) < 1e-9


def test_render_floor_respects_gap():
    scene = tiny_scene(floor_y=0.8, n_test=3)
    lf = sb.render_frame(scene, scene.n_frames - 1)
    floor = lf.labels == sb.LABEL_FLOOR
    assert floor.any()
    cloud = dc.depth_to_cloud(lf.true_depth, scene.intr_depth)
    wall_s = dc.transform_plane(scene.pose(scene.n_frames - 1).inverse(), scene.wall)
    gaps = wall_s.signed_distance(cloud.points[floor])
    assert np.max(gaps) <= -sb.FLOOR_GAP + 1e-9


def test_render_corner_noise_uses_sigma_c():
    noisy = tiny_scene(noise=True, seed=6)
    clean = tiny_scene(noise=False, seed=6)
    shift = []
    for idx in range(6):
        a = sb.render_frame(noisy, idx)
        b = sb.render_frame(clean, idx)
        shift.append((a.frame.corners - b.frame.corners).ravel())
    shift = np.concatenate(shift)
    assert np.std(shift) == pytest.approx(noisy.sigma_c, rel=0.15)


def test_scene_rejects_board_off_wall():
    scene = tiny_scene()
    with pytest.raises(ValueError):
        sb.SceneSpec(wall=dc.Plane((0, 0, 1.0), 0.5), floor=None,
                     board=scene.board, board_pose=scene.board_pose,
                     true_extrinsic=scene.true_extrinsic,
                     intr_rgb=scene.intr_rgb, intr_depth=scene.intr_depth,
                     distortion=scene.distortion,
                     train_poses=scene.train_poses,
                     test_distances=scene.test_distances)


# ---------------------------------------------------------------------------
# metrics


def plane_cloud(depth=2.0, width=32, height=24):
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=width, height=height)
    img = dc.DepthImage(width, height, np.full((height, width), depth))
    cloud = dc.depth_to_cloud(img, intr)
    return cloud, cloud.valid


def test_planarity_error_exact_plane_is_zero():
    cloud, inl = plane_cloud()
    assert sb.planarity_error(cloud, inl) < 1e-12


def test_planarity_error_symmetric_offsets():
    # +-1 cm z-offsets in a pattern with zero mean and zero correlation with
    # u and v, so the fitted plane stays z = 2 and the RMS is exactly 0.01
    uu, vv = np.meshgrid(np.arange(32.0), np.arange(24.0))
    sign = np.where(np.isin(uu % 4, (0, 3)), 1.0, -1.0)
    pts = np.stack([uu, vv, 2.0 + 0.01 * sign], axis=2)
    cloud = dc.OrganizedCloud(32, 24, pts, np.ones((24, 32), dtype=bool))
    assert sb.planarity_error(cloud, cloud.valid) == pytest.approx(0.01, rel=1e-9)


def test_planarity_error_needs_three_points():
    cloud, _ = plane_cloud()
    two = np.zeros((24, 32), dtype=bool)
    two[0, 0] = two[1, 1] = True
    with pytest.raises(dc.CalibrationError):
        sb.planarity_error(cloud, two)


def test_global_error_on_plane_is_zero():
    cloud, inl = plane_cloud()
    assert abs(sb.global_error(cloud, inl, dc.Plane((0, 0, 1.0), 2.0))) < 1e-12


def test_global_error_translated_cloud():
    cloud, inl = plane_cloud()
    pts = cloud.points.copy()
    pts[:, :, 2] += 0.02
    moved = dc.OrganizedCloud(32, 24, pts, cloud.valid)
    err = sb.global_error(moved, inl, dc.Plane((0, 0, 1.0), 2.0))
    assert err == pytest.approx(0.02, abs=1e-12)


def test_rotation_error_examples():
    assert sb.rotation_error((0, 0, 1.0), (1.0, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert sb.rotation_error((1.0, 0, 0), (1.0, 0, 0)) == pytest.approx(-90.0)
    # a 2 degree tilt of the normal toward the axis flips the sign convention
    tilt = np.deg2rad(2.0)
    n = np.array([-np.sin(tilt), 0.0, np.cos(tilt)])
    assert sb.rotation_error(n, (1.0, 0, 0)) == pytest.approx(2.0, abs=1e-9)
    assert sb.rotation_error(-n, (1.0, 0, 0)) == pytest.approx(-2.0, abs=1e-9)


def test_rotation_error_rejects_non_unit():
    with pytest.raises(ValueError):
        sb.rotation_error((0, 0, 2.0), (1.0, 0, 0))


def test_depth_vs_ground_truth_bias():
    cloud, inl = plane_cloud(depth=2.05)
    assert sb.depth_vs_ground_truth(cloud, inl, 2.0) == pytest.approx(0.05, abs=1e-12)


# ---------------------------------------------------------------------------
# dataset generation


def test_generate_dataset_layout(tmp_path):
    scene = tiny_scene(noise=True)
    out = sb.generate_dataset(scene, tmp_path / "ds")
    manifest = formats.read_manifest(f"{out}/manifest.txt")
    assert len(manifest.frames) == 13
    test_dists = [fr.true_distance for fr in manifest.frames
                  if fr.true_distance is not None]
    assert len(test_dists) == 3
    assert test_dists == sorted(test_dists)
    assert all(a < b for a, b in zip(test_dists, test_dists[1:]))


def test_generate_dataset_requires_ten_training_frames(tmp_path):
    scene = tiny_scene(n_train=5, n_test=2)
    with pytest.raises(ValueError):
        sb.generate_dataset(scene, tmp_path / "ds")


def test_dataset_round_trip_bit_exact(tmp_path):
    scene = tiny_scene(noise=True, n_test=2)
    out = sb.generate_dataset(scene, tmp_path / "ds")
    manifest = formats.read_manifest(f"{out}/manifest.txt")
    loaded = dict(formats.load_frames(manifest, out))
    for k in range(scene.n_train):
        lf = sb.render_frame(scene, k)
        stored = next(frame for mf, frame in loaded.items()
                      if mf.frame_id == lf.frame.frame_id)
        # noise-on rendering quantizes to whole millimeters, so the PGM
        # round trip reproduces the pixel data exactly
        assert np.array_equal(stored.depth.data, lf.frame.depth.data)
