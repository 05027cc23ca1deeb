import csv
import errno
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthcal as dc
from depthcal import formats
from depthcal import synthbench as sb
from depthcal import cli
from depthcal.cli import _SCENE_KEYS, _read_scene_file, _write_calibration_report, main
from depthcal.maps import PolyFn
from oracles import correct_depth_image
from test_formats import mutate_one_token


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small noisy dataset on disk, shared across the CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "ds"
    scene = sb.standard_scene(n_train=12, n_test=3, seed=4, noise=True,
                              width=160, height=120,
                              distortion=sb.bowl_distortion(160, 120,
                                                            grid_bin=(2, 2)))
    sb.generate_dataset(scene, out)
    return str(out)


@pytest.fixture(scope="module")
def calibration(dataset, tmp_path_factory):
    calib = str(tmp_path_factory.mktemp("cli") / "calib.txt")
    code = main(["calibrate", "--dataset", dataset, "--out", calib,
                 "--bin", "2x2", "--fit-radius", "24", "--min-inliers", "50",
                 "--seed", "3"])
    assert code == 0
    return calib


def identity_calibration(path, width=32, height=24):
    umap = dc.UndistortionMap.identity(width, height, 4, 4, 2)
    gmap = dc.GlobalMap.identity(width, height)
    intr = dc.CameraIntrinsics(fx=40.0, fy=40.0, cx=width / 2 - 0.5,
                               cy=height / 2 - 0.5, width=width, height=height)
    rgb = dc.CameraIntrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5,
                              width=640, height=480)
    formats.write_calibration(path, umap, gmap, dc.RigidTransform.identity(),
                              intr, rgb)
    return intr


def test_simulate_writes_dataset(tmp_path):
    out = tmp_path / "ds"
    code = main(["simulate", "--out", str(out), "--train", "10", "--test", "2",
                 "--seed", "1"])
    assert code == 0
    manifest = formats.read_manifest(out / "manifest.txt")
    assert len(manifest.frames) == 12
    assert sorted(os.listdir(out)) == ["corners", "depth", "manifest.txt"]


def test_simulate_scene_file(tmp_path):
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text(
        "# test scene\nimage_width 80\nimage_height 60\npeak 0.01\n"
        "noise off\nglobal_correction 0.98 0.004\n")
    out = tmp_path / "ds"
    code = main(["simulate", "--scene", str(scene_file), "--out", str(out),
                 "--train", "10", "--test", "2", "--seed", "1"])
    assert code == 0
    gcorr = PolyFn((0.0, 0.98, 0.004), constant_zero=True)
    scene = sb.standard_scene(n_train=10, n_test=2, seed=1, noise=False, width=80,
                              height=60,
                              distortion=sb.bowl_distortion(80, 60, peak=0.01,
                                                            global_correction=gcorr))
    formats.write_depth_pgm(tmp_path / "expect.pgm", sb.render_frame(scene, 0).frame.depth)
    assert ((out / "depth" / "train_000.pgm").read_bytes()
            == (tmp_path / "expect.pgm").read_bytes())


def test_simulate_rejects_unknown_scene_key(tmp_path):
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text("bogus_key 1\n")
    code = main(["simulate", "--scene", str(scene_file), "--out",
                 str(tmp_path / "ds"), "--train", "10", "--test", "2"])
    assert code == 1


def test_simulate_reports_poses_that_see_no_wall(tmp_path, capsys):
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text("image_width 80\nimage_height 60\n"
                          "distance_range 0.05 0.1\n")
    code = main(["simulate", "--scene", str(scene_file), "--out",
                 str(tmp_path / "ds"), "--train", "10", "--test", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pose ") and "sees no wall" in err
    assert "Traceback" not in err


def test_simulate_rejects_negative_corner_noise(tmp_path, capsys):
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text("image_width 80\nimage_height 60\nsigma_c -1\n")
    code = main(["simulate", "--scene", str(scene_file), "--out",
                 str(tmp_path / "ds"), "--train", "10", "--test", "2"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: sigma_c must not be negative")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("scene, message", [
    ("image_width 80\nimage_height 60\nflat_frac 1\n", "flat_frac must be in [0, 1), got 1.0"),
    ("image_width 1\nimage_height 60\n", "at least 2, got 1x60"),
], ids=["flat_frac 1", "image_width 1"])
def test_simulate_rejects_a_scene_whose_distortion_divides_by_zero(tmp_path, capsys,
                                                                    scene, message):
    # the field's 0 / 0 would make a NaN distortion field
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text(scene)
    code = main(["simulate", "--scene", str(scene_file), "--out",
                 str(tmp_path / "ds"), "--train", "10", "--test", "2"])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


VALID_SCENE = ("image_width 80\nimage_height 60\npeak 0.01\nflat_frac 0.4\n"
               "asym 0.1\nzero_depth 1.05\nbowl_bins 2 2\n"
               "global_correction 0.98 0.004\nextrinsic_translation 0.025 0 0\n"
               "extrinsic_quaternion 1 0 0 0\ndistance_range 1 4\ntilt_deg 12\n"
               "test_range 1 4.5\nfloor_y 0.9\nsigma_c 0.2\nnoise off\n")


@pytest.mark.parametrize("line", [
    "peak", "noise", "peak nan", "bowl_bins 2", "bowl_bins 2 2 2",
    "bowl_bins 2.5 2", "image_width x", "tilt_deg inf", "noise maybe",
    "extrinsic_translation 0 0", "global_correction 0.98", "image_width 0",
    "bowl_bins 2 -1", "image_width 8_0", "image_width \u0668\u0660",
])
def test_scene_file_rejects_malformed_line(tmp_path, line):
    path = tmp_path / "scene.txt"
    path.write_text(line + "\n")
    with pytest.raises(formats.FormatError):
        _read_scene_file(path)


def test_scene_file_reads_every_key(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(VALID_SCENE)
    params = _read_scene_file(path)
    assert set(params) == set(_SCENE_KEYS)
    assert params["image_width"] == 80 and params["bowl_bins"] == (2, 2)
    assert params["extrinsic_quaternion"] == (1.0, 0.0, 0.0, 0.0)
    assert params["noise"] is False


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scene_file_reader_raises_only_format_error(tmp_path_factory, data):
    """One line of a valid scene file loses, repeats or changes one token."""
    path = tmp_path_factory.mktemp("scene") / "scene.txt"
    path.write_text(mutate_one_token(data, VALID_SCENE))
    try:
        params = _read_scene_file(path)
    except formats.FormatError:
        return
    assert set(params) <= set(_SCENE_KEYS)
    for value in params.values():
        assert np.all(np.isfinite(np.asarray(value, dtype=float)))


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_calibration_file_exits_1(tmp_path, capsys):
    code = main(["correct", "--calib", str(tmp_path / "nope.txt"),
                 "--in", str(tmp_path / "nope.pgm"),
                 "--out", str(tmp_path / "out.ply")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["correct", "--calib", "calib.txt", "--in", "a_dir", "--out", "out.ply"],
    ["correct", "--calib", "a_dir", "--in", "depth.pgm", "--out", "out.ply"],
    ["correct", "--calib", "calib.txt", "--in", "depth.pgm", "--out", "a_dir"],
    ["simulate", "--scene", "scene.txt", "--out", "a_file", "--train", "10",
     "--test", "1"],
], ids=["correct --in dir", "correct --calib dir", "correct --out dir",
        "simulate --out file"])
def test_a_path_of_the_wrong_kind_is_an_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    identity_calibration(tmp_path / "calib.txt")
    formats.write_depth_pgm(tmp_path / "depth.pgm",
                            dc.DepthImage(32, 24, np.full((24, 32), 1.5)))
    (tmp_path / "scene.txt").write_text("image_width 40\nimage_height 30\n")
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.rglob(".tmp_depthcal_*"))
    assert not (tmp_path / "out.ply").exists()


@pytest.mark.parametrize("command", ["correct", "calibrate"])
def test_a_failed_write_names_the_path_given_and_leaves_no_file(
        dataset, calibration, tmp_path, monkeypatch, capsys, command):
    # calibrate renames its calibration into place only after the report
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_dir").mkdir()
    argv = {"correct": ["correct", "--calib", calibration, "--in",
                        os.path.join(dataset, "depth", "test_00.pgm"), "--out", "a_dir"],
            "calibrate": ["calibrate", "--dataset", dataset, "--out", "c.txt",
                          "--report", "a_dir", "--bin", "2x2", "--fit-radius", "24",
                          "--min-inliers", "50"]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'a_dir'\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["a_dir"]


def test_calibrate_keeps_the_old_calibration_when_the_report_fails(dataset, tmp_path):
    out = tmp_path / "c.txt"
    out.write_bytes(b"an earlier calibration\n")
    (tmp_path / "a_dir").mkdir()
    code = main(["calibrate", "--dataset", dataset, "--out", str(out), "--report",
                 str(tmp_path / "a_dir"), "--bin", "2x2", "--fit-radius", "24",
                 "--min-inliers", "50"])
    assert code == 1
    assert out.read_bytes() == b"an earlier calibration\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_dir", "c.txt"]


@pytest.mark.parametrize("old_report", [False, True])
def test_calibrate_out_a_directory_writes_no_report(dataset, tmp_path, monkeypatch,
                                                    capsys, old_report):
    # the directory is found before the report is renamed into place
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_dir").mkdir()
    report = tmp_path / "a_dir.report.csv"
    if old_report:
        report.write_bytes(b"an earlier report\n")
    code = main(["calibrate", "--dataset", dataset, "--out", "a_dir", "--bin", "2x2",
                 "--fit-radius", "24", "--min-inliers", "50"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'a_dir'\n"
    if old_report:
        assert report.read_bytes() == b"an earlier report\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == (
        ["a_dir", "a_dir.report.csv"] if old_report else ["a_dir"])


@pytest.mark.parametrize("level", ["bogus", "info", ""])
def test_an_unknown_log_level_is_an_error_line(tmp_path, monkeypatch, capsys, level):
    monkeypatch.setenv("DEPTHCAL_LOG", level)
    out = tmp_path / "ds"
    code = main(["simulate", "--out", str(out), "--train", "10", "--test", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: DEPTHCAL_LOG must name a logging level")
    assert not out.exists()


def test_calibrate_names_a_depth_image_of_the_wrong_size(dataset, tmp_path, capsys):
    copy = tmp_path / "ds"
    shutil.copytree(dataset, copy)
    pgm = copy / "depth" / "train_000.pgm"
    img = formats.read_depth_pgm(pgm)
    formats.write_depth_pgm(pgm, dc.DepthImage(img.width - 1, img.height,
                                               img.data[:, :-1]))
    code = main(["calibrate", "--dataset", str(copy), "--out", str(tmp_path / "c.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "train_000" in err and "159x120" in err


def test_correct_names_a_depth_image_of_the_wrong_size(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    identity_calibration(tmp_path / "calib.txt", 32, 24)
    formats.write_depth_pgm(tmp_path / "depth.pgm",
                            dc.DepthImage(16, 12, np.full((12, 16), 1.5)))
    assert main(["correct", "--calib", "calib.txt", "--in", "depth.pgm",
                 "--out", "out.ply"]) == 1
    assert capsys.readouterr().err == "error: depth.pgm is 16x12, not the 32x24 of calib.txt\n"
    assert not (tmp_path / "out.ply").exists()


def test_evaluate_names_a_calibration_of_another_size(dataset, tmp_path, monkeypatch,
                                                     capsys):
    # checked before any depth image is read and before --out is made
    monkeypatch.chdir(tmp_path)
    identity_calibration(tmp_path / "calib.txt", 32, 24)
    assert main(["evaluate", "--calib", "calib.txt", "--dataset", dataset,
                 "--out", "report"]) == 1
    manifest = os.path.join(dataset, "manifest.txt")
    assert capsys.readouterr().err == (f"error: {manifest} has 160x120 depth images, "
                                       "not the 32x24 of calib.txt\n")
    assert not (tmp_path / "report").exists()


def test_calibrate_rejects_a_nan_fit_radius(dataset, tmp_path, capsys):
    # rejected before stage one, not after it skipped every frame
    out = tmp_path / "c.txt"
    code = main(["calibrate", "--dataset", str(dataset), "--out", str(out),
                 "--fit-radius", "nan"])
    assert code == 1
    assert "fit_radius must be positive, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_rejects_a_degree_above_the_maximum(dataset, tmp_path, capsys):
    # rejected before stage one solves PnP for every frame
    out = tmp_path / "c.txt"
    code = main(["calibrate", "--dataset", str(dataset), "--out", str(out),
                 "--degree", "9"])
    assert code == 1
    assert "degree must be at most 4, got 9" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "c.txt.report.csv").exists()


def test_calibrate_writes_calibration_and_report(calibration):
    assert os.path.exists(calibration)
    assert os.path.exists(calibration + ".report.csv")
    umap, gmap, extrinsic, intr_depth, intr_rgb = formats.read_calibration(calibration)
    assert umap.width == 160
    with open(calibration + ".report.csv") as fh:
        report = fh.read().splitlines()
    assert report[0] == "stage,frame_id,metric,value"
    assert any("planarity_undistorted" in row for row in report)
    assert any("final_cost" in row for row in report)


def test_report_leaves_out_wall_pixels_the_final_u_invalidates(tmp_path):
    # stage one keeps a frame's wall under the U of its own pass; the final U
    # can be non-positive at a pixel of it, which then has no point
    scene = sb.standard_scene(n_train=2, n_test=1, seed=4, noise=True, width=80,
                              height=60,
                              distortion=sb.bowl_distortion(80, 60, grid_bin=(2, 2)))
    frames = [sb.render_frame(scene, k) for k in range(scene.n_train)]
    walls = {lf.frame.frame_id: lf.labels == sb.LABEL_WALL for lf in frames}
    umap = dc.UndistortionMap.identity(80, 60, 2, 2, 2)
    coeffs = umap.coefficients.copy()
    j, i = np.argwhere(frames[0].labels[::2, ::2] == sb.LABEL_WALL)[0]
    coeffs[j, i] = (0.0, -1.0, 0.0)  # u(d) = -d at a control pixel on the wall
    identity_g = dc.GlobalMap.identity(80, 60)
    result = dc.CalibrationResult(umap.with_coefficients(coeffs), identity_g,
                                  dc.RigidTransform.identity(), scene.intr_depth,
                                  scene.intr_rgb, walls, (1.0, 0.5), {})
    path = tmp_path / "report.csv"
    _write_calibration_report(path, result, [lf.frame for lf in frames],
                              scene.intr_depth, dc.UndistortConfig())
    with open(path) as fh:
        report = {(row[1], row[2]): row[3] for row in csv.reader(fh)}
    dropped = 0
    for lf in frames:
        fid = lf.frame.frame_id
        und = dc.apply_calibration(result.umap, identity_g, lf.frame.depth,
                                   scene.intr_depth)
        dropped += np.count_nonzero(walls[fid] & ~und.valid)
        want = sb.planarity_error(und, walls[fid] & und.valid)
        assert float(report[fid, "planarity_undistorted"]) == want
    assert dropped > 0


def test_correct_matches_library_path(dataset, calibration, tmp_path):
    depth_path = os.path.join(dataset, "depth", "test_00.pgm")
    out = tmp_path / "cloud.ply"
    code = main(["correct", "--calib", calibration, "--in", depth_path,
                 "--out", str(out)])
    assert code == 0
    umap, gmap, _, intr_depth, _ = formats.read_calibration(calibration)
    img = formats.read_depth_pgm(depth_path)
    expected = dc.depth_to_cloud(correct_depth_image(umap, gmap, img), intr_depth)
    pts = formats.read_cloud_ply(out)
    assert np.array_equal(pts, expected.points[expected.valid])


def test_correct_identity_equals_depth_to_cloud(tmp_path):
    calib = tmp_path / "ident.txt"
    intr = identity_calibration(calib)
    rng = np.random.default_rng(3)
    img = dc.DepthImage(32, 24, rng.integers(500, 4000, (24, 32)) / 1000.0)
    depth_path = tmp_path / "depth.pgm"
    formats.write_depth_pgm(depth_path, img)
    out = tmp_path / "cloud.ply"
    assert main(["correct", "--calib", str(calib), "--in", str(depth_path),
                 "--out", str(out)]) == 0
    pts = formats.read_cloud_ply(out)
    expected = dc.depth_to_cloud(img, intr)
    assert np.array_equal(pts, expected.points[expected.valid])


def test_evaluate_writes_reports(dataset, calibration, tmp_path, monkeypatch):
    walls = []

    def recording_walls(*args):
        walls.append(select_wall_points(*args))
        return walls[-1]

    select_wall_points = cli.select_wall_points
    monkeypatch.setattr(cli, "select_wall_points", recording_walls)
    out = tmp_path / "report"
    code = main(["evaluate", "--calib", calibration, "--dataset", dataset,
                 "--out", str(out)])
    assert code == 0
    for name in ("planarity.csv", "global_error.csv", "rotation_error.csv",
                 "depth_vs_ground_truth.csv"):
        text = (out / name).read_text().splitlines()
        assert len(text) == 4  # header + 3 test frames
    # the undistorted column is the planarity of the back-projected
    # U-corrected image at the wall the corrected cloud gave
    umap, _, _, intr_depth, _ = formats.read_calibration(calibration)
    manifest = formats.read_manifest(os.path.join(dataset, "manifest.txt"))
    entries = formats.load_frames(manifest, dataset, test_only=True)
    rows = (out / "planarity.csv").read_text().splitlines()[1:]
    assert len(walls) == len(entries) == len(rows)
    for flat, (_, frame), row in zip(walls, entries, rows):
        und = dc.depth_to_cloud(dc.apply_undistortion(umap, frame.depth), intr_depth)
        wall = np.zeros(und.valid.shape, dtype=bool)
        wall.reshape(-1)[flat] = True
        want = sb.planarity_error(und, wall)
        assert float(row.split(",")[2]) == want
    rows = (out / "depth_vs_ground_truth.csv").read_text().splitlines()[1:]
    for row in rows:
        dist, original, corrected = (float(v) for v in row.split(","))
        assert abs(corrected) < abs(original) + 0.01
