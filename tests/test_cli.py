import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthcal as dc
from depthcal import formats
from depthcal import synthbench as sb
from depthcal.cli import _SCENE_KEYS, _read_scene_file, main
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
    sb.generate_dataset(scene, 12, 3, out)
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
    assert (out / "ground_truth.txt").exists()


def test_simulate_scene_file(tmp_path):
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text(
        "# test scene\nimage_width 80\nimage_height 60\npeak 0.01\n"
        "noise off\nglobal_correction 0.98 0.004\n")
    out = tmp_path / "ds"
    code = main(["simulate", "--scene", str(scene_file), "--out", str(out),
                 "--train", "10", "--test", "2", "--seed", "1"])
    assert code == 0
    _, gcorr, field, _ = formats.read_ground_truth(out / "ground_truth.txt")
    assert gcorr.coefficients == (0.0, 0.98, 0.004)
    assert field.width == 80


def test_simulate_rejects_unknown_scene_key(tmp_path):
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text("bogus_key 1\n")
    code = main(["simulate", "--scene", str(scene_file), "--out",
                 str(tmp_path / "ds"), "--train", "10", "--test", "2"])
    assert code == 1


VALID_SCENE = ("image_width 80\nimage_height 60\npeak 0.01\nflat_frac 0.4\n"
               "asym 0.1\nzero_depth 1.05\nbowl_bins 2 2\n"
               "global_correction 0.98 0.004\nextrinsic_translation 0.025 0 0\n"
               "extrinsic_quaternion 1 0 0 0\ndistance_range 1 4\ntilt_deg 12\n"
               "test_range 1 4.5\nfloor_y 0.9\nsigma_c 0.2\nnoise off\n")


@pytest.mark.parametrize("line", [
    "peak", "noise", "peak nan", "bowl_bins 2", "bowl_bins 2 2 2",
    "bowl_bins 2.5 2", "image_width x", "tilt_deg inf", "noise maybe",
    "extrinsic_translation 0 0", "global_correction 0.98", "image_width 0",
    "bowl_bins 2 -1",
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


def test_correct_threaded_identical(tmp_path, monkeypatch):
    calib = tmp_path / "ident.txt"
    identity_calibration(calib)
    rng = np.random.default_rng(9)
    img = dc.DepthImage(32, 24, rng.integers(500, 4000, (24, 32)) / 1000.0)
    depth_path = tmp_path / "depth.pgm"
    formats.write_depth_pgm(depth_path, img)
    single, multi = tmp_path / "a.ply", tmp_path / "b.ply"
    monkeypatch.delenv("DEPTHCAL_THREADS", raising=False)
    assert main(["correct", "--calib", str(calib), "--in", str(depth_path),
                 "--out", str(single)]) == 0
    monkeypatch.setenv("DEPTHCAL_THREADS", "3")
    assert main(["correct", "--calib", str(calib), "--in", str(depth_path),
                 "--out", str(multi)]) == 0
    assert single.read_bytes() == multi.read_bytes()


def test_threads_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("DEPTHCAL_THREADS", "many")
    calib = tmp_path / "ident.txt"
    identity_calibration(calib)
    with pytest.raises(SystemExit):
        main(["bench", "--calib", str(calib), "--frames", "1"])


def test_evaluate_writes_reports(dataset, calibration, tmp_path):
    out = tmp_path / "report"
    code = main(["evaluate", "--calib", calibration, "--dataset", dataset,
                 "--out", str(out)])
    assert code == 0
    for name in ("planarity.csv", "global_error.csv", "rotation_error.csv",
                 "depth_vs_ground_truth.csv"):
        text = (out / name).read_text().splitlines()
        assert len(text) == 4  # header + 3 test frames
    rows = (out / "depth_vs_ground_truth.csv").read_text().splitlines()[1:]
    for row in rows:
        dist, original, corrected = (float(v) for v in row.split(","))
        assert abs(corrected) < abs(original) + 0.01


def test_bench_runs_and_reports(calibration, capsys, monkeypatch):
    monkeypatch.setenv("DEPTHCAL_THREADS", "2")
    code = main(["bench", "--calib", calibration, "--frames", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "threads=1 mean=" in out
    assert "threads=2 mean=" in out
    assert "identical=True" in out
