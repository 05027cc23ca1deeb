import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthcal as dc
from depthcal import formats
from depthcal.formats import FormatError


# ---------------------------------------------------------------------------
# depth PGM


def test_pgm_values_and_invalid(tmp_path):
    img = dc.DepthImage(2, 1, np.array([[1.5, 0.0]]))
    path = tmp_path / "d.pgm"
    formats.write_depth_pgm(path, img)
    back = formats.read_depth_pgm(path)
    assert back.data[0, 0] == 1.5
    assert back.data[0, 1] == 0.0
    assert not back.valid[0, 1]


def test_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    mm = rng.integers(0, 6000, size=(48, 64))
    img = dc.DepthImage(64, 48, mm / 1000.0)
    path = tmp_path / "d.pgm"
    formats.write_depth_pgm(path, img)
    first = path.read_bytes()
    back = formats.read_depth_pgm(path)
    formats.write_depth_pgm(path, back)
    assert path.read_bytes() == first
    assert np.array_equal(back.data, img.data)


def test_pgm_big_endian_sample_order(tmp_path):
    img = dc.DepthImage(1, 1, np.array([[0.258]]))  # 258 mm = 0x0102
    path = tmp_path / "d.pgm"
    formats.write_depth_pgm(path, img)
    payload = path.read_bytes()
    assert payload.endswith(b"\x01\x02")


def test_pgm_rejects_eight_bit(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x01\x02")
    with pytest.raises(FormatError):
        formats.read_depth_pgm(path)


def test_pgm_rejects_truncated(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n4 4\n65535\n\x00\x01")
    with pytest.raises(FormatError):
        formats.read_depth_pgm(path)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P2\n1 1\n65535\n0")
    with pytest.raises(FormatError):
        formats.read_depth_pgm(path)


@pytest.mark.parametrize("size", [b"-1 -1", b"0 5", b"5 0"])
def test_pgm_rejects_nonpositive_size(tmp_path, size):
    # -1 x -1 expects (-1)(-1)(2) = 2 payload bytes; 0 x 5 expects none
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n" + size + b"\n65535\n\x00\x01")
    with pytest.raises(FormatError, match="not positive"):
        formats.read_depth_pgm(path)


def test_pgm_accepts_header_comments(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n# a comment\n1 1\n65535\n\x05\xdc")
    img = formats.read_depth_pgm(path)
    assert img.data[0, 0] == 1.5


@settings(max_examples=25, deadline=None)
@given(mm=st.lists(st.integers(0, 65535), min_size=6, max_size=6))
def test_pgm_round_trip_random(mm, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pgm")
    img = dc.DepthImage(3, 2, np.asarray(mm, dtype=float).reshape(2, 3) / 1000.0)
    path = tmp / "d.pgm"
    formats.write_depth_pgm(path, img)
    back = formats.read_depth_pgm(path)
    assert np.array_equal(back.data, img.data)


# ---------------------------------------------------------------------------
# corners CSV


def test_corners_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    corners = rng.uniform(0, 640, size=(2, 2, 2))
    path = tmp_path / "c.csv"
    formats.write_corners_csv(path, corners)
    back = formats.read_corners_csv(path)
    assert np.array_equal(back, corners)


def test_corners_missing_entry(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("row,col,u,v\n0,0,1,2\n0,1,3,4\n1,0,5,6\n")
    with pytest.raises(FormatError):
        formats.read_corners_csv(path)


def test_corners_duplicate_entry(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("row,col,u,v\n0,0,1,2\n0,0,3,4\n")
    with pytest.raises(FormatError):
        formats.read_corners_csv(path)


def test_corners_requires_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("0,0,1,2\n")
    with pytest.raises(FormatError):
        formats.read_corners_csv(path)


@pytest.mark.parametrize("line", [
    pytest.param("a,0,1,2", id="non-integer-row"),
    pytest.param("0,0,x,2", id="non-numeric-u"),
    pytest.param("0,0,1,nan", id="nan-v"),
])
def test_corners_rejects_malformed_value(tmp_path, line):
    path = tmp_path / "c.csv"
    path.write_text(f"row,col,u,v\n{line}\n")
    with pytest.raises(FormatError):
        formats.read_corners_csv(path)


def test_corners_rejects_negative_index(tmp_path):
    # (-1, 1) used to alias corner (1, 1) and complete the 2 x 2 grid
    path = tmp_path / "c.csv"
    path.write_text("row,col,u,v\n0,0,1,2\n0,1,3,4\n1,0,5,6\n-1,1,7,8\n")
    with pytest.raises(FormatError, match="negative"):
        formats.read_corners_csv(path)


# ---------------------------------------------------------------------------
# calibration file


def sample_calibration():
    rng = np.random.default_rng(5)
    umap = dc.UndistortionMap.identity(32, 24, 4, 4, 2)
    umap = umap.with_coefficients(umap.coefficients
                                  + rng.normal(0, 0.01, umap.coefficients.shape))
    gmap = dc.GlobalMap.from_free_coefficients(
        32, 24, rng.normal(0, 0.01, 6) + [1, 0, 1, 0, 1, 0])
    extr = dc.RigidTransform(dc.geometry.axis_angle_to_quat(rng.normal(0, 0.01, 3)),
                             rng.normal(0, 0.01, 3))
    intr_d = dc.CameraIntrinsics(fx=290.0, fy=291.5, cx=159.25, cy=119.75,
                                 width=320, height=240)
    intr_rgb = dc.CameraIntrinsics(fx=525.0, fy=524.0, cx=319.5, cy=239.5,
                                   width=640, height=480,
                                   radial_dist=(-0.05, 0.01),
                                   tangential_dist=(0.001, -0.002))
    return umap, gmap, extr, intr_d, intr_rgb


def test_calibration_round_trip_exact(tmp_path):
    umap, gmap, extr, intr_d, intr_rgb = sample_calibration()
    path = tmp_path / "calib.txt"
    formats.write_calibration(path, umap, gmap, extr, intr_d, intr_rgb)
    u2, g2, e2, d2, r2 = formats.read_calibration(path)
    assert u2 == umap
    assert g2 == gmap
    assert np.array_equal(e2.quaternion, extr.quaternion)
    assert np.array_equal(e2.translation, extr.translation)
    assert d2 == intr_d
    assert r2 == intr_rgb


def test_calibration_serialize_twice_identical(tmp_path):
    umap, gmap, extr, intr_d, intr_rgb = sample_calibration()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    formats.write_calibration(a, umap, gmap, extr, intr_d, intr_rgb)
    loaded = formats.read_calibration(a)
    formats.write_calibration(b, *loaded)
    assert a.read_bytes() == b.read_bytes()


def test_calibration_dependent_corner_rebuilt_on_load(tmp_path):
    umap, gmap, extr, intr_d, intr_rgb = sample_calibration()
    path = tmp_path / "calib.txt"
    formats.write_calibration(path, umap, gmap, extr, intr_d, intr_rgb)
    _, g2, *_ = formats.read_calibration(path)
    expected = [b + c - a for a, b, c in zip(g2.corner_00.coefficients,
                                             g2.corner_w0.coefficients,
                                             g2.corner_0h.coefficients)]
    assert np.allclose(g2.corner_wh.coefficients, expected, atol=0)


def test_calibration_rejects_missing_key(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("version 1\n")
    with pytest.raises(FormatError):
        formats.read_calibration(path)


def test_calibration_rejects_wrong_function_count(tmp_path):
    umap, gmap, extr, intr_d, intr_rgb = sample_calibration()
    path = tmp_path / "calib.txt"
    formats.write_calibration(path, umap, gmap, extr, intr_d, intr_rgb)
    lines = path.read_text().splitlines()
    lines = [ln for ln in lines if not ln.startswith("umap_fn 0 0")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        formats.read_calibration(path)


def write_sample_calibration(path, edit):
    """Write the sample calibration with its lines passed through `edit`."""
    formats.write_calibration(path, *sample_calibration())
    path.write_text("\n".join(edit(ln) for ln in path.read_text().splitlines()) + "\n")


@pytest.mark.parametrize("index", ["-1 0", "0 -1", "999 0", "0 999"])
def test_calibration_rejects_out_of_range_index(tmp_path, index):
    # the sample grid is 9 x 7: "-1 0" used to alias cell "8 0" it replaces
    path = tmp_path / "calib.txt"
    write_sample_calibration(path, lambda ln: ln.replace("umap_fn 8 0 ",
                                                         f"umap_fn {index} "))
    with pytest.raises(FormatError, match="outside"):
        formats.read_calibration(path)


@pytest.mark.parametrize("prefix", ["umap_fn 3 2 ", "gmap_corner_w0 "])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_calibration_rejects_nonfinite_coefficient(tmp_path, prefix, bad):
    def edit(ln):
        if not ln.startswith(prefix):
            return ln
        tokens = ln.split()
        tokens[-1] = bad
        return " ".join(tokens)

    path = tmp_path / "calib.txt"
    write_sample_calibration(path, edit)
    with pytest.raises(FormatError, match="non-finite"):
        formats.read_calibration(path)


def test_calibration_rejects_nan_focal_length(tmp_path):
    def edit(ln):
        if ln.startswith("depth_intrinsics "):
            tokens = ln.split()
            tokens[1] = "nan"
            return " ".join(tokens)
        return ln

    path = tmp_path / "calib.txt"
    write_sample_calibration(path, edit)
    with pytest.raises(FormatError):
        formats.read_calibration(path)


@pytest.mark.parametrize("prefix, line", [
    pytest.param("umap_bins ", "umap_bins 0 3", id="zero-bin"),
    pytest.param("umap_size ", "umap_size 8 6 7", id="three-sizes"),
    pytest.param("umap_size ", "umap_size", id="empty-size"),
    pytest.param("version ", "version", id="bare-version"),
    pytest.param("umap_fn 0 0 ", "umap_fn x 0 0 1 0", id="non-integer-index"),
    pytest.param("extrinsic_quaternion ", "extrinsic_quaternion 1 0 0 0 0",
                 id="five-value-quaternion"),
    pytest.param("extrinsic_quaternion ", "extrinsic_quaternion 1e200 0 0 0",
                 id="overflowing-quaternion"),
])
@pytest.mark.filterwarnings("error")
def test_calibration_rejects_malformed_line(tmp_path, prefix, line):
    path = tmp_path / "calib.txt"
    write_sample_calibration(path, lambda ln: line if ln.startswith(prefix) else ln)
    with pytest.raises(FormatError):
        formats.read_calibration(path)


replacement_tokens = st.one_of(
    st.sampled_from(["x", "nan", "inf", "-inf", "0", "-1", "1e400", "10" * 15]),
    st.integers(-3, 100).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))


def mutate_one_token(data, text, sep=None):
    """`text` with one token of one line dropped, repeated or replaced."""
    lines = text.splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[k].split(sep)
    i = data.draw(st.integers(0, len(tokens) - 1))
    op = data.draw(st.sampled_from(["drop", "duplicate", "replace"]))
    if op == "drop":
        del tokens[i]
    elif op == "duplicate":
        tokens.insert(i, tokens[i])
    else:
        tokens[i] = data.draw(replacement_tokens)
    lines[k] = (sep or " ").join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_calibration_reader_raises_only_format_error(tmp_path_factory, data):
    """One line of a valid file loses, repeats or changes one token."""
    path = tmp_path_factory.mktemp("calib") / "calib.txt"
    formats.write_calibration(path, *sample_calibration())
    path.write_text(mutate_one_token(data, path.read_text()))
    try:
        out = formats.read_calibration(path)
    except FormatError:
        return
    assert isinstance(out, tuple) and len(out) == 5


def test_ground_truth_rejects_missing_key(tmp_path):
    path = tmp_path / "ground_truth.txt"
    path.write_text("version 1\n")
    with pytest.raises(FormatError, match="missing key"):
        formats.read_ground_truth(path)


def sample_ground_truth():
    """A valid ground-truth sidecar on a 4 x 2 image with 2 x 2 bins."""
    lines = ["version 1",
             "true_extrinsic_translation 0.025 0 0",
             "true_extrinsic_quaternion 1 0 0 0",
             "global_correction 0 0.97 0.008",
             "distortion_size 4 2",
             "distortion_bins 2 2",
             "distortion_degree 2",
             "noise 0",
             "seed 3"]
    lines += [f"distortion_fn {i} {j} 0.001 1 -0.002"
              for j in range(2) for i in range(3)]
    lines.append("frame_truth f1 2.5 -0.1 0.2 2.5 1 0 0 0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("prefix, line", [
    pytest.param("frame_truth ", "frame_truth f1 1.0", id="short-frame-truth"),
    pytest.param("frame_truth ", "frame_truth f1 x 0 0 2 1 0 0 0",
                 id="non-numeric-distance"),
    pytest.param("frame_truth ", "frame_truth f1 2 0 0 2 0 0 0 0",
                 id="zero-quaternion"),
    pytest.param("distortion_fn 2 1 ", "distortion_fn 3 1 0 1 0",
                 id="index-outside-grid"),
    pytest.param("distortion_fn 2 1 ", "distortion_fn 2 1 0 1",
                 id="two-coefficients"),
    pytest.param("true_extrinsic_quaternion ",
                 "true_extrinsic_quaternion 1e200 1e200 1e200 1e200",
                 id="overflowing-quaternion"),
])
@pytest.mark.filterwarnings("error")
def test_ground_truth_rejects_malformed_line(tmp_path, prefix, line):
    path = tmp_path / "ground_truth.txt"
    path.write_text("\n".join(line if ln.startswith(prefix) else ln
                              for ln in sample_ground_truth().splitlines()))
    with pytest.raises(FormatError):
        formats.read_ground_truth(path)


# ---------------------------------------------------------------------------
# manifest


def test_manifest_round_trip(tmp_path):
    manifest = formats.DatasetManifest(
        board=dc.BoardSpec(6, 8, 0.1),
        intr_rgb=dc.CameraIntrinsics(fx=525, fy=525, cx=319.5, cy=239.5,
                                     width=640, height=480),
        intr_depth_guess=dc.CameraIntrinsics(fx=290, fy=290, cx=159.5, cy=119.5,
                                             width=320, height=240),
        extrinsic_guess=dc.RigidTransform((1, 0, 0, 0), (0.025, 0, 0)),
        frames=(formats.ManifestFrame("a", "depth/a.pgm", "corners/a.csv"),
                formats.ManifestFrame("t", "depth/t.pgm", "corners/t.csv", 2.5)))
    path = tmp_path / "manifest.txt"
    formats.write_manifest(path, manifest)
    back = formats.read_manifest(path)
    assert back == manifest


MANIFEST_TEXT = (
    "board 6 8 0.1\n"
    "rgb_intrinsics 525 525 319.5 239.5 640 480 0 0 0 0 0\n"
    "depth_intrinsics_guess 290 290 159.5 119.5 320 240 0 0 0 0 0\n"
    "extrinsic_guess_translation 0.025 0 0\n"
    "extrinsic_guess_quaternion 1 0 0 0\n"
    "frame a d.pgm c.csv\n"
    "frame t dt.pgm ct.csv 2.5\n")


def test_manifest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text(MANIFEST_TEXT + "frame a d.pgm c.csv\n")
    with pytest.raises(FormatError):
        formats.read_manifest(path)


@pytest.mark.parametrize("old, new", [
    pytest.param("board 6 8 0.1", "board 6 8 x", id="non-numeric-square"),
    pytest.param("board 6 8 0.1", "board 6 8", id="two-value-board"),
    pytest.param("board 6 8 0.1", "board 2 8 0.1", id="two-row-board"),
    pytest.param("ct.csv 2.5", "ct.csv x", id="non-numeric-distance"),
    pytest.param("guess_quaternion 1 0 0 0", "guess_quaternion 1 0 0",
                 id="three-value-quaternion"),
])
def test_manifest_rejects_malformed_line(tmp_path, old, new):
    path = tmp_path / "manifest.txt"
    path.write_text(MANIFEST_TEXT.replace(old, new))
    with pytest.raises(FormatError):
        formats.read_manifest(path)


def sample_corners_text(tmp_path):
    rng = np.random.default_rng(2)
    formats.write_corners_csv(tmp_path / "c.csv",
                              rng.uniform(0, 640, size=(2, 3, 2)))
    return (tmp_path / "c.csv").read_text()


@pytest.mark.parametrize("reader, sep", [
    pytest.param(formats.read_manifest, None, id="manifest"),
    pytest.param(formats.read_corners_csv, ",", id="corners"),
    pytest.param(formats.read_ground_truth, None, id="ground-truth"),
])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_text_readers_raise_only_format_error(tmp_path_factory, data, reader,
                                              sep):
    """One line of a valid file loses, repeats or changes one token."""
    tmp = tmp_path_factory.mktemp("text")
    valid = {formats.read_manifest: MANIFEST_TEXT,
             formats.read_corners_csv: sample_corners_text(tmp),
             formats.read_ground_truth: sample_ground_truth()}[reader]
    path = tmp / "file.txt"
    path.write_text(valid)
    reader(path)
    path.write_text(mutate_one_token(data, valid, sep))
    try:
        reader(path)
    except FormatError:
        return


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pgm_reader_raises_only_format_error(tmp_path_factory, data):
    """One header line loses, repeats or changes one token; the payload stays."""
    path = tmp_path_factory.mktemp("pgm") / "d.pgm"
    formats.write_depth_pgm(path, dc.DepthImage(3, 2, np.arange(1.0, 7.0) / 4))
    *header, payload = path.read_bytes().split(b"\n", 3)
    text = mutate_one_token(data, b"\n".join(header).decode("ascii"))
    path.write_bytes(text.encode("ascii") + payload)
    try:
        img = formats.read_depth_pgm(path)
    except FormatError:
        return
    assert img.width > 0 and img.height > 0


def test_load_frames_checks_corner_bounds(tmp_path):
    img = dc.DepthImage(4, 4, np.full((4, 4), 1.0))
    formats.write_depth_pgm(tmp_path / "d.pgm", img)
    corners = np.zeros((3, 3, 2))
    corners[0, 0] = (9999.0, 10.0)
    formats.write_corners_csv(tmp_path / "c.csv", corners)
    manifest = formats.DatasetManifest(
        board=dc.BoardSpec(3, 3, 0.1),
        intr_rgb=dc.CameraIntrinsics(fx=525, fy=525, cx=319.5, cy=239.5,
                                     width=640, height=480),
        intr_depth_guess=dc.CameraIntrinsics(fx=40, fy=40, cx=2, cy=2,
                                             width=4, height=4),
        extrinsic_guess=dc.RigidTransform.identity(),
        frames=(formats.ManifestFrame("a", "d.pgm", "c.csv"),))
    with pytest.raises(FormatError):
        formats.load_frames(manifest, tmp_path)


# ---------------------------------------------------------------------------
# PLY


def test_ply_round_trip_exact(tmp_path):
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    rng = np.random.default_rng(2)
    data = rng.uniform(0.5, 4.0, (24, 32))
    data[0, :5] = 0.0
    cloud = dc.depth_to_cloud(dc.DepthImage(32, 24, data), intr)
    path = tmp_path / "c.ply"
    formats.write_cloud_ply(path, cloud)
    pts = formats.read_cloud_ply(path)
    assert np.array_equal(pts, cloud.points[cloud.valid])


def test_ply_header(tmp_path):
    cloud = dc.OrganizedCloud(1, 1, np.zeros((1, 1, 3)), np.zeros((1, 1), bool))
    path = tmp_path / "c.ply"
    formats.write_cloud_ply(path, cloud)
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    assert "element vertex 0" in text
    assert "end_header" in text


@pytest.mark.parametrize("vertex_line, body", [
    pytest.param("element vertex", "", id="no-count"),
    pytest.param("element vertex -1", "", id="negative-count"),
    pytest.param("element vertex 1", "nan 0 1", id="nan-coordinate"),
])
def test_ply_rejects_malformed(tmp_path, vertex_line, body):
    path = tmp_path / "c.ply"
    path.write_text("ply\nformat ascii 1.0\n" + vertex_line + "\nproperty double x\n"
                    "property double y\nproperty double z\nend_header\n" + body + "\n")
    with pytest.raises(FormatError):
        formats.read_cloud_ply(path)


# ---------------------------------------------------------------------------
# atomicity


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    img = dc.DepthImage(2, 1, np.array([[1.5, 99999.0]]))  # out of mm range
    path = tmp_path / "d.pgm"
    with pytest.raises(FormatError):
        formats.write_depth_pgm(path, img)
    assert not path.exists()
    assert not any(p.name.startswith(".tmp_depthcal") for p in tmp_path.iterdir())
