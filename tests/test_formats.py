import functools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthcal as dc
from depthcal import formats
from depthcal import synthbench as sb
from depthcal.cli import _read_scene_file
from depthcal.formats import FormatError
from oracles import (
    calibration_text,
    corner_wh,
    corners_text,
    ply_text,
)


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
    # no fourth corner is stored: the loaded map's value at (W, H) is the
    # dependent corner of its free corners
    d = np.linspace(0.5, 5.0, 10)
    assert np.max(np.abs(g2.correct(g2.width, g2.height, d) - corner_wh(g2)(d))) < 1e-12


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


@pytest.mark.parametrize("index", ["-1 0", "0 -1", "999 0", "0 999",
                                   f"{10 ** 30} 0", f"0 {-10 ** 30}", f"{2 ** 63} 0"])
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
    pytest.param("version ", "version 2", id="version-2"),
    pytest.param("umap_fn 0 0 ", "umap_fn x 0 0 1 0", id="non-integer-index"),
    pytest.param("umap_fn 8 0 ", "umap_fn 1.5 0 0 1 0", id="fractional-index"),
    pytest.param("umap_fn 8 0 ", "umap_fn 7 0 0 1 0", id="duplicate-index"),
    pytest.param("umap_fn 8 0 ", "umap_fn 8 0 0 1", id="two-coefficients"),
    pytest.param("extrinsic_quaternion ", "extrinsic_quaternion 1 0 0 0 0",
                 id="five-value-quaternion"),
    pytest.param("extrinsic_quaternion ", "extrinsic_quaternion 1e200 0 0 0",
                 id="overflowing-quaternion"),
    # int() would truncate the width to 32
    pytest.param("depth_intrinsics ", "depth_intrinsics 290 290 15.5 11.5 32.9 24 0 0 0 0 0",
                 id="fractional-width"),
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
    pytest.param("159.5 119.5 320 240", "159.5 119.5 320 240.5", id="fractional-height"),
    pytest.param("board 6 8 0.1", "version 2\nboard 6 8 0.1", id="version-2"),
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
])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_text_readers_raise_only_format_error(tmp_path_factory, data, reader,
                                              sep):
    """One line of a valid file loses, repeats or changes one token."""
    tmp = tmp_path_factory.mktemp("text")
    valid = {formats.read_manifest: MANIFEST_TEXT,
             formats.read_corners_csv: sample_corners_text(tmp)}[reader]
    path = tmp / "file.txt"
    path.write_text(valid)
    reader(path)
    path.write_text(mutate_one_token(data, valid, sep))
    try:
        reader(path)
    except FormatError:
        return


def sample_calibration_text(tmp_path):
    formats.write_calibration(tmp_path / "calib.txt", *sample_calibration())
    return (tmp_path / "calib.txt").read_text()


@pytest.mark.parametrize("reader, valid, line", [
    pytest.param(formats.read_calibration, sample_calibration_text,
                 "extrinsic_translation 1 2 3", id="calibration"),
    pytest.param(formats.read_manifest, lambda _: MANIFEST_TEXT, "board 6 8 0.2", id="manifest"),
    pytest.param(_read_scene_file, lambda _: "peak 0.01\nimage_width 80\n", "peak 0.02",
                 id="scene"),
])
def test_key_value_readers_reject_key_given_twice(tmp_path, reader, valid, line):
    """Without the check the last line would win."""
    text = valid(tmp_path)
    path = tmp_path / "file.txt"
    path.write_text(text)
    reader(path)
    path.write_text(text + line + "\n")
    with pytest.raises(FormatError, match="given twice"):
        reader(path)


@pytest.mark.parametrize("reader", [
    pytest.param(formats.read_calibration, id="calibration"),
    pytest.param(formats.read_manifest, id="manifest"),
    pytest.param(formats.read_corners_csv, id="corners"),
    pytest.param(formats.read_cloud_ply, id="ply"),
])
def test_text_readers_reject_undecodable_bytes(tmp_path, reader):
    """A text file saved as UTF-16: it starts with the bytes ff fe."""
    path = tmp_path / "file.txt"
    path.write_bytes("ply\nversion 1\n".encode("utf-16"))
    with pytest.raises(FormatError, match="not UTF-8"):
        reader(path)


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


def test_load_frames_checks_depth_image_size(tmp_path):
    formats.write_depth_pgm(tmp_path / "d.pgm", dc.DepthImage(3, 4, np.full((4, 3), 1.0)))
    formats.write_corners_csv(tmp_path / "c.csv", np.full((3, 3, 2), 10.0))
    manifest = formats.DatasetManifest(
        board=dc.BoardSpec(3, 3, 0.1),
        intr_rgb=dc.CameraIntrinsics(fx=525, fy=525, cx=319.5, cy=239.5,
                                     width=640, height=480),
        intr_depth_guess=dc.CameraIntrinsics(fx=40, fy=40, cx=2, cy=2,
                                             width=4, height=4),
        extrinsic_guess=dc.RigidTransform.identity(),
        frames=(formats.ManifestFrame("a", "d.pgm", "c.csv"),))
    with pytest.raises(FormatError, match=r"a: d\.pgm is 3x4, not .* 4x4"):
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


@pytest.mark.parametrize("fmt, vertex_line, body", [
    pytest.param("ascii", "element vertex", "", id="no-count"),
    pytest.param("ascii", "element vertex -1", "", id="negative-count"),
    pytest.param("ascii", "element vertex \u00b2", "", id="non-ascii-count"),
    pytest.param("ascii", "element vertex " + "9" * 5000, "", id="huge-count"),
    pytest.param("ascii", "element vertex 1", "nan 0 1", id="nan-coordinate"),
    # six tokens over two lines, but not three on each
    pytest.param("ascii", "element vertex 2", "1 2\n3 4 5 6", id="two-and-four-tokens"),
    pytest.param("ascii", "element vertex 2", "1 2 3 4\n5 6", id="four-and-two-tokens"),
    pytest.param("ascii", "element vertex 2", "1 2 3 ;\n5 6", id="separator-token"),
    pytest.param("ascii", "element vertex 2", "1 2 3", id="missing-line"),
    pytest.param("ascii", "element vertex 2", "\n1 2 3", id="blank-line"),
    # an ASCII body under a binary header must not be read as ASCII
    pytest.param("binary_little_endian", "element vertex 1", "1 2 3", id="binary-format"),
])
def test_ply_rejects_malformed(tmp_path, fmt, vertex_line, body):
    path = tmp_path / "c.ply"
    path.write_text(f"ply\nformat {fmt} 1.0\n" + vertex_line + "\nproperty double x\n"
                    "property double y\nproperty double z\nend_header\n" + body + "\n",
                    encoding="utf-8")
    with pytest.raises(FormatError):
        formats.read_cloud_ply(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_ply_reader_newlines_and_lines_after_the_body(tmp_path, newline):
    """Any newline convention reads, and lines after the vertex block are
    not read as vertices."""
    lines = ["ply", "format ascii 1.0", "element vertex 2", "property double x",
             "property double y", "property double z", "end_header", "1 2 3", "4 5 6",
             "not a vertex"]
    path = tmp_path / "c.ply"
    path.write_bytes(newline.join(lines).encode("ascii"))
    assert np.array_equal(formats.read_cloud_ply(path), [[1, 2, 3], [4, 5, 6]])


def test_ply_reader_rejects_undecodable_bytes_after_the_body(tmp_path):
    """The body is read a chunk at a time; bytes after it still must decode."""
    count = formats.BLOCK_ROWS + 1
    path = tmp_path / "c.ply"
    path.write_bytes(f"ply\nformat ascii 1.0\nelement vertex {count}\nend_header\n".encode()
                     + b"1 2 3\n" * count + b"\xff\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        formats.read_cloud_ply(path)


def per_line_vertices(text):
    """The vertex block parsed line by line: None where a line does not hold
    three finite numbers or lines are missing."""
    lines = text.split("\n")
    count = int(lines[3].split()[2])
    body = lines[8:8 + count]
    try:
        rows = [[float(v) for v in ln.split()] for ln in body]
    except ValueError:
        return None
    if len(rows) != count or any(len(r) != 3 for r in rows):
        return None
    pts = np.array(rows).reshape(count, 3)
    return pts if np.all(np.isfinite(pts)) else None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ply_reader_matches_per_line_parse(tmp_path_factory, data):
    """One vertex line loses, repeats or changes one token: the reader
    raises FormatError exactly when a line-by-line parse fails."""
    rng = np.random.default_rng(3)
    cloud = dc.OrganizedCloud(3, 1, rng.normal(size=(1, 3, 3)), np.ones((1, 3), bool))
    text = ply_text(cloud)
    head, body = text.split("end_header\n")
    text = head + "end_header\n" + mutate_one_token(data, body)
    path = tmp_path_factory.mktemp("ply") / "c.ply"
    path.write_text(text)
    expect = per_line_vertices(text)
    if expect is None:
        with pytest.raises(FormatError):
            formats.read_cloud_ply(path)
    else:
        assert np.array_equal(formats.read_cloud_ply(path), expect)


def per_line_rows(lines, ncols):
    """Float rows of one token list per line, parsed one by one: None unless
    each holds `ncols` finite numbers."""
    try:
        rows = [[float(v) for v in ln] for ln in lines]
    except ValueError:
        return None
    if any(len(r) != ncols for r in rows) or not np.all(np.isfinite(rows)):
        return None
    return rows


def per_line_grid(rows, shape):
    """{(a, b): values} of rows `a b values..`, or None unless every index is
    a non-negative integer below `shape` and is given once."""
    cells = {(a, b): vals for a, b, *vals in rows}
    if len(cells) != len(rows) or not all(
            a.is_integer() and b.is_integer() and 0 <= a < shape[0] and 0 <= b < shape[1]
            for a, b in cells):
        return None
    return cells


def mutate_lines(data, lines, start, sep=None):
    """`lines` with one token of one line from `start` on mutated."""
    return lines[:start] + mutate_one_token(data, "\n".join(lines[start:]), sep).splitlines()


@functools.lru_cache
def calibration_parts(size):
    """The lines of the sample calibration with an identity U of `size`,
    split into those before, of and after the `umap_fn` block."""
    umap = dc.UndistortionMap.identity(*size, 2)
    head, fns, tail = [], [], []
    for ln in calibration_text(umap, *sample_calibration()[1:]).splitlines():
        (fns if ln.startswith("umap_fn ") else tail if fns else head).append(ln)
    return umap.grid_shape, head, fns, tail


@pytest.mark.parametrize("size, start", [
    pytest.param((32, 24, 4, 4), 0, id="63-cells"),
    # BLOCK_ROWS + 1 lines, mutated in the second chunk
    pytest.param((240, 16, 1, 1), formats.BLOCK_ROWS, id="4097-cells"),
])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fn_block_reader_matches_per_line_parse(tmp_path_factory, data, size, start):
    """One `umap_fn` line loses, repeats or changes one token after its key:
    read_calibration raises FormatError exactly when a line-by-line parse of
    the block fails, and otherwise reads the same coefficients."""
    grid_shape, head, fns, tail = calibration_parts(size)
    assert len(fns) == np.prod(grid_shape) > start
    texts = mutate_lines(data, [ln[len("umap_fn "):] for ln in fns], start)
    path = tmp_path_factory.mktemp("fn") / "calib.txt"
    path.write_text("\n".join(head + ["umap_fn " + t for t in texts] + tail) + "\n")
    rows = per_line_rows([t.split() for t in texts], 5)
    cells = rows and per_line_grid(rows, grid_shape[::-1])
    if cells is None:
        with pytest.raises(FormatError):
            formats.read_calibration(path)
        return
    expect = np.empty((*grid_shape, 3))
    for (i, j), vals in cells.items():
        expect[int(j), int(i)] = vals
    assert np.array_equal(formats.read_calibration(path)[0].coefficients, expect)


@functools.lru_cache
def corner_lines(shape):
    rng = np.random.default_rng(4)
    return corners_text(rng.uniform(0, 640, size=(*shape, 2))).splitlines()


@pytest.mark.parametrize("shape, start", [
    pytest.param((2, 3), 1, id="6-corners"),
    # BLOCK_ROWS + 1 corner lines, mutated in the second chunk
    pytest.param((17, 241), formats.BLOCK_ROWS + 1, id="4097-corners"),
])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corners_reader_matches_per_line_parse(tmp_path_factory, data, shape, start):
    """One corner line loses, repeats or changes one field: read_corners_csv
    raises FormatError exactly when a line-by-line parse fails, and otherwise
    reads the same grid."""
    lines = mutate_lines(data, corner_lines(shape), start, ",")
    path = tmp_path_factory.mktemp("corners") / "c.csv"
    path.write_text("\n".join(lines) + "\n")
    rows = per_line_rows([ln.split(",") for ln in lines[1:]], 4)
    if rows is not None:
        size = [max(col) + 1 for col in list(zip(*rows))[:2]]
        cells = size[0] * size[1] == len(rows) and per_line_grid(rows, size)
    if rows is None or not cells:
        with pytest.raises(FormatError):
            formats.read_corners_csv(path)
        return
    expect = np.empty((int(size[0]), int(size[1]), 2))
    for (r, c), uv in cells.items():
        expect[int(r), int(c)] = uv
    assert np.array_equal(formats.read_corners_csv(path), expect)


def test_index_written_as_integral_float_is_read(tmp_path):
    """`1.0` is read as index 1; a fractional index stays an error."""
    path = tmp_path / "c.csv"
    path.write_text("row,col,u,v\n0,0,1,2\n0,1.0,3,4\n1e0,0,5,6\n1,1,7,8\n")
    assert np.array_equal(formats.read_corners_csv(path), [[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    umap = sample_calibration()[0]
    write_sample_calibration(tmp_path / "calib.txt",
                             lambda ln: ln.replace("umap_fn 8 0 ", "umap_fn 8.0 0.0 "))
    assert formats.read_calibration(tmp_path / "calib.txt")[0] == umap
    # 8.5 would truncate to the index 8 it replaces
    write_sample_calibration(tmp_path / "calib.txt",
                             lambda ln: ln.replace("umap_fn 8 0 ", "umap_fn 8.5 0 "))
    with pytest.raises(FormatError, match="fractional"):
        formats.read_calibration(tmp_path / "calib.txt")


def test_ply_reader_peak_memory_per_point(tmp_path):
    """The vertex block is read and parsed a chunk at a time, so neither the
    file's text nor its tokens are held whole (about 78 B per point here;
    holding the text took about 217 B per point, and the tokens 426)."""
    count = 8 * formats.BLOCK_ROWS
    points = np.random.default_rng(5).normal(size=(1, count, 3))
    cloud = dc.OrganizedCloud(count, 1, points, np.ones((1, count), bool))
    path = tmp_path / "c.ply"
    formats.write_cloud_ply(path, cloud)
    tracemalloc.start()
    try:
        pts = formats.read_cloud_ply(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(pts, points[0])
    assert peak / count < 100, f"{peak / count:.0f} B per point"


# ---------------------------------------------------------------------------
# bytes of the number-block writers, against the per-value oracles

SPECIAL_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1e308, -1.7976931348623157e308, 0.1]


def with_special_values(shape, seed):
    """Normal draws of a wide range of scales, led by SPECIAL_VALUES."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    flat = values.reshape(-1)
    k = min(flat.size, len(SPECIAL_VALUES))
    flat[:k] = SPECIAL_VALUES[:k]
    return values


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True))
def test_format_rows_matches_fmt(x):
    chunks = formats._format_rows("%.17g|%.17g\n", [[x, 7.0]])
    assert b"".join(chunks) == (formats._fmt(x) + "|7\n").encode("ascii")


def percent_bytes(line, rows):
    """The reference for `_format_rows`: one `%` call over the whole block."""
    rows = np.asarray(rows, dtype=float)
    return ((line * rows.shape[0]) % tuple(rows.ravel().tolist())).encode("ascii")


def array_path_block(values, ncols):
    """`values` repeated over SMALL_BLOCK_ROWS rows, the fewest that
    `_format_rows` formats by array code."""
    return np.resize(np.asarray(values, dtype=float), (formats.SMALL_BLOCK_ROWS, ncols))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=48),
       finite=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=16))
def test_format_rows_block_matches_percent(values, finite):
    """Any floats, and any finite floats in a column of their own, formatted
    as one block: values printed by array code and by `_fmt` share a
    chunk."""
    block = np.column_stack([array_path_block(values, 2), array_path_block(finite, 1)])
    line = "%.17g %.17g|%.17g\n"
    assert b"".join(formats._format_rows(line, block)) == percent_bytes(line, block)


@pytest.mark.parametrize("line", ["%d\n", "i %d: %.17g\n", "%.17f\n", "100%%\n"],
                         ids=["%d", "%d and %.17g", "%.17f", "%%"])
def test_format_rows_rejects_other_conversions(line):
    with pytest.raises(ValueError, match="only %.17g"):
        list(formats._format_rows(line, [[1.0, 2.0]]))


def edge_values():
    """Both ends of the array path's range and the powers of ten between
    them, each with its neighbours (the one below 0.1 prints as
    0.099999999999999992), and two exact binary ties at the 17th digit
    (…62|5 rounds down to even, …37|5 up)."""
    powers = [float(f"1e{k}") for k in range(-4, 16)]
    values = [0.0, 123456789012345.625, 123456789012345.375]
    values += [x for p in powers for x in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]
    return [float(x) for x in values + [-x for x in values]]


@pytest.mark.parametrize("value", edge_values(), ids=repr)
def test_format_rows_edge_values_match_percent(value):
    block = array_path_block([value, 1.5], 3)
    line = "%.17g %.17g %.17g\n"
    assert b"".join(formats._format_rows(line, block)) == percent_bytes(line, block)


def test_format_rows_ties_round_half_even():
    block = array_path_block([123456789012345.625, -123456789012345.375], 2)
    text = b"".join(formats._format_rows("%.17g %.17g\n", block))
    assert text.split(b"\n")[0] == b"123456789012345.62 -123456789012345.38"


def test_index_columns_keep_the_bytes_of_the_integer_conversion(tmp_path):
    """`_fn` and corner indices are printed by `%.17g` and keep the bytes
    of the `%d` templates they were once written with: both blocks take the
    array path, and 201 control columns give three-digit indices."""
    _, gmap, extr, intr_d, intr_rgb = sample_calibration()
    umap = dc.UndistortionMap.identity(400, 6, 2, 2, 2)  # 4 x 201 control pixels
    umap = umap.with_coefficients(with_special_values(umap.coefficients.shape, 8))
    gh, gw = umap.grid_shape
    assert gw > 100 and gh * gw >= formats.SMALL_BLOCK_ROWS
    path = tmp_path / "calib.txt"
    formats.write_calibration(path, umap, gmap, extr, intr_d, intr_rgb)
    fn = [ln for ln in path.read_bytes().splitlines(keepends=True)
          if ln.startswith(b"umap_fn ")]
    j, i = np.indices((gh, gw)).reshape(2, -1)
    rows = np.column_stack([i, j, umap.coefficients.reshape(gh * gw, -1)])
    assert b"".join(fn) == percent_bytes("umap_fn %d %d %.17g %.17g %.17g\n", rows)

    corners = with_special_values((16, 20, 2), 9)
    formats.write_corners_csv(tmp_path / "c.csv", corners)
    r, c = np.indices((16, 20)).reshape(2, -1)
    grid = np.column_stack([r, c, corners.reshape(-1, 2)])
    assert (tmp_path / "c.csv").read_bytes() == (
        b"row,col,u,v\n" + percent_bytes("%d,%d,%.17g,%.17g\n", grid))


def test_format_rows_value_printed_alone_in_second_chunk():
    """The only value outside the array path's range is in the second chunk."""
    rng = np.random.default_rng(7)
    block = rng.uniform(1.0, 2.0, size=(formats.BLOCK_ROWS + 1, 3))
    block *= rng.choice([-1.0, 1.0], size=block.shape)
    block[-1, 1] = 0.0
    line = "%.17g %.17g %.17g\n"
    chunks = list(formats._format_rows(line, block))
    assert len(chunks) == 2
    assert b"".join(chunks) == percent_bytes(line, block)


@pytest.mark.parametrize("count", [0, 1, formats.BLOCK_ROWS + 1])
def test_ply_bytes_match_oracle(tmp_path, count):
    points = with_special_values((1, count + 2, 3), count)
    valid = np.ones((1, count + 2), bool)
    valid[0, :2] = False  # two invalid pixels are left out
    points[0, :2] = np.nan
    cloud = dc.OrganizedCloud(count + 2, 1, points, valid)
    path = tmp_path / "c.ply"
    formats.write_cloud_ply(path, cloud)
    assert path.read_bytes() == ply_text(cloud).encode("ascii")
    assert np.array_equal(formats.read_cloud_ply(path), cloud.points[cloud.valid])


@pytest.mark.parametrize("size", [(32, 24, 4, 4), (160, 120, 2, 2)],
                         ids=["63-cells", "4941-cells"])
def test_calibration_bytes_match_oracle(tmp_path, size):
    _, gmap, extr, intr_d, intr_rgb = sample_calibration()
    umap = dc.UndistortionMap.identity(*size, 2)
    umap = umap.with_coefficients(with_special_values(umap.coefficients.shape, 4))
    path = tmp_path / "calib.txt"
    formats.write_calibration(path, umap, gmap, extr, intr_d, intr_rgb)
    assert path.read_bytes() == calibration_text(umap, gmap, extr, intr_d,
                                                 intr_rgb).encode("utf-8")
    assert formats.read_calibration(path)[0] == umap


def test_corners_bytes_match_oracle(tmp_path):
    corners = with_special_values((3, 4, 2), 5)
    path = tmp_path / "c.csv"
    formats.write_corners_csv(path, corners)
    assert path.read_bytes() == corners_text(corners).encode("utf-8")


def test_dataset_corner_bytes_match_oracle(tmp_path):
    scene = sb.standard_scene(n_train=2, n_test=1, seed=3, noise=False, width=32,
                              height=24,
                              distortion=sb.bowl_distortion(32, 24, grid_bin=(4, 4)))
    frames = [sb.render_frame(scene, k) for k in (0, 2)]
    formats.write_dataset(scene, frames, tmp_path)
    for lf in frames:
        csv = tmp_path / "corners" / f"{lf.frame.frame_id}.csv"
        assert csv.read_bytes() == corners_text(lf.frame.corners).encode("utf-8")


# ---------------------------------------------------------------------------
# atomicity and file modes


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    img = dc.DepthImage(2, 1, np.array([[1.5, 99999.0]]))  # out of mm range
    path = tmp_path / "d.pgm"
    with pytest.raises(FormatError):
        formats.write_depth_pgm(path, img)
    assert not path.exists()
    assert not any(p.name.startswith(".tmp_depthcal") for p in tmp_path.iterdir())


def test_failed_chunk_source_leaves_no_file(tmp_path):
    def chunks():
        yield b"ply\n"
        raise RuntimeError("source failed")

    path = tmp_path / "c.ply"
    with pytest.raises(RuntimeError, match="source failed"):
        formats._atomic_write_bytes(path, chunks())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_written_files_get_open_modes(tmp_path, umask):
    """Every writer gives its file the mode a plain open() would."""
    cloud = dc.OrganizedCloud(1, 1, np.ones((1, 1, 3)), np.ones((1, 1), bool))
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w"):
            pass
        formats.write_calibration(tmp_path / "calib.txt", *sample_calibration())
        formats.write_cloud_ply(tmp_path / "c.ply", cloud)
        formats.write_depth_pgm(tmp_path / "d.pgm", dc.DepthImage(1, 1, np.ones((1, 1))))
        formats.write_corners_csv(tmp_path / "c.csv", np.zeros((1, 1, 2)))
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes["plain.txt"] == 0o666 & ~umask
    assert set(modes.values()) == {0o666 & ~umask}, modes
