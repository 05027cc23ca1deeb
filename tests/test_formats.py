import functools
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthcal as dc
from depthcal import formats
from depthcal import synthbench as sb
from depthcal.cli import _read_scene_file
from depthcal.formats import FormatError
from depthcal.geometry import horner
from oracles import (
    calibration_text,
    corner_wh,
    corners_text,
    ply_bytes,
    read_keyvals,
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


@pytest.mark.parametrize("header", [b"2_0 1", b"+2 1", b"\xd9\xa2 1", b"2 1_0"])
def test_pgm_header_numbers_are_ascii_digits(tmp_path, header):
    # int() reads 2_0 as 20 and +2 as 2; the PLY vertex count takes digits only too
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n" + header + b"\n65535\n" + bytes(80))
    with pytest.raises(FormatError, match="malformed PGM header"):
        formats.read_depth_pgm(path)


def test_pgm_accepts_header_comments(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n# a comment\n1 1\n65535\n\x05\xdc")
    img = formats.read_depth_pgm(path)
    assert img.data[0, 0] == 1.5


def test_pgm_reads_every_sample_value_to_the_bits_of_the_division(tmp_path):
    """A 256 x 256 PGM holding each of the 65,536 sample values once reads
    back as `mm.astype(float) / 1000.0`, bit for bit."""
    mm = np.arange(65536, dtype=">u2").reshape(256, 256)
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n256 256\n65535\n" + mm.tobytes())
    back = formats.read_depth_pgm(path)
    want = mm.astype(float) / 1000.0
    assert np.array_equal(back.data.view(np.int64), want.view(np.int64))


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
    pytest.param("0,0,,2", id="empty-u"),
    pytest.param(",,,", id="every-field-empty"),
    pytest.param("0,0,1,2\n0,1,3,\n1,0,5,6\n1,1,7,8", id="empty-v-in-second-line"),
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
    intr_d = dc.CameraIntrinsics(fx=29.0, fy=29.15, cx=15.925, cy=11.975,
                                 width=32, height=24)
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
    assert np.max(np.abs(g2.correct(g2.width, g2.height, d) - horner(corner_wh(g2), d))) < 1e-12


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


def nan_focal_length(key):
    """A line edit that sets the fx of the `key` intrinsics line to nan."""
    def edit(ln):
        if ln.startswith(key + " "):
            tokens = ln.split()
            tokens[1] = "nan"
            return " ".join(tokens)
        return ln
    return edit


def test_calibration_rejects_nan_focal_length(tmp_path):
    path = tmp_path / "calib.txt"
    write_sample_calibration(path, nan_focal_length("depth_intrinsics"))
    with pytest.raises(FormatError):
        formats.read_calibration(path)


def test_calibration_rejects_umap_size_other_than_the_depth_intrinsics(tmp_path):
    # a U of another size fails every later correction with a message that
    # names neither the file nor the sizes
    intr_d = dc.CameraIntrinsics(fx=10.0, fy=10.0, cx=3.5, cy=2.5, width=8, height=6)
    _, gmap, extr, _, intr_rgb = sample_calibration()
    umap = dc.UndistortionMap.identity(16, 12, 4, 4, 2)
    path = tmp_path / "calib.txt"
    path.write_text(calibration_text(umap, gmap, extr, intr_d, intr_rgb))
    with pytest.raises(FormatError) as err:
        formats.read_calibration(path)
    assert str(err.value).startswith(f"{path}: ")
    assert "umap_size 16x12" in str(err.value)
    assert "depth_intrinsics size 8x6" in str(err.value)


def test_write_calibration_rejects_umap_size_other_than_the_depth_intrinsics(tmp_path):
    """The file read_calibration would reject is not written: no file is
    created, and a file at the path keeps its bytes."""
    intr_d = dc.CameraIntrinsics(fx=10.0, fy=10.0, cx=3.5, cy=2.5, width=8, height=6)
    _, gmap, extr, _, intr_rgb = sample_calibration()
    umap = dc.UndistortionMap.identity(16, 12, 4, 4, 2)
    path = tmp_path / "calib.txt"
    with pytest.raises(FormatError, match=r"umap_size 16x12 .* size 8x6"):
        formats.write_calibration(path, umap, gmap, extr, intr_d, intr_rgb)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"an earlier calibration\n")
    with pytest.raises(FormatError):
        formats.write_calibration(path, umap, gmap, extr, intr_d, intr_rgb)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"an earlier calibration\n"


@pytest.mark.parametrize("reader, key", [
    pytest.param(formats.read_calibration, "depth_intrinsics", id="calibration-depth"),
    pytest.param(formats.read_calibration, "rgb_intrinsics", id="calibration-rgb"),
    pytest.param(formats.read_manifest, "rgb_intrinsics", id="manifest-rgb"),
    pytest.param(formats.read_manifest, "depth_intrinsics_guess", id="manifest-depth"),
])
def test_intrinsics_errors_name_the_file_and_the_key(tmp_path, reader, key):
    path = tmp_path / "file.txt"
    if reader is formats.read_calibration:
        write_sample_calibration(path, nan_focal_length(key))
    else:
        edit = nan_focal_length(key)
        path.write_text("\n".join(map(edit, MANIFEST_TEXT.splitlines())) + "\n")
    with pytest.raises(FormatError) as err:
        reader(path)
    assert str(err.value) == f"{path}: {key}: non-finite value"


@pytest.mark.parametrize("prefix, line, message", [
    pytest.param("umap_bins ", "umap_bins 0 3", None, id="zero-bin"),
    pytest.param("umap_size ", "umap_size 8 6 7", None, id="three-sizes"),
    pytest.param("umap_size ", "umap_size", None, id="empty-size"),
    pytest.param("version ", "version", None, id="bare-version"),
    pytest.param("version ", "version 2", None, id="version-2"),
    pytest.param("umap_fn 0 0 ", "umap_fn x 0 0 1 0", None, id="non-integer-index"),
    pytest.param("umap_fn 8 0 ", "umap_fn 1.5 0 0 1 0", None, id="fractional-index"),
    pytest.param("umap_fn 8 0 ", "umap_fn 7 0 0 1 0", None, id="duplicate-index"),
    pytest.param("umap_fn 8 0 ", "umap_fn 8 0 0 1", None, id="two-coefficients"),
    # float() takes both; the number-block reader takes ASCII digits only
    pytest.param("umap_fn 8 0 ", "umap_fn 8 0 1_0 1 0", "'1_0'", id="underscore"),
    pytest.param("umap_fn 8 0 ", "umap_fn 8 0 \u0661 1 0", "'\u0661'", id="arabic-indic-digit"),
    # the key-value readers take ASCII digits only too
    pytest.param("umap_size ", "umap_size 3_2 24", "umap_size: malformed value",
                 id="underscore-size"),
    pytest.param("rgb_intrinsics ", "rgb_intrinsics 5_25 524 319.5 239.5 640 480 0 0 0 0 0",
                 "rgb_intrinsics: malformed value", id="underscore-intrinsics"),
    pytest.param("rgb_intrinsics ",
                 "rgb_intrinsics \u0665\u0662\u0665 524 319.5 239.5 640 480 0 0 0 0 0",
                 "rgb_intrinsics: malformed value", id="arabic-indic-intrinsics"),
    pytest.param("umap_degree ", "umap_degree \u0662", "umap_degree: malformed value",
                 id="arabic-indic-degree"),
    pytest.param("umap_fn 8 0 ", "umap_fn", "expected 5 values per line$", id="bare-line"),
    pytest.param("umap_fn 0 0 ", "umap_fn", "expected 5 values per line$", id="bare-first-line"),
    pytest.param("extrinsic_quaternion ", "extrinsic_quaternion 1 0 0 0 0", None,
                 id="five-value-quaternion"),
    pytest.param("extrinsic_quaternion ", "extrinsic_quaternion 1e200 0 0 0", None,
                 id="overflowing-quaternion"),
    # int() would truncate the width to 32
    pytest.param("depth_intrinsics ", "depth_intrinsics 290 290 15.5 11.5 32.9 24 0 0 0 0 0",
                 None, id="fractional-width"),
])
@pytest.mark.filterwarnings("error")
def test_calibration_rejects_malformed_line(tmp_path, prefix, line, message):
    path = tmp_path / "calib.txt"
    write_sample_calibration(path, lambda ln: line if ln.startswith(prefix) else ln)
    with pytest.raises(FormatError, match=message):
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


@pytest.mark.parametrize("frame, bad", [
    pytest.param(("a b", "d.pgm", "c.csv"), "a b", id="space-in-id"),
    pytest.param(("k#1", "d.pgm", "c.csv"), "k#1", id="hash-in-id"),
    pytest.param(("", "d.pgm", "c.csv"), "''", id="empty-id"),
    pytest.param(("a\nframe", "d.pgm", "c.csv"), "a\\nframe", id="newline-in-id"),
    pytest.param(("a", "depth/a b.pgm", "c.csv"), "depth/a b.pgm", id="space-in-depth"),
    pytest.param(("a", "d.pgm", "c#.csv"), "c#.csv", id="hash-in-corners"),
    pytest.param(("a", "", "c.csv"), "''", id="empty-depth"),
    pytest.param(("a", "d.pgm", "c.csv\t"), "c.csv\\t", id="tab-in-corners"),
    pytest.param(("a", "d.pgm", "c.csv", float("nan")), "not finite", id="nan-distance"),
    pytest.param(("t", "d.pgm", "c.csv"), "given twice", id="duplicate-id"),
])
def test_write_manifest_rejects_frames_the_reader_would_not_read(tmp_path, frame, bad):
    manifest = formats.DatasetManifest(
        board=dc.BoardSpec(6, 8, 0.1),
        intr_rgb=dc.CameraIntrinsics(fx=525, fy=525, cx=319.5, cy=239.5,
                                     width=640, height=480),
        intr_depth_guess=dc.CameraIntrinsics(fx=290, fy=290, cx=159.5, cy=119.5,
                                             width=320, height=240),
        extrinsic_guess=dc.RigidTransform((1, 0, 0, 0), (0.025, 0, 0)),
        frames=(formats.ManifestFrame("t", "dt.pgm", "ct.csv", 2.5),
                formats.ManifestFrame(*frame)))
    path = tmp_path / "manifest.txt"
    with pytest.raises(FormatError, match=re.escape(bad)) as info:
        formats.write_manifest(path, manifest)
    assert repr(frame[0]) in str(info.value)
    assert not path.exists()


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
    # float() and int() take these; the number-block reader does not
    pytest.param("board 6 8 0.1", "board 6_0 8 0.1", id="underscore-board"),
    pytest.param("ct.csv 2.5", "ct.csv \u0662.5", id="arabic-indic-distance"),
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


FN = "umap_fn 0 0 1 2\numap_fn 1 0 3 4\n"


@pytest.mark.parametrize("repeated, text", [
    pytest.param("umap_fn", "version 1\n" + FN + "x 1\numap_fn 2 0 5 6\ny 2 3\n"
                 "umap_fn 3 0 7 8\n", id="interleaved"),
    pytest.param("umap_fn", "x 1\numap_fn 0 0 1 2 # c\numap_fn 1 0 3#4\n"
                 "umap_fn # only a comment\numap_fn 2#\n", id="comment"),
    pytest.param("umap_fn", "x 1\numap_fn\t0 0 1 2\numap_fn 1 0 3 4\numap_fn\t2 0 5 6\n"
                 "umap_fn \t3 0 7 8\n", id="tab"),
    pytest.param("umap_fn", "x 1\numap_fn  0 0 1 2 \numap_fn   1 0 3 4\t\n",
                 id="two-spaces"),
    pytest.param("umap_fn", "x 1\n umap_fn 0 0 1 2\numap_fn 1 0 3 4\n\tumap_fn 2 0 5 6\n"
                 "umap_fn 3 0 7 8 #\n umap_fn 4 0 9 0\numap_fn 5 0 1 1\n  x2 3\n",
                 id="leading-whitespace"),
    pytest.param("umap_fn", "x 1\n" + FN + "umap_fn 2 0 5 6 # c\ny 2\n",
                 id="comment-on-last-block-line"),
    pytest.param("umap_fn", "x 1\n" + FN + "y 2\numap_fn 2 0 5 6\nz 3\n",
                 id="other-line-before-last-block-line"),
    pytest.param("umap_fn", FN + "umap_fn 2 0 5 6\n", id="only-the-block"),
    pytest.param("umap_fn", FN + "x 1\n", id="first-line"),
    pytest.param("umap_fn", "x 1\n" + FN + "umap_fn 2 0 5 6", id="no-final-newline"),
    pytest.param("umap_fn", "x 1\n" + FN + "umap_fn", id="bare-last-line"),
    pytest.param("umap_fn", "x 1\r\n" + FN.replace("\n", "\r\n") + "y 2\r\n", id="crlf"),
    pytest.param("umap_fn", "x 1\r" + FN.replace("\n", "\r") + "y 2\r", id="cr"),
    pytest.param("umap_fn", "umap_fnX 1\n" + FN + "umap_fnX 2\n", id="key-prefix"),
    pytest.param("umap_fn", "umap_fnX 1\n" + FN + "umap_fn_ 2\n", id="key-prefixes"),
    pytest.param("umap_fn", "x 1\numap_fn\numap_fn \n" + FN + "umap_fn\n",
                 id="bare-key"),
    pytest.param("umap_fn", "x 1\n" + FN + "x 3\n", id="scalar-again-after-block"),
    pytest.param("umap_fn", "x 1\n" + FN + "y 2\ny 3\nx 4\n", id="first-error-in-order"),
    pytest.param("umap_fn", "# umap_fn 9 9\nx 1 # umap_fn 8\n\n" + FN + "\n\n",
                 id="comments-and-blank-lines"),
    pytest.param("umap_fn", "x 1\numap_fn\x0c0 0 1 2\numap_fn 1\x850 3 4\n"
                 "umap_fn 2\u2028umap_fn 5 6\n", id="other-whitespace"),
    pytest.param("umap_fn", "version 2\n" + FN, id="version-2"),
    pytest.param("umap_fn", "", id="empty"),
    pytest.param("umap_fn", "x 1\n", id="no-repeated-line"),
    pytest.param("umap_fn", calibration_text(*sample_calibration()), id="calibration"),
    pytest.param("frame", MANIFEST_TEXT.replace("frame a", "x 1\nframe a")
                 + "frame  u du.pgm cu.csv # c\n", id="manifest"),
    pytest.param("frame", MANIFEST_TEXT.replace("frame t", "frame s ds.pgm cs.csv #\nframe t"),
                 id="manifest-frame-comment"),
    pytest.param(None, "peak 0.01\nimage_width 80\n", id="scene"),
    pytest.param(None, "peak 0.01\nimage_width 80\npeak 2\n", id="scene-twice"),
])
def test_key_value_reader_matches_reading_every_line(tmp_path, repeated, text):
    path = tmp_path / "file.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        want, want_texts = read_keyvals(path, [repeated] if repeated else [])
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            formats._read_keyvals(path, repeated)
        assert str(got.value) == str(exc)
        return
    kv, texts = formats._read_keyvals(path, repeated)
    assert kv == want
    assert [t.split() for t in texts] == [t.split() for t in want_texts.get(repeated, [])]


def test_calibration_reader_peak_memory(tmp_path):
    """A 640x480, 4x4-bin calibration (19,481 umap_fn lines, 1.5 MB) is read
    with one list of its umap_fn texts beside the text: about 2.7x the
    file's size at the peak, where reading it as a list of every line and a
    second list of their texts took 3.4x."""
    umap = dc.UndistortionMap.identity(640, 480, 4, 4, 2)
    umap = umap.with_coefficients(
        umap.coefficients + np.random.default_rng(7).normal(0, 0.01, umap.coefficients.shape))
    intr = dc.CameraIntrinsics(fx=580.0, fy=580.0, cx=319.5, cy=239.5, width=640, height=480)
    path = tmp_path / "calib.txt"
    formats.write_calibration(path, umap, dc.GlobalMap.identity(640, 480),
                              dc.RigidTransform.identity(), intr, intr)
    tracemalloc.start()
    try:
        back = formats.read_calibration(path)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.coefficients, umap.coefficients)
    ratio = peak / os.path.getsize(path)
    assert ratio < 3.0, f"{ratio:.2f} x the file's size"


@pytest.mark.parametrize("reader, message", [
    pytest.param(formats.read_calibration, "not UTF-8", id="calibration"),
    pytest.param(formats.read_manifest, "not UTF-8", id="manifest"),
    pytest.param(formats.read_corners_csv, "not UTF-8", id="corners"),
    # the binary PLY reader decodes no text; the magic bytes differ
    pytest.param(formats.read_cloud_ply, "not a PLY file", id="ply"),
])
def test_text_readers_reject_undecodable_bytes(tmp_path, reader, message):
    """A text file saved as UTF-16: it starts with the bytes ff fe."""
    path = tmp_path / "file.txt"
    path.write_bytes("ply\nversion 1\n".encode("utf-16"))
    with pytest.raises(FormatError, match=message):
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
    assert text[:2] == ["ply", "format binary_little_endian 1.0"]
    assert "element vertex 0" in text
    assert text[-1] == "end_header"


# a valid PLY of the points (1, 2, 3) and (4, 5, 6), and its vertex bytes
VALID_PLY = ply_bytes(dc.OrganizedCloud(2, 1, np.arange(1.0, 7.0).reshape(1, 2, 3),
                                        np.ones((1, 2), bool)))
BODY = VALID_PLY[-48:]


@pytest.mark.parametrize("old, new", [
    pytest.param(b"format binary_little_endian", b"format ascii", id="ascii-format"),
    pytest.param(b"binary_little_endian", b"binary_big_endian", id="big-endian"),
    pytest.param(b"property double x", b"property float x", id="float-property"),
    pytest.param(b"double x\nproperty double y", b"double y\nproperty double x",
                 id="properties-out-of-order"),
    pytest.param(b"corrected", "corr\u00e9cted".encode("utf-8"), id="non-ascii-header-byte"),
    pytest.param(b"vertex 2", b"vertex", id="no-count"),
    pytest.param(b"vertex 2", b"vertex -1", id="negative-count"),
    pytest.param(b"vertex 2", "vertex \u00b2".encode("utf-8"), id="non-ascii-count"),
    pytest.param(b"vertex 2", b"vertex " + b"9" * 5000, id="huge-count"),
    # a count allowed by the header but not by the file's size
    pytest.param(b"vertex 2", b"vertex " + b"9" * 18, id="count-beyond-the-file"),
    pytest.param(BODY, BODY[:-1], id="one-byte-short"),
    pytest.param(BODY, BODY + b"\0", id="one-byte-long"),
    pytest.param(BODY, np.array([np.nan, 2, 3, 4, 5, 6], "<f8").tobytes(),
                 id="nan-coordinate"),
    # an ASCII body under the binary header must not be read as ASCII
    pytest.param(BODY, b"1 2 3\n4 5 6\n", id="binary-format"),
    # and neither is one the ASCII reader rejected
    pytest.param(BODY, b"1 2\n3 4 5 6\n", id="two-and-four-tokens"),
    pytest.param(BODY, b"1 2 3 4\n5 6\n", id="four-and-two-tokens"),
    pytest.param(BODY, b"1 2 3 ;\n5 6\n", id="separator-token"),
    pytest.param(BODY, b"1 2 3\n", id="missing-line"),
    pytest.param(BODY, b"\n1 2 3\n", id="blank-line"),
])
def test_ply_rejects_malformed(tmp_path, old, new):
    """Each file differs from a valid one in one place; a count that cannot
    be read or does not fit the file raises before the count is allocated."""
    path = tmp_path / "c.ply"
    path.write_bytes(VALID_PLY.replace(old, new, 1))
    assert path.read_bytes() != VALID_PLY
    with pytest.raises(FormatError):
        formats.read_cloud_ply(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_ply_reader_newlines_and_lines_after_the_body(tmp_path, newline):
    """Only '\\n' ends a header line, and a line after the vertex block is
    an error, not ignored: either moves the vertex bytes against the
    header."""
    head = VALID_PLY[:-len(BODY)].replace(b"\n", newline.encode("ascii"))
    path = tmp_path / "c.ply"
    path.write_bytes(head + BODY)
    if newline == "\n":
        assert np.array_equal(formats.read_cloud_ply(path), [[1, 2, 3], [4, 5, 6]])
    else:
        with pytest.raises(FormatError):
            formats.read_cloud_ply(path)
    path.write_bytes(VALID_PLY + b"not a vertex\n")
    with pytest.raises(FormatError, match="bytes of vertex data"):
        formats.read_cloud_ply(path)


def test_ply_reader_rejects_undecodable_bytes_after_the_body(tmp_path):
    """Bytes after the vertex block are an error, whatever they are."""
    count = formats.BLOCK_ROWS + 1
    points = np.ones((1, count, 3))
    path = tmp_path / "c.ply"
    path.write_bytes(ply_bytes(dc.OrganizedCloud(count, 1, points, np.ones((1, count), bool)))
                     + b"\xff\n")
    with pytest.raises(FormatError, match="bytes of vertex data"):
        formats.read_cloud_ply(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ply_reader_raises_only_format_error(tmp_path_factory, data):
    """One header line loses, repeats or changes one token; the vertex
    bytes stay. The reader raises FormatError, or the header is unchanged
    and the reader returns the points."""
    rng = np.random.default_rng(3)
    cloud = dc.OrganizedCloud(3, 1, rng.normal(size=(1, 3, 3)), np.ones((1, 3), bool))
    valid = ply_bytes(cloud)
    head, body = valid[:-3 * 24].decode("ascii"), valid[-3 * 24:]
    text = mutate_one_token(data, head)
    path = tmp_path_factory.mktemp("ply") / "c.ply"
    path.write_bytes(text.encode("utf-8") + body)
    try:
        pts = formats.read_cloud_ply(path)
    except FormatError:
        return
    assert text == head
    assert np.array_equal(pts, cloud.points[0])


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
    _, gmap, extr, intr_d, intr_rgb = sample_calibration()
    intr_d = replace(intr_d, width=umap.width, height=umap.height)
    head, fns, tail = [], [], []
    for ln in calibration_text(umap, gmap, extr, intr_d, intr_rgb).splitlines():
        (fns if ln.startswith("umap_fn ") else tail if fns else head).append(ln)
    return umap.grid_shape, head, fns, tail


@pytest.mark.parametrize("size, start", [
    pytest.param((32, 24, 4, 4), 0, id="63-cells"),
    # BLOCK_ROWS + 1 lines, only the last mutated: a fault after 4096 good lines
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
    # BLOCK_ROWS + 1 corner lines, only the last mutated: a fault after 4096 good lines
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
    """The vertex doubles are read straight into the returned array, 24 B
    per point, with no copy of the file beside it (about 27 B per point
    here; the ASCII reader, which parsed its text a chunk at a time, took
    about 78)."""
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


def test_ply_writer_peak_memory(tmp_path):
    """A 640x480 cloud is written without a copy of its valid points: the
    traced peak stays below a quarter of their bytes (one chunk of
    formats.BLOCK_ROWS points is 98 KB of the 6.6 MB here)."""
    rng = np.random.default_rng(6)
    valid = rng.random((480, 640)) < 0.9
    cloud = dc.OrganizedCloud(640, 480, rng.normal(size=(480, 640, 3)), valid)
    path = tmp_path / "c.ply"
    tracemalloc.start()
    try:
        formats.write_cloud_ply(path, cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    point_bytes = 24 * np.count_nonzero(valid)
    assert peak < point_bytes / 4, f"{peak / point_bytes:.3f} x the valid points' bytes"
    assert path.read_bytes() == ply_bytes(cloud)


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


def two_chunk_block(values, ncols):
    """`values` repeated over BLOCK_ROWS + 1 rows, which `_format_rows`
    prints in two `%` calls."""
    return np.resize(np.asarray(values, dtype=float), (formats.BLOCK_ROWS + 1, ncols))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=48),
       finite=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=16))
def test_format_rows_block_matches_percent(values, finite):
    """Any floats, and any finite floats in a column of their own, printed
    chunk by chunk: the chunks join to the bytes of one `%` call."""
    block = np.column_stack([two_chunk_block(values, 2), two_chunk_block(finite, 1)])
    line = "%.17g %.17g|%.17g\n"
    assert b"".join(formats._format_rows(line, block)) == percent_bytes(line, block)


def edge_values():
    """The powers of ten from 1e-4, where `%.17g` turns to scientific
    notation, to 1e15, each with its neighbours (the one below 0.1 prints
    as 0.099999999999999992), and two exact binary ties at the 17th digit
    (…62|5 rounds down to even, …37|5 up)."""
    powers = [float(f"1e{k}") for k in range(-4, 16)]
    values = [0.0, 123456789012345.625, 123456789012345.375]
    values += [x for p in powers for x in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]
    return [float(x) for x in values + [-x for x in values]]


@pytest.mark.parametrize("value", edge_values(), ids=repr)
def test_format_rows_edge_values_match_percent(value):
    """Each value's text reads back to its bits, the sign of zero too."""
    block = np.resize([value, 1.5], (2, 3))
    line = "%.17g %.17g %.17g\n"
    text = b"".join(formats._format_rows(line, block))
    assert text == percent_bytes(line, block)
    back = formats._parse_rows(text.decode("ascii").splitlines(), 3, "block")
    assert np.array_equal(back.view(np.int64), block.view(np.int64))


def test_format_rows_ties_round_half_even():
    block = [[123456789012345.625, -123456789012345.375]]
    text = b"".join(formats._format_rows("%.17g %.17g\n", block))
    assert text.split(b"\n")[0] == b"123456789012345.62 -123456789012345.38"


def test_index_columns_keep_the_bytes_of_the_integer_conversion(tmp_path):
    """`_fn` and corner indices are printed by `%.17g` and keep the bytes
    of the `%d` templates they were once written with: 201 control columns
    give three-digit indices."""
    _, gmap, extr, intr_d, intr_rgb = sample_calibration()
    umap = dc.UndistortionMap.identity(400, 6, 2, 2, 2)  # 4 x 201 control pixels
    umap = umap.with_coefficients(with_special_values(umap.coefficients.shape, 8))
    intr_d = replace(intr_d, width=umap.width, height=umap.height, cy=2.5)
    gh, gw = umap.grid_shape
    assert gw > 100
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
    """A block one row longer than a chunk, its one zero in the second
    chunk, is printed in two chunks with the bytes of one `%` call."""
    rng = np.random.default_rng(7)
    block = rng.uniform(1.0, 2.0, size=(formats.BLOCK_ROWS + 1, 3))
    block *= rng.choice([-1.0, 1.0], size=block.shape)
    block[-1, 1] = 0.0
    line = "%.17g %.17g %.17g\n"
    chunks = list(formats._format_rows(line, block))
    assert len(chunks) == 2
    assert b"".join(chunks) == percent_bytes(line, block)


@pytest.mark.parametrize("pixels, invalid", [
    pytest.param(2, slice(0, 2), id="0"),
    pytest.param(3, slice(0, 2), id="1"),
    pytest.param(formats.BLOCK_ROWS + 3, slice(0, 2), id="4097"),
    # the points are written formats.BLOCK_ROWS pixels at a time
    pytest.param(formats.BLOCK_ROWS - 1, slice(0, 2), id="one-short-chunk"),
    pytest.param(formats.BLOCK_ROWS, slice(0, 2), id="one-chunk"),
    pytest.param(formats.BLOCK_ROWS + 1, slice(0, 2), id="one-pixel-past-a-chunk"),
    pytest.param(3 * formats.BLOCK_ROWS, slice(formats.BLOCK_ROWS, 2 * formats.BLOCK_ROWS),
                 id="a-chunk-with-no-valid-pixel"),
])
def test_ply_bytes_match_oracle(tmp_path, pixels, invalid):
    count = pixels - (invalid.stop - invalid.start)
    points = with_special_values((1, pixels, 3), count)
    valid = np.ones((1, pixels), bool)
    valid[0, invalid] = False  # invalid pixels are left out
    points[0, invalid] = np.nan
    cloud = dc.OrganizedCloud(pixels, 1, points, valid)
    path = tmp_path / "c.ply"
    formats.write_cloud_ply(path, cloud)
    assert path.read_bytes() == ply_bytes(cloud)
    assert np.array_equal(formats.read_cloud_ply(path), cloud.points[cloud.valid])


def test_ply_bytes_keep_the_row_major_order_of_the_valid_pixels(tmp_path):
    """A 24 x 32 cloud with a random invalid mask, its first pixel invalid
    and its last valid, written in the order of `points[valid]`."""
    rng = np.random.default_rng(12)
    valid = rng.random((24, 32)) < 0.7
    valid[0, 0], valid[-1, -1] = False, True
    points = with_special_values((24, 32, 3), 12)
    cloud = dc.OrganizedCloud(32, 24, points, valid)
    path = tmp_path / "c.ply"
    formats.write_cloud_ply(path, cloud)
    assert path.read_bytes() == ply_bytes(cloud)


@pytest.mark.parametrize("size", [(32, 24, 4, 4), (160, 120, 2, 2), (640, 480, 4, 4)],
                         ids=["63-cells", "4941-cells", "19481-cells"])
def test_calibration_bytes_match_oracle(tmp_path, size):
    _, gmap, extr, intr_d, intr_rgb = sample_calibration()
    umap = dc.UndistortionMap.identity(*size, 2)
    umap = umap.with_coefficients(with_special_values(umap.coefficients.shape, 4))
    intr_d = replace(intr_d, width=umap.width, height=umap.height)
    path = tmp_path / "calib.txt"
    formats.write_calibration(path, umap, gmap, extr, intr_d, intr_rgb)
    assert path.read_bytes() == calibration_text(umap, gmap, extr, intr_d,
                                                 intr_rgb).encode("utf-8")
    back = formats.read_calibration(path)[0]
    assert back == umap
    assert np.array_equal(back.coefficients.view(np.int64), umap.coefficients.view(np.int64))


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


def test_replacing_a_symlink_to_a_directory_replaces_the_link(tmp_path):
    # a rename does not follow a symlink at its destination; neither does
    # the directory check made before it
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "link").symlink_to("a_dir")
    with formats.replacing(tmp_path / "link") as (tmp,):
        with open(tmp, "wb") as f:
            f.write(b"new\n")
    assert not (tmp_path / "link").is_symlink()
    assert (tmp_path / "link").read_bytes() == b"new\n"
    assert (tmp_path / "a_dir").is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "link"]


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
