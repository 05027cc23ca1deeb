"""File formats: depth PGM, corner CSV, manifests, calibration files, PLY.

Text formats are line-oriented `key value...` with `#` comments, UTF-8 and
'.' decimal separators. Floats are written with 17 significant digits so
every serialization round-trips exactly. Number blocks (PLY vertices, the
per-control-pixel `_fn` lines, corner grids) are formatted BLOCK_ROWS rows
per `%` call and streamed to disk chunk by chunk, so no block's text is held
whole. Readers split a file into lines once. A number block is read back by
`_parse_rows`, the mirror of `_format_rows`: it splits BLOCK_ROWS lines at a
time and parses them into one float array. An index column read this way
(`_fn` and corner indices) must hold integral values inside its grid, each
index given once. Key-value files are collected by `_read_keyvals`; a key
given twice is an error.

Writes go to a temp file in the target directory and are renamed into
place, so readers never see partial files. A written file gets the mode
`open()` would give it: 0o666 less the umask.

Depth PGM: binary P5, maxval 65535, 16-bit big-endian samples holding
millimeters; 0 marks an invalid pixel. Values convert to meters on load.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .calib_undistort import BoardSpec, CalibrationError, Frame
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    GeometryError,
    OrganizedCloud,
    RigidTransform,
)
from .maps import MAX_DEGREE, GlobalMap, MapError, PolyFn, UndistortionMap, _grid_shape

FORMAT_VERSION = 1
BLOCK_ROWS = 4096  # rows of a number block formatted and written per chunk


class FormatError(ValueError):
    """Raised on malformed files."""


def _fmt(x):
    return format(float(x), ".17g")


def _format_rows(line, rows):
    """ASCII bytes of `line % row` for each row of a 2-D array, in chunks of
    BLOCK_ROWS rows, each from one format call.

    `%.17g` of a Python float gives the bytes of `_fmt`, and `%d` of an
    integral float those of the int.
    """
    rows = np.asarray(rows, dtype=float)
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        yield ((line * block.shape[0]) % tuple(block.ravel().tolist())).encode("ascii")


def _atomic_write_bytes(path, chunks):
    """Write an iterable of byte chunks to `path` through a temp file.

    The temp file is created with mode 0o666, so the umask applies as it
    does to `open()`. If the chunks raise, neither file is left behind.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".tmp_depthcal_{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _text(lines):
    """Lines joined into a text, each ending in a newline."""
    return "".join(f"{ln}\n" for ln in lines)


def _atomic_write_text(path, text: str):
    _atomic_write_bytes(path, [text.encode("utf-8")])


def _read_lines(path):
    """The lines of a UTF-8 text file, read as one text; undecodable bytes
    raise FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_keyvals(path, repeated=()):
    """A key-value text file as ({key: tokens}, {key: texts}): the tokens of
    each key given once, and for each key in `repeated` the text after the
    key on each of its lines. Any other key given twice raises FormatError."""
    kv = {}
    texts = {key: [] for key in repeated}
    for line in _read_lines(path):
        head = line.partition("#")[0].split(None, 1)
        if not head:
            continue
        key, text = head[0], "".join(head[1:])
        if key in texts:
            texts[key].append(text)
        elif key in kv:
            raise FormatError(f"{path}: {key} given twice")
        else:
            kv[key] = text.split()
    return kv, texts


def _parse_rows(lines, ncols, what):
    """(len(lines), ncols) array of lines of `ncols` finite numbers each, the
    reader that matches `_format_rows`: BLOCK_ROWS lines are split at a time.

    Each line gets a closing ';' token, which float() rejects. A chunk is well
    formed only if every (ncols + 1)-th token is ';' and the rest parse, which
    holds only when every line holds exactly `ncols` tokens.
    """
    out = np.empty((len(lines), ncols))
    for start in range(0, len(lines), BLOCK_ROWS):
        chunk = lines[start:start + BLOCK_ROWS]
        tokens = " ;\n".join(chunk + [""]).split()
        if (len(tokens) != (ncols + 1) * len(chunk)
                or tokens[ncols::ncols + 1].count(";") != len(chunk)):
            raise FormatError(f"{what}: expected {ncols} values per line")
        del tokens[ncols::ncols + 1]
        try:
            out[start:start + len(chunk)] = np.fromiter(
                map(float, tokens), dtype=float, count=len(tokens)).reshape(-1, ncols)
        except ValueError as exc:
            raise FormatError(f"{what}: malformed value ({exc})") from exc
    if not np.all(np.isfinite(out)):
        raise FormatError(f"{what}: non-finite value")
    return out


def _grid_index(index, shape, what):
    """The two columns of an (N, 2) float index as ints, once each row is
    checked to be integral and inside a grid of `shape`, and given once."""
    ok = np.all((index == np.floor(index)) & (index >= 0) & (index < shape), axis=1)
    if not np.all(ok):
        a, b = index[np.argmin(ok)]
        raise FormatError(f"{what} {_fmt(a)} {_fmt(b)} is fractional, negative or outside "
                          f"the {_fmt(shape[0])}x{_fmt(shape[1])} grid")
    a, b = index.astype(np.intp).T
    cols = int(shape[1])
    twice = np.flatnonzero(np.bincount(a * cols + b) > 1)
    if twice.size:
        raise FormatError(f"{what} {twice[0] // cols} {twice[0] % cols} given twice")
    return a, b


# ---------------------------------------------------------------------------
# depth PGM


def write_depth_pgm(path, img: DepthImage):
    """16-bit binary PGM, millimeters, big-endian sample order."""
    mm = np.round(img.data * 1000.0)
    if np.any(mm < 0) or np.any(mm > 65535):
        raise FormatError("depth out of the 16-bit millimeter range")
    header = f"P5\n{img.width} {img.height}\n65535\n".encode("ascii")
    _atomic_write_bytes(path, [header, mm.astype(">u2").tobytes()])


def read_depth_pgm(path) -> DepthImage:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    # header: magic, width, height, maxval; '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed PGM header") from exc
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: PGM size {width}x{height} is not positive")
    if maxval != 65535:
        raise FormatError(f"{path}: expected maxval 65535, got {maxval}")
    expected = width * height * 2
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise FormatError(f"{path}: truncated PGM payload")
    mm = np.frombuffer(payload, dtype=">u2").reshape(height, width)
    return DepthImage(width, height, mm.astype(float) / 1000.0)


# ---------------------------------------------------------------------------
# corners CSV


def write_corners_csv(path, corners):
    """Corner grid (rows, cols, 2) -> `row,col,u,v` lines."""
    corners = np.asarray(corners, dtype=float)
    rows, cols = corners.shape[:2]
    r, c = np.indices((rows, cols)).reshape(2, -1)
    grid = np.column_stack([r, c, corners.reshape(rows * cols, 2)])
    _atomic_write_bytes(path, chain([b"row,col,u,v\n"],
                                    _format_rows("%d,%d,%.17g,%.17g\n", grid)))


def read_corners_csv(path):
    lines = [ln.strip() for ln in _read_lines(path) if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "row,col,u,v":
        raise FormatError(f"{path}: expected header 'row,col,u,v'")
    if any(ln.count(",") != 3 for ln in lines[1:]):
        raise FormatError(f"{path}: a corner line needs 4 comma-separated values")
    entries = _parse_rows([ln.replace(",", " ") for ln in lines[1:]], 4, f"{path}: corner")
    if not len(entries):
        raise FormatError(f"{path}: no corners")
    # the grid is checked complete before anything of its size is allocated;
    # Python floats overflow to inf without a warning
    rows, cols = (entries[:, :2].max(axis=0) + 1).tolist()
    if len(entries) != rows * cols:
        raise FormatError(f"{path}: incomplete {_fmt(rows)}x{_fmt(cols)} corner grid")
    r, c = _grid_index(entries[:, :2], (rows, cols), f"{path}: corner")
    out = np.empty((int(rows), int(cols), 2))
    out[r, c] = entries[:, 2:]
    return out


# ---------------------------------------------------------------------------
# intrinsics / transforms as key-value tokens


def _intr_tokens(intr: CameraIntrinsics):
    vals = [intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height,
            *intr.radial_dist, *intr.tangential_dist]
    return " ".join(_fmt(v) if isinstance(v, float) else str(v) for v in vals)


def _values(tokens, count, what, kind=float):
    """`count` finite numbers of type `kind` parsed from tokens."""
    if len(tokens) != count:
        raise FormatError(f"{what}: expected {count} values, got {len(tokens)}")
    try:
        vals = [kind(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"{what}: malformed value in {' '.join(tokens)!r}") from exc
    if kind is float and not np.all(np.isfinite(vals)):
        raise FormatError(f"{what}: non-finite value")
    return vals


def _intr_from_tokens(tokens):
    vals = _values(tokens, 11, "intrinsics")
    if not (vals[4].is_integer() and vals[5].is_integer()):
        raise FormatError(f"intrinsics: image size {vals[4]!r}x{vals[5]!r} is not integral")
    try:
        return CameraIntrinsics(fx=vals[0], fy=vals[1], cx=vals[2], cy=vals[3],
                                width=int(vals[4]), height=int(vals[5]),
                                radial_dist=tuple(vals[6:9]),
                                tangential_dist=tuple(vals[9:11]))
    except GeometryError as exc:
        raise FormatError(f"invalid intrinsics: {exc}") from exc


def _transform_lines(prefix, t: RigidTransform):
    q = t.quaternion
    tr = t.translation
    return [f"{prefix}_translation {_fmt(tr[0])} {_fmt(tr[1])} {_fmt(tr[2])}",
            f"{prefix}_quaternion {_fmt(q[0])} {_fmt(q[1])} {_fmt(q[2])} {_fmt(q[3])}"]


def _transform(quaternion_tokens, translation_tokens, what):
    """RigidTransform from 4 quaternion and 3 translation tokens."""
    quaternion = _values(quaternion_tokens, 4, f"{what} quaternion")
    translation = _values(translation_tokens, 3, f"{what} translation")
    try:
        return RigidTransform(quaternion, translation)
    except GeometryError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def _fn_block(prefix, umap: UndistortionMap):
    """`<prefix>_fn i j c0 .. cd` lines of every control pixel, row by row, as
    byte chunks."""
    gh, gw = umap.grid_shape
    j, i = np.indices((gh, gw)).reshape(2, -1)
    rows = np.column_stack([i, j, umap.coefficients.reshape(gh * gw, -1)])
    return _format_rows(f"{prefix}_fn %d %d" + " %.17g" * (umap.degree + 1) + "\n", rows)


def _undistortion_map(kv, fn_lines, prefix, path):
    """UndistortionMap from `<prefix>_size`, `_bins` and `_degree` in kv and
    the text `i j c0 .. cd` of one `<prefix>_fn` line per control pixel."""
    width, height = _values(kv[f"{prefix}_size"], 2, f"{path}: {prefix}_size", int)
    chi, psi = _values(kv[f"{prefix}_bins"], 2, f"{path}: {prefix}_bins", int)
    [degree] = _values(kv[f"{prefix}_degree"], 1, f"{path}: {prefix}_degree", int)
    if min(width, height, chi, psi) <= 0:
        raise FormatError(f"{path}: {prefix} size and bins must be positive")
    if not 1 <= degree <= MAX_DEGREE:
        raise FormatError(f"{path}: {prefix}_degree must be between 1 and {MAX_DEGREE}")
    # the count is checked from the grid shape before anything is allocated
    gh, gw = _grid_shape(width, height, chi, psi)
    if len(fn_lines) != gh * gw:
        raise FormatError(f"{path}: expected {gh * gw} {prefix}_fn lines, got {len(fn_lines)}")
    rows = _parse_rows(fn_lines, degree + 3, f"{path}: {prefix}_fn")
    i, j = _grid_index(rows[:, :2], (gw, gh), f"{path}: {prefix}_fn")
    coeffs = np.empty((gh, gw, degree + 1))
    coeffs[j, i] = rows[:, 2:]
    return UndistortionMap(width, height, chi, psi, coeffs)


# ---------------------------------------------------------------------------
# calibration file


def write_calibration(path, umap: UndistortionMap, gmap: GlobalMap,
                      extrinsic: RigidTransform, intr_depth: CameraIntrinsics,
                      intr_rgb: CameraIntrinsics):
    head = [
        "# depthcal calibration",
        f"version {FORMAT_VERSION}",
        f"rgb_intrinsics {_intr_tokens(intr_rgb)}",
        f"depth_intrinsics {_intr_tokens(intr_depth)}",
        *_transform_lines("extrinsic", extrinsic),
        f"umap_size {umap.width} {umap.height}",
        f"umap_bins {umap.chi} {umap.psi}",
        f"umap_degree {umap.degree}",
    ]
    tail = [f"gmap_degree {gmap.degree}"]
    for name, fn in (("00", gmap.corner_00), ("w0", gmap.corner_w0),
                     ("0h", gmap.corner_0h)):
        coeffs = " ".join(_fmt(c) for c in fn.coefficients)
        tail.append(f"gmap_corner_{name} {coeffs}")
    _atomic_write_bytes(path, chain([_text(head).encode("utf-8")], _fn_block("umap", umap),
                                    [_text(tail).encode("utf-8")]))


def read_calibration(path):
    """Returns (umap, gmap, extrinsic, intr_depth, intr_rgb).

    Raises FormatError on any malformed content. Only the three free
    global-map corners are stored, so the planarity constraint cannot be
    broken by file edits.
    """
    kv, texts = _read_keyvals(path, repeated=("umap_fn",))
    try:
        [version] = _values(kv["version"], 1, f"{path}: version", int)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        intr_rgb = _intr_from_tokens(kv["rgb_intrinsics"])
        intr_depth = _intr_from_tokens(kv["depth_intrinsics"])
        extrinsic = _transform(kv["extrinsic_quaternion"],
                               kv["extrinsic_translation"], f"{path}: extrinsic")
        umap = _undistortion_map(kv, texts["umap_fn"], "umap", path)
        [g_degree] = _values(kv["gmap_degree"], 1, f"{path}: gmap_degree", int)
        if not 1 <= g_degree <= MAX_DEGREE:
            raise FormatError(f"{path}: gmap_degree must be between 1 and {MAX_DEGREE}")
        corners = [PolyFn(_values(kv[f"gmap_corner_{n}"], g_degree + 1,
                                  f"{path}: gmap_corner_{n}"), constant_zero=True)
                   for n in ("00", "w0", "0h")]
        gmap = GlobalMap(umap.width, umap.height, *corners)
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc}") from exc
    except MapError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return umap, gmap, extrinsic, intr_depth, intr_rgb


# ---------------------------------------------------------------------------
# dataset manifest


@dataclass(frozen=True)
class ManifestFrame:
    frame_id: str
    depth_path: str
    corners_path: str
    true_distance: float | None = None


@dataclass(frozen=True)
class DatasetManifest:
    board: BoardSpec
    intr_rgb: CameraIntrinsics
    intr_depth_guess: CameraIntrinsics
    extrinsic_guess: RigidTransform
    frames: tuple  # of ManifestFrame


def write_manifest(path, manifest: DatasetManifest):
    b = manifest.board
    lines = [
        "# depthcal dataset manifest",
        f"version {FORMAT_VERSION}",
        f"board {b.rows} {b.cols} {_fmt(b.square_size)}",
        f"rgb_intrinsics {_intr_tokens(manifest.intr_rgb)}",
        f"depth_intrinsics_guess {_intr_tokens(manifest.intr_depth_guess)}",
        *_transform_lines("extrinsic_guess", manifest.extrinsic_guess),
    ]
    for fr in manifest.frames:
        extra = f" {_fmt(fr.true_distance)}" if fr.true_distance is not None else ""
        lines.append(f"frame {fr.frame_id} {fr.depth_path} {fr.corners_path}{extra}")
    _atomic_write_text(path, _text(lines))


def read_manifest(path) -> DatasetManifest:
    kv, texts = _read_keyvals(path, repeated=("frame",))
    frames = []
    for tokens in map(str.split, texts["frame"]):
        if len(tokens) not in (3, 4):
            raise FormatError(f"{path}: malformed frame line")
        dist = None
        if len(tokens) == 4:
            [dist] = _values(tokens[3:], 1, f"{path}: frame {tokens[0]} distance")
        frames.append(ManifestFrame(tokens[0], tokens[1], tokens[2], dist))
    try:
        rows, cols = _values(kv["board"][:2], 2, f"{path}: board corners", int)
        [square] = _values(kv["board"][2:], 1, f"{path}: board square size")
        board = BoardSpec(rows, cols, square)
        manifest = DatasetManifest(
            board=board,
            intr_rgb=_intr_from_tokens(kv["rgb_intrinsics"]),
            intr_depth_guess=_intr_from_tokens(kv["depth_intrinsics_guess"]),
            extrinsic_guess=_transform(kv["extrinsic_guess_quaternion"],
                                       kv["extrinsic_guess_translation"],
                                       f"{path}: extrinsic_guess"),
            frames=tuple(frames),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc}") from exc
    except CalibrationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    ids = [fr.frame_id for fr in manifest.frames]
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate frame ids")
    return manifest


def load_frames(manifest: DatasetManifest, base_dir, test_only=False,
                train_only=False):
    """Load manifest frames from disk; corners validated against RGB bounds."""
    frames = []
    for fr in manifest.frames:
        if test_only and fr.true_distance is None:
            continue
        if train_only and fr.true_distance is not None:
            continue
        depth = read_depth_pgm(os.path.join(base_dir, fr.depth_path))
        corners = read_corners_csv(os.path.join(base_dir, fr.corners_path))
        if (corners.shape[0], corners.shape[1]) != (manifest.board.rows,
                                                    manifest.board.cols):
            raise FormatError(f"{fr.frame_id}: corner grid does not match the board")
        rgb = manifest.intr_rgb
        if (np.any(corners[:, :, 0] < 0) or np.any(corners[:, :, 0] >= rgb.width)
                or np.any(corners[:, :, 1] < 0) or np.any(corners[:, :, 1] >= rgb.height)):
            raise FormatError(f"{fr.frame_id}: corners outside the RGB image")
        frames.append((fr, Frame(fr.frame_id, depth, corners)))
    return frames


# ---------------------------------------------------------------------------
# dataset writer (used by the synthetic generator)


def write_dataset(scene, labeled_frames, out_dir):
    """Write rendered frames as a dataset directory; returns out_dir.

    Layout: manifest.txt, depth/<id>.pgm, corners/<id>.csv plus the
    ground_truth.txt sidecar that only evaluation code may read.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(os.path.join(out_dir, "depth"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "corners"), exist_ok=True)
    entries = []
    truth_lines = []
    for lf in labeled_frames:
        fid = lf.frame.frame_id
        depth_rel = f"depth/{fid}.pgm"
        corners_rel = f"corners/{fid}.csv"
        write_depth_pgm(os.path.join(out_dir, depth_rel), lf.frame.depth)
        write_corners_csv(os.path.join(out_dir, corners_rel), lf.frame.corners)
        entries.append(ManifestFrame(fid, depth_rel, corners_rel,
                                     lf.wall_distance if lf.is_test else None))
        q = lf.true_board_pose.quaternion
        t = lf.true_board_pose.translation
        truth_lines.append(
            "frame_truth " + fid + " " + _fmt(lf.wall_distance) + " "
            + " ".join(_fmt(v) for v in t) + " " + " ".join(_fmt(v) for v in q))
    factory_guess = RigidTransform((1.0, 0.0, 0.0, 0.0), (0.025, 0.0, 0.0))
    manifest = DatasetManifest(board=scene.board, intr_rgb=scene.intr_rgb,
                               intr_depth_guess=scene.intr_depth,
                               extrinsic_guess=factory_guess,
                               frames=tuple(entries))
    write_manifest(os.path.join(out_dir, "manifest.txt"), manifest)

    field = scene.distortion.undistortion_field
    gcorr = scene.distortion.global_correction
    lines = [
        "# depthcal synthetic ground truth (never read by calibration code)",
        f"version {FORMAT_VERSION}",
        *_transform_lines("true_extrinsic", scene.true_extrinsic),
        f"global_correction {' '.join(_fmt(c) for c in gcorr.coefficients)}",
        f"distortion_size {field.width} {field.height}",
        f"distortion_bins {field.chi} {field.psi}",
        f"distortion_degree {field.degree}",
        f"noise {int(scene.noise)}",
        f"seed {scene.seed}",
    ]
    _atomic_write_bytes(os.path.join(out_dir, "ground_truth.txt"),
                        chain([_text(lines).encode("utf-8")], _fn_block("distortion", field),
                              [_text(truth_lines).encode("utf-8")]))
    return out_dir


def read_ground_truth(path):
    """Ground-truth sidecar: (true_extrinsic, global_correction PolyFn,
    distortion UndistortionMap, frame truths {id: (wall_distance, pose)})."""
    kv, texts = _read_keyvals(path, repeated=("distortion_fn", "frame_truth"))
    truths = {}
    for tokens in map(str.split, texts["frame_truth"]):
        if len(tokens) != 9:
            raise FormatError(f"{path}: frame_truth needs an id and 8 values")
        what = f"{path}: frame_truth {tokens[0]}"
        if tokens[0] in truths:
            raise FormatError(f"{what} given twice")
        [dist] = _values(tokens[1:2], 1, f"{what} distance")
        truths[tokens[0]] = (dist, _transform(tokens[5:9], tokens[2:5], what))
    try:
        extrinsic = _transform(kv["true_extrinsic_quaternion"],
                               kv["true_extrinsic_translation"],
                               f"{path}: true_extrinsic")
        gcorr = PolyFn(_values(kv["global_correction"], len(kv["global_correction"]),
                               f"{path}: global_correction"), constant_zero=True)
        distortion = _undistortion_map(kv, texts["distortion_fn"], "distortion", path)
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc}") from exc
    except MapError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return extrinsic, gcorr, distortion, truths


# ---------------------------------------------------------------------------
# PLY cloud output


def write_cloud_ply(path, cloud: OrganizedCloud):
    """ASCII PLY of the valid points, double precision for exact round trips."""
    pts = cloud.points[cloud.valid]
    header = _text([
        "ply",
        "format ascii 1.0",
        "comment depthcal corrected point cloud",
        f"element vertex {pts.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ])
    _atomic_write_bytes(path, chain([header.encode("ascii")],
                                    _format_rows("%.17g %.17g %.17g\n", pts)))


def read_cloud_ply(path):
    """Parse the vertex block of an ASCII PLY written by write_cloud_ply."""
    lines = _read_lines(path)
    if lines[0].strip() != "ply":
        raise FormatError(f"{path}: not a PLY file")
    if [ln.strip() for ln in lines[1:2]] != ["format ascii 1.0"]:
        raise FormatError(f"{path}: not an ASCII PLY 1.0 file")
    count = None
    body_at = None
    for k, ln in enumerate(lines):
        ln = ln.strip()
        if ln.startswith("element vertex"):
            tokens = ln.split()
            # ASCII digits only: int() rejects '²', which str.isdigit() passes
            if len(tokens) != 3 or not re.fullmatch(r"[0-9]{1,18}", tokens[2]):
                raise FormatError(f"{path}: malformed vertex count {ln!r}")
            count = int(tokens[2])
        if ln == "end_header":
            body_at = k + 1
            break
    if count is None or body_at is None:
        raise FormatError(f"{path}: malformed PLY header")
    body = lines[body_at:body_at + count]
    if len(body) != count:
        raise FormatError(f"{path}: vertex count mismatch")
    return _parse_rows(body, 3, f"{path}: vertex")
