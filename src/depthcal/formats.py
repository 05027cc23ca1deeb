"""File formats: depth PGM, corner CSV, manifests, calibration files, PLY.

Every file written here is read by a program: `calibrate` reads a dataset
(manifest, depth PGMs, corner CSVs), `correct` and `evaluate` read a
calibration file, and the benchmark reads back the PLY that `correct`
writes. Of a synthetic scene's truth, only the test frames' wall distances
are written, in the manifest; the rest stays in its `synthbench.SceneSpec`.

Text formats are line-oriented `key value...` with `#` comments, UTF-8 and
'.' decimal separators. Floats are written with 17 significant digits so
every serialization round-trips exactly. Number blocks (the
per-control-pixel `umap_fn` lines, corner grids) are printed by
`_format_rows`, one `%` call per BLOCK_ROWS rows, and streamed to disk chunk
by chunk, so no block's text is held whole. Every number, grid indices too,
is printed by `%.17g`. A number block is read back by `_parse_rows`, the
mirror of `_format_rows`: one `np.loadtxt` call parses all its lines into
one float array. An index column read this way (`umap_fn` and corner
indices) must hold integral values inside its grid, each index given once.
A corner CSV is split into lines once. `_read_keyvals` reads a key-value
file line by line, but takes the lines of a repeated key (`umap_fn`, a
manifest's `frame`) out in one split when no comment or other line sits
among them; a key given twice is an error.

Writes go to a temp file in the target directory and are renamed into
place by `replacing`, so readers never see partial files. A written file
gets the mode `open()` would give it: 0o666 less the umask.

Depth PGM: binary P5, maxval 65535, 16-bit big-endian samples holding
millimeters; 0 marks an invalid pixel. Values convert to meters on load.

Point cloud PLY: `format binary_little_endian 1.0`, one `vertex` element of
three `double` properties x, y, z; the valid points follow the header as
little-endian doubles.
"""

from __future__ import annotations

import errno
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import contains

import numpy as np

from .calib_undistort import BoardSpec, CalibrationError, Frame
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    GeometryError,
    OrganizedCloud,
    RigidTransform,
)
from .maps import MAX_DEGREE, GlobalMap, MapError, UndistortionMap, _grid_shape

FORMAT_VERSION = 1
BLOCK_ROWS = 4096  # rows of a number block formatted and written per chunk


class FormatError(ValueError):
    """Raised on malformed files."""


def _fmt(x):
    return format(float(x), ".17g")


def _format_rows(line, rows):
    """ASCII bytes of `line % row` for each row of a 2-D array, one `%` call
    per chunk of BLOCK_ROWS rows. The callers' templates hold `%.17g`
    conversions only, which give the bytes of `_fmt`.
    """
    rows = np.asarray(rows, dtype=float)
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        chunk = rows[start:start + BLOCK_ROWS]
        yield ((line * chunk.shape[0]) % tuple(chunk.ravel().tolist())).encode("ascii")


@contextmanager
def replacing(*paths):
    """Temp paths beside `paths`, one each, for the block to write; renamed
    onto `paths` in their order once the block ends without error.

    A block that raises changes none of `paths`, and no temp file is left
    behind. A path that is an existing directory, not a symlink to one,
    raises IsADirectoryError naming it before the first rename, so it too
    changes none of `paths`; a symlink is replaced itself, as a rename does.
    A rename that fails for another reason leaves the paths before it
    replaced and the rest as they were. An OSError about a temp file names
    the path it stands for.
    """
    tmps = {os.path.join(os.path.dirname(os.fspath(p)) or ".",
                         f".tmp_depthcal_{os.urandom(8).hex()}"): os.fspath(p)
            for p in paths}
    try:
        yield list(tmps)
        for path in tmps.values():
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in tmps.items():
            os.replace(tmp, path)
    except OSError as exc:
        if exc.filename not in tmps:
            raise
        raise OSError(exc.errno, exc.strerror, tmps[exc.filename]) from exc
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _atomic_write_bytes(path, chunks):
    """Write an iterable of byte chunks to `path` through a temp file.

    The temp file is created with mode 0o666, so the umask applies as it
    does to `open()`. If the chunks raise, neither file is left behind.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    with replacing(path) as [tmp], os.fdopen(os.open(tmp, flags, 0o666), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _text(lines):
    """Lines joined into a text, each ending in a newline."""
    return "".join(f"{ln}\n" for ln in lines)


def _atomic_write_text(path, text: str):
    _atomic_write_bytes(path, [text.encode("utf-8")])


def _read_text(path):
    """The text of `path` as UTF-8 with universal newlines, else FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_keyvals(path, repeated=None):
    """A key-value text file as ({key: tokens}, texts): the tokens of each
    key given once, and the text after the key `repeated` on each of its
    lines, in file order. Any other key given twice raises FormatError, and
    so does a `version` line that does not name FORMAT_VERSION.

    `scan` cuts each line at its first `#` and splits it at its first
    whitespace run into key and text. One split on "\\n<repeated> " takes
    the `repeated` lines out with no Python step per line, and only the
    lines around them are scanned, unless a comment or another line sits
    among them: then the whole text is. A text split out so keeps any
    further leading whitespace, which splits to the same tokens.
    """
    text = _read_text(path)
    kv = {}

    def scan(lines):
        """The texts of `repeated` in `lines`; every other key goes into kv."""
        found = []
        for line in lines.split("\n"):
            head = line.partition("#")[0].split(None, 1)
            if not head:
                continue
            key, rest = head if len(head) == 2 else (head[0], "")
            if key == repeated:
                found.append(rest)
            elif key in kv:
                raise FormatError(f"{path}: {key} given twice")
            else:
                kv[key] = rest.split()
        return found

    texts = [text] if repeated is None else text.split(f"\n{repeated} ")
    texts[-1], _, tail = texts[-1].partition("\n")
    if (any(map(contains, islice(texts, 1, None), repeat("\n")))
            or any(map(contains, islice(texts, 1, None), repeat("#")))):
        texts = scan(text)
    else:
        del text  # the pieces are the one copy of the text from here on
        texts[:1] = scan(texts[0])
        texts += scan(tail)
    if "version" in kv:
        [version] = _values(kv["version"], 1, f"{path}: version", int)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
    return kv, texts


def _parse_rows(lines, ncols, what):
    """(len(lines), ncols) array of lines of `ncols` finite numbers each, the
    reader that matches `_format_rows`: one `np.loadtxt` call for the block.

    `loadtxt` splits where `str.split` does and parses each token to the
    bits of `float()`, but rejects `_` and non-ASCII digits, which `float()`
    takes. It skips blank lines, so they fail the shape check; no lines or
    a blank first line fail before the call, as `loadtxt` warns on no data.
    """
    if not lines or not lines[0].split():
        raise FormatError(f"{what}: expected {ncols} values per line")
    try:
        out = np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError as exc:
        raise FormatError(f"{what}: expected {ncols} values per line ({exc})") from exc
    if out.shape != (len(lines), ncols):
        raise FormatError(f"{what}: expected {ncols} values per line")
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
    # ASCII digits only: int() also takes '+' and '_'. A '-' is read, so a
    # negative size fails as not positive
    if not all(re.fullmatch(rb"-?[0-9]{1,18}", t) for t in tokens):
        raise FormatError(f"{path}: malformed PGM header {b' '.join(tokens)!r}")
    width, height, maxval = (int(t) for t in tokens)
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: PGM size {width}x{height} is not positive")
    if maxval != 65535:
        raise FormatError(f"{path}: expected maxval 65535, got {maxval}")
    expected = width * height * 2
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise FormatError(f"{path}: truncated PGM payload")
    mm = np.frombuffer(payload, dtype=">u2").reshape(height, width)
    depth = mm.astype(float)
    depth /= 1000.0
    return DepthImage(width, height, depth)


# ---------------------------------------------------------------------------
# corners CSV


def write_corners_csv(path, corners):
    """Corner grid (rows, cols, 2) -> `row,col,u,v` lines."""
    corners = np.asarray(corners, dtype=float)
    rows, cols = corners.shape[:2]
    r, c = np.indices((rows, cols)).reshape(2, -1)
    grid = np.column_stack([r, c, corners.reshape(rows * cols, 2)])
    _atomic_write_bytes(path, chain([b"row,col,u,v\n"],
                                    _format_rows("%.17g,%.17g,%.17g,%.17g\n", grid)))


def read_corners_csv(path):
    lines = [ln.strip() for ln in _read_text(path).split("\n") if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "row,col,u,v":
        raise FormatError(f"{path}: expected header 'row,col,u,v'")
    if len(lines) == 1:
        raise FormatError(f"{path}: no corners")
    if any(ln.count(",") != 3 for ln in lines[1:]):
        raise FormatError(f"{path}: a corner line needs 4 comma-separated values")
    entries = _parse_rows([ln.replace(",", " ") for ln in lines[1:]], 4, f"{path}: corner")
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
    """`count` finite numbers of type `kind` parsed from tokens, which hold
    ASCII characters only and no `_`, as `_parse_rows` reads numbers:
    float() and int() take both."""
    if len(tokens) != count:
        raise FormatError(f"{what}: expected {count} values, got {len(tokens)}")
    try:
        if not all(t.isascii() and "_" not in t for t in tokens):
            raise ValueError("a value holds '_' or a non-ASCII character")
        vals = [kind(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"{what}: malformed value in {' '.join(tokens)!r}") from exc
    if kind is float and not np.all(np.isfinite(vals)):
        raise FormatError(f"{what}: non-finite value")
    return vals


def _intr_from_tokens(tokens, what):
    vals = _values(tokens, 11, what)
    if not (vals[4].is_integer() and vals[5].is_integer()):
        raise FormatError(f"{what}: image size {vals[4]!r}x{vals[5]!r} is not integral")
    try:
        return CameraIntrinsics(fx=vals[0], fy=vals[1], cx=vals[2], cy=vals[3],
                                width=int(vals[4]), height=int(vals[5]),
                                radial_dist=tuple(vals[6:9]),
                                tangential_dist=tuple(vals[9:11]))
    except GeometryError as exc:
        raise FormatError(f"{what}: {exc}") from exc


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


def _fn_block(umap: UndistortionMap):
    """`umap_fn i j c0 .. cd` lines of every control pixel, row by row, as
    byte chunks."""
    gh, gw = umap.grid_shape
    j, i = np.indices((gh, gw)).reshape(2, -1)
    rows = np.column_stack([i, j, umap.coefficients.reshape(gh * gw, -1)])
    return _format_rows("umap_fn" + " %.17g" * (umap.degree + 3) + "\n", rows)


def _undistortion_map(kv, fn_lines, path):
    """UndistortionMap from `umap_size`, `umap_bins` and `umap_degree` in kv
    and the text `i j c0 .. cd` of one `umap_fn` line per control pixel."""
    width, height = _values(kv["umap_size"], 2, f"{path}: umap_size", int)
    chi, psi = _values(kv["umap_bins"], 2, f"{path}: umap_bins", int)
    [degree] = _values(kv["umap_degree"], 1, f"{path}: umap_degree", int)
    if min(width, height, chi, psi) <= 0:
        raise FormatError(f"{path}: umap size and bins must be positive")
    if not 1 <= degree <= MAX_DEGREE:
        raise FormatError(f"{path}: umap_degree must be between 1 and {MAX_DEGREE}")
    # the count is checked from the grid shape before anything is allocated
    gh, gw = _grid_shape(width, height, chi, psi)
    if len(fn_lines) != gh * gw:
        raise FormatError(f"{path}: expected {gh * gw} umap_fn lines, got {len(fn_lines)}")
    rows = _parse_rows(fn_lines, degree + 3, f"{path}: umap_fn")
    i, j = _grid_index(rows[:, :2], (gw, gh), f"{path}: umap_fn")
    coeffs = np.empty((gh, gw, degree + 1))
    coeffs[j, i] = rows[:, 2:]
    return UndistortionMap(width, height, chi, psi, coeffs)


# ---------------------------------------------------------------------------
# calibration file


def _check_umap_size(path, umap: UndistortionMap, intr_depth: CameraIntrinsics):
    if (umap.width, umap.height) != (intr_depth.width, intr_depth.height):
        raise FormatError(f"{path}: umap_size {umap.width}x{umap.height} does not "
                          f"match the depth_intrinsics size "
                          f"{intr_depth.width}x{intr_depth.height}")


def write_calibration(path, umap: UndistortionMap, gmap: GlobalMap,
                      extrinsic: RigidTransform, intr_depth: CameraIntrinsics,
                      intr_rgb: CameraIntrinsics):
    """Write the file `read_calibration` reads. A U whose size is not the
    depth intrinsics' raises FormatError, as the reader would, before
    anything is written."""
    _check_umap_size(path, umap, intr_depth)
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
    for name, row in zip(("00", "w0", "0h"), gmap.corners):
        tail.append(f"gmap_corner_{name} {' '.join(_fmt(c) for c in row)}")
    _atomic_write_bytes(path, chain([_text(head).encode("utf-8")], _fn_block(umap),
                                    [_text(tail).encode("utf-8")]))


def read_calibration(path):
    """Returns (umap, gmap, extrinsic, intr_depth, intr_rgb).

    Raises FormatError on any malformed content. Only the three free
    global-map corners are stored, so the planarity constraint cannot be
    broken by file edits.
    """
    kv, fn_lines = _read_keyvals(path, "umap_fn")
    if "version" not in kv:
        raise FormatError(f"{path}: missing key 'version'")
    try:
        intr_rgb = _intr_from_tokens(kv["rgb_intrinsics"], f"{path}: rgb_intrinsics")
        intr_depth = _intr_from_tokens(kv["depth_intrinsics"], f"{path}: depth_intrinsics")
        extrinsic = _transform(kv["extrinsic_quaternion"],
                               kv["extrinsic_translation"], f"{path}: extrinsic")
        umap = _undistortion_map(kv, fn_lines, path)
        _check_umap_size(path, umap, intr_depth)
        [g_degree] = _values(kv["gmap_degree"], 1, f"{path}: gmap_degree", int)
        if not 1 <= g_degree <= MAX_DEGREE:
            raise FormatError(f"{path}: gmap_degree must be between 1 and {MAX_DEGREE}")
        corners = [_values(kv[f"gmap_corner_{n}"], g_degree + 1, f"{path}: gmap_corner_{n}")
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
    """Write the file `read_manifest` reads. A frame that it would not read
    back raises FormatError before anything is written: an id or path that
    is empty or holds whitespace or `#`, an id given twice, or a true
    distance that is not finite."""
    seen = set()
    for fr in manifest.frames:
        if fr.frame_id in seen:
            raise FormatError(f"{path}: frame {fr.frame_id!r} is given twice")
        seen.add(fr.frame_id)
        for field in (fr.frame_id, fr.depth_path, fr.corners_path):
            if field.split() != [field] or "#" in field:
                raise FormatError(f"{path}: frame {fr.frame_id!r}: {field!r} is empty "
                                  f"or holds whitespace or '#'")
        if fr.true_distance is not None and not np.isfinite(fr.true_distance):
            raise FormatError(f"{path}: frame {fr.frame_id!r}: true distance is not finite")
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
    kv, frame_lines = _read_keyvals(path, "frame")
    frames = []
    for tokens in map(str.split, frame_lines):
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
            intr_rgb=_intr_from_tokens(kv["rgb_intrinsics"], f"{path}: rgb_intrinsics"),
            intr_depth_guess=_intr_from_tokens(kv["depth_intrinsics_guess"],
                                               f"{path}: depth_intrinsics_guess"),
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
    """Load manifest frames from disk; depth sizes and corner bounds checked."""
    frames = []
    intr = manifest.intr_depth_guess
    for fr in manifest.frames:
        if test_only and fr.true_distance is None:
            continue
        if train_only and fr.true_distance is not None:
            continue
        depth = read_depth_pgm(os.path.join(base_dir, fr.depth_path))
        if (depth.width, depth.height) != (intr.width, intr.height):
            raise FormatError(f"{fr.frame_id}: {fr.depth_path} is {depth.width}x{depth.height}, "
                              f"not the depth intrinsics' {intr.width}x{intr.height}")
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

    Layout: manifest.txt, depth/<id>.pgm and corners/<id>.csv. The manifest
    holds each test frame's true wall distance; the rest of the synthetic
    truth stays in the scene.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(os.path.join(out_dir, "depth"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "corners"), exist_ok=True)
    entries = []
    for lf in labeled_frames:
        fid = lf.frame.frame_id
        depth_rel = f"depth/{fid}.pgm"
        corners_rel = f"corners/{fid}.csv"
        write_depth_pgm(os.path.join(out_dir, depth_rel), lf.frame.depth)
        write_corners_csv(os.path.join(out_dir, corners_rel), lf.frame.corners)
        entries.append(ManifestFrame(fid, depth_rel, corners_rel,
                                     lf.wall_distance if lf.is_test else None))
    factory_guess = RigidTransform((1.0, 0.0, 0.0, 0.0), (0.025, 0.0, 0.0))
    manifest = DatasetManifest(board=scene.board, intr_rgb=scene.intr_rgb,
                               intr_depth_guess=scene.intr_depth,
                               extrinsic_guess=factory_guess,
                               frames=tuple(entries))
    write_manifest(os.path.join(out_dir, "manifest.txt"), manifest)
    return out_dir


# ---------------------------------------------------------------------------
# PLY cloud output


def _ply_header(count):
    """The header `write_cloud_ply` writes before `count` points."""
    return _text([
        "ply",
        "format binary_little_endian 1.0",
        "comment depthcal corrected point cloud",
        f"element vertex {count}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]).encode("ascii")


def write_cloud_ply(path, cloud: OrganizedCloud):
    """Binary little-endian PLY of the valid points as doubles, which round
    trip exactly. The header counts the valid pixels; the points follow
    row-major, gathered by `compress` and written one chunk of BLOCK_ROWS
    pixels at a time, so no copy of the whole cloud is made."""
    pts = cloud.points.reshape(-1, 3)
    valid = cloud.valid.reshape(-1)
    chunks = (np.ascontiguousarray(
        pts[start:start + BLOCK_ROWS].compress(valid[start:start + BLOCK_ROWS], axis=0), "<f8")
        for start in range(0, valid.size, BLOCK_ROWS))
    _atomic_write_bytes(path, chain([_ply_header(np.count_nonzero(valid))], chunks))


def read_cloud_ply(path):
    """The (N, 3) points of a PLY as `write_cloud_ply` writes it.

    The header must be that header line for line, with the vertex count in
    ASCII digits. The bytes after it must be 24 per vertex, which is
    checked before anything of the count's size is allocated, and every
    coordinate must be finite; anything else raises FormatError.
    """
    with open(path, "rb") as fh:
        if fh.readline(4) != b"ply\n":
            raise FormatError(f"{path}: not a PLY file")
        # 40 bytes hold the longest header line; a longer line is cut and differs
        lines = [fh.readline(40) for _ in range(7)]
        # ASCII digits only: int() also takes a sign, spaces and '_'
        digits = re.fullmatch(rb"element vertex ([0-9]{1,18})\n", lines[2])
        if digits is None:
            raise FormatError(f"{path}: malformed PLY vertex count {lines[2]!r}")
        count = int(digits[1])
        for got, want in zip(lines, _ply_header(count).splitlines(keepends=True)[1:]):
            if got != want:
                raise FormatError(f"{path}: PLY header line {got!r} is not {want!r}")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 24 * count:
            raise FormatError(f"{path}: {size} bytes of vertex data, not the "
                              f"{24 * count} of {count} vertices")
        pts = np.fromfile(fh, "<f8", 3 * count).reshape(count, 3)
    if not np.all(np.isfinite(pts)):
        raise FormatError(f"{path}: non-finite vertex coordinate")
    return pts
