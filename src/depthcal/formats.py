"""File formats: depth PGM, corner CSV, manifests, calibration files, PLY.

Every file written here is read by a program: `calibrate` reads a dataset
(manifest, depth PGMs, corner CSVs), `correct` and `evaluate` read a
calibration file, and the benchmark reads back the PLY that `correct`
writes. Of a synthetic scene's truth, only the test frames' wall distances
are written, in the manifest; the rest stays in its `synthbench.SceneSpec`.

Text formats are line-oriented `key value...` with `#` comments, UTF-8 and
'.' decimal separators. Floats are written with 17 significant digits so
every serialization round-trips exactly. Number blocks (PLY vertices, the
per-control-pixel `umap_fn` lines, corner grids) are formatted by
`_format_rows` BLOCK_ROWS rows at a time and streamed to disk chunk by
chunk, so no block's text is held whole. Every number, grid indices too,
is printed by `%.17g`. A block of SMALL_BLOCK_ROWS rows or more is printed
by array code (`_format_chunk`) that gives the bytes of `%` exactly; a
smaller one takes one `%` call. Readers split a file into lines once, except that
`read_cloud_ply` reads its vertex block BLOCK_ROWS lines at a time. A number
block is read back by `_parse_rows`, the mirror of `_format_rows`: it splits
BLOCK_ROWS lines at a time and parses them into one float array. An index
column read this way (`umap_fn` and corner indices) must hold integral values
inside its grid, each index given once. Key-value files are collected by
`_read_keyvals`; a key given twice is an error.

Writes go to a temp file in the target directory and are renamed into
place by `replacing`, so readers never see partial files. A written file
gets the mode `open()` would give it: 0o666 less the umask.

Depth PGM: binary P5, maxval 65535, 16-bit big-endian samples holding
millimeters; 0 marks an invalid pixel. Values convert to meters on load.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice

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
# Blocks of fewer rows are formatted by one `%` call. The array path costs
# about 0.25 ms a call before its first row, so `%` is faster up to 128-512
# rows, by columns and by the share of values printed one by one; a 48-row
# corner grid takes 66 us by `%` and 378 us by the array path.
SMALL_BLOCK_ROWS = 256


class FormatError(ValueError):
    """Raised on malformed files."""


def _fmt(x):
    return format(float(x), ".17g")


_POW5 = np.array([5 ** k for k in range(22)], dtype=np.uint64)  # 5**21 < 2**49
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _digit_words():
    """The word table of `_format_chunk`: 4-byte words of ASCII text in which
    a NUL byte stands for no byte.

    First the point words: none, '.', '.0', '.00' and '.000'. Then, from
    _PLAIN on, 10,000 words each for 0000..9999 in full, with leading zeros
    as NUL, the same but with the last digit kept, and with trailing zeros
    as NUL. Last, from _SIGNED on, 000..999 with leading zeros as NUL and a
    '-' in the first byte.
    """
    plain = np.frombuffer("".join(f"{k:04d}" for k in range(10000)).encode("ascii"),
                          dtype=np.uint8).reshape(-1, 4)
    zero = plain == ord("0")
    lead = np.where(np.logical_and.accumulate(zero, axis=1), 0, plain)
    units = lead.copy()
    units[0, 3] = ord("0")
    trail = np.where(np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1], 0, plain)
    signed = lead[:1000].copy()
    signed[:, 0] = ord("-")
    dots = np.frombuffer(b"\0\0\0\0.\0\0\0.0\0\0.00\0.000", dtype=np.uint8).reshape(-1, 4)
    return np.concatenate([dots, plain, lead, units, trail, signed]).view(np.uint32).ravel()


_WORDS = _digit_words()
# _PLAIN + g + 10000 * t is the 4-digit group g in full (t = 0), without
# leading zeros (1), the same but with its last digit kept (2), or without
# trailing zeros (3); _SIGNED + g is group g < 1000 as t = 1 after a '-'
_PLAIN, _LEAD, _UNITS, _TRAIL, _SIGNED = (5 + 10000 * t for t in range(5))
_VALUE_WORDS = 10  # words of one value: sign and 15 digits, dot, 17 digits


def _format_rows(line, rows):
    """ASCII bytes of `line % row` for each row of a 2-D array, in chunks of
    BLOCK_ROWS rows. `line` holds `%.17g` conversions only, which give the
    bytes of `_fmt`. A block of fewer than SMALL_BLOCK_ROWS rows is formatted
    by one `%` call, which is faster there; larger blocks by `_format_chunk`,
    which gives the same bytes.
    """
    literals = line.split("%.17g")
    if any("%" in text or "\0" in text for text in literals):
        raise ValueError(f"{line!r}: only %.17g conversions are supported")
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] < SMALL_BLOCK_ROWS:
        if rows.shape[0]:
            yield ((line * rows.shape[0]) % tuple(rows.ravel().tolist())).encode("ascii")
        return
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        yield _format_chunk(literals, rows[start:start + BLOCK_ROWS])


def _decimal_digits(m, exp2, x):
    """N = round-half-even(m * 2**exp2 * 10**(16 - x)) as uint64, exact.

    With s = 16 - x this is m * 5**s * 2**(exp2 + s). m < 2**53 and
    5**s < 2**49 (1 <= s <= 21), so the product P = m * 5**s is summed from
    the products of 32-bit halves into two uint64 words, P < 2**102. N is P
    shifted right by r = -(exp2 + s), which is 1..46 for 1e-4 <= v < 1e15
    with x the decimal exponent of v, or one off it next to a power of ten
    as floor(log10 v) may be; the bits shifted out round it, half to even.
    Numpy array arithmetic on uint64 wraps without a warning, which the
    carry into the high word relies on.
    """
    s = 16 - x
    r = (-(exp2 + s)).astype(np.uint64)
    p = _POW5[s]
    m_hi, m_lo = m >> 32, m & 0xFFFFFFFF
    p_hi, p_lo = p >> 32, p & 0xFFFFFFFF
    lo = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    lo_sum = lo + (mid << 32)
    hi = m_hi * p_hi + (mid >> 32) + (lo_sum < lo)
    n = (hi << (64 - r)) | (lo_sum >> r)
    rest = lo_sum & ((1 << r) - 1)
    half = 1 << (r - 1)
    return n + ((rest > half) | ((rest == half) & (n & 1 == 1)))


def _significand(a):
    """(N, X) for positive a in [1e-4, 1e15): the 17 significant digits of
    `%.17g` as an int N in [10**16, 10**17), and the decimal exponent X.

    a = m * 2**e exactly (np.frexp, m < 2**53). X is first floor(log10 a),
    which may be one off next to a power of ten; then N falls outside
    [10**16, 10**17), so X moves by one and N is computed again. No value
    in this range rounds up to the next power of ten at 17 digits: the
    double next below each 10**k, k = -3..15, lies more than half a 17th
    digit below it.
    """
    frac, exp2 = np.frexp(a)
    m = (frac * 2.0 ** 53).astype(np.uint64)
    exp2 = exp2.astype(np.int64) - 53
    x = np.floor(np.log10(a)).astype(np.int64)
    digits = _decimal_digits(m, exp2, x)
    over, under = digits >= 10 ** 17, digits < 10 ** 16
    moved = np.flatnonzero(over | under)
    if moved.size:
        x[moved] += over[moved].astype(np.int64) - under[moved]
        digits[moved] = _decimal_digits(m[moved], exp2[moved], x[moved])
    return digits.astype(np.int64), x


def _format_chunk(literals, block):
    """ASCII bytes of `line % row` for the rows of one chunk, where `line` is
    the `literals` joined by `%.17g`; the bytes of `%` without a `%` per
    value.

    A value v with 1e-4 <= |v| < 1e15 is printed by array code. There
    `%.17g` prints its 17 significant digits N in fixed notation: the X + 1
    digits before the point, then the rest, or for X < 0 `0.`, -X - 1 zeros
    and all 17; trailing zeros after the point are dropped, and the point
    with them when nothing follows it. So N is split into the whole part
    and the fraction, each into 4-digit groups, and each group is looked up
    in `_WORDS`, where a NUL byte stands for a byte not printed: leading
    zeros of the whole part, trailing zeros of the fraction. A value takes
    ten words: '-' and whole-part groups, the point word, fraction groups.
    Every row is its values' words between the literal text's words, and
    deleting the NUL bytes gives the chunk's text.

    Every other value (0 and -0, nan, inf, |v| < 1e-4, printed in
    scientific notation, and |v| >= 1e15) is printed by `_fmt`, and its
    bytes replace its ten words: they take 24 bytes at most
    (-2.2250738585072014e-308).
    """
    n, k = block.shape
    v = block.T.ravel()  # field-major: the values of field c are v[c * n:(c + 1) * n]
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e15)
    slow = np.flatnonzero(~fast)
    texts = [_fmt(x) for x in v[slow].tolist()]

    digits, x = _significand(np.where(fast, a, 1.0))
    unit = _POW10[np.minimum(16 - x, 17)]
    whole = digits // unit
    frac = (digits - whole * unit) * _POW10[np.maximum(x, 0)]  # 16 digits for X >= 0
    w_hi = whole // 10 ** 8
    w_lo = whole - w_hi * 10 ** 8
    w0 = w_hi // 10 ** 4
    w1 = w_hi - w0 * 10 ** 4
    w2 = w_lo // 10 ** 4
    w3 = w_lo - w2 * 10 ** 4
    f_hi = frac // 10 ** 8
    f_lo = frac - f_hi * 10 ** 8
    f0 = f_hi // 10 ** 8
    f1 = (f_hi - f0 * 10 ** 8) // 10 ** 4
    f2 = f_hi - f0 * 10 ** 8 - f1 * 10 ** 4
    f3 = f_lo // 10 ** 4
    f4 = f_lo - f3 * 10 ** 4
    words = [
        _LEAD + w0 + (v < 0) * (_SIGNED - _LEAD),
        np.where(w0 == 0, _LEAD, _PLAIN) + w1,
        np.where(w_hi == 0, _LEAD, _PLAIN) + w2,
        np.where(whole < 10 ** 4, _UNITS, _PLAIN) + w3,
        np.where(x < 0, -x, frac != 0),
        _LEAD + f0,
        np.where((f2 == 0) & (f_lo == 0), _TRAIL, _PLAIN) + f1,
        np.where(f_lo == 0, _TRAIL, _PLAIN) + f2,
        np.where(f4 == 0, _TRAIL, _PLAIN) + f3,
        _TRAIL + f4,
    ]

    heads = [np.frombuffer(t.encode("ascii").ljust(-(-len(t) // 4) * 4, b"\0"),
                           dtype=np.uint32) for t in literals]
    # a row's words: head 0, value 0, head 1, .., value k - 1, head k
    starts = np.cumsum([0] + [len(h) + _VALUE_WORDS for h in heads])
    index = np.zeros((starts[-1] - _VALUE_WORDS, n), np.intp)
    for j, word in enumerate(words):
        index[starts[1:-1] - _VALUE_WORDS + j] = word.reshape(k, n)
    record = np.ascontiguousarray(_WORDS[index.T])
    for head, start in zip(heads, starts):
        record[:, start:start + len(head)] = head
    if slow.size:  # each such value's bytes, at the start of its zeroed words
        first = slow % n * record.shape[1] + starts[1 + slow // n] - _VALUE_WORDS
        record.reshape(-1)[first[:, None] + np.arange(_VALUE_WORDS)] = 0
        size = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
        at = np.repeat(4 * first - np.cumsum(size) + size, size) + np.arange(size.sum())
        record.view(np.uint8).reshape(-1)[at] = np.frombuffer(
            "".join(texts).encode("ascii"), dtype=np.uint8)
    return record.tobytes().translate(None, b"\0")


@contextmanager
def replacing(*paths):
    """Temp paths beside `paths`, one each, for the block to write; renamed
    onto `paths` in their order once the block ends without error.

    A block that raises changes none of `paths`, and no temp file is left
    behind. A rename that fails leaves the paths before it replaced and
    the rest as they were. An OSError about a temp file names the path it
    stands for.
    """
    tmps = {os.path.join(os.path.dirname(os.fspath(p)) or ".",
                         f".tmp_depthcal_{os.urandom(8).hex()}"): os.fspath(p)
            for p in paths}
    try:
        yield list(tmps)
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


@contextmanager
def _open_text(path):
    """`path` opened as UTF-8 text with universal newlines; undecodable bytes
    raise FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_lines(path):
    """The lines of a UTF-8 text file, read as one text."""
    with _open_text(path) as fh:
        return fh.read().split("\n")


def _read_keyvals(path, repeated=()):
    """A key-value text file as ({key: tokens}, {key: texts}): the tokens of
    each key given once, and for each key in `repeated` the text after the
    key on each of its lines. Any other key given twice raises FormatError, and
    so does a `version` line that does not name FORMAT_VERSION."""
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
    if "version" in kv:
        [version] = _values(kv["version"], 1, f"{path}: version", int)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
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
                                    _format_rows("%.17g,%.17g,%.17g,%.17g\n", grid)))


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
    _atomic_write_bytes(path, chain([_text(head).encode("utf-8")], _fn_block(umap),
                                    [_text(tail).encode("utf-8")]))


def read_calibration(path):
    """Returns (umap, gmap, extrinsic, intr_depth, intr_rgb).

    Raises FormatError on any malformed content. Only the three free
    global-map corners are stored, so the planarity constraint cannot be
    broken by file edits.
    """
    kv, texts = _read_keyvals(path, repeated=("umap_fn",))
    if "version" not in kv:
        raise FormatError(f"{path}: missing key 'version'")
    try:
        intr_rgb = _intr_from_tokens(kv["rgb_intrinsics"])
        intr_depth = _intr_from_tokens(kv["depth_intrinsics"])
        extrinsic = _transform(kv["extrinsic_quaternion"],
                               kv["extrinsic_translation"], f"{path}: extrinsic")
        umap = _undistortion_map(kv, texts["umap_fn"], path)
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
    """Parse the vertex block of an ASCII PLY written by write_cloud_ply.

    The header is read line by line and the body BLOCK_ROWS lines at a time,
    so the file's text is never held whole. Lines after the vertex block
    are read only to check that they decode.
    """
    with _open_text(path) as fh:
        if fh.readline().strip() != "ply":
            raise FormatError(f"{path}: not a PLY file")
        if fh.readline().strip() != "format ascii 1.0":
            raise FormatError(f"{path}: not an ASCII PLY 1.0 file")
        count = None
        for ln in fh:
            ln = ln.strip()
            if ln.startswith("element vertex"):
                tokens = ln.split()
                # ASCII digits only: int() rejects '²', which str.isdigit() passes
                if len(tokens) != 3 or not re.fullmatch(r"[0-9]{1,18}", tokens[2]):
                    raise FormatError(f"{path}: malformed vertex count {ln!r}")
                count = int(tokens[2])
            if ln == "end_header":
                break
        else:
            count = None  # no end_header
        if count is None:
            raise FormatError(f"{path}: malformed PLY header")
        # the count is not trusted with an allocation before its lines are read
        parts = [np.empty((0, 3))]
        for start in range(0, count, BLOCK_ROWS):
            want = min(BLOCK_ROWS, count - start)
            chunk = list(islice(fh, want))
            if len(chunk) != want:
                raise FormatError(f"{path}: vertex count mismatch")
            parts.append(_parse_rows(chunk, 3, f"{path}: vertex"))
        for _ in fh:
            pass
    return np.concatenate(parts)
