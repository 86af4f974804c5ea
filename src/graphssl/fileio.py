"""Plain-text file formats: features, labels, sparse count matrices, metrics.

All writers produce byte-stable output for identical inputs: floats are
rendered in their shortest round-trip form (repr, which is also what json
emits for a finite float) and key order is the insertion order of the caller.
The triplet writer gets repr's text of a whole block of values at once from
floattext's array kernel (Schubfach's digits), not from one repr per value.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np

from . import floattext, parallel

# Rows of a count matrix rendered per block by bow_chunks.
FORMAT_BLOCK_ROWS = 256

# Entries of at most this magnitude are left out of a triplet file.
THRESHOLD = 1e-12


def _open_text(path):
    """open(path, "r") of a UTF-8 file, but a byte that is not UTF-8 names its line."""
    with open(path, "rb") as fh:
        body = fh.read()
    try:
        return io.StringIO(body.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = len((body[:exc.start] + b".").splitlines())  # \n, \r\n and \r end a line
        raise ValueError(f"{path}: line {line}: byte {exc.start} is not UTF-8") from None


def _numbered_lines(path):
    """(line number, stripped text) of each nonblank line of a UTF-8 file."""
    with _open_text(path) as fh:
        yield from ((i, text) for i, line in enumerate(fh, start=1) if (text := line.strip()))


def read_features(path):
    """CSV features, one sample per row, no header; all values finite reals.

    The file is parsed in bulk. Only when that fails or finds a non-finite
    value does the line-by-line reader run. It names the first bad line, or
    returns the rows of a file it accepts and the bulk parser does not, such
    as one with a whitespace-only line.
    """
    with _open_text(path) as fh:
        text = fh.read()
    x = None
    if text.strip():  # on an empty body loadtxt warns; the line reader raises
        with contextlib.suppress(ValueError):
            x = np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.float64,
                           ndmin=2, comments=None)
    if x is not None and np.all(np.isfinite(x)):
        return x
    return _read_features_by_line(path)


def _read_features_by_line(path):
    """read_features one line at a time, raising on the first bad line."""
    rows = []
    width = None
    for lineno, line in _numbered_lines(path):
        parts = line.split(",")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a numeric row") from None
        if any(not math.isfinite(v) for v in values):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(
                f"{path}: line {lineno}: expected {width} columns, found {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_label_assignments(path):
    """Label CSV of `index,class` lines; returns a list of (index, class)."""
    assignments = []
    for lineno, line in _numbered_lines(path):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected `index,class`")
        try:
            assignments.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: indices must be integers") from None
    return assignments


def read_truth(path):
    """Ground-truth file: one integer class per line.

    A file of only digits, signs and whitespace that parses as one column is
    read in bulk; any other goes to the line reader, which names a bad line.
    """
    with open(path, "rb") as fh:
        body = fh.read()
    if body.strip() and not body.translate(None, b"0123456789+- \t\r\n"):
        with contextlib.suppress(ValueError):  # loadtxt's error names no line
            labels = np.loadtxt(io.BytesIO(body), dtype=np.int64, ndmin=2, comments=None)
            if labels.shape[1] == 1:
                return labels[:, 0]
    return _read_truth_by_line(path)


def _read_truth_by_line(path):
    """read_truth one line at a time, raising on the first bad line."""
    labels = []
    for lineno, line in _numbered_lines(path):
        try:
            labels.append(int(line))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: expected an integer class") from None
        if not -2**63 <= labels[-1] < 2**63:
            raise ValueError(f"{path}: line {lineno}: class {line} does not fit in 64 bits")
    if not labels:
        raise ValueError(f"{path}: no labels")
    return np.asarray(labels, dtype=np.int64)


# Besides ASCII whitespace, loadtxt splits fields on these control characters
# and on the non-ASCII spaces \x85 and \xa0; bytes.split() does not.
_UNICODE_SPACE = b"\x1c\x1d\x1e\x1f"

_TRIPLET = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def read_bow(path):
    """Sparse triplet count matrix: header `n M nnz`, then `row col value` lines.

    Blank lines are skipped. Every line names a distinct in-range coordinate
    and a finite value, and the entry count must match the header. The body
    is parsed in one pass by numpy's C reader and checked in bulk; only when
    that finds a fault does a line-by-line pass run, to name the first bad line.
    """
    with open(path, "rb") as fh:
        header = fh.readline().split()
        body = fh.read()
    if len(header) != 3:
        raise ValueError(f"{path}: line 1: expected header `n M nnz`")
    try:
        n, m, nnz = (int(h) for h in header)
    except ValueError:
        raise ValueError(f"{path}: line 1: header fields must be integers") from None
    if n < 1 or m < 1 or nnz < 0:
        raise ValueError(f"{path}: line 1: invalid dimensions")
    triplets = _bulk_triplets(body, n, m)
    if triplets is None:
        _raise_first_bad_line(path, body, n, m)
    rows, cols, vals = triplets
    if rows.size != nnz:
        raise ValueError(f"{path}: header declares {nnz} entries, found {rows.size}")
    try:
        matrix = np.zeros((n, m))
    except (MemoryError, ValueError):  # numpy raises ValueError past its largest size
        raise ValueError(f"{path}: line 1: a {n} x {m} matrix is too large to allocate") from None
    matrix[rows, cols] = vals
    return matrix


def _bulk_triplets(body, n, m):
    """(rows, cols, vals) of a valid triplet body, or None when any line is bad."""
    if not body.isascii() or any(c in body for c in _UNICODE_SPACE):
        return None
    if not body.strip():  # on an empty body loadtxt warns
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy < 2 only warns on `1.0` as an index
            # numpy ends a line at a lone \r; bytes.split() treats it as a space.
            table = np.loadtxt(io.BytesIO(body.replace(b"\r", b" ")), dtype=_TRIPLET,
                               ndmin=1, comments=None)
    except (ValueError, Warning):
        return None
    rows, cols, vals = table["row"], table["col"], table["value"]
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m):
        return None
    if not np.all(np.isfinite(vals)):
        return None
    keys = np.sort(rows * m + cols)
    if np.any(keys[1:] == keys[:-1]):
        return None
    return rows, cols, vals


def _raise_first_bad_line(path, body, n, m):
    """Raise the error of the first bad triplet line; runs only once a fault is known."""
    seen = set()
    for lineno, line in enumerate(body.split(b"\n"), start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}: line {lineno}: expected `row col value`")
        try:
            if b"_" in line:  # int() and float() accept digit separators; loadtxt does not
                raise ValueError
            i, j, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed triplet") from None
        if not 0 <= i < n or not 0 <= j < m:
            raise ValueError(f"{path}: line {lineno}: index out of range")
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        if (i, j) in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate coordinate ({i}, {j})")
        seen.add((i, j))
    raise ValueError(f"{path}: malformed triplet body")


def kept_mask(block):
    """Mask of the entries with |value| > THRESHOLD, which a triplet file keeps.

    A NaN is kept, so that a NaN or infinite kept entry raises ValueError.
    """
    keep = ~(np.abs(block) <= THRESHOLD)
    if not np.all(np.isfinite(block[keep])):
        raise ValueError("matrix entries must be finite")
    return keep


def _matrix_rows(matrix):
    """A 2-d matrix as a row-block source of bow_documents."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return SimpleNamespace(shape=matrix.shape, rows=lambda start, stop: matrix[start:stop],
                           nnz=np.count_nonzero(kept_mask(matrix)))


def bow_chunks(source):
    """A matrix as sparse triplet text, dropping |value| <= THRESHOLD.

    The text comes as an iterator of encoded chunks, in order: the header
    `n M nnz`, then one chunk per FORMAT_BLOCK_ROWS rows, so the whole text
    is never held at once. Entries are in row-major order and values are
    rendered as by repr, which gives the same text as json for every finite
    float. The source (see bow_documents) is checked here, before the first
    chunk exists: a NaN or infinite entry raises ValueError.
    """
    return bow_documents([source])[0]


def bow_documents(sources):
    """bow_chunks of each source, with the blocks of all of them formatted on one pool.

    A source is a 2-d matrix or a row-block source: an object with a shape
    (n, M), rows(start, stop), which returns those rows as a 2-d array, and
    nnz, the count of the entries that kept_mask keeps. Every source is
    checked before this returns. The pool's forked workers inherit the
    sources and return encoded blocks; the iterators share the pool, so they
    must be read in order.
    """
    sources = [source if hasattr(source, "rows") else _matrix_rows(source)
               for source in sources]
    headers = [f"{source.shape[0]} {source.shape[1]} {source.nnz}\n".encode()
               for source in sources]
    items = [(index, start) for index, source in enumerate(sources)
             for start in range(0, source.shape[0], FORMAT_BLOCK_ROWS)]
    texts = parallel.fork_map(functools.partial(_format_block, sources), items,
                              parallel.usable_cpus())
    counts = [-(-source.shape[0] // FORMAT_BLOCK_ROWS) for source in sources]
    counts[-1] = None  # the last document runs the pool to its end, which closes it
    return [itertools.chain([header], itertools.islice(texts, count))
            for header, count in zip(headers, counts)]


def _format_block(sources, item):
    """Encoded triplet lines of the FORMAT_BLOCK_ROWS rows from item = (source, first row)."""
    index, start = item
    block = sources[index].rows(start, start + FORMAT_BLOCK_ROWS)
    flat = np.flatnonzero(kept_mask(block))
    rows = flat // block.shape[1]
    newline = np.full((flat.size, 1), ord("\n"), np.uint8)
    return floattext.compress(np.hstack([
        np.take(_labels(start, start + block.shape[0]), rows, axis=0),
        np.take(_labels(0, block.shape[1]), flat - rows * block.shape[1], axis=0),
        floattext.slots(block.ravel()[flat]), newline]))


def _labels(start, stop):
    """(stop - start, width) uint8: `i ` for each i from start to stop, padded with FILL."""
    text = np.char.add(np.arange(start, stop).astype(bytes), b" ")[:, None].view(np.uint8)
    return np.where(text == 0, floattext.FILL, text)[:, :len(f"{stop} ")]  # astype pads with NUL


def render_metrics(items):
    """Render ordered (key, value) pairs as `key = <json>` lines; numpy values are listed."""
    return "\n".join(f"{key} = {json.dumps(value, default=lambda v: v.tolist())}"
                     for key, value in items) + "\n"


def parse_metrics(text):
    """Inverse of render_metrics; returns an ordered dict of key -> value."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, payload = line.partition(" = ")
        if not sep:
            raise ValueError(f"metrics line {lineno}: missing ` = ` separator")
        out[key] = json.loads(payload)
    return out
