"""Plain-text file formats: features, labels, sparse count matrices, metrics.

All writers produce byte-stable output for identical inputs: floats are
rendered in their shortest round-trip form (repr, which is also what json
emits for a finite float) and key order is the insertion order of the caller.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import warnings

import numpy as np

from . import parallel

# Rows of a count matrix rendered per block by format_bow and bow_chunks.
FORMAT_BLOCK_ROWS = 256


def read_features(path):
    """CSV features, one sample per row, no header; all values finite reals.

    The file is parsed in bulk. Only when that fails or finds a non-finite
    value does the line-by-line reader run. It names the first bad line, or
    returns the rows of a file it accepts and the bulk parser does not, such
    as one with a whitespace-only line.
    """
    x = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.strip():  # on an empty body loadtxt warns; the line reader raises
            x = np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.float64,
                           ndmin=2, comments=None)
    except ValueError:
        pass
    if x is not None and np.all(np.isfinite(x)):
        return x
    return _read_features_by_line(path)


def _read_features_by_line(path):
    """read_features one line at a time, raising on the first bad line."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected `index,class`")
            try:
                assignments.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: indices must be integers") from None
    return assignments


def read_truth(path):
    """Ground-truth file: one integer class per line."""
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected an integer class") from None
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
    matrix = np.zeros((n, m))
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


def _block_formatter(matrix, threshold):
    """(header, block starts, formatter of one block) of a matrix to write.

    Every entry with |value| > threshold is kept; a NaN or infinite one
    raises ValueError here, before any text exists.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    keep = ~(np.abs(matrix) <= threshold)  # NaN is kept, so the finiteness check sees it
    if not np.all(np.isfinite(matrix[keep])):
        raise ValueError("matrix entries must be finite")
    n, m = matrix.shape
    row_text = [f"{i} " for i in range(n)]
    col_text = [f"{j} " for j in range(m)]
    return (f"{n} {m} {np.count_nonzero(keep)}\n", range(0, n, FORMAT_BLOCK_ROWS),
            functools.partial(_format_block, matrix, keep, row_text, col_text))


def _format_block(matrix, keep, row_text, col_text, start):
    """Triplet lines of the kept entries in FORMAT_BLOCK_ROWS rows from start."""
    rows, cols = np.nonzero(keep[start:start + FORMAT_BLOCK_ROWS])
    rows += start
    vals = matrix[rows, cols]
    return "".join([f"{row_text[i]}{col_text[j]}{v!r}\n" for i, j, v
                    in zip(rows.tolist(), cols.tolist(), vals.tolist())])


def format_bow(matrix, threshold=1e-12):
    """A matrix as sparse triplet text, dropping |value| <= threshold.

    Entries are in row-major order and values are rendered by repr, which
    gives the same text as json for every finite float. A NaN or infinite
    entry raises ValueError.
    """
    header, starts, block = _block_formatter(matrix, threshold)
    return header + "".join(map(block, starts))


def bow_chunks(matrix, threshold=1e-12):
    """format_bow's text as an iterator of encoded chunks, in order.

    The matrix is checked here, before the first chunk exists. The chunks
    are the header, then one per FORMAT_BLOCK_ROWS rows, so the whole text
    is never held at once.
    """
    header, starts, block = _block_formatter(matrix, threshold)
    return _stream(header, starts, block)


def _stream(header, starts, block):
    """Yield the encoded header, then each block's text.

    The blocks are formatted in forked workers, one per usable CPU, which
    inherit the matrix through the fork instead of receiving it pickled
    with every block.
    """
    yield header.encode()
    for text in parallel.fork_map(block, starts, parallel.usable_cpus()):
        yield text.encode()


def write_bow(path, matrix, threshold=1e-12):
    """Write a matrix in the sparse triplet format, dropping |value| <= threshold.

    The matrix is checked before the file is opened, and a failure while
    writing removes the partial file.
    """
    chunks = bow_chunks(matrix, threshold)
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


def _plain(value):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def render_metrics(items):
    """Render ordered (key, value) pairs as `key = <json>` lines."""
    lines = []
    for key, value in items:
        lines.append(f"{key} = {json.dumps(_plain(value))}")
    return "\n".join(lines) + "\n"


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
