"""Probability traces and their CSV form.

A trace is a float array values[i, n, k]: the probability of outcome k after
n measurement cycles at grid point tau_i, for n = 0..n_max, as one
(T, n_max+1, dim) stack. Row 0 of a block is the Born distribution of the
initial state in the measurement basis. check_trace validates a stack one
tau block at a time; write_trace_csv and read_trace_csv are the only code
that knows the CSV layout.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

from .model import check_labels

ROW_SUM_TOL = 1e-12
_CHUNK_ROWS = 512


class DataError(Exception):
    """Malformed or unusable input data."""


def check_trace(values, taus=None) -> np.ndarray:
    """Return values as a float (T, n_max+1, dim) stack of outcome distributions.

    Each tau block is checked on its own, so the temporaries stay the size of
    one block. Raises ValueError for the first block with a non-finite entry,
    a probability below -ROW_SUM_TOL or a row whose sum is off 1 by more than
    ROW_SUM_TOL; given the grid taus, the message names that block's tau.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1] < 1 or values.shape[2] < 1:
        raise ValueError(f"expected a (T, n_max+1, N) array, got shape {values.shape}")
    for i, block in enumerate(values):
        if not np.all(np.isfinite(block)):
            problem = "trace has non-finite entries"
        elif np.min(block) < -ROW_SUM_TOL:
            problem = f"negative probability {np.min(block):.3e}"
        elif (row_err := np.max(np.abs(block.sum(axis=1) - 1.0))) > ROW_SUM_TOL:
            problem = f"rows do not sum to 1 (max error {row_err:.3e})"
        else:
            continue
        raise ValueError(problem if taus is None else f"tau={taus[i]}: {problem}")
    return values


def write_trace_csv(path, labels, taus, values, stderrs=None) -> None:
    """Write one block of R rows per grid point of taus.

    values and stderrs are (T, R, N) stacks.

    A block fills a template of its rows: '\\0' where tau goes, the n digits,
    the cells of each column whose bits equal the previous block's, and a
    ',%.17g' slot for every other cell. It is rebuilt when the repeated
    columns change. A grid point puts '%.17g' % tau in once and %-formats
    only the slots; '%.17g' % x and format(x, '.17g') give the same digits,
    so every float round-trips exactly.
    """
    header = ["tau", "n", *labels]
    if stderrs is not None:
        header += [f"stderr_{k}" for k in range(len(labels))]
    key, cols = None, [b""] * (len(header) - 2)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for i, (tau, block) in enumerate(zip(taus, values, strict=True)):
            if stderrs is not None:
                block = np.column_stack([block, stderrs[i]])
            prev, cols = cols, [col.tobytes() for col in block.T]  # bits: 0.0 and -0.0 differ
            same = [col == old for col, old in zip(cols, prev)]
            if key != same:
                key, slots = same, np.logical_not(same)
                row = "".join(",%.17g" if s else ",%%.17g" for s in same)
                text = "".join(f"\0,{n}{row}\n" for n in range(len(block)))
                template = text % tuple(block[:, same].ravel().tolist())
            cells = tuple(block[:, slots].ravel().tolist())
            fh.write(template.replace("\0", "%.17g" % tau) % cells)


def _count_lines(path) -> int:
    """The number of lines in a file, a last line without its newline included."""
    count, last = 0, b"\n"
    with open(path, "rb") as raw:
        for data in iter(lambda: raw.read(1 << 16), b""):
            count, last = count + data.count(b"\n"), data[-1:]
    return count + (last != b"\n")


def _read_body_fast(
    fh, n_lines: int, ncol: int, n_states: int
) -> tuple[list[float], np.ndarray] | None:
    """(taus, (T, R, n_states) values) of an n_lines-line body in the writer's layout, else None.

    That layout: no quotes and no carriage returns, exactly ncol fields per
    row, n written as digits running 0..R-1 in every block, one tau per
    block and no tau in two blocks. The keys (tau, n) and the values are
    allocated once at their final size; lines are read in chunks of
    _CHUNK_ROWS, and numpy's C parser converts each chunk's tau, n and
    outcome columns into its slice, so no other trace-sized array exists.
    The stderr columns are never converted. The comma count goes first,
    because loadtxt skips blank lines. Spellings that float() accepts and
    loadtxt rejects (1_0, non-ASCII digits) return None, so the line parser
    reads them, and so does a body whose line count is not n_lines.
    """
    if n_lines < 1:
        return None
    keys, values = np.empty((n_lines, 2)), np.empty((n_lines, n_states))
    usecols = range(2 + n_states)
    start = 0
    for lines in iter(lambda: list(itertools.islice(fh, _CHUNK_ROWS)), []):
        stop = start + len(lines)
        if stop > n_lines:
            return None
        text = "".join(lines)
        # float() rejects the separators \x1c-\x1f around a number; loadtxt strips them
        if any(c in text for c in '"\r\x1c\x1d\x1e\x1f'):
            return None
        if set(map(str.count, lines, itertools.repeat(","))) != {ncol - 1}:
            return None
        n_digits = "".join(line.split(",", 2)[1] for line in lines)
        if not (n_digits.isascii() and n_digits.isdigit()):
            return None
        try:
            chunk = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, usecols=usecols)
        except ValueError:
            return None
        keys[start:stop] = chunk[:, :2]
        values[start:stop] = chunk[:, 2:]
        start = stop
    if start != n_lines:
        return None
    starts = np.flatnonzero(keys[:, 1] == 0)
    block = int(starts[1]) if len(starts) > 1 else n_lines
    if n_lines % block:
        return None
    keys = keys.reshape(-1, block, 2)
    taus = keys[:, 0, 0].tolist()
    if not (
        np.all(keys[:, :, 1] == np.arange(block))
        and np.all(keys[:, :, 0] == keys[:, :1, 0])
        and len(set(taus)) == len(taus)  # the line parser's dict keys: -0.0 == 0.0
    ):
        return None
    return taus, values.reshape(len(taus), block, n_states)


def _read_body_rows(path, reader, n_states: int) -> tuple[list[float], np.ndarray]:
    """Parse the body row by row into (taus, (T, R, n_states) values), naming the first bad line."""
    per_tau: dict[float, list[list[float]]] = {}
    for lineno, row in enumerate(reader, start=2):
        if len(row) < 2 + n_states:
            raise DataError(f"{path}:{lineno}: too few columns")
        try:
            tau = float(row[0])
            n = int(row[1])
            vals = [float(x) for x in row[2 : 2 + n_states]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        rows = per_tau.setdefault(tau, [])
        if n != len(rows):
            raise DataError(f"{path}:{lineno}: n values must be contiguous from 0")
        rows.append(vals)
    if not per_tau:
        raise DataError(f"{path}: no data rows")
    if len({len(rows) for rows in per_tau.values()}) != 1:
        raise DataError(f"{path}: tau blocks have differing n ranges")
    return list(per_tau), np.array(list(per_tau.values()), dtype=float)


def read_trace_csv(path) -> tuple[list[str], list[float], np.ndarray]:
    """Parse a simulate CSV back into (labels, taus, (T, n_max+1, N) values).

    stderr columns, when present, must be stderr_0..stderr_{N-1} after the
    outcome columns; their values are not even converted. Raises DataError
    on any structural problem and on any block that check_trace rejects. A
    body in the writer's own layout is parsed in chunks straight into the
    result, so the reader holds the values, the (tau, n) keys and one chunk;
    any other body is parsed again line by line, which accepts the same
    files and names the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty CSV") from None
            if header[:2] != ["tau", "n"]:
                raise DataError(f"{path}: header must start with tau,n")
            columns = header[2:]
            n_states = next(
                (k for k, col in enumerate(columns) if col.startswith("stderr_")), len(columns)
            )
            labels = columns[:n_states]
            if not labels:
                raise DataError(f"{path}: no outcome columns")
            if columns[n_states:] not in ([], [f"stderr_{k}" for k in range(n_states)]):
                raise DataError(f"{path}: stderr columns must be stderr_0..stderr_{n_states - 1}")
            try:
                check_labels(tuple(labels))
            except ValueError as exc:
                raise DataError(f"{path}: {exc}") from exc
            n_lines = _count_lines(path) - reader.line_num
            body = _read_body_fast(fh, n_lines, len(header), n_states)
            if body is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                body = _read_body_rows(path, reader, n_states)
            taus, values = body
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        check_trace(values, taus)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return labels, taus, values
