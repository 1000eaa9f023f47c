"""Probability traces and their CSV form.

A trace is a float array values[i, n, k]: the probability of outcome k after
n measurement cycles at grid point tau_i, for n = 0..n_max, as one
(T, n_max+1, dim) stack. Row 0 of a block is the Born distribution of the
initial state in the measurement basis. check_trace validates a stack one
tau block at a time; check_labels, write_trace_csv and read_trace_csv are
the only code that knows the CSV layout.

Every file qmonitor writes, the trace CSV, the JSON summaries and the SVGs,
goes through replacing: it is written under the sibling name
'<path>.<pid>.tmp' and moved onto path with os.replace only once complete,
so a failed or interrupted write leaves path's earlier bytes, or no file.

Decimal text is most of their time. The writer formats each distinct 64-bit
pattern of a tau block once, since converged rows repeat their values. It
reads every trace from a source of blocks, which it asks for consecutive
ranges of the grid of at most _CHUNK_CELLS written cells, so a source that
computes its blocks holds one range of them at a time: simulate's
tau-pointwise engines compute a range of the trace, and sample slices the
trace it drew and adds the range's stderr columns. The reader converts the
body in chunks of _CHUNK_ROWS lines straight into arrays of the trace's
final size. Both run in the calling process.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
import warnings
from operator import itemgetter

import numpy as np

# Absolute: probabilities lie in [0, 1] whatever the units of H, and a row sum
# stays within 2e-13 of 1 after 200,000 cycles of the chain.
ROW_SUM_TOL = 1e-12
_CHUNK_ROWS = 512
# The writer asks a source of blocks for at most this many written cells (rows x
# columns, 1 MiB of floats) at a time, and always for at least one grid point.
# Each call pays the engine's set-up (a cycle loop in exact), so smaller chunks
# cost time and larger ones memory. On a 2-vCPU x86-64 machine the exact_sweep
# peak RSS read 31.95, 32.20, 32.72 and 33.82 MB at 32k, 64k, 128k and 256k
# cells (33.07 with the grid split between two processes), and the engine and
# write of that sweep took 86, 80, 75 and 72 ms in process.
_CHUNK_CELLS = 131_072


class DataError(Exception):
    """Malformed or unusable input data."""


def check_labels(labels: tuple[str, ...]) -> tuple[str, ...]:
    """Validate outcome labels as trace CSV column names and return them.

    A trace CSV has the columns tau, n, one per label and optionally
    stderr_0..stderr_{N-1}, so a label must be unique, must not be tau or n,
    and must not start with stderr_.
    """
    for label in labels:
        if label in ("tau", "n") or label.startswith("stderr_"):
            raise ValueError(f"outcome label {label!r} is reserved for a CSV column")
    if len(set(labels)) != len(labels):
        raise ValueError(f"outcome labels must be distinct, got {list(labels)}")
    return labels


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


@contextlib.contextmanager
def replacing(path):
    """Yield the sibling path '<path>.<pid>.tmp', moved onto path when the block completes.

    On any exception, KeyboardInterrupt included, the temporary file is
    removed instead, so path keeps its earlier bytes, or stays absent.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_blocks(fh, taus, values) -> None:
    """Write the rows of every grid point of taus, with its block of values, to fh.

    A block fills a template of its rows: '\\0' where tau goes, the n digits,
    the cells of each column whose bits equal the previous block's, and a
    ',%s' slot for every other cell. It is rebuilt when the repeated columns
    change. A grid point puts '%.17g' % tau in once, reduces its slot cells
    to their distinct 64-bit patterns (so 0.0 and -0.0 stay apart), formats
    each of those once with '%.17g' and fills the slots from that text in
    cell order. Converged rows repeat their values, so in the exact sweep
    about half the slot cells reuse another cell's text. '%.17g' % x and
    format(x, '.17g') give the same digits, so every float round-trips
    exactly. Which cells repeat decides only which are formatted once, never
    the text, so any range of a grid writes the bytes that the whole grid
    writes for it.
    """
    values = np.asarray(values, dtype=float)  # the cells are keyed on their 64 bits
    key, cols = None, [b""] * values.shape[2]
    for tau, block in zip(taus, values, strict=True):
        prev, cols = cols, [col.tobytes() for col in block.T]  # bits: 0.0 and -0.0 differ
        same = [col == old for col, old in zip(cols, prev)]
        if key != same:
            key, slots = same, np.logical_not(same)
            row = "".join(",%.17g" if s else ",%%s" for s in same)
            text = "".join(f"\0,{n}{row}\n" for n in range(len(block)))
            template = text % tuple(block[:, same].ravel().tolist())
        bits, where = np.unique(block[:, slots].view(np.int64), return_inverse=True)
        digits = ("%.17g," * len(bits) % tuple(bits.view(float).tolist())).split(",")
        # itemgetter takes at least one index, and of one it returns that text,
        # which % puts in the template's one slot
        cells = itemgetter(*where.ravel().tolist())(digits) if where.size else ()
        fh.write(template.replace("\0", "%.17g" % tau) % cells)


def write_trace_csv(path, labels, taus, blocks, *, rows: int, stderr: bool = False) -> None:
    """Write the rows of every grid point of taus from blocks, through replacing(path).

    blocks(start, stop) returns the (stop-start, rows, W) stack of grid
    points start..stop-1 with every written column: the N outcome columns
    of labels and, with stderr, their N standard errors after them (W = 2N),
    which the header names stderr_0..stderr_{N-1}; a stack of another length
    raises ValueError. After the header, the grid is taken in consecutive
    ranges of at most _CHUNK_CELLS written cells (rows x W per grid point),
    and at least one grid point; each range goes through _write_blocks,
    whose bytes do not depend on the ranges. The grid is therefore held one
    range at a time, and an error of blocks in any range propagates, leaving
    path as it was.
    """
    header = ["tau", "n", *labels]
    if stderr:
        header += [f"stderr_{k}" for k in range(len(labels))]
    count = len(taus)
    step = max(1, _CHUNK_CELLS // (rows * (len(header) - 2)))
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, count, step):
            stop = min(start + step, count)
            _write_blocks(fh, taus[start:stop], blocks(start, stop))


def _count_lines(path) -> int:
    """The number of lines of a file in which every line ends with '\\n' alone.

    It counts the '\\n'-ended lines, a last line without its newline
    included: these are the lines the text reader yields. A carriage
    return, where the text reader also ends a line, raises DataError with
    its line number.
    """
    count, last = 0, b"\n"
    with open(path, "rb") as raw:
        for data in iter(lambda: raw.read(1 << 16), b""):
            if (cr := data.find(b"\r")) >= 0:
                line = count + data.count(b"\n", 0, cr) + 1
                raise DataError(f"{path}:{line}: a carriage return; lines end with \\n alone")
            count, last = count + data.count(b"\n"), data[-1:]
    return count + (last != b"\n")


def _bad_line(path, lineno: int, lines: list[str], dtype: np.dtype, n_states: int,
              ncol: int) -> str:
    """The message naming the first bad line of lines, numbered from lineno.

    Python's rules come first: a line with fewer than ncol columns (a blank
    one included), or a tau, value or n that float() (int() for n) rejects.
    Then a line with more columns, and last one that only numpy rejects (a
    spelling such as 1_0), in numpy's words.
    """
    rows = [line.rstrip("\n").split(",") for line in lines]
    for k, row in enumerate(rows, lineno):
        try:
            if len(row) < ncol:
                raise ValueError("too few columns")
            float(row[0]), int(row[1]), list(map(float, row[2 : 2 + n_states]))
        except ValueError as exc:
            return f"{path}:{k}: {exc}"
    for k, (line, row) in enumerate(zip(lines, rows), lineno):
        try:
            if len(row) > ncol:
                raise ValueError("too many columns")
            np.loadtxt([line], delimiter=",", comments=None, dtype=dtype)
        except ValueError as exc:
            return f"{path}:{k}: {str(exc).split(' at row ')[0]}"
    return f"{path}: changed while it was read"


def _convert(lines, keys: np.ndarray, values: np.ndarray, dtype: np.dtype, path, lineno: int,
             ncol: int) -> None:
    """Convert the next len(keys) lines, numbered from lineno, into keys and values.

    numpy's C parser converts each chunk of _CHUNK_ROWS lines into records
    of dtype, one per row, with exactly one field per column; a stderr cell
    is kept as its first character only, so it is never converted. A chunk
    numpy rejects, or in which it skips a blank line, raises DataError
    naming the line (_bad_line).
    """
    for start in range(0, len(keys), _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, len(keys))
        chunk = list(itertools.islice(lines, stop - start))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a chunk of blank lines
                # numpy from 1.23 until it dropped the fallback reads an integer field
                # through float with only this warning, so n written as 1.5 read as 1
                warnings.filterwarnings("error", "loadtxt.*integer via a float",
                                        DeprecationWarning)
                rows = np.loadtxt(chunk, delimiter=",", comments=None, ndmin=1, dtype=dtype)
        except (ValueError, DeprecationWarning):
            rows = None
        if rows is None or len(rows) != stop - start:
            raise DataError(_bad_line(path, lineno + start, chunk, dtype, values.shape[1], ncol))
        keys[start:stop, 0] = rows["tau"]
        keys[start:stop, 1] = rows["n"]
        values[start:stop] = rows["p"]


def _read_body(fh, path, head: int, n_states: int, ncol: int) -> tuple[list[float], np.ndarray]:
    """(taus, (T, R, N) values) of the body lines of fh that follow head header lines.

    The (tau, n) keys and the values are allocated once at their final
    size, and _convert fills them chunk by chunk, so no other trace-sized
    array exists. R is the index of the second row with n = 0. The first
    row out of its block's place, a short last block's included, or of a
    tau that an earlier block had (0.0 is -0.0), is named.
    """
    n_lines = _count_lines(path) - head
    if n_lines < 1:
        raise DataError(f"{path}: no data rows")
    dtype = np.dtype([("tau", "f8"), ("n", "i8"), ("p", "f8", n_states),
                      ("stderr", "U1", ncol - 2 - n_states)])
    keys = np.empty((n_lines, 2))
    values = np.empty((n_lines, n_states))
    _convert(fh, keys, values, dtype, path, head + 1, ncol)
    later_zero = keys[1:, 1] == 0
    block = int(later_zero.argmax()) + 1 if later_zero.any() else n_lines
    place = np.resize(np.arange(block, dtype=np.int32), n_lines)
    bad = keys[:, 1] != place
    bad[1:] |= (place[1:] != 0) & (keys[1:, 0] != keys[:-1, 0])
    taus = keys[::block, 0].tolist()
    if not bad.any() and len(set(taus)) < len(taus):  # the first row of a repeated tau
        bad[block * next(i for i, tau in enumerate(taus) if tau in taus[:i])] = True
    if bad.any():
        raise DataError(f"{path}:{head + 1 + int(bad.argmax())}: "
                        "n values must be contiguous from 0")
    if n_lines % block:
        raise DataError(f"{path}: tau blocks have differing n ranges")
    return taus, values.reshape(-1, block, n_states)


def read_trace_csv(path) -> tuple[list[str], list[float], np.ndarray]:
    """Parse a simulate CSV back into (labels, taus, (T, n_max+1, N) values).

    The one accepted layout is the writer's: the header tau, n, the N
    outcome labels and optionally stderr_0..stderr_{N-1}; then blocks of
    rows tau, n, N values (and N stderr values), each line ending with
    '\\n' alone, n an integer running 0..R-1 in every block, one tau per
    block and no tau in two blocks. The body is parsed in chunks straight
    into the result, so the reader holds the values, the (tau, n) keys and
    one chunk; the stderr cells are counted, never converted. Raises
    DataError on any structural problem, naming the first bad line where
    there is one, and on any block that check_trace rejects.
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
            taus, values = _read_body(fh, path, reader.line_num, n_states, len(header))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # its position counts from the text reader's last read
        bad = exc.object[exc.start:exc.end]
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} {bad!r}") from exc
    try:
        check_trace(values, taus)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return labels, taus, values
