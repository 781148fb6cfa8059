"""Command-line front end: analyze, simulate, validate, optimize, sweep.

Exit codes: 0 success; an error exits with the code its class in errors.py
carries: 2 config or flag error, 3 domain error, 4 data error, 5 internal
invariant violated, which validate also returns when a check fails. Output
files are written atomically (temp file + rename) so failures never leave
partial files behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

from . import analytic, flowgraph, optimizer, simulator
from .analytic import SystemConfig
from .config import RunConfig, load_run_config
from .distributions import CONFIG_FIELDS, ServiceDistribution, distribution_from_config, finite_number
from .errors import AoiError, ConfigError, InvariantViolationError, require

# The per-stream metric set, in output order: field of analytic.StreamMetrics
# and simulator.StreamStats -> output column. Simulated rows carry a
# "<column>_se" standard error beside each value.
_METRICS = (
    ("avg_age", "avg_age"),
    ("peak_age", "peak_age"),
    ("mean_system_time", "mean_T"),
    ("mean_interdeparture", "mean_Y"),
    ("second_moment_interdeparture", "mean_Y2"),
    ("delivery_rate", "delivery_rate"),
)
_COLUMNS = tuple(column for _, column in _METRICS)
_COLUMNS_SE = tuple(name for column in _COLUMNS for name in (column, column + "_se"))
_FIELDS = tuple(field for field, _ in _METRICS)
_FIELDS_SE = tuple(name for field in _FIELDS for name in (field, field + "_se"))
_SWEEP_COLUMNS = ("param", "value", "stream", "source", *_COLUMNS, "delta_tot", "delta_peak_tot")


@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator:
    """A text file that the with-block writes through a unique temp file in the
    same directory, renamed to path when the block ends. If anything fails, the
    temp file is removed, and an OSError is a ConfigError naming path. A
    symlink is followed, so the link stays and its target is written; a path
    that is a directory, or any other file that is not a regular one, fails
    before the temp file is made, not at the rename."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: Is a directory")
    if os.path.exists(path) and not os.path.isfile(path):
        raise ConfigError(f"cannot write {path}: not a regular file")
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() would have given
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


@contextlib.contextmanager
def _output(path: str | None) -> Iterator:
    """The command's output: path written atomically, or else a temp file
    copied to stdout when the with-block ends, so that a failed command writes
    nothing and the output is not held in memory. An OSError of the temp file
    or of stdout is a ConfigError."""
    if path:
        with _atomic_file(path) as fh:
            yield fh
        return
    with contextlib.ExitStack() as stack:
        try:
            fh = stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n"))
            yield fh
            fh.seek(0)
        except OSError as exc:
            raise ConfigError(f"cannot write stdout through a temp file: {exc.strerror or exc}") from exc
        try:
            shutil.copyfileobj(fh, sys.stdout)
            sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        except OSError as exc:
            # the rest of the output goes to devnull, so that the flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write stdout: {exc.strerror or exc}") from exc


# the digits of 0 to 9999 in ASCII, four a row
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)


def _power_of_ten_table() -> tuple[np.ndarray, ...]:
    """10**k = (hi + lo) * 2**j for k in [_K_MIN, _K_MAX], with hi + lo in [1, 2)
    the 106-bit truncation of 10**k / 2**j: hi of its first 53 bits, lo of
    the rest; exact for k in [0, 22], where 10**k / 2**j is 5**k / 2**(j - k)."""
    hi, lo, j = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            p = 10**k
            b = p.bit_length()
            t = p << (106 - b) if b <= 106 else p >> (b - 106)
            j.append(b - 1)
        else:
            d = 10**-k
            b = d.bit_length()
            t = (1 << (105 + b)) // d
            j.append(-b)
        hi.append(t >> 53)
        lo.append(t & ((1 << 53) - 1))
    return np.ldexp(np.array(hi, float), -52), np.ldexp(np.array(lo, float), -105), np.array(j)


# The scales of the decimal exponents e of every normal float: 10**(5 - e)
# for _g6, 10**(16 - e) for _repr.
_K_MIN, _K_MAX = 5 - 308, 16 + 308
_P10_HI, _P10_LO, _P10_EXP = _power_of_ten_table()
with np.errstate(over="ignore"):
    _P10 = np.ldexp(_P10_HI, _P10_EXP)  # less than 2**-52 below 10**k; inf where that overflows
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves of 26 bits
_P10_HI_A = _SPLIT * _P10_HI - (_SPLIT * _P10_HI - _P10_HI)
_P10_HI_B = _P10_HI - _P10_HI_A
_TENS = 10 ** np.arange(17, dtype=np.int64)


def _layout(x, ok, digits, significant, e, switch, fraction, text) -> np.ndarray:
    """The cells of the floats x, as a uint8 matrix of (character position,
    value) in which NULs pad each value's column; a cell that is not ok is
    text(v) instead. v has the decimal exponent e and the ASCII digits
    (digit, value), of which the first `significant` are written: in full
    from the first if 0 <= e < switch, with at least `fraction` after the
    point; after "0." and up to three zeros if -4 <= e < 0; and otherwise in
    scientific form, with a point after the first if others follow. A cell's
    slots are its sign, the "0." and zeros, each digit with a slot for the
    point after it, and the exponent. The kernels hold e as int16: it stays
    alive beside the cells."""
    whole = (0 <= e) & (e < switch)
    lead = (-4 <= e) & (e < 0)
    scientific = ~(whole | lead)
    shown = np.where(whole, np.maximum(significant, e + 1 + fraction), significant)
    point = np.where(whole, np.where(shown > e + 1, e, -1), np.where(scientific & (significant > 1), 0, -1))
    width = len(digits)
    chars = np.empty((11 + 2 * width, len(x)), np.uint8)
    chars[0] = (x < 0) * np.uint8(ord("-"))
    chars[1] = lead * np.uint8(ord("0"))
    chars[2] = lead * np.uint8(ord("."))
    chars[3:6] = (lead & (e <= -np.arange(2, 5)[:, None])) * np.uint8(ord("0"))
    slot = np.arange(width)[:, None]
    chars[6 : 6 + 2 * width : 2] = digits * (slot < shown)
    chars[7 : 6 + 2 * width : 2] = (slot == point) * np.uint8(ord("."))
    ones = np.abs(e)
    tens = ones // 10
    hundreds = tens // 10
    ones -= 10 * tens
    tens -= 10 * hundreds
    chars[-5] = scientific * np.uint8(ord("e"))
    chars[-4] = np.where(e < 0, ord("-"), ord("+")) * scientific
    chars[-3] = (hundreds + ord("0")) * (scientific & (hundreds > 0))
    chars[-2] = (tens + ord("0")) * scientific
    chars[-1] = (ones + ord("0")) * scientific
    for i in np.flatnonzero(~ok).tolist():
        cell = text(x[i].item()).encode()
        chars[:, i] = 0
        chars[: len(cell), i] = np.frombuffer(cell, np.uint8)
    return chars


def _g6(x: np.ndarray) -> np.ndarray:
    """The bytes of '%.6g' % v for each float v in x, as a uint8 matrix of
    (character position, value) in which NULs pad each value's column.

    |v| = s * 10**(e - 5) with s in [1e5, 1e6) is rounded to the six digits
    rint(s) and laid out by _layout: without the trailing zeros, and without
    a point they leave last.

    s is one multiply of |v| by _P10's 10**(5 - e), off the exact product by
    at most 3.4e-10 (2**-52 relative from the table, 2**-53 from the
    product), so rint(s) rounds as '%' does unless s lies that close to a
    tie. A cell that cannot be certified so (zero, inf, nan, a subnormal, a
    10**(5 - e) that overflows, or |frac(s) - 0.5| <= 1e-9) is written by '%'
    instead.
    """
    a = np.abs(x)
    ok = (np.finfo(float).tiny <= a) & (a <= np.finfo(float).max)
    a = np.where(ok, a, 1.5)  # at cells that '%' writes
    e = np.floor(np.log10(a)).astype(np.int16)
    with np.errstate(invalid="ignore"):  # at cells whose 10**(5 - e) is inf
        s = a * np.take(_P10, 5 - e - _K_MIN)
        off = (s >= 1e6).astype(np.int16) - (s < 1e5)  # log10 misses by one next to a power of ten
        if off.any():
            e += off
            s = a * np.take(_P10, 5 - e - _K_MIN)
        ok &= (1e5 <= s) & (s < 1e6) & (np.abs(s - np.floor(s) - 0.5) > 1e-9)
    f = np.rint(np.where(ok, s, 1e5))
    carry = f == 1e6
    f[carry] = 1e5
    e += carry

    digits = np.empty((6, len(x)), np.uint8)
    n = f.astype(np.uint32)
    for i in range(5, 0, -1):
        q = n // 10
        digits[i] = n - 10 * q
        n = q
    digits[0] = n
    # the digits up to the last nonzero one: 1 + those after the first that a nonzero one follows
    more = digits[5] != 0
    significant = 1 + more.astype(np.int16)
    for i in range(4, 0, -1):
        more |= digits[i] != 0
        significant += more
    digits += ord("0")
    return _layout(x, ok, digits, significant, e, 6, 0, lambda v: "%.6g" % v)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as hi + lo, exact where the power of ten is (16 - e in
    [0, 22]) and within 1e-30 relative elsewhere, with the table index of the power."""
    k = 16 - e - _K_MIN
    y = np.ldexp(a, np.take(_P10_EXP, k))  # exact: a power of two
    # Dekker's product of y and _P10_HI: each numpy ufunc rounds once and
    # none is fused, so hi + lo is exact
    c = _SPLIT * y
    ya = c - (c - y)
    yb = y - ya
    f = np.take(_P10_HI, k)
    fa, fb = np.take(_P10_HI_A, k), np.take(_P10_HI_B, k)
    hi = y * f
    lo = ((ya * fa - hi) + ya * fb + yb * fa) + yb * fb + y * np.take(_P10_LO, k)
    return hi, lo, k


# A margin, in units of the 17th significant digit, that covers every rounding
# error of _repr's arithmetic (at most 1e-14) many times over.
_REPR_MARGIN = 1e-9


def _repr(x: np.ndarray, text=repr) -> np.ndarray:
    """The bytes of text(v) for each float v in x, as a uint8 matrix of
    (character position, value) in which NULs pad each value's column; text
    is repr or a function that writes every finite nonzero float as repr does.

    repr writes the shortest digits that read back as v, the closest of them
    to v. With V = |v| * 10**(16 - e) in [1e16, 1e17), formed exactly as
    n + f, and h the half gap from v to its neighbours in the same units, the
    integers strictly within h of V are those that read back as v. The
    shortest digits are those of the multiple of the largest power of ten
    among them, rounded from V; _layout lays them out, with ".0" after an
    integer.

    A cell that cannot be certified so is written by text itself: zero, inf,
    nan, a subnormal; a power of two, whose lower neighbour is nearer than
    its upper one; V +- h within _REPR_MARGIN of an integer; a rounding
    within _REPR_MARGIN of a tie, or one that carries into the next power of
    ten.
    """
    a = np.abs(x)
    mantissa, exponent = np.frexp(a)
    ok = (np.finfo(float).tiny <= a) & (a <= np.finfo(float).max) & (mantissa != 0.5)
    a, exponent = np.where(ok, a, 1.5), np.where(ok, exponent, 1)  # at cells that text writes
    e = np.floor(np.log10(a)).astype(np.int16)
    hi, lo, k = _scaled(a, e)
    off = (hi >= 1e17).astype(np.int16) - (hi < 1e16)  # log10 misses by one next to a power of ten
    if off.any():
        e += off
        hi, lo, k = _scaled(a, e)
    floor = np.floor(lo)
    n = hi.astype(np.int64) + floor.astype(np.int64)
    f = lo - floor
    h = np.ldexp(np.take(_P10_HI, k), np.take(_P10_EXP, k) + exponent - 54)  # v's gap is 2**(exponent - 53)
    # the integers that read back are n + [ceil(low), floor(high)], unless an end is one
    low, high = f - h, f + h
    unsure = (n < 10**16) | (n >= 10**17)
    unsure |= (np.abs(low - np.rint(low)) < _REPR_MARGIN) | (np.abs(high - np.rint(high)) < _REPR_MARGIN)
    low, high = np.ceil(low), np.floor(high)
    top, spread = n + high.astype(np.int64), (high - low).astype(np.int64)
    # the largest m such that a multiple of 10**m lies in [top - spread, top]: the cells
    # that have one for m - 1 are tried for m
    dropped = np.zeros(len(a), np.int16)  # of the 17 digits
    at = np.arange(len(a))
    for m in range(1, 17):
        p = _TENS[m]
        has = top - top // p * p <= spread
        at, top, spread = at[has], top[has], spread[has]
        if not at.size:
            break
        dropped[at] = m
    p = _TENS[dropped]
    q = n // p
    r = n - q * p
    down, up = r + f, (p - r) - f  # V's distances to the multiples of p either side
    digits = (q + (up < down)) * p
    unsure |= np.abs(down - up) < _REPR_MARGIN
    ok &= ~unsure & (digits < 10**17)
    digits[~ok] = 10**16
    e[~ok] = 0

    # the 17 digits by fours, from the right
    q = digits // 10**8
    r = (digits - q * 10**8).astype(np.uint32)
    q = q.astype(np.uint32)
    quads = np.empty((len(x), 5), np.uint32)
    quads[:, 4], quads[:, 3] = r % 10_000, r // 10_000
    quads[:, 2], q = q % 10_000, q // 10_000
    quads[:, 1], quads[:, 0] = q % 10_000, q // 10_000
    ascii_digits = np.take(_QUADS, quads, axis=0).reshape(-1, 20)[:, 3:].T
    # in full up to 1e16, and ".0" after an integer
    return _layout(x, ok, ascii_digits, 17 - dropped, e, 16, 1, text)


def _by_value(chars: np.ndarray) -> np.ndarray:
    """A (character position, value) matrix of NUL-padded cells as a (value,
    character position) one, without the positions that no value uses."""
    return np.ascontiguousarray(chars[chars.any(axis=1)].T)


def _text_cells(a: np.ndarray, text=str) -> np.ndarray:
    """text(v) of each value in a, as a NUL-padded uint8 matrix of (value,
    character position); each distinct value is formatted once."""
    distinct, inverse = np.unique(a, return_inverse=True)
    cells = np.array([text(v).encode() for v in distinct.tolist()])  # NUL-padded
    return np.take(cells.view(np.uint8).reshape(len(cells), -1), inverse.ravel(), axis=0)


def _block_cells(values: list, shape: tuple[int, ...], float_cells, text) -> list[np.ndarray]:
    """The cells of each value of a block of rows: the cells of an array of this
    shape, in C order, with a column per value, each value broadcast to the
    shape. Each is a NUL-padded uint8 matrix of (*the value's shape, with
    ones in front, character position), formatted once before it is
    broadcast: the floats of every value by float_cells in one pass, the rest
    by _text_cells with text."""
    arrays = [np.asarray(v) for v in values]
    arrays = [a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in arrays]
    # the floats of every column in one pass of the kernel, split by column below
    floats = [a.ravel() for a in arrays if a.dtype.kind == "f"]
    chars = float_cells(np.concatenate(floats)) if floats else None
    cells, at = [], 0
    for a in arrays:
        if a.dtype.kind == "f":
            c, at = _by_value(chars[:, at : at + a.size]), at + a.size
        else:
            c = _text_cells(a, text)
        cells.append(c.reshape(*a.shape, -1))
    return cells


def _lines(separators: list[str], cells: list[np.ndarray], shape: tuple[int, ...]) -> str:
    """The text of rows, in C order of shape: separators[0], the row's cell of
    cells[0], separators[1], and so on to the last separator. Each cell
    matrix is (*a shape that broadcasts to shape, character position), its
    cells NUL-padded."""
    pieces = [np.frombuffer(s.encode(), np.uint8) for s in separators]
    parts = [part for pair in zip(pieces, cells) for part in pair] + pieces[len(cells) :]
    chars = np.empty((*shape, sum(part.shape[-1] for part in parts)), np.uint8)
    at = 0
    for part in parts:
        chars[..., at : at + part.shape[-1]] = part
        at += part.shape[-1]
    return chars[chars != 0].tobytes().decode()


Block = tuple[tuple[int, ...], list]


def _emit_table(columns: tuple[str, ...], blocks: Iterable[Block], fmt: str, fh) -> None:
    """Write a table to the open file fh, as CSV (6 significant digits) if fmt
    is "csv" and else as JSON (full precision), a block of rows at a time; the
    rows come in blocks, a (shape, values) pair as _block_cells takes. CSV
    writes floats as '%.6g' % v, None as an empty cell and any other value as
    str(v). The JSON bytes are those of json.dumps({"columns": columns, "rows":
    rows}, indent=2) of a table with rows: floats through _repr, which
    json.dumps writes as repr does."""
    if fmt == "csv":
        fh.write(",".join(columns) + "\n")
        separators = ["", *[","] * (len(columns) - 1), "\n"]
        for shape, values in blocks:
            values = ["" if v is None else v for v in values]
            fh.write(_lines(separators, _block_cells(values, shape, _g6, str), shape))
    else:
        # {"columns": ...} without its closing "\n}", then the opening of "rows"
        fh.write(json.dumps({"columns": columns}, indent=2)[:-2] + ',\n  "rows": [')
        # a row after the one before it; the first row of the table drops the comma
        keys = [f"\n      {json.dumps(c)}: " for c in columns]
        separators = [",\n    {" + keys[0], *(",%s" % key for key in keys[1:]), "\n    }"]
        first = 1
        for shape, values in blocks:
            cells = _block_cells(values, shape, lambda x: _repr(x, json.dumps), json.dumps)
            fh.write(_lines(separators, cells, shape)[first:])
            first = 0
        fh.write("\n  ]\n}\n")


def _fields(objects, names: tuple[str, ...]) -> list[np.ndarray]:
    """A column per attribute name, of the objects in order."""
    return [np.array([getattr(o, name) for o in objects]) for name in names]


def _analyze_blocks(cfg: SystemConfig) -> list[Block]:
    report = analytic.age_report(cfg)
    total = {
        "avg_age": report.total_avg_age,
        "peak_age": report.total_peak_age,
        "mean_system_time": report.streams[0].mean_system_time,
        "delivery_rate": math.fsum(s.delivery_rate for s in report.streams),
    }
    return [
        ((cfg.num_streams,), _fields(report.streams, ("stream", "rate", "prob", *_FIELDS))),
        ((1,), ["total", cfg.total_rate, 1.0, *(total.get(field) for field in _FIELDS)]),
    ]


def cmd_analyze(run_cfg: RunConfig) -> int:
    blocks = _analyze_blocks(run_cfg.system)  # a system that the closed forms refuse fails before the output
    with _output(run_cfg.output.path) as fh:
        _emit_table(("stream", "lambda_i", "p_i", *_COLUMNS), blocks, run_cfg.output.format, fh)
    return 0


def _simulation(run_cfg: RunConfig, seed_override: int | None, **changes) -> simulator.SimParams:
    """The config's simulation settings, with AOI_SEED and any other changes applied."""
    if run_cfg.simulation is None:
        raise ConfigError("this command requires a 'simulation' section in the config")
    if seed_override is not None:
        changes["seed"] = seed_override
    return dataclasses.replace(run_cfg.simulation, **changes)


def cmd_simulate(run_cfg: RunConfig, seed_override: int | None, trace_path: str | None) -> int:
    params = _simulation(run_cfg, seed_override)
    trace_path, table_path = trace_path or run_cfg.output.trace_path, run_cfg.output.path
    # the table would be renamed into the trace's file, and the trace then renamed over it
    if trace_path and table_path and os.path.realpath(trace_path) == os.path.realpath(table_path):
        raise ConfigError(f"the trace path {trace_path} names the table's own file")
    # a system that the closed forms refuse fails before it is simulated
    ref = analytic.age_report(run_cfg.system).streams
    stream, rate, prob, avg, peak = _fields(ref, ("stream", "rate", "prob", "avg_age", "peak_age"))
    columns = ("stream", "lambda_i", "p_i", *_COLUMNS_SE, "ref_avg_age", "ref_peak_age")
    # both outputs are opened before the simulation; the trace, written as it is simulated, is renamed after the table
    with contextlib.nullcontext() if trace_path is None else _atomic_file(trace_path) as fh, _output(table_path) as table:
        try:  # the trace's write errors, which the table's handler would report as its own
            trace = None if fh is None else _trace_writer(fh, run_cfg.system.num_streams)
            result = simulator.run(params, trace)
        except OSError as exc:
            raise ConfigError(f"cannot write {trace_path}: {exc.strerror or exc}") from exc
        values = [stream, rate, prob, *_fields(result.streams, _FIELDS_SE), avg, peak]
        _emit_table(columns, [((len(ref),), values)], run_cfg.output.format, table)
    return 0


# Trace rows formatted at a time; it bounds the text held in memory.
_TRACE_ROWS = 1 << 12


def _trace_writer(fh, num_streams: int) -> simulator.TraceSink:
    """simulator.run's trace sink for fh, after the header: it writes each
    block as CSV rows, times in full repr, _TRACE_ROWS rows at a time; each
    distinct time of those rows is formatted once."""
    # the ",kind,stream," middle of a row, by kind * (M + 1) + stream
    middle = _text_cells(np.array([f",{name},{s}," for name in simulator.TRACE_KINDS for s in range(num_streams + 1)]))
    fh.write("time,kind,stream,generation_time\n")

    def write(block) -> None:
        for lo in range(0, len(block[0]), _TRACE_ROWS):
            t, k, s, g = (column[lo : lo + _TRACE_ROWS] for column in block)
            # every generation time is an arrival time, so the rows share most of their times
            distinct, at = np.unique(np.concatenate((t, g)), return_inverse=True)
            times = np.take(_by_value(_repr(distinct)), at, axis=0)
            mid = np.take(middle, k.astype(np.intp) * (num_streams + 1) + s, axis=0)
            fh.write(_lines(["", "", "", "\n"], [times[: len(t)], mid, times[len(t) :]], (len(t),)))

    return write


def _run_validation(run_cfg: RunConfig, seed_override: int | None):
    """The full oracle battery; returns a list of check dicts."""
    cfg = run_cfg.system
    checks: list[dict] = []

    def add(name, observed, expected, tol):
        delta = abs(observed - expected)
        checks.append(
            {
                "name": name,
                "observed": observed,
                "expected": expected,
                "delta": delta,
                "tolerance": tol,
                "passed": bool(delta <= tol),
            }
        )

    lam = cfg.total_rate
    # default probes at fixed fractions of lam, so that they scale with the time unit
    s_values = run_cfg.mgf_s_values or (-lam / 6, -lam / 3, -2 * lam / 3)

    # interdeparture MGF: closed form vs transfer function vs elimination vs path sum
    for i in range(1, cfg.num_streams + 1):
        pr = flowgraph.clock_probs(cfg, i)
        for s in s_values:
            ref = analytic.interdeparture_mgf(cfg, i, s)
            w = flowgraph.edge_weights(cfg, s)
            add(f"transfer_function[i={i},s={s}]", flowgraph.transfer_function(w, pr), ref, 1e-10 * abs(ref))
            add(
                f"elimination[i={i},s={s}]",
                flowgraph.solve_transfer_by_elimination(flowgraph.build_graph(pr, w)),
                ref,
                1e-10 * abs(ref),
            )
            value, bound = flowgraph.path_enumeration_oracle(pr, w, max_edges=4096)
            add(f"path_sum[i={i},s={s}]", value, ref, bound + 1e-10 * abs(ref))

    # closed-form moments vs numeric differentiation of the MGFs. The step
    # 1e-3 * min(1/E[X], lam) scales with the time unit and stays 1e-3 of
    # the way to the MGF's nearest singularity: T's MGF P(lam - s) / P(lam)
    # is finite up to s = lam, and Y_i's pole lies beyond 1/E[Y_i] <= lam. A
    # mean that underflows to 0 leaves lam alone to bound the step.
    # The one report every closed-form reference below is read from:
    report = analytic.age_report(cfg)

    def step(mean: float) -> float:
        return 1e-3 * (min(1.0 / mean, lam) if mean else lam)

    e_t = report.streams[0].mean_system_time
    add(
        "mean_system_time_numeric",
        analytic.moments_from_mgf(lambda s: analytic.system_time_mgf(cfg, s), 1, h=step(e_t)),
        e_t,
        1e-5 * abs(e_t),
    )
    for i, ref_row in enumerate(report.streams, start=1):
        phi = lambda s, i=i: analytic.interdeparture_mgf(cfg, i, s)
        h = step(ref_row.mean_interdeparture)
        for name, order, ref in (
            ("mean_interdeparture_numeric", 1, ref_row.mean_interdeparture),
            ("second_moment_numeric", 2, ref_row.second_moment_interdeparture),
        ):
            add(f"{name}[i={i}]", analytic.moments_from_mgf(phi, order, h=h), ref, 1e-5 * abs(ref))

    # dual-route self-check built into age_report: a report that fails it
    # raises InvariantViolationError above, which exits 5
    add("dual_route_decomposition", 0.0, 0.0, 1e-9)

    # Monte Carlo conditional clocks vs closed-form MGFs (5 sigma)
    sim_settings = run_cfg.simulation
    mc_seed = seed_override if seed_override is not None else (sim_settings.seed if sim_settings else 0)
    rng = np.random.default_rng(np.random.SeedSequence(mc_seed).spawn(1)[0])
    clock_refs = {
        "A": analytic.clock_mgf_A,
        "Z": analytic.clock_mgf_A,
        "B": analytic.clock_mgf_B,
        "V": analytic.clock_mgf_B,
        "U": analytic.system_time_mgf,
    }
    # one draw of (X, Lambda, S) serves every clock; Z and V need a foreign stream
    clock_names = "ABU" + ("VZ" if cfg.num_streams > 1 else "")
    clock_stats = simulator.clock_conditional_sampler(cfg, 1, clock_names, 200_000, rng)
    for which in clock_names:
        for s, (mean, se) in clock_stats[which].items():
            add(f"clock_{which}_mc[s={s}]", mean, clock_refs[which](cfg, s), 5.0 * se + 1e-12)

    # simulation vs analytic ages, delivery rates, renewal identity, MGF probes
    if sim_settings is not None:
        result = simulator.run(_simulation(run_cfg, seed_override, mgf_probes=run_cfg.mgf_s_values))
        p_lam = cfg.service_beats_arrival()
        for st, ref in zip(result.streams, report.streams):
            i = st.stream
            rate_ref = cfg.stream_rate(i) * p_lam
            # name, observed, expected, relative tolerance, k standard errors
            for name, observed, expected, rel, k_se in (
                ("sim_avg_age", st.avg_age, ref.avg_age, 0.015, 4.0 * st.avg_age_se),
                ("sim_peak_age", st.peak_age, ref.peak_age, 0.015, 4.0 * st.peak_age_se),
                ("sim_delivery_rate", st.delivery_rate, rate_ref, 0.01, 3.0 * st.delivery_rate_se),
            ):
                add(f"{name}[i={i}]", observed, expected, rel * abs(expected) + k_se)
            add(f"renewal_identity[i={i}]", st.delivery_rate * st.mean_interdeparture, 1.0, 0.01)
            for s, (mean, se) in st.mgf_probes.items():
                ref_val = analytic.interdeparture_mgf(cfg, i, s)
                add(f"sim_mgf_probe[i={i},s={s}]", mean, ref_val, 0.01 * abs(ref_val) + 5.0 * se)

    return checks


def cmd_validate(run_cfg: RunConfig, seed_override: int | None) -> int:
    path = run_cfg.output.path
    # both outputs are opened before the checks; the report is renamed before stdout is written
    with _output(None) as fh, contextlib.nullcontext() if not path else _atomic_file(path) as report:
        checks = _run_validation(run_cfg, seed_override)
        n_fail = sum(1 for c in checks if not c["passed"])
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            fh.write(
                "%s %s: observed=%.6g expected=%.6g delta=%.6g tol=%.6g\n"
                % (status, c["name"], c["observed"], c["expected"], c["delta"], c["tolerance"])
            )
        fh.write(f"{len(checks) - n_fail}/{len(checks)} checks passed\n")
        if report:
            report.write(json.dumps({"checks": checks}, indent=2) + "\n")
    return InvariantViolationError.exit_code if n_fail else 0


def _service_dest(field: str) -> str:
    """The optimize flag of a service-law field: --rate is the arrival rate."""
    return "service_rate" if field == "rate" else field


def _dist_from_flags(args) -> ServiceDistribution:
    kind = args.service
    spec = {"type": kind}
    for field in CONFIG_FIELDS[kind]:
        val = getattr(args, _service_dest(field))
        if val is None:
            raise ConfigError(f"--service {kind} requires --{_service_dest(field).replace('_', '-')}")
        spec[field] = val
    return distribution_from_config(spec)


def cmd_optimize(args) -> int:
    if finite_number(args.rate, "--rate") <= 0:
        raise ConfigError(f"--rate must be > 0, got {args.rate}")
    if args.streams < 1:
        raise ConfigError(f"--streams must be >= 1, got {args.streams}")
    if args.streams > optimizer._BLOCK:
        # a simplex point of more streams would not fit in one of the optimizer's blocks
        raise ConfigError(f"--streams must be <= {optimizer._BLOCK}, got {args.streams}")
    if args.points < 0:
        raise ConfigError(f"--points must be >= 0, got {args.points}")
    dist = _dist_from_flags(args)
    result = optimizer.optimal_allocation(args.rate, args.streams, dist, n_random_points=args.points)
    payload = {
        "p_star": list(result.p_star),
        "delta_tot_star": result.delta_tot_star,
        "delta_peak_tot_star": result.delta_peak_tot_star,
        "verification": {
            "n_random_points": result.n_random_points,
            "max_violation": result.max_violation,
        },
    }
    with _output(None) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _sweep_block(base: SystemConfig, param: str, values: list[float]):
    """The grid values' total rates, splits and service law (one law for a field's grid), and their age_columns."""
    g, m = len(values), base.num_streams
    lam, probs, law = np.full(g, base.total_rate), np.tile(base.stream_probs, (g, 1)), base.service
    if param == "total_rate":
        lam = np.array(values)
    elif param.startswith("p"):
        try:
            idx = int(param[1:])
        except ValueError:
            idx = -1
        if not 1 <= idx <= m or param != f"p{idx}":
            raise ConfigError(f"sweep parameter {param!r} does not name a stream probability")
        if m < 2:
            raise ConfigError("sweeping a stream probability needs at least two streams")
        p_i = np.array(values)
        ok = (0.0 < p_i) & (p_i < 1.0)
        require(ok, "stream probability grid value {} outside (0, 1)", p_i, error=ConfigError)
        probs = np.repeat(((1.0 - p_i) / (m - 1))[:, None], m, axis=1)
        probs[:, idx - 1] = p_i
    else:
        spec = base.service.to_config()
        fields = CONFIG_FIELDS[spec["type"]]
        if param not in fields:
            raise ConfigError(
                f"unknown sweep parameter {param!r}; expected total_rate, p<i>, "
                f"or a field of the service law {sorted(fields)}"
            )
        law = distribution_from_config({**spec, param: np.array(values)})
    return lam, probs, law, analytic.age_columns(lam, probs, law)


# Rows of a sweep evaluated and written at a time; it bounds the memory of a
# CSV sweep, whatever its grid.
_SWEEP_ROWS = 1 << 13


def _sweep_blocks(run_cfg: RunConfig, param: str, grid: list[float], with_sim: bool, seed_override) -> Iterator[Block]:
    """The sweep's rows, a block of grid points at a time. With --with-sim a
    block is one point, so that its simulated rows follow its analytic ones. A
    block that fails is evaluated again a point at a time, so that the first
    bad grid value raises."""
    base, m = run_cfg.system, run_cfg.system.num_streams
    streams = np.arange(1, m + 1)
    step = 1 if with_sim else max(1, _SWEEP_ROWS // m)
    for lo in range(0, len(grid), step):
        block = grid[lo : lo + step]
        try:
            points = [(block, _sweep_block(base, param, block))]
        except AoiError:
            points = (([v], _sweep_block(base, param, [v])) for v in block)
        for values, (lam, probs, law, columns) in points:
            # the columns of a grid point's M rows by (point, stream); those of the point alone by (point, 1)
            columns["mean_system_time"] = columns["mean_system_time"][:, :1]
            metrics = [columns[field] for field in _FIELDS]
            totals = [columns[name][:, None] for name in ("total_avg_age", "total_peak_age")]
            yield (len(values), m), [param, np.array(values)[:, None], streams, "analytic", *metrics, *totals]
            if with_sim:
                if param in CONFIG_FIELDS[law.kind]:  # the simulated point's law has scalar fields
                    law = dataclasses.replace(law, **{param: values[0]})
                cfg = SystemConfig(lam[0].item(), tuple(probs[0].tolist()), law)
                sim = simulator.run(_simulation(run_cfg, seed_override, cfg=cfg)).streams
                stream, *metrics = _fields(sim, ("stream", *_FIELDS))
                yield (m,), [param, values[0], stream, "simulated", *metrics, None, None]


def cmd_sweep(run_cfg: RunConfig, param: str, grid: list[float], with_sim: bool, seed_override) -> int:
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    with _output(run_cfg.output.path) as fh:
        _emit_table(_SWEEP_COLUMNS, _sweep_blocks(run_cfg, param, grid, with_sim, seed_override), run_cfg.output.format, fh)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi",
        description="Age-of-Information metrics for the multi-stream M/G/1/1 preemptive queue",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("analyze", "simulate", "validate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True, help="path to JSON run config")
        if name == "simulate":
            p.add_argument("--trace", default=None, help="write an event trace CSV here")
        if name == "sweep":
            p.add_argument("--param", required=True, help="total_rate, p<i>, or a service field")
            p.add_argument("--grid", required=True, help="comma-separated grid values")
            p.add_argument("--with-sim", action="store_true", help="add simulated rows")

    p = sub.add_parser("optimize")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--streams", type=int, required=True)
    p.add_argument("--service", required=True, choices=sorted(CONFIG_FIELDS))
    for field in dict.fromkeys(f for fields in CONFIG_FIELDS.values() for f in fields):
        dest = _service_dest(field)
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=float, default=None)
    p.add_argument("--points", type=int, default=1000, help="random simplex points to verify")
    return parser


def _command(args) -> int:
    seed_override = os.environ.get("AOI_SEED")
    if seed_override is not None:
        try:
            seed_override = int(seed_override)
        except ValueError:
            raise ConfigError(f"AOI_SEED must be an integer, got {seed_override!r}") from None
        if seed_override < 0:
            raise ConfigError(f"AOI_SEED must be >= 0, got {seed_override}")
    if args.command == "optimize":
        return cmd_optimize(args)
    run_cfg = load_run_config(args.config)
    if args.command == "analyze":
        return cmd_analyze(run_cfg)
    if args.command == "simulate":
        return cmd_simulate(run_cfg, seed_override, args.trace)
    if args.command == "validate":
        return cmd_validate(run_cfg, seed_override)
    if args.command == "sweep":
        try:
            grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"malformed grid {args.grid!r}: {exc}") from exc
        return cmd_sweep(run_cfg, args.param, grid, args.with_sim, seed_override)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _command(args)
    except AoiError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
