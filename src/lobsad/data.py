"""Limit-order-book data model, CSV ingestion, normalization, synthetic generator.

CSV layout (header required, UTF-8, '.' decimal):

    ts, bid_px_1..10, bid_sz_1..10, ask_px_1..10, ask_sz_1..10

`ts` is integer nanoseconds. Prices are real tick multiples, bid prices
strictly decreasing by level, ask prices strictly increasing, best ask above
best bid, sizes positive.

The 20-dim feature vector is a configurable column selection; the default view
is the bid side, prices first then sizes:

    bid_px_1..10, bid_sz_1..10

Label files carry one integer row index per line (confirmed anomalies, y=-1).
The generator's ground-truth sidecar is a CSV `row_index,archetype,labeled`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import os
import stat
from itertools import islice
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, SchemaError

log = logging.getLogger("lobsad.data")

N_LEVELS = 10

BOOK_COLUMNS = (
    [f"bid_px_{i}" for i in range(1, N_LEVELS + 1)]
    + [f"bid_sz_{i}" for i in range(1, N_LEVELS + 1)]
    + [f"ask_px_{i}" for i in range(1, N_LEVELS + 1)]
    + [f"ask_sz_{i}" for i in range(1, N_LEVELS + 1)]
)
CSV_COLUMNS = ["ts"] + BOOK_COLUMNS

DEFAULT_FEATURES = tuple(
    [f"bid_px_{i}" for i in range(1, N_LEVELS + 1)]
    + [f"bid_sz_{i}" for i in range(1, N_LEVELS + 1)]
)

ARCHETYPES = ("spoof", "layering", "flash")

_CSV_BLOCK_ROWS = 2048  # rows per write in write_csv
# data lines per numpy parse, picked by measurement at 60k rows: blocks of
# 1,024-8,192 lines parse equally fast, but below ~6,000 glibc's malloc hands
# the forward pass's activations back to the OS after every block, and the
# page faults cost `lobsad score` about 0.1 s. A block's text and records
# take ~5 MB.
_BLOCK_ROWS = 8192
_SCAN_BYTES = 1 << 18  # bytes per read when `csv_parts` counts lines
_BLANK_LINES = ("\n", "\r\n", "\r")  # the lines csv.reader reads as no cells

# one parsed data line: nanosecond stamps near 1.7e18 are not exact in float64,
# so `ts` is parsed as an integer and the book columns as floats
_RECORD = np.dtype([("ts", "<i8")] + [(c, "<f8") for c in BOOK_COLUMNS])

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SchemaConfig:
    feature_columns: tuple[str, ...] = DEFAULT_FEATURES

    def __post_init__(self):
        unknown = [c for c in self.feature_columns if c not in BOOK_COLUMNS]
        if unknown:
            raise ConfigError(f"unknown feature columns: {unknown}")
        repeated = sorted({c for c in self.feature_columns if self.feature_columns.count(c) > 1})
        if repeated:  # one input twice
            raise ConfigError(f"repeated feature columns: {repeated}")


@dataclass
class Dataset:
    features: np.ndarray  # (N, d) float64
    timestamps: np.ndarray  # (N,) int64, nondecreasing
    labeled_idx: np.ndarray  # row indices of labeled anomalies (y = -1)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_labeled(self) -> int:
        return self.labeled_idx.size


@dataclass
class Normalizer:
    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,), > 0 everywhere (constant features forced to 1)


def _book_error(book: np.ndarray, ts: np.ndarray, prev_ts,
                first: int) -> tuple[int, str] | None:
    """(1-based row, message) of the first row that breaks a rule, with the
    message of the first rule in the table that it breaks, or None. The rows
    are data rows `first + 1`..: `book` holds their 40 book columns in
    BOOK_COLUMNS order, `ts` their stamps, and `prev_ts` the stamp of the row
    before them, None when there is none.

    Each rule is one boolean mask over the whole table."""
    bid_px, bid_sz = book[:, :N_LEVELS], book[:, N_LEVELS:2 * N_LEVELS]
    ask_px, ask_sz = book[:, 2 * N_LEVELS:3 * N_LEVELS], book[:, 3 * N_LEVELS:]
    # each row's predecessor's stamp; with none, the first row is its own
    before = np.concatenate((ts[:1] if prev_ts is None else [prev_ts], ts))[:ts.size]
    with np.errstate(invalid="ignore"):  # inf - inf: the first rule names those rows
        rules = (
            (~np.isfinite(book).all(axis=1), "non-finite value"),
            ((np.diff(bid_px, axis=1) >= 0).any(axis=1), "bid prices not strictly decreasing"),
            ((np.diff(ask_px, axis=1) <= 0).any(axis=1), "ask prices not strictly increasing"),
            (ask_px[:, 0] <= bid_px[:, 0], "crossed book (best bid {bid} >= best ask {ask})"),
            ((bid_sz <= 0).any(axis=1) | (ask_sz <= 0).any(axis=1), "non-positive size"),
            (ts < before, "timestamp {ts} is below the row before it ({prev})"),
        )
    hits = np.flatnonzero(np.any([mask for mask, _ in rules], axis=0))
    if not hits.size:
        return None
    i = int(hits[0])
    what = next(what for mask, what in rules if mask[i])
    return first + i + 1, what.format(bid=bid_px[i, 0], ask=ask_px[i, 0], ts=ts[i],
                                      prev=before[i])


def _parse_block(lines: list[str], col_of: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """(timestamps, book) of data lines parsed by one numpy call: each line
    becomes one `_RECORD`, and `book` is a strided view of the records' 40
    book fields.

    Returns None when this parse cannot vouch for the lines: a cell numpy
    rejects (quoted, empty, short row, `#` line, a timestamp outside int64) or
    a line it skipped (blank). `_parse_rows` then converts them."""
    try:
        records = np.loadtxt(lines, dtype=_RECORD, ndmin=1, delimiter=",", comments=None,
                             usecols=[col_of[c] for c in CSV_COLUMNS])
    except ValueError:
        return None
    if records.shape[0] != len(lines):
        return None
    # the 40 book fields sit side by side after `ts` in every record
    book = np.ndarray((records.shape[0], len(BOOK_COLUMNS)), np.float64, records,
                      offset=_RECORD.fields[BOOK_COLUMNS[0]][1],
                      strides=(_RECORD.itemsize, 8))
    return records["ts"], book


def _parse_rows(lines: list[str], col_of: dict, first: int):
    """(timestamps, book, failure) of data lines converted row-wise, the first
    of which is data row `first + 1`: the rows before the first line that
    cannot be converted, and that line's (1-based row, reason), or None when
    every line converts. Blank lines after the last data line are not rows;
    one before it fails. The rows are not checked against the book's rules."""
    ts_list, book_rows, failure, blank = [], [], None, None
    for row_no, raw in enumerate(csv.reader(lines), start=first + 1):
        if not raw:
            blank = blank or row_no
            continue
        if blank:  # a data line follows a blank one: the blank one fails
            failure = blank, "blank line before the last data row"
            break
        try:
            ts = int(raw[col_of["ts"]])
            vals = [float(raw[col_of[c]]) for c in BOOK_COLUMNS]
        except (ValueError, IndexError) as exc:
            failure = row_no, f"unparsable cell ({exc})"
            break
        if not _INT64_MIN <= ts <= _INT64_MAX:
            failure = row_no, f"timestamp {ts} outside int64"
            break
        ts_list.append(ts)
        book_rows.append(vals)
    book = np.array(book_rows, dtype=np.float64).reshape(len(book_rows), len(BOOK_COLUMNS))
    return np.array(ts_list, dtype=np.int64), book, failure


def _read_block(path, lines: list[str], col_of: dict, first: int,
                prev_ts) -> tuple[np.ndarray, np.ndarray]:
    """Validated (timestamps, book) of one block's data lines, the first of
    which is data row `first + 1`, by numpy or, when numpy cannot vouch for
    them, row-wise; `prev_ts` is the stamp of the row before the block. The
    first bad row raises a DataError naming `path`, the row and its first
    broken rule or conversion failure, as the row-wise parser names it."""
    parsed = _parse_block(lines, col_of)
    ts, book, failure = (*parsed, None) if parsed else _parse_rows(lines, col_of, first)
    # the converted rows all come before a line that failed to convert
    error = _book_error(book, ts, prev_ts, first) or failure
    if error:
        raise DataError(f"{path}: row {error[0]}: {error[1]}")
    return ts, book


def _blocks(path, fh, col_of: dict, feat_cols: list[int], first: int, prev_ts):
    """Yield the (timestamps, features) of each block of _BLOCK_ROWS lines
    from the line iterator `fh`, whose first line is data row `first + 1`;
    `prev_ts` is the stamp of the row before it, None when there is none.
    Blank lines that end a block are not rows: the first of them is carried
    to the front of the next block, where `_parse_rows` fails it if a data
    line follows, and the rest are dropped."""
    held = []  # the carried blank line
    while lines := list(islice(fh, _BLOCK_ROWS)):
        lines[:0], held = held, []
        while lines and lines[-1] in _BLANK_LINES:
            held = [lines.pop()]  # the last one popped is the first blank line
        if lines:
            ts, book = _read_block(path, lines, col_of, first, prev_ts)
            first, prev_ts = first + len(lines), ts[-1]
            block = ts.copy(), book[:, feat_cols]
            del lines, ts, book  # a block keeps neither its text nor its records
            yield block


class CsvPart(NamedTuple):
    """The data lines [first, first + lines) of a LOB CSV, or from `first` to
    its end when `lines` is None. The line before them, whose stamp the first
    row's is checked against, starts at byte `before`."""
    first: int = 0
    before: int = 0
    lines: int | None = None


def csv_parts(path, n: int) -> list[CsvPart]:
    """At most `n` parts of a LOB CSV's data lines, in order, that together
    hold them all. Each part but the first starts on a block boundary (a
    multiple of _BLOCK_ROWS lines) that no blank line ends, near an equal
    share of the file's bytes, and the last holds at least one full block, so
    `iter_lob_csv` reads in each part the blocks it reads in the whole file.

    One part, the whole file, when n < 2, `path` is not a regular file or a
    line ends in a lone '\r': the lines counted here are the '\n'-ended ones,
    and text mode ends a line at a lone '\r' too."""
    whole = [CsvPart()]
    try:
        if n < 2 or not stat.S_ISREG(os.stat(path).st_mode):
            return whole
        fh = open(path, "rb")
    except OSError:  # the reader names it
        return whole
    cuts = []  # (j, the byte where data line j*_BLOCK_ROWS - 1 starts), that line not blank
    with fh:
        # the file's lines (the header is line 0) and bytes before the chunk,
        # and its data lines up to the last one that is not blank
        lines = offset = data_lines = 0
        while chunk := fh.read(_SCAN_BYTES) + fh.readline():  # whole lines
            byte = np.frombuffer(chunk, np.uint8)
            ends = np.flatnonzero(byte == ord("\n"))
            # each '\r' must end a line as "\r\n" (a chunk starts a line, so none ends at 0)
            if np.count_nonzero(byte == ord("\r")) != np.count_nonzero(
                    byte[ends[ends > 0] - 1] == ord("\r")):
                return whole
            # data line j*_BLOCK_ROWS - 1 is the file's line j*_BLOCK_ROWS
            for j in range(max(1, -(-lines // _BLOCK_ROWS)),
                           (lines + ends.size - 1) // _BLOCK_ROWS + 1):
                k = j * _BLOCK_ROWS - lines  # its index in the chunk
                lo = int(ends[k - 1]) + 1 if k else 0
                if chunk[lo:ends[k] + 1] not in (b"\n", b"\r\n"):
                    cuts.append((j, offset + lo))
            if text := chunk.rstrip(b"\r\n"):
                data_lines = lines + ends.size - chunk.count(b"\n", len(text))
            lines, offset = lines + ends.size, offset + len(chunk)
    full = data_lines // _BLOCK_ROWS
    cuts = [cut for cut in cuts if cut[0] < full]  # the last part keeps a full block
    n = min(n, full)
    if n < 2 or not cuts:
        return whole
    targets = (offset * i / n for i in range(1, n))
    picks = sorted({min(cuts, key=lambda cut: abs(cut[1] - at)) for at in targets})
    parts = [CsvPart(j * _BLOCK_ROWS, before) for j, before in [(0, 0)] + picks]
    return [part._replace(lines=after.first - part.first)
            for part, after in zip(parts, parts[1:])] + parts[-1:]


def iter_lob_csv(path, schema: SchemaConfig = SchemaConfig(), part: CsvPart = CsvPart()):
    """Yield the (timestamps, features) of a LOB CSV block by block, in row
    order: of its data lines in `part`, by default all of them. Bad input
    raises as in `load_lob_csv`, when its block is read.

    A block holds _BLOCK_ROWS rows, except that a short last block is merged
    into the one before it: `objectives.embed` then forwards no chunk of a few
    rows, and each row scores as it does in the whole file."""
    with reading(path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader([line]))]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        col_of = {c: header.index(c) for c in CSV_COLUMNS}
        prev_ts = None
        if part.first:  # the row before the part; if it does not convert, its own part fails
            fh.seek(part.before)
            ts = _parse_rows([fh.readline()], col_of, part.first - 1)[0]
            prev_ts = ts[0] if ts.size else None
        held = None
        for block in _blocks(path, islice(fh, part.lines), col_of,
                             [BOOK_COLUMNS.index(c) for c in schema.feature_columns],
                             part.first, prev_ts):
            if held is None:
                held = block
            elif block[0].size < _BLOCK_ROWS:
                held = tuple(np.concatenate(pair) for pair in zip(held, block))
            else:
                yield held
                held = block
        if held is not None:
            yield held


def load_lob_csv(path, schema: SchemaConfig = SchemaConfig()) -> Dataset:
    """Parse a LOB CSV into a Dataset; bad rows raise with their 1-based row
    number. The rows are those of `iter_lob_csv`'s blocks, concatenated."""
    blocks = list(iter_lob_csv(path, schema)) or [
        (np.empty(0, np.int64), np.empty((0, len(schema.feature_columns))))]
    ts, features = (np.concatenate(parts) for parts in zip(*blocks))
    return Dataset(features=features, timestamps=ts,
                   labeled_idx=np.array([], dtype=np.int64))


@contextlib.contextmanager
def replacing(path):
    """A UTF-8 text handle, newlines untranslated, on `<path>.<pid>.tmp`, which
    replaces `path` if the block ends without raising. Not fsynced: `path` is
    whole or as it was when the process fails or is killed, not on power loss."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # as above: `path`, not `tmp -> path`
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:  # the temporary file is gone once it has replaced `path`
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@contextlib.contextmanager
def reading(path, newline=None):
    """`path` open as UTF-8 text; a byte that is not UTF-8 raises a DataError
    naming `path` and the byte's position in the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {_decode_error(fh, exc)}") from None


def _decode_error(fh, exc: UnicodeDecodeError) -> str:
    """`exc`'s message, with the bad bytes' position in the file rather than
    in the bytes the decoder failed on: the chunk last read, which ends where
    the file now stands, after any bytes held back from the chunk before. A
    file that has no position (a pipe) keeps the decoder's."""
    try:
        at = fh.buffer.tell() - len(exc.object) + exc.start
    except OSError:
        return str(exc)
    n = exc.end - exc.start
    what = (f"byte 0x{exc.object[exc.start]:02x} in position {at}" if n == 1
            else f"bytes in position {at}-{at + n - 1}")
    return f"'{exc.encoding}' codec can't decode {what}: {exc.reason}"


def read_json(path):
    """The JSON document in `path`, read through `reading`; ConfigError if malformed."""
    try:
        with reading(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno} column "
                          f"{exc.colno}: {exc.msg}") from None


def write_csv(path, header, line, blocks) -> None:
    """Write `header` (no header line when it is None), then `line(*cells)`
    for each row of each block in `blocks`, an iterable of tuples of
    row-aligned columns whose cells arrive as Python scalars (a row of a 2-D
    column as a list). A generator that raises leaves the file as it was.
    Lines end in `\r\n`, as RFC 4180 ends them; callers format floats with
    `repr`, which reads back bit for bit.

    Rows are converted and written _CSV_BLOCK_ROWS at a time: converting whole
    columns at once spreads their Python objects over the allocator's arenas
    and raises the peak RSS of `lobsad run` at 60k rows by about 7%."""
    with replacing(path) as fh:
        if header is not None:
            fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
                cells = [np.asarray(c[lo:lo + _CSV_BLOCK_ROWS]).tolist() for c in columns]
                fh.write("\r\n".join([line(*row) for row in zip(*cells)]) + "\r\n")


def write_lob_csv(path, timestamps: np.ndarray, book: np.ndarray) -> None:
    """Write a full (N, 40) book table plus timestamps in the canonical layout.

    A block of rows holds a few hundred distinct book values, so each block's
    values are keyed by their bits (which keeps -0.0 apart from 0.0), each
    distinct one goes through `repr` once, and the rows join its strings."""
    if book.shape[1] != len(BOOK_COLUMNS):
        raise DataError(f"book must have {len(BOOK_COLUMNS)} columns, got {book.shape[1]}")
    timestamps = np.asarray(timestamps, dtype=np.int64)
    book = np.ascontiguousarray(book, dtype=np.float64)

    def blocks():  # (timestamps, the book's cells as strings) of each block
        for lo in range(0, book.shape[0], _CSV_BLOCK_ROWS):
            cells = book[lo:lo + _CSV_BLOCK_ROWS]
            bits, where = np.unique(cells.view(np.int64).ravel(), return_inverse=True)
            text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
            yield timestamps[lo:lo + _CSV_BLOCK_ROWS], text[where].reshape(cells.shape)
    write_csv(path, CSV_COLUMNS, lambda t, row: f"{t},{','.join(row)}", blocks())


def load_labels(path, dataset: Dataset) -> Dataset:
    """Attach labeled-anomaly row indices to a dataset; the first bad line is named."""
    idx, n = [], dataset.n_rows
    with reading(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                idx.append(int(line))
            except ValueError:
                raise DataError(f"{path}: line {line_no}: expected an integer") from None
            if not 0 <= idx[-1] < n:
                raise DataError(f"{path}: line {line_no}: label index {idx[-1]} "
                                f"out of range 0..{n - 1}")
    uniq = np.unique(np.array(idx, dtype=np.int64))
    if uniq.size < len(idx):
        log.warning("%s: %d duplicate label indices dropped", path, len(idx) - uniq.size)
    return Dataset(features=dataset.features, timestamps=dataset.timestamps,
                   labeled_idx=uniq)


def fit_normalizer(features: np.ndarray, rows: np.ndarray) -> Normalizer:
    """Per-feature z-score statistics over `rows` only (never test rows)."""
    rows = np.asarray(rows)
    if rows.size == 0:
        raise DataError("fit_normalizer needs a nonempty row range")
    sub = features[rows]
    mean = sub.mean(axis=0)
    std = sub.std(axis=0)
    constant = std <= 0
    if constant.any():
        log.warning("constant features %s: std forced to 1", np.nonzero(constant)[0])
    return Normalizer(mean=mean, std=np.where(constant, 1.0, std))


def apply_normalizer(norm: Normalizer, features: np.ndarray) -> np.ndarray:
    if features.shape[1] != norm.mean.shape[0]:
        raise DataError(
            f"feature dim {features.shape[1]} != normalizer dim {norm.mean.shape[0]}")
    out = features - norm.mean
    out /= norm.std  # in place: `(x - m) / s` would hold x's size three times over
    return out


# --- synthetic generator ------------------------------------------------------


# the fixed market every synthetic book is drawn from; a config sets only
# SynthConfig's fields, what an experiment varies
TICK_SIZE = 0.25
START_PRICE = 135.0
MID_VOL_TICKS = 0.2  # std of per-step mid move, in ticks
# flash jumps must clear the walk's own range to be anomalous row-wise
FLASH_JUMP_TICKS = (150, 400)
SIZE_LOG_MEAN = np.log(50.0)
SIZE_LOG_SIGMA = 0.6
ARCHETYPE_MIX = (0.4, 0.3, 0.3)  # spoof, layering, flash


@dataclass(frozen=True)
class SynthConfig:
    n_rows: int = 60_000
    anomaly_rate: float = 0.002  # expected fraction of anomalous rows
    n_labeled: int = 30
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.anomaly_rate < 1):
            raise ConfigError(f"anomaly_rate must be in [0, 1), got {self.anomaly_rate}")
        if self.n_rows < 1:
            raise ConfigError("n_rows must be >= 1")
        if self.n_labeled < 0:
            raise ConfigError("n_labeled must be >= 0")
        if self.seed < 0:  # np.random.default_rng refuses it
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class GroundTruth:
    """All injected anomaly rows, for evaluation only; training sees just the labels."""

    rows: np.ndarray  # (K,) row indices
    archetypes: list[str]  # (K,)
    labeled: np.ndarray  # (K,) bool


@dataclass
class SynthResult:
    dataset: Dataset
    book: np.ndarray  # (N, 40) full book, BOOK_COLUMNS order
    ground_truth: GroundTruth


def _episode_plan(rng: np.random.Generator, cfg: SynthConfig) -> list[tuple[int, int, str]]:
    """Plan non-overlapping (start, length, archetype) episodes.

    Total anomalous row count is drawn once as Binomial(n_rows, anomaly_rate),
    then carved into short contiguous episodes placed uniformly.
    """
    target = int(rng.binomial(cfg.n_rows, cfg.anomaly_rate))
    occupied = np.zeros(cfg.n_rows, dtype=bool)
    episodes, assigned, attempts = [], 0, 0
    while assigned < target and attempts < 100 * max(target, 1):
        attempts += 1
        length = min(int(rng.integers(2, 7)), target - assigned)
        length = max(length, 1)
        start = int(rng.integers(0, cfg.n_rows - length + 1))
        if occupied[start:start + length].any():
            continue
        arch = ARCHETYPES[rng.choice(3, p=np.asarray(ARCHETYPE_MIX) / sum(ARCHETYPE_MIX))]
        occupied[start:start + length] = True
        episodes.append((start, length, arch))
        assigned += length
    return episodes


def generate_synthetic(cfg: SynthConfig, schema: SchemaConfig = SchemaConfig()) -> SynthResult:
    """Tick-rounded mid-price random walk with 10 levels per side and injected
    spoof / layering / flash-move episodes; deterministic per seed. Spoof and
    layering episodes go to the bid sizes when `schema` views any of them,
    else to the ask sizes, so that its features see them."""
    sides = {c[:3] for c in schema.feature_columns if "_sz_" in c}  # "bid", "ask"
    if not sides:
        raise ConfigError("features has no size column to carry spoof and layering rows")
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_rows

    steps = np.rint(rng.normal(0.0, MID_VOL_TICKS, size=n))
    mid = round(START_PRICE / TICK_SIZE) + np.concatenate(([0.0], np.cumsum(steps[1:])))
    mid = np.maximum(mid.astype(np.int64), N_LEVELS + 2)  # keep all bid levels positive

    bid_sz = np.maximum(
        np.rint(rng.lognormal(SIZE_LOG_MEAN, SIZE_LOG_SIGMA, size=(n, N_LEVELS))), 1.0)
    ask_sz = np.maximum(
        np.rint(rng.lognormal(SIZE_LOG_MEAN, SIZE_LOG_SIGMA, size=(n, N_LEVELS))), 1.0)

    episodes = _episode_plan(rng, cfg)
    gt_rows, gt_arch = [], []
    spoof_sz = bid_sz if "bid" in sides else ask_sz
    for start, length, arch in episodes:
        sl = slice(start, start + length)
        if arch == "spoof":
            level = int(rng.integers(2, N_LEVELS))  # levels 3..10, 0-based 2..9
            factor = rng.uniform(10.0, 50.0)
            spoof_sz[sl, level] = np.rint(spoof_sz[sl, level] * factor)
        elif arch == "layering":
            # monotone ladder, modestly above the expected total depth: per-level
            # sizes stay near the normal marginal range, the joint shape is off
            mean_size = float(np.exp(SIZE_LOG_MEAN + 0.5 * SIZE_LOG_SIGMA ** 2))
            base = mean_size * N_LEVELS / np.arange(1, N_LEVELS + 1).sum()
            ladder = np.rint(base * rng.uniform(1.6, 2.4)
                             * np.arange(1, N_LEVELS + 1))
            spoof_sz[sl, :] = np.maximum(ladder, 1.0)
        else:  # flash move: > 8 tick jump in one step, reverted after the episode
            jlo, jhi = FLASH_JUMP_TICKS
            jump = int(rng.integers(jlo, jhi + 1)) * int(rng.choice((-1, 1)))
            mid[sl] = np.maximum(mid[sl] + jump, N_LEVELS + 2)
        gt_rows.extend(range(start, start + length))
        gt_arch.extend([arch] * length)

    gt_rows = np.array(gt_rows, dtype=np.int64)
    order = np.argsort(gt_rows, kind="stable")
    gt_rows = gt_rows[order]
    gt_arch = [gt_arch[i] for i in order]

    if cfg.n_labeled > gt_rows.size:
        raise ConfigError(
            f"n_labeled={cfg.n_labeled} exceeds injected anomaly rows ({gt_rows.size})")
    labeled_rows = np.sort(rng.choice(gt_rows, size=cfg.n_labeled, replace=False)) \
        if cfg.n_labeled else np.array([], dtype=np.int64)
    labeled_mask = np.isin(gt_rows, labeled_rows)

    levels = np.arange(1, N_LEVELS + 1)
    bid_px = (mid[:, None] - levels[None, :]) * TICK_SIZE
    ask_px = (mid[:, None] + levels[None, :]) * TICK_SIZE
    book = np.hstack([bid_px, bid_sz, ask_px, ask_sz])

    cadence_ns = 10_000_000  # 10 ms
    jitter = rng.integers(0, cadence_ns // 2, size=n)
    ts = np.int64(1_700_000_000_000_000_000) + np.arange(n, dtype=np.int64) * cadence_ns + jitter

    feat_cols = [BOOK_COLUMNS.index(c) for c in schema.feature_columns]
    ds = Dataset(features=book[:, feat_cols], timestamps=ts,
                 labeled_idx=labeled_rows.astype(np.int64))
    gt = GroundTruth(rows=gt_rows, archetypes=gt_arch, labeled=labeled_mask)
    return SynthResult(dataset=ds, book=book, ground_truth=gt)


def write_labels(path, labeled_idx: np.ndarray) -> None:
    with replacing(path) as fh:
        for i in labeled_idx:
            fh.write(f"{int(i)}\n")


def write_ground_truth(path, gt: GroundTruth) -> None:
    write_csv(path, ("row_index", "archetype", "labeled"),
              lambda row, arch, lab: f"{int(row)},{arch},{int(lab)}",
              [(gt.rows, gt.archetypes, gt.labeled)])


def load_ground_truth(path, n_rows: int) -> GroundTruth:
    """Read a `row_index,archetype,labeled` sidecar of data with `n_rows`
    rows. The first malformed row, or the first whose archetype is outside
    ARCHETYPES or whose index is past the data, raises a DataError naming its
    1-based data row, as `load_labels` names its first bad line."""
    rows, archs, labeled = [], [], []
    with reading(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty ground-truth file")
        if header[:3] != ["row_index", "archetype", "labeled"]:
            raise SchemaError(f"{path}: unexpected ground-truth header {header}")
        for row_no, raw in enumerate(reader, start=1):
            try:
                row, arch, lab = raw[:3]
                row, lab = int(row), int(lab)
                if not (row >= 0 and arch in ARCHETYPES and lab in (0, 1)):
                    raise ValueError
            except ValueError:
                raise DataError(f"{path}: row {row_no}: expected a row index >= 0, "
                                f"an archetype in {ARCHETYPES} and a 0/1 labeled "
                                f"flag, got {raw}") from None
            if row >= n_rows:
                raise DataError(f"{path}: row {row_no}: row index {row} >= {n_rows} data rows")
            rows.append(row)
            archs.append(arch)
            labeled.append(bool(lab))
    return GroundTruth(rows=np.array(rows, dtype=np.int64), archetypes=archs,
                       labeled=np.array(labeled, dtype=bool))
