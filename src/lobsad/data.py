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
import math
import os
from itertools import islice
from dataclasses import dataclass, field

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


def _parse_rows(lines: list[str], col_of: dict, first: int, blank: int | None):
    """(timestamps, book, failure) of data lines converted row-wise, the first
    of which is data row `first + 1`: the rows before the first line that
    cannot be converted, and that line's (1-based row, reason), or None when
    every line converts. Blank lines after the last data line are not rows;
    one before it fails, and so does the blank row `blank` of an earlier
    block. The rows are not checked against the book's rules."""
    ts_list, book_rows, failure = [], [], None
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


def _read_block(path, lines: list[str], col_of: dict, first: int, blank: int | None,
                prev_ts) -> tuple[np.ndarray, np.ndarray]:
    """Validated (timestamps, book) of the data lines of one block, the first
    of which is data row `first + 1`, by numpy or, when numpy cannot vouch for
    them or the blank row `blank` of an earlier block precedes them, row-wise.
    `prev_ts` is the stamp of the row before the block. The first bad row
    raises a DataError naming `path`, the row and its first broken rule or
    conversion failure, as the row-wise parser over the whole file names it."""
    parsed = None if blank else _parse_block(lines, col_of)
    ts, book, failure = (*parsed, None) if parsed else _parse_rows(lines, col_of, first, blank)
    # the converted rows all come before a line that failed to convert
    error = _book_error(book, ts, prev_ts, first) or failure
    if error:
        raise DataError(f"{path}: row {error[0]}: {error[1]}")
    return ts, book


def _blocks(path, fh, col_of: dict, feat_cols: list[int]):
    """Yield the (timestamps, features) of each block of _BLOCK_ROWS lines
    from the handle's position. Blank lines that end a block are not rows;
    they fail once a data line follows, in this block or a later one."""
    first, blank, prev_ts = 0, None, None  # lines before the block, pending blank row
    while lines := list(islice(fh, _BLOCK_ROWS)):
        n_lines = len(lines)
        while lines and lines[-1] in _BLANK_LINES:
            lines.pop()
        n_rows = len(lines)
        if n_rows:
            ts, book = _read_block(path, lines, col_of, first, blank, prev_ts)
            prev_ts = ts[-1]
            block = ts.copy(), book[:, feat_cols]
            del lines, ts, book  # a block keeps neither its text nor its records
            yield block
        if n_rows < n_lines:
            blank = blank or first + n_rows + 1
        first += n_lines


def iter_lob_csv(path, schema: SchemaConfig | None = None):
    """Yield the (timestamps, features) of a LOB CSV block by block, in row
    order. Bad input raises as in `load_lob_csv`, when its block is read.

    A block holds _BLOCK_ROWS rows, except that a short last block is merged
    into the one before it: `objectives.embed` then forwards no chunk of a few
    rows, and each row scores as it does in the whole file."""
    schema = schema or SchemaConfig()
    with reading(path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader([line]))]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        held = None
        for block in _blocks(path, fh, {c: header.index(c) for c in CSV_COLUMNS},
                             [BOOK_COLUMNS.index(c) for c in schema.feature_columns]):
            if held is None:
                held = block
            elif block[0].size < _BLOCK_ROWS:
                held = tuple(np.concatenate(pair) for pair in zip(held, block))
            else:
                yield held
                held = block
        if held is not None:
            yield held


def load_lob_csv(path, schema: SchemaConfig | None = None) -> Dataset:
    """Parse a LOB CSV into a Dataset; bad rows raise with their 1-based row
    number. The rows are those of `iter_lob_csv`'s blocks, concatenated."""
    schema = schema or SchemaConfig()
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
        os.replace(tmp, path)
    finally:  # the temporary file is gone once it has replaced `path`
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@contextlib.contextmanager
def reading(path, newline=None):
    """`path` open as UTF-8 text; a byte that is not UTF-8 raises a DataError
    naming `path`."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None


def read_json(path):
    """The JSON document in `path`, read through `reading`; ConfigError if malformed."""
    try:
        with reading(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno} column "
                          f"{exc.colno}: {exc.msg}") from None


def write_csv(path, header, line, *columns) -> None:
    """Write `header`, then the rows of `columns` through `write_csv_rows`."""
    with replacing(path) as fh:
        fh.write(",".join(header) + "\r\n")
        write_csv_rows(fh, line, *columns)


def write_csv_rows(fh, line, *columns) -> None:
    """Write `line(*cells)` for each row of the row-aligned `columns`, whose
    cells arrive as Python scalars (a row of a 2-D column as a list). Lines end
    in `\\r\\n`, as RFC 4180 ends them; callers format floats with `repr`,
    which reads back bit for bit.

    Rows are converted and written a block at a time: converting whole
    columns at once spreads their Python objects over the allocator's arenas
    and raises the peak RSS of `lobsad run` at 60k rows by about 7%."""
    for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        blocks = [np.asarray(c[lo:lo + _CSV_BLOCK_ROWS]).tolist() for c in columns]
        fh.write("\r\n".join([line(*cells) for cells in zip(*blocks)]) + "\r\n")


def write_lob_csv(path, timestamps: np.ndarray, book: np.ndarray) -> None:
    """Write a full (N, 40) book table plus timestamps in the canonical layout."""
    if book.shape[1] != len(BOOK_COLUMNS):
        raise DataError(f"book must have {len(BOOK_COLUMNS)} columns, got {book.shape[1]}")
    write_csv(path, CSV_COLUMNS, lambda t, row: f"{t},{','.join(map(repr, row))}",
              np.asarray(timestamps, dtype=np.int64), np.asarray(book, dtype=np.float64))


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


@dataclass(frozen=True)
class SynthConfig:
    n_rows: int = 60_000
    anomaly_rate: float = 0.002  # expected fraction of anomalous rows
    n_labeled: int = 30
    seed: int = 0
    tick_size: float = 0.25
    start_price: float = 135.0
    mid_vol_ticks: float = 0.2  # std of per-step mid move, in ticks
    # flash jumps must clear the walk's own range to be anomalous row-wise
    flash_jump_ticks: tuple[int, int] = (150, 400)
    size_log_mean: float = np.log(50.0)
    size_log_sigma: float = 0.6
    archetype_mix: tuple[float, float, float] = (0.4, 0.3, 0.3)  # spoof, layering, flash
    spoof_side: str = "bid"  # side carrying size anomalies; must be in the feature view
    schema: SchemaConfig = field(default_factory=SchemaConfig)

    def __post_init__(self):
        if not (0 <= self.anomaly_rate < 1):
            raise ConfigError(f"anomaly_rate must be in [0, 1), got {self.anomaly_rate}")
        if self.n_rows < 1:
            raise ConfigError("n_rows must be >= 1")
        if self.n_labeled < 0:
            raise ConfigError("n_labeled must be >= 0")
        if self.seed < 0:  # np.random.default_rng refuses it
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.spoof_side not in ("bid", "ask"):
            raise ConfigError(f"spoof_side must be bid or ask, got {self.spoof_side}")
        if not 0 < self.tick_size < math.inf:
            raise ConfigError(f"tick_size must be finite and > 0, got {self.tick_size}")
        if not 0 < self.start_price / self.tick_size < 2.0 ** 53:  # NaN fails too
            raise ConfigError(f"start_price must be finite and > 0, and start_price / "
                              f"tick_size below 2**53, got {self.start_price}")
        for name in ("mid_vol_ticks", "size_log_sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not math.isfinite(self.size_log_mean):
            raise ConfigError(f"size_log_mean must be finite, got {self.size_log_mean}")
        jumps = self.flash_jump_ticks
        if not (len(jumps) == 2 and all(isinstance(j, int) for j in jumps)
                and 0 <= jumps[0] <= jumps[1]):
            raise ConfigError(f"flash_jump_ticks must be integers 0 <= low <= high, got {jumps}")
        mix = self.archetype_mix
        if not (len(mix) == 3 and all(isinstance(w, (int, float)) and 0 <= w < math.inf
                                      for w in mix) and sum(mix) > 0):
            raise ConfigError(f"archetype_mix must be three finite weights >= 0 with a "
                              f"positive sum, got {mix}")


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
        arch = ARCHETYPES[rng.choice(3, p=np.asarray(cfg.archetype_mix) / sum(cfg.archetype_mix))]
        occupied[start:start + length] = True
        episodes.append((start, length, arch))
        assigned += length
    return episodes


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN are refused below
def generate_synthetic(cfg: SynthConfig) -> SynthResult:
    """Tick-rounded mid-price random walk with 10 levels per side and injected
    spoof / layering / flash-move episodes; deterministic for a fixed seed."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_rows

    # a float64 walk, checked before the int64 cast: prices stay distinct below 2**52 ticks
    steps = np.rint(rng.normal(0.0, cfg.mid_vol_ticks, size=n))
    mid = round(cfg.start_price / cfg.tick_size) + np.concatenate(([0.0], np.cumsum(steps[1:])))
    top = float(np.abs(mid).max()) + cfg.flash_jump_ticks[1] + N_LEVELS  # largest price index
    if not (top < 2.0 ** 52 and math.isfinite(top * cfg.tick_size)):
        raise ConfigError(f"mid_vol_ticks {cfg.mid_vol_ticks} walks past 2**52 ticks, to {top:.4g}")
    mid = np.maximum(mid.astype(np.int64), N_LEVELS + 2)  # keep all bid levels positive

    bid_sz = np.maximum(
        np.rint(rng.lognormal(cfg.size_log_mean, cfg.size_log_sigma, size=(n, N_LEVELS))), 1.0)
    ask_sz = np.maximum(
        np.rint(rng.lognormal(cfg.size_log_mean, cfg.size_log_sigma, size=(n, N_LEVELS))), 1.0)

    episodes = _episode_plan(rng, cfg)
    gt_rows, gt_arch = [], []
    spoof_sz = bid_sz if cfg.spoof_side == "bid" else ask_sz
    for start, length, arch in episodes:
        sl = slice(start, start + length)
        if arch == "spoof":
            level = int(rng.integers(2, N_LEVELS))  # levels 3..10, 0-based 2..9
            factor = rng.uniform(10.0, 50.0)
            spoof_sz[sl, level] = np.rint(spoof_sz[sl, level] * factor)
        elif arch == "layering":
            # monotone ladder, modestly above the expected total depth: per-level
            # sizes stay near the normal marginal range, the joint shape is off
            mean_size = float(np.exp(cfg.size_log_mean + 0.5 * cfg.size_log_sigma ** 2))
            base = mean_size * N_LEVELS / np.arange(1, N_LEVELS + 1).sum()
            ladder = np.rint(base * rng.uniform(1.6, 2.4)
                             * np.arange(1, N_LEVELS + 1))
            spoof_sz[sl, :] = np.maximum(ladder, 1.0)
        else:  # flash move: > 8 tick jump in one step, reverted after the episode
            jlo, jhi = cfg.flash_jump_ticks
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
    bid_px = (mid[:, None] - levels[None, :]) * cfg.tick_size
    ask_px = (mid[:, None] + levels[None, :]) * cfg.tick_size
    book = np.hstack([bid_px, bid_sz, ask_px, ask_sz])
    if not np.isfinite(book).all():  # sizes past float64: `run` would refuse the file
        raise ConfigError(f"the book's sizes overflow float64 at size_log_mean "
                          f"{cfg.size_log_mean} and size_log_sigma {cfg.size_log_sigma}")

    cadence_ns = 10_000_000  # 10 ms
    jitter = rng.integers(0, cadence_ns // 2, size=n)
    ts = np.int64(1_700_000_000_000_000_000) + np.arange(n, dtype=np.int64) * cadence_ns + jitter

    feat_cols = [BOOK_COLUMNS.index(c) for c in cfg.schema.feature_columns]
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
              gt.rows, gt.archetypes, gt.labeled)


def load_ground_truth(path) -> GroundTruth:
    """Read a `row_index,archetype,labeled` sidecar. A malformed row or an
    archetype outside ARCHETYPES raises a DataError naming its 1-based data
    row; the caller checks the row indices against the data's length."""
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
                if not (0 <= row <= _INT64_MAX and arch in ARCHETYPES and lab in (0, 1)):
                    raise ValueError
            except ValueError:
                raise DataError(f"{path}: row {row_no}: expected a row index >= 0, "
                                f"an archetype in {ARCHETYPES} and a 0/1 labeled "
                                f"flag, got {raw}") from None
            rows.append(row)
            archs.append(arch)
            labeled.append(bool(lab))
    return GroundTruth(rows=np.array(rows, dtype=np.int64), archetypes=archs,
                       labeled=np.array(labeled, dtype=bool))
