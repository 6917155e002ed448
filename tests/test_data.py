import csv
import io
import logging
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobsad import data
from lobsad.errors import ConfigError, DataError, SchemaError


def small_book(n=3, mid=540):
    """Well-formed book rows around a fixed mid (in ticks, tick=0.25)."""
    levels = np.arange(1, 11)
    bid_px = (mid - levels)[None, :] * 0.25 * np.ones((n, 1))
    ask_px = (mid + levels)[None, :] * 0.25 * np.ones((n, 1))
    sizes = np.full((n, 10), 50.0)
    book = np.hstack([bid_px, sizes, ask_px, sizes + 1])
    ts = np.arange(n, dtype=np.int64) * 10_000_000
    return ts, book


class TestCsv:
    def test_load_well_formed(self, tmp_path):
        ts, book = small_book(3)
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, ts, book)
        ds = data.load_lob_csv(path)
        assert ds.n_rows == 3
        assert ds.n_labeled == 0
        assert ds.features.shape == (3, 20)

    def test_one_numpy_parse(self, tmp_path, monkeypatch):
        # every data line reaches one loadtxt call, exactly once, and the stamps
        # and the 40 book columns come from that call
        ts, book = small_book(7)
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, ts, book)
        loadtxt = np.loadtxt
        for block_rows in (1, 3, data._BLOCK_ROWS):
            monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows)
            parsed = []

            def spy(lines, **kwargs):
                assert kwargs["usecols"] == list(range(41))
                parsed.extend(lines)
                return loadtxt(lines, **kwargs)
            monkeypatch.setattr(np, "loadtxt", spy)
            ds = data.load_lob_csv(path, data.SchemaConfig(("ask_sz_10", "bid_px_1")))
            assert parsed == path.read_bytes().decode().splitlines(keepends=True)[1:]
            assert np.array_equal(ds.timestamps, ts) and ds.timestamps.dtype == np.int64
            assert np.array_equal(ds.features, book[:, [39, 0]])

    def test_crossed_book_names_row(self, tmp_path):
        ts, book = small_book(3)
        # cross row 2 (1-based): best bid above best ask
        book[1, 0] = book[1, 20] + 1.0
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, ts, book)
        with pytest.raises(DataError, match="row 2"):
            data.load_lob_csv(path)

    def test_nonfinite_rejected_with_row(self, tmp_path):
        ts, book = small_book(3)
        book[2, 5] = np.nan
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, ts, book)
        with pytest.raises(DataError, match="row 3"):
            data.load_lob_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "lob.csv"
        path.write_text("ts,bid_px_1\n0,1.0\n")
        with pytest.raises(SchemaError, match="bid_px_2"):
            data.load_lob_csv(path)

    def test_unparsable_cell_location(self, tmp_path):
        ts, book = small_book(2)
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, ts, book)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("50.0", "oops", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="row 2"):
            data.load_lob_csv(path)

    def test_round_trip_preserves_features(self, tmp_path):
        cfg = data.SynthConfig(n_rows=500, anomaly_rate=0.01, n_labeled=2, seed=4)
        schema = data.SchemaConfig(("ask_sz_3", "bid_px_1", "ask_px_10", "bid_sz_2"))
        result = data.generate_synthetic(cfg, schema)
        assert result.dataset.features.shape == (500, 4)
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, result.dataset.timestamps, result.book)
        loaded = data.load_lob_csv(path, schema)
        assert np.allclose(loaded.features, result.dataset.features,
                           rtol=0, atol=1e-12)
        assert np.array_equal(loaded.timestamps, result.dataset.timestamps)


class TestLabels:
    def test_empty_label_file(self, tmp_path):
        ts, book = small_book(3)
        ds = data.Dataset(book[:, :20], ts, np.array([], dtype=np.int64))
        path = tmp_path / "labels.txt"
        path.write_text("")
        assert data.load_labels(path, ds).n_labeled == 0

    def test_out_of_range(self, tmp_path):
        ts, book = small_book(3)
        ds = data.Dataset(book[:, :20], ts, np.array([], dtype=np.int64))
        path = tmp_path / "labels.txt"
        path.write_text("3\n")
        with pytest.raises(DataError, match="out of range"):
            data.load_labels(path, ds)
        # the first bad line is named, as every other ingest error names it
        path.write_text("# labels\n1\n99999\n-3\n")
        with pytest.raises(DataError, match=(
                f"^{re.escape(str(path))}: line 3: label index 99999 out of range 0..2$")):
            data.load_labels(path, ds)

    def test_duplicates_deduplicated_with_warning(self, tmp_path, caplog):
        ts, book = small_book(5)
        ds = data.Dataset(book[:, :20], ts, np.array([], dtype=np.int64))
        path = tmp_path / "labels.txt"
        path.write_text("1\n1\n4\n")
        with caplog.at_level(logging.WARNING, logger="lobsad.data"):
            out = data.load_labels(path, ds)
        assert np.array_equal(out.labeled_idx, [1, 4])
        assert any("duplicate" in r.message for r in caplog.records)


class TestNormalizer:
    def test_standardized_passthrough(self, rng):
        x = rng.standard_normal((5000, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        norm = data.fit_normalizer(x, np.arange(5000))
        z = data.apply_normalizer(norm, x)
        assert np.allclose(z.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1, atol=1e-12)

    def test_constant_feature_zeroed(self, rng, caplog):
        x = rng.standard_normal((100, 3))
        x[:, 1] = 7.0
        with caplog.at_level("WARNING", logger="lobsad.data"):
            norm = data.fit_normalizer(x, np.arange(100))
        assert norm.std[1] == 1.0 and norm.std[0] != 1.0
        assert "constant features [1]: std forced to 1" in caplog.text
        z = data.apply_normalizer(norm, x)
        assert np.all(z[:, 1] == 0.0)

    def test_matches_two_pass_oracle(self, rng):
        x = rng.normal(loc=3.0, scale=2.5, size=(400, 5))
        rows = np.arange(100, 300)
        norm = data.fit_normalizer(x, rows)
        # naive two-pass recomputation
        sub = x[rows]
        mean = np.array([sum(sub[:, j]) / len(sub) for j in range(5)])
        var = np.array([sum((sub[:, j] - mean[j]) ** 2) / len(sub) for j in range(5)])
        assert np.allclose(norm.mean, mean, atol=1e-10)
        assert np.allclose(norm.std, np.sqrt(var), atol=1e-10)


def assert_book_invariants(book):
    n = data.N_LEVELS
    bid_px, bid_sz = book[:, :n], book[:, n:2 * n]
    ask_px, ask_sz = book[:, 2 * n:3 * n], book[:, 3 * n:]
    assert np.all(np.diff(bid_px, axis=1) < 0)
    assert np.all(np.diff(ask_px, axis=1) > 0)
    assert np.all(ask_px[:, 0] > bid_px[:, 0])
    assert np.all(bid_sz > 0) and np.all(ask_sz > 0)


class TestGenerator:
    def test_no_anomalies(self):
        cfg = data.SynthConfig(n_rows=2000, anomaly_rate=0.0, n_labeled=0, seed=2)
        result = data.generate_synthetic(cfg)
        assert result.ground_truth.rows.size == 0
        assert_book_invariants(result.book)

    def test_deterministic(self):
        cfg = data.SynthConfig(n_rows=3000, anomaly_rate=0.01, n_labeled=5, seed=11)
        a, b = data.generate_synthetic(cfg), data.generate_synthetic(cfg)
        assert np.array_equal(a.book, b.book)
        assert np.array_equal(a.dataset.timestamps, b.dataset.timestamps)
        assert np.array_equal(a.ground_truth.rows, b.ground_truth.rows)
        assert np.array_equal(a.dataset.labeled_idx, b.dataset.labeled_idx)

    def test_counts_at_desk_scale(self):
        cfg = data.SynthConfig(n_rows=60_000, anomaly_rate=0.002, n_labeled=30,
                               seed=1)
        result = data.generate_synthetic(cfg)
        assert result.dataset.n_labeled == 30
        # 99% binomial interval around n*p = 120: mean +- 2.576 * sqrt(np(1-p))
        sigma = np.sqrt(60_000 * 0.002 * 0.998)
        lo, hi = 120 - 2.576 * sigma, 120 + 2.576 * sigma
        assert lo <= result.ground_truth.rows.size <= hi
        # labeled rows are a subset of injected rows
        assert np.all(np.isin(result.dataset.labeled_idx, result.ground_truth.rows))

    def test_invariants_hold_with_anomalies(self):
        cfg = data.SynthConfig(n_rows=5000, anomaly_rate=0.01, n_labeled=10, seed=3)
        result = data.generate_synthetic(cfg)
        assert_book_invariants(result.book)
        assert np.all(np.diff(result.dataset.timestamps) > 0)

    def test_label_sparsity_default(self):
        cfg = data.SynthConfig()
        assert cfg.n_labeled / cfg.n_rows < 0.001

    def test_infeasible_labeled_count(self):
        cfg = data.SynthConfig(n_rows=1000, anomaly_rate=0.0, n_labeled=1, seed=0)
        with pytest.raises(ConfigError, match="n_labeled"):
            data.generate_synthetic(cfg)

    def test_archetypes_present(self):
        cfg = data.SynthConfig(n_rows=20_000, anomaly_rate=0.01, n_labeled=0, seed=5)
        result = data.generate_synthetic(cfg)
        assert set(result.ground_truth.archetypes) == set(data.ARCHETYPES)

    def test_flash_moves_jump(self):
        cfg = data.SynthConfig(n_rows=20_000, anomaly_rate=0.01, n_labeled=0, seed=5)
        result = data.generate_synthetic(cfg)
        gt = result.ground_truth
        flash_rows = gt.rows[[a == "flash" for a in gt.archetypes]]
        starts = flash_rows[~np.isin(flash_rows - 1, flash_rows)]
        starts = starts[starts > 0]
        best_bid = result.book[:, 0]
        jumps = np.abs(best_bid[starts] - best_bid[starts - 1]) / data.TICK_SIZE
        assert np.all(jumps > 8)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_invariants_random_seeds(self, seed):
        cfg = data.SynthConfig(n_rows=800, anomaly_rate=0.02, n_labeled=3,
                               seed=seed)
        result = data.generate_synthetic(cfg)
        assert_book_invariants(result.book)
        ds = result.dataset
        assert np.all(np.diff(ds.timestamps) >= 0)
        assert ds.labeled_idx.min() >= 0 and ds.labeled_idx.max() < ds.n_rows

    def test_ask_view_moves_only_spoofed_sizes(self):
        # the side that carries spoof and layering rows follows the view, and
        # no draw moves: prices and flash rows stay, and of the spoof and
        # layering rows only the sizes differ, on both sides
        cfg = data.SynthConfig(n_rows=20_000, anomaly_rate=0.01, n_labeled=10, seed=5)
        ask_view = data.SchemaConfig(tuple(c for c in data.BOOK_COLUMNS if c[:3] == "ask"))
        bid, ask = data.generate_synthetic(cfg), data.generate_synthetic(cfg, ask_view)
        gt = bid.ground_truth
        for field in ("rows", "archetypes", "labeled"):
            assert np.array_equal(getattr(gt, field), getattr(ask.ground_truth, field))
        assert np.array_equal(bid.dataset.labeled_idx, ask.dataset.labeled_idx)
        assert np.array_equal(bid.dataset.timestamps, ask.dataset.timestamps)
        sizes = [i for i, c in enumerate(data.BOOK_COLUMNS) if "_sz_" in c]
        prices = [i for i, c in enumerate(data.BOOK_COLUMNS) if "_px_" in c]
        assert np.array_equal(bid.book[:, prices], ask.book[:, prices])
        spoofed = gt.rows[[a != "flash" for a in gt.archetypes]]
        differs = bid.book != ask.book
        assert np.array_equal(np.flatnonzero(differs.any(axis=1)), spoofed)
        for side in (sizes[:data.N_LEVELS], sizes[data.N_LEVELS:]):
            assert differs[np.ix_(spoofed, side)].any(axis=1).all()
        assert np.array_equal(ask.dataset.features, ask.book[:, 2 * data.N_LEVELS:])


class TestGroundTruthSidecar:
    def test_round_trip(self, tmp_path):
        cfg = data.SynthConfig(n_rows=2000, anomaly_rate=0.01, n_labeled=4, seed=9)
        result = data.generate_synthetic(cfg)
        path = tmp_path / "gt.csv"
        data.write_ground_truth(path, result.ground_truth)
        loaded = data.load_ground_truth(path, cfg.n_rows)
        assert np.array_equal(loaded.rows, result.ground_truth.rows)
        assert loaded.archetypes == result.ground_truth.archetypes
        assert np.array_equal(loaded.labeled, result.ground_truth.labeled)


# --- loader oracle: the numpy parse against the row-wise reference -------------

VALIDATION_DEFECTS = {
    "nonfinite": "non-finite value",
    "bid_order": "bid prices not strictly decreasing",
    "ask_order": "ask prices not strictly increasing",
    "crossed": "crossed book",
    "size": "non-positive size",
}
PARSE_DEFECTS = ("unparsable", "blank", "comment", "short", "ts_overflow")


def reference_rule_error(row, ts, prev_ts):
    """The first rule that a book row (its 40 floats in BOOK_COLUMNS order)
    with stamp `ts` breaks, or None; `prev_ts` is the stamp of the row before
    it, None for the first row. The rules of data._book_error, stated row by
    row and apart from it, as an oracle."""
    bid_px, bid_sz, ask_px, ask_sz = row[0:10], row[10:20], row[20:30], row[30:40]
    if not np.isfinite(row).all():
        return "non-finite value"
    if np.any(np.diff(bid_px) >= 0):
        return "bid prices not strictly decreasing"
    if np.any(np.diff(ask_px) <= 0):
        return "ask prices not strictly increasing"
    if ask_px[0] <= bid_px[0]:
        return f"crossed book (best bid {bid_px[0]} >= best ask {ask_px[0]})"
    if np.any(bid_sz <= 0) or np.any(ask_sz <= 0):
        return "non-positive size"
    if prev_ts is not None and ts < prev_ts:
        return f"timestamp {ts} is below the row before it ({prev_ts})"
    return None


def reference_error(path, lines):
    """The error the loader must raise for a file at `path` of `lines` (header
    first, every cell convertible), found row by row with
    reference_rule_error, or None."""
    header, *rows = csv.reader(lines)
    prev_ts = None
    for row_no, raw in enumerate(rows, start=1):
        ts = int(raw[header.index("ts")])
        what = reference_rule_error(
            np.array([float(raw[header.index(c)]) for c in data.BOOK_COLUMNS]), ts, prev_ts)
        if what:
            return f"{path}: row {row_no}: {what}"
        prev_ts = ts
    return None


def random_table(rng, n):
    """(ts, book) of `n` well-formed rows with full-precision prices and
    nanosecond stamps up to 2**62."""
    mid = rng.uniform(50.0, 5000.0, size=(n, 1))
    bid_px = mid - np.cumsum(rng.uniform(0.001, 1.0, size=(n, 10)), axis=1)
    ask_px = mid + np.cumsum(rng.uniform(0.001, 1.0, size=(n, 10)), axis=1)
    sizes = np.where(rng.random((n, 20)) < 0.5,
                     rng.integers(1, 10**6, size=(n, 20)).astype(float),
                     rng.uniform(0.5, 1e4, size=(n, 20)))
    book = np.hstack([bid_px, sizes[:, :10], ask_px, sizes[:, 10:]])
    ts = int(rng.integers(0, 2**62)) + np.cumsum(rng.integers(0, 10**7, size=n))
    return ts.astype(np.int64), book


def inject(rng, book, row, kind):
    """Make book row `row` fail the named validation check."""
    k = int(rng.integers(1, 10))
    if kind == "nonfinite":
        book[row, rng.integers(0, 40)] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "bid_order":
        book[row, k] = book[row, k - 1]
    elif kind == "ask_order":
        book[row, 20 + k] = book[row, 20 + k - 1]
    elif kind == "crossed":
        with np.errstate(invalid="ignore"):  # inf - inf on a row made non-finite already
            book[row, 0:10] += book[row, 20] - book[row, 0] + rng.choice([0.0, 0.5])
    else:
        book[row, rng.choice([10, 30]) + k] = rng.choice([0.0, -1.0])


def lob_lines(ts, book, columns, fmt):
    """CSV lines (no line endings) of the table, with columns in `columns` order."""
    cells = {"ts": [str(t) for t in ts.tolist()], "note": ["x"] * len(ts)}
    for j, name in enumerate(data.BOOK_COLUMNS):
        cells[name] = [fmt(v) for v in book[:, j].tolist()]
    return [",".join(columns)] + [",".join(cells[c][i] for c in columns)
                                  for i in range(len(ts))]


@st.composite
def lob_files(draw, defects=(None,)):
    """(lines, newline, schema, defect kind, defect row) of a random LOB CSV:
    shuffled header, an optional extra text column, LF or CRLF."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    columns = draw(st.permutations(data.CSV_COLUMNS + ["note"]
                                   if draw(st.booleans()) else data.CSV_COLUMNS))
    fmt = draw(st.sampled_from([repr, "{:.17e}".format]))
    features = draw(st.lists(st.sampled_from(data.BOOK_COLUMNS), min_size=1,
                             max_size=6, unique=True))
    kind = draw(st.sampled_from(defects))
    row = draw(st.integers(0, n - 1))
    ts, book = random_table(rng, n)
    if kind in VALIDATION_DEFECTS:
        inject(rng, book, row, kind)
    lines = lob_lines(ts, book, columns, fmt)
    cells = lines[row + 1].split(",")
    needed = [columns.index(c) for c in data.CSV_COLUMNS]  # not the "note" column
    if kind == "unparsable":
        cells[rng.choice(needed)] = str(rng.choice(["oops", "", "1.5.2"]))
    elif kind == "short":  # keep a cell: a line with none is a blank line
        del cells[rng.integers(1, max(needed) + 1):]
    elif kind == "ts_overflow":
        cells[columns.index("ts")] = "99999999999999999999"
    lines[row + 1] = ",".join(cells)
    if kind in ("blank", "comment"):
        lines.insert(row + 1, "" if kind == "blank" else "# note")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return lines, newline, data.SchemaConfig(tuple(features)), kind, row


@st.composite
def multi_defect_files(draw):
    """Lines of a random LOB CSV with 2-3 defects of distinct kinds, each a
    broken book rule or a stamp below the row before, often several in one
    row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    ts, book = random_table(rng, n)
    kinds = draw(st.lists(st.sampled_from((*VALIDATION_DEFECTS, "ts_order")),
                          min_size=2, max_size=3, unique=True))
    first = draw(st.integers(1, n - 1))  # row 0 has no row before it to be below
    rows = [first] + [draw(st.one_of(st.just(first), st.integers(1, n - 1)))
                      for _ in kinds[1:]]
    for kind, row in zip(kinds, rows):
        if kind == "ts_order":
            ts[row] = ts[row - 1] - int(rng.integers(1, 10**7))
        else:
            inject(rng, book, row, kind)
    return lob_lines(ts, book, data.CSV_COLUMNS, repr)


def write_lines(path, lines, newline):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)


def load_outcome(path, schema):
    try:
        return data.load_lob_csv(path, schema)
    except DataError as exc:
        return str(exc)


# lines per block at which load_lob_csv is checked against the reference:
# tiny blocks put block boundaries everywhere in the small oracle files
BLOCK_SIZES = (1, 2, 3, data._BLOCK_ROWS)


def load_both(path, schema, block_rows):
    """(outcome of load_lob_csv at `block_rows` lines per block, outcome of the
    row-wise reference alone over the whole file, whether load_lob_csv fell
    back to the row-wise parser); an outcome is a Dataset or a DataError
    message."""
    fell_back = []
    reference = data._parse_rows

    def spy(*args):
        fell_back.append(True)
        return reference(*args)
    with mock.patch.object(data, "_parse_rows", spy), \
            mock.patch.object(data, "_BLOCK_ROWS", block_rows):
        fast = load_outcome(path, schema)
    # the oracle files are far shorter than one default block
    with mock.patch.object(data, "_parse_block", lambda *args: None):
        ref = load_outcome(path, schema)
    return fast, ref, bool(fell_back)


def assert_same_dataset(a, b):
    assert a.features.dtype == b.features.dtype == np.float64
    assert a.features.shape == b.features.shape
    assert np.array_equal(a.features.view(np.int64), b.features.view(np.int64))
    assert a.timestamps.dtype == b.timestamps.dtype == np.int64
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.labeled_idx, b.labeled_idx)


def load_at_each_block_size(lines, newline, schema):
    """(path, [load_both(...) at each of BLOCK_SIZES]) of a file of `lines`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lob.csv")
        write_lines(path, lines, newline)
        return path, [load_both(path, schema, rows) for rows in BLOCK_SIZES]


class TestLoaderOracle:
    @given(case=lob_files())
    @settings(max_examples=60, deadline=None)
    def test_well_formed_matches_reference(self, case):
        lines, newline, schema, _, _ = case
        for fast, ref, fell_back in load_at_each_block_size(lines, newline, schema)[1]:
            assert not fell_back
            assert_same_dataset(fast, ref)

    @given(case=lob_files(tuple(VALIDATION_DEFECTS)))
    @settings(max_examples=60, deadline=None)
    def test_invalid_book_same_error(self, case):
        lines, newline, schema, kind, row = case
        path, outcomes = load_at_each_block_size(lines, newline, schema)
        for fast, ref, fell_back in outcomes:
            assert not fell_back  # the whole-block checks found it
            assert fast == ref == reference_error(path, lines)
            assert fast.startswith(f"{path}: row {row + 1}: {VALIDATION_DEFECTS[kind]}")

    @given(lines=multi_defect_files())
    @settings(max_examples=150, deadline=None)
    def test_several_defects_name_first_row_and_rule(self, lines):
        # the first bad row, and of the rules it breaks the first in
        # reference_rule_error's order, at every block size
        path, outcomes = load_at_each_block_size(lines, "\n", data.SchemaConfig())
        want = reference_error(path, lines)
        assert want is not None
        for fast, ref, fell_back in outcomes:
            assert not fell_back
            assert fast == ref == want

    @given(case=lob_files(PARSE_DEFECTS))
    @settings(max_examples=60, deadline=None)
    def test_odd_lines_same_error(self, case):
        lines, newline, schema, kind, row = case
        path, outcomes = load_at_each_block_size(lines, newline, schema)
        detail = {"ts_overflow": "timestamp 99999999999999999999 outside int64",
                  "blank": "blank line before the last data row"}.get(kind, "unparsable cell")
        for fast, ref, fell_back in outcomes:
            assert fell_back
            assert fast == ref
            assert fast.startswith(f"{path}: row {row + 1}: {detail}")

    @given(case=lob_files())
    @settings(max_examples=20, deadline=None)
    def test_quoted_cells_accepted(self, case):
        lines, newline, schema, _, _ = case
        quoted = [lines[0]] + [",".join(f'"{c}"' for c in line.split(","))
                               for line in lines[1:]]
        plain = load_at_each_block_size(lines, newline, schema)[1][0][0]
        for fast, ref, fell_back in load_at_each_block_size(quoted, newline, schema)[1]:
            assert fell_back
            assert_same_dataset(fast, ref)
            assert_same_dataset(fast, plain)

    @given(case=lob_files(), n_blank=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_trailing_blank_lines_ignored(self, case, n_blank):
        lines, newline, schema, _, _ = case
        plain = load_at_each_block_size(lines, newline, schema)[1][0][0]
        for fast, ref, fell_back in load_at_each_block_size(
                lines + [""] * n_blank, newline, schema)[1]:
            assert not fell_back
            assert_same_dataset(fast, ref)
            assert_same_dataset(fast, plain)

    @pytest.mark.parametrize("block_rows", BLOCK_SIZES)
    def test_blank_line_ending_a_block(self, tmp_path, monkeypatch, block_rows):
        # rows 3-4 blank: at 2 lines per block they end a block, and data follows
        # in the next block; blank lines that end the file are no rows
        ts, book = small_book(4)
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, ts, book)
        lines = path.read_text().splitlines()
        monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows)
        write_lines(path, lines[:3] + ["", ""] + lines[3:] + ["", ""], "\n")
        with pytest.raises(DataError) as exc:
            data.load_lob_csv(path)
        assert str(exc.value) == f"{path}: row 3: blank line before the last data row"
        write_lines(path, lines[:3] + ["", "", ""], "\r\n")
        assert_same_dataset(data.load_lob_csv(path), data.Dataset(
            book[:2, :20], ts[:2], np.array([], dtype=np.int64)))

    @pytest.mark.parametrize("block_rows", BLOCK_SIZES)
    @pytest.mark.parametrize("row", [2, 3, 4, 7, 8])
    def test_timestamp_below_previous_names_row(self, tmp_path, monkeypatch,
                                                block_rows, row):
        # within a block and across each block boundary; a defect of the book
        # in a later row, or in the same row, does not hide or replace it
        ts, book = small_book(8)
        ts[row - 1] = ts[row - 2] - 1
        book[7, 0] = book[7, 20]  # a crossed book in the last row
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, ts, book)
        monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows)
        want = (f"{path}: row {row}: timestamp {ts[row - 1]} is below the row "
                f"before it ({ts[row - 2]})")
        if row == 8:
            want = f"{path}: row 8: crossed book"
        with pytest.raises(DataError) as exc:
            data.load_lob_csv(path)
        assert str(exc.value).startswith(want)
        with mock.patch.object(data, "_parse_block", lambda *args: None):
            with pytest.raises(DataError) as ref:
                data.load_lob_csv(path)
        assert str(ref.value) == str(exc.value)

    def test_timestamp_outside_int64_names_row(self, tmp_path):
        ts, book = small_book(3)
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, ts, book)
        lines = path.read_text().splitlines()
        lines[3] = "99999999999999999999" + lines[3][lines[3].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="row 3: timestamp 99999999999999999999"):
            data.load_lob_csv(path)

    def test_write_matches_csv_writer(self, tmp_path):
        # more rows than one write block, so block boundaries are covered
        cfg = data.SynthConfig(n_rows=5000, anomaly_rate=0.02, n_labeled=2, seed=8)
        result = data.generate_synthetic(cfg)
        path = tmp_path / "lob.csv"
        data.write_lob_csv(path, result.dataset.timestamps, result.book)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(data.CSV_COLUMNS)
        for t, row in zip(result.dataset.timestamps, result.book):
            writer.writerow([int(t)] + [repr(float(v)) for v in row])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_string_table_writer_matches_per_cell_repr(self, tmp_path):
        # +-0.0 kept apart, repeated and all-distinct values, and a block of
        # rows that ends on the 2,048-row write boundary and one that passes it
        rng = np.random.default_rng(3)
        for n in (5, data._CSV_BLOCK_ROWS, data._CSV_BLOCK_ROWS + 3):
            book = rng.choice([0.0, -0.0, 1.5, -1.5, 1e-300, 135.25], size=(n, 40))
            book[n // 2] = rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30, 40)
            ts = np.arange(n, dtype=np.int64) * 7 - 3
            path, want = tmp_path / "lob.csv", tmp_path / "want.csv"
            data.write_lob_csv(path, ts, book)
            data.write_csv(want, data.CSV_COLUMNS,
                           lambda t, row: f"{t},{','.join(map(repr, row))}", [(ts, book)])
            assert path.read_bytes() == want.read_bytes()
            assert b",-0.0," in path.read_bytes() and b",0.0," in path.read_bytes()


# --- parts: a CSV cut on block boundaries, each part read on its own ---------


def read_blocks(path, schema, parts):
    """Every block `iter_lob_csv` yields over `parts`, in order, or the
    DataError message of the first part that fails."""
    try:
        return [block for part in parts for block in data.iter_lob_csv(path, schema, part)]
    except DataError as exc:
        return str(exc)


def assert_same_blocks(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert [ts.size for ts, _ in a] == [ts.size for ts, _ in b]
    for (ts_a, feats_a), (ts_b, feats_b) in zip(a, b):
        assert np.array_equal(ts_a, ts_b)
        assert np.array_equal(feats_a.view(np.int64), feats_b.view(np.int64))


def write_book_lines(path, n_rows, newline="\r\n", edit=lambda lines: lines):
    """A well-formed CSV of `n_rows` rows at `path`, its lines (header first)
    passed through `edit` on the way; returns the lines written."""
    ts, book = random_table(np.random.default_rng(n_rows), n_rows)
    lines = edit(lob_lines(ts, book, data.CSV_COLUMNS, repr))
    write_lines(path, lines, newline)
    return lines


class TestCsvParts:
    @given(case=lob_files((None, *VALIDATION_DEFECTS, *PARSE_DEFECTS)),
           n_blank=st.integers(0, 2), block_rows=st.integers(1, 3), n=st.integers(2, 4))
    @settings(max_examples=150, deadline=None)
    def test_parts_read_the_whole_files_blocks(self, case, n_blank, block_rows, n):
        # the same blocks, or the same first error, whatever the part count
        lines, newline, schema, _, _ = case
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(data, "_BLOCK_ROWS", block_rows):
            path = os.path.join(tmp, "lob.csv")
            write_lines(path, lines + [""] * n_blank, newline)
            parts = data.csv_parts(path, n)
            assert_same_blocks(read_blocks(path, schema, parts),
                               read_blocks(path, schema, [data.CsvPart()]))

    @given(lines=multi_defect_files(), block_rows=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_several_defects_first_part_named(self, lines, block_rows):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(data, "_BLOCK_ROWS", block_rows):
            path = os.path.join(tmp, "lob.csv")
            write_lines(path, lines, "\n")
            want = reference_error(path, lines)
            for n in (2, 3):
                assert read_blocks(path, data.SchemaConfig(), data.csv_parts(path, n)) == want

    @pytest.mark.parametrize("n_rows", [64, 128, 3 * 64 + 7, 10 * 64])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parts_on_block_boundaries_near_equal_bytes(self, tmp_path, monkeypatch,
                                                        n_rows, n):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
        path = tmp_path / "lob.csv"
        write_book_lines(path, n_rows)
        parts = data.csv_parts(path, n)
        full = n_rows // 64
        assert len(parts) == min(n, full)  # never more parts than full blocks
        raw = path.read_bytes()
        starts = np.r_[0, np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n")) + 1]
        assert parts[0].first == 0
        for part, after in zip(parts, parts[1:] + [None]):
            assert part.first % 64 == 0
            assert part.first == 0 or part.before == starts[part.first]  # data line first - 1
            assert part.lines == (None if after is None else after.first - part.first)
        assert n_rows - parts[-1].first >= 64  # the last part holds a full block
        if (n_rows, n) == (10 * 64, 2):  # the middle of the bytes, five blocks each
            assert [p.first for p in parts] == [0, 5 * 64]

    def test_never_cut_after_a_blank_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 4)
        path = tmp_path / "lob.csv"
        for blank in range(1, 17):  # the blank line is data line `blank - 1`
            write_book_lines(path, 16, edit=lambda lines: lines[:blank] + [""] + lines[blank + 1:])
            firsts = [part.first for part in data.csv_parts(path, 4)]
            assert blank not in firsts and firsts[0] == 0

    def test_one_part_unless_lines_end_in_newline_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 4)
        path = tmp_path / "lob.csv"
        write_book_lines(path, 16)
        assert len(data.csv_parts(path, 2)) == 2
        assert data.csv_parts(path, 1) == [data.CsvPart()]
        assert data.csv_parts(tmp_path / "missing.csv", 2) == [data.CsvPart()]
        assert data.csv_parts(tmp_path, 2) == [data.CsvPart()]  # not a regular file
        for lone in ("\r", "\n\r"):  # text mode ends a line at a lone '\r'
            write_book_lines(path, 16, edit=lambda lines: lines[:9] + [lines[9] + lone] + lines[10:])
            assert data.csv_parts(path, 2) == [data.CsvPart()]
        write_book_lines(path, 16, newline="\r")
        assert data.csv_parts(path, 2) == [data.CsvPart()]


class TestDecodeErrorPosition:
    @given(at=st.integers(0, 30_000), bad=st.sampled_from([b"\xff", b"\xe2\x28\xa1", b"\xc3"]),
           newline=st.sampled_from([None, ""]), end=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_names_the_files_byte(self, at, bad, newline, end):
        # past the text wrapper's 8 KiB chunks, and a sequence cut off by the
        # end of the file: the position is the file's, as a decode of it all names it
        text = b"".join(b"%05d,abcdefghij\r\n" % i for i in range(2000))
        raw = text + bad if end else text[:at] + bad + text[at:]
        with pytest.raises(UnicodeDecodeError) as want:
            raw.decode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.txt")
            with open(path, "wb") as fh:
                fh.write(raw)
            with pytest.raises(DataError) as got:
                with data.reading(path, newline) as fh:
                    fh.read() if at % 2 else list(fh)
        assert str(got.value) == f"{path}: {want.value}"
