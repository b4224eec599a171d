import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from comclust import dataio
from comclust.dataio import (MAX_FEATURE_VALUES, SPLIT_FRACTIONS, TEST,
                             TRAIN, VAL, BlobSpec, LabeledDataset, load_csv,
                             save_csv, save_results, split_dataset,
                             synth_imbalanced)
from comclust.errors import (InvalidSpecError, MissingColumnError, ParseError,
                             TooFewSamplesError)

from helpers import assert_same_text, load_results

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


def reference_load_csv(path) -> LabeledDataset:
    """Reference: the line-at-a-time loader, parsing and checking each line
    before reading the next."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        d = len(header) - 1
        expected = [f"f{i}" for i in range(d)] + ["label"]
        if d < 1 or header != expected:
            raise MissingColumnError(
                f"{path}: header must be f0,...,f{{D-1}},label, got {header}")
        features, labels = [], []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != d + 1:
                raise ParseError(f"{path}:{lineno}: expected {d + 1} cells, "
                                 f"got {len(cells)}")
            try:
                row = [float(c) for c in cells[:d]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not all(np.isfinite(row)):
                raise ParseError(f"{path}:{lineno}: non-finite feature value")
            if cells[d] not in ("0", "1"):
                raise ParseError(f"{path}:{lineno}: label must be 0 or 1, "
                                 f"got {cells[d]!r}")
            features.append(row)
            labels.append(int(cells[d]))
    if not features:
        raise ParseError(f"{path}: no data rows")
    return LabeledDataset(np.array(features, dtype=np.float64),
                          np.array(labels, dtype=int))


def canonical_text(record) -> str:
    """Reference: the text ``save_results`` writes for ``record``."""
    return json.dumps(reference_jsonable(record), indent=2,
                      sort_keys=True) + "\n"


def reference_jsonable(obj):
    """Reference: numpy arrays and numbers as plain Python values, for
    json.dumps."""
    if isinstance(obj, dict):
        return {k: reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return reference_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# a lone 0xff byte once encoded with surrogateescape, and a cell over csv's
# default field size limit of 131 072 characters
UNDECODABLE = "\udcff"
OVERSIZED = "1" * 131_073
# cell texts that float() or the finite check reject, that csv unquotes, or
# that fail while the text is read
BAD_CELLS = ["abc", "", "nan", "inf", "-inf", "1e400", "-1e400", '"1.5"',
             '"x"', '"1,5"', " 2.5", "1_0", "0x1", UNDECODABLE, OVERSIZED,
             # numpy's tokenizer and float() disagree on these (the Arabic-
             # Indic digit one is 1.0 to float())
             "2\x1c", "2\x0c", "\t2", "\u0661"]
BAD_LABELS = ["1.0", " 1", "1 ", "2", "-0", "01", "", '"1"', '"0"', '"2"',
              "+1", "1e0", "0.0"]
# weighted towards the per-cell checks, which a header fault would mask
CORRUPTIONS = ["cell"] * 3 + ["label"] * 2 + ["ragged", "blank", "header",
                                               "whitespace"]
BAD_HEADERS = ["", "label", "a,label", "f0,f2,label", "f1,label",
               "f0,label,x", '"f0",label']


@st.composite
def csv_texts(draw):
    """A valid f0..f{D-1},label file, then up to three corruptions."""
    d = draw(st.integers(1, 4))
    lines = [[f"f{i}" for i in range(d)] + ["label"]]
    for _ in range(draw(st.integers(0, 6))):
        lines.append([repr(draw(st.floats(allow_nan=False,
                                          allow_infinity=False)))
                      for _ in range(d)] + [draw(st.sampled_from("01"))])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(CORRUPTIONS))
        k = draw(st.integers(1, max(1, len(lines) - 1)))
        if kind == "header":
            lines[0] = [draw(st.sampled_from(BAD_HEADERS))]
        elif kind == "blank":
            lines.insert(k, [""])
        elif kind == "whitespace":
            lines.insert(k, [" \t"])
        elif k < len(lines) and lines[k] != [""]:
            row = lines[k]
            if kind == "cell":
                row[draw(st.integers(0, len(row) - 1))] = \
                    draw(st.sampled_from(BAD_CELLS))
            elif kind == "label":
                row[-1] = draw(st.sampled_from(BAD_LABELS))
            elif draw(st.booleans()):
                row.pop()
            else:
                row.append("1")
    if draw(st.sampled_from(["keep"] * 9 + ["cut"])) == "cut":
        lines = lines[:draw(st.integers(0, 1))]   # empty or header-only
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(cells) for cells in lines)
    return text + end if lines and draw(st.booleans()) else text


@st.composite
def block_texts(draw):
    """A file in load_csv's block grammar: repr floats, 0/1 labels, \\n or
    \\r\\n line ends, with or without a last one."""
    d = draw(st.integers(1, 4))
    lines = [",".join([f"f{i}" for i in range(d)] + ["label"])]
    for _ in range(draw(st.integers(1, 6))):
        lines.append(",".join([repr(draw(st.floats(allow_nan=False,
                                                   allow_infinity=False)))
                               for _ in range(d)] + [draw(st.sampled_from("01"))]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _refuse_line_reader(path):
    raise AssertionError(f"{path} went to the line reader")


def _outcome(loader, path):
    """The loaded bytes and labels, or the exception class and message."""
    try:
        ds = loader(path)
    except Exception as exc:   # any class: compared across the loaders
        return type(exc), str(exc)
    return (ds.features.dtype, ds.features.shape, ds.features.tobytes(),
            ds.labels.dtype, ds.labels.tolist())


json_leaves = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.lists(st.floats()), st.lists(st.integers()),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                max_side=4)),
)
json_records = st.recursive(
    json_leaves,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=20)


# the JSON writer's block; a long column fills two and leaves one item
BLOCK = dataio._JSON_BLOCK_ITEMS
LONG_COLUMNS = ["float-array", "float-list", "float64-tuple", "int-array",
                "int-list", "bool-array", "mixed-list", "float32-array",
                "int8-array", "uint64-array", "finite-float-array",
                "float-2d-array", "object-array"]


def long_column(kind: str):
    """A column of 2 * BLOCK + 1 items (rows, for the 2-D array) of one
    kind. The float column and those made from it hold NaN, +inf, -inf and
    -0.0 in their second and third blocks only; the finite float column
    holds -0.0 in its first block, and the float32 column is finite."""
    floats = np.random.default_rng(3).normal(size=2 * BLOCK + 1)
    floats[[BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK]] = [
        np.nan, np.inf, -np.inf, -0.0]
    finite = np.where(np.isfinite(floats), floats, 0.5)
    finite[5] = -0.0
    return {"float-array": floats, "float-list": floats.tolist(),
            "float64-tuple": tuple(floats),
            "int-array": np.arange(-5, 2 * BLOCK - 4),
            "int-list": list(range(2 * BLOCK + 1)),
            "bool-array": floats > 0,
            "mixed-list": [*range(BLOCK), 0.5, True, None, *range(BLOCK - 2)],
            "float32-array": finite.astype(np.float32),
            "int8-array": (np.arange(2 * BLOCK + 1) % 256 - 128).astype(
                np.int8),
            "uint64-array": np.arange(2 * BLOCK + 1, dtype=np.uint64)
            + np.uint64(2 ** 64 - 2 * BLOCK - 1),
            "finite-float-array": finite,
            "float-2d-array": np.column_stack([floats, finite]),
            "object-array": np.array(
                [*range(BLOCK), *finite[BLOCK:].tolist()], dtype=object),
            }[kind]


class TestSynth:
    def test_extreme_ratio_counts(self):
        ds = synth_imbalanced(BlobSpec(n_maj=900, n_min=15, dim=8, seed=3))
        assert ds.n_samples == 915
        assert ds.n_features == 8
        frac = np.mean(ds.labels == 1)
        assert frac == pytest.approx(15 / 915, abs=1e-12)   # ~1.64%

    def test_balanced(self):
        ds = synth_imbalanced(BlobSpec(n_maj=50, n_min=50, dim=4, seed=1))
        assert np.sum(ds.labels == 0) == np.sum(ds.labels == 1) == 50

    def test_deterministic_per_seed(self):
        spec = BlobSpec(n_maj=40, n_min=10, dim=5, seed=7)
        a, b = synth_imbalanced(spec), synth_imbalanced(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synth_imbalanced(BlobSpec(n_maj=40, n_min=10, dim=5, seed=7))
        b = synth_imbalanced(BlobSpec(n_maj=40, n_min=10, dim=5, seed=8))
        assert not np.allclose(a.features, b.features)

    def test_mean_distance_matches_separation(self):
        spec = BlobSpec(n_maj=4000, n_min=4000, dim=6, separation=3.0,
                        sigma=0.5, seed=2)
        ds = synth_imbalanced(spec)
        mu_maj = ds.features[ds.labels == 0].mean(axis=0)
        mu_min = ds.features[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(mu_maj - mu_min) == pytest.approx(
            3.0 * 0.5, abs=0.05)

    def test_class_means_off_origin(self):
        # both class directions must be well-defined for cosine geometry
        ds = synth_imbalanced(BlobSpec(n_maj=4000, n_min=4000, dim=6,
                                       separation=4.0, seed=5))
        for cls in (0, 1):
            mu = ds.features[ds.labels == cls].mean(axis=0)
            assert np.linalg.norm(mu) > 1.0

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            BlobSpec(n_maj=5, n_min=10)
        with pytest.raises(InvalidSpecError):
            BlobSpec(n_maj=10, n_min=5, sigma=0.0)
        with pytest.raises(InvalidSpecError):
            synth_imbalanced(BlobSpec(n_maj=10, n_min=5, dim=1))

    def test_feature_array_above_the_cap_is_refused(self):
        """The spec is checked before anything is drawn, so neither spec
        below allocates its features."""
        rows = MAX_FEATURE_VALUES // 2
        BlobSpec(n_maj=rows - 1, n_min=1, dim=2)        # exactly at the cap
        with pytest.raises(InvalidSpecError, match=str(MAX_FEATURE_VALUES)):
            BlobSpec(n_maj=rows, n_min=1, dim=2)
        with pytest.raises(InvalidSpecError, match=str(MAX_FEATURE_VALUES)):
            BlobSpec(n_maj=10 ** 10, n_min=1, dim=10 ** 9)


class TestSplit:
    def test_balanced_800_gives_600_100_100(self):
        ds = split_dataset(synth_imbalanced(
            BlobSpec(n_maj=400, n_min=400, dim=4, seed=1)), seed=2)
        counts = {s: int(np.sum(ds.splits == s)) for s in (TRAIN, VAL, TEST)}
        assert counts == {TRAIN: 600, VAL: 100, TEST: 100}

    def test_minority_15_stratified_rounding(self):
        ds = split_dataset(synth_imbalanced(
            BlobSpec(n_maj=900, n_min=15, dim=4, seed=1)), seed=2)
        minority = ds.splits[ds.labels == 1]
        counts = {s: int(np.sum(minority == s)) for s in (TRAIN, VAL, TEST)}
        assert counts == {TRAIN: 11, VAL: 2, TEST: 2}

    def test_same_seed_identical(self):
        base = synth_imbalanced(BlobSpec(n_maj=60, n_min=20, dim=3, seed=4))
        a = split_dataset(base, seed=9)
        b = split_dataset(base, seed=9)
        np.testing.assert_array_equal(a.splits, b.splits)

    def test_disjoint_and_exhaustive(self):
        ds = split_dataset(synth_imbalanced(
            BlobSpec(n_maj=97, n_min=31, dim=3, seed=6)), seed=1)
        assert all(s in (TRAIN, VAL, TEST) for s in ds.splits)
        total = sum(int(np.sum(ds.splits == s)) for s in (TRAIN, VAL, TEST))
        assert total == ds.n_samples

    def test_both_classes_in_train(self):
        for n_min in (3, 5, 15):
            ds = split_dataset(synth_imbalanced(
                BlobSpec(n_maj=100, n_min=n_min, dim=3, seed=1)), seed=2)
            _, y_train = ds.subset(TRAIN)
            assert set(np.unique(y_train)) == {0, 1}

    def test_fractions_within_one_sample_per_class(self):
        ds = split_dataset(synth_imbalanced(
            BlobSpec(n_maj=333, n_min=77, dim=3, seed=8)), seed=3)
        for cls in (0, 1):
            tags = ds.splits[ds.labels == cls]
            n = len(tags)
            for frac, split in zip(SPLIT_FRACTIONS, (TRAIN, VAL, TEST)):
                assert abs(int(np.sum(tags == split)) - frac * n) <= 1.0

    def test_too_few_samples(self):
        tiny = LabeledDataset(np.ones((5, 2)), np.array([0, 0, 0, 1, 1]))
        with pytest.raises(TooFewSamplesError):
            split_dataset(tiny, seed=0)

    def test_subset_requires_split(self):
        ds = synth_imbalanced(BlobSpec(n_maj=10, n_min=5, dim=2, seed=0))
        with pytest.raises(ValueError):
            ds.subset(TRAIN)


class TestCsv:
    def test_small_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        ds = LabeledDataset(np.array([[1.5, -2.0], [0.25, 3.0], [0.0, 1.0]]),
                            np.array([0, 1, 0]))
        save_csv(path, ds)
        loaded = load_csv(path)
        assert loaded.n_samples == 3
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_synthetic_round_trip_exact(self, tmp_path):
        path = tmp_path / "d.csv"
        ds = synth_imbalanced(BlobSpec(n_maj=30, n_min=10, dim=5, seed=11))
        save_csv(path, ds)
        loaded = load_csv(path)
        # repr round-trips float64 exactly
        np.testing.assert_array_equal(loaded.features, ds.features)

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,2.0,2\n")
        with pytest.raises(ParseError, match="3"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\nabc,0\n")
        with pytest.raises(ParseError, match="2"):
            load_csv(path)

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\nnan,0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n")
        with pytest.raises(MissingColumnError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.0,0\n")
        with pytest.raises(ParseError, match="2"):
            load_csv(path)

    def test_written_files_take_the_block_path(self, tmp_path, monkeypatch):
        """save_csv's \\r\\n lines and a %.17g np.savetxt file (the
        benchmark's format) are parsed without the line reader."""
        ds = synth_imbalanced(BlobSpec(n_maj=30, n_min=10, dim=5, seed=11))
        written = tmp_path / "written.csv"
        save_csv(written, ds)
        savetxt = tmp_path / "savetxt.csv"
        np.savetxt(savetxt, np.column_stack([ds.features, ds.labels]),
                   delimiter=",", header="f0,f1,f2,f3,f4,label", comments="",
                   fmt=["%.17g"] * 5 + ["%d"])
        want = [_outcome(reference_load_csv, p) for p in (written, savetxt)]
        monkeypatch.setattr(dataio, "_load_lines", _refuse_line_reader)
        assert b"\r\n" in written.read_bytes()
        assert [_outcome(load_csv, p) for p in (written, savetxt)] == want
        assert want[0][2] == ds.features.tobytes()
        assert load_csv(savetxt).features.flags.c_contiguous

    def test_finite_cell_over_the_field_size_limit(self, tmp_path):
        """The block parse reads this cell as 0.0; csv.reader refuses it."""
        path = tmp_path / "d.csv"
        path.write_text(f"f0,label\n1.0,0\n{'0' * 131_073},1\n")
        with pytest.raises(ParseError, match="field larger than field limit"):
            load_csv(path)


    @PROPERTY
    @given(text=csv_texts())
    @example(text="f0,f1,label\n1.0,2.0,2\nabc,1.0,0\n")
    @example(text="f0,label\n1.0,1\nnan,7\n1.0\n")
    @example(text="f0,label\n1.0,\"2\"\n")
    @example(text=f"f0,label\n1.0,0\n{UNDECODABLE},1\n")
    @example(text=f"f0,label\n1.0,0\n{OVERSIZED},1\n")
    @example(text="f0,label\n2\x1c,0\n")
    @example(text="f0,f1,label\r\n1.5,2\x0c,1\r\n")
    @example(text="f0,label\n\u0661,1\n")
    @example(text="f0,label\n1.0,0\n \t\n2.0,1\n")
    @example(text="f0,label\n1.0,1e0\n")
    @example(text="f0,label\n\r1.0,0\n")
    def test_matches_line_at_a_time_reference(self, text, csv_path):
        csv_path.write_bytes(text.encode("utf-8", "surrogateescape"))
        got = _outcome(load_csv, csv_path)
        if UNDECODABLE in text or OVERSIZED in text:
            # found while the text is read, which may come before or after
            # a bad line; either way an error naming the file, not a
            # UnicodeDecodeError or csv.Error
            assert got[0] in (ParseError, MissingColumnError)
            assert got[1].startswith(f"{csv_path}: ")
        else:
            assert got == _outcome(reference_load_csv, csv_path)

    @PROPERTY
    @given(text=csv_texts(), chunk_bytes=st.integers(1, 64))
    def test_block_check_in_any_chunk_size(self, text, chunk_bytes, csv_path):
        """Lines that straddle the block check's reads are checked whole."""
        assume(UNDECODABLE not in text and OVERSIZED not in text)
        csv_path.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_CHUNK_BYTES", chunk_bytes)
            got = _outcome(load_csv, csv_path)
        assert got == _outcome(reference_load_csv, csv_path)

    @PROPERTY
    @given(text=block_texts(), chunk_bytes=st.integers(1, 64))
    def test_block_grammar_skips_the_line_reader(self, text, chunk_bytes,
                                                 csv_path):
        csv_path.write_bytes(text.encode())
        want = _outcome(reference_load_csv, csv_path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_CHUNK_BYTES", chunk_bytes)
            patch.setattr(dataio, "_load_lines", _refuse_line_reader)
            assert _outcome(load_csv, csv_path) == want


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "d.csv"


class TestResults:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        record = {"metrics": {"accuracy": 0.975, "auc": None},
                  "seed": 3, "scores": np.array([0.25, 0.75])}
        save_results(path, record)
        loaded = load_results(path)
        assert loaded["metrics"]["accuracy"] == 0.975
        assert loaded["scores"] == [0.25, 0.75]

    def test_byte_identical_rewrites(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        record = {"z": 1.0 / 3.0, "a": [1, 2, 3]}
        save_results(a, record)
        save_results(b, record)
        assert a.read_bytes() == b.read_bytes()

    @PROPERTY
    @given(record=json_records)
    @example(record={"scores": [0.1, float("nan"), -0.0, float("inf")],
              "labels": np.arange(3), "é": (), "z": {}})
    def test_saved_text_matches_json_dumps(self, record, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "record.json"
        save_results(path, record)
        assert_same_text(path.read_text(), canonical_text(record))

    @pytest.mark.parametrize("kind", LONG_COLUMNS)
    def test_long_columns_give_the_json_dumps_text(self, kind, tmp_path):
        """Columns longer than the writer's block, with NaN, +-inf and -0.0
        in later blocks only, give the text of one json.dumps."""
        record = {"column": long_column(kind), "row": [long_column(kind)[:3]]}
        path = tmp_path / "r.json"
        save_results(path, record)
        assert_same_text(path.read_text(), canonical_text(record))

    @pytest.mark.parametrize("as_array", [False, True])
    def test_peak_memory_is_below_the_text(self, tmp_path, as_array):
        """Writing 40 000 scores holds a block of their text at a time:
        building the whole document first would peak above its size."""
        scores = np.random.default_rng(5).random(40_000)
        record = {"scores": scores if as_array else scores.tolist()}
        path = tmp_path / "r.json"
        tracemalloc.start()
        try:
            save_results(path, record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    @pytest.mark.parametrize("record", [
        {1: "a", 10: "b", 2: "c"}, {1.5: 0, -0.5: 1}, {True: 1, False: 0},
        {None: [1, 2]}, {float("nan"): 1},
    ])
    def test_non_string_keys_raise_type_error(self, record, tmp_path):
        """Results records and checkpoints hold str keys alone."""
        with pytest.raises(TypeError):
            save_results(tmp_path / "r.json", record)

    @pytest.mark.parametrize("record", [
        {(1, 2): 0}, {"a": {1, 2}}, {"a": 1, 2: "b"},
    ])
    def test_unserialisable_raises_type_error(self, record, tmp_path):
        with pytest.raises(TypeError):
            json.dumps(record, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            save_results(tmp_path / "r.json", record)

    def test_type_error_leaves_the_text_before_it(self, tmp_path):
        """The text goes out as it is made: a record that raises leaves the
        file holding the text ahead of the bad item."""
        path = tmp_path / "r.json"
        with pytest.raises(TypeError):
            save_results(path, {"a": [1, 2], "b": {3: 0}, "c": 4})
        assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": {'
