"""Synthetic imbalanced dataset generation, CSV ingestion, the stratified
75/12.5/12.5 split, and the canonical JSON writer for results and
checkpoints."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import make_rng
from .errors import (InvalidSpecError, MissingColumnError, ParseError,
                     TooFewSamplesError)

TRAIN, VAL, TEST = "train", "val", "test"
SPLIT_FRACTIONS = (0.75, 0.125, 0.125)
MAX_FEATURE_VALUES = 10 ** 8   # rows times dim: 800 MB of float64


@dataclass
class LabeledDataset:
    features: np.ndarray            # (Z, D)
    labels: np.ndarray              # (Z,) with 0 = majority, 1 = minority
    splits: np.ndarray = field(default=None)   # per-row tag or None

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, split: str) -> tuple:
        if self.splits is None:
            raise InvalidSpecError("dataset has not been split")
        idx = np.flatnonzero(self.splits == split)
        return self.features[idx], self.labels[idx]


@dataclass(frozen=True)
class BlobSpec:
    """Two isotropic Gaussian blobs with controllable imbalance.

    ``separation`` is the distance between class means in units of sigma;
    the sweep default of 2.5 gives partially overlapping classes so AUC
    stays informative.
    """
    n_maj: int
    n_min: int
    dim: int = 8
    separation: float = 2.5
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (self.n_maj >= self.n_min >= 1):
            raise InvalidSpecError("need n_maj >= n_min >= 1")
        if not 0 < self.sigma < np.inf:     # NaN fails too
            raise InvalidSpecError(f"sigma must be positive and finite, got "
                                   f"{self.sigma}")
        if not np.isfinite(self.separation):
            raise InvalidSpecError(f"separation must be finite, got "
                                   f"{self.separation}")
        if self.dim < 2:
            raise InvalidSpecError("need dim >= 2 for two mean directions")
        values = (int(self.n_maj) + int(self.n_min)) * int(self.dim)
        if values > MAX_FEATURE_VALUES:
            raise InvalidSpecError(f"{self.n_maj} + {self.n_min} rows of dim "
                                   f"{self.dim} give {values} feature values, "
                                   f"above {MAX_FEATURE_VALUES}")
        if not np.isfinite(self.radius):
            raise InvalidSpecError(f"class-mean radius separation * sigma / "
                                   f"sqrt(2) overflows ({self.separation} * "
                                   f"{self.sigma})")

    @property
    def radius(self) -> float:
        """Distance of each class mean from the origin."""
        return self.separation * self.sigma / np.sqrt(2.0)


def synth_imbalanced(spec: BlobSpec) -> LabeledDataset:
    """Sample the two blobs, ``separation * sigma`` apart in feature space.

    The class means are placed on two orthogonal axes at equal radius, so
    the classes differ in *direction* as well as position; a class centered
    at the origin (or two means on a shared ray) would be invisible to
    cosine geometry. Deterministic per seed.
    """
    rng = make_rng(spec.seed)
    mu_maj = np.zeros(spec.dim)
    mu_maj[0] = spec.radius
    mu_min = np.zeros(spec.dim)
    mu_min[-1] = spec.radius
    with np.errstate(over="ignore"):
        x_maj = rng.normal(0.0, spec.sigma, size=(spec.n_maj, spec.dim)) + mu_maj
        x_min = rng.normal(0.0, spec.sigma, size=(spec.n_min, spec.dim)) + mu_min
    features = np.vstack([x_maj, x_min])
    if not np.isfinite(features).all():
        raise InvalidSpecError(f"sigma {spec.sigma} and separation "
                               f"{spec.separation} overflow a drawn feature")
    labels = np.concatenate([np.zeros(spec.n_maj, dtype=int),
                             np.ones(spec.n_min, dtype=int)])
    return LabeledDataset(features, labels)


def split_dataset(dataset: LabeledDataset, seed: int) -> LabeledDataset:
    """Assign 75/12.5/12.5 train/val/test tags, stratified per class with a
    seeded shuffle so both classes land in train whenever counts permit."""
    z = dataset.n_samples
    if z < 8:
        raise TooFewSamplesError(f"need at least 8 samples to split, got {z}")
    rng = make_rng(seed)
    tags = np.empty(z, dtype=object)
    for cls in np.unique(dataset.labels):
        idx = np.flatnonzero(dataset.labels == cls)
        rng.shuffle(idx)
        n = len(idx)
        n_train = int(round(SPLIT_FRACTIONS[0] * n))
        n_val = int(round(SPLIT_FRACTIONS[1] * n))
        # keep at least one training sample per class; give val/test their
        # share only when enough samples remain
        n_train = max(1, min(n_train, n))
        n_val = min(n_val, n - n_train)
        tags[idx[:n_train]] = TRAIN
        tags[idx[n_train:n_train + n_val]] = VAL
        tags[idx[n_train + n_val:]] = TEST
    return LabeledDataset(dataset.features, dataset.labels,
                          np.asarray(tags, dtype=object))


def save_csv(path, dataset: LabeledDataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(dataset.n_features))
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def _header(d: int) -> list:
    return [f"f{i}" for i in range(d)] + ["label"]


# The bytes of a cell in the block grammar: numpy's tokenizer and float()
# read every cell made of them alike. numpy strips other bytes, such as
# "\x0c" and "\x1c", as whitespace where float() raises. A body holds
# these, commas and line ends ("\n" or "\r\n") alone.
_CELL_BYTES = b"0123456789.eE+-"
_NL, _CR, _COMMA, _ZERO, _ONE = b"\n\r,01"   # as byte values
# the block check reads this much at a time: a buffer the size of the file,
# once freed, leaves later commands of the process a larger peak RSS
_CHUNK_BYTES = 1 << 20


def load_csv(path) -> LabeledDataset:
    """Read a `f0,...,f{D-1},label` CSV; labels must be 0 or 1 and all
    feature cells finite numbers. Errors name the offending line.

    A file in the block grammar is parsed by one ``np.loadtxt``: the header
    is exactly ``f0,...,f{D-1},label``; every body byte is one of
    ``0123456789.eE+-,`` or a line end (``\\n`` or ``\\r\\n``); at least
    one line follows the header, every one holds D commas, ends in ``,0``
    or ``,1`` and is no longer than csv's field size limit. The parse must
    give a row per line and finite features. Any other file is read by the
    ``csv.reader`` line reader, which returns the same dataset or raises
    the first bad line's ParseError. Undecodable text and a cell over csv's
    field size limit are ParseErrors too."""
    block = _block_labels(path)
    if block is not None:
        dataset = _load_block(path, *block)
        if dataset is not None:
            return dataset
    return _load_lines(path)


def _block_labels(path) -> tuple | None:
    """(D, labels) if the file is in ``load_csv``'s block grammar, else
    None."""
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        header = fh.readline()
        columns = header.removesuffix(b"\n").removesuffix(b"\r")
        d = columns.count(b",")
        if d < 1 or columns != ",".join(_header(d)).encode():
            return None
        labels, rest = [], b""
        while chunk := fh.read(_CHUNK_BYTES):
            lines = rest + chunk
            cut = lines.rfind(b"\n") + 1
            lines, rest = lines[:cut], lines[cut:]
            labels.append(_block_lines(lines, d, limit))
            if labels[-1] is None or len(rest) > limit:   # a line too long
                return None
    if rest:
        labels.append(_block_lines(rest + b"\n", d, limit))
    if not labels or labels[-1] is None:
        return None
    return d, np.concatenate(labels).astype(int)


def _block_lines(lines: bytes, d: int, limit: int) -> np.ndarray | None:
    """The labels of ``lines``, whole lines that each end in ``\\n``, if
    every one is in the block grammar, else None.

    One comparison checks the bytes and the D commas of every line: with
    the cell bytes and ``\\r`` deleted, the lines must read D commas and a
    ``\\n`` each."""
    buf = np.frombuffer(lines, np.uint8)
    ends = np.flatnonzero(buf == _NL)
    if (lines.translate(None, _CELL_BYTES + b"\r")
            != (b"," * d + b"\n") * len(ends)
            or (b"\r" in lines and lines.count(b"\r") != lines.count(b"\r\n"))):
        return None
    label = ends - 1
    label -= buf[label] == _CR
    # a line over the limit may hold a cell that csv.reader refuses
    if len(ends) and (np.diff(ends, prepend=-1).max() > limit
                      or not ((buf[label - 1] == _COMMA)
                              & ((buf[label] == _ZERO)
                                 | (buf[label] == _ONE))).all()):
        return None
    return buf[label] - _ZERO


def _load_block(path, d: int, labels: np.ndarray) -> LabeledDataset | None:
    """The dataset with features parsed by ``np.loadtxt`` and the checked
    labels, or None when the parse fails, gives another row count or a
    non-finite feature."""
    try:
        features = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                              quotechar=None, dtype=np.float64, ndmin=2,
                              usecols=range(d))
    except ValueError:
        return None
    if features.shape != (len(labels), d) or not np.isfinite(features).all():
        return None
    return LabeledDataset(features, labels)


def _load_lines(path) -> LabeledDataset:
    """The ``csv.reader`` line reader: the dataset, or the ParseError of the
    first line that fails a check; per line the checks run in the order
    cell count, number, finite, label."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            d = len(header) - 1
            if d < 1 or header != _header(d):
                raise MissingColumnError(f"{path}: header must be "
                                         f"f0,...,f{{D-1}},label, got {header}")
            body = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not body:
        raise ParseError(f"{path}: no data rows")
    features = np.empty((len(body), d))
    for lineno, cells in enumerate(body, start=2):
        if len(cells) != d + 1:
            raise ParseError(f"{path}:{lineno}: expected {d + 1} cells, "
                             f"got {len(cells)}")
        try:
            row = [float(c) for c in cells[:d]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{path}:{lineno}: non-finite feature value")
        if cells[d] not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: label must be 0 or 1, "
                             f"got {cells[d]!r}")
        features[lineno - 2] = row
    return LabeledDataset(features, np.array([int(cells[d]) for cells in body],
                                             dtype=int))


def save_results(path, record: dict) -> None:
    """Write a results record or a checkpoint document as canonical JSON:
    the text of ``json.dump(record, indent=2, sort_keys=True)`` and a
    newline, with numpy arrays written as (nested) lists and numpy numbers
    as Python numbers, so identical runs produce byte-identical files.
    Every dict key must be a str; any other key raises TypeError, and the
    file then holds the text written before it.

    The text goes to the file as it is made. A list, tuple or array is
    written ``_JSON_BLOCK_ITEMS`` items at a time. A block of only ints, or
    of only finite floats, is one join of their reprs instead of json's
    per-item encoder. A 1-D integer array, or a float array that one
    ``np.isfinite`` pass finds finite, such as a column of scores, is typed
    so once by its dtype; any other list, tuple or array is typed block by
    block."""
    with open(path, "w") as fh:
        _encode(record, "\n", fh.write)
        fh.write("\n")


# items of a list or array that the writer holds as Python objects at once
_JSON_BLOCK_ITEMS = 1024


def _encode(obj, newline: str, write) -> None:
    """Pass the chunks of ``obj``'s text to ``write``; ``newline`` is the
    line break plus indent of the nesting level ``obj`` sits at."""
    if isinstance(obj, (np.floating, np.integer)) or (
            isinstance(obj, np.ndarray) and obj.ndim == 0):
        obj = obj.item()
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        write("{")
        for n, (key, value) in enumerate(sorted(obj.items())):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(("," if n else "") + inner + json.dumps(key) + ": ")
            _encode(value, inner, write)
        write(newline + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            write("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        write("[" + inner)
        numeric = _numeric_column(obj)
        for start in range(0, len(obj), _JSON_BLOCK_ITEMS):
            block = obj[start:start + _JSON_BLOCK_ITEMS]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            if start:
                write(sep)
            if numeric or _plain_numbers(block):
                write(sep.join(map(repr, block)))
            else:
                for n, value in enumerate(block):
                    if n:
                        write(sep)
                    _encode(value, inner, write)
        write(newline + "]")
    else:
        write(json.dumps(obj))


def _numeric_column(obj) -> bool:
    """Whether ``obj`` is a 1-D array whose ``tolist`` gives only ints, or
    only finite floats: typed once by its dtype, with one ``np.isfinite``
    pass over a float column. A longdouble's ``tolist`` gives numpy
    scalars, so a float wider than 8 bytes is not typed here."""
    if not isinstance(obj, np.ndarray) or obj.ndim != 1:
        return False
    kind, size = obj.dtype.kind, obj.dtype.itemsize
    return kind in "iu" or (kind == "f" and size <= 8
                            and bool(np.isfinite(obj).all()))


def _plain_numbers(block: list) -> bool:
    """Whether ``block`` holds only ints, or only finite floats, whose
    reprs are their JSON text."""
    types = set(map(type, block))
    return types == {int} or (types == {float}
                              and all(map(math.isfinite, block)))
