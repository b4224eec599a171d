"""Checkpoint serialization: a versioned JSON document holding the encoder
configuration, parameter arrays (row-major), the two prototype centers of a
clustering model, and the training seed/config echo. JSON float repr
round-trips exactly, and loading rebuilds the prototypes' separation from
the centers as training does, so a load(save(x)) cycle reproduces inference
outputs bit-for-bit."""

from __future__ import annotations

import json
import math

import numpy as np

from .autodiff import NORM_FLOOR
from .dataio import save_results
from .encoder import HEAD_OUTPUTS, EncoderConfig, param_shapes
from .errors import ParseError, ZeroVectorError
from .prototypes import Prototypes, update_prototypes

FORMAT_VERSION = 2
# version 1 also stored "kind", the prototypes' separation and a feature
# mask; loading reads none of them, and inference uses every coordinate
READ_VERSIONS = (1, FORMAT_VERSION)


def _encoder_dict(config: EncoderConfig) -> dict:
    return {"input_dim": config.input_dim,
            "hidden": list(config.hidden),
            "embedding_dim": config.embedding_dim,
            "dropout_rate": config.dropout_rate}


def _encoder_from(d: dict) -> EncoderConfig:
    return EncoderConfig(d["input_dim"], tuple(d["hidden"]),
                         d["embedding_dim"], d["dropout_rate"])


def save_checkpoint(path, params: list, encoder_config: EncoderConfig,
                    prototypes: Prototypes | None,
                    seed: int, config_echo: dict) -> None:
    """Write the arrays ``params``, in ``encoder.param_shapes`` order, as a
    clustering checkpoint when given prototypes, else a classifier one."""
    doc = {
        "version": FORMAT_VERSION,
        "encoder": _encoder_dict(encoder_config),
        "params": [{"shape": list(a.shape), "data": a.ravel()}
                   for a in params],
        "seed": seed,
        "config": config_echo,
    }
    if prototypes is not None:
        doc["prototypes"] = {
            "cl_min": prototypes.cl_min,
            "cl_maj": prototypes.cl_maj,
        }
    save_results(path, doc)


def load_checkpoint(path) -> dict:
    """Returns {encoder_config, params, prototypes, seed, config}; params
    are float64 arrays in ``param_shapes`` order. A classifier's document
    has no prototypes (None here), and its params end in the softmax head.

    The document is checked against its own encoder config: a file that is
    not a checkpoint, a missing field, a config echo that is not an object,
    an array whose shape or length does not fit, or a prototype center
    that inference cannot use (not finite or of zero norm) raises
    ParseError naming ``path``.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:   # RecursionError: deep nesting
        raise ParseError(f"{path}: not a JSON checkpoint ({exc})") from None
    _check(isinstance(doc, dict), path, "checkpoint is not a JSON object")
    _check("version" in doc, path, "missing version field")
    _check(type(doc["version"]) is int and doc["version"] in READ_VERSIONS,
           path, f"unsupported version {doc['version']}")
    for key in ("encoder", "params", "seed"):
        _check(key in doc, path, f"missing {key} field")
    seed = doc["seed"]
    _check(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
           path, f"seed {seed!r} is not a non-negative integer")
    try:
        encoder_config = _encoder_from(doc["encoder"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad encoder config ({exc})") from None
    config = doc.get("config", {})
    _check(isinstance(config, dict), path,
           "config is not a JSON object")
    clustering = "prototypes" in doc
    return {
        "encoder_config": encoder_config,
        "params": _read_params(
            doc["params"], path,
            param_shapes(encoder_config, 0 if clustering else HEAD_OUTPUTS)),
        "seed": seed,
        "config": config,
        "prototypes": (_read_prototypes(doc["prototypes"], path,
                                        encoder_config.embedding_dim)
                       if clustering else None),
    }


def _check(ok: bool, path, what: str) -> None:
    if not ok:
        raise ParseError(f"{path}: {what}")


def _numbers(value, path, what: str) -> np.ndarray:
    """A JSON list of finite numbers as a 1-D float64 array. Only JSON
    integers and floats count: numpy would also parse numeric strings and
    booleans, which ``save_checkpoint`` never writes."""
    arr = None
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        try:
            arr = np.array(value, dtype=np.float64)
        except OverflowError:       # an integer beyond float range
            pass
    _check(arr is not None and bool(np.all(np.isfinite(arr))),
           path, f"{what} is not a list of finite numbers")
    return arr


def _read_params(entries, path, expected: list) -> list:
    _check(isinstance(entries, list) and len(entries) == len(expected), path,
           f"params is not a list of {len(expected)} arrays, as the "
           f"encoder's shapes {expected} need")
    arrays = []
    for i, (entry, shape) in enumerate(zip(entries, expected)):
        _check(isinstance(entry, dict) and "shape" in entry and "data" in entry,
               path, f"params[{i}] lacks shape or data")
        _check(entry["shape"] == list(shape)
               and all(type(n) is int for n in entry["shape"]), path,
               f"params[{i}] shape {entry['shape']!r} does not match the "
               f"encoder's {list(shape)}")
        data = _numbers(entry["data"], path, f"params[{i}] data")
        _check(data.size == math.prod(shape), path,
               f"params[{i}] has {data.size} values for shape {list(shape)}")
        arrays.append(data.reshape(shape))
    return arrays


def _read_prototypes(p, path, embedding_dim: int) -> Prototypes:
    keys = ("cl_min", "cl_maj")
    _check(isinstance(p, dict) and all(k in p for k in keys), path,
           "prototypes lack cl_min or cl_maj")
    centers = [_numbers(p[k], path, f"prototypes {k}") for k in keys]
    for k, v in zip(keys, centers):
        _check(v.size == embedding_dim, path,
               f"prototypes {k} has length {v.size}, embedding_dim is "
               f"{embedding_dim}")
    try:
        return update_prototypes(None, *centers)
    except ZeroVectorError:
        raise ParseError(f"{path}: a prototype center has norm below "
                         f"{NORM_FLOOR:g}") from None
