"""The trainable embedding map: an affine-ReLU multi-layer perceptron with a
single dropout layer before the embedding output, plus the Adam optimizer.

Batches are row-major: inputs are (B, D), embeddings (B, S).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import InvalidSpecError, NonFiniteLossError, ShapeMismatchError

MAX_PARAMETERS = 10 ** 7   # weights and biases; the sweep's encoder has 8352


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden: tuple = (64, 64)
    embedding_dim: int = 32
    dropout_rate: float = 0.3

    def __post_init__(self):
        sizes = (self.input_dim, *self.hidden, self.embedding_dim)
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in sizes):
            raise InvalidSpecError(f"layer sizes must be integers, got {sizes}")
        if self.input_dim < 1:
            raise InvalidSpecError("input_dim must be >= 1")
        if any(width < 1 for width in self.hidden):
            raise InvalidSpecError(f"hidden widths must be >= 1, got "
                                   f"{self.hidden}")
        if self.embedding_dim < 2:
            raise InvalidSpecError("embedding_dim must be >= 2")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise InvalidSpecError("dropout_rate must be in [0, 1)")
        count = sum((int(a) + 1) * int(b) for a, b in zip(sizes, sizes[1:]))
        if count > MAX_PARAMETERS:
            raise InvalidSpecError(f"layer sizes {sizes} give {count} "
                                   f"parameters, above {MAX_PARAMETERS}")

    @property
    def layer_dims(self) -> list:
        return [self.input_dim, *self.hidden, self.embedding_dim]


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-7

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.learning_rate < np.inf:
            raise InvalidSpecError(f"learning_rate must be positive and "
                                   f"finite, got {self.learning_rate}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise InvalidSpecError("betas must be in [0, 1)")
        if not 0 < self.eps < np.inf:
            raise InvalidSpecError(f"eps must be positive and finite, got "
                                   f"{self.eps}")


class ParamStore:
    """All parameters in one contiguous float64 buffer ``flat``: ``arrays``
    are per-parameter views into it, in the given order, and Adam's moments
    ``m`` and ``v`` are buffers of the same length."""

    def __init__(self, arrays: list):
        self.flat = np.concatenate([np.ravel(a) for a in arrays],
                                   dtype=np.float64)
        ends = np.cumsum([np.size(a) for a in arrays])
        self.arrays = [part.reshape(np.shape(a)) for a, part
                       in zip(arrays, np.split(self.flat, ends[:-1]))]
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.step = 0

    def wrap(self) -> list:
        """Fresh leaf Vars for one forward/backward pass."""
        return [Var(a) for a in self.arrays]


HEAD_OUTPUTS = 2    # the classifier head's logits; minority_probability reads two


def param_shapes(config: EncoderConfig, head_outputs: int = 0) -> list:
    """The parameter layout: (W, b) per encoder layer, then (W, b) of a head
    with ``head_outputs`` outputs if that is > 0."""
    dims = config.layer_dims + ([head_outputs] if head_outputs else [])
    return [shape for d_in, d_out in zip(dims[:-1], dims[1:])
            for shape in ((d_in, d_out), (d_out,))]


def _he_uniform(shape: tuple, rng) -> np.ndarray:
    """He-uniform weights (limit sqrt(6/fan_in)) for a 2-D shape, zeros for a
    bias."""
    if len(shape) == 1:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / shape[0])
    return rng.uniform(-limit, limit, size=shape)


def init_encoder_params(config: EncoderConfig, rng,
                        head_outputs: int = 0) -> ParamStore:
    """The ``param_shapes`` layout, drawn in order from ``rng``."""
    return ParamStore([_he_uniform(shape, rng)
                       for shape in param_shapes(config, head_outputs)])


def init_head_params(embedding_dim: int, n_out: int, rng) -> list:
    return [_he_uniform(shape, rng)
            for shape in ((embedding_dim, n_out), (n_out,))]


def forward(param_vars: list, config: EncoderConfig, x_batch,
            train_mode: bool = False, rng=None):
    """Run the MLP, returning (B, S) embeddings.

    ``param_vars`` from ``ParamStore.wrap()`` give a Var whose gradients
    land on the store's leaves; ``ParamStore.arrays`` give an array. Dropout
    (inverted, scaled by 1/(1-rate)) is applied only in train mode, between
    the last hidden layer and the embedding layer; eval mode is fully
    deterministic.
    """
    x = np.atleast_2d(np.asarray(x_batch, dtype=np.float64))
    if x.shape[1] != config.input_dim:
        raise ShapeMismatchError(
            f"input dim {x.shape[1]} != config {config.input_dim}")
    n_layers = len(param_shapes(config)) // 2
    if len(param_vars) != 2 * n_layers:
        raise ShapeMismatchError("parameter count does not match config")

    h = x
    for layer in range(n_layers):
        w, b = param_vars[2 * layer], param_vars[2 * layer + 1]
        last = layer == n_layers - 1
        if last and train_mode and config.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("train-mode dropout needs an rng")
            keep = 1.0 - config.dropout_rate
            mask = (rng.random(ad.value_of(h).shape) < keep) / keep
            h = ad.mul(h, mask)
        h = ad.add(ad.matmul(h, w), b)
        if not last:
            h = ad.relu(h)
    return h


def embed(params: ParamStore, config: EncoderConfig, x_batch) -> np.ndarray:
    """Eval-mode embeddings as a plain array (inference path)."""
    return forward(params.arrays, config, x_batch)


def minority_probability(head_vars: list, embeddings):
    """Softmax over a 2-logit head, returning the minority-class column.

    Fused primitive: p = sigmoid(z1 - z0) with its analytic gradient.
    """
    logits = ad.add(ad.matmul(embeddings, head_vars[0]), head_vars[1])
    zs = ad.value_of(logits)
    zdiff = zs[:, 1] - zs[:, 0]
    e = np.exp(-np.abs(zdiff))    # <= 1: neither branch below can overflow
    p = np.where(zdiff >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def vjp(g):
        dz = g * p * (1.0 - p)
        full = np.stack([-dz, dz], axis=1)
        return (full,)

    return ad.node(p, (logits,), vjp)


def classify(param_vars: list, config: EncoderConfig, x_batch,
             train_mode: bool = False, rng=None):
    """Encoder then head, with ``param_vars`` in ``param_shapes(config,
    HEAD_OUTPUTS)`` order: the (B,) minority-class probabilities, a Var when
    the parameters are."""
    n_enc = len(param_shapes(config))
    emb = forward(param_vars[:n_enc], config, x_batch, train_mode, rng)
    return minority_probability(param_vars[n_enc:], emb)


def adam_step(store: ParamStore, grads: list, config: AdamConfig) -> None:
    """Standard bias-corrected Adam update of ``store.flat``, in place. A
    non-finite gradient raises NonFiniteLossError and changes nothing."""
    shapes = [np.shape(g) for g in grads]
    if shapes != [a.shape for a in store.arrays]:
        raise ShapeMismatchError(f"grad shapes {shapes} != param shapes "
                                 f"{[a.shape for a in store.arrays]}")
    g = np.concatenate([np.ravel(g) for g in grads], dtype=np.float64)
    if not np.isfinite(g).all():
        i = next(i for i, gi in enumerate(grads)
                 if not np.isfinite(gi).all())
        raise NonFiniteLossError(
            f"non-finite gradient for parameter {i} of shape {shapes[i]}")
    store.step += 1
    t = store.step
    b1, b2 = config.beta1, config.beta2
    store.m = b1 * store.m + (1 - b1) * g
    store.v = b2 * store.v + (1 - b2) * g * g
    m_hat = store.m / (1 - b1 ** t)
    v_hat = store.v / (1 - b2 ** t)
    store.flat -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
