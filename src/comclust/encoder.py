"""The trainable embedding map: an affine-ReLU multi-layer perceptron with a
single dropout layer before the embedding output, plus the Adam optimizer.

Batches are row-major: inputs are (B, D), embeddings (B, S).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import InvalidSpecError, ShapeMismatchError


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden: tuple = (64, 64)
    embedding_dim: int = 32
    dropout_rate: float = 0.3

    def __post_init__(self):
        if any(width < 1 for width in self.hidden):
            raise InvalidSpecError(f"hidden widths must be >= 1, got "
                                   f"{self.hidden}")
        if self.embedding_dim < 2:
            raise InvalidSpecError("embedding_dim must be >= 2")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise InvalidSpecError("dropout_rate must be in [0, 1)")

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
        if self.learning_rate <= 0:
            raise InvalidSpecError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise InvalidSpecError("betas must be in [0, 1)")
        if self.eps <= 0:
            raise InvalidSpecError("eps must be positive")


@dataclass
class ParamStore:
    """Flat list of parameter arrays with per-array Adam moment state."""
    arrays: list
    m: list = field(default=None)
    v: list = field(default=None)
    step: int = 0

    def __post_init__(self):
        if self.m is None:
            self.m = [np.zeros_like(a) for a in self.arrays]
        if self.v is None:
            self.v = [np.zeros_like(a) for a in self.arrays]

    def wrap(self) -> list:
        """Fresh leaf Vars for one forward/backward pass."""
        return [Var(a) for a in self.arrays]


def init_encoder_params(config: EncoderConfig, rng,
                        head_outputs: int = 0) -> ParamStore:
    """He-uniform weights (limit sqrt(6/fan_in)) and zero biases; seeded
    through ``rng``. ``head_outputs`` > 0 appends a head of that many
    outputs (``init_head_params``), drawn after the encoder."""
    arrays = []
    dims = config.layer_dims
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / d_in)
        arrays.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
        arrays.append(np.zeros(d_out))
    if head_outputs:
        arrays += init_head_params(config.embedding_dim, head_outputs, rng)
    return ParamStore(arrays)


def init_head_params(embedding_dim: int, n_out: int, rng) -> list:
    limit = np.sqrt(6.0 / embedding_dim)
    return [rng.uniform(-limit, limit, size=(embedding_dim, n_out)),
            np.zeros(n_out)]


def forward(param_vars: list, config: EncoderConfig, x_batch,
            train_mode: bool = False, rng=None) -> Var:
    """Run the MLP, returning a (B, S) embedding Var.

    ``param_vars`` comes from ``ParamStore.wrap()`` so gradients land back
    on the store's leaves. Dropout (inverted, scaled by 1/(1-rate)) is
    applied only in train mode, between the last hidden layer and the
    embedding layer; eval mode is fully deterministic.
    """
    x = ad.as_var(np.atleast_2d(np.asarray(x_batch, dtype=np.float64)))
    if x.value.shape[1] != config.input_dim:
        raise ShapeMismatchError(
            f"input dim {x.value.shape[1]} != config {config.input_dim}")
    n_layers = len(config.layer_dims) - 1
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
            mask = (rng.random(h.value.shape) < keep) / keep
            h = ad.mul(h, Var(mask))
        h = ad.add(ad.matmul(h, w), b)
        if not last:
            h = ad.relu(h)
    return h


def embed(params: ParamStore, config: EncoderConfig, x_batch) -> np.ndarray:
    """Eval-mode embeddings as a plain array (inference path)."""
    return forward(params.wrap(), config, x_batch, train_mode=False).value


def minority_probability(head_vars: list, embeddings: Var) -> Var:
    """Softmax over a 2-logit head, returning the minority-class column.

    Fused primitive: p = sigmoid(z1 - z0) with its analytic gradient.
    """
    logits = ad.add(ad.matmul(embeddings, head_vars[0]), head_vars[1])
    zdiff = logits.value[:, 1] - logits.value[:, 0]
    p = np.where(zdiff >= 0,
                 1.0 / (1.0 + np.exp(-zdiff)),
                 np.exp(zdiff) / (1.0 + np.exp(zdiff)))

    def vjp(g):
        dz = g * p * (1.0 - p)
        full = np.stack([-dz, dz], axis=1)
        return (full,)

    return Var(p, (logits,), vjp)


def adam_step(store: ParamStore, grads: list, config: AdamConfig) -> None:
    """Standard bias-corrected Adam update, in place."""
    if len(grads) != len(store.arrays):
        raise ShapeMismatchError("gradient list length mismatch")
    store.step += 1
    t = store.step
    b1, b2 = config.beta1, config.beta2
    for i, g in enumerate(grads):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != store.arrays[i].shape:
            raise ShapeMismatchError(
                f"grad shape {g.shape} != param shape {store.arrays[i].shape}")
        store.m[i] = b1 * store.m[i] + (1 - b1) * g
        store.v[i] = b2 * store.v[i] + (1 - b2) * g * g
        m_hat = store.m[i] / (1 - b1 ** t)
        v_hat = store.v[i] / (1 - b2 ** t)
        store.arrays[i] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
