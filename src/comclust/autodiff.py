"""Minimal reverse-mode gradient engine over numpy arrays.

A forward pass builds a graph of ``Var`` nodes; ``backward`` replays it in
reverse topological order and accumulates vector-Jacobian products into the
leaves. Only the handful of primitives needed by the encoder and the loss
functions are provided: matmul, broadcast add/subtract/scale, elementwise
multiply, ReLU, row gather, mean, and a row-wise cosine distance.

Losses work on batches: an (M, S) array holds one embedding per row, and
``row_cosine_distance`` turns two such operands (or one and a constant
(S,) row) into an (M,) ``Var`` with a single fused vector-Jacobian product,
so a batch of triplets costs a few graph nodes rather than a few per row.

All arithmetic is float64.
"""

from __future__ import annotations

import numpy as np

from .errors import NotScalarError, ShapeMismatchError, ZeroVectorError

NORM_FLOOR = 1e-12


class Var:
    """One node of the computation graph.

    Leaves are constructed directly from arrays; interior nodes carry a
    vector-Jacobian closure recorded by the primitive that created them.
    A graph instance is single-threaded for one forward/backward pass.
    """

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Var(shape={self.value.shape}, leaf={self._vjp is None})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    out_val = a.value + b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Var(out_val, (a, b), vjp)


def sub(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Var(a.value - b.value, (a, b), vjp)


def mul(a: Var, b: Var) -> Var:
    """Elementwise (broadcasting) product; also used for dropout masks."""
    a, b = as_var(a), as_var(b)

    def vjp(g):
        return (_unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape))

    return Var(a.value * b.value, (a, b), vjp)


def scale(a: Var, c: float) -> Var:
    a = as_var(a)
    return Var(a.value * c, (a,), lambda g: (g * c,))


def matmul(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatchError(
            f"matmul shapes {a.value.shape} x {b.value.shape}")

    def vjp(g):
        return g @ b.value.T, a.value.T @ g

    return Var(a.value @ b.value, (a, b), vjp)


def relu(a: Var) -> Var:
    """max(0, x); subgradient at the kink is taken as 0."""
    a = as_var(a)
    mask = a.value > 0.0

    def vjp(g):
        return (g * mask,)

    return Var(np.where(mask, a.value, 0.0), (a,), vjp)


def take_rows(a: Var, idx) -> Var:
    """Gather rows; the adjoint scatter-adds back (duplicate indices allowed)."""
    a = as_var(a)
    idx = np.asarray(idx, dtype=int)

    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        return (full,)

    return Var(a.value[idx], (a,), vjp)


def row(a: Var, i: int) -> Var:
    a = as_var(a)

    def vjp(g):
        full = np.zeros_like(a.value)
        full[i] = g
        return (full,)

    return Var(a.value[i], (a,), vjp)


def mean(a: Var) -> Var:
    """Mean of all entries, as a scalar Var."""
    a = as_var(a)
    return Var(a.value.mean(), (a,),
               lambda g: (np.full(a.value.shape, g / a.value.size),))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Summed along the last axis without an (M, S) temporary. For
    # C-contiguous operands each row's sum does not depend on how many rows
    # are in the batch, so one row alone gives the same bits as in a batch.
    return np.einsum("...s,...s->...", a, b)


def row_cosine_distance(u, v) -> Var:
    """Row-wise 1 - (u_i.v_i)/(|u_i||v_i|), each in [0, 2].

    Operands are (M, S) arrays or Vars; either one may instead be a single
    (S,) row broadcast over all M rows, and two (S,) rows give a 0-d result.
    Returns an (M,) Var with one fused vector-Jacobian product for both
    operands. Raises ZeroVectorError when any row norm falls below 1e-12 --
    a collapsed embedding is a bug worth surfacing, not something to clamp
    over.
    """
    u, v = as_var(u), as_var(v)
    uval, vval = u.value, v.value
    if (uval.ndim not in (1, 2) or vval.ndim not in (1, 2)
            or uval.shape[-1] != vval.shape[-1] or uval.shape[-1] < 1
            or (uval.ndim == vval.ndim == 2 and uval.shape != vval.shape)):
        raise ShapeMismatchError(
            f"row_cosine_distance shapes {uval.shape}, {vval.shape}")
    nu = np.sqrt(_rowdot(uval, uval))
    nv = np.sqrt(_rowdot(vval, vval))
    if np.any(nu < NORM_FLOOR) or np.any(nv < NORM_FLOOR):
        raise ZeroVectorError(f"vector norm below {NORM_FLOOR:g} "
                              f"({np.min(nu):g}, {np.min(nv):g})")
    nunv = nu * nv
    cos = _rowdot(uval, vval) / nunv

    def vjp(g):
        # d(1 - cos)/dx = -(y / (|x||y|) - cos * x / |x|^2), row by row
        cross = (g / nunv)[..., None]
        gu = (g * cos / (nu * nu))[..., None] * uval - cross * vval
        gv = (g * cos / (nv * nv))[..., None] * vval - cross * uval
        return _unbroadcast(gu, uval.shape), _unbroadcast(gv, vval.shape)

    return Var(1.0 - cos, (u, v), vjp)


def cosine_distance(u, v):
    """1 - (u.v)/(|u||v|) of two 1-D vectors, in [0, 2].

    Plain arrays give a float; if either argument is a Var the result is a
    scalar Var differentiable w.r.t. both. Raises ZeroVectorError as
    ``row_cosine_distance`` does.
    """
    uval = u.value if isinstance(u, Var) else np.asarray(u, dtype=np.float64)
    vval = v.value if isinstance(v, Var) else np.asarray(v, dtype=np.float64)
    if uval.ndim != 1 or vval.ndim != 1:
        raise ShapeMismatchError(f"cosine_distance shapes {uval.shape}, {vval.shape}")
    dist = row_cosine_distance(u, v)
    return dist if isinstance(u, Var) or isinstance(v, Var) else dist.item()


def backward(loss: Var):
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every node reachable
    from ``loss``. The loss must be a scalar."""
    if not isinstance(loss, Var):
        raise NotScalarError("backward() expects a Var")
    if loss.value.ndim != 0 and loss.value.size != 1:
        raise NotScalarError(f"loss has shape {loss.value.shape}")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            g = np.asarray(g, dtype=np.float64)
            parent.grad = g if parent.grad is None else parent.grad + g


def grad_of(leaf: Var) -> np.ndarray:
    """Gradient of a leaf after backward(); zeros if the leaf was unused."""
    return leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator (numpy PCG64): same seed, same call sequence, same
    stream. All randomness in the package flows through generators built
    here."""
    return np.random.Generator(np.random.PCG64(seed))
