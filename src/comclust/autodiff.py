"""Minimal reverse-mode gradient engine over numpy arrays.

A forward pass builds a graph of ``Var`` nodes; ``backward`` replays it in
reverse topological order and accumulates vector-Jacobian products into the
leaves. Only a handful of primitives are provided, each for a stated user:

- ``dense_stack``, one node for a whole affine-ReLU stack, runs the encoder
  (all its layers, dropout mask included) and, as a one-layer stack, the
  classifier head; the row-wise cosine distance underlies every loss;
- broadcast add/subtract/scale and ReLU compose the single-triplet loss
  definitions in ``losses`` (``triplet_loss``, ``com_dist_wa``, ...), which
  the acceptance criteria check by value and by finite differences; row
  gather by an index array (``take_rows``) has no caller in the library
  and serves acceptance criterion 2, which lifts 1-D vectors into one-row
  batches, and the reference graphs in ``tests/conftest.py``, which split
  a stacked (3M, S) batch into A, P and N with it;
- elementwise multiply, matmul and mean have no caller in the library.
  They stay, gradient-checked with the others, as the elementary
  primitives from which ``tests/conftest.py`` composes the reference
  graphs that the fused nodes must match bit for bit.

The tape rule, applied by ``node`` at the end of every primitive: a
primitive records a graph node only when an input is a ``Var``, and its
plain inputs then become constant leaves. Otherwise it returns the plain
result (a float when 0-d), so inference on plain arrays keeps no tape.

Losses work on batches: an (M, S) array holds one embedding per row, and
``row_cosine_distance`` turns two such operands (or one and a constant
(S,) row) into (M,) distances with a single fused vector-Jacobian product,
so a batch of triplets costs a few graph nodes rather than a few per row.
``row_cosine_with_vjp`` is the same computation on plain arrays, for fused
nodes that build on it: each batch loss measures all its cosine pairs in
one call over a (K, M, S) stack of pair blocks, with every row's norm taken
once and passed in. A fused node evaluates in the order its composed
primitives would, so its value and gradients keep their bits. Every
constant leaf gets its gradient but for ``dense_stack``'s plain input x,
for which its vector-Jacobian product returns None, and ``backward`` then
skips that input.

All arithmetic is float64.
"""

from __future__ import annotations

import numpy as np

from .errors import (InvalidSpecError, NotScalarError, ShapeMismatchError,
                     ZeroVectorError)

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


def value_of(x) -> np.ndarray:
    """The float64 array behind a ``Var`` or a plain operand."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def node(value, inputs: tuple, vjp):
    """A primitive's result under the tape rule: a ``Var`` recording
    ``inputs`` and ``vjp`` if any input is a ``Var``, else plain."""
    if any(isinstance(x, Var) for x in inputs):
        return Var(value, tuple(as_var(x) for x in inputs), vjp)
    return float(value) if np.ndim(value) == 0 else value


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    av, bv = value_of(a), value_of(b)

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return node(av + bv, (a, b), vjp)


def sub(a, b):
    av, bv = value_of(a), value_of(b)

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)

    return node(av - bv, (a, b), vjp)


def mul(a, b):
    """Elementwise (broadcasting) product; also used for dropout masks."""
    av, bv = value_of(a), value_of(b)

    def vjp(g):
        return (_unbroadcast(g * bv, av.shape),
                _unbroadcast(g * av, bv.shape))

    return node(av * bv, (a, b), vjp)


def scale(a, c: float):
    return node(value_of(a) * c, (a,), lambda g: (g * c,))


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatchError(f"matmul shapes {av.shape} x {bv.shape}")

    def vjp(g):
        return g @ bv.T, av.T @ g

    return node(av @ bv, (a, b), vjp)


def relu(a):
    """max(0, x); subgradient at the kink is taken as 0."""
    av = value_of(a)
    mask = av > 0.0

    def vjp(g):
        return (g * mask,)

    return node(np.where(mask, av, 0.0), (a,), vjp)


def dense_stack(x, params: list, in_mask=None):
    """An affine-ReLU stack as one node. ``params`` holds
    [W_0, b_0, W_1, b_1, ...], each b_l a 1-D row of W_l's width; layer l
    maps its input h to ``h @ W_l + b_l``, followed by max(0, x) on every
    layer but the last. ``in_mask`` (a dropout mask, say) is a constant of
    the last layer's input shape that multiplies that input. Each layer
    takes the expressions of ``mul``, ``matmul``, ``add`` and ``relu``
    composed, forward and back, so value and gradients keep their bits (a
    bias gradient is the column sum ``add``'s unbroadcast takes). A plain
    input x gets no gradient computed, and with only plain inputs no
    layer's activations are kept.
    """
    x_grad = isinstance(x, Var)
    record = x_grad or any(isinstance(p, Var) for p in params)
    values = [value_of(p) for p in params]
    n = len(values) // 2
    if n < 1 or len(values) % 2:
        raise ShapeMismatchError(f"{len(values)} parameters, not (W, b) pairs")
    h = value_of(x)
    inputs, outputs = [], []      # per layer, kept for the vjp when recording
    for layer in range(n):
        w, b = values[2 * layer], values[2 * layer + 1]
        last = layer == n - 1
        if last and in_mask is not None:
            h = h * in_mask
        if h.ndim != 2 or w.ndim != 2 or h.shape[1] != w.shape[0]:
            raise ShapeMismatchError(f"matmul shapes {h.shape} x {w.shape}")
        z = h @ w
        z += b
        if not last:
            # fmax maps NaN to 0 and adding +0.0 turns -0.0 into +0.0: the
            # bits of np.where(z > 0, z, 0.0) at a tenth of its cost
            np.fmax(z, 0.0, out=z)
            z += 0.0
        if record:
            inputs.append(h)
            outputs.append(z)
        h = z

    def vjp(g):
        grads = [None] * (1 + len(values))
        for layer in reversed(range(n)):
            if layer < n - 1:
                g = g * (outputs[layer] > 0.0)  # pre-activation > 0
            w = values[2 * layer]
            grads[1 + 2 * layer] = inputs[layer].T @ g
            grads[2 + 2 * layer] = np.add.reduce(g, axis=0)
            if layer > 0 or x_grad:
                g = g @ w.T
                if layer == n - 1 and in_mask is not None:
                    g = g * in_mask
        grads[0] = g if x_grad else None
        return grads

    return node(h, (x, *params), vjp)


def take_rows(a, idx):
    """Gather rows by an index array. The adjoint scatter-adds back
    (duplicate indices allowed)."""
    av = value_of(a)
    idx = np.asarray(idx, dtype=int)

    def vjp(g):
        full = np.zeros_like(av)
        np.add.at(full, idx, g)
        return (full,)

    return node(av[idx], (a,), vjp)


def mean(a):
    """Mean of all entries: a scalar."""
    av = value_of(a)
    return node(av.mean(), (a,), lambda g: (np.full(av.shape, g / av.size),))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Summed along the last axis without an (M, S) temporary. For
    # C-contiguous operands each row's sum does not depend on how many rows
    # are in the batch, so one row alone gives the same bits as in a batch.
    return np.einsum("...s,...s->...", a, b)


def row_norms(a: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a plain float64 array (a 0-d array
    for one 1-D row), with the bits the cosine distances use."""
    return np.sqrt(_rowdot(a, a))


def row_cosine_distance(u, v, u_norms=None):
    """Row-wise 1 - (u_i.v_i)/(|u_i||v_i|), each in [0, 2].

    Operands are (M, S) arrays or Vars; either one may instead be a single
    (S,) row broadcast over all M rows, and two (S,) rows give a 0-d result.
    Returns (M,) distances with one fused vector-Jacobian product for both
    operands. Raises ZeroVectorError when any row norm falls below 1e-12 --
    a collapsed embedding is a bug worth surfacing, not something to clamp
    over. ``u_norms``, when given, must be ``row_norms`` of u's value: a
    caller that measures one batch against several rows computes it once.
    """
    uval, vval = value_of(u), value_of(v)
    if (uval.ndim not in (1, 2) or vval.ndim not in (1, 2)
            or uval.shape[-1] != vval.shape[-1] or uval.shape[-1] < 1
            or (uval.ndim == vval.ndim == 2 and uval.shape != vval.shape)):
        raise ShapeMismatchError(
            f"row_cosine_distance shapes {uval.shape}, {vval.shape}")
    dist, vjp = row_cosine_with_vjp(uval, vval, u_norms)
    return node(dist, (u, v), vjp)


def row_cosine_with_vjp(uval: np.ndarray, vval: np.ndarray, u_norms=None,
                        v_norms=None):
    """``row_cosine_distance`` of two plain float64 operands whose shapes
    it accepts (not checked here), or of two (K, M, S) stacks of K such
    pairs, as (distances, vjp): ``vjp(g)`` gives the gradients (gu, gv),
    each summed back to its operand's shape. ``u_norms`` and ``v_norms``
    are as ``u_norms`` of ``row_cosine_distance``, for u and v. Raises
    ZeroVectorError as ``row_cosine_distance`` does."""
    nu = row_norms(uval) if u_norms is None else u_norms
    nv = row_norms(vval) if v_norms is None else v_norms
    # fmin takes a row's other norm where one is NaN, which never trips
    if (np.fmin(nu, nv) < NORM_FLOOR).any():
        raise ZeroVectorError(f"vector norm below {NORM_FLOOR:g} "
                              f"({np.min(nu):g}, {np.min(nv):g})")
    nunv = nu * nv
    cos = _rowdot(uval, vval) / nunv

    def vjp(g):
        # d(1 - cos)/dx = -(y / (|x||y|) - cos * x / |x|^2), row by row
        gcos, cross = g * cos, (g / nunv)[..., None]
        return (_unbroadcast((gcos / (nu * nu))[..., None] * uval
                             - cross * vval, uval.shape),
                _unbroadcast((gcos / (nv * nv))[..., None] * vval
                             - cross * uval, vval.shape))

    return 1.0 - cos, vjp


def cosine_distance(u, v):
    """1 - (u.v)/(|u||v|) of two 1-D vectors, in [0, 2]. Raises
    ZeroVectorError as ``row_cosine_distance`` does."""
    uval, vval = value_of(u), value_of(v)
    if uval.ndim != 1 or vval.ndim != 1:
        raise ShapeMismatchError(f"cosine_distance shapes {uval.shape}, {vval.shape}")
    return row_cosine_distance(u, v)


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
            if g is None:
                continue
            g = np.asarray(g, dtype=np.float64)
            parent.grad = g if parent.grad is None else parent.grad + g


def grad_of(leaf: Var) -> np.ndarray:
    """Gradient of a leaf after backward(); zeros if the leaf was unused."""
    return leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator (numpy PCG64): same seed, same call sequence, same
    stream. All randomness in the package flows through generators built
    here."""
    if seed < 0:
        raise InvalidSpecError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))
