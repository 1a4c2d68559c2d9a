"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a floating-point ndarray plus an optional gradient buffer
of the same shape. Every operation that involves a gradient-requiring input
records a backward closure and its parent tensors; ``backward()`` on a
result walks the recorded graph in reverse topological order and
accumulates gradients with ``+=`` semantics, so diamond patterns such as
residual skip connections come out right without special handling.

The walk releases the graph's interior as it goes: once a node's closure
has run, the node drops its gradient, its closure (with the arrays the op
saved) and its parents, and keeps only ``.data``. Leaves, the tensors
with no closure such as parameters, keep their accumulated ``.grad``. A
second ``backward()`` that reaches a released node raises ``ValueError``.

Every op computes in its inputs' dtype: float32 tensors give float32
results and gradients, float64 ones float64. A Python number combined with
a tensor takes the tensor's dtype. Data that is not floating point becomes
float64. The pipeline builds its networks in float32; the tests and the
finite-difference checks in ``dosids.ndgrad.gradcheck`` run in float64.

Inside ``with no_grad():`` no op records a graph, so an inference
forward keeps no closures or intermediate arrays alive.
"""

from contextlib import contextmanager

import numpy as np

_grad_enabled = True
_RELEASED = object()  # the closure slot of a node a backward() walk has spent


def _as_array(data) -> np.ndarray:
    data = np.asarray(data)
    return data if data.dtype.kind == "f" else data.astype(np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    # ---- bookkeeping -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def detach(self) -> "Tensor":
        """A view of the same buffer, cut out of the autodiff graph."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad=None):
        """Accumulate d(self)/d(leaf) into every gradient-requiring leaf,
        releasing each interior node once its closure has run."""
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:  # iterative DFS: graphs for deep nets overflow recursion
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _RELEASED:
                raise ValueError("backward() through a graph that was already released")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data) if grad is None else _as_array(grad)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _RELEASED, ()

    # ---- elementwise arithmetic ---------------------------------------

    def _operand(self, other) -> "Tensor":
        """`other` as a Tensor; a Python number takes this tensor's dtype."""
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return as_tensor(other)

    def __add__(self, other):
        other = self._operand(other)
        out_data = self.data + other.data

        def bw(g):
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g, self.data.shape))
            if other.requires_grad:
                _accumulate(other, _unbroadcast(g, other.data.shape))

        return make_from_op(out_data, (self, other), bw)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._operand(other)
        out_data = self.data * other.data

        def bw(g):
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                _accumulate(other, _unbroadcast(g * self.data, other.data.shape))

        return make_from_op(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return self._operand(other) + (-self)

    def log(self):
        out_data = np.log(self.data)

        def bw(g):
            _accumulate(self, g / self.data)

        return make_from_op(out_data, (self,), bw)

    def clip(self, lo, hi):
        """Clamp values; gradient passes through wherever lo <= x <= hi."""
        out_data = np.clip(self.data, lo, hi)
        mask = (self.data >= lo) & (self.data <= hi)

        def bw(g):
            _accumulate(self, g * mask)

        return make_from_op(out_data, (self,), bw)

    # ---- shape ---------------------------------------------------------

    def reshape(self, *shape):
        old_shape = self.data.shape
        out_data = self.data.reshape(*shape)

        def bw(g):
            _accumulate(self, g.reshape(old_shape))

        return make_from_op(out_data, (self,), bw)

    def __getitem__(self, idx):
        # basic (slice/int) indexing only: positions are unique, so the
        # backward scatter is a plain assignment-add
        out_data = self.data[idx]

        def bw(g):
            full = np.zeros_like(self.data)
            full[idx] += g
            _accumulate(self, full)

        return make_from_op(out_data, (self,), bw)

    # ---- reductions ----------------------------------------------------

    def sum(self):
        out_data = np.asarray(self.data.sum())

        def bw(g):
            _accumulate(self, np.broadcast_to(g, self.data.shape).copy())

        return make_from_op(out_data, (self,), bw)

    def mean(self):
        n = self.data.size
        out_data = np.asarray(self.data.mean())

        def bw(g):
            _accumulate(self, np.broadcast_to(g / n, self.data.shape).copy())

        return make_from_op(out_data, (self,), bw)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


@contextmanager
def no_grad():
    """Record no graph inside the block; the previous state returns on
    exit, also when the block raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def make_from_op(data, parents, backward) -> Tensor:
    """Result tensor wired into the graph iff graph recording is on and
    any parent requires grad."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(tensor: Tensor, grad: np.ndarray):
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = grad
    else:
        tensor.grad = tensor.grad + grad


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape`, reversing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
