"""Float64 array ops with reverse-mode gradients and a finite-difference checker.

Every op accepts plain numpy arrays or `Var` nodes. With plain arrays it just
computes the result (fast path, used for the momentum/key side of training).
With at least one `Var` argument it records the computation so that
`Var.backward()` can fill exact gradients afterwards.

Supported op set: matmul, add, scale, relu, dot (row-wise), mean_rows (over
the K axis), concat (along the last axis), reshape, slice_rows, l2_normalize,
softmax_cross_entropy (row-wise, with a label vector), bank_cross_entropy (P
positives per row against shared negatives). The ops work on whole batches, so
a training step records one small graph over (B, ...) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Row norms below this are treated as collapsed embeddings, not clamped.
EPSILON_NORM = 1e-12


class ShapeMismatchError(ValueError):
    """Operand shapes incompatible for an op. Carries the op name and shapes."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        pretty = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class DegenerateNormError(ValueError):
    """A row norm fell below EPSILON_NORM during normalization."""


class TapeError(RuntimeError):
    """Misuse of the recorded graph, e.g. backward called twice."""


class Var:
    """A node in the recorded computation graph.

    Wraps a float64 array (treated as immutable). Ops on Vars link nodes into
    a graph; calling backward() on a scalar root fills `.grad` (same shape as
    `.value`) on every node that contributed to it. A graph can be
    differentiated once; rebuild it to differentiate again.
    """

    __slots__ = ("value", "grad", "_parents", "_op", "_done")

    def __init__(self, value, _parents=(), _op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents  # tuple of (Var, vjp callable)
        self._op = _op
        self._done = False

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        if self.value.size != 1:
            raise TapeError(f"backward requires a scalar root, got shape {self.shape}")
        if self._done:
            raise TapeError("backward already ran on this graph; re-record to differentiate again")
        self._done = True
        order = _toposort(self)
        self.grad = np.ones_like(self.value)
        for node in order:
            g = node.grad
            if g is None:
                continue
            for parent, vjp in node._parents:
                contrib = vjp(g)
                parent.grad = contrib if parent.grad is None else parent.grad + contrib

    def __repr__(self):
        return f"Var(op={self._op}, shape={self.shape})"


def _toposort(root):
    """Nodes reachable from root, root first (reverse topological order)."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _value(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _make(op, out, parents):
    """Return a Var if any parent is tracked, else the plain array."""
    tracked = [(p, vjp) for p, vjp in parents if isinstance(p, Var)]
    if not tracked:
        return out
    return Var(out, _parents=tuple(tracked), _op=op)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def add(a, b):
    """Elementwise sum; also supports (n, m) + (m,) row broadcast for biases."""
    av, bv = _value(a), _value(b)
    if av.shape == bv.shape:
        out = av + bv
        return _make("add", out, ((a, lambda g: g), (b, lambda g: g)))
    if av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        out = av + bv
        return _make("add", out, ((a, lambda g: g), (b, lambda g: g.sum(axis=0))))
    raise ShapeMismatchError("add", av.shape, bv.shape)


def scale(a, c):
    """Multiply by a python scalar constant."""
    c = float(c)
    out = _value(a) * c
    return _make("scale", out, ((a, lambda g: g * c),))


def matmul(a, b):
    """Matrix product for (n,k)@(k,m), (k,)@(k,m) or (n,k)@(k,)."""
    av, bv = _value(a), _value(b)
    if av.ndim == 2 and bv.ndim == 2 and av.shape[1] == bv.shape[0]:
        out = av @ bv
        return _make("matmul", out, ((a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)))
    if av.ndim == 1 and bv.ndim == 2 and av.shape[0] == bv.shape[0]:
        out = av @ bv
        return _make("matmul", out, ((a, lambda g: bv @ g), (b, lambda g: np.outer(av, g))))
    if av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        out = av @ bv
        return _make("matmul", out, ((a, lambda g: np.outer(g, bv)), (b, lambda g: av.T @ g)))
    raise ShapeMismatchError("matmul", av.shape, bv.shape)


def dot(a, b):
    """Inner products over the last axis of two equal-shape arrays: two
    vectors give a scalar, two (B, E) arrays the (B,) row-wise products."""
    av, bv = _value(a), _value(b)
    if av.ndim not in (1, 2) or av.shape != bv.shape:
        raise ShapeMismatchError("dot", av.shape, bv.shape)
    out = np.asarray(np.einsum("...i,...i->...", av, bv))
    return _make("dot", out, ((a, lambda g: g[..., None] * bv), (b, lambda g: g[..., None] * av)))


def relu(a):
    av = _value(a)
    out = np.maximum(av, 0.0)
    # gradient at exactly 0 is 0
    return _make("relu", out, ((a, lambda g: g * (av > 0.0)),))


def mean_rows(a):
    """Mean over the rows of an (n, m) array -> (m,), or over the rows of each
    item of a (B, n, m) array -> (B, m).

    Columns are summed in sorted order so the result is bit-identical under
    any permutation of the rows being averaged.
    """
    av = _value(a)
    if av.ndim not in (2, 3) or av.shape[-2] < 1:
        raise ShapeMismatchError("mean_rows", av.shape)
    n = av.shape[-2]
    out = np.sort(av, axis=-2).sum(axis=-2) / n
    return _make("mean_rows", out,
                 ((a, lambda g: np.repeat(np.expand_dims(g / n, -2), n, axis=-2)),))


def concat(parts):
    """Concatenate along the last axis: vectors (scalars allowed) into one
    vector, or (B, n_i) blocks into one (B, sum n_i) array. A part one rank
    below the others, such as a (B,) column, counts as one column."""
    vals = [_value(p) for p in parts]
    ndim = max(1, max(v.ndim for v in vals))
    cols = [v[..., None] if v.ndim == ndim - 1 else v for v in vals]
    if ndim > 2 or any(c.ndim != ndim or c.shape[:-1] != cols[0].shape[:-1] for c in cols):
        raise ShapeMismatchError("concat", *[v.shape for v in vals])
    out = np.concatenate(cols, axis=-1)
    parents = []
    offset = 0
    for p, v, c in zip(parts, vals, cols):
        lo, hi = offset, offset + c.shape[-1]
        column = v.ndim < ndim

        def vjp(g, lo=lo, hi=hi, column=column):
            piece = g[..., lo:hi]
            return piece[..., 0] if column else piece

        parents.append((p, vjp))
        offset = hi
    return _make("concat", out, tuple(parents))


def reshape(a, shape):
    """The same values in a new shape (row-major order, as numpy reshape)."""
    av = _value(a)
    try:
        out = av.reshape(shape)
    except ValueError:
        raise ShapeMismatchError("reshape", av.shape, shape) from None
    return _make("reshape", out, ((a, lambda g: g.reshape(av.shape)),))


def slice_rows(a, start, stop):
    """Rows start:stop of an array; a slice covering every row is the input
    itself, so it records nothing."""
    av = _value(a)
    if av.ndim < 1 or not 0 <= start <= stop <= av.shape[0]:
        raise ShapeMismatchError("slice_rows", av.shape, (start, stop))
    if start == 0 and stop == av.shape[0]:
        return a

    def vjp(g):
        full = np.zeros_like(av)
        full[start:stop] = g
        return full

    return _make("slice_rows", av[start:stop], ((a, vjp),))


def l2_normalize(a):
    """Scale each row (or a single vector) to unit Euclidean norm.

    Raises DegenerateNormError when a row norm is below EPSILON_NORM.
    """
    av = _value(a)
    if av.ndim == 1:
        norm = float(np.linalg.norm(av))
        if norm < EPSILON_NORM:
            raise DegenerateNormError(f"l2_normalize: vector norm {norm:.3e} below {EPSILON_NORM:.0e}")
        out = av / norm

        def vjp(g):
            return (g - out * (out @ g)) / norm

        return _make("l2_normalize", out, ((a, vjp),))
    if av.ndim == 2:
        norms = np.linalg.norm(av, axis=1)
        bad = np.flatnonzero(norms < EPSILON_NORM)
        if bad.size:
            raise DegenerateNormError(
                f"l2_normalize: row {bad[0]} norm {norms[bad[0]]:.3e} below {EPSILON_NORM:.0e}"
            )
        out = av / norms[:, None]

        def vjp(g):
            return (g - out * (out * g).sum(axis=1, keepdims=True)) / norms[:, None]

        return _make("l2_normalize", out, ((a, vjp),))
    raise ShapeMismatchError("l2_normalize", av.shape)


def softmax_cross_entropy(logits, labels):
    """Cross-entropy of softmax(logits) against integer class labels.

    (B, C) logits with a (B,) label vector give the mean over the rows; a 1-D
    logits vector with one integer label is a batch of one.
    """
    lv = _value(logits)
    if lv.ndim not in (1, 2):
        raise ShapeMismatchError("softmax_cross_entropy", lv.shape)
    rows = lv.reshape(-1, lv.shape[-1])
    labels = np.asarray(labels).astype(int).reshape(-1)
    if labels.shape[0] != rows.shape[0]:
        raise ShapeMismatchError("softmax_cross_entropy", lv.shape, labels.shape)
    if labels.min() < 0 or labels.max() >= rows.shape[1]:
        bad = labels[(labels < 0) | (labels >= rows.shape[1])][0]
        raise ValueError(f"softmax_cross_entropy: label {bad} out of range "
                         f"for {rows.shape[1]} classes")
    n = rows.shape[0]
    picked = (np.arange(n), labels)
    m = rows.max(axis=1, keepdims=True)
    expd = np.exp(rows - m)
    total = expd.sum(axis=1, keepdims=True)
    out = np.asarray((m[:, 0] + np.log(total[:, 0]) - rows[picked]).sum() / n)
    soft = expd / total

    def vjp(g):
        grad = soft.copy()
        grad[picked] -= 1.0
        grad *= g / n
        return grad.reshape(lv.shape)

    return _make("softmax_cross_entropy", out, ((logits, vjp),))


def bank_cross_entropy(positives, negatives):
    """Mean InfoNCE of (B, P) positive logits against (B, M) negative logits,
    each row's negatives shared by all of that row's positives.

    Entry (b, j) is the cross-entropy of logits [p_bj, n_b1, ..., n_bM] with
    the positive in slot 0, logaddexp(p_bj, LSE_b) - p_bj, computed as
    softplus(LSE_b - p_bj); the negatives' log-sum-exp LSE_b is taken once per
    row and serves all P positives. The result is the mean over all B*P
    entries.
    """
    pv, nv = _value(positives), _value(negatives)
    if pv.ndim != 2 or nv.ndim != 2 or pv.shape[0] != nv.shape[0] or 0 in pv.shape + nv.shape:
        raise ShapeMismatchError("bank_cross_entropy", pv.shape, nv.shape)
    count = pv.size
    m = nv.max(axis=1, keepdims=True)
    expd = np.exp(nv - m)
    total = expd.sum(axis=1, keepdims=True)
    margin = m + np.log(total) - pv
    entries = np.logaddexp(0.0, margin)
    out = np.asarray(entries.sum() / count)
    # the bank's share of each entry's softmax, sigmoid(LSE - p) = 1 - softmax slot 0
    bank_share = np.exp(margin - entries)

    def vjp_positives(g):
        return bank_share * (-g / count)

    def vjp_negatives(g):
        return expd * (bank_share.sum(axis=1, keepdims=True) / total * (g / count))

    return _make("bank_cross_entropy", out, ((positives, vjp_positives),
                                             (negatives, vjp_negatives)))


# ---------------------------------------------------------------------------
# forward/backward driver and the finite-difference checker
# ---------------------------------------------------------------------------


def forward_backward(f, inputs):
    """Evaluate a scalar-valued composite of the supported ops and its gradients.

    Returns (value, grads) where grads[i] has the shape of inputs[i]. Inputs
    the function never touches get zero gradients.
    """
    tracked = [Var(np.asarray(x, dtype=np.float64)) for x in inputs]
    out = f(*tracked)
    if not isinstance(out, Var):
        raise TapeError("function did not produce a tracked result; did it touch any input?")
    if out.value.size != 1:
        raise TapeError(f"function must be scalar-valued, got shape {out.shape}")
    value = float(out.value)
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite forward value {value}")
    out.backward()
    grads = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in tracked]
    return value, grads


@dataclass
class GradCheckReport:
    per_input_max: list
    max_rel_error: float
    tol: float
    checked: int
    resampled: int

    @property
    def passed(self):
        return self.max_rel_error < self.tol

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} max_rel_error={self.max_rel_error:.3e} tol={self.tol:.0e} " \
               f"coords={self.checked} resampled={self.resampled}"


def _eval_plain(f, arrays):
    out = f(*arrays)
    return float(out.value if isinstance(out, Var) else out)


def _relu_preactivations(f, arrays):
    """ReLU input arrays of one forward pass, in graph construction order."""
    out = f(*[Var(x) for x in arrays])
    if not isinstance(out, Var):
        return []
    pres = []
    for node in _toposort(out):
        if node._op == "relu":
            pres.append(node._parents[0][0].value)
    return pres


def _kink_suspected(f, arrays, i, j, step):
    """True when perturbing coordinate (i, j) by +-step flips a ReLU sign."""
    plus = [x.copy() for x in arrays]
    minus = [x.copy() for x in arrays]
    plus[i].flat[j] += step
    minus[i].flat[j] -= step
    for pre_p, pre_m in zip(_relu_preactivations(f, plus), _relu_preactivations(f, minus)):
        if np.any((pre_p > 0.0) != (pre_m > 0.0)):
            return True
    return False


def grad_check(f, inputs, step, tol, max_coords_per_input=None, rng=None):
    """Compare analytic gradients of f against central finite differences.

    Relative error per coordinate is |analytic - fd| / max(1, |analytic|, |fd|);
    the report carries the per-input and overall maxima. Coordinates whose
    disagreement comes from a ReLU kink within `step` of zero pre-activation
    are not judged there: the coordinate is re-sampled and checked again.
    When max_coords_per_input is set, that many coordinates per input are
    drawn at random instead of sweeping all of them.
    """
    if step <= 0 or tol <= 0:
        raise ValueError("grad_check: step and tol must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    xs = [np.array(x, dtype=np.float64) for x in inputs]
    _, grads = forward_backward(f, xs)

    per_input_max = [0.0] * len(xs)
    checked = 0
    resampled = 0
    for i, x in enumerate(xs):
        size = x.size
        if size == 0:
            continue
        if max_coords_per_input is not None and max_coords_per_input < size:
            coords = rng.choice(size, size=max_coords_per_input, replace=False)
        else:
            coords = range(size)
        for j in coords:
            attempts = 0
            while True:
                plus = x.copy()
                minus = x.copy()
                plus.flat[j] += step
                minus.flat[j] -= step
                f_plus = _eval_plain(f, xs[:i] + [plus] + xs[i + 1:])
                f_minus = _eval_plain(f, xs[:i] + [minus] + xs[i + 1:])
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise FloatingPointError(
                        f"grad_check: non-finite value at input {i} coordinate {j}"
                    )
                fd = (f_plus - f_minus) / (2.0 * step)
                analytic = float(grads[i].flat[j])
                rel = abs(analytic - fd) / max(1.0, abs(analytic), abs(fd))
                if rel < tol or attempts >= 5:
                    per_input_max[i] = max(per_input_max[i], rel)
                    checked += 1
                    break
                if not _kink_suspected(f, xs, i, j, step):
                    per_input_max[i] = max(per_input_max[i], rel)
                    checked += 1
                    break
                # FD straddles a ReLU kink: move this coordinate off it and retry
                x.flat[j] += float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.1))
                _, grads = forward_backward(f, xs)
                resampled += 1
                attempts += 1
    return GradCheckReport(
        per_input_max=per_input_max,
        max_rel_error=max(per_input_max) if per_input_max else 0.0,
        tol=tol,
        checked=checked,
        resampled=resampled,
    )
