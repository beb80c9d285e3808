"""Float64 array ops with reverse-mode gradients and a finite-difference checker.

Every op accepts plain numpy arrays or `Var` nodes. With plain arrays it just
computes the result (fast path, used for the momentum/key side of training).
With at least one `Var` argument it records the computation so that
`Var.backward()` can fill exact gradients afterwards.

Supported op set: linear (a fully connected layer, with an optional ReLU),
add, scale, dot (row-wise), mean_rows (over the K axis), concat (along the
last axis), reshape, slice_rows, l2_normalize, softmax_cross_entropy
(row-wise, with a label vector), bank_cross_entropy (the query rows' InfoNCE
against P positives and constant negatives, one bank shared by every row or
one set per row). The ops take rows over a leading batch axis, so a training
step records one small graph over (B, ...) arrays and a single sample is a
batch of one. Only the elementwise ops (add, scale), reshape and slice_rows
take any rank, and dot also takes two vectors: their 0-d product is a scalar
root for backward.

Every op builds its node through _make, which also stores the op's arguments
on the node. So a recorded graph can re-run any part of itself on plain
arrays: grad_check compiles, per input array, a plan of the nodes downstream
of it, and each finite-difference probe perturbs one entry of its copy of
that array in place and re-runs only those nodes, reusing every other node's
recorded value.
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

    __slots__ = ("value", "grad", "_parents", "_op", "_recipe", "_done")

    def __init__(self, value, _parents=(), _op="leaf", _recipe=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents  # tuple of (Var, vjp callable)
        self._op = _op
        self._recipe = _recipe  # the arguments of the op call that made the node
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


def _make(op, out, parents, *args):
    """Return a Var if any parent is tracked, else the plain array.

    op names the node: the name of the op function that made it, with a
    "+relu" suffix for a linear layer's gate. args are the arguments of that
    call, all passed positionally; a Var keeps them as its recipe, so that
    calling the op again on args gives its value.
    """
    tracked = [(p, vjp) for p, vjp in parents if isinstance(p, Var)]
    if not tracked:
        return out
    return Var(out, _parents=tuple(tracked), _op=op, _recipe=args)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def add(a, b):
    """Elementwise sum of two equal-shape arrays."""
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeMismatchError("add", av.shape, bv.shape)
    return _make("add", av + bv, ((a, lambda g: g), (b, lambda g: g)), a, b)


def scale(a, c):
    """Multiply by a python scalar constant."""
    c = float(c)
    out = _value(a) * c
    return _make("scale", out, ((a, lambda g: g * c),), a, c)


def linear(x, weight, bias, relu=False):
    """A fully connected layer over rows as one node: (n, k) @ (k, m) + (m,),
    then max(., 0) when relu is set.

    The ReLU gate reads the output, which is > 0 exactly where the
    pre-activation is; the gradient at exactly 0 is 0.
    """
    xv, wv, bv = _value(x), _value(weight), _value(bias)
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ShapeMismatchError("linear", xv.shape, wv.shape, bv.shape)
    out = xv @ wv + bv
    if relu:
        np.maximum(out, 0.0, out=out)
    gated = []

    def delta(g):
        # the gradient before the ReLU gate, computed once for the three vjps
        if not gated:
            gated.append(g * (out > 0.0) if relu else g)
        return gated[0]

    return _make("linear+relu" if relu else "linear", out,
                 ((x, lambda g: delta(g) @ wv.T), (weight, lambda g: xv.T @ delta(g)),
                  (bias, lambda g: delta(g).sum(axis=0))), x, weight, bias, relu)


def dot(a, b):
    """Inner products over the last axis of two equal-shape arrays: two
    vectors give a scalar, two (B, E) arrays the (B,) row-wise products."""
    av, bv = _value(a), _value(b)
    if av.ndim not in (1, 2) or av.shape != bv.shape:
        raise ShapeMismatchError("dot", av.shape, bv.shape)
    out = np.asarray(np.einsum("...i,...i->...", av, bv))
    return _make("dot", out, ((a, lambda g: g[..., None] * bv), (b, lambda g: g[..., None] * av)),
                 a, b)


def mean_rows(a):
    """Mean over the rows of each item of a (B, n, m) array -> (B, m).

    Columns are summed in sorted order so the result is bit-identical under
    any permutation of the rows being averaged.
    """
    av = _value(a)
    if av.ndim != 3 or av.shape[1] < 1:
        raise ShapeMismatchError("mean_rows", av.shape)
    n = av.shape[1]
    out = np.sort(av, axis=1).sum(axis=1) / n
    return _make("mean_rows", out, ((a, lambda g: np.repeat(g[:, None] / n, n, axis=1)),), a)


def concat(parts):
    """Concatenate (B, n_i) blocks and (B,) columns along the last axis into
    one (B, sum n_i) array; a (B,) part counts as one column."""
    vals = [_value(p) for p in parts]
    cols = [v[:, None] if v.ndim == 1 else v for v in vals]
    if any(c.ndim != 2 or c.shape[0] != cols[0].shape[0] for c in cols):
        raise ShapeMismatchError("concat", *[v.shape for v in vals])
    out = np.concatenate(cols, axis=1)
    parents = []
    offset = 0
    for p, v, c in zip(parts, vals, cols):
        lo, hi = offset, offset + c.shape[1]

        def vjp(g, lo=lo, hi=hi, column=v.ndim == 1):
            return g[:, lo] if column else g[:, lo:hi]

        parents.append((p, vjp))
        offset = hi
    return _make("concat", out, parents, parts)


def reshape(a, shape):
    """The same values in a new shape (row-major order, as numpy reshape)."""
    av = _value(a)
    try:
        out = av.reshape(shape)
    except ValueError:
        raise ShapeMismatchError("reshape", av.shape, shape) from None
    return _make("reshape", out, ((a, lambda g: g.reshape(av.shape)),), a, shape)


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

    return _make("slice_rows", av[start:stop], ((a, vjp),), a, start, stop)


def l2_normalize(a):
    """Scale each row of a (B, E) array to unit Euclidean norm.

    Raises DegenerateNormError when a row norm is below EPSILON_NORM.
    """
    av = _value(a)
    if av.ndim != 2:
        raise ShapeMismatchError("l2_normalize", av.shape)
    norms = np.linalg.norm(av, axis=1)
    bad = np.flatnonzero(norms < EPSILON_NORM)
    if bad.size:
        raise DegenerateNormError(
            f"l2_normalize: row {bad[0]} norm {norms[bad[0]]:.3e} below {EPSILON_NORM:.0e}"
        )
    out = av / norms[:, None]

    def vjp(g):
        return (g - out * (out * g).sum(axis=1, keepdims=True)) / norms[:, None]

    return _make("l2_normalize", out, ((a, vjp),), a)


def softmax_cross_entropy(logits, labels):
    """Mean over the rows of (B, C) logits of the cross-entropy of
    softmax(row) against its integer class in the (B,) label vector."""
    lv = _value(logits)
    labels = np.asarray(labels).astype(int)
    if lv.ndim != 2 or labels.shape != lv.shape[:1]:
        raise ShapeMismatchError("softmax_cross_entropy", lv.shape, labels.shape)
    n, classes = lv.shape
    if labels.min() < 0 or labels.max() >= classes:
        bad = labels[(labels < 0) | (labels >= classes)][0]
        raise ValueError(f"softmax_cross_entropy: label {bad} out of range for {classes} classes")
    picked = (np.arange(n), labels)
    m = lv.max(axis=1, keepdims=True)
    expd = np.exp(lv - m)
    total = expd.sum(axis=1, keepdims=True)
    out = np.asarray((m[:, 0] + np.log(total[:, 0]) - lv[picked]).sum() / n)
    soft = expd / total

    def vjp(g):
        grad = soft.copy()
        grad[picked] -= 1.0
        grad *= g / n
        return grad

    return _make("softmax_cross_entropy", out, ((logits, vjp),), logits, labels)


def bank_cross_entropy(query, positives, negatives, inv):
    """Mean InfoNCE of the (B, E) query rows scaled by inv against each of the
    P (B, E) positives and constant negatives: an (M, E) bank shared by every
    row, or (B, M, E), one set of M per row.

    With s = inv * query, p_bj = s_b . positives[j]_b and the bank logits
    n_b = negatives @ s_b (negatives[b] @ s_b per row), entry (b, j) is the
    cross-entropy of [p_bj, n_b1, ..., n_bM] with the positive in slot 0,
    logaddexp(p_bj, LSE_b) - p_bj, computed as softplus(LSE_b - p_bj); the
    bank's log-sum-exp LSE_b is taken once per row and serves all P
    positives. The result is the mean over all B*P entries. The (B, M) logits
    live in one buffer: their exponentials overwrite them, and backward turns
    those into the logits' gradient in place, so the node can be
    differentiated only once (as any graph). The negatives get no gradient,
    so a tracked Var there is a TapeError.
    """
    if isinstance(negatives, Var):
        raise TapeError("bank_cross_entropy: negatives are constants; pass a plain array")
    qv, pvs, nv = _value(query), [_value(p) for p in positives], _value(negatives)
    if (qv.ndim != 2 or nv.ndim < 2 or nv.shape[:-2] not in ((), qv.shape[:1]) or not pvs
            or 0 in qv.shape + nv.shape or nv.shape[-1] != qv.shape[1]
            or any(pv.shape != qv.shape for pv in pvs)):
        raise ShapeMismatchError("bank_cross_entropy", qv.shape, *[pv.shape for pv in pvs],
                                 nv.shape)
    inv = float(inv)
    count = qv.shape[0] * len(pvs)
    scaled = qv * inv
    pos = np.stack([np.einsum("...i,...i->...", scaled, pv) for pv in pvs], axis=1)
    expd = np.einsum("be,bme->bm", scaled, nv) if nv.ndim == 3 else scaled @ nv.T
    m = expd.max(axis=1, keepdims=True)
    np.subtract(expd, m, out=expd)
    np.exp(expd, out=expd)
    total = expd.sum(axis=1, keepdims=True)
    margin = m + np.log(total) - pos
    entries = np.logaddexp(0.0, margin)
    out = np.asarray(entries.sum() / count)
    # the bank's share of each entry's softmax, sigmoid(LSE - p) = 1 - softmax slot 0
    bank_share = np.exp(margin - entries)

    def vjp_query(g):
        if not expd.flags.writeable:
            raise TapeError("bank_cross_entropy: its buffer already holds a gradient; "
                            "re-record to differentiate again")
        np.multiply(expd, bank_share.sum(axis=1, keepdims=True) / total * (g / count), out=expd)
        expd.setflags(write=False)
        grad = np.einsum("bm,bme->be", expd, nv) if nv.ndim == 3 else expd @ nv
        pos_grad = bank_share * (-g / count)  # of the positive logits
        for j, pv in enumerate(pvs):
            grad += pos_grad[:, j:j + 1] * pv
        return grad * inv

    def vjp_positive(j):
        return lambda g: (bank_share[:, j:j + 1] * (-g / count)) * scaled

    return _make("bank_cross_entropy", out,
                 ((query, vjp_query), *((p, vjp_positive(j)) for j, p in enumerate(positives))),
                 query, positives, negatives, inv)


# ---------------------------------------------------------------------------
# forward/backward driver and the finite-difference checker
# ---------------------------------------------------------------------------


def _record(f, inputs):
    """Record f on tracked copies of the inputs and run backward: returns the
    input leaves, the scalar root and the inputs' gradients (zeros for an
    input the root does not depend on)."""
    leaves = [Var(np.asarray(x, dtype=np.float64)) for x in inputs]
    out = f(*leaves)
    if not isinstance(out, Var):
        raise TapeError("function did not produce a tracked result; did it touch any input?")
    if out.value.size != 1:
        raise TapeError(f"function must be scalar-valued, got shape {out.shape}")
    value = float(out.value)
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite forward value {value}")
    out.backward()
    return leaves, out, [v.grad if v.grad is not None else np.zeros_like(v.value) for v in leaves]


def forward_backward(f, inputs):
    """Evaluate a scalar-valued composite of the supported ops and its gradients.

    Returns (value, grads) where grads[i] has the shape of inputs[i]. Inputs
    the function never touches get zero gradients.
    """
    _, out, grads = _record(f, inputs)
    return float(out.value), grads


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


def _plans(root, leaves):
    """Per leaf, the plan that re-runs the nodes whose value depends on it, in
    evaluation order; None for a leaf the root does not depend on.

    An entry is (op, args, slots, name) for one node: its op function, looked
    up through the module's names as f calls it; its recorded arguments, with
    every Var the leaf does not reach replaced by its recorded value; a
    (container, index, source) slot for each Var the leaf reaches, where
    source indexes the values of _rerun; and the node's name. Dependence is
    read from the recorded arguments, not from the backward edges, so an op
    that leaves an input out of its gradient is still re-run and the miss
    shows in the check.
    """
    inputs = {}  # node id -> (argument index, index in a list argument or None, Var) per Var
    order = []  # each node after its inputs
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in inputs:
            inputs[id(node)] = found = [
                (k, j, v) for k, arg in enumerate(node._recipe)
                for j, v in (enumerate(arg) if isinstance(arg, (list, tuple)) else [(None, arg)])
                if isinstance(v, Var)]
            stack.append((node, True))
            stack.extend((v, False) for _, _, v in found)
    ops = globals()
    plans = []
    for leaf in leaves:
        source = {id(leaf): 0}
        plan = []
        for node in order:
            found = inputs[id(node)]
            if not any(id(v) in source for _, _, v in found):
                continue
            args = list(node._recipe)
            for k in {k for k, j, _ in found if j is not None}:
                args[k] = list(args[k])
            slots = []
            for k, j, v in found:
                container, index = (args, k) if j is None else (args[k], j)
                if id(v) in source:
                    slots.append((container, index, source[id(v)]))
                else:
                    container[index] = v.value
            plan.append((ops[node._op.partition("+")[0]], args, slots, node._op))
            source[id(node)] = len(plan)
        plans.append(plan if id(root) in source else None)
    return plans


def _rerun(plan, value):
    """The leaf set to value, then the output of each entry of plan, re-run on
    plain arrays once its slots are filled; the root's is the last."""
    values = [value]
    for op, args, slots, _ in plan:
        for container, index, source in slots:
            container[index] = values[source]
        values.append(op(*args))
    return values


def _relu_flips(plan, at_plus, at_minus):
    """True when a re-run ReLU layer's output changes sign between the two
    probes; a layer that is not re-run cannot. Its output is > 0 exactly where
    its pre-activation is, and it is a fresh array, so the plus probe's
    outputs still hold after the minus probe rewrites the input."""
    return any(np.any((plus > 0.0) != (minus > 0.0))
               for (*_, name), plus, minus in zip(plan, at_plus[1:], at_minus[1:])
               if name == "linear+relu")


def grad_check(f, inputs, step, tol, max_coords_per_input=None, rng=None):
    """Compare analytic gradients of f against central finite differences.

    f must be a composite of the tape ops whose control flow does not depend
    on the input values: it is recorded once (and again after a resample),
    and each probe re-runs only the recorded nodes downstream of the array it
    perturbs, so an input f never reaches costs no evaluation (its difference
    is exactly 0). Each probe writes its perturbed value into the checker's
    own copy of the input and restores it afterwards, so no probe copies an
    array and the caller's arrays are never written; f must read its inputs
    only through the leaves it is passed.

    Relative error per coordinate is |analytic - fd| / max(1, |analytic|, |fd|);
    the report carries the per-input and overall maxima. Coordinates whose
    disagreement comes from a ReLU kink within `step` of zero pre-activation
    (a re-run ReLU layer output changing sign between the two probes) are not
    judged there: the coordinate is re-sampled and checked again.
    When max_coords_per_input is set (at least 1), that many coordinates per
    input are drawn at random instead of sweeping all of them.
    """
    if step <= 0 or tol <= 0:
        raise ValueError("grad_check: step and tol must be positive")
    if max_coords_per_input is not None and max_coords_per_input < 1:
        raise ValueError(f"grad_check: max_coords_per_input (probes per input) must be "
                         f">= 1, got {max_coords_per_input}")
    rng = rng if rng is not None else np.random.default_rng(0)
    xs = [np.array(x, dtype=np.float64) for x in inputs]

    def record():
        leaves, root, grads = _record(f, xs)
        return grads, _plans(root, leaves)

    grads, plans = record()
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
                plan = plans[i]
                # an input f never reads has a difference of exactly 0, so rel is 0
                fd, at_plus, at_minus = 0.0, [], []
                if plan is not None:
                    # probe x in place, then restore it; a reshape node's value is a
                    # view of x, so each value is read before x is written again
                    held = x.flat[j]
                    x.flat[j] = held + step
                    at_plus = _rerun(plan, x)
                    f_plus = float(at_plus[-1])
                    x.flat[j] = held - step
                    at_minus = _rerun(plan, x)
                    f_minus = float(at_minus[-1])
                    x.flat[j] = held
                    if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                        raise FloatingPointError(
                            f"grad_check: non-finite value at input {i} coordinate {j}"
                        )
                    fd = (f_plus - f_minus) / (2.0 * step)
                analytic = float(grads[i].flat[j])
                rel = abs(analytic - fd) / max(1.0, abs(analytic), abs(fd))
                if rel < tol or attempts >= 5 or not _relu_flips(plan or (), at_plus, at_minus):
                    per_input_max[i] = max(per_input_max[i], rel)
                    checked += 1
                    break
                # FD straddles a ReLU kink: move this coordinate off it and retry
                x.flat[j] += float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.1))
                grads, plans = record()
                resampled += 1
                attempts += 1
    return GradCheckReport(
        per_input_max=per_input_max,
        max_rel_error=max(per_input_max) if per_input_max else 0.0,
        tol=tol,
        checked=checked,
        resampled=resampled,
    )
