import collections
import inspect
import re

import numpy as np
import pytest
from test_trainer import tiny_config

from vidseg import model, synth, trainer
from vidseg import numerics as nm


def total(a):
    """Sum of all entries of a as a scalar: dot of the flattened values with ones."""
    flat = nm.reshape(a, (-1,))
    return nm.dot(flat, np.ones(flat.shape))


def weighted(a, w):
    """Sum of the entries of a weighted by those of w, as a scalar."""
    return nm.dot(nm.reshape(a, (-1,)), w.reshape(-1))


def test_quadratic_value_and_grad():
    # f(x) = sum(x*x) = dot(x, x)
    value, grads = nm.forward_backward(lambda x: nm.dot(x, x), [np.array([1.0, 2.0])])
    assert value == 5.0
    assert np.array_equal(grads[0], np.array([2.0, 4.0]))


def relu(x):
    """max(x, 0) of a (n, m) array as a ReLU layer with identity weights."""
    return nm.linear(x, np.eye(x.shape[1]), np.zeros(x.shape[1]), relu=True)


def test_relu_sum_value_and_grad():
    value, grads = nm.forward_backward(lambda x: total(relu(x)), [np.array([[-1.0, 3.0]])])
    assert value == 3.0
    assert np.array_equal(grads[0], np.array([[0.0, 1.0]]))


def test_relu_grad_at_zero_is_zero():
    _, grads = nm.forward_backward(lambda x: total(relu(x)), [np.array([[0.0]])])
    assert grads[0][0, 0] == 0.0


@pytest.mark.parametrize("use_relu", [False, True], ids=["plain", "relu"])
def test_linear_forward_bytes(use_relu):
    rng = np.random.default_rng(41)
    x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    want = x @ w + b
    if use_relu:
        want = np.maximum(want, 0.0)
        assert 0 < np.count_nonzero(want) < want.size
    out = nm.linear(x, w, b, relu=use_relu)
    assert isinstance(out, np.ndarray)
    assert out.tobytes() == want.tobytes()
    assert nm.linear(nm.Var(x), w, b, relu=use_relu).value.tobytes() == want.tobytes()


@pytest.mark.parametrize("tracked_x", [False, True], ids=["plain_x", "tracked_x"])
@pytest.mark.parametrize("use_relu", [False, True], ids=["plain", "relu"])
def test_linear_gradients_match_numpy_formulas(use_relu, tracked_x):
    rng = np.random.default_rng(43)
    x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    g = rng.normal(size=(5, 3))  # the output's gradient: weighted passes it through exactly
    inputs = [x, w, b] if tracked_x else [w, b]

    def f(*vs):
        xv, wv, bv = vs if tracked_x else (x, *vs)
        return weighted(nm.linear(xv, wv, bv, relu=use_relu), g)

    _, grads = nm.forward_backward(f, inputs)
    delta = g * (x @ w + b > 0.0) if use_relu else g
    want = [delta @ w.T, x.T @ delta, delta.sum(axis=0)]
    for got, expected in zip(grads, want if tracked_x else want[1:]):
        assert got.tobytes() == expected.tobytes()


def reference_grad_check(f, inputs, step, tol, max_coords_per_input=None, rng=None):
    """grad_check as it was before probes re-ran only part of the graph: every
    probe evaluates all of f on plain arrays, and a suspected kink runs two
    more tracked forwards to compare every ReLU layer's output."""
    rng = rng if rng is not None else np.random.default_rng(0)
    xs = [np.array(x, dtype=np.float64) for x in inputs]
    _, grads = nm.forward_backward(f, xs)

    def eval_plain(arrays):
        out = f(*arrays)
        return float(out.value if isinstance(out, nm.Var) else out)

    def relu_outputs(arrays):
        out = f(*[nm.Var(x) for x in arrays])
        if not isinstance(out, nm.Var):
            return []
        return [node.value for node in nm._toposort(out) if node._op == "linear+relu"]

    def kink_suspected(i, j):
        plus = [x.copy() for x in xs]
        minus = [x.copy() for x in xs]
        plus[i].flat[j] += step
        minus[i].flat[j] -= step
        return any(np.any((out_p > 0.0) != (out_m > 0.0))
                   for out_p, out_m in zip(relu_outputs(plus), relu_outputs(minus)))

    per_input_max = [0.0] * len(xs)
    checked = resampled = 0
    for i, x in enumerate(xs):
        if x.size == 0:
            continue
        if max_coords_per_input is not None and max_coords_per_input < x.size:
            coords = rng.choice(x.size, size=max_coords_per_input, replace=False)
        else:
            coords = range(x.size)
        for j in coords:
            attempts = 0
            while True:
                plus = x.copy()
                minus = x.copy()
                plus.flat[j] += step
                minus.flat[j] -= step
                fd = (eval_plain(xs[:i] + [plus] + xs[i + 1:])
                      - eval_plain(xs[:i] + [minus] + xs[i + 1:])) / (2.0 * step)
                analytic = float(grads[i].flat[j])
                rel = abs(analytic - fd) / max(1.0, abs(analytic), abs(fd))
                if rel < tol or attempts >= 5 or not kink_suspected(i, j):
                    per_input_max[i] = max(per_input_max[i], rel)
                    checked += 1
                    break
                x.flat[j] += float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.1))
                _, grads = nm.forward_backward(f, xs)
                resampled += 1
                attempts += 1
    return nm.GradCheckReport(per_input_max=per_input_max,
                              max_rel_error=max(per_input_max) if per_input_max else 0.0,
                              tol=tol, checked=checked, resampled=resampled)


def report_bytes(report):
    return (np.array(report.per_input_max).tobytes(), np.float64(report.max_rel_error).tobytes(),
            report.checked, report.resampled)


def two_layer_case():
    rng = np.random.default_rng(7)
    x, w1, w2, b1, b2 = (rng.normal(size=shape) for shape in [(1, 6), (6, 5), (5, 4), 5, 4])
    inputs = [x, w1, b1, w2, b2]

    def f(xv, w1v, b1v, w2v, b2v):
        hidden = nm.linear(xv, w1v, b1v, relu=True)
        logits = nm.linear(hidden, w2v, b2v)
        return nm.softmax_cross_entropy(logits, [2])

    return f, inputs, dict(step=1e-5, tol=1e-6)


def kink_case():
    # a coordinate exactly on the kink: plain FD would disagree there
    return (lambda x: total(relu(x)), [np.array([[0.0, 1.0]])],
            dict(step=1e-5, tol=1e-6, rng=np.random.default_rng(3)))


def ignored_input_case():
    rng = np.random.default_rng(8)
    w, bias = rng.normal(size=(3, 2)), rng.normal(size=2)
    return (lambda x, unused: total(nm.linear(x, w, bias, relu=True)),
            [rng.normal(size=(2, 3)), rng.normal(size=(4, 2))], dict(step=1e-5, tol=1e-8))


def test_two_layer_network_matches_fd():
    f, inputs, kwargs = two_layer_case()
    report = nm.grad_check(f, inputs, **kwargs)
    assert report.passed, str(report)


@pytest.mark.parametrize("case", [two_layer_case, kink_case, ignored_input_case],
                         ids=["two_layer", "relu_kink", "ignored_input"])
def test_grad_check_reports_match_full_recompute(case):
    f, inputs, kwargs = case()
    report = nm.grad_check(f, inputs, **kwargs)
    f, inputs, kwargs = case()
    assert report_bytes(report) == report_bytes(reference_grad_check(f, inputs, **kwargs))
    if case is kink_case:
        assert report.resampled >= 1


def test_gradient_suite_reports_match_full_recompute(monkeypatch):
    cfg = tiny_config()
    got = trainer.gradient_suite(cfg, n_seeds=2)
    monkeypatch.setattr(nm, "grad_check", reference_grad_check)
    want = trainer.gradient_suite(cfg, n_seeds=2)
    assert len(got) == len(want) == 10
    for (name, seed, report), (want_name, want_seed, want_report) in zip(got, want):
        assert (name, seed) == (want_name, want_seed)
        assert report_bytes(report) == report_bytes(want_report), f"{name} seed {seed}"


@pytest.mark.parametrize("case", [two_layer_case, kink_case, ignored_input_case],
                         ids=["two_layer", "relu_kink", "ignored_input"])
def test_grad_check_leaves_the_callers_arrays_unchanged(case):
    # the probes and the kink case's resample write only the checker's copies
    f, inputs, kwargs = case()
    before = [x.tobytes() for x in inputs]
    report = nm.grad_check(f, inputs, **kwargs)
    assert [x.tobytes() for x in inputs] == before
    assert report.resampled >= (case is kink_case)


def test_grad_check_probes_without_copying_the_input(traced):
    # a 1 MiB weight: the checker holds its copy and its gradient, about 2x;
    # a probe that copied the array for each side held about 5x
    rng = np.random.default_rng(5)
    x, bias, g = rng.normal(size=(1, 512)), rng.normal(size=256), rng.normal(size=(1, 256))
    weight = rng.normal(size=(512, 256))
    report, peak = traced(nm.grad_check, lambda w: weighted(nm.linear(x, w, bias), g), [weight],
                          1e-5, 1e-6, 8)
    assert report.passed and report.checked == 8, str(report)
    assert peak < 2.5 * weight.nbytes


def dropping_bias_edges(make):
    """_make as it would be if linear forgot its bias: a linear node keeps no
    edge to its third argument, so the bias gets a zero analytic gradient."""
    def dropping(op, out, parents, *args):
        return make(op, out, parents[:2] if op.startswith("linear") else parents, *args)

    return dropping


@pytest.mark.parametrize("bias", [lambda b: b, lambda b: nm.scale(b, 2.0)],
                         ids=["leaf_bias", "bias_reached_only_through_the_edge"])
def test_grad_check_catches_a_dropped_gradient_edge(bias, monkeypatch):
    monkeypatch.setattr(nm, "_make", dropping_bias_edges(nm._make))
    rng = np.random.default_rng(11)
    inputs = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)]

    def f(x, w, b):
        return total(nm.linear(x, w, bias(b)))

    report = nm.grad_check(f, inputs, step=1e-5, tol=1e-6)
    assert not report.passed
    assert max(report.per_input_max[:2]) < 1e-6 < report.per_input_max[2]
    assert report_bytes(report) == report_bytes(reference_grad_check(f, inputs, step=1e-5,
                                                                     tol=1e-6))


def test_grad_check_linear_is_exact():
    a = np.array([1.5, -2.0, 0.75])
    # central differences are exact for linear functions at any step, so a
    # moderate step leaves only rounding noise
    report = nm.grad_check(lambda x: nm.dot(x, a), [np.array([0.3, 0.4, 0.5])],
                           step=1e-2, tol=1e-6)
    assert report.max_rel_error < 1e-12


def test_grad_check_exp_like_at_zero():
    # log(e^x + e^2x) - x has slope 1/2 at zero and curvature on both sides;
    # the (1,) input is one row's column
    def f(x):
        return nm.softmax_cross_entropy(nm.concat([x, nm.scale(x, 2.0)]), [0])

    report = nm.grad_check(f, [np.array([0.0])], step=1e-5, tol=1e-9)
    assert report.passed, str(report)


def test_grad_check_resamples_relu_kink():
    f, inputs, kwargs = kink_case()
    report = nm.grad_check(f, inputs, **kwargs)
    assert report.passed, str(report)
    assert report.resampled >= 1


def test_grad_check_keeps_a_zero_crossing_without_relu():
    # the layer's output is 0 at the probe and changes sign across it, but
    # with no ReLU there is no kink: a miss above the tiny tol is judged as is
    def f(x):
        out = nm.linear(x, np.eye(1), np.array([-0.5]))
        return nm.softmax_cross_entropy(nm.concat([out, nm.scale(out, 2.0)]), [0])

    report = nm.grad_check(f, [np.array([[0.5]])], step=1e-5, tol=1e-15)
    assert report.max_rel_error >= report.tol
    assert report.resampled == 0 and report.checked == 1


def test_backward_twice_is_an_error():
    x = nm.Var(np.array([1.0, 2.0]))
    out = nm.dot(x, x)
    out.backward()
    with pytest.raises(nm.TapeError):
        out.backward()


def test_backward_requires_scalar():
    x = nm.Var(np.array([[1.0, 2.0]]))
    out = relu(x)
    with pytest.raises(nm.TapeError):
        out.backward()


def test_grads_match_input_shapes():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    c = rng.normal(size=2)

    def f(av, bv, cv):
        return total(nm.linear(av, bv, cv, relu=True))

    _, grads = nm.forward_backward(f, [a, b, c])
    assert [g.shape for g in grads] == [a.shape, b.shape, c.shape]


def test_shape_mismatch_is_structured():
    with pytest.raises(nm.ShapeMismatchError) as err:
        nm.linear(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))
    assert err.value.op == "linear"
    assert err.value.shapes == ((2, 3), (4, 2), (2,))
    with pytest.raises(nm.ShapeMismatchError) as err:
        nm.linear(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 2)))
    assert err.value.shapes == ((2, 3), (3, 2), (2, 2))
    with pytest.raises(nm.ShapeMismatchError) as err:
        nm.add(np.zeros((2, 3)), np.zeros(3))
    assert err.value.op == "add"


def test_untracked_inputs_get_zero_grads():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 4.0])
    _, grads = nm.forward_backward(lambda a, b: nm.dot(a, a), [x, y])
    assert np.array_equal(grads[1], np.zeros(2))


def test_l2_normalize_three_four_five():
    out = nm.l2_normalize(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_unit_vector_unchanged():
    v = np.array([[1.0, 0.0, 0.0]])
    assert np.allclose(nm.l2_normalize(v), v, atol=1e-15)


def test_l2_normalize_random_row_unit_norm():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(1, 128))
    out = nm.l2_normalize(v)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_l2_normalize_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=(4, 16))
        once = nm.l2_normalize(v)
        twice = nm.l2_normalize(once)
        assert np.all(np.abs(twice - once) < 1e-10)


def test_l2_normalize_degenerate_row_errors():
    with pytest.raises(nm.DegenerateNormError):
        nm.l2_normalize(np.zeros((1, 8)))
    with pytest.raises(nm.DegenerateNormError):
        nm.l2_normalize(np.vstack([np.ones(4), np.zeros(4)]))


def test_l2_normalize_gradient():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(1, 6))
    w = rng.normal(size=6)
    report = nm.grad_check(lambda x: weighted(nm.l2_normalize(x), w), [v], step=1e-5, tol=1e-7)
    assert report.passed, str(report)


def test_mean_rows_permutation_bit_exact():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 3, 8))
    base = nm.mean_rows(x)
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert nm.mean_rows(x[:, list(perm)]).tobytes() == base.tobytes()


def test_mean_rows_gradient():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 4, 5))
    w = rng.normal(size=5)
    report = nm.grad_check(lambda a: weighted(nm.mean_rows(a), w), [x], step=1e-5, tol=1e-8)
    assert report.passed, str(report)


def test_concat_and_stack_grads():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(1, 3))
    b = rng.normal(size=(1, 3))
    w = rng.normal(size=6)
    w2 = rng.normal(size=3)

    def f(av, bv):
        joint = nm.concat([av, bv])
        stacked = nm.reshape(joint, (1, 2, 3))
        return nm.add(weighted(joint, w), weighted(nm.mean_rows(stacked), w2))

    report = nm.grad_check(f, [a, b], step=1e-5, tol=1e-8)
    assert report.passed, str(report)


def test_concat_columns_values_and_gradient():
    rng = np.random.default_rng(19)
    col = rng.normal(size=4)
    block = rng.normal(size=(4, 3))
    out = nm.concat([col, block, col])
    assert np.array_equal(out, np.column_stack([col, block, col]))
    assert nm.concat([block, block]).shape == (4, 6)
    w = rng.normal(size=(5, 3))
    bias = rng.normal(size=3)

    def f(c, m):
        return total(nm.linear(nm.concat([c, m, nm.scale(c, 2.0)]), w, bias, relu=True))

    report = nm.grad_check(f, [col, block], step=1e-5, tol=1e-8)
    assert report.passed, str(report)
    with pytest.raises(nm.ShapeMismatchError):
        nm.concat([np.zeros(3), np.zeros((4, 2))])


def test_reshape_round_trip_gradient():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=6)
    report = nm.grad_check(lambda a: nm.dot(nm.reshape(a, (-1,)), w), [x], step=1e-5, tol=1e-8)
    assert report.passed, str(report)
    with pytest.raises(nm.ShapeMismatchError) as err:
        nm.reshape(x, (4, -1))
    assert err.value.op == "reshape"


def test_dot_rows_values_and_gradient():
    rng = np.random.default_rng(25)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(5, 4))
    out = nm.dot(a, b)
    assert out.shape == (5,)
    assert np.allclose(out, [ra @ rb for ra, rb in zip(a, b)], atol=1e-14)
    w = rng.normal(size=5)
    report = nm.grad_check(lambda x, y: nm.dot(nm.dot(x, y), w), [a, b], step=1e-5, tol=1e-8)
    assert report.passed, str(report)
    with pytest.raises(nm.ShapeMismatchError):
        nm.dot(a, b[:, :3])


def test_mean_rows_batched_is_per_item_bit_exact():
    rng = np.random.default_rng(27)
    x = rng.normal(size=(4, 3, 6))
    out = nm.mean_rows(x)
    for item in range(4):
        assert out[item].tobytes() == nm.mean_rows(x[item:item + 1])[0].tobytes()
        assert nm.mean_rows(x[:, [2, 0, 1]])[item].tobytes() == out[item].tobytes()
    w, bias = rng.normal(size=(6, 4)), rng.normal(size=4)
    report = nm.grad_check(lambda a: total(nm.linear(nm.mean_rows(a), w, bias, relu=True)), [x],
                           step=1e-5, tol=1e-8)
    assert report.passed, str(report)


def test_slice_rows_gradient_and_full_slice():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(6, 3))
    w, bias = rng.normal(size=(3, 2)), rng.normal(size=2)

    def f(a):
        top = nm.slice_rows(a, 1, 3)
        return nm.add(total(nm.linear(top, w, bias, relu=True)), total(nm.slice_rows(a, 4, 6)))

    report = nm.grad_check(f, [x], step=1e-5, tol=1e-8)
    assert report.passed, str(report)
    var = nm.Var(x)
    assert nm.slice_rows(var, 0, 6) is var
    with pytest.raises(nm.ShapeMismatchError):
        nm.slice_rows(x, 2, 7)


def naive_cross_entropy(logits, labels):
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return float(np.mean(-np.log(probs[np.arange(len(labels)), labels])))


def test_softmax_cross_entropy_matches_naive():
    rng = np.random.default_rng(31)
    logits = rng.normal(size=(6, 9)) * 5
    labels = rng.integers(0, 9, size=6)
    assert abs(float(nm.softmax_cross_entropy(logits, labels))
               - naive_cross_entropy(logits, labels)) < 1e-12
    assert float(nm.softmax_cross_entropy(logits[2:3], labels[2:3])) == pytest.approx(
        naive_cross_entropy(logits[2:3], labels[2:3]), abs=1e-12)


def test_softmax_cross_entropy_is_stable():
    rows = np.array([[1000.0, 1000.0], [-1000.0, -1000.0]])
    assert abs(float(nm.softmax_cross_entropy(rows, [0, 1])) - np.log(2.0)) < 1e-12


def test_softmax_cross_entropy_label_vector_gradient():
    rng = np.random.default_rng(37)
    logits = rng.normal(size=(5, 4))
    labels = np.array([0, 3, 1, 1, 2])
    w = rng.normal(size=(4, 4))
    report = nm.grad_check(lambda x: nm.softmax_cross_entropy(nm.linear(x, w, np.zeros(4)),
                                                              labels),
                           [logits], step=1e-5, tol=1e-8)
    assert report.passed, str(report)
    with pytest.raises(nm.ShapeMismatchError):
        nm.softmax_cross_entropy(logits, labels[:3])


def test_softmax_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        nm.softmax_cross_entropy(np.zeros((1, 4)), [4])


def test_ops_are_deterministic():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    c = rng.normal(size=3)
    v = rng.normal(size=(1, 7))
    runs = []
    for _ in range(2):
        runs.append((
            nm.linear(a, b, c, relu=True).tobytes(),
            nm.mean_rows(a[None]).tobytes(),
            nm.l2_normalize(a).tobytes(),
            np.asarray(nm.softmax_cross_entropy(v, [3])).tobytes(),
        ))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("op, args", [
    ("linear", (np.ones(3), np.ones((3, 2)), np.ones(2))),
    ("linear", (np.ones((2, 3)), np.ones(3), np.ones(1))),
    ("l2_normalize", (np.ones(3),)),
    ("softmax_cross_entropy", (np.ones(4), 0)),
    ("mean_rows", (np.ones((3, 4)),)),
    ("concat", ([nm.dot(np.ones(2), np.ones(2)), nm.dot(np.ones(2), np.zeros(2))],)),
], ids=["linear_vector_left", "linear_vector_right", "l2_normalize_vector",
        "softmax_cross_entropy_vector", "mean_rows_2d", "concat_scalars"])
def test_row_ops_reject_single_vectors(op, args):
    """The row ops take a leading batch axis only; one sample is a batch of one."""
    with pytest.raises(nm.ShapeMismatchError) as err:
        getattr(nm, op)(*args)
    assert err.value.op == op


def test_plain_arrays_take_plain_path():
    out = nm.linear(np.eye(2), np.ones((2, 2)), np.zeros(2))
    assert isinstance(out, np.ndarray)
    var_out = nm.linear(nm.Var(np.eye(2)), np.ones((2, 2)), np.zeros(2))
    assert isinstance(var_out, nm.Var)


def listed_ops():
    """The op names of the module docstring's op list."""
    listed = nm.__doc__.split("Supported op set:")[1].split(".")[0]
    return {name.strip() for name in re.sub(r"\([^)]*\)", "", listed).split(",")}


def test_docstring_op_list_names_every_op():
    # an op is a public function that records a tape node through _make
    ops = {name for name, fn in inspect.getmembers(nm, inspect.isfunction)
           if fn.__module__ == nm.__name__ and not name.startswith("_")
           and "_make(" in inspect.getsource(fn)}
    assert listed_ops() == ops


# one call per op with a tracked (2, 3) argument
OP_EXAMPLES = {
    "add": lambda v: (v, v),
    "scale": lambda v: (v, 2.0),
    "linear": lambda v: (v, np.ones((3, 2)), np.ones(2)),
    "dot": lambda v: (v, v),
    "mean_rows": lambda v: (nm.reshape(v, (2, 1, 3)),),
    "concat": lambda v: ([v, v],),
    "reshape": lambda v: (v, (3, 2)),
    "slice_rows": lambda v: (v, 0, 1),
    "l2_normalize": lambda v: (v,),
    "softmax_cross_entropy": lambda v: (v, [0, 2]),
    "bank_cross_entropy": lambda v: (v, [v], np.ones((4, 3)), 2.0),
}


@pytest.mark.parametrize("name", sorted(OP_EXAMPLES))
def test_every_op_records_its_recipe(name):
    # a node without its recipe would be re-run as a constant, and the finite
    # differences of everything upstream of it would silently read 0
    assert set(OP_EXAMPLES) == listed_ops()
    leaf = nm.Var(np.random.default_rng(47).normal(size=(2, 3)))
    out = getattr(nm, name)(*OP_EXAMPLES[name](leaf))
    assert isinstance(out, nm.Var) and out._op.partition("+")[0] == name
    moved = leaf.value + 0.5
    (plan,) = nm._plans(out, [leaf])
    assert plan[-1][0] is getattr(nm, name)
    rerun = nm._rerun(plan, moved)[-1]
    want = getattr(nm, name)(*OP_EXAMPLES[name](nm.Var(moved)))
    assert rerun.tobytes() == want.value.tobytes()


@pytest.fixture()
def op_calls(monkeypatch):
    """Every op call made through the module's names, as (op name, args)."""
    calls = []
    for name in listed_ops():
        def logged(*args, _name=name, _op=getattr(nm, name), **kwargs):
            calls.append((_name, args))
            return _op(*args, **kwargs)

        monkeypatch.setattr(nm, name, logged)
    return calls


def test_probing_an_input_f_never_reads_runs_no_op(op_calls):
    f, inputs, kwargs = ignored_input_case()
    report = nm.grad_check(f, inputs, **kwargs)
    assert report.checked == inputs[0].size + inputs[1].size and report.resampled == 0
    # one recording (linear, reshape, dot), then both probes of each of the
    # six coordinates of x re-run those three nodes; none for the unused input
    assert [name for name, _ in op_calls].count("linear") == 1 + 2 * inputs[0].size
    assert len(op_calls) == 3 * (1 + 2 * inputs[0].size)


def test_probing_a_head_weight_reruns_only_its_head(op_calls):
    cfg = tiny_config()
    rng = np.random.default_rng(53)
    mcfg = cfg.model_config()
    query, key = model.init_params(mcfg, rng), model.init_params(mcfg, rng)
    frames = np.stack([synth.generate_video(cfg.dataset, c, 0)[0] for c in range(2)])
    everything = trainer.with_losses(cfg, trainer.LOSS_NAMES)
    batch = trainer.sample_batch(frames, np.arange(2), everything, rng)
    banks = [rng.normal(size=(16, cfg.embed_dim)) for _ in range(2)]
    banks = [bank / np.linalg.norm(bank, axis=1, keepdims=True) for bank in banks]
    targets = trainer.key_targets(key, batch, everything)
    probed = "head_inter.fc2.weight"
    layer_of_bias = {arr.tobytes(): name[:-len(".bias")] for name, arr in query.items()
                     if name.endswith(".bias")}

    def calls_of_check(names):
        def f(*vars_):
            params = {**query, **dict(zip(names, vars_))}
            return trainer._sum_terms(trainer.batch_losses(params, targets, batch, *banks,
                                                           everything))

        del op_calls[:]
        report = nm.grad_check(f, [query[n] for n in names], step=1e-5, tol=1e-4,
                               max_coords_per_input=1, rng=np.random.default_rng(59))
        assert report.passed and report.resampled == 0
        # a linear call is named by its bias, which no probe of a weight moves
        return collections.Counter(
            (name, layer_of_bias.get(np.asarray(args[2]).tobytes()) if name == "linear"
             else None) for name, args in op_calls)

    every = calls_of_check(list(query))
    without = calls_of_check([n for n in query if n != probed])
    assert not without - every
    # the probe's two evaluations re-run the layer, the inter head's
    # normalization and InfoNCE, and the three adds of the loss sum
    assert every - without == {("linear", "head_inter.fc2"): 2, ("l2_normalize", None): 2,
                               ("bank_cross_entropy", None): 2, ("add", None): 6}
