import inspect
import re

import numpy as np
import pytest

from vidseg import numerics as nm


def total(a):
    """Sum of all entries of a as a scalar: dot of the flattened values with ones."""
    flat = nm.reshape(a, (-1,))
    return nm.dot(flat, np.ones(flat.shape))


def test_quadratic_value_and_grad():
    # f(x) = sum(x*x) = dot(x, x)
    value, grads = nm.forward_backward(lambda x: nm.dot(x, x), [np.array([1.0, 2.0])])
    assert value == 5.0
    assert np.array_equal(grads[0], np.array([2.0, 4.0]))


def test_relu_sum_value_and_grad():
    value, grads = nm.forward_backward(lambda x: total(nm.relu(x)), [np.array([-1.0, 3.0])])
    assert value == 3.0
    assert np.array_equal(grads[0], np.array([0.0, 1.0]))


def test_relu_grad_at_zero_is_zero():
    _, grads = nm.forward_backward(lambda x: total(nm.relu(x)), [np.array([0.0])])
    assert grads[0][0] == 0.0


def test_two_layer_network_matches_fd():
    rng = np.random.default_rng(7)
    x = rng.normal(size=6)
    w1 = rng.normal(size=(6, 5))
    w2 = rng.normal(size=(5, 4))

    def f(xv, w1v, w2v):
        hidden = nm.relu(nm.matmul(xv, w1v))
        logits = nm.matmul(hidden, w2v)
        return nm.softmax_cross_entropy(logits, 2)

    report = nm.grad_check(f, [x, w1, w2], step=1e-5, tol=1e-6)
    assert report.passed, str(report)


def test_grad_check_linear_is_exact():
    a = np.array([1.5, -2.0, 0.75])
    # central differences are exact for linear functions at any step, so a
    # moderate step leaves only rounding noise
    report = nm.grad_check(lambda x: nm.dot(x, a), [np.array([0.3, 0.4, 0.5])],
                           step=1e-2, tol=1e-6)
    assert report.max_rel_error < 1e-12


def test_grad_check_exp_like_at_zero():
    # log(e^x + e^2x) - x has slope 1/2 at zero and curvature on both sides
    def f(x):
        return nm.softmax_cross_entropy(nm.concat([x, nm.scale(x, 2.0)]), 0)

    report = nm.grad_check(f, [np.array([0.0])], step=1e-5, tol=1e-9)
    assert report.passed, str(report)


def test_grad_check_resamples_relu_kink():
    # place a coordinate exactly on the kink: plain FD would disagree there
    def f(x):
        return total(nm.relu(x))

    report = nm.grad_check(f, [np.array([0.0, 1.0])], step=1e-5, tol=1e-6,
                           rng=np.random.default_rng(3))
    assert report.passed, str(report)
    assert report.resampled >= 1


def test_backward_twice_is_an_error():
    x = nm.Var(np.array([1.0, 2.0]))
    out = nm.dot(x, x)
    out.backward()
    with pytest.raises(nm.TapeError):
        out.backward()


def test_backward_requires_scalar():
    x = nm.Var(np.array([1.0, 2.0]))
    out = nm.relu(x)
    with pytest.raises(nm.TapeError):
        out.backward()


def test_grads_match_input_shapes():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))

    def f(av, bv):
        return total(nm.relu(nm.matmul(av, bv)))

    _, grads = nm.forward_backward(f, [a, b])
    assert grads[0].shape == a.shape
    assert grads[1].shape == b.shape


def test_shape_mismatch_is_structured():
    with pytest.raises(nm.ShapeMismatchError) as err:
        nm.matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    assert err.value.op == "matmul"
    assert err.value.shapes == ((2, 3), (4, 2))


def test_untracked_inputs_get_zero_grads():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 4.0])
    _, grads = nm.forward_backward(lambda a, b: nm.dot(a, a), [x, y])
    assert np.array_equal(grads[1], np.zeros(2))


def test_l2_normalize_three_four_five():
    out = nm.l2_normalize(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)


def test_l2_normalize_unit_vector_unchanged():
    v = np.array([1.0, 0.0, 0.0])
    assert np.allclose(nm.l2_normalize(v), v, atol=1e-15)


def test_l2_normalize_random_row_unit_norm():
    rng = np.random.default_rng(11)
    v = rng.normal(size=128)
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
        nm.l2_normalize(np.zeros(8))
    with pytest.raises(nm.DegenerateNormError):
        nm.l2_normalize(np.vstack([np.ones(4), np.zeros(4)]))


def test_l2_normalize_gradient():
    rng = np.random.default_rng(2)
    v = rng.normal(size=6)
    w = rng.normal(size=6)
    report = nm.grad_check(lambda x: nm.dot(nm.l2_normalize(x), w), [v], step=1e-5, tol=1e-7)
    assert report.passed, str(report)


def test_mean_rows_permutation_bit_exact():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 8))
    base = nm.mean_rows(x)
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert nm.mean_rows(x[list(perm)]).tobytes() == base.tobytes()


def test_mean_rows_gradient():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=5)
    report = nm.grad_check(lambda a: nm.dot(nm.mean_rows(a), w), [x], step=1e-5, tol=1e-8)
    assert report.passed, str(report)


def test_concat_and_stack_grads():
    rng = np.random.default_rng(17)
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    w = rng.normal(size=6)
    w2 = rng.normal(size=3)

    def f(av, bv):
        flat = nm.concat([av, bv])
        stacked = nm.reshape(flat, (2, 3))
        return nm.add(nm.dot(flat, w), nm.dot(nm.mean_rows(stacked), w2))

    report = nm.grad_check(f, [a, b], step=1e-5, tol=1e-8)
    assert report.passed, str(report)


def test_concat_accepts_scalars():
    s = nm.dot(np.ones(2), np.ones(2))
    out = nm.concat([s, np.array([1.0, 2.0])])
    assert np.array_equal(out, [2.0, 1.0, 2.0])


def test_concat_columns_values_and_gradient():
    rng = np.random.default_rng(19)
    col = rng.normal(size=4)
    block = rng.normal(size=(4, 3))
    out = nm.concat([col, block, col])
    assert np.array_equal(out, np.column_stack([col, block, col]))
    assert nm.concat([block, block]).shape == (4, 6)
    w = rng.normal(size=(4, 5))

    def f(c, m):
        return total(nm.relu(nm.add(nm.concat([c, m, nm.scale(c, 2.0)]), w)))

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
        assert out[item].tobytes() == nm.mean_rows(x[item]).tobytes()
        assert nm.mean_rows(x[:, [2, 0, 1]])[item].tobytes() == out[item].tobytes()
    w = rng.normal(size=(4, 6))
    report = nm.grad_check(lambda a: total(nm.relu(nm.add(nm.mean_rows(a), w))), [x],
                           step=1e-5, tol=1e-8)
    assert report.passed, str(report)


def test_slice_rows_gradient_and_full_slice():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(6, 3))
    w = rng.normal(size=(2, 3))

    def f(a):
        top = nm.slice_rows(a, 1, 3)
        return nm.add(total(nm.relu(nm.add(top, w))), total(nm.slice_rows(a, 4, 6)))

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
    # a vector with one label is a batch of one
    assert float(nm.softmax_cross_entropy(logits[2], labels[2])) == pytest.approx(
        naive_cross_entropy(logits[2:3], labels[2:3]), abs=1e-12)


def test_softmax_cross_entropy_is_stable():
    rows = np.array([[1000.0, 1000.0], [-1000.0, -1000.0]])
    assert abs(float(nm.softmax_cross_entropy(rows, [0, 1])) - np.log(2.0)) < 1e-12


def test_softmax_cross_entropy_label_vector_gradient():
    rng = np.random.default_rng(37)
    logits = rng.normal(size=(5, 4))
    labels = np.array([0, 3, 1, 1, 2])
    w = rng.normal(size=(4, 4))
    report = nm.grad_check(lambda x: nm.softmax_cross_entropy(nm.matmul(x, w), labels),
                           [logits], step=1e-5, tol=1e-8)
    assert report.passed, str(report)
    with pytest.raises(nm.ShapeMismatchError):
        nm.softmax_cross_entropy(logits, labels[:3])


def test_softmax_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        nm.softmax_cross_entropy(np.zeros(4), 4)


def test_ops_are_deterministic():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    v = rng.normal(size=7)
    runs = []
    for _ in range(2):
        runs.append((
            nm.matmul(a, b).tobytes(),
            nm.mean_rows(a).tobytes(),
            nm.l2_normalize(a).tobytes(),
            np.asarray(nm.softmax_cross_entropy(v, 3)).tobytes(),
        ))
    assert runs[0] == runs[1]


def test_plain_arrays_take_plain_path():
    out = nm.matmul(np.eye(2), np.ones((2, 2)))
    assert isinstance(out, np.ndarray)
    var_out = nm.matmul(nm.Var(np.eye(2)), np.ones((2, 2)))
    assert isinstance(var_out, nm.Var)


def test_docstring_op_list_names_every_op():
    # an op is a public function that records a tape node through _make
    ops = {name for name, fn in inspect.getmembers(nm, inspect.isfunction)
           if fn.__module__ == nm.__name__ and not name.startswith("_")
           and "_make(" in inspect.getsource(fn)}
    listed = nm.__doc__.split("Supported op set:")[1].split(".")[0]
    listed = {name.strip() for name in re.sub(r"\([^)]*\)", "", listed).split(",")}
    assert listed == ops
