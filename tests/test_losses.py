import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidseg import losses
from vidseg import numerics as nm


def unit(rng, d=8):
    """One unit (1, d) row: a batch of one."""
    v = rng.normal(size=(1, d))
    return v / np.linalg.norm(v)


def unit_rows(rng, n, d=8):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def nce_oracle(q, p, negatives, temperature):
    """Independent (M+1)-way cross-entropy of one (E,) or (1, E) query and
    positive: positive in slot 0."""
    q, p = np.ravel(q), np.ravel(p)
    sims = np.concatenate([[q @ p], negatives @ q]) / temperature
    shifted = sims - sims.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    return -np.log(probs[0])


def test_info_nce_no_negatives_is_zero():
    rng = np.random.default_rng(0)
    q = unit(rng)
    assert losses.info_nce(q, q, None, 0.07) == 0.0
    assert losses.info_nce(q, q, np.zeros((0, 8)), 0.07) == 0.0


def test_info_nce_closed_form():
    q = np.zeros((1, 4))
    q[0, 0] = 1.0
    n = np.zeros((1, 4))
    n[0, 1] = 1.0
    out = float(losses.info_nce(q, q, n, 1.0))
    assert abs(out - np.log(1.0 + np.exp(-1.0))) < 1e-12


def test_info_nce_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q, p = unit(rng), unit(rng)
        negs = unit_rows(rng, int(rng.integers(1, 32)))
        tau = float(rng.choice([0.05, 0.07, 0.2, 1.0]))
        assert abs(float(losses.info_nce(q, p, negs, tau)) - nce_oracle(q, p, negs, tau)) < 1e-10


def test_info_nce_rejects_bad_temperature():
    rng = np.random.default_rng(2)
    q = unit(rng)
    with pytest.raises(ValueError):
        losses.info_nce(q, q, unit_rows(rng, 2), 0.0)


def test_info_nce_rejects_vector_query():
    rng = np.random.default_rng(2)
    q = unit(rng)[0]
    with pytest.raises(nm.ShapeMismatchError):
        losses.info_nce(q, q, unit_rows(rng, 2), 0.07)


def test_info_nce_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q, p = unit(rng), unit(rng)
        negs = unit_rows(rng, 6)
        base = float(losses.info_nce(q, p, negs, 0.2))
        assert base >= 0.0
        perm = rng.permutation(6)
        assert abs(float(losses.info_nce(q, p, negs[perm], 0.2)) - base) < 1e-12


def test_info_nce_monotonicity():
    rng = np.random.default_rng(4)
    q, p = unit(rng), unit(rng)
    negs = unit_rows(rng, 4)
    eps = 1e-6

    base = nce_oracle(q, p, negs, 0.2)
    # increasing a negative similarity increases the loss
    bumped = negs.copy()
    bumped[2] = bumped[2] + eps * q[0]
    assert nce_oracle(q, p, bumped, 0.2) > base
    # increasing the positive similarity decreases the loss
    assert nce_oracle(q, p + eps * q, negs, 0.2) < base


def test_loss_inter_identical_positives_collapse():
    rng = np.random.default_rng(5)
    q, p = unit(rng), unit(rng)
    negs = unit_rows(rng, 8)
    avg = float(losses.loss_inter(q, p, p, p, negs, 0.07))
    single = float(losses.info_nce(q, p, negs, 0.07))
    assert abs(avg - single) < 1e-12


def test_loss_inter_empty_bank_zero_and_hand_average():
    rng = np.random.default_rng(6)
    q, p1, p2, p3 = unit(rng), unit(rng), unit(rng), unit(rng)
    assert float(losses.loss_inter(q, p1, p2, p3, np.zeros((0, 8)), 0.07)) == 0.0
    negs = unit_rows(rng, 10)
    expected = np.mean([nce_oracle(q, p, negs, 0.07) for p in (p1, p2, p3)])
    assert abs(float(losses.loss_inter(q, p1, p2, p3, negs, 0.07)) - expected) < 1e-10


def test_loss_intra_closed_form_and_symmetry():
    q = np.zeros((1, 4))
    q[0, 0] = 1.0
    o1 = np.array([[0.0, 1.0, 0.0, 0.0]])
    o2 = np.array([[0.0, 0.0, 1.0, 0.0]])
    out = float(losses.loss_intra(q, q, o1, o2, 1.0))
    assert abs(out - np.log(1.0 + 2.0 * np.exp(-1.0))) < 1e-12
    rng = np.random.default_rng(7)
    q, p, a, b = unit(rng), unit(rng), unit(rng), unit(rng)
    assert abs(float(losses.loss_intra(q, p, a, b, 0.2))
               - float(losses.loss_intra(q, p, b, a, 0.2))) < 1e-12


def test_loss_intra_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        q, p, a, b = unit(rng), unit(rng), unit(rng), unit(rng)
        expected = nce_oracle(q, p, np.concatenate([a, b]), 0.07)
        assert abs(float(losses.loss_intra(q, p, a, b, 0.07)) - expected) < 1e-10


def test_loss_segment_reduces_to_closed_form():
    q = np.zeros((1, 4))
    q[0, 0] = 1.0
    bank = np.zeros((1, 4))
    bank[0, 2] = 1.0
    assert abs(float(losses.loss_segment(q, q, bank, 1.0))
               - np.log(1.0 + np.exp(-1.0))) < 1e-12
    assert float(losses.loss_segment(q, q, np.zeros((0, 4)), 1.0)) == 0.0


def test_loss_segment_matches_oracle():
    rng = np.random.default_rng(9)
    q, p = unit(rng), unit(rng)
    negs = unit_rows(rng, 64)
    assert abs(float(losses.loss_segment(q, p, negs, 0.07))
               - nce_oracle(q, p, negs, 0.07)) < 1e-10


def test_loss_order_uniform_and_peaked():
    assert abs(float(losses.loss_order(np.zeros((1, 4)), [1])) - np.log(4.0)) < 1e-12
    peaked = float(losses.loss_order(np.array([[10.0, 0.0, 0.0, 0.0]]), [0]))
    assert abs(peaked - (np.log(1.0 + 3.0 * np.exp(-10.0)))) < 1e-12
    assert peaked < 2e-4


def test_loss_order_oracle_and_label_validation():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(1, 4))
    label = 2
    shifted = logits[0] - logits.max()
    expected = -np.log(np.exp(shifted[label]) / np.exp(shifted).sum())
    assert abs(float(losses.loss_order(logits, [label])) - expected) < 1e-12
    with pytest.raises(ValueError):
        losses.loss_order(logits, [4])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    negs = unit_rows(rng, 5)

    def f_nce(q, p):
        return losses.info_nce(q, p, negs, 0.07)

    def f_inter(q, p1, p2, p3):
        return losses.loss_inter(q, p1, p2, p3, negs, 0.07)

    def f_intra(q, p, a, b):
        return losses.loss_intra(q, p, a, b, 0.07)

    def f_total(q, p1, p2, p3):
        total = nm.add(losses.loss_inter(q, p1, p2, p3, negs, 0.07),
                       losses.loss_intra(q, p1, p2, p3, 0.07))
        total = nm.add(total, losses.loss_segment(q, p1, negs, 0.07))
        return nm.add(total, losses.loss_order(
            nm.concat([nm.dot(q, p1), nm.dot(q, p2), nm.dot(q, p3), nm.dot(p2, p3)]), [1]))

    for seed in range(10):
        r = np.random.default_rng(seed)
        q, p1, p2, p3 = unit(r), unit(r), unit(r), unit(r)
        for f, args in ((f_nce, [q, p1]), (f_inter, [q, p1, p2, p3]),
                        (f_intra, [q, p1, p2, p3]), (f_total, [q, p1, p2, p3])):
            report = nm.grad_check(f, args, step=1e-5, tol=1e-4)
            assert report.passed, f"seed {seed}: {report}"


def test_sum_gradient_equals_gradient_of_parts():
    rng = np.random.default_rng(12)
    negs = unit_rows(rng, 4)
    q, p = unit(rng), unit(rng)

    _, g_sum = nm.forward_backward(
        lambda qv: nm.add(losses.info_nce(qv, p, negs, 0.1),
                          losses.loss_segment(qv, p, negs, 0.1)), [q])
    _, g_a = nm.forward_backward(lambda qv: losses.info_nce(qv, p, negs, 0.1), [q])
    _, g_b = nm.forward_backward(lambda qv: losses.loss_segment(qv, p, negs, 0.1), [q])
    assert np.allclose(g_sum[0], g_a[0] + g_b[0], atol=1e-12)


def test_batched_losses_are_means_of_per_row_losses():
    rng = np.random.default_rng(13)
    b = 5
    q, p1, p2, p3 = (unit_rows(rng, b) for _ in range(4))
    negs = unit_rows(rng, 12)
    cases = [
        (losses.info_nce(q, p1, negs, 0.07),
         [nce_oracle(q[i], p1[i], negs, 0.07) for i in range(b)]),
        (losses.loss_segment(q, p2, negs, 0.2),
         [nce_oracle(q[i], p2[i], negs, 0.2) for i in range(b)]),
        (losses.loss_inter(q, p1, p2, p3, negs, 0.07),
         [np.mean([nce_oracle(q[i], p[i], negs, 0.07) for p in (p1, p2, p3)]) for i in range(b)]),
        (losses.loss_intra(q, p1, p2, p3, 0.07),
         [nce_oracle(q[i], p1[i], np.stack([p2[i], p3[i]]), 0.07) for i in range(b)]),
    ]
    for batched, per_row in cases:
        assert abs(float(batched) - np.mean(per_row)) < 1e-10
    logits = rng.normal(size=(b, 4))
    labels = np.array([0, 3, 2, 1, 3])
    per_row = [float(losses.loss_order(logits[i:i + 1], labels[i:i + 1])) for i in range(b)]
    assert abs(float(losses.loss_order(logits, labels)) - np.mean(per_row)) < 1e-12
    assert losses.loss_inter(q, p1, p2, p3, np.zeros((0, 8)), 0.07) == 0.0
    with pytest.raises(ValueError):
        losses.loss_order(logits, np.array([0, 4, 0, 0, 0]))


def test_batched_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(14)
    negs = unit_rows(rng, 6)
    q, p1, p2, p3 = (unit_rows(rng, 3) for _ in range(4))

    def f(qv, a, b, c):
        total = nm.add(losses.loss_inter(qv, a, b, c, negs, 0.1),
                       losses.loss_intra(qv, a, b, c, 0.1))
        return nm.add(total, losses.loss_segment(qv, b, negs, 0.1))

    report = nm.grad_check(f, [q, p1, p2, p3], step=1e-5, tol=1e-4)
    assert report.passed, str(report)


def reference_bank_terms(query, positives, negatives, inv):
    """The per-positive path bank_cross_entropy replaced: one (B, 1 + M)
    softmax cross-entropy per positive against the shared bank logits,
    summed over the positives."""
    if negatives is None or negatives.shape[0] == 0:
        return np.float64(0.0)
    zeros = np.zeros(query.shape[0], dtype=int)
    neg = nm.scale(nm.matmul(query, np.asarray(negatives).T), inv)
    total = None
    for positive in positives:
        logits = nm.concat([nm.scale(nm.dot(query, positive), inv), neg])
        term = nm.softmax_cross_entropy(logits, zeros)
        total = term if total is None else nm.add(total, term)
    return total


def assert_relative(got, want, bound, what):
    """Largest difference relative to the largest reference entry, floored at
    1 as in grad_check: where a positive dominates its row, the reference's
    own softmax(p)[0] - 1 cancels and is off by about 1e-16 absolute."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= bound * max(1.0, np.max(np.abs(want))), what


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 64),
       st.sampled_from([0.05, 0.07, 0.2, 1.0]), st.integers(0, 2**32 - 1))
def test_bank_terms_match_per_positive_reference(b, p, m, tau, seed):
    rng = np.random.default_rng(seed)
    query = unit_rows(rng, b)
    positives = [unit_rows(rng, b) for _ in range(p)]
    negatives = unit_rows(rng, m)

    def run(bank_terms):
        qv, pvs = nm.Var(query), [nm.Var(x) for x in positives]
        out = bank_terms(qv, pvs, negatives, 1.0 / tau)
        out.backward()
        return out.value, qv.grad, [v.grad for v in pvs]

    value, query_grad, positive_grads = run(losses._bank_terms)
    want_value, want_query, want_positives = run(
        lambda *args: nm.scale(reference_bank_terms(*args), 1.0 / p))
    assert_relative(value, want_value, 1e-12, "loss")
    assert_relative(query_grad, want_query, 1e-12, "query gradient")
    for j, (got, want) in enumerate(zip(positive_grads, want_positives)):
        assert_relative(got, want, 1e-12, f"positive {j} gradient")


def test_bank_cross_entropy_matches_finite_differences():
    rng = np.random.default_rng(15)
    for b, p, m in ((1, 1, 1), (3, 2, 5), (4, 3, 9)):
        negatives = rng.normal(size=(m, 4))

        def f(query, *positives):
            return nm.bank_cross_entropy(query, list(positives), negatives, 1.5)

        report = nm.grad_check(f, [rng.normal(size=(b, 4)) for _ in range(1 + p)],
                               step=1e-5, tol=1e-6)
        assert report.passed, f"{(b, p, m)}: {report}"


def bank_oracle(query, positives, negatives, inv):
    """Loss and query/positive gradients from one max-shifted softmax per
    (row, positive)."""
    b, p = query.shape[0], len(positives)
    scaled = query * inv
    loss = 0.0
    grad_q = np.zeros_like(query)
    grad_p = [np.zeros_like(x) for x in positives]
    for i in range(b):
        for j in range(p):
            row = np.concatenate([[scaled[i] @ positives[j][i]], negatives @ scaled[i]])
            shifted = row - row.max()
            soft = np.exp(shifted) / np.exp(shifted).sum()
            loss += row.max() + np.log(np.exp(shifted).sum()) - row[0]
            grad_q[i] += ((soft[0] - 1.0) * positives[j][i] + soft[1:] @ negatives) * inv
            grad_p[j][i] = (soft[0] - 1.0) * scaled[i]
    return loss / (b * p), grad_q / (b * p), [g / (b * p) for g in grad_p]


def test_bank_cross_entropy_is_stable():
    # logits of +-1000 through inv: exp overflows unless every softmax is shifted
    rng = np.random.default_rng(17)
    query, negatives = unit_rows(rng, 3, 4), unit_rows(rng, 5, 4)
    positives = [unit_rows(rng, 3, 4), query.copy()]
    value, (grad_q, *grad_p) = nm.forward_backward(
        lambda q, *ps: nm.bank_cross_entropy(q, list(ps), negatives, 1000.0),
        [query, *positives])
    want, want_q, want_p = bank_oracle(query, positives, negatives, 1000.0)
    assert np.isfinite(value) and np.all(np.isfinite(grad_q))
    assert all(np.all(np.isfinite(g)) for g in grad_p)
    assert_relative(value, want, 1e-12, "loss")
    assert_relative(grad_q, want_q, 1e-12, "query gradient")
    for j, (got, want_j) in enumerate(zip(grad_p, want_p)):
        assert_relative(got, want_j, 1e-12, f"positive {j} gradient")


def test_bank_cross_entropy_single_positive_is_softmax_cross_entropy():
    rng = np.random.default_rng(16)
    query, positive, negatives = (rng.normal(size=shape) for shape in ((5, 4), (5, 4), (7, 4)))

    def joint(q, p):
        scaled = nm.scale(q, 2.5)
        logits = nm.concat([nm.dot(scaled, p), nm.matmul(scaled, negatives.T)])
        return nm.softmax_cross_entropy(logits, np.zeros(5, dtype=int))

    value, grads = nm.forward_backward(
        lambda q, p: nm.bank_cross_entropy(q, [p], negatives, 2.5), [query, positive])
    want, want_grads = nm.forward_backward(joint, [query, positive])
    assert_relative(value, want, 1e-12, "loss")
    assert_relative(grads[0], want_grads[0], 1e-12, "query gradient")
    assert_relative(grads[1], want_grads[1], 1e-12, "positive gradient")


def test_bank_cross_entropy_backward_reuses_its_buffer():
    # (B, M) = (4, 50000) is 1.6 MB; backward allocates only (B, E) and (B, P) arrays
    rng = np.random.default_rng(18)
    query = nm.Var(unit_rows(rng, 4, 8))
    out = nm.bank_cross_entropy(query, [unit_rows(rng, 4, 8)], unit_rows(rng, 50000, 8), 14.0)
    tracemalloc.start()
    try:
        out.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 50000 * 8 // 4
    assert np.all(np.isfinite(query.grad))
    with pytest.raises(nm.TapeError, match="re-record"):
        nm.add(out, np.float64(0.0)).backward()


@pytest.mark.parametrize("query, positives, negatives", [
    (np.zeros((3, 4)), [np.zeros((2, 4))], np.zeros((5, 4))),
    (np.zeros((3, 4)), [np.zeros(4)], np.zeros((5, 4))),
    (np.zeros((3, 4)), [np.zeros((3, 4))], np.zeros(4)),
    (np.zeros((3, 4)), [np.zeros((3, 4))], np.zeros((5, 3))),
    (np.zeros((3, 4)), [], np.zeros((5, 4))),
], ids=["batch_mismatch", "positives_1d", "negatives_1d", "bank_width", "no_positives"])
def test_bank_cross_entropy_rejects_bad_shapes(query, positives, negatives):
    with pytest.raises(nm.ShapeMismatchError) as err:
        nm.bank_cross_entropy(query, positives, negatives, 1.0)
    assert err.value.op == "bank_cross_entropy"
    assert err.value.shapes == (query.shape, *[p.shape for p in positives], negatives.shape)
