import numpy as np
import pytest

from vidseg import losses
from vidseg import numerics as nm


def unit(rng, d=8):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def unit_rows(rng, n, d=8):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def nce_oracle(q, p, negatives, temperature):
    """Independent (M+1)-way cross-entropy: positive in slot 0."""
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
    q = np.zeros(4)
    q[0] = 1.0
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
    bumped[2] = bumped[2] + eps * q
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
    q = np.zeros(4)
    q[0] = 1.0
    o1 = np.array([0.0, 1.0, 0.0, 0.0])
    o2 = np.array([0.0, 0.0, 1.0, 0.0])
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
        expected = nce_oracle(q, p, np.stack([a, b]), 0.07)
        assert abs(float(losses.loss_intra(q, p, a, b, 0.07)) - expected) < 1e-10


def test_loss_segment_reduces_to_closed_form():
    q = np.zeros(4)
    q[0] = 1.0
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
    assert abs(float(losses.loss_order(np.zeros(4), 1)) - np.log(4.0)) < 1e-12
    peaked = float(losses.loss_order(np.array([10.0, 0.0, 0.0, 0.0]), 0))
    assert abs(peaked - (np.log(1.0 + 3.0 * np.exp(-10.0)))) < 1e-12
    assert peaked < 2e-4


def test_loss_order_oracle_and_label_validation():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=4)
    label = 2
    shifted = logits - logits.max()
    expected = -np.log(np.exp(shifted[label]) / np.exp(shifted).sum())
    assert abs(float(losses.loss_order(logits, label)) - expected) < 1e-12
    with pytest.raises(ValueError):
        losses.loss_order(logits, 4)


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
            nm.concat([nm.dot(q, p1), nm.dot(q, p2), nm.dot(q, p3), nm.dot(p2, p3)]), 1))

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
    per_row = [float(losses.loss_order(logits[i], labels[i])) for i in range(b)]
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
