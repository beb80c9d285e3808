"""The four training objectives, all expressed as noise-contrastive or
cross-entropy terms over unit embeddings, each averaged over a batch.

Queries are (B, E) rows, or one (E,) vector as a batch of one. They may be
tape Vars (gradients flow) or plain arrays. Positives have the query's shape
and may be either too; memory-bank negatives are always plain arrays, shared
by every row and treated as constants. InfoNCE takes the MoCo queue form: one
(B, E) @ (E, M) product against the bank and a row-wise softmax
cross-entropy over (B, 1 + M) logits. Callers are responsible for
unit-normalizing embeddings; the losses only take dot products, so slightly
perturbed inputs (finite-difference probes) are fine.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm


def _shape(x):
    return (x.value if isinstance(x, nm.Var) else np.asarray(x)).shape


def _batch(x):
    """A (1, E) batch of one for a 1-D embedding; (B, E) rows unchanged."""
    return nm.reshape(x, (1, -1)) if len(_shape(x)) == 1 else x


def _inverse(temperature):
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return 1.0 / temperature


def _bank_terms(query, positives, negatives, inv):
    """Sum over the positives of the batch-mean InfoNCE of each against the
    shared negatives, with the bank product taken once; a constant zero when
    there are no negatives."""
    if negatives is None or _shape(negatives)[0] == 0:
        return np.float64(0.0)
    query = _batch(query)
    zeros = np.zeros(_shape(query)[0], dtype=int)
    neg = nm.scale(nm.matmul(query, np.asarray(negatives).T), inv)
    total = None
    for positive in positives:
        logits = nm.concat([nm.scale(nm.dot(query, _batch(positive)), inv), neg])
        term = nm.softmax_cross_entropy(logits, zeros)
        total = term if total is None else nm.add(total, term)
    return total


def info_nce(query, positive, negatives, temperature):
    """(M+1)-way softmax cross-entropy with the positive in slot 0, averaged
    over the query rows.

    Zero exactly when there are no negatives. Computed through log-sum-exp,
    so large similarity/temperature ratios stay stable.
    """
    return _bank_terms(query, [positive], negatives, _inverse(temperature))


def loss_inter(query, positive_same, positive_b, positive_c, negatives, temperature):
    """Frame-level discrimination against the bank, averaged over the three
    positives drawn from the same video."""
    total = _bank_terms(query, [positive_same, positive_b, positive_c], negatives,
                        _inverse(temperature))
    return nm.scale(total, 1.0 / 3.0)


def loss_intra(query, positive_same, other_b, other_c, temperature):
    """Frame-level discrimination where the other two frames of the same
    video are the only negatives (no bank): cross-entropy over (B, 3) logits."""
    inv = _inverse(temperature)
    query = _batch(query)
    # the (B, 1) first part makes the two (B,) products columns next to it
    logits = nm.concat([nm.reshape(nm.dot(query, _batch(positive_same)), (-1, 1)),
                        nm.dot(query, _batch(other_b)), nm.dot(query, _batch(other_c))])
    return nm.softmax_cross_entropy(nm.scale(logits, inv),
                                    np.zeros(_shape(query)[0], dtype=int))


def loss_segment(query_tuple, positive_tuple, negatives, temperature):
    """Video-level discrimination between tuple embeddings against the bank."""
    return info_nce(query_tuple, positive_tuple, negatives, temperature)


def loss_order(logits, labels):
    """Cross-entropy of the 4-way order prediction: (B, 4) logits and (B,)
    labels, or one logits vector and its label."""
    return nm.softmax_cross_entropy(logits, labels)
