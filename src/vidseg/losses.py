"""The four training objectives, all expressed as noise-contrastive or
cross-entropy terms over unit embeddings, each averaged over a batch.

Queries are (B, E) rows, or one (E,) vector as a batch of one. They may be
tape Vars (gradients flow) or plain arrays. Positives have the query's shape
and may be either too; memory-bank negatives are always plain arrays, shared
by every row and treated as constants. InfoNCE takes the MoCo queue form: the
query rows are scaled by 1/temperature once, one (B, E) @ (E, M) product
against the bank gives the negative logits, and one row-wise dot per positive
gives the (B, P) positive logits; numerics.bank_cross_entropy takes the bank's
log-sum-exp once per row for all P positives. Callers are responsible for
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
    """Batch-mean InfoNCE of the query rows against each of the positives and
    the shared negatives, averaged over the positives: one (B, E) @ (E, M)
    bank product and one bank log-sum-exp serve them all. A constant zero when
    there are no negatives."""
    if negatives is None or _shape(negatives)[0] == 0:
        return np.float64(0.0)
    query = nm.scale(_batch(query), inv)
    neg = nm.matmul(query, np.asarray(negatives).T)
    dots = [nm.dot(query, _batch(positive)) for positive in positives]
    # the (B, 1) first part makes the other (B,) products columns next to it
    pos = nm.concat([nm.reshape(dots[0], (-1, 1)), *dots[1:]])
    return nm.bank_cross_entropy(pos, neg)


def info_nce(query, positive, negatives, temperature):
    """(M+1)-way softmax cross-entropy with the positive in slot 0, averaged
    over the query rows.

    Zero exactly when there are no negatives. Computed through log-sum-exp,
    so large similarity/temperature ratios stay stable.
    """
    return _bank_terms(query, [positive], negatives, _inverse(temperature))


def loss_inter(query, positive_same, positive_b, positive_c, negatives, temperature):
    """Frame-level discrimination against the bank, averaged over the three
    positives drawn from the same video; the three share the bank's
    log-sum-exp."""
    return _bank_terms(query, [positive_same, positive_b, positive_c], negatives,
                       _inverse(temperature))


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
