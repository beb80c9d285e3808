"""The four training objectives, all expressed as noise-contrastive or
cross-entropy terms over unit embeddings, each averaged over a batch.

Queries are (B, E) rows; one sample is a batch of one. They may be tape Vars
(gradients flow) or plain arrays. Positives have the query's shape and may be
either too; memory-bank negatives are always plain arrays, shared by every
row and treated as constants. InfoNCE takes the MoCo queue form as one
tape node, numerics.bank_cross_entropy: the query rows are scaled by
1/temperature once, one (B, E) @ (E, M) product against the bank gives the
negative logits in one (B, M) buffer, one row-wise dot per positive gives
the positive logits, and the bank's log-sum-exp is taken once per row for
all P positives. Callers are responsible for unit-normalizing embeddings;
the losses only take dot products, so slightly perturbed inputs
(finite-difference probes) are fine.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm


def _inverse(temperature):
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return 1.0 / temperature


def _bank_terms(query, positives, negatives, inv):
    """Batch-mean InfoNCE of the query rows against each of the positives and
    the shared negatives, averaged over the positives: one (B, E) @ (E, M)
    bank product and one bank log-sum-exp serve them all. A constant zero when
    there are no negatives."""
    if negatives is None or len(negatives) == 0:
        return np.float64(0.0)
    return nm.bank_cross_entropy(query, positives, negatives, inv)


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
    logits = nm.concat([nm.dot(query, positive_same), nm.dot(query, other_b),
                        nm.dot(query, other_c)])
    return nm.softmax_cross_entropy(nm.scale(logits, inv), np.zeros(query.shape[0], dtype=int))


def loss_segment(query_tuple, positive_tuple, negatives, temperature):
    """Video-level discrimination between tuple embeddings against the bank."""
    return info_nce(query_tuple, positive_tuple, negatives, temperature)


def loss_order(logits, labels):
    """Batch-mean cross-entropy of the 4-way order prediction: (B, 4) logits
    and (B,) labels."""
    return nm.softmax_cross_entropy(logits, labels)
