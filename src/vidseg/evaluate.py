"""Downstream evaluation on the frozen query encoder: linear probing,
nearest-neighbour retrieval, order-prediction accuracy, and the ablation
runner that sweeps loss toggles or segment counts over seeds."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import model, synth, trainer

_EVAL_STREAM = 21
# the float64 frame rows one encode block widens: 256 rows of 16x16 frames
_BLOCK_BYTES = 256 * 16 * 16 * 8


@dataclass(frozen=True)
class ProbeConfig:
    SECTION: ClassVar[str] = "probe"
    iterations: int = 500
    l2_penalty: float = 1e-3
    learning_rate: float = 1.0
    frames: int = 8  # capped at the video length during extraction

    def __post_init__(self):
        for name in ("iterations", "frames"):
            if getattr(self, name) < 1:
                raise ValueError(f"probe.{name} must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("probe.learning_rate must be finite and > 0")
        if not 0 <= self.l2_penalty < math.inf:
            raise ValueError("probe.l2_penalty must be finite and >= 0")


@dataclass(frozen=True)
class RetrievalConfig:
    SECTION: ClassVar[str] = "retrieval"
    ks: tuple = (1, 5, 10)

    def __post_init__(self):
        if not self.ks or min(self.ks) < 1:
            raise ValueError(f"retrieval.ks must list values >= 1, got {list(self.ks)}")


@dataclass
class FeatureTable:
    ids: np.ndarray
    labels: np.ndarray
    features: np.ndarray  # (n, D)

    def __post_init__(self):
        if len(set(self.ids.tolist())) != len(self.ids):
            raise ValueError("feature table ids must be unique")
        if self.features.shape[0] != self.ids.shape[0]:
            raise ValueError("feature row count does not match ids")


def build_feature_table(params, split: synth.Split, n_frames):
    """The FeatureTable of a split: each video's mean encoder feature over
    n_frames uniformly spaced, un-augmented frames (capped at the video
    length).

    The picked frames are encoded in blocks of whole videos (_video_blocks),
    so only one block at a time is widened to float64 and encoded, and peak
    memory stays bounded however long the split is. A row's encoding does not
    depend on the other rows of its matrix product, so the features are the
    bytes of one encode over the whole split, except that a one-row product
    is a matrix-vector product, which rounds apart: no block is a single row
    unless the whole split is.

    Projection heads are deliberately not applied: downstream tasks consume
    the pretrained encoder only.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    n, t_count = split.frames.shape[:2]
    n_frames = min(n_frames, t_count)
    indices = np.arange(n_frames) * t_count // n_frames
    pixels = math.prod(split.frames.shape[2:])
    feats = np.empty((n, params["encoder.fc2.bias"].shape[0]))
    for start, stop in _video_blocks(n, n_frames, pixels):
        rows = split.frames[start:stop, indices].reshape((stop - start) * n_frames, pixels)
        encoded = np.asarray(model.encode(params, rows))
        np.mean(encoded.reshape(stop - start, n_frames, -1), axis=1, out=feats[start:stop])
    return FeatureTable(ids=split.ids, labels=split.labels, features=feats)


def _video_blocks(n, n_frames, pixels):
    """[start, stop) ranges of whole videos that tile range(n): as few as
    keep each block's float64 frame rows within _BLOCK_BYTES (or one video
    when a video's rows exceed it), with sizes differing by at most one
    video. A block may always take three rows, so with n_frames = 1 an even
    split of two or more videos never leaves a one-row block."""
    per_block = max(3, _BLOCK_BYTES // (8 * pixels)) // n_frames or 1
    count = max(1, -(-n // per_block))
    edges = np.arange(count + 1) * n // count
    return zip(edges[:-1].tolist(), edges[1:].tolist())


def feature_tables(params, train: synth.Split, test: synth.Split, n_frames):
    """The train and test feature tables that probing and retrieval share."""
    return (build_feature_table(params, train, n_frames),
            build_feature_table(params, test, n_frames))


def linear_probe(train: FeatureTable, test: FeatureTable, cfg: ProbeConfig):
    """Top-1 accuracy of a multinomial logistic probe on frozen features.

    Full-batch gradient descent from a zero init, with features centered on
    the train mean and scaled by one global factor, so the probe is invariant
    to orthogonal rotations of the feature space.
    """
    if train.features.shape[1] != test.features.shape[1]:
        raise ValueError("train and test feature widths differ")
    class_list, y = np.unique(train.labels, return_inverse=True)
    missing = np.setdiff1d(test.labels, class_list)
    if missing.size:
        raise ValueError(f"classes {missing.tolist()} present in test but absent in train")
    n_classes = len(class_list)

    mu = train.features.mean(axis=0)
    x_train = train.features - mu
    scale = float(np.mean(np.linalg.norm(x_train, axis=1)))
    if scale > 0:
        x_train = x_train / scale
    x_test = (test.features - mu) / scale if scale > 0 else test.features - mu

    n, d = x_train.shape
    weights = np.zeros((n_classes, d))
    bias = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(cfg.iterations):
        logits = x_train @ weights.T + bias
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        grad_logits = (probs - onehot) / n
        weights -= cfg.learning_rate * (grad_logits.T @ x_train + cfg.l2_penalty * weights)
        bias -= cfg.learning_rate * grad_logits.sum(axis=0)

    predictions = np.argmax(x_test @ weights.T + bias, axis=1)
    return float(np.mean(class_list[predictions] == test.labels))


def retrieval_recall(queries: FeatureTable, gallery: FeatureTable, ks):
    """R@k over cosine similarity: the fraction of queries whose top-k gallery
    neighbours include at least one same-class item. Gallery entries sharing a
    query's video id are excluded: they rank last and never count as hits."""
    if queries.features.shape[1] != gallery.features.shape[1]:
        raise ValueError("query and gallery feature widths differ")
    if gallery.features.shape[0] == 0:
        raise ValueError("gallery is empty")
    ks = sorted(int(k) for k in ks)
    if ks[0] < 1:
        raise ValueError("k must be >= 1")
    if ks[-1] > gallery.features.shape[0]:
        raise ValueError(f"k={ks[-1]} exceeds gallery size {gallery.features.shape[0]}")

    def normalized(rows):
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        return rows / np.maximum(norms, 1e-30)

    sims = normalized(queries.features) @ normalized(gallery.features).T
    same_id = queries.ids[:, None] == gallery.ids[None, :]
    sims = np.where(same_id, -np.inf, sims)
    ranked = np.argsort(-sims, axis=1)
    hits = ((gallery.labels[ranked] == queries.labels[:, None])
            & ~np.take_along_axis(same_id, ranked, axis=1))
    return {k: float(np.mean(hits[:, :k].any(axis=1))) for k in ks}


def order_prediction_accuracy(query_params, key_params, split: synth.Split,
                              cfg: trainer.TrainConfig, n_samples=200, seed=0):
    """Accuracy of the trained order classifier on n_samples freshly drawn
    pairs (the split's videos taken in turn), drawn from one stream and
    scored with one batched order_logits call.

    The pairs are the tuples of a training batch (trainer.sample_batch with
    the order loss alone), which also draws the frame-level views; only the
    tuple frames are augmented. An empty split or n_samples < 1 is a
    ValueError."""
    if len(split) == 0 or n_samples < 1:
        raise ValueError(f"order_prediction_accuracy: needs a non-empty split and n_samples "
                         f">= 1, got {len(split)} videos and n_samples={n_samples}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _EVAL_STREAM]))
    rows = np.arange(n_samples) % len(split)
    batch = trainer.sample_batch(split.frames, rows, trainer.with_losses(cfg, ("order",)), rng)
    logits = model.order_logits(query_params, key_params, batch.anchors, batch.positives,
                                cfg.model_config())
    return float(np.mean(np.argmax(logits, axis=1) == batch.order_labels))


def evaluate_encoder(query_params, key_params, train: synth.Split, test: synth.Split,
                     probe_cfg: ProbeConfig, retrieval_cfg: RetrievalConfig):
    """Shared protocol behind the ablation runner and the CLI commands."""
    train_table, test_table = feature_tables(query_params, train, test, probe_cfg.frames)
    accuracy = linear_probe(train_table, test_table, probe_cfg)
    recalls = retrieval_recall(test_table, train_table, retrieval_cfg.ks)
    return accuracy, recalls


@dataclass(frozen=True)
class AblationEntry:
    """One grid point: a named set of loss toggles and/or a segment count."""

    name: str
    losses: tuple | None = None  # subset of ("inter", "intra", "segment", "order")
    segments: int | None = None

    def apply(self, cfg: trainer.TrainConfig):
        out = cfg
        if self.losses is not None:
            unknown = set(self.losses) - set(trainer.LOSS_NAMES)
            if unknown:
                raise ValueError(f"unknown losses {sorted(unknown)}")
            out = trainer.with_losses(out, self.losses)
        if self.segments is not None:
            out = replace(out, segments=self.segments)
        return out


ABLATION_COLUMNS = ("configuration", "seed", "probe_accuracy", "recall_at_1")


def run_ablation(base_cfg: trainer.TrainConfig, entries, seeds,
                 probe_cfg: ProbeConfig = ProbeConfig(),
                 retrieval_cfg: RetrievalConfig = RetrievalConfig(ks=(1,))):
    """Pretrain/probe/retrieve each (entry, seed) pair.

    Returns (rows, summary) where rows hold one record per run and summary
    one per configuration with the median probe accuracy and R@1. Every
    derived config is validated before any training starts, a failure naming
    its grid entry, and each distinct dataset is generated once.
    """
    configs = []
    for entry in entries:
        try:
            cfg = entry.apply(base_cfg)
            cfg.validate()
        except ValueError as err:
            raise ValueError(f"grid entry '{entry.name}': {err}") from None
        configs.append((entry.name, cfg))
    rows = []
    by_name = {}
    datasets = {}
    for name, cfg in configs:
        if cfg.dataset not in datasets:
            datasets[cfg.dataset] = synth.generate_dataset(cfg.dataset)
        for seed in seeds:
            run_cfg = replace(cfg, seed=int(seed))
            state, train, test = trainer.fit(run_cfg, dataset=datasets[cfg.dataset])
            accuracy, recalls = evaluate_encoder(state.query, state.key, train, test,
                                                 probe_cfg, retrieval_cfg)
            r1 = recalls[min(recalls)]
            rows.append((name, int(seed), accuracy, r1))
            by_name.setdefault(name, []).append((accuracy, r1))
    summary = [(name, "median",
                statistics.median(a for a, _ in vals),
                statistics.median(r for _, r in vals))
               for name, vals in by_name.items()]
    return rows, summary
