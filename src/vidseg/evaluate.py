"""Downstream evaluation on the frozen query encoder: linear probing,
nearest-neighbour retrieval, order-prediction accuracy, and the ablation
runner that sweeps loss toggles or segment counts over seeds."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

import numpy as np

from . import model, synth, trainer

_EVAL_STREAM = 21


@dataclass(frozen=True)
class ProbeConfig:
    iterations: int = 500
    l2_penalty: float = 1e-3
    learning_rate: float = 1.0
    seed: int = 0
    frames: int = 8  # capped at the video length during extraction

    def to_flat(self):
        return {
            "probe.iterations": self.iterations,
            "probe.l2_penalty": self.l2_penalty,
            "probe.learning_rate": self.learning_rate,
            "probe.seed": self.seed,
            "probe.frames": self.frames,
        }


@dataclass(frozen=True)
class RetrievalConfig:
    ks: tuple = (1, 5, 10)

    def to_flat(self):
        return {"retrieval.ks": list(self.ks)}


@dataclass
class FeatureTable:
    ids: np.ndarray
    labels: np.ndarray
    features: np.ndarray  # (n, D)
    source: str = ""

    def __post_init__(self):
        if len(set(self.ids.tolist())) != len(self.ids):
            raise ValueError("feature table ids must be unique")
        if self.features.shape[0] != self.ids.shape[0]:
            raise ValueError("feature row count does not match ids")


def extract_video_feature(params, video: synth.Video, n_frames):
    """Mean encoder feature over uniformly spaced, un-augmented frames.

    Projection heads are deliberately not applied: downstream tasks consume
    the pretrained encoder only.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    t_count = video.frames.shape[0]
    indices = [i * t_count // n_frames for i in range(n_frames)]
    frames = video.frames[indices].reshape(len(indices), -1)
    return np.asarray(model.encode(params, frames)).mean(axis=0)


def build_feature_table(params, videos, n_frames, source=""):
    feats = np.stack([extract_video_feature(params, v, min(n_frames, v.frames.shape[0]))
                      for v in videos])
    return FeatureTable(
        ids=np.array([v.id for v in videos]),
        labels=np.array([v.class_id for v in videos]),
        features=feats,
        source=source,
    )


def feature_tables(params, train_videos, test_videos, n_frames):
    """The train and test feature tables that probing and retrieval share."""
    return (build_feature_table(params, train_videos, n_frames, "train"),
            build_feature_table(params, test_videos, n_frames, "test"))


def linear_probe(train: FeatureTable, test: FeatureTable, cfg: ProbeConfig):
    """Top-1 accuracy of a multinomial logistic probe on frozen features.

    Full-batch gradient descent from a zero init, with features centered on
    the train mean and scaled by one global factor, so the probe is invariant
    to orthogonal rotations of the feature space.
    """
    if train.features.shape[1] != test.features.shape[1]:
        raise ValueError("train and test feature widths differ")
    train_classes = set(train.labels.tolist())
    missing = set(test.labels.tolist()) - train_classes
    if missing:
        raise ValueError(f"classes {sorted(missing)} present in test but absent in train")

    class_list = sorted(train_classes)
    class_index = {c: i for i, c in enumerate(class_list)}
    n_classes = len(class_list)
    y = np.array([class_index[c] for c in train.labels])

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
    predicted_classes = np.array(class_list)[predictions]
    return float(np.mean(predicted_classes == test.labels))


def retrieval_recall(queries: FeatureTable, gallery: FeatureTable, ks):
    """R@k over cosine similarity: the fraction of queries whose top-k gallery
    neighbours include at least one same-class item. Gallery entries sharing a
    query's video id are excluded from its ranking."""
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
    hits = gallery.labels[ranked] == queries.labels[:, None]
    return {k: float(np.mean(hits[:, :k].any(axis=1))) for k in ks}


def order_prediction_accuracy(query_params, key_params, videos, cfg: trainer.TrainConfig,
                              n_samples=200, seed=0):
    """Accuracy of the trained order classifier on n_samples freshly drawn
    pairs (videos taken in turn), drawn from one stream and scored with one
    batched order_logits call."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _EVAL_STREAM]))
    batch = trainer.sample_batch([videos[i % len(videos)] for i in range(n_samples)], cfg, rng)
    logits = model.order_logits(query_params, key_params, batch.anchors, batch.positives,
                                cfg.model_config())
    return float(np.mean(np.argmax(logits, axis=1) == batch.order_labels))


def evaluate_encoder(query_params, key_params, train_videos, test_videos,
                     probe_cfg: ProbeConfig, retrieval_cfg: RetrievalConfig):
    """Shared protocol behind the ablation runner and the CLI commands."""
    train_table, test_table = feature_tables(query_params, train_videos, test_videos,
                                             probe_cfg.frames)
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
                raise ValueError(f"unknown losses in grid entry '{self.name}': {sorted(unknown)}")
            out = replace(out,
                          use_inter="inter" in self.losses,
                          use_intra="intra" in self.losses,
                          use_segment="segment" in self.losses,
                          use_order="order" in self.losses)
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
    derived config is validated before any training starts.
    """
    configs = [(entry.name, entry.apply(base_cfg)) for entry in entries]
    for _, cfg in configs:
        cfg.validate()
    rows = []
    by_name = {}
    for name, cfg in configs:
        for seed in seeds:
            run_cfg = replace(cfg, seed=int(seed))
            state, train_videos, test_videos = trainer.fit(run_cfg)
            accuracy, recalls = evaluate_encoder(state.query, state.key,
                                                 train_videos, test_videos,
                                                 probe_cfg, retrieval_cfg)
            r1 = recalls[min(recalls)]
            rows.append((name, int(seed), accuracy, r1))
            by_name.setdefault(name, []).append((accuracy, r1))
    summary = [(name, "median",
                statistics.median(a for a, _ in vals),
                statistics.median(r for _, r in vals))
               for name, vals in by_name.items()]
    return rows, summary
