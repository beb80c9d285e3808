"""Pretraining loop: batch assembly from one random stream per step, the
combined objective as one tape graph over the whole batch, SGD with momentum
and cosine-annealed learning rate, the momentum update of the key
parameters, and memory-bank maintenance."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import formats, losses, model, sampling, synth
from . import numerics as nm
from .memory import MemoryBank

# fixed tags deriving independent named RNG streams from the run seed
STREAM_INIT = 11
STREAM_ORDER = 12
STREAM_SAMPLE = 13
STREAM_GRADCHECK = 14

LOSS_NAMES = ("inter", "intra", "segment", "order")


@dataclass(frozen=True)
class TrainConfig:
    SECTION: ClassVar[str] = "train"
    dataset: synth.DatasetSpec  # flattens under its own section
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.05
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    temperature: float = 0.07
    segments: int = 3
    key_momentum: float = 0.999
    bank_capacity: int = 4096
    seed: int = 0
    use_inter: bool = field(default=True, metadata={"key": "loss_inter"})
    use_intra: bool = field(default=True, metadata={"key": "loss_intra"})
    use_segment: bool = field(default=True, metadata={"key": "loss_segment"})
    use_order: bool = field(default=True, metadata={"key": "loss_order"})
    hidden_dim: int = 128
    feature_dim: int = 64
    embed_dim: int = 32
    normalize_order_embeddings: bool = True
    order_positive_uses_key: bool = True
    share_tuple_augment: bool = False
    frame_source: str = "segment"  # or "uniform": where the frame-level views come from
    checkpoint_interval: int = 0  # epochs between mid-run checkpoints; 0 = final only

    def validate(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("learning_rate", "sgd_momentum", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        if not 0.0 <= self.key_momentum <= 1.0:
            raise ValueError("key_momentum must be in [0, 1]")
        if self.bank_capacity < 1:
            raise ValueError("bank_capacity must be >= 1")
        toggles = [self.use_inter, self.use_intra, self.use_segment, self.use_order]
        if not any(toggles):
            raise ValueError("at least one loss must be enabled")
        if self.use_intra and not (self.use_inter or self.use_segment or self.use_order):
            # two same-video negatives are too small a set to train against alone
            raise ValueError("intra-frame loss alone does not stabilize training")
        if self.frame_source not in ("segment", "uniform"):
            raise ValueError("frame_source must be 'segment' or 'uniform'")

    def model_config(self):
        return model.ModelConfig(
            frame_pixels=self.dataset.height * self.dataset.width,
            hidden_dim=self.hidden_dim,
            feature_dim=self.feature_dim,
            embed_dim=self.embed_dim,
            segments=self.segments,
            normalize_order_embeddings=self.normalize_order_embeddings,
            order_positive_uses_key=self.order_positive_uses_key,
        )


def with_losses(cfg: TrainConfig, names):
    """cfg with exactly the named losses of LOSS_NAMES switched on."""
    return replace(cfg, **{f"use_{name}": name in names for name in LOSS_NAMES})


@dataclass
class TrainState:
    params: np.ndarray  # (3, N): the query, key and velocity rows, laid out by model.param_views
    query: Mapping  # the read-only views of the query row
    key: Mapping  # the read-only views of the key row
    active: np.ndarray  # (N,) 1.0 where the enabled losses train a parameter, else 0.0
    bank_inter: MemoryBank
    bank_segment: MemoryBank
    step: int = 0
    epoch: int = 0
    total_steps: int = 1
    history: list = field(default_factory=list)


@dataclass(frozen=True)
class Batch:
    """One step's samples stacked over the B items, as flattened frames of P
    pixels. All but key_views are views into the step's augmented frames.

    key_views holds, per item, the second augmentation of the frame-level
    instance and then the two other same-video frames: the key side's inputs
    to the inter and intra losses.

    A field no enabled loss reads is None: anchors and positives without the
    segment and order losses, frame_anchors and key_views without the inter
    and intra losses.
    """

    anchors: np.ndarray | None  # (B, K, P) anchor tuples
    positives: np.ndarray | None  # (B, K, P) positive tuples
    frame_anchors: np.ndarray | None  # (B, P) frame-level instances, extra augmentation
    key_views: np.ndarray | None  # (B, 3, P)
    order_labels: np.ndarray  # (B,)

    def __len__(self):
        return self.order_labels.shape[0]


def cosine_lr(step, total_steps, base_lr):
    """base_lr annealed to zero over total_steps with a half cosine."""
    if total_steps < 1 or not 0 <= step <= total_steps:
        raise ValueError(f"need 0 <= step <= total_steps, got {step}/{total_steps}")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def init_state(cfg: TrainConfig, total_steps=1):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, STREAM_INIT]))
    mcfg = cfg.model_config()
    query = np.concatenate([arr.ravel() for arr in model.init_params(mcfg, rng).values()])
    params = np.stack([query, query, np.zeros_like(query)])
    active = np.zeros_like(query)
    for name, view in model.param_views(active, mcfg).items():
        group = name.split(".")[0]  # encoder, head_<loss>, or order_clf (the order loss's)
        view[...] = group == "encoder" or getattr(
            cfg, "use_" + group.removeprefix("head_").removesuffix("_clf"))
    return TrainState(
        params=params,
        query=model.param_views(params[0], mcfg),
        key=model.param_views(params[1], mcfg),
        active=active,
        bank_inter=MemoryBank(cfg.bank_capacity, cfg.embed_dim),
        bank_segment=MemoryBank(cfg.bank_capacity, cfg.embed_dim),
        total_steps=total_steps,
    )


@dataclass(frozen=True)
class BatchDraw:
    """Every random choice of one batch: the anchor and positive tuples, the
    (B, 3) frames picked in frame_source="uniform" mode (None otherwise), and
    the augmentation columns of the frame-level views."""

    tuples: sampling.TupleDraw
    picks: np.ndarray | None
    views: sampling.AugParams  # columns (B, 4) with picks, (B, 2) without


def draw_batch(videos, cfg: TrainConfig, rng) -> BatchDraw:
    """Draw a batch of one item per video from one stream, one array call per
    field: the tuples (see sampling.draw_tuples), the uniform-mode picks,
    then the frame-view columns."""
    t_counts = np.array([v.frames.shape[0] for v in videos])
    height, width = videos[0].frames.shape[1:]
    tuples = sampling.draw_tuples(rng, t_counts, cfg.segments, height, width,
                                  share_augment=cfg.share_tuple_augment)
    picks = None
    if cfg.frame_source == "uniform":
        picks = rng.integers(0, t_counts[:, None], size=(len(videos), 3))
    views = sampling.draw_aug(rng, (len(videos), 2 if picks is None else 4), height, width)
    return BatchDraw(tuples=tuples, picks=picks, views=views)


def augmented_frames(videos, indices, aug: sampling.AugParams):
    """The frames of videos[b] at timeline indices[b], augmented by the
    columns of aug (one entry per index, in the same order) in one
    augment_frames call: shape indices.shape + (P,), frames flattened."""
    raw = np.stack([sampling.frame_at(v, i) for v, i in zip(videos, indices)])
    out = sampling.augment_frames(raw.reshape(-1, *raw.shape[-2:]), aug)
    return out.reshape(*indices.shape, -1)


def sample_batch(videos, cfg: TrainConfig, rng) -> Batch:
    """The Batch of one item per video, drawn from rng by draw_batch and then
    augmented in one augment_frames call.

    Each item's frames are its anchor tuple, its positive tuple and then its
    frame-level views, ending with the frame anchor and its second view. The
    frame anchor and its second view are two fresh augmentations of the raw
    frame behind the anchor tuple's first segment; the anchor tuple's other
    segment frames serve as the remaining same-video positives (wrapping
    around when there are fewer than three segments). With
    frame_source="uniform" all three frame slots are drawn uniformly from the
    whole timeline instead.

    Everything is drawn whatever the enabled losses, but only the frames they
    read are augmented: the tuples for the segment and order losses, the
    frame-level views for the inter and intra losses, plus the anchor tuple
    when its frames serve as key views.
    """
    draw = draw_batch(videos, cfg, rng)
    b, k = len(videos), cfg.segments
    tuple_indices = draw.tuples.indices.reshape(b, 2 * k)
    if draw.picks is None:
        view_indices = np.repeat(tuple_indices[:, :k].min(axis=1, keepdims=True), 2, axis=1)
        segment_order = np.argsort(tuple_indices[:, :k], axis=1)
        others = segment_order[:, [1 % k, 2 % k]]
    else:
        view_indices = draw.picks[:, [1, 2, 0, 0]]
        others = np.broadcast_to([2 * k, 2 * k + 1], (b, 2))
    indices = np.concatenate([tuple_indices, view_indices], axis=1)
    frames = cfg.use_inter or cfg.use_intra
    tuples = cfg.use_segment or cfg.use_order
    read = np.zeros(indices.shape[1], dtype=bool)
    read[:k] = tuples or (frames and draw.picks is None)
    read[k:2 * k] = tuples
    read[2 * k:] = frames
    used = np.flatnonzero(read)
    aug = sampling.AugParams(*(np.concatenate([t.reshape(b, 2 * k), v], axis=1)[:, used]
                               for t, v in zip(draw.tuples.aug, draw.views)))
    out = augmented_frames(videos, indices[:, used], aug)
    at = np.cumsum(read) - 1  # the column of out holding each read column
    key_rows = np.concatenate([np.full((b, 1), indices.shape[1] - 1), others], axis=1)
    return Batch(anchors=out[:, at[0]:at[0] + k] if tuples else None,
                 positives=out[:, at[k]:at[k] + k] if tuples else None,
                 frame_anchors=out[:, at[-2]] if frames else None,
                 key_views=out[np.arange(b)[:, None], at[key_rows]] if frames else None,
                 order_labels=draw.tuples.labels)


def assemble_batch(videos, indices, cfg: TrainConfig, epoch, step_in_epoch) -> Batch:
    """Deterministic batch of videos[indices]: the step owns one stream,
    derived from (seed, epoch, step_in_epoch), that sample_batch draws every
    random choice of the whole batch from."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, STREAM_SAMPLE, epoch, step_in_epoch]))
    return sample_batch([videos[int(v)] for v in indices], cfg, rng)


def key_targets(key_params, batch: Batch, cfg: TrainConfig):
    """The key side of a step, as plain arrays computed without a tape.

    "inter" and "intra" are the (B, 3, E) frame-level positives (frame view,
    then the two other frames), "segment" the (B, E) positive tuple
    embeddings, and "order", when order_positive_uses_key, the (B, K*E) order
    embeddings of the positive tuples. Only enabled losses get entries. The
    inter and segment arrays are also the step's bank rows, in enqueue order.
    """
    b, k = len(batch), cfg.segments
    out = {}
    if cfg.use_inter or cfg.use_intra:
        features = model.encode(key_params, batch.key_views.reshape(3 * b, -1))
        if cfg.use_inter:
            out["inter"] = model.project(key_params, "inter", features).reshape(b, 3, -1)
        if cfg.use_intra:
            out["intra"] = model.project(key_params, "intra", features).reshape(b, 3, -1)
    key_order = cfg.use_order and cfg.order_positive_uses_key
    if cfg.use_segment or key_order:
        features = model.encode(key_params, batch.positives.reshape(b * k, -1))
        if cfg.use_segment:
            out["segment"] = model.segment_embedding(key_params, features, k)
        if key_order:
            out["order"] = model.order_embedding(key_params, features, cfg.model_config())
    return out


def batch_losses(query_params, targets, batch: Batch, inter_negatives, segment_negatives,
                 cfg: TrainConfig):
    """Batch-mean loss terms of the enabled objectives, as one graph.

    query_params may be tape Vars (training) or plain arrays; targets come
    from key_targets and stay constants, so nothing on the key side ever
    receives gradient. Every frame the query side sees goes through one
    encoder pass; each head then runs once over all of its rows.
    """
    b, k = len(batch), cfg.segments
    blocks = {}
    if cfg.use_inter or cfg.use_intra:
        blocks["frame"] = batch.frame_anchors
    if cfg.use_segment or cfg.use_order:
        blocks["anchor"] = batch.anchors.reshape(b * k, -1)
    if cfg.use_order and not cfg.order_positive_uses_key:
        blocks["positive"] = batch.positives.reshape(b * k, -1)
    features = model.encode(query_params, np.concatenate(list(blocks.values())))
    feats = {}
    start = 0
    for name, rows in blocks.items():
        feats[name] = nm.slice_rows(features, start, start + len(rows))
        start += len(rows)

    out = {}
    if cfg.use_inter:
        query = model.project(query_params, "inter", feats["frame"])
        p = targets["inter"]
        out["inter"] = losses.loss_inter(query, p[:, 0], p[:, 1], p[:, 2], inter_negatives,
                                         cfg.temperature)
    if cfg.use_intra:
        query = model.project(query_params, "intra", feats["frame"])
        p = targets["intra"]
        out["intra"] = losses.loss_intra(query, p[:, 0], p[:, 1], p[:, 2], cfg.temperature)
    if cfg.use_segment:
        query = model.segment_embedding(query_params, feats["anchor"], k)
        out["segment"] = losses.loss_segment(query, targets["segment"], segment_negatives,
                                             cfg.temperature)
    if cfg.use_order:
        mcfg = cfg.model_config()
        positive = (targets["order"] if cfg.order_positive_uses_key
                    else model.order_embedding(query_params, feats["positive"], mcfg))
        logits = model.order_classifier(
            query_params, model.order_embedding(query_params, feats["anchor"], mcfg), positive)
        out["order"] = losses.loss_order(logits, batch.order_labels)
    return out


def _sum_terms(terms):
    total = None
    for term in terms.values():
        total = term if total is None else nm.add(total, term)
    return total


def _float(x):
    return float(x.value if isinstance(x, nm.Var) else x)


def train_step(state: TrainState, batch: Batch, cfg: TrainConfig):
    """One optimizer step over a batch of samples.

    Losses are computed against the bank state from before this step; the
    order within the step is the key side, the query graph and its backward,
    SGD on the query side, momentum update of the key side, then enqueue of
    this step's key embeddings.

    A non-finite loss term or gradient raises FloatingPointError, and a
    collapsed embedding DegenerateNormError, both naming the epoch and step,
    before the parameters or banks change.
    """
    if not len(batch):
        raise ValueError("batch must be nonempty")
    where = f"epoch {state.epoch} step {state.step}"
    lr = cosine_lr(state.step, state.total_steps, cfg.learning_rate)
    inter_negatives = state.bank_inter.negatives_view() if cfg.use_inter else None
    segment_negatives = state.bank_segment.negatives_view() if cfg.use_segment else None

    query_vars = model.as_vars(state.query)
    try:
        targets = key_targets(state.key, batch, cfg)
        terms = batch_losses(query_vars, targets, batch, inter_negatives, segment_negatives,
                             cfg)
    except nm.DegenerateNormError as err:
        raise nm.DegenerateNormError(f"{where}: {err}") from err
    batch_loss = _sum_terms(terms)
    if isinstance(batch_loss, nm.Var):
        batch_loss.backward()
    values = {name: _float(term) for name, term in terms.items()}
    finite = np.isfinite(list(values.values()))
    if not finite.all():
        raise FloatingPointError(f"{where}: loss term '{list(values)[finite.argmin()]}' "
                                 "is not finite")
    # a leaf outside the graph, or an all-constant loss (bank-backed losses
    # before the first enqueue), has zero gradient; weight decay still applies
    grad = np.concatenate([np.zeros(var.value.size) if var.grad is None else var.grad.ravel()
                           for var in query_vars.values()])
    if not np.isfinite(grad).all():
        raise FloatingPointError(f"{where}: gradient is not finite")

    query, key, velocity = state.params
    grad += cfg.weight_decay * query
    grad *= state.active
    velocity *= cfg.sgd_momentum
    velocity += grad
    query -= lr * velocity
    model.momentum_update(key, query, cfg.key_momentum)
    if cfg.use_inter:
        state.bank_inter.enqueue(targets["inter"].reshape(-1, cfg.embed_dim))
    if cfg.use_segment:
        state.bank_segment.enqueue(targets["segment"])
    state.step += 1

    metrics = {"lr": lr, "loss_total": _float(batch_loss)}
    for name in LOSS_NAMES:
        metrics[f"loss_{name}"] = values.get(name, 0.0)
    return metrics


def steps_per_epoch(n_videos, batch_size):
    """Full batches per epoch; a single whole-dataset batch when the batch
    size exceeds the dataset."""
    return max(1, n_videos // batch_size)


def fit(cfg: TrainConfig, dataset=None, on_epoch=None):
    """Run the whole pretraining loop in memory.

    Returns (state, train_videos, test_videos). Deterministic given the
    config: dataset generation, parameter init, epoch shuffling, sampling and
    augmentation all derive from the run seed. `on_epoch(state)` runs after
    each completed epoch (checkpoint hooks).
    """
    cfg.validate()
    if dataset is None:
        train_videos, test_videos = synth.generate_dataset(cfg.dataset)
    else:
        train_videos, test_videos = dataset
    n = len(train_videos)
    per_epoch = steps_per_epoch(n, cfg.batch_size)
    state = init_state(cfg, total_steps=cfg.epochs * per_epoch)
    effective_batch = min(cfg.batch_size, n)
    for epoch in range(cfg.epochs):
        order_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, STREAM_ORDER, epoch]))
        perm = order_rng.permutation(n)
        epoch_metrics = []
        for s in range(per_epoch):
            indices = perm[s * effective_batch:(s + 1) * effective_batch]
            batch = assemble_batch(train_videos, indices, cfg, epoch, s)
            epoch_metrics.append(train_step(state, batch, cfg))
        state.epoch += 1
        row = {"epoch": epoch, "lr": epoch_metrics[-1]["lr"]}
        for key in ("loss_total", "loss_inter", "loss_intra", "loss_segment", "loss_order"):
            row[key] = float(np.mean([m[key] for m in epoch_metrics]))
        state.history.append(row)
        if on_epoch is not None:
            on_epoch(state)
    return state, train_videos, test_videos


METRICS_COLUMNS = ("epoch", "lr", "loss_total", "loss_inter", "loss_intra",
                   "loss_segment", "loss_order")


def _write_state(path, cfg, state, config_flat):
    flat = config_flat if config_flat is not None else formats.flatten_config(cfg)
    formats.write_checkpoint(
        path, flat, state.query, state.key,
        {"inter": state.bank_inter, "segment": state.bank_segment},
        {"seed": cfg.seed, "epoch": state.epoch, "step": state.step},
    )


def pretrain(cfg: TrainConfig, out_dir, config_flat=None, dataset=None):
    """fit() plus persistence: a checkpoint (and optional per-interval
    checkpoints) and a one-row-per-epoch metrics CSV under out_dir."""
    from pathlib import Path

    out_dir = Path(out_dir)

    def on_epoch(state):
        done = state.epoch
        if cfg.checkpoint_interval > 0 and done % cfg.checkpoint_interval == 0 \
                and done < cfg.epochs:
            _write_state(out_dir / f"checkpoint_epoch{done:04d}.ckpt", cfg, state, config_flat)

    state, _, _ = fit(cfg, dataset=dataset, on_epoch=on_epoch)
    checkpoint_path = out_dir / "checkpoint.ckpt"
    metrics_path = out_dir / "metrics.csv"
    _write_state(checkpoint_path, cfg, state, config_flat)
    formats.write_csv(metrics_path, METRICS_COLUMNS,
                      [[row[c] for c in METRICS_COLUMNS] for row in state.history])
    return checkpoint_path, metrics_path, state


# ---------------------------------------------------------------------------
# gradient verification of the full objective
# ---------------------------------------------------------------------------


def _unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def gradient_suite(cfg: TrainConfig, n_seeds=10, probes_per_param=4, step=1e-5, tol=1e-4):
    """Check analytic gradients of every batched loss term and their sum
    against central finite differences, at random inits over `n_seeds` seeds.

    Each seed checks a batch of two items from videos of two classes against
    one shared pair of banks; the key side is computed once per seed, outside
    the checked function. Probes `probes_per_param` random coordinates of
    every query-side parameter array. Returns a list of (loss_name, seed,
    report).
    """
    if n_seeds < 1:
        raise ValueError(f"gradient_suite: n_seeds must be >= 1, got {n_seeds}")
    results = []
    single = {name: with_losses(cfg, (name,)) for name in LOSS_NAMES}
    everything = with_losses(cfg, LOSS_NAMES)
    for seed in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, STREAM_GRADCHECK, seed]))
        mcfg = cfg.model_config()
        query = model.init_params(mcfg, rng)
        key = model.init_params(mcfg, rng)
        videos = [synth.generate_video(cfg.dataset, (seed + slot) % cfg.dataset.classes, 0)
                  for slot in range(2)]
        batch = sample_batch(videos, everything, np.random.default_rng(
            np.random.SeedSequence([cfg.seed, STREAM_GRADCHECK, seed, 1])))
        inter_negatives = _unit_rows(rng, 16, cfg.embed_dim)
        segment_negatives = _unit_rows(rng, 16, cfg.embed_dim)
        targets = key_targets(key, batch, everything)
        names = list(query)
        arrays = [query[n] for n in names]

        def run(loss_name, loss_cfg):
            def f(*vars_):
                return _sum_terms(batch_losses(dict(zip(names, vars_)), targets, batch,
                                               inter_negatives, segment_negatives, loss_cfg))

            report = nm.grad_check(f, arrays, step=step, tol=tol,
                                   max_coords_per_input=probes_per_param,
                                   rng=np.random.default_rng(
                                       np.random.SeedSequence([cfg.seed, STREAM_GRADCHECK,
                                                               seed, 2])))
            results.append((loss_name, seed, report))

        for name in LOSS_NAMES:
            run(name, single[name])
        run("total", everything)
    return results
