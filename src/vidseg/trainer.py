"""Pretraining loop: batch assembly, the combined objective over the tape,
SGD with momentum and cosine-annealed learning rate, the momentum update of
the key parameters, and memory-bank maintenance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    dataset: synth.DatasetSpec
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
    use_inter: bool = True
    use_intra: bool = True
    use_segment: bool = True
    use_order: bool = True
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

    def to_flat(self):
        return {
            "train.epochs": self.epochs,
            "train.batch_size": self.batch_size,
            "train.learning_rate": self.learning_rate,
            "train.sgd_momentum": self.sgd_momentum,
            "train.weight_decay": self.weight_decay,
            "train.temperature": self.temperature,
            "train.segments": self.segments,
            "train.key_momentum": self.key_momentum,
            "train.bank_capacity": self.bank_capacity,
            "train.seed": self.seed,
            "train.loss_inter": self.use_inter,
            "train.loss_intra": self.use_intra,
            "train.loss_segment": self.use_segment,
            "train.loss_order": self.use_order,
            "train.hidden_dim": self.hidden_dim,
            "train.feature_dim": self.feature_dim,
            "train.embed_dim": self.embed_dim,
            "train.normalize_order_embeddings": self.normalize_order_embeddings,
            "train.order_positive_uses_key": self.order_positive_uses_key,
            "train.share_tuple_augment": self.share_tuple_augment,
            "train.frame_source": self.frame_source,
            "train.checkpoint_interval": self.checkpoint_interval,
        }


@dataclass
class TrainState:
    query: dict
    key: dict
    velocity: dict
    bank_inter: MemoryBank
    bank_segment: MemoryBank
    step: int = 0
    epoch: int = 0
    total_steps: int = 1
    history: list = field(default_factory=list)


@dataclass
class BatchItem:
    """One sample: the tuple pair plus the frame-level views derived from it."""

    pair: sampling.TuplePair
    frame_anchor: np.ndarray  # extra augmentation of the frame-level instance
    frame_positive: np.ndarray  # second augmentation of the same raw frame
    frame_others: np.ndarray  # (2, H, W) frames acting as the other positives/negatives


def cosine_lr(step, total_steps, base_lr):
    """base_lr annealed to zero over total_steps with a half cosine."""
    if total_steps < 1 or not 0 <= step <= total_steps:
        raise ValueError(f"need 0 <= step <= total_steps, got {step}/{total_steps}")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def active_param_names(cfg: TrainConfig):
    """Parameters the optimizer may touch under the enabled losses."""
    names = ["encoder.fc1.weight", "encoder.fc1.bias", "encoder.fc2.weight", "encoder.fc2.bias"]
    for head, enabled in zip(LOSS_NAMES, (cfg.use_inter, cfg.use_intra,
                                          cfg.use_segment, cfg.use_order)):
        if enabled:
            names += [f"head_{head}.fc1.weight", f"head_{head}.fc1.bias",
                      f"head_{head}.fc2.weight", f"head_{head}.fc2.bias"]
    if cfg.use_order:
        names += ["order_clf.weight", "order_clf.bias"]
    return names


def init_state(cfg: TrainConfig, total_steps=1):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, STREAM_INIT]))
    query = model.init_params(cfg.model_config(), rng)
    key = {name: arr.copy() for name, arr in query.items()}
    velocity = {name: np.zeros_like(arr) for name, arr in query.items()}
    return TrainState(
        query=query,
        key=key,
        velocity=velocity,
        bank_inter=MemoryBank(cfg.bank_capacity, cfg.embed_dim),
        bank_segment=MemoryBank(cfg.bank_capacity, cfg.embed_dim),
        total_steps=total_steps,
    )


def _draw_item(video: synth.Video, cfg: TrainConfig, seed_seq):
    """Every random choice of one batch item, in the order the item's streams
    are consumed: the tuple pair, then the frame-level views.

    Returns the drawn pair, the item's raw frames and aug records as one
    block (anchor tuple, positive tuple, frame-level views in draw order,
    ending with the frame anchor and frame positive) and the block rows that
    become frame_others.
    """
    pair_rng, frame_rng = [np.random.default_rng(s) for s in seed_seq.spawn(2)]
    pair = sampling.draw_tuple_pair(video, cfg.segments, pair_rng,
                                    share_augment=cfg.share_tuple_augment)
    k = cfg.segments
    if cfg.frame_source == "uniform":
        picks = frame_rng.integers(0, video.frames.shape[0], size=3)
        view_indices = [picks[1], picks[2], picks[0], picks[0]]
        others_rows = [2 * k, 2 * k + 1]
    else:
        segment_order = np.argsort(pair.anchor_indices)
        first = pair.anchor_indices[segment_order[0]]
        view_indices = [first, first]
        others_rows = [segment_order[1 % k], segment_order[2 % k]]
    height, width = video.frames.shape[1:]
    view_aug = [sampling.draw_aug_params(height, width, frame_rng) for _ in view_indices]
    frames = np.concatenate([pair.anchor_frames, pair.positive_frames,
                             sampling.frame_at(video, view_indices)])
    return pair, frames, [*pair.anchor_aug, *pair.positive_aug, *view_aug], others_rows


def _augment_items(drawn, cfg: TrainConfig):
    """BatchItems from drawn items, augmenting all their frames in one
    augment_frames call."""
    out = sampling.augment_frames(np.concatenate([frames for _, frames, _, _ in drawn]),
                                  [aug for _, _, params, _ in drawn for aug in params])
    k = cfg.segments
    items = []
    start = 0
    for pair, frames, _, others_rows in drawn:
        block = out[start:start + len(frames)]
        start += len(frames)
        items.append(BatchItem(
            pair=replace(pair, anchor_frames=block[:k], positive_frames=block[k:2 * k]),
            frame_anchor=block[-2], frame_positive=block[-1], frame_others=block[others_rows]))
    return items


def make_batch_item(video: synth.Video, cfg: TrainConfig, seed_seq) -> BatchItem:
    """Sample the tuple pair and the frame-level views for one video.

    The frame-level anchor/positive are two fresh augmentations of the raw
    frame behind the anchor tuple's first segment; the anchor tuple's other
    segment frames serve as the remaining same-video positives (wrapping
    around when there are fewer than three segments). With
    frame_source="uniform" all three frame slots are drawn uniformly from the
    whole timeline instead.
    """
    return _augment_items([_draw_item(video, cfg, seed_seq)], cfg)[0]


def assemble_batch(videos, indices, cfg: TrainConfig, epoch, step_in_epoch):
    """Deterministic batch: every sample owns a stream derived from its slot.

    All slots are drawn first, then augmented together in one pass; the
    result equals make_batch_item per slot.
    """
    return _augment_items([
        _draw_item(videos[int(v)], cfg,
                   np.random.SeedSequence([cfg.seed, STREAM_SAMPLE, epoch, step_in_epoch, slot]))
        for slot, v in enumerate(indices)
    ], cfg)


def sample_losses(query_params, key_params, item: BatchItem, inter_negatives,
                  segment_negatives, cfg: TrainConfig):
    """Enabled loss terms for one sample plus the key rows to enqueue.

    query_params may be tape Vars (training) or plain arrays (evaluation);
    key_params are always plain arrays, so nothing on the key side ever
    receives gradient.
    """
    mcfg = cfg.model_config()
    k = cfg.segments
    anchor = item.pair.anchor_frames.reshape(k, -1)
    positive = item.pair.positive_frames.reshape(k, -1)
    out = {}
    enqueue = {}

    if cfg.use_inter or cfg.use_intra:
        query_feat = model.encode(query_params, item.frame_anchor.reshape(-1))
        key_frames = np.stack([item.frame_positive.reshape(-1),
                               item.frame_others[0].reshape(-1),
                               item.frame_others[1].reshape(-1)])
        key_feats = model.encode(key_params, key_frames)
        if cfg.use_inter:
            q_inter = model.project(query_params, "inter", query_feat)
            p_inter = model.project(key_params, "inter", key_feats)
            out["inter"] = losses.loss_inter(q_inter, p_inter[0], p_inter[1], p_inter[2],
                                             inter_negatives, cfg.temperature)
            enqueue["inter"] = p_inter
        if cfg.use_intra:
            q_intra = model.project(query_params, "intra", query_feat)
            p_intra = model.project(key_params, "intra", key_feats)
            out["intra"] = losses.loss_intra(q_intra, p_intra[0], p_intra[1], p_intra[2],
                                             cfg.temperature)
    if cfg.use_segment:
        q_tuple = model.tuple_embedding(query_params, anchor)
        p_tuple = model.tuple_embedding(key_params, positive)
        out["segment"] = losses.loss_segment(q_tuple, p_tuple, segment_negatives,
                                             cfg.temperature)
        enqueue["segment"] = p_tuple[None, :]
    if cfg.use_order:
        logits = model.order_logits(query_params, key_params, anchor, positive, mcfg)
        out["order"] = losses.loss_order(logits, item.pair.order_label)
    return out, enqueue


def train_step(state: TrainState, batch, cfg: TrainConfig):
    """One optimizer step over a batch of samples.

    Losses are computed against the bank state from before this step; the
    order within the step is backward, SGD on the query side, momentum update
    of the key side, then enqueue of this step's key embeddings.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    lr = cosine_lr(state.step, state.total_steps, cfg.learning_rate)
    inter_negatives = state.bank_inter.negatives_view() if cfg.use_inter else None
    segment_negatives = state.bank_segment.negatives_view() if cfg.use_segment else None

    query_vars = model.as_vars(state.query)
    totals = []
    sums = {name: 0.0 for name in LOSS_NAMES}
    pending = {"inter": [], "segment": []}
    for item in batch:
        terms, enqueue = sample_losses(query_vars, state.key, item,
                                       inter_negatives, segment_negatives, cfg)
        item_total = None
        for name, term in terms.items():
            sums[name] += float(term.value if isinstance(term, nm.Var) else term)
            item_total = term if item_total is None else nm.add(item_total, term)
        totals.append(item_total)
        for bank_name, rows in enqueue.items():
            pending[bank_name].append(rows)

    batch_loss = nm.scale(nm.sum_all(nm.concat(totals)), 1.0 / len(batch))
    if isinstance(batch_loss, nm.Var):
        batch_loss.backward()
    # an all-constant loss (e.g. bank-backed losses before the first enqueue)
    # has zero gradient; the update below still applies weight decay

    for name in active_param_names(cfg):
        grad = query_vars[name].grad
        if grad is None:
            grad = np.zeros_like(state.query[name])
        grad = grad + cfg.weight_decay * state.query[name]
        state.velocity[name] = cfg.sgd_momentum * state.velocity[name] + grad
        state.query[name] = state.query[name] - lr * state.velocity[name]

    state.key = model.momentum_update(state.key, state.query, cfg.key_momentum)
    if cfg.use_inter and pending["inter"]:
        state.bank_inter.enqueue(np.vstack(pending["inter"]))
    if cfg.use_segment and pending["segment"]:
        state.bank_segment.enqueue(np.vstack(pending["segment"]))
    state.step += 1

    metrics = {"lr": lr,
               "loss_total": float(batch_loss.value if isinstance(batch_loss, nm.Var)
                                   else batch_loss)}
    for name in LOSS_NAMES:
        metrics[f"loss_{name}"] = sums[name] / len(batch)
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
    flat = config_flat if config_flat is not None else {**cfg.dataset.to_flat(), **cfg.to_flat()}
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
    """Check analytic gradients of every loss term and their sum against
    central finite differences, at random inits over `n_seeds` seeds.

    Probes `probes_per_param` random coordinates of every query-side
    parameter array. Returns a list of (loss_name, seed, report).
    """
    results = []
    single = {name: replace(cfg, use_inter=name == "inter", use_intra=name == "intra",
                            use_segment=name == "segment", use_order=name == "order")
              for name in LOSS_NAMES}
    everything = replace(cfg, use_inter=True, use_intra=True, use_segment=True, use_order=True)
    for seed in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, STREAM_GRADCHECK, seed]))
        mcfg = cfg.model_config()
        query = model.init_params(mcfg, rng)
        key = model.init_params(mcfg, rng)
        video = synth.generate_video(cfg.dataset, seed % cfg.dataset.classes, 0)
        item = make_batch_item(video, everything,
                               np.random.SeedSequence([cfg.seed, STREAM_GRADCHECK, seed, 1]))
        inter_negatives = _unit_rows(rng, 16, cfg.embed_dim)
        segment_negatives = _unit_rows(rng, 16, cfg.embed_dim)
        names = list(query)
        arrays = [query[n] for n in names]

        def run(loss_name, loss_cfg):
            def f(*vars_):
                query_vars = dict(zip(names, vars_))
                terms, _ = sample_losses(query_vars, key, item, inter_negatives,
                                         segment_negatives, loss_cfg)
                total = None
                for term in terms.values():
                    total = term if total is None else nm.add(total, term)
                return total

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
