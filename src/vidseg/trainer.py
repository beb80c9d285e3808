"""Pretraining loop: batch assembly from one random stream per step, the
combined objective as one tape graph over the whole batch, SGD with momentum
and cosine-annealed learning rate, the momentum update of the key
parameters, and memory-bank maintenance.

Both streams embed through embed, the one place that maps the enabled losses
to the blocks of frames they encode and the heads they run: key_targets is
embed over the key views and positive tuples on plain arrays, batch_losses
embed over the frame anchors and anchor tuples on tape Vars, then the loss
calls.

The epochs generator is the one training loop: start sets a run up (config
check, splits, initial state), epochs trains from state.epoch and yields the
state at each epoch boundary, fit drains it, and pretrain drains it while
writing interval checkpoints at the boundaries it sees."""

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
    epochs: int = field(default=60, metadata={"min": 1})
    batch_size: int = field(default=32, metadata={"min": 1})
    learning_rate: float = field(default=0.05, metadata={"min": 0})
    sgd_momentum: float = field(default=0.9, metadata={"min": 0})
    weight_decay: float = field(default=1e-4, metadata={"min": 0})
    temperature: float = field(default=0.07, metadata={"above": 0})
    segments: int = field(default=3, metadata={"min": 1, "max": sampling.MAX_SHUFFLED_FRAMES})
    key_momentum: float = field(default=0.999, metadata={"min": 0, "max": 1})
    bank_capacity: int = field(default=4096, metadata={"min": 1})
    seed: int = field(default=0, metadata={"min": 0})
    use_inter: bool = field(default=True, metadata={"key": "loss_inter"})
    use_intra: bool = field(default=True, metadata={"key": "loss_intra"})
    use_segment: bool = field(default=True, metadata={"key": "loss_segment"})
    use_order: bool = field(default=True, metadata={"key": "loss_order"})
    hidden_dim: int = field(default=128, metadata={"min": 1})
    feature_dim: int = field(default=64, metadata={"min": 1})
    embed_dim: int = field(default=32, metadata={"min": 1})
    # epochs between mid-run checkpoints; 0 = final only
    checkpoint_interval: int = field(default=0, metadata={"min": 0})

    def __post_init__(self):
        formats.check_bounds(self)

    def validate(self):
        """Check the rules that span several fields, which construction does
        not: at least one loss is on, and the intra loss is not on alone.
        gradient_suite builds intra-only configs on purpose, so these wait
        until a config is about to train."""
        toggles = [self.use_inter, self.use_intra, self.use_segment, self.use_order]
        if not any(toggles):
            raise ValueError("at least one loss must be enabled")
        if self.use_intra and not (self.use_inter or self.use_segment or self.use_order):
            # two same-video negatives are too small a set to train against alone
            raise ValueError("intra-frame loss alone does not stabilize training")

    def model_config(self):
        return model.ModelConfig(
            frame_pixels=self.dataset.height * self.dataset.width,
            hidden_dim=self.hidden_dim,
            feature_dim=self.feature_dim,
            embed_dim=self.embed_dim,
            segments=self.segments,
        )


def with_losses(cfg: TrainConfig, names):
    """cfg with exactly the named losses of LOSS_NAMES switched on; a name
    outside LOSS_NAMES is an error."""
    unknown = set(names) - set(LOSS_NAMES)
    if unknown:
        raise ValueError(f"unknown losses {sorted(unknown)}")
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
    pixels. All but key_views are views into the step's (B, c, P) augmented
    frames, the c slots per item that the enabled losses read.

    key_views holds, per item, the second augmentation of the frame-level
    instance and then the two other same-video frames: the key side's inputs
    to the inter and intra losses.

    A field no enabled loss reads is None: anchors and positives without the
    segment and order losses, frame_anchors and key_views without the inter
    and intra losses. embed reads frame_anchors and anchors for the query
    side and key_views and positives for the key side; the config's loss
    flags, not which fields are set, choose the blocks it encodes.
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
    """Every random choice of one batch: the anchor and positive tuples and
    the augmentation columns of the two frame-level views."""

    tuples: sampling.TupleDraw
    views: sampling.AugParams  # columns (B, 2)


def draw_batch(b, shape, cfg: TrainConfig, rng) -> BatchDraw:
    """Draw a batch of b items from videos of (T, H, W) frames from one
    stream, one array call per field: the tuples (see sampling.draw_tuples),
    then the frame-view columns."""
    t_count, height, width = shape
    tuples = sampling.draw_tuples(rng, np.full(b, t_count), cfg.segments, height, width)
    return BatchDraw(tuples=tuples, views=sampling.draw_aug(rng, (b, 2), height, width))


def sample_batch(frames, rows, cfg: TrainConfig, rng) -> Batch:
    """The Batch of one item per video frames[rows[b]] of the (n, T, H, W)
    array, drawn from rng by draw_batch and then augmented in one
    augment_frames call.

    Each item's slots are its anchor tuple, its positive tuple and then its
    frame-level views, ending with the frame anchor and its second view. The
    frame anchor and its second view are two fresh augmentations of the raw
    frame behind the anchor tuple's first segment; the anchor tuple's other
    segment frames serve as the remaining same-video positives (wrapping
    around when there are fewer than three segments).

    Everything is drawn whatever the enabled losses, but only the slots they
    read are gathered and augmented, the same number per item: the tuples
    for the segment and order losses, the frame-view slots and the key-view
    slots for the inter and intra losses.
    """
    b, k = len(rows), cfg.segments
    draw = draw_batch(b, frames.shape[1:], cfg, rng)
    tuple_indices = draw.tuples.indices.reshape(b, 2 * k)
    view_indices = np.repeat(tuple_indices[:, :k].min(axis=1, keepdims=True), 2, axis=1)
    others = np.argsort(tuple_indices[:, :k], axis=1)[:, [1 % k, 2 % k]]
    indices = np.concatenate([tuple_indices, view_indices], axis=1)
    items = np.arange(b)[:, None]
    key_rows = np.concatenate([np.full((b, 1), indices.shape[1] - 1), others], axis=1)
    frames_on = cfg.use_inter or cfg.use_intra
    tuples_on = cfg.use_segment or cfg.use_order
    read = np.zeros(indices.shape, dtype=bool)
    read[:, :2 * k] = tuples_on
    read[:, 2 * k:] = frames_on
    read[items, key_rows] |= frames_on
    aug = sampling.AugParams(*(np.concatenate([t.reshape(b, 2 * k), v], axis=1)[read]
                               for t, v in zip(draw.tuples.aug, draw.views)))
    raw = frames[rows[:, None], indices[read].reshape(b, -1) % frames.shape[1]]
    out = sampling.augment_frames(raw.reshape(-1, *raw.shape[2:]), aug)
    out = out.reshape(*raw.shape[:2], -1)
    at = np.cumsum(read, axis=1) - 1  # the column of out holding each read slot
    return Batch(anchors=out[:, :k] if tuples_on else None,
                 positives=out[:, k:2 * k] if tuples_on else None,
                 frame_anchors=out[:, -2] if frames_on else None,
                 key_views=out[items, at[items, key_rows]] if frames_on else None,
                 order_labels=draw.tuples.labels)


def assemble_batch(frames, rows, cfg: TrainConfig, epoch, step_in_epoch) -> Batch:
    """Deterministic batch of the videos frames[rows]: the step owns one
    stream, derived from (seed, epoch, step_in_epoch), that sample_batch
    draws every random choice of the whole batch from."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, STREAM_SAMPLE, epoch, step_in_epoch]))
    return sample_batch(frames, np.asarray(rows), cfg, rng)


def embed(params, frames, tuples, cfg: TrainConfig):
    """The embeddings the enabled losses read, loss name -> rows, for tape
    Vars or plain arrays. This is the one place that maps the losses to the
    blocks they encode and the heads they run.

    frames are frame-level rows of P pixels, (n, P) or (B, 3, P) as 3B rows,
    read by the inter and intra heads; tuples are (B, K, P) K-frame tuples,
    read by the segment and order heads. The loss flags choose the blocks: a
    block no enabled loss reads is not touched and may be None. The blocks
    read go through one encoder pass, then each enabled head runs once over
    its rows: "inter" and "intra" are (n, E) unit rows, "segment" the (B, E)
    consensus embeddings, and "order" the (B, K*E) per-frame order
    embeddings in frame order.
    """
    blocks = []
    if cfg.use_inter or cfg.use_intra:
        blocks.append(frames.reshape(-1, frames.shape[-1]))
    if cfg.use_segment or cfg.use_order:
        blocks.append(tuples.reshape(-1, tuples.shape[-1]))
    stacked = np.concatenate(blocks)
    encoded = model.encode(params, stacked)
    # a slice of the whole pass is the pass itself, so one block records no slice
    frame_features = nm.slice_rows(encoded, 0, len(blocks[0]))
    tuple_features = nm.slice_rows(encoded, len(stacked) - len(blocks[-1]), len(stacked))
    out = {}
    if cfg.use_inter:
        out["inter"] = model.project(params, "inter", frame_features)
    if cfg.use_intra:
        out["intra"] = model.project(params, "intra", frame_features)
    if cfg.use_segment:
        out["segment"] = model.segment_embedding(params, tuple_features, cfg.segments)
    if cfg.use_order:
        out["order"] = model.order_embedding(params, tuple_features, cfg.model_config())
    return out


def key_targets(key_params, batch: Batch, cfg: TrainConfig):
    """The key side of a step, as plain arrays computed without a tape:
    embed over the key views and the positive tuples.

    "inter" and "intra" are the (B, 3, E) frame-level positives (frame view,
    then the two other frames), "segment" the (B, E) positive tuple
    embeddings, and "order" the (B, K*E) order embeddings of the positive
    tuples. Only enabled losses get entries. The inter and segment arrays are
    also the step's bank rows, in enqueue order.
    """
    return {name: rows.reshape(len(batch), 3, -1) if name in ("inter", "intra") else rows
            for name, rows in embed(key_params, batch.key_views, batch.positives, cfg).items()}


def batch_losses(query_params, targets, batch: Batch, inter_negatives, segment_negatives,
                 cfg: TrainConfig):
    """Batch-mean loss terms of the enabled objectives, as one graph: embed
    over the frame anchors and the anchor tuples, then one call per loss.

    query_params may be tape Vars (training) or plain arrays; targets come
    from key_targets and stay constants, so nothing on the key side ever
    receives gradient.
    """
    query = embed(query_params, batch.frame_anchors, batch.anchors, cfg)
    out = {}
    if cfg.use_inter:
        p = targets["inter"]
        out["inter"] = losses.loss_inter(query["inter"], p[:, 0], p[:, 1], p[:, 2],
                                         inter_negatives, cfg.temperature)
    if cfg.use_intra:
        p = targets["intra"]
        out["intra"] = losses.loss_intra(query["intra"], p[:, 0], p[:, 1], p[:, 2],
                                         cfg.temperature)
    if cfg.use_segment:
        out["segment"] = losses.loss_segment(query["segment"], targets["segment"],
                                             segment_negatives, cfg.temperature)
    if cfg.use_order:
        logits = model.order_classifier(query_params, query["order"], targets["order"])
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


METRICS_COLUMNS = ("epoch", "lr", "loss_total", "loss_inter", "loss_intra",
                   "loss_segment", "loss_order")


def start(cfg: TrainConfig, dataset=None):
    """Validate cfg, take its splits (generated from cfg.dataset when dataset
    is None) and init the state of the whole run. Returns (state, train,
    test), the dataset's synth.Splits."""
    cfg.validate()
    train, test = synth.generate_dataset(cfg.dataset) if dataset is None else dataset
    per_epoch = steps_per_epoch(len(train), cfg.batch_size)
    return init_state(cfg, total_steps=cfg.epochs * per_epoch), train, test


def epochs(cfg: TrainConfig, train, state: TrainState):
    """Train from state.epoch to cfg.epochs on the train split, yielding state
    after each epoch once that epoch's row is in state.history.

    Every draw derives from the run seed and the epoch and step, so a new
    generator started from the state a stopped one yielded trains on to the
    same bytes as an uninterrupted run. Each step assembles its batch and
    trains on it before the next batch is assembled.
    """
    per_epoch = steps_per_epoch(len(train), cfg.batch_size)
    while state.epoch < cfg.epochs:
        order_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, STREAM_ORDER, state.epoch]))
        # per_epoch full batches of the epoch's order, or one batch of the whole split
        batches = order_rng.permutation(len(train))[:per_epoch * cfg.batch_size]
        epoch_metrics = []
        for s, indices in enumerate(batches.reshape(per_epoch, -1)):
            batch = assemble_batch(train.frames, indices, cfg, state.epoch, s)
            epoch_metrics.append(train_step(state, batch, cfg))
        means = {k: float(np.mean([m[k] for m in epoch_metrics])) for k in METRICS_COLUMNS[2:]}
        state.history.append({"epoch": state.epoch, "lr": epoch_metrics[-1]["lr"], **means})
        state.epoch += 1
        yield state


def fit(cfg: TrainConfig, dataset=None):
    """Run the whole pretraining loop in memory: start, then every epoch.

    Returns (state, train, test), the dataset's synth.Splits. Deterministic
    given the config: dataset generation, parameter init, epoch shuffling,
    sampling and augmentation all derive from the run seed.
    """
    state, train, test = start(cfg, dataset)
    for _ in epochs(cfg, train, state):
        pass
    return state, train, test


def _write_state(path, cfg, state, flat):
    formats.write_checkpoint(
        path, flat, state.query, state.key,
        {"inter": state.bank_inter, "segment": state.bank_segment},
        {"seed": cfg.seed, "epoch": state.epoch, "step": state.step},
    )


def pretrain(cfg: TrainConfig, out_dir, config_flat=None, dataset=None):
    """The run fit() trains, persisted under out_dir: a checkpoint after the
    last epoch, an interval checkpoint after every checkpoint_interval-th
    epoch before it, and a one-row-per-epoch metrics CSV."""
    from pathlib import Path

    out_dir = Path(out_dir)
    state, train, _ = start(cfg, dataset)
    flat = config_flat if config_flat is not None else formats.flatten_config(cfg)
    for state in epochs(cfg, train, state):
        if cfg.checkpoint_interval > 0 and state.epoch % cfg.checkpoint_interval == 0 \
                and state.epoch < cfg.epochs:
            _write_state(out_dir / f"checkpoint_epoch{state.epoch:04d}.ckpt", cfg, state, flat)
    checkpoint_path = out_dir / "checkpoint.ckpt"
    metrics_path = out_dir / "metrics.csv"
    _write_state(checkpoint_path, cfg, state, flat)
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
    everything = with_losses(cfg, LOSS_NAMES)
    results = []
    single = {name: with_losses(cfg, (name,)) for name in LOSS_NAMES}
    for seed in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, STREAM_GRADCHECK, seed]))
        mcfg = cfg.model_config()
        query = model.init_params(mcfg, rng)
        key = model.init_params(mcfg, rng)
        frames = np.stack([
            synth.generate_video(cfg.dataset, (seed + slot) % cfg.dataset.classes, 0)[0]
            for slot in range(2)])
        batch = sample_batch(frames, np.arange(2), everything, np.random.default_rng(
            np.random.SeedSequence([cfg.seed, STREAM_GRADCHECK, seed, 1])))
        inter_negatives = _unit_rows(rng, 16, cfg.embed_dim)
        segment_negatives = _unit_rows(rng, 16, cfg.embed_dim)
        targets = key_targets(key, batch, everything)
        del key  # the checked function reads only the key targets
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
