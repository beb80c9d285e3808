import dataclasses
import itertools
import re
import types

import numpy as np
import pytest
from test_sampling import REFERENCE_ATOL, frame_params, reference_augment_frame

from vidseg import formats, model, sampling, synth, trainer
from vidseg import numerics as nm
from vidseg.trainer import TrainConfig


def tiny_spec(**kw):
    base = dict(classes=4, videos_per_class=4, frames=12, height=16, width=16,
                untrimmed=True, seed=2)
    base.update(kw)
    return synth.DatasetSpec(**base)


def tiny_config(**kw):
    base = dict(dataset=tiny_spec(), epochs=2, batch_size=4, bank_capacity=64,
                hidden_dim=16, feature_dim=12, embed_dim=8, seed=5)
    base.update(kw)
    return TrainConfig(**base)


def flat(params):
    """The parameters of a name -> array dict as one vector, in dict order."""
    return np.concatenate([arr.ravel() for arr in params.values()])


def test_cosine_lr_endpoints_and_midpoint():
    assert trainer.cosine_lr(0, 100, 0.2) == pytest.approx(0.2)
    assert trainer.cosine_lr(100, 100, 0.2) == pytest.approx(0.0, abs=1e-17)
    assert trainer.cosine_lr(50, 100, 0.2) == pytest.approx(0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(epochs=0).validate()
    with pytest.raises(ValueError):
        tiny_config(batch_size=0).validate()
    with pytest.raises(ValueError):
        tiny_config(learning_rate=-0.1).validate()
    # a zero size would reach model.init_params; a negative interval would
    # train as if it were 0
    for name, bad, floor in [("hidden_dim", 0, 1), ("feature_dim", 0, 1), ("embed_dim", 0, 1),
                             ("bank_capacity", 0, 1), ("segments", 0, 1),
                             ("checkpoint_interval", -3, 0), ("seed", -2, 0)]:
        with pytest.raises(ValueError, match=f"^train.{name} must be >= {floor}$"):
            tiny_config(**{name: bad}).validate()
    tiny_config(checkpoint_interval=0).validate()
    # non-finite rates would train to a non-finite loss
    for name, bad in [("learning_rate", np.nan), ("learning_rate", np.inf),
                      ("sgd_momentum", np.nan), ("weight_decay", np.inf),
                      ("weight_decay", -0.5)]:
        with pytest.raises(ValueError, match=f"^train.{name} must be finite and >= 0$"):
            tiny_config(**{name: bad}).validate()
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="^train.temperature must be finite and > 0$"):
            tiny_config(temperature=bad).validate()
    with pytest.raises(ValueError):
        tiny_config(use_inter=False, use_intra=False, use_segment=False,
                    use_order=False).validate()
    # the intra loss alone is refused
    with pytest.raises(ValueError):
        tiny_config(use_inter=False, use_intra=True, use_segment=False,
                    use_order=False).validate()
    tiny_config().validate()


def test_with_losses_refuses_unknown_names():
    # a misspelt name would otherwise switch its loss off without a word
    for names, unknown in [(("inter", "intar"), "['intar']"), (("segmnt",), "['segmnt']"),
                           (("ordr", "inter", "x"), "['ordr', 'x']")]:
        with pytest.raises(ValueError, match=rf"^unknown losses {re.escape(unknown)}$"):
            trainer.with_losses(tiny_config(), names)
    assert not trainer.with_losses(tiny_config(), ("inter",)).use_order


def test_order_only_first_step_loss_is_ln4():
    cfg = tiny_config(use_inter=False, use_intra=False, use_segment=False, use_order=True)
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg, total_steps=4)
    state.query["order_clf.weight"][...] = 0.0
    state.query["order_clf.bias"][...] = 0.0
    batch = trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, 0)
    metrics = trainer.train_step(state, batch, cfg)
    assert metrics["loss_order"] == pytest.approx(np.log(4.0), abs=1e-12)
    assert metrics["loss_inter"] == 0.0
    assert metrics["loss_intra"] == 0.0
    assert metrics["loss_segment"] == 0.0


def test_key_momentum_one_freezes_key_params():
    cfg = tiny_config(key_momentum=1.0)
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg, total_steps=4)
    before = {k: v.tobytes() for k, v in state.key.items()}
    for s in range(2):
        batch = trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, s)
        trainer.train_step(state, batch, cfg)
    assert {k: v.tobytes() for k, v in state.key.items()} == before


def test_zero_lr_keeps_query_but_fills_banks():
    cfg = tiny_config(learning_rate=0.0)
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg, total_steps=4)
    before = {k: v.tobytes() for k, v in state.query.items()}
    batch = trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, 0)
    trainer.train_step(state, batch, cfg)
    assert {k: v.tobytes() for k, v in state.query.items()} == before
    assert state.bank_inter.fill == 3 * 4  # three frame embeddings per sample
    assert state.bank_segment.fill == 4  # one tuple embedding per sample


def test_disabled_losses_leave_heads_at_init_and_metrics_zero():
    cfg = tiny_config(use_segment=False, use_order=False)
    state, _, _ = trainer.fit(cfg)
    init = trainer.init_state(cfg)
    for name in state.query:
        if name.startswith(("head_segment", "head_order", "order_clf")):
            assert np.array_equal(state.query[name], init.query[name]), name
        elif name.startswith("encoder"):
            assert not np.array_equal(state.query[name], init.query[name]), name
    for row in state.history:
        assert row["loss_segment"] == 0.0
        assert row["loss_order"] == 0.0
        assert row["loss_inter"] > 0.0
    assert state.bank_segment.fill == 0


def test_key_params_only_move_by_momentum():
    # with momentum 0 the key equals the query after every step
    cfg = tiny_config(key_momentum=0.0)
    state, _, _ = trainer.fit(cfg)
    for name in state.query:
        assert np.array_equal(state.key[name], state.query[name])


def test_bank_fill_arithmetic():
    cfg = tiny_config(epochs=3, bank_capacity=1000)
    state, train_videos, _ = trainer.fit(cfg)
    per_epoch = trainer.steps_per_epoch(len(train_videos), cfg.batch_size)
    expected_inter = min(1000, 3 * per_epoch * 3 * cfg.batch_size)
    expected_segment = min(1000, 3 * per_epoch * cfg.batch_size)
    assert state.bank_inter.fill == expected_inter
    assert state.bank_segment.fill == expected_segment
    assert state.step == 3 * per_epoch


def test_single_batch_when_batch_covers_dataset():
    cfg = tiny_config(epochs=1, batch_size=16)  # dataset has 12 train videos
    state, train_videos, _ = trainer.fit(cfg)
    assert len(train_videos) == 12
    assert state.step == 1


def test_fit_is_deterministic():
    cfg = tiny_config()
    s1, _, _ = trainer.fit(cfg)
    s2, _, _ = trainer.fit(cfg)
    for name in s1.query:
        assert s1.query[name].tobytes() == s2.query[name].tobytes()
    assert s1.history == s2.history
    assert s1.bank_inter.negatives_view().tobytes() == s2.bank_inter.negatives_view().tobytes()


def test_loss_decreases_on_a_fixed_batch():
    # twenty steps on one bank-free intra + order batch lower its loss; over
    # a whole tiny run nothing learns, so epoch means only wander
    base = tiny_config(use_inter=False, use_segment=False, use_intra=True, use_order=True)
    train_videos, _ = synth.generate_dataset(base.dataset)
    for seed in (5, 6, 7):
        cfg = dataclasses.replace(base, seed=seed)
        state = trainer.init_state(cfg, total_steps=20)
        batch = trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, 0)
        losses = [trainer.train_step(state, batch, cfg)["loss_total"] for _ in range(20)]
        assert losses[-1] < losses[0], (seed, losses[0], losses[-1])


def test_segment_count_one_trains():
    cfg = tiny_config(segments=1)
    state, _, _ = trainer.fit(cfg)
    assert state.query["order_clf.weight"].shape[0] == 2 * 1 * cfg.embed_dim


def test_pretrain_writes_interval_checkpoints(tmp_path):
    cfg = tiny_config(epochs=4, checkpoint_interval=2)
    checkpoint, metrics, state = trainer.pretrain(cfg, tmp_path)
    assert checkpoint.exists() and metrics.exists()
    assert (tmp_path / "checkpoint_epoch0002.ckpt").exists()
    # the final epoch is covered by the main checkpoint, not duplicated
    assert not (tmp_path / "checkpoint_epoch0004.ckpt").exists()
    assert state.epoch == 4
    # the interval checkpoint holds the state the generator yielded after epoch 2;
    # read_checkpoint widens the stored float32 values exactly to float64
    yielded, train, _ = trainer.start(cfg)
    for yielded in itertools.islice(trainer.epochs(cfg, train, yielded), 2):
        pass
    saved = formats.read_checkpoint(tmp_path / "checkpoint_epoch0002.ckpt")
    per_epoch = trainer.steps_per_epoch(len(train), cfg.batch_size)
    assert saved.rng_meta == {"seed": cfg.seed, "epoch": 2, "step": 2 * per_epoch}
    for saved_side, side in ((saved.query, yielded.query), (saved.key, yielded.key)):
        assert saved_side.keys() == side.keys()
        for name, arr in side.items():
            stored = saved_side[name].astype(np.float32)
            assert stored.tobytes() == arr.astype(np.float32).tobytes(), name


CRITERION_11 = TrainConfig(
    dataset=synth.DatasetSpec(classes=4, videos_per_class=6, frames=16, seed=11), epochs=4,
    batch_size=8, bank_capacity=256, hidden_dim=32, feature_dim=16, embed_dim=8, seed=3)


@pytest.mark.parametrize("losses_on", [trainer.LOSS_NAMES, ("inter",)],
                         ids=["criterion11", "inter_only"])
def test_epochs_continue_from_a_stopped_generator(losses_on):
    """Two epochs of one generator, then a new generator from the same state,
    end in exactly the state of fit's straight run."""
    cfg = trainer.with_losses(CRITERION_11, losses_on)
    straight, train, test = trainer.fit(cfg)
    state, _, _ = trainer.start(cfg, (train, test))
    for _ in itertools.islice(trainer.epochs(cfg, train, state), 2):
        pass
    assert state.epoch == 2 and len(state.history) == 2
    for _ in trainer.epochs(cfg, train, state):
        pass
    assert state.params.tobytes() == straight.params.tobytes()
    for bank, want in ((state.bank_inter, straight.bank_inter),
                       (state.bank_segment, straight.bank_segment)):
        assert bank.storage.tobytes() == want.storage.tobytes()
        assert (bank.cursor, bank.fill) == (want.cursor, want.fill)
    assert state.step == straight.step
    assert state.history == straight.history


def test_every_step_assembles_its_batch_then_trains_on_it(tmp_path, monkeypatch):
    """fit and pretrain call assemble_batch and train_step through the module
    attributes, once per step each, each step's assembly directly before its
    step: a timer that wraps both (perfbench/worker.py's StepClock) then
    times whole steps."""
    calls = []
    assemble_batch, train_step = trainer.assemble_batch, trainer.train_step

    def logged_assemble(*args, **kwargs):
        batch = assemble_batch(*args, **kwargs)
        calls.append(("assemble", batch))
        return batch

    def logged_step(state, batch, cfg):
        calls.append(("step", batch))
        return train_step(state, batch, cfg)

    monkeypatch.setattr(trainer, "assemble_batch", logged_assemble)
    monkeypatch.setattr(trainer, "train_step", logged_step)
    cfg = tiny_config(epochs=3)
    for run in (lambda: trainer.fit(cfg)[0], lambda: trainer.pretrain(cfg, tmp_path)[2]):
        calls.clear()
        state = run()
        assert state.step == 3 * 3  # 12 train videos in batches of 4
        assert [kind for kind, _ in calls] == ["assemble", "step"] * state.step
        assert all(calls[i][1] is calls[i + 1][1] for i in range(0, len(calls), 2))


def test_gradient_suite_passes_on_small_model():
    cfg = tiny_config()
    results = trainer.gradient_suite(cfg, n_seeds=2, probes_per_param=3)
    names = {name for name, _, _ in results}
    assert names == {"inter", "intra", "segment", "order", "total"}
    for name, seed, report in results:
        assert report.passed, f"{name} seed {seed}: {report}"


def reference_batch_item(video, drawn, slot, cfg):
    """One batch item one frame at a time, built from the drawn record and
    the video's (T, H, W) frames: the item's rows of each Batch array, frames
    flattened."""
    k = cfg.segments
    tuples = drawn.tuples

    def tuple_frames(t):
        return np.stack([
            reference_augment_frame(video[tuples.indices[slot, t, j] % len(video)],
                                    frame_params(tuples.aug, (slot, t, j)))
            for j in range(k)])

    def view(index, j):
        return reference_augment_frame(video[index % len(video)],
                                       frame_params(drawn.views, (slot, j)))

    a_frames, p_frames = tuple_frames(0), tuple_frames(1)
    segment_order = np.argsort(tuples.indices[slot, 0])
    first = tuples.indices[slot, 0, segment_order[0]]
    frame_anchor, frame_positive = view(first, 0), view(first, 1)
    others = [a_frames[segment_order[1 % k]], a_frames[segment_order[2 % k]]]
    shuffle_anchor, shuffle_positive = tuples.shuffled[slot]
    return {"anchors": a_frames.reshape(k, -1), "positives": p_frames.reshape(k, -1),
            "frame_anchors": frame_anchor.reshape(-1),
            "key_views": np.stack([frame_positive, *others]).reshape(3, -1),
            "order_labels": np.array(2 * int(shuffle_anchor) + int(shuffle_positive))}


def step_stream(cfg, epoch, step):
    return np.random.default_rng(
        np.random.SeedSequence([cfg.seed, trainer.STREAM_SAMPLE, epoch, step]))


def step_indices(cfg, n_videos, epoch, step):
    perm = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, trainer.STREAM_ORDER, epoch])).permutation(n_videos)
    return perm[step * cfg.batch_size:(step + 1) * cfg.batch_size]


@pytest.mark.parametrize("variant", [{}, {"segments": 4}])
def test_assemble_batch_matches_per_frame_reference(variant, monkeypatch):
    spec = synth.DatasetSpec(classes=4, videos_per_class=6, frames=16, seed=11)
    cfg = TrainConfig(dataset=spec, epochs=4, batch_size=8, bank_capacity=256,
                      hidden_dim=32, feature_dim=16, embed_dim=8, seed=3, **variant)
    train_videos, _ = synth.generate_dataset(spec)
    calls = []
    batched = sampling.augment_frames
    monkeypatch.setattr(sampling, "augment_frames",
                        lambda frames, params: calls.append(len(frames)) or batched(frames, params))
    for epoch, step in ((0, 0), (1, 1), (3, 0), (3, 1)):
        indices = step_indices(cfg, len(train_videos), epoch, step)
        calls.clear()
        batch = trainer.assemble_batch(train_videos.frames, indices, cfg, epoch, step)
        assert len(calls) == 1
        assert len(batch) == len(indices)
        # the stacked arrays are views into the one augment_frames output
        assert batch.anchors.base is not None
        assert batch.positives.base is batch.anchors.base
        assert batch.frame_anchors.base is batch.anchors.base
        videos = train_videos.frames[indices]
        drawn = trainer.draw_batch(len(videos), videos.shape[1:], cfg,
                                   step_stream(cfg, epoch, step))
        for slot, video in enumerate(videos):
            expected = reference_batch_item(video, drawn, slot, cfg)
            for field in dataclasses.fields(trainer.Batch):
                got, want = getattr(batch, field.name)[slot], expected[field.name]
                assert got.shape == want.shape, field.name
                np.testing.assert_allclose(got, want, rtol=0, atol=REFERENCE_ATOL,
                                           err_msg=field.name)


@pytest.mark.parametrize("losses_on, read, columns", [
    (("inter",), 4, 8),
    (("segment", "order"), 6, 8),
    (trainer.LOSS_NAMES, 8, 8),
], ids=["inter", "segment_order", "all"])
def test_sample_batch_augments_only_the_frames_read(losses_on, read, columns, monkeypatch):
    cfg = tiny_config()
    assert cfg.segments == 3
    selected = trainer.with_losses(cfg, losses_on)
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    counts = []
    augment = sampling.augment_frames
    monkeypatch.setattr(sampling, "augment_frames",
                        lambda frames, params: counts.append(len(frames)) or augment(frames, params))
    full = trainer.assemble_batch(train_videos.frames, [3, 1, 4, 0], cfg, 1, 1)
    batch = trainer.assemble_batch(train_videos.frames, [3, 1, 4, 0], selected, 1, 1)
    assert counts == [4 * columns, 4 * read]
    tuples = selected.use_segment or selected.use_order
    frames = selected.use_inter or selected.use_intra
    unread = {"anchors": not tuples, "positives": not tuples,
              "frame_anchors": not frames, "key_views": not frames, "order_labels": False}
    for field in dataclasses.fields(trainer.Batch):
        got, want = getattr(batch, field.name), getattr(full, field.name)
        if unread[field.name]:
            assert got is None, field.name
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field.name


def test_assemble_batch_same_step_same_bytes():
    cfg = tiny_config()
    train_videos, _ = synth.generate_dataset(cfg.dataset)

    def batch_bytes(epoch, step):
        batch = trainer.assemble_batch(train_videos.frames, [3, 1, 4, 0], cfg, epoch, step)
        return [getattr(batch, f.name).tobytes() for f in dataclasses.fields(trainer.Batch)]

    assert batch_bytes(2, 1) == batch_bytes(2, 1)
    assert batch_bytes(2, 1) != batch_bytes(2, 0)
    assert batch_bytes(2, 1) != batch_bytes(1, 1)
    drawn = [trainer.draw_batch(4, train_videos.frames.shape[1:], cfg, step_stream(cfg, 2, 1))
             for _ in range(2)]
    for a, b in zip(drawn[0].tuples.aug + drawn[0].views, drawn[1].tuples.aug + drawn[1].views):
        assert a.tobytes() == b.tobytes()
    assert drawn[0].tuples.indices.tobytes() == drawn[1].tuples.indices.tobytes()


def reference_info_nce(query, positive, negatives, temperature):
    """One sample's (M+1)-way cross-entropy, positive in slot 0: a (1, E)
    query and positive against (M, E) negatives."""
    if negatives is None or negatives.shape[0] == 0:
        return np.float64(0.0)
    inv = 1.0 / temperature
    pos = nm.scale(nm.dot(query, positive), inv)
    neg = nm.scale(nm.linear(query, negatives.T, np.zeros(len(negatives))), inv)
    return nm.softmax_cross_entropy(nm.concat([pos, neg]), [0])


def reference_consensus(params, frames):
    """The (1, F) mean encoded feature of one (K, P) tuple of frames."""
    features = model.encode(params, frames)
    return nm.mean_rows(nm.reshape(features, (1, *features.shape)))


def reference_sample_losses(query_params, key_params, item, inter_negatives,
                            segment_negatives, cfg):
    """The per-sample objective the batched step replaced: one item's enabled
    loss terms plus the key rows it enqueues, key side recomputed per item.
    Every embedding is a batch of one."""
    anchor, positive = item["anchors"], item["positives"]
    tau = cfg.temperature
    out = {}
    enqueue = {}
    if cfg.use_inter or cfg.use_intra:
        query_feat = model.encode(query_params, item["frame_anchors"][None])
        key_feats = model.encode(key_params, item["key_views"])
        if cfg.use_inter:
            q = model.project(query_params, "inter", query_feat)
            p = model.project(key_params, "inter", key_feats)
            total = nm.add(nm.add(reference_info_nce(q, p[0:1], inter_negatives, tau),
                                  reference_info_nce(q, p[1:2], inter_negatives, tau)),
                           reference_info_nce(q, p[2:3], inter_negatives, tau))
            out["inter"] = nm.scale(total, 1.0 / 3.0)
            enqueue["inter"] = p
        if cfg.use_intra:
            q = model.project(query_params, "intra", query_feat)
            p = model.project(key_params, "intra", key_feats)
            out["intra"] = reference_info_nce(q, p[:1], p[1:], tau)
    if cfg.use_segment:
        q = model.project(query_params, "segment", reference_consensus(query_params, anchor))
        p = model.project(key_params, "segment", reference_consensus(key_params, positive))
        out["segment"] = reference_info_nce(q, p, segment_negatives, tau)
        enqueue["segment"] = p
    if cfg.use_order:
        def per_frame(params, frames):
            return model.project(params, "order", model.encode(params, frames))

        joint = nm.concat([nm.reshape(per_frame(query_params, anchor), (1, -1)),
                           nm.reshape(per_frame(key_params, positive), (1, -1))])
        logits = nm.linear(joint, query_params["order_clf.weight"],
                           query_params["order_clf.bias"])
        out["order"] = nm.softmax_cross_entropy(logits, [int(item["order_labels"])])
    return out, enqueue


def reference_batch_losses(query_params, key_params, batch, inter_negatives, segment_negatives,
                           cfg):
    """Per-term batch means, the batch loss and the bank rows of the
    per-sample step: the batch loss is the mean of the per-item sums."""
    batch_sum = None
    sums = {}
    pending = {"inter": [], "segment": []}
    for slot in range(len(batch)):
        item = {f.name: getattr(batch, f.name)[slot] for f in dataclasses.fields(trainer.Batch)}
        terms, enqueue = reference_sample_losses(query_params, key_params, item,
                                                 inter_negatives, segment_negatives, cfg)
        item_total = None
        for name, term in terms.items():
            sums[name] = sums.get(name, 0.0) + float(getattr(term, "value", term))
            item_total = term if item_total is None else nm.add(item_total, term)
        batch_sum = item_total if batch_sum is None else nm.add(batch_sum, item_total)
        for bank_name, rows in enqueue.items():
            pending[bank_name].append(rows)
    return ({name: total / len(batch) for name, total in sums.items()},
            nm.scale(batch_sum, 1.0 / len(batch)),
            {name: np.vstack(rows) for name, rows in pending.items() if rows})


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def assert_relative(got, want, bound, what):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound * scale, what


@pytest.mark.parametrize("bank_rows", [0, 40], ids=["empty_bank", "partial_bank"])
@pytest.mark.parametrize("variant", [
    {}, {"segments": 4}, {"segments": 1}, {"segments": 2},
], ids=["criterion11", "k4", "k1", "k2"])
def test_batch_losses_match_per_sample_reference(variant, bank_rows):
    spec = synth.DatasetSpec(classes=4, videos_per_class=6, frames=16, seed=11)
    cfg = TrainConfig(dataset=spec, epochs=4, batch_size=8, bank_capacity=256,
                      hidden_dim=32, feature_dim=16, embed_dim=8, seed=3, **variant)
    train_videos, _ = synth.generate_dataset(spec)
    batch = trainer.assemble_batch(train_videos.frames, range(8), cfg, 1, 0)
    state = trainer.init_state(cfg, total_steps=4)
    rng = np.random.default_rng(bank_rows)
    # a key side distinct from the query, so a positive from the wrong side shows
    state.params[1] = flat(model.init_params(cfg.model_config(), rng))
    state.bank_inter.enqueue(unit_rows(rng, bank_rows, cfg.embed_dim))
    state.bank_segment.enqueue(unit_rows(rng, bank_rows // 2, cfg.embed_dim))
    inter_negatives = state.bank_inter.negatives_view()
    segment_negatives = state.bank_segment.negatives_view()

    query_vars = model.as_vars(state.query)
    targets = trainer.key_targets(state.key, batch, cfg)
    terms = trainer.batch_losses(query_vars, targets, batch, inter_negatives, segment_negatives,
                                 cfg)
    reference_vars = model.as_vars(state.query)
    means, reference_loss, rows = reference_batch_losses(
        reference_vars, state.key, batch, inter_negatives, segment_negatives, cfg)
    assert set(terms) == set(means) == set(trainer.LOSS_NAMES)
    total = None
    for name, term in terms.items():
        value = float(getattr(term, "value", term))
        assert_relative(value, means[name], 1e-12, name)
        if bank_rows == 0 and name in ("inter", "segment"):
            assert not isinstance(term, nm.Var) and value == 0.0
        total = term if total is None else nm.add(total, term)
    assert_relative(total.value, reference_loss.value, 1e-12, "total")
    total.backward()
    reference_loss.backward()
    for name in state.query:
        got, want = query_vars[name].grad, reference_vars[name].grad
        assert (got is None) == (want is None), name
        if want is not None:
            assert_relative(got, want, 1e-12, name)

    assert np.max(np.abs(targets["inter"].reshape(-1, cfg.embed_dim) - rows["inter"])) <= 1e-15
    assert np.max(np.abs(targets["segment"] - rows["segment"])) <= 1e-15
    # the step enqueues exactly these rows, after the old ones
    trainer.train_step(state, batch, cfg)
    fresh = 3 * len(batch)
    assert state.bank_inter.negatives_view()[bank_rows:bank_rows + fresh].tobytes() == \
        targets["inter"].reshape(-1, cfg.embed_dim).tobytes()
    assert state.bank_segment.negatives_view()[bank_rows // 2:].tobytes() == \
        targets["segment"].tobytes()


def test_loss_total_is_sum_of_terms():
    cfg = tiny_config()
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg, total_steps=4)
    for s in range(2):
        metrics = trainer.train_step(
            state, trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, s), cfg)
    parts = [metrics[f"loss_{name}"] for name in trainer.LOSS_NAMES]
    assert all(part > 0.0 for part in parts)
    assert metrics["loss_total"] == ((parts[0] + parts[1]) + parts[2]) + parts[3]


def reference_key_targets(key_params, batch, cfg):
    """The two-pass key side: the key views and the positive tuples each go
    through an encoder pass of their own."""
    b, k = len(batch), cfg.segments
    out = {}
    if cfg.use_inter or cfg.use_intra:
        features = model.encode(key_params, batch.key_views.reshape(3 * b, -1))
        if cfg.use_inter:
            out["inter"] = model.project(key_params, "inter", features).reshape(b, 3, -1)
        if cfg.use_intra:
            out["intra"] = model.project(key_params, "intra", features).reshape(b, 3, -1)
    if cfg.use_segment or cfg.use_order:
        features = model.encode(key_params, batch.positives.reshape(b * k, -1))
        if cfg.use_segment:
            out["segment"] = model.segment_embedding(key_params, features, k)
        if cfg.use_order:
            out["order"] = model.order_embedding(key_params, features, cfg.model_config())
    return out


@pytest.mark.parametrize("variant", [
    {}, {"hidden_dim": 128, "feature_dim": 64, "embed_dim": 32}, {"segments": 1},
    {"segments": 4}, {"use_inter": False, "use_intra": False, "use_segment": False},
], ids=["tiny", "default_dims", "k1", "k4", "order_only"])
def test_key_targets_encode_once_per_side(variant, monkeypatch):
    cfg = tiny_config(**variant)
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg, total_steps=4)
    batch = trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, 0)
    want = reference_key_targets(state.key, batch, cfg)
    sides = []
    encode = model.encode

    def noted(params, frames):
        sides.append("query" if isinstance(params["encoder.fc1.weight"], nm.Var) else "key")
        return encode(params, frames)

    monkeypatch.setattr(model, "encode", noted)
    got = trainer.key_targets(state.key, batch, cfg)
    assert sides == ["key"]
    assert set(got) == set(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    sides.clear()
    trainer.train_step(state, batch, cfg)
    assert sorted(sides) == ["key", "query"]


@pytest.mark.parametrize("cfg", [
    tiny_config(hidden_dim=128, feature_dim=64, embed_dim=32),
    trainer.with_losses(tiny_config(), ("inter",)),
    trainer.with_losses(tiny_config(), ("order",)),
    tiny_config(segments=1),
    tiny_config(segments=4),
], ids=["default", "inter_only", "order_only", "k1", "k4"])
def test_embed_tape_and_plain_paths_give_the_same_bytes(cfg):
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg)
    state.params[1] = flat(model.init_params(cfg.model_config(), np.random.default_rng(1)))
    batch = trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, 0)
    plain = trainer.embed(state.query, batch.frame_anchors, batch.anchors, cfg)
    taped = trainer.embed(model.as_vars(state.query), batch.frame_anchors, batch.anchors, cfg)
    wanted = {name for name in trainer.LOSS_NAMES if getattr(cfg, f"use_{name}")}
    assert set(plain) == set(taped) == wanted
    for name, rows in plain.items():
        assert not isinstance(rows, nm.Var) and isinstance(taped[name], nm.Var), name
        assert taped[name].value.tobytes() == rows.tobytes(), name
    # the key side is embed over the key views, with frame-level rows per item
    views = trainer.embed(state.key, batch.key_views, batch.positives, cfg)
    targets = trainer.key_targets(state.key, batch, cfg)
    assert set(targets) == wanted
    for name, rows in views.items():
        want = rows.reshape(len(batch), 3, -1) if name in ("inter", "intra") else rows
        assert targets[name].shape == want.shape, name
        assert targets[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("losses_on, nodes", [
    ({}, 50),
    ({"use_intra": False, "use_segment": False, "use_order": False}, 14),
], ids=["default", "inter_only"])
def test_step_graph_size(losses_on, nodes):
    """Nodes reachable from one step's loss with both banks partly filled;
    a change to this count is a deliberate change of the step's graph."""
    cfg = tiny_config(**losses_on)
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg, total_steps=4)
    rng = np.random.default_rng(0)
    state.bank_inter.enqueue(unit_rows(rng, 20, cfg.embed_dim))
    state.bank_segment.enqueue(unit_rows(rng, 10, cfg.embed_dim))
    batch = trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, 0)
    targets = trainer.key_targets(state.key, batch, cfg)
    terms = trainer.batch_losses(model.as_vars(state.query), targets, batch,
                                 state.bank_inter.negatives_view(),
                                 state.bank_segment.negatives_view(), cfg)
    assert len(nm._toposort(trainer._sum_terms(terms))) == nodes


def reference_active_names(cfg):
    """The names the per-name update trained under the enabled losses."""
    names = ["encoder.fc1.weight", "encoder.fc1.bias", "encoder.fc2.weight", "encoder.fc2.bias"]
    for head in trainer.LOSS_NAMES:
        if getattr(cfg, f"use_{head}"):
            names += [f"head_{head}.fc1.weight", f"head_{head}.fc1.bias",
                      f"head_{head}.fc2.weight", f"head_{head}.fc2.bias"]
    if cfg.use_order:
        names += ["order_clf.weight", "order_clf.bias"]
    return names


def reference_momentum_update(key_params, query_params, m):
    """The per-name key update: m * key + (1 - m) * query, copies at m = 1, 0."""
    out = {}
    for name, k in key_params.items():
        q = query_params[name]
        if m == 1.0:
            out[name] = k.copy()
        elif m == 0.0:
            out[name] = q.copy()
        else:
            out[name] = m * k + (1.0 - m) * q
    return out


def reference_train_step(ref, batch, cfg):
    """The per-name step the whole-vector update replaced, on dicts of
    query, key and velocity arrays and a pair of banks."""
    lr = trainer.cosine_lr(ref.step, ref.total_steps, cfg.learning_rate)
    inter_negatives = ref.bank_inter.negatives_view() if cfg.use_inter else None
    segment_negatives = ref.bank_segment.negatives_view() if cfg.use_segment else None
    targets = trainer.key_targets(ref.key, batch, cfg)
    query_vars = model.as_vars(ref.query)
    loss = trainer._sum_terms(trainer.batch_losses(query_vars, targets, batch, inter_negatives,
                                                   segment_negatives, cfg))
    if isinstance(loss, nm.Var):
        loss.backward()
    for name in reference_active_names(cfg):
        grad = query_vars[name].grad
        if grad is None:
            grad = np.zeros_like(ref.query[name])
        grad = grad + cfg.weight_decay * ref.query[name]
        ref.velocity[name] = cfg.sgd_momentum * ref.velocity[name] + grad
        ref.query[name] = ref.query[name] - lr * ref.velocity[name]
    ref.key = reference_momentum_update(ref.key, ref.query, cfg.key_momentum)
    if cfg.use_inter:
        ref.bank_inter.enqueue(targets["inter"].reshape(-1, cfg.embed_dim))
    if cfg.use_segment:
        ref.bank_segment.enqueue(targets["segment"])
    ref.step += 1


@pytest.mark.parametrize("losses_on, key_momentum", [
    (trainer.LOSS_NAMES, 0.999), (("inter",), 0.999), (("segment",), 0.999),
    (trainer.LOSS_NAMES, 0.0), (trainer.LOSS_NAMES, 1.0),
], ids=["all_losses", "inter_only", "segment_only", "key_momentum0", "key_momentum1"])
def test_train_step_matches_per_name_reference(losses_on, key_momentum):
    cfg = trainer.with_losses(tiny_config(key_momentum=key_momentum), losses_on)
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg, total_steps=6)
    init = trainer.init_state(cfg, total_steps=6)
    ref = types.SimpleNamespace(
        query={name: arr.copy() for name, arr in init.query.items()},
        key={name: arr.copy() for name, arr in init.key.items()},
        velocity={name: np.zeros_like(arr) for name, arr in init.query.items()},
        bank_inter=init.bank_inter, bank_segment=init.bank_segment, step=0, total_steps=6)
    per_epoch = trainer.steps_per_epoch(len(train_videos), cfg.batch_size)
    for step in range(6):
        epoch, s = divmod(step, per_epoch)
        indices = step_indices(cfg, len(train_videos), epoch, s)
        batch = trainer.assemble_batch(train_videos.frames, indices, cfg, epoch, s)
        trainer.train_step(state, batch, cfg)
        reference_train_step(ref, batch, cfg)
        for row, side in zip(state.params, (ref.query, ref.key, ref.velocity)):
            assert row.tobytes() == flat(side).tobytes(), step
        assert state.bank_inter.state()[0].tobytes() == ref.bank_inter.state()[0].tobytes()
        assert state.bank_segment.state()[0].tobytes() == ref.bank_segment.state()[0].tobytes()


def test_active_mask_matches_reference_names():
    base = tiny_config()
    views = model.param_views(np.zeros(trainer.init_state(base).params.shape[1]),
                              base.model_config())
    for n in range(1, len(trainer.LOSS_NAMES) + 1):
        for losses_on in itertools.combinations(trainer.LOSS_NAMES, n):
            cfg = trainer.with_losses(base, losses_on)
            active = reference_active_names(cfg)
            expected = flat({name: np.full(view.shape, float(name in active))
                             for name, view in views.items()})
            assert trainer.init_state(cfg).active.tobytes() == expected.tobytes(), losses_on


def test_init_state_draws_the_per_name_init_into_one_buffer():
    cfg = tiny_config()
    state = trainer.init_state(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, trainer.STREAM_INIT]))
    shapes = model.param_shapes(cfg.model_config())
    draws = {}
    for name, shape in shapes.items():
        fan_in = shapes[name.replace(".bias", ".weight")][0]
        draws[name] = rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=shape)
    assert state.params.shape == (3, flat(draws).size)
    assert state.params[0].tobytes() == flat(draws).tobytes()
    assert state.params[1].tobytes() == flat(draws).tobytes()
    assert not state.params[2].any()
    for side, row in ((state.query, state.params[0]), (state.key, state.params[1])):
        assert all(np.shares_memory(view, row) for view in side.values())
        with pytest.raises(TypeError):
            side["order_clf.bias"] = np.zeros(4)


def snapshot(state):
    return (state.params.tobytes(), state.bank_inter.state()[0].tobytes(),
            state.bank_segment.state()[0].tobytes(), state.step)


def test_non_finite_parameter_stops_the_first_step_unchanged():
    cfg = tiny_config()
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg, total_steps=4)
    state.query["encoder.fc1.weight"][0, 0] = np.nan
    before = snapshot(state)
    batch = trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, 0)
    # numpy warns inside the forward pass first; the step's check is under test
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match=r"^epoch 0 step 0: loss term 'intra'"):
        trainer.train_step(state, batch, cfg)
    assert snapshot(state) == before


def test_collapsed_key_embedding_names_epoch_and_step():
    cfg = tiny_config()
    train_videos, _ = synth.generate_dataset(cfg.dataset)
    state = trainer.init_state(cfg, total_steps=4)
    state.key["head_inter.fc2.weight"][...] = 0.0
    state.key["head_inter.fc2.bias"][...] = 0.0
    before = snapshot(state)
    batch = trainer.assemble_batch(train_videos.frames, range(4), cfg, 0, 0)
    with pytest.raises(nm.DegenerateNormError, match=r"^epoch 0 step 0: "):
        trainer.train_step(state, batch, cfg)
    assert snapshot(state) == before
