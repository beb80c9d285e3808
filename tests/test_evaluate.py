import dataclasses
import itertools

import numpy as np
import pytest

from vidseg import evaluate, model, sampling, synth, trainer
from vidseg.evaluate import FeatureTable, ProbeConfig, RetrievalConfig


def table(ids, labels, features):
    return FeatureTable(ids=np.array(ids), labels=np.array(labels),
                        features=np.asarray(features, dtype=float))


def one_hot_tables(classes=4, per_class=6):
    train, test = ([], [], []), ([], [], [])
    next_id = 0
    for c in range(classes):
        for i in range(per_class):
            row = np.zeros(classes)
            row[c] = 1.0
            side = train if i < per_class // 2 else test
            side[0].append(next_id)
            side[1].append(c)
            side[2].append(row)
            next_id += 1
    return table(*train), table(*test)


def split_of(frames):
    """A Split of the (n, T, H, W) frames, video b with id and label b."""
    n = len(frames)
    return synth.Split(frames=frames, ids=np.arange(n), labels=np.arange(n),
                       windows=np.full((n, 2), -1))


def per_video_features(params, frames, n_frames):
    """The reference per-video loop: one encode of each video's n_frames
    uniformly spaced frames (capped at its length), averaged."""
    feats = []
    for video in frames:
        t_count = video.shape[0]
        n = min(n_frames, t_count)
        rows = video[[i * t_count // n for i in range(n)]].reshape(n, -1)
        feats.append(np.asarray(model.encode(params, rows)).mean(axis=0))
    return np.stack(feats)


def test_extract_feature_constant_video():
    cfg = model.ModelConfig(frame_pixels=64, hidden_dim=8, feature_dim=6)
    params = model.init_params(cfg, np.random.default_rng(0))
    frames = np.tile(np.random.default_rng(1).uniform(size=(8, 8)), (1, 5, 1, 1))
    feat = evaluate.build_feature_table(params, split_of(frames), 4).features[0]
    single = np.asarray(model.encode(params, frames[0, 0].reshape(1, -1)))[0]
    assert np.allclose(feat, single, atol=1e-12)


def test_extract_feature_all_frames_is_plain_mean():
    cfg = model.ModelConfig(frame_pixels=64, hidden_dim=8, feature_dim=6)
    params = model.init_params(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    frames = rng.uniform(size=(1, 6, 8, 8))
    feat = evaluate.build_feature_table(params, split_of(frames), 6).features[0]
    oracle = np.mean([np.asarray(model.encode(params, f.reshape(1, -1)))[0]
                      for f in frames[0]], axis=0)
    assert np.allclose(feat, oracle, atol=1e-12)


def test_extract_feature_matches_loop_oracle():
    # one encode over the whole split gives each video the bytes of its own
    # encode; 25 frames are capped at the 10 there are
    cfg = model.ModelConfig(frame_pixels=64, hidden_dim=8, feature_dim=6)
    params = model.init_params(cfg, np.random.default_rng(4))
    for videos, n_frames in itertools.product([1, 5], [1, 2, 3, 4, 10, 25]):
        frames = np.random.default_rng(5).uniform(size=(videos, 10, 8, 8))
        table = evaluate.build_feature_table(params, split_of(frames), n_frames)
        want = per_video_features(params, frames, n_frames)
        if videos > 1 and n_frames == 1:
            # a one-row encode is a matrix-vector product, which rounds apart
            # from the matrix product over all videos by a few ulp
            assert np.allclose(table.features, want, rtol=0.0, atol=1e-12)
        else:
            assert table.features.tobytes() == want.tobytes(), (videos, n_frames)


def one_pass_features(params, frames, n_frames):
    """The reference one-pass encode: every video's picked frames in one
    matrix product, then the per-video means."""
    n, t_count = frames.shape[:2]
    n_frames = min(n_frames, t_count)
    rows = frames[:, np.arange(n_frames) * t_count // n_frames].reshape(n * n_frames, -1)
    return np.asarray(model.encode(params, rows)).reshape(n, n_frames, -1).mean(axis=1)


def test_blocked_encode_matches_one_pass_bytes(monkeypatch):
    # 256 rows of 16x16 frames make a block: split sizes at and just past one
    # and two blocks' worth of videos. 257 and 513 one-frame videos would
    # leave a one-video remainder, whose one-row product (a matrix-vector
    # product) rounds apart from the one-pass bytes; balanced blocks avoid it
    params = model.init_params(model.ModelConfig(frame_pixels=256, hidden_dim=8, feature_dim=6),
                               np.random.default_rng(30))
    frames = np.random.default_rng(31).uniform(size=(513, 8, 16, 16)).astype(np.float32)
    calls = []
    encode = model.encode
    monkeypatch.setattr(model, "encode", lambda p, rows: calls.append(len(rows)) or encode(p, rows))
    for n_frames, sizes in [(1, (1, 256, 257, 513)), (3, (85, 86, 171)), (8, (32, 33, 65))]:
        for n in sizes:
            want = one_pass_features(params, frames[:n], n_frames)
            calls.clear()
            got = evaluate.build_feature_table(params, split_of(frames[:n]), n_frames).features
            assert got.tobytes() == want.tobytes(), (n_frames, n)
            # as few blocks as 256 rows allow, each of whole videos, never a
            # single row unless the split is one
            assert sum(calls) == n * n_frames and len(calls) == -(-n * n_frames // 256), calls
            assert all(rows % n_frames == 0 and rows <= 256 for rows in calls), calls
            assert min(calls) >= min(2, n * n_frames), calls


def test_blocked_encode_peak_does_not_grow_with_the_split(traced):
    # the default encoder and 8 probe frames on the train split of 8 classes
    # of 32-frame 16x16 videos at 25 and 100 videos per class: 160 and 640
    # videos, 5 and 20 full blocks. Only the (n, 64) float64 table grows with
    # the split; one block's float32 rows, their float64 widening and its
    # hidden activations stay the same size. So 4x the videos may cost the
    # table's extra bytes plus 64 KiB, an eighth of one widened block, for
    # small Python objects such as the table's id set (about 1 KiB was
    # seen); a one-pass encode costs about 19 MiB more
    params = model.init_params(model.ModelConfig(frame_pixels=256),
                               np.random.default_rng(32))
    frames = np.random.default_rng(33).uniform(size=(640, 32, 16, 16)).astype(np.float32)
    evaluate.build_feature_table(params, split_of(frames[:2]), 8)
    peaks, tables = [], []
    for n in (160, 640):
        table, peak = traced(evaluate.build_feature_table, params, split_of(frames[:n]), 8)
        peaks.append(peak)
        tables.append(table.features.nbytes)
    assert peaks[1] - peaks[0] < tables[1] - tables[0] + (64 << 10), (peaks, tables)


def test_extract_feature_rejects_no_frames():
    cfg = model.ModelConfig(frame_pixels=64, hidden_dim=8, feature_dim=6)
    params = model.init_params(cfg, np.random.default_rng(6))
    with pytest.raises(ValueError, match="n_frames must be >= 1"):
        evaluate.build_feature_table(params, split_of(np.zeros((2, 4, 8, 8))), 0)


def test_probe_separable_features_are_perfect():
    train, test = one_hot_tables()
    assert evaluate.linear_probe(train, test, ProbeConfig()) == 1.0


def test_probe_random_features_near_chance():
    rng = np.random.default_rng(7)
    classes = 4
    accs = []
    for trial in range(20):
        feats = rng.normal(size=(80, 16))
        labels = np.repeat(np.arange(classes), 20)
        perm = rng.permutation(80)
        train = table(np.arange(60), labels[perm][:60], feats[:60])
        test = table(np.arange(60, 80), labels[perm][60:], feats[60:])
        accs.append(evaluate.linear_probe(train, test, ProbeConfig()))
    mean = np.mean(accs)
    sigma = np.sqrt(0.25 * 0.75 / (20 * 20))
    assert abs(mean - 0.25) < 3 * sigma + 0.02


def test_probe_missing_class_errors():
    train, test = one_hot_tables()
    train_missing = table(train.ids[train.labels != 3], train.labels[train.labels != 3],
                          train.features[train.labels != 3])
    with pytest.raises(ValueError):
        evaluate.linear_probe(train_missing, test, ProbeConfig())


def test_probe_rotation_invariance():
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(100, 12)) + np.repeat(np.eye(4, 12) * 3, 25, axis=0)
    labels = np.repeat(np.arange(4), 25)
    perm = rng.permutation(100)
    feats, labels = feats[perm], labels[perm]
    train = table(np.arange(70), labels[:70], feats[:70])
    test = table(np.arange(70, 100), labels[70:], feats[70:])
    base = evaluate.linear_probe(train, test, ProbeConfig())
    for trial in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        rotated_train = table(train.ids, train.labels, train.features @ q)
        rotated_test = table(test.ids, test.labels, test.features @ q)
        rotated = evaluate.linear_probe(rotated_train, rotated_test, ProbeConfig())
        assert abs(rotated - base) <= 0.005 + 1e-9


def test_retrieval_exact_duplicates():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(12, 6))
    labels = np.arange(12) % 3
    queries = table(np.arange(12), labels, feats)
    gallery = table(np.arange(100, 112), labels, feats.copy())
    recalls = evaluate.retrieval_recall(queries, gallery, [1])
    assert recalls[1] == 1.0


def test_retrieval_orthogonal_class_features():
    train, test = one_hot_tables()
    recalls = evaluate.retrieval_recall(test, train, [1, 2, 3])
    assert all(v == 1.0 for v in recalls.values())


def test_retrieval_excludes_same_video_id():
    feats = np.eye(2)
    queries = table([0], [0], feats[:1])
    gallery = table([0, 1], [0, 1], feats)  # the only same-class item shares the id
    recalls = evaluate.retrieval_recall(queries, gallery, [1])
    assert recalls[1] == 0.0


def test_retrieval_excluded_entries_never_count_as_hits():
    # self-retrieval of four one-item classes: each query's only same-class
    # entry is itself, so no k finds a match
    queries = FeatureTable(ids=np.arange(4), labels=np.arange(4), features=np.eye(4))
    recalls = evaluate.retrieval_recall(queries, queries, [1, 3, 4])
    assert recalls == {1: 0.0, 3: 0.0, 4: 0.0}


def test_retrieval_monotone_and_k_validation():
    rng = np.random.default_rng(13)
    queries = table(np.arange(10), np.arange(10) % 2, rng.normal(size=(10, 4)))
    gallery = table(np.arange(20, 40), np.arange(20) % 2, rng.normal(size=(20, 4)))
    recalls = evaluate.retrieval_recall(queries, gallery, [1, 3, 10, 20])
    values = [recalls[k] for k in sorted(recalls)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        evaluate.retrieval_recall(queries, gallery, [21])


def test_retrieval_random_features_near_class_frequency():
    rng = np.random.default_rng(15)
    classes = 4
    hits = []
    for _ in range(50):
        q = rng.normal(size=(20, 8))
        g = rng.normal(size=(40, 8))
        queries = table(np.arange(20), np.arange(20) % classes, q)
        gallery = table(np.arange(100, 140), np.arange(40) % classes, g)
        hits.append(evaluate.retrieval_recall(queries, gallery, [1])[1])
    assert abs(np.mean(hits) - 1.0 / classes) < 0.05


def test_random_init_probe_not_below_chance_floor():
    spec = synth.DatasetSpec(classes=4, videos_per_class=6, frames=8, untrimmed=False, seed=3)
    cfg = trainer.TrainConfig(dataset=spec, hidden_dim=16, feature_dim=12, embed_dim=8)
    state = trainer.init_state(cfg)
    train_videos, test_videos = synth.generate_dataset(spec)
    accuracy, _ = evaluate.evaluate_encoder(state.query, state.key, train_videos, test_videos,
                                            ProbeConfig(), RetrievalConfig(ks=(1,)))
    n_test = len(test_videos)
    sigma = np.sqrt(0.25 * 0.75 / n_test)
    assert accuracy >= 0.25 - 3 * sigma


def test_run_ablation_row_counts_and_rejects_bad_grid():
    spec = synth.DatasetSpec(classes=4, videos_per_class=4, frames=8, untrimmed=True, seed=4)
    base = trainer.TrainConfig(dataset=spec, epochs=1, batch_size=4, bank_capacity=32,
                               hidden_dim=12, feature_dim=8, embed_dim=6)
    entries = [evaluate.AblationEntry(name="full")]
    rows, summary = evaluate.run_ablation(base, entries, seeds=[0])
    assert len(rows) == 1 and len(summary) == 1
    assert rows[0][0] == "full" and summary[0][1] == "median"
    bad = [evaluate.AblationEntry(name="intra_only", losses=("intra",))]
    with pytest.raises(ValueError):
        evaluate.run_ablation(base, bad, seeds=[0])


def test_run_ablation_generates_each_dataset_once(monkeypatch):
    spec = synth.DatasetSpec(classes=4, videos_per_class=4, frames=8, seed=6)
    base = trainer.TrainConfig(dataset=spec, epochs=1, batch_size=4, bank_capacity=32,
                               hidden_dim=12, feature_dim=8, embed_dim=6)
    entries = [evaluate.AblationEntry(name="full"),
               evaluate.AblationEntry(name="k2", segments=2)]
    # each run on a dataset of its own, as fit generates it without one
    want = []
    for entry in entries:
        for seed in (0, 1):
            state, train, test = trainer.fit(dataclasses.replace(entry.apply(base), seed=seed))
            accuracy, recalls = evaluate.evaluate_encoder(state.query, state.key, train, test,
                                                          ProbeConfig(), RetrievalConfig(ks=(1,)))
            want.append((entry.name, seed, accuracy, recalls[1]))
    generated = []
    generate = synth.generate_dataset
    monkeypatch.setattr(synth, "generate_dataset",
                        lambda s: generated.append(s) or generate(s))
    rows, _ = evaluate.run_ablation(base, entries, seeds=[0, 1])
    assert generated == [spec]
    assert rows == want


def test_order_prediction_accuracy_range():
    spec = synth.DatasetSpec(classes=4, videos_per_class=4, frames=12, untrimmed=True, seed=5)
    cfg = trainer.TrainConfig(dataset=spec, hidden_dim=16, feature_dim=12, embed_dim=8)
    state = trainer.init_state(cfg)
    _, test_videos = synth.generate_dataset(spec)
    acc = evaluate.order_prediction_accuracy(state.query, state.key, test_videos, cfg,
                                             n_samples=40, seed=1)
    assert 0.0 <= acc <= 1.0


@pytest.mark.parametrize("videos, n_samples", [(0, 40), (4, 0), (4, -3)],
                         ids=["empty_split", "no_samples", "negative_samples"])
def test_order_prediction_accuracy_rejects_nothing_to_score(videos, n_samples):
    spec = synth.DatasetSpec(classes=4, videos_per_class=4, frames=12, seed=5)
    cfg = trainer.TrainConfig(dataset=spec, hidden_dim=16, feature_dim=12, embed_dim=8)
    state = trainer.init_state(cfg)
    _, test_videos = synth.generate_dataset(spec)
    split = split_of(test_videos.frames[:videos])
    with pytest.raises(ValueError, match=f"got {videos} videos and n_samples={n_samples}$"):
        evaluate.order_prediction_accuracy(state.query, state.key, split, cfg,
                                           n_samples=n_samples)


def test_order_prediction_augments_only_the_tuple_frames(monkeypatch):
    spec = synth.DatasetSpec(classes=4, videos_per_class=5, frames=12, seed=5)
    cfg = trainer.TrainConfig(dataset=spec, hidden_dim=16, feature_dim=12, embed_dim=8)
    state = trainer.init_state(cfg)
    _, test_videos = synth.generate_dataset(spec)
    # the same pairs as the tuples of a whole training batch, views included
    rng = np.random.default_rng(np.random.SeedSequence([7, evaluate._EVAL_STREAM]))
    batch = trainer.sample_batch(test_videos.frames, np.arange(200) % len(test_videos),
                                 cfg, rng)
    logits = model.order_logits(state.query, state.key, batch.anchors, batch.positives,
                                cfg.model_config())
    expected = float(np.mean(np.argmax(logits, axis=1) == batch.order_labels))
    outputs = []
    augment = sampling.augment_frames
    monkeypatch.setattr(sampling, "augment_frames",
                        lambda frames, params: outputs.append(augment(frames, params))
                        or outputs[-1])
    accuracy = evaluate.order_prediction_accuracy(state.query, state.key, test_videos, cfg,
                                                  n_samples=200, seed=7)
    assert [len(out) for out in outputs] == [200 * 2 * cfg.segments] == [1200]
    tuple_frames = outputs[0].reshape(200, 2, cfg.segments, -1)
    assert tuple_frames[:, 0].tobytes() == batch.anchors.tobytes()
    assert tuple_frames[:, 1].tobytes() == batch.positives.tobytes()
    assert accuracy == expected
