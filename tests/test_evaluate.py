import numpy as np
import pytest

from vidseg import evaluate, model, sampling, synth, trainer
from vidseg.evaluate import FeatureTable, ProbeConfig, RetrievalConfig


def table(ids, labels, features, source=""):
    return FeatureTable(ids=np.array(ids), labels=np.array(labels),
                        features=np.asarray(features, dtype=float), source=source)


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


def test_extract_feature_constant_video():
    cfg = model.ModelConfig(frame_pixels=64, hidden_dim=8, feature_dim=6)
    params = model.init_params(cfg, np.random.default_rng(0))
    frames = np.tile(np.random.default_rng(1).uniform(size=(8, 8)), (5, 1, 1))
    video = synth.Video(id=0, class_id=0, frames=frames)
    feat = evaluate.extract_video_feature(params, video, 4)
    single = np.asarray(model.encode(params, frames[0].reshape(1, -1)))[0]
    assert np.allclose(feat, single, atol=1e-12)


def test_extract_feature_all_frames_is_plain_mean():
    cfg = model.ModelConfig(frame_pixels=64, hidden_dim=8, feature_dim=6)
    params = model.init_params(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    video = synth.Video(id=0, class_id=0, frames=rng.uniform(size=(6, 8, 8)))
    feat = evaluate.extract_video_feature(params, video, 6)
    oracle = np.mean([np.asarray(model.encode(params, f.reshape(1, -1)))[0]
                      for f in video.frames], axis=0)
    assert np.allclose(feat, oracle, atol=1e-12)


def test_extract_feature_matches_loop_oracle():
    cfg = model.ModelConfig(frame_pixels=64, hidden_dim=8, feature_dim=6)
    params = model.init_params(cfg, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    video = synth.Video(id=0, class_id=0, frames=rng.uniform(size=(10, 8, 8)))
    n = 4
    rows = [video.frames[i * 10 // n].reshape(1, -1) for i in range(n)]
    expected = np.mean([np.asarray(model.encode(params, row))[0] for row in rows], axis=0)
    assert np.allclose(evaluate.extract_video_feature(params, video, n), expected, atol=1e-12)


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


def test_order_prediction_accuracy_range():
    spec = synth.DatasetSpec(classes=4, videos_per_class=4, frames=12, untrimmed=True, seed=5)
    cfg = trainer.TrainConfig(dataset=spec, hidden_dim=16, feature_dim=12, embed_dim=8)
    state = trainer.init_state(cfg)
    _, test_videos = synth.generate_dataset(spec)
    acc = evaluate.order_prediction_accuracy(state.query, state.key, test_videos, cfg,
                                             n_samples=40, seed=1)
    assert 0.0 <= acc <= 1.0


def test_order_prediction_augments_only_the_tuple_frames(monkeypatch):
    spec = synth.DatasetSpec(classes=4, videos_per_class=5, frames=12, seed=5)
    cfg = trainer.TrainConfig(dataset=spec, hidden_dim=16, feature_dim=12, embed_dim=8)
    state = trainer.init_state(cfg)
    _, test_videos = synth.generate_dataset(spec)
    # the same pairs as the tuples of a whole training batch, views included
    rng = np.random.default_rng(np.random.SeedSequence([7, evaluate._EVAL_STREAM]))
    batch = trainer.sample_batch([test_videos[i % len(test_videos)] for i in range(200)],
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
