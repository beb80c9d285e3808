import itertools

import numpy as np
import pytest

from vidseg import model
from vidseg import numerics as nm


CFG = model.ModelConfig(frame_pixels=64, hidden_dim=24, feature_dim=16, embed_dim=8, segments=3)


def params_for(seed):
    return model.init_params(CFG, np.random.default_rng(seed))


def oracle_encode(params, frame):
    hidden = np.maximum(frame @ params["encoder.fc1.weight"] + params["encoder.fc1.bias"], 0.0)
    return hidden @ params["encoder.fc2.weight"] + params["encoder.fc2.bias"]


def oracle_project(params, head, feature):
    hidden = np.maximum(feature @ params[f"head_{head}.fc1.weight"]
                        + params[f"head_{head}.fc1.bias"], 0.0)
    out = hidden @ params[f"head_{head}.fc2.weight"] + params[f"head_{head}.fc2.bias"]
    return out / np.linalg.norm(out)


def test_param_shapes_and_distinct_heads():
    params = params_for(0)
    shapes = model.param_shapes(CFG)
    assert set(params) == set(shapes)
    for name, arr in params.items():
        assert arr.shape == shapes[name]
    # identical shapes, distinct values
    assert params["head_inter.fc1.weight"].shape == params["head_intra.fc1.weight"].shape
    assert not np.array_equal(params["head_inter.fc1.weight"], params["head_intra.fc1.weight"])
    assert shapes["order_clf.weight"][0] == 2 * CFG.segments * CFG.embed_dim


def test_zero_frame_zero_bias_encodes_to_zero():
    params = params_for(1)
    for name in list(params):
        if name.endswith("bias"):
            params[name] = np.zeros_like(params[name])
    out = model.encode(params, np.zeros((1, CFG.frame_pixels)))
    assert np.array_equal(out, np.zeros((1, CFG.feature_dim)))


def test_encode_deterministic_and_matches_oracle():
    params = params_for(2)
    rng = np.random.default_rng(3)
    frame = rng.uniform(size=(1, CFG.frame_pixels))
    out1 = model.encode(params, frame)
    out2 = model.encode(params, frame)
    assert np.array_equal(out1, out2)
    assert np.allclose(out1, oracle_encode(params, frame), atol=1e-12)


def test_project_unit_norm_and_oracle():
    params = params_for(4)
    rng = np.random.default_rng(5)
    feature = rng.normal(size=(1, CFG.feature_dim))
    out = model.project(params, "segment", feature)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    assert np.allclose(out, oracle_project(params, "segment", feature), atol=1e-12)


def test_project_positive_homogeneity_direction():
    params = params_for(6)
    for name in list(params):
        if name.endswith("bias"):
            params[name] = np.zeros_like(params[name])
    rng = np.random.default_rng(7)
    feature = rng.normal(size=(1, CFG.feature_dim))
    a = model.project(params, "inter", feature)
    b = model.project(params, "inter", 2.0 * feature)
    assert np.allclose(a, b, atol=1e-12)


def test_consensus_basics():
    """The segment consensus is nm.mean_rows over the K features of each tuple."""
    row = np.arange(4.0)
    assert np.array_equal(nm.mean_rows(np.tile(row, (1, 3, 1))), [row])
    assert np.array_equal(nm.mean_rows(np.array([[[1.0, 0.0], [0.0, 1.0]]])), [[0.5, 0.5]])
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 5, 6))
    assert nm.mean_rows(x).tobytes() == nm.mean_rows(x[:, ::-1].copy()).tobytes()


def tuple_embedding(params, frames):
    """Segment embedding of one (K, P) tuple of frames, as a (1, E) batch of one."""
    return model.segment_embedding(params, model.encode(params, frames), len(frames))


def test_tuple_embedding_identical_frames_reduce_to_project():
    params = params_for(9)
    rng = np.random.default_rng(10)
    frame = rng.uniform(size=(1, CFG.frame_pixels))
    frames = np.tile(frame, (3, 1))
    emb = tuple_embedding(params, frames)
    direct = model.project(params, "segment", model.encode(params, frame))
    assert np.allclose(emb, direct, atol=1e-12)


def test_tuple_embedding_permutation_invariant_bit_exact():
    params = params_for(11)
    rng = np.random.default_rng(12)
    frames = rng.uniform(size=(3, CFG.frame_pixels))
    base = tuple_embedding(params, frames)
    for perm in itertools.permutations(range(3)):
        out = tuple_embedding(params, frames[list(perm)])
        assert out.tobytes() == base.tobytes()


def test_tuple_embedding_matches_oracle():
    params = params_for(13)
    rng = np.random.default_rng(14)
    frames = rng.uniform(size=(3, CFG.frame_pixels))
    feats = np.stack([oracle_encode(params, f) for f in frames])
    expected = oracle_project(params, "segment", feats.mean(axis=0))
    assert np.allclose(tuple_embedding(params, frames), expected[None], atol=1e-10)


def test_segment_embedding_rows_are_tuple_embeddings():
    params = params_for(15)
    rng = np.random.default_rng(16)
    tuples = rng.uniform(size=(4, 3, CFG.frame_pixels))
    features = model.encode(params, tuples.reshape(12, -1))
    batched = model.segment_embedding(params, features, 3)
    assert batched.shape == (4, CFG.embed_dim)
    for row, frames in zip(batched, tuples):
        assert np.allclose(row, tuple_embedding(params, frames)[0], rtol=0, atol=1e-12)


def test_order_logits_zero_classifier_gives_zero():
    params = params_for(15)
    params["order_clf.weight"] = np.zeros_like(params["order_clf.weight"])
    params["order_clf.bias"] = np.zeros_like(params["order_clf.bias"])
    rng = np.random.default_rng(16)
    anchor = rng.uniform(size=(2, 3, CFG.frame_pixels))
    positive = rng.uniform(size=(2, 3, CFG.frame_pixels))
    out = model.order_logits(params, params_for(17), anchor, positive, CFG)
    assert np.array_equal(out, np.zeros((2, 4)))


def test_order_logits_sensitive_to_frame_order():
    query = params_for(18)
    key = params_for(19)
    rng = np.random.default_rng(20)
    anchor = rng.uniform(size=(1, 3, CFG.frame_pixels))
    positive = rng.uniform(size=(1, 3, CFG.frame_pixels))
    base = model.order_logits(query, key, anchor, positive, CFG)
    permuted = model.order_logits(query, key, anchor[:, [1, 0, 2]], positive, CFG)
    assert not np.allclose(base, permuted)


def test_order_logits_matches_oracle():
    query = params_for(21)
    key = params_for(22)
    rng = np.random.default_rng(23)
    anchor = rng.uniform(size=(4, 3, CFG.frame_pixels))
    positive = rng.uniform(size=(4, 3, CFG.frame_pixels))

    def side(params, frames):
        rows = []
        for f in frames:
            feat = oracle_encode(params, f)
            hidden = np.maximum(feat @ params["head_order.fc1.weight"]
                                + params["head_order.fc1.bias"], 0.0)
            emb = hidden @ params["head_order.fc2.weight"] + params["head_order.fc2.bias"]
            rows.append(emb / np.linalg.norm(emb))
        return np.concatenate(rows)

    joint = np.stack([np.concatenate([side(query, a), side(key, p)])
                      for a, p in zip(anchor, positive)])
    expected = joint @ query["order_clf.weight"] + query["order_clf.bias"]
    assert np.allclose(model.order_logits(query, key, anchor, positive, CFG), expected, atol=1e-10)


def test_order_logits_width_mismatch_errors():
    query = params_for(24)
    key = params_for(25)
    rng = np.random.default_rng(26)
    anchor = rng.uniform(size=(1, 2, CFG.frame_pixels))  # K=2 against a K=3 classifier
    positive = rng.uniform(size=(1, 2, CFG.frame_pixels))
    with pytest.raises(nm.ShapeMismatchError):
        model.order_logits(query, key, anchor, positive, CFG)


def test_param_views_tile_one_vector_in_param_shapes_order():
    shapes = model.param_shapes(CFG)
    vector = np.arange(float(sum(np.prod(shape) for shape in shapes.values())))
    views = model.param_views(vector, CFG)
    assert list(views) == list(shapes)
    assert [view.shape for view in views.values()] == list(shapes.values())
    # distinct entries: every element of the vector is in exactly one view, in order
    assert np.concatenate([view.ravel() for view in views.values()]).tobytes() == \
        vector.tobytes()
    assert all(np.shares_memory(view, vector) for view in views.values())
    views["encoder.fc2.bias"][...] = -1.0
    start = sum(np.prod(shapes[name]) for name in list(shapes)[:3])
    assert np.flatnonzero(vector == -1.0).tolist() == list(range(start, start + CFG.feature_dim))
    # the mapping is read-only: a rebound name would detach from the vector
    with pytest.raises(TypeError):
        views["encoder.fc2.bias"] = np.zeros(CFG.feature_dim)
    with pytest.raises(ValueError):
        model.param_views(vector[:-1], CFG)


def flat_params_for(seed):
    return np.concatenate([arr.ravel() for arr in params_for(seed).values()])


def test_momentum_endpoints():
    key = flat_params_for(27)
    query = flat_params_for(28)
    frozen, copied = key.copy(), key.copy()
    model.momentum_update(frozen, query, 1.0)
    model.momentum_update(copied, query, 0.0)
    assert frozen.tobytes() == key.tobytes()
    assert copied.tobytes() == query.tobytes()


def test_momentum_geometric_decay_exact():
    key = flat_params_for(29)
    query = flat_params_for(30)
    for m in (0.9, 0.999):
        current = key.copy()
        base = np.sqrt(np.sum((current - query) ** 2))
        for t in range(1, 51):
            model.momentum_update(current, query, m)
            dist = np.sqrt(np.sum((current - query) ** 2))
            assert abs(dist - m ** t * base) < 1e-10


def test_momentum_validates_inputs():
    key = flat_params_for(31)
    query = flat_params_for(32)
    with pytest.raises(ValueError):
        model.momentum_update(key, query, 1.5)
    with pytest.raises(nm.ShapeMismatchError):
        model.momentum_update(key, query[:-1], 0.5)


def test_forward_works_on_tape_vars():
    params = params_for(33)
    qvars = model.as_vars(params)
    rng = np.random.default_rng(34)
    frames = rng.uniform(size=(3, CFG.frame_pixels))
    emb = tuple_embedding(qvars, frames)
    assert isinstance(emb, nm.Var)
    loss = nm.dot(nm.reshape(emb, (-1,)), np.ones(CFG.embed_dim))
    loss.backward()
    assert qvars["encoder.fc1.weight"].grad is not None
    # heads other than the one used stay out of the graph
    assert qvars["head_inter.fc1.weight"].grad is None
