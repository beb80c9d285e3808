"""Two-layer encoder, the four projection heads, the order classifier, and
the momentum update that tracks the query parameters on the key side.

Parameters are a plain name -> float64 array dict. Forward functions run on
arrays (no gradients, used for the key side) or on tape Vars (query side).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm

HEAD_NAMES = ("inter", "intra", "segment", "order")
ORDER_CLASSES = 4


@dataclass(frozen=True)
class ModelConfig:
    frame_pixels: int
    hidden_dim: int = 128
    feature_dim: int = 64
    embed_dim: int = 32
    segments: int = 3
    normalize_order_embeddings: bool = True
    order_positive_uses_key: bool = True


def param_shapes(cfg: ModelConfig):
    """Canonical name -> shape map; iteration order fixes the init draws."""
    shapes = {
        "encoder.fc1.weight": (cfg.frame_pixels, cfg.hidden_dim),
        "encoder.fc1.bias": (cfg.hidden_dim,),
        "encoder.fc2.weight": (cfg.hidden_dim, cfg.feature_dim),
        "encoder.fc2.bias": (cfg.feature_dim,),
    }
    for head in HEAD_NAMES:
        shapes[f"head_{head}.fc1.weight"] = (cfg.feature_dim, cfg.feature_dim)
        shapes[f"head_{head}.fc1.bias"] = (cfg.feature_dim,)
        shapes[f"head_{head}.fc2.weight"] = (cfg.feature_dim, cfg.embed_dim)
        shapes[f"head_{head}.fc2.bias"] = (cfg.embed_dim,)
    shapes["order_clf.weight"] = (2 * cfg.segments * cfg.embed_dim, ORDER_CLASSES)
    shapes["order_clf.bias"] = (ORDER_CLASSES,)
    return shapes


def init_params(cfg: ModelConfig, rng):
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    params = {}
    for name, shape in param_shapes(cfg).items():
        fan_in = shape[0] if name.endswith("weight") else _bias_fan_in(cfg, name)
        bound = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _bias_fan_in(cfg, bias_name):
    weight = bias_name.replace(".bias", ".weight")
    return param_shapes(cfg)[weight][0]


def encode(params, frames):
    """(n, P) flattened frames -> (n, F) features: fc1, ReLU, fc2."""
    hidden = nm.relu(nm.add(nm.matmul(frames, params["encoder.fc1.weight"]),
                            params["encoder.fc1.bias"]))
    return nm.add(nm.matmul(hidden, params["encoder.fc2.weight"]),
                  params["encoder.fc2.bias"])


def head_mlp(params, head, features):
    """Projection head without the final normalization."""
    hidden = nm.relu(nm.add(nm.matmul(features, params[f"head_{head}.fc1.weight"]),
                            params[f"head_{head}.fc1.bias"]))
    return nm.add(nm.matmul(hidden, params[f"head_{head}.fc2.weight"]),
                  params[f"head_{head}.fc2.bias"])


def project(params, head, features):
    """Projection head followed by L2 normalization (unit embedding rows)."""
    return nm.l2_normalize(head_mlp(params, head, features))


def segment_embedding(params, features, k):
    """Unit segment-head embeddings of K-frame tuples from their encoded
    frames: (B*K, F) features, tuple by tuple, -> (B, E). Each tuple's K
    features are averaged (the consensus), then projected."""
    tuples = nm.reshape(features, (-1, k, features.shape[-1]))
    return project(params, "segment", nm.mean_rows(tuples))


def order_embedding(params, features, cfg: ModelConfig):
    """Order-head embeddings of (B*K, F) per-frame features, in frame order,
    concatenated per tuple -> (B, K*E)."""
    emb = head_mlp(params, "order", features)
    if cfg.normalize_order_embeddings:
        emb = nm.l2_normalize(emb)
    return nm.reshape(emb, (-1, cfg.segments * cfg.embed_dim))


def order_classifier(query_params, anchor_embedding, positive_embedding):
    """Linear 4-way classifier of the query side over (anchor, positive)
    order embeddings, anchor first -> (B, 4) logits."""
    joint = nm.concat([anchor_embedding, positive_embedding])
    return nm.add(nm.matmul(joint, query_params["order_clf.weight"]),
                  query_params["order_clf.bias"])


def order_logits(query_params, key_params, anchor_frames, positive_frames, cfg: ModelConfig):
    """(B, 4) order logits for a batch of (anchor, positive) pairs of K-frame
    tuples, each given as (B, K, P).

    Per-frame order-head embeddings (query side for the anchor; key side for
    the positive unless configured otherwise) are concatenated in frame order,
    anchor first, and fed to the linear order classifier of the query side.
    """
    def side(params, frames):
        frames = np.asarray(frames)
        return order_embedding(params, encode(params, frames.reshape(-1, frames.shape[-1])), cfg)

    positive_params = key_params if cfg.order_positive_uses_key else query_params
    return order_classifier(query_params, side(query_params, anchor_frames),
                            side(positive_params, positive_frames))


def momentum_update(key_params, query_params, m):
    """key <- m * key + (1 - m) * query for every named parameter."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {m}")
    if key_params.keys() != query_params.keys():
        raise ValueError("key and query parameter names differ")
    out = {}
    for name, k in key_params.items():
        q = query_params[name]
        if k.shape != q.shape:
            raise nm.ShapeMismatchError("momentum_update", k.shape, q.shape)
        if m == 1.0:
            out[name] = k.copy()
        elif m == 0.0:
            out[name] = q.copy()
        else:
            out[name] = m * k + (1.0 - m) * q
    return out


def as_vars(params):
    """Wrap every parameter as a tracked tape Var (query side of a train step)."""
    return {name: nm.Var(arr) for name, arr in params.items()}
