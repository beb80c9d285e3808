"""Two-layer encoder, the four projection heads, the order classifier, and
the momentum update that tracks the query parameters on the key side.

Parameters are name -> float64 array mappings, in training the param_views of
one flat vector per side. Every layer is one numerics.linear call, so one
tape node. Forward functions run on arrays (no gradients, used for the key
side) or on tape Vars (query side). Which blocks of frames feed which head is
decided in one place, trainer.embed, for both sides; the order classifier
then scores the query side's anchor rows against the key side's positive
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

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
    shapes = param_shapes(cfg)
    params = {}
    for name, shape in shapes.items():
        # a bias has the fan-in of its layer's weight
        bound = 1.0 / np.sqrt(shapes[name.replace(".bias", ".weight")][0])
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def param_views(vector, cfg: ModelConfig):
    """The layout of a flat parameter vector: a read-only name -> view
    mapping whose views tile the vector in param_shapes order."""
    shapes = param_shapes(cfg)
    parts = np.split(vector, np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1])
    return MappingProxyType({name: part.reshape(shape)
                             for (name, shape), part in zip(shapes.items(), parts)})


def encode(params, frames):
    """(n, P) flattened frames -> (n, F) features: fc1 with ReLU, then fc2."""
    hidden = nm.linear(frames, params["encoder.fc1.weight"], params["encoder.fc1.bias"],
                       relu=True)
    return nm.linear(hidden, params["encoder.fc2.weight"], params["encoder.fc2.bias"])


def head_mlp(params, head, features):
    """Projection head without the final normalization: fc1 with ReLU, then fc2."""
    hidden = nm.linear(features, params[f"head_{head}.fc1.weight"],
                       params[f"head_{head}.fc1.bias"], relu=True)
    return nm.linear(hidden, params[f"head_{head}.fc2.weight"], params[f"head_{head}.fc2.bias"])


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
    """Unit order-head embeddings of (B*K, F) per-frame features, in frame
    order, concatenated per tuple -> (B, K*E)."""
    return nm.reshape(project(params, "order", features), (-1, cfg.segments * cfg.embed_dim))


def order_classifier(query_params, anchor_embedding, positive_embedding):
    """Linear 4-way classifier of the query side over (anchor, positive)
    order embeddings, anchor first -> (B, 4) logits."""
    joint = nm.concat([anchor_embedding, positive_embedding])
    return nm.linear(joint, query_params["order_clf.weight"], query_params["order_clf.bias"])


def momentum_update(key, query, m):
    """key <- m * key + (1 - m) * query in place, exact at m = 1 and m = 0."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {m}")
    if key.shape != query.shape:
        raise nm.ShapeMismatchError("momentum_update", key.shape, query.shape)
    if m == 0.0:
        key[...] = query
    elif m < 1.0:
        key *= m
        key += (1.0 - m) * query


def as_vars(params):
    """Wrap every parameter as a tracked tape Var (query side of a train step)."""
    return {name: nm.Var(arr) for name, arr in params.items()}
