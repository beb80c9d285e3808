"""Segment-based tuple sampling, optional frame shuffling, 4-way order labels,
and augmentation.

A training step draws every random choice of its whole batch from one
stream, one array call per field, before any frame is touched: segment
indices, augmentation columns, shuffle flags and permutation ranks.
Augmentation consumes no randomness; it is applied afterwards to the stack
of frames the step reads, all at once, as two resampling matrices per frame
(crop, resize and flip), a box blur and one per-frame affine (brightness and
contrast)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .synth import Video

CROP_SCALE_RANGE = (0.6, 1.0)
BRIGHTNESS_LIMIT = 0.2
CONTRAST_RANGE = (0.8, 1.2)
FLIP_PROBABILITY = 0.5
BLUR_PROBABILITY = 0.5
SHUFFLE_PROBABILITY = 0.5
MAX_SHUFFLED_FRAMES = 20  # 20! - 1 is the largest rank an int64 holds


class AugParams(NamedTuple):
    """Augmentation parameters, one column per field. Each column holds one
    entry per frame in any shape (scalars for a single frame); applying them
    is fully deterministic."""

    crop_top: np.ndarray
    crop_left: np.ndarray
    crop_h: np.ndarray
    crop_w: np.ndarray
    flip: np.ndarray
    brightness: np.ndarray
    contrast: np.ndarray
    blur: np.ndarray


@dataclass(frozen=True)
class TupleDraw:
    """Anchor and positive K-frame tuples of B videos, tuple 0 the anchor.

    indices are timeline positions (on the tiled timeline when T < K; resolve
    frames with index % T). A tuple whose shuffle flag is set carries a
    non-identity permutation of its indices (when K >= 2), otherwise they are
    strictly increasing. aug holds one column entry per tuple frame.
    """

    indices: np.ndarray  # (B, 2, K)
    aug: AugParams  # columns (B, 2, K)
    shuffled: np.ndarray  # (B, 2) bool

    @property
    def labels(self):
        """(B,) order labels: 2a + p for the anchor and positive flags."""
        return 2 * self.shuffled[:, 0] + self.shuffled[:, 1]


def segment_bounds(t_count, k):
    """[b_i, e_i) ranges partitioning the (tiled) timeline into k segments:
    (k, 2) for one timeline length, (..., k, 2) for an array of them."""
    t_count = np.asarray(t_count)
    if np.any(t_count < 1):
        raise ValueError("cannot segment an empty timeline")
    if k < 1:
        raise ValueError("need at least one segment")
    base = np.maximum(t_count, k)[..., None]
    edges = np.arange(k + 1) * base // k
    return np.stack([edges[..., :-1], edges[..., 1:]], axis=-1)


def permutation_from_rank(k, rank):
    """Lexicographic unranking of permutations of range(k), rank 0 the
    identity; an array of ranks gives one permutation per trailing row."""
    rank = np.asarray(rank, dtype=np.int64)
    remaining = np.broadcast_to(np.arange(k), rank.shape + (k,))
    out = []
    for slot in range(k, 0, -1):
        block = math.factorial(slot - 1)
        digit = (rank // block)[..., None]
        rank = rank % block
        out.append(np.take_along_axis(remaining, digit, axis=-1)[..., 0])
        keep = np.arange(slot) != digit
        remaining = remaining[keep].reshape(rank.shape + (slot - 1,))
    return np.stack(out, axis=-1)


def draw_aug(rng, shape, height, width):
    """Augmentation columns of the given shape, one array draw per field:
    crop scale U(0.6, 1) with sides max(2, round-half-even(scale * side)),
    uniform crop origins, flip p = 0.5, brightness U(+-0.2), contrast
    U(0.8, 1.2), blur p = 0.5."""
    scale = rng.uniform(*CROP_SCALE_RANGE, size=shape)
    crop_h = np.maximum(2, np.rint(scale * height).astype(np.int64))
    crop_w = np.maximum(2, np.rint(scale * width).astype(np.int64))
    top = rng.integers(0, height - crop_h + 1)
    left = rng.integers(0, width - crop_w + 1)
    flip = rng.uniform(size=shape) < FLIP_PROBABILITY
    brightness = rng.uniform(-BRIGHTNESS_LIMIT, BRIGHTNESS_LIMIT, size=shape)
    contrast = rng.uniform(*CONTRAST_RANGE, size=shape)
    blur = rng.uniform(size=shape) < BLUR_PROBABILITY
    return AugParams(top, left, crop_h, crop_w, flip, brightness, contrast, blur)


def draw_tuples(rng, t_counts, k, height, width, share_augment=False) -> TupleDraw:
    """Anchor and positive tuples of one video per entry of t_counts (its
    frame count), drawn in a fixed field order: segment indices, the tuple
    frames' augmentation (one draw per tuple, repeated over its frames, when
    share_augment), shuffle flags, then the permutation ranks, uniform over
    the k! - 1 non-identity permutations.

    Every draw is one array call over all tuples, so anchor and positive are
    drawn alike.
    """
    bounds = segment_bounds(t_counts, k)[:, None]  # (B, 1, K, 2)
    b = bounds.shape[0]
    indices = rng.integers(bounds[..., 0], bounds[..., 1], size=(b, 2, k))
    if share_augment:
        aug = AugParams(*(np.repeat(col, k, axis=-1)
                          for col in draw_aug(rng, (b, 2, 1), height, width)))
    else:
        aug = draw_aug(rng, (b, 2, k), height, width)
    shuffled = rng.uniform(size=(b, 2)) < SHUFFLE_PROBABILITY
    if k >= 2:
        if k > MAX_SHUFFLED_FRAMES:
            raise ValueError(f"shuffle supports at most {MAX_SHUFFLED_FRAMES} frames per tuple")
        ranks = np.where(shuffled, rng.integers(1, math.factorial(k), size=(b, 2)), 0)
        indices = np.take_along_axis(indices, permutation_from_rank(k, ranks), axis=-1)
    return TupleDraw(indices=indices, aug=aug, shuffled=shuffled)


@functools.cache
def blur_matrix(extent):
    """The (extent, extent) matrix of one axis of the edge-padded 3x3 box
    blur: tridiagonal, 1/3 per tap, the edge sample counted twice, so every
    row sums to 1. Built once per size; read-only."""
    matrix = np.zeros((extent, extent))
    rows = np.arange(extent)
    for shift in (-1, 0, 1):
        np.add.at(matrix, (rows, np.clip(rows + shift, 0, extent - 1)), 1.0 / 3.0)
    matrix.setflags(write=False)
    return matrix


def resize_matrices(origin, crop, extent):
    """(N, extent, extent) matrices resampling the crop [origin, origin +
    crop) of one axis to extent samples by bilinear interpolation, one per
    entry of the (N,) columns: row i holds the two taps of output sample i,
    with weights summing to 1."""
    crop = crop[:, None]
    centers = np.clip((np.arange(extent) + 0.5) * crop / extent - 0.5, 0.0, crop - 1.0)
    lo = np.floor(centers).astype(int)
    weight = centers - lo
    hi = np.minimum(lo + 1, crop - 1)
    n = origin.shape[0]
    matrices = np.zeros((n, extent, extent))
    # flat offset of each row's entry for source sample 0 of the crop
    rows = np.arange(0, n * extent * extent, extent).reshape(n, extent) + origin[:, None]
    flat = matrices.reshape(-1)
    flat[rows + lo] = 1 - weight
    flat[rows + hi] += weight
    return matrices


def augment_frames(frames, params: AugParams):
    """Augment an (N, H, W) stack, frame i by entry i of the flattened
    columns: crop/resize, flip, brightness, mean-anchored contrast, box blur,
    clamp.

    The geometry of frame i is My[i] @ X[i] @ Mx[i].T: My and Mx resample
    the crop (resize_matrices) and a flip reverses the rows of Mx. A blurred
    frame is then Bh @ Y @ Bw.T, with Bh and Bw the blur_matrix of each axis.
    Brightness b and contrast c are one affine, c * Y + (1 - c) * mean + b,
    where mean is the mean of the un-blurred resize; blur commutes with it
    because its rows sum to 1. A frame's output does not depend on the rest
    of the stack.
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    n, height, width = frames.shape
    dtypes = (int, int, int, int, bool, np.float64, np.float64, bool)
    top, left, crop_h, crop_w, flip, brightness, contrast, blur = columns = [
        np.asarray(col, dtype=dtype).reshape(-1) for col, dtype in zip(params, dtypes)]
    if any(col.size != n for col in columns):
        raise ValueError(f"{[col.size for col in columns]} augmentation draws for {n} frames")
    degenerate = np.flatnonzero((crop_h < 2) | (crop_w < 2))
    if degenerate.size:
        i = degenerate[0]
        raise ValueError(f"degenerate crop {crop_h[i]}x{crop_w[i]} (frame {i})")
    negative = np.flatnonzero((top < 0) | (left < 0))
    if negative.size:
        i = negative[0]
        raise ValueError(f"negative crop origin ({top[i]}, {left[i]}) (frame {i})")
    if np.any((top + crop_h > height) | (left + crop_w > width)):
        raise ValueError("crop rectangle outside the frame")

    my = resize_matrices(top, crop_h, height)
    mx = resize_matrices(left, crop_w, width)
    mx[flip] = mx[flip, ::-1]
    out = my @ frames @ mx.transpose(0, 2, 1)
    mean = out.mean(axis=(1, 2))
    out[blur] = blur_matrix(height) @ out[blur] @ blur_matrix(width).T
    out *= contrast[:, None, None]
    out += ((1 - contrast) * mean + brightness)[:, None, None]
    return np.clip(out, 0.0, 1.0, out=out)


def frame_at(video: Video, index):
    """Frame at a (possibly tiled) timeline index; (K, H, W) for K indices."""
    return video.frames[np.asarray(index) % video.frames.shape[0]]
