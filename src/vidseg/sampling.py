"""Segment-based tuple sampling, optional frame shuffling, 4-way order-label
assignment, and augmentation.

Sampling draws every random choice first (indices, per-frame augmentation
parameters, shuffles); augmentation consumes no randomness and is applied
afterwards to a whole stack of frames at once, once per training batch."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .synth import Video

CROP_SCALE_RANGE = (0.6, 1.0)
BRIGHTNESS_LIMIT = 0.2
CONTRAST_RANGE = (0.8, 1.2)
FLIP_PROBABILITY = 0.5
BLUR_PROBABILITY = 0.5
SHUFFLE_PROBABILITY = 0.5

# (anchor shuffled?, positive shuffled?) -> class; matches label = 2a + p
ORDER_CLASSES = {
    (False, False): 0,
    (False, True): 1,
    (True, False): 2,
    (True, True): 3,
}


@dataclass(frozen=True)
class AugParams:
    """One frame's augmentation draw. Applying it is fully deterministic."""

    crop_top: int
    crop_left: int
    crop_h: int
    crop_w: int
    flip: bool
    brightness: float
    contrast: float
    blur: bool


@dataclass
class TuplePair:
    """Anchor and positive K-frame tuples sampled from one video.

    Indices are the sampled timeline positions (on the tiled timeline when
    T < K; resolve frames with index % T). When a shuffle flag is set the
    corresponding indices/frames/aug records carry a non-identity permutation,
    otherwise they are strictly increasing. A pair from draw_tuple_pair holds
    the raw frames; sample_tuple_pair's holds them augmented.
    """

    video_id: int
    anchor_indices: np.ndarray
    anchor_frames: np.ndarray  # (K, H, W)
    anchor_aug: tuple
    positive_indices: np.ndarray
    positive_frames: np.ndarray
    positive_aug: tuple
    shuffle_anchor: bool
    shuffle_positive: bool
    order_label: int


def segment_bounds(t_count, k):
    """[b_i, e_i) ranges partitioning the (tiled) timeline into k segments."""
    if t_count < 1:
        raise ValueError("cannot segment an empty timeline")
    if k < 1:
        raise ValueError("need at least one segment")
    base = max(t_count, k)
    return [(i * base // k, (i + 1) * base // k) for i in range(k)]


def segment_indices(t_count, k, rng):
    """One uniformly drawn index per segment; strictly increasing."""
    bounds = segment_bounds(t_count, k)
    return np.array([int(rng.integers(lo, hi)) for lo, hi in bounds])


def assign_order_label(rng):
    """Independent 50% shuffle flags for the two tuples and the 4-way label."""
    shuffle_anchor = bool(rng.uniform() < SHUFFLE_PROBABILITY)
    shuffle_positive = bool(rng.uniform() < SHUFFLE_PROBABILITY)
    return shuffle_anchor, shuffle_positive, ORDER_CLASSES[(shuffle_anchor, shuffle_positive)]


def permutation_from_rank(k, rank):
    """Lexicographic unranking of permutations of range(k); rank 0 is identity."""
    items = list(range(k))
    out = []
    rank = int(rank)
    for slot in range(k, 0, -1):
        block = math.factorial(slot - 1)
        out.append(items.pop(rank // block))
        rank %= block
    return out


def non_identity_permutation(k, rng):
    """Uniform draw over the k! - 1 non-identity permutations (k >= 2)."""
    if k < 2:
        return list(range(k))
    if k > 20:
        raise ValueError("shuffle supports at most 20 frames per tuple")
    rank = int(rng.integers(1, math.factorial(k)))
    return permutation_from_rank(k, rank)


def draw_aug_params(height, width, rng):
    """Fresh augmentation parameters for one frame."""
    scl = float(rng.uniform(*CROP_SCALE_RANGE))
    crop_h = max(2, round(scl * height))
    crop_w = max(2, round(scl * width))
    top = int(rng.integers(0, height - crop_h + 1))
    left = int(rng.integers(0, width - crop_w + 1))
    flip = bool(rng.uniform() < FLIP_PROBABILITY)
    brightness = float(rng.uniform(-BRIGHTNESS_LIMIT, BRIGHTNESS_LIMIT))
    contrast = float(rng.uniform(*CONTRAST_RANGE))
    blur = bool(rng.uniform() < BLUR_PROBABILITY)
    return AugParams(top, left, crop_h, crop_w, flip, brightness, contrast, blur)


def _resize_taps(origin, crop, extent):
    """Per-frame bilinear taps of resizing the crop [origin, origin + crop)
    of one axis to `extent` samples: low and high source index, and the
    weight of the high one, each of shape (N, extent)."""
    crop = crop[:, None]
    centers = np.clip((np.arange(extent) + 0.5) * crop / extent - 0.5, 0.0, crop - 1.0)
    lo = np.floor(centers).astype(int)
    hi = np.minimum(lo + 1, crop - 1)
    return origin[:, None] + lo, origin[:, None] + hi, centers - lo


def augment_frames(frames, params):
    """Augment an (N, H, W) stack, frame i by params[i]: crop/resize, flip,
    brightness, mean-anchored contrast, box blur, clamp.

    Every frame gets the arithmetic of augmenting it on its own, so a frame's
    output does not depend on the rest of the stack.
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    n, height, width = frames.shape
    if len(params) != n:
        raise ValueError(f"{len(params)} augmentation draws for {n} frames")
    table = np.array([(p.crop_top, p.crop_left, p.crop_h, p.crop_w, p.flip, p.blur,
                       p.brightness, p.contrast) for p in params],
                     dtype=np.float64).reshape(n, 8)
    top, left, crop_h, crop_w = table[:, :4].astype(int).T
    flip, blur = table[:, 4:6].astype(bool).T
    brightness, contrast = table[:, 6:].T
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

    # crop + bilinear resize: a 4-tap gather from the flattened stack
    y0, y1, wy = _resize_taps(top, crop_h, height)
    x0, x1, wx = _resize_taps(left, crop_w, width)
    # a full-frame crop is a plain copy; pointing both taps at one pixel keeps
    # it exact, signed zeros included
    full = ((crop_h == height) & (crop_w == width))[:, None]
    y1 = np.where(full, y0, y1)
    x1 = np.where(full, x0, x1)
    x0, x1, wx = (np.where(flip[:, None], a[:, ::-1], a) for a in (x0, x1, wx))
    base = np.arange(n)[:, None] * height
    r0 = ((base + y0) * width)[:, :, None]
    r1 = ((base + y1) * width)[:, :, None]
    x0, x1 = x0[:, None, :], x1[:, None, :]
    wx, wy = wx[:, None, :], wy[:, :, None]
    flat = frames.reshape(-1)
    top_row = flat[r0 + x0] * (1 - wx) + flat[r0 + x1] * wx
    bottom_row = flat[r1 + x0] * (1 - wx) + flat[r1 + x1] * wx
    out = top_row * (1 - wy) + bottom_row * wy

    # a zero shift or unit contrast must leave the frame untouched: x + 0.0
    # turns -0.0 into 0.0, and mean + (x - mean) is not always x
    sel = np.flatnonzero(brightness != 0.0)
    out[sel] += brightness[sel, None, None]
    sel = np.flatnonzero(contrast != 1.0)
    chosen = out[sel]
    mean = chosen.reshape(sel.size, height * width).mean(axis=1)[:, None, None]
    out[sel] = mean + (chosen - mean) * contrast[sel, None, None]
    sel = np.flatnonzero(blur)
    padded = np.pad(out[sel], ((0, 0), (1, 1), (1, 1)), mode="edge")
    acc = np.zeros((sel.size, height, width))
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            acc += padded[:, dy:dy + height, dx:dx + width]
    out[sel] = acc / 9.0
    return np.clip(out, 0.0, 1.0, out=out)


def augment_frame(frame, params: AugParams):
    """augment_frames for a single (H, W) frame."""
    return augment_frames(frame[None], [params])[0]


def frame_at(video: Video, index):
    """Frame at a (possibly tiled) timeline index; (K, H, W) for K indices."""
    return video.frames[np.asarray(index) % video.frames.shape[0]]


def draw_view(video: Video, k, rng, share_augment=False):
    """Indices and aug records of one unshuffled K-frame tuple."""
    indices = segment_indices(video.frames.shape[0], k, rng)
    height, width = video.frames.shape[1:]
    if share_augment:
        shared = draw_aug_params(height, width, rng)
        aug = tuple(shared for _ in range(k))
    else:
        aug = tuple(draw_aug_params(height, width, rng) for _ in range(k))
    return indices, aug


def sample_view(video: Video, k, rng, share_augment=False):
    """One unshuffled K-frame tuple: indices, augmented frames, aug records."""
    indices, aug = draw_view(video, k, rng, share_augment)
    return indices, augment_frames(frame_at(video, indices), aug), aug


def draw_tuple_pair(video: Video, k, rng, share_augment=False) -> TuplePair:
    """All random choices of sample_tuple_pair, with no augmentation applied:
    the pair's frames are the raw frames at its indices, and augment_frames
    applied to them with the pair's aug records gives sample_tuple_pair's.

    The anchor, positive and shuffle decisions each consume their own child
    stream of `rng`, so the two samplings are exchangeable.
    """
    if video.frames.shape[0] < 1:
        raise ValueError("video has no frames")
    rng_anchor, rng_positive, rng_shuffle = rng.spawn(3)
    a_idx, a_aug = draw_view(video, k, rng_anchor, share_augment)
    p_idx, p_aug = draw_view(video, k, rng_positive, share_augment)
    shuffle_anchor, shuffle_positive, label = assign_order_label(rng_shuffle)
    if shuffle_anchor:
        perm = non_identity_permutation(k, rng_shuffle)
        a_idx = a_idx[perm]
        a_aug = tuple(a_aug[i] for i in perm)
    if shuffle_positive:
        perm = non_identity_permutation(k, rng_shuffle)
        p_idx = p_idx[perm]
        p_aug = tuple(p_aug[i] for i in perm)
    return TuplePair(
        video_id=video.id,
        anchor_indices=a_idx, anchor_frames=frame_at(video, a_idx), anchor_aug=a_aug,
        positive_indices=p_idx, positive_frames=frame_at(video, p_idx), positive_aug=p_aug,
        shuffle_anchor=shuffle_anchor, shuffle_positive=shuffle_positive,
        order_label=label,
    )


def sample_tuple_pair(video: Video, k, rng, share_augment=False) -> TuplePair:
    """Two independent segment samplings of one video plus shuffle/label, with
    both tuples augmented (see draw_tuple_pair)."""
    pair = draw_tuple_pair(video, k, rng, share_augment)
    frames = augment_frames(np.concatenate([pair.anchor_frames, pair.positive_frames]),
                            pair.anchor_aug + pair.positive_aug)
    return replace(pair, anchor_frames=frames[:k], positive_frames=frames[k:])
