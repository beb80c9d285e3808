"""Seeded synthetic videos: a textured Gaussian blob translating along a
class-specific direction, optionally confined to an action window so the rest
of the timeline is pure noise (the untrimmed regime where naive frame
sampling produces false positive pairs). A split is one Split of arrays with
a row per video: (T, H, W) frames, id, class label and action window."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import formats

MIN_FRAME_SIDE = 8  # the smallest frame side that contains the blob

# the blob center starts this far outside the frame and crosses to the other
# side over the action window, plus a per-video phase jitter
_CLEARANCE = 4.0
_PHASE_RANGE = 3.0
_PERP_RANGE = 3.5


@dataclass(frozen=True)
class DatasetSpec:
    """Generation parameters. Everything downstream is a pure function of these."""

    SECTION: ClassVar[str] = "dataset"
    classes: int = field(default=8, metadata={"min": 2})
    # each class needs a train and a test video
    videos_per_class: int = field(default=25, metadata={"min": 2})
    frames: int = field(default=32, metadata={"min": 1})
    height: int = 16  # height and width share one bound, checked in __post_init__
    width: int = 16
    untrimmed: bool = False
    action_coverage: float = field(default=0.5, metadata={"above": 0, "max": 1})
    noise: float = field(default=0.05, metadata={"min": 0})
    seed: int = field(default=1, metadata={"min": 0})
    train_fraction: float = field(default=0.8, metadata={"above": 0, "below": 1})

    def __post_init__(self):
        formats.check_bounds(self)
        if min(self.height, self.width) < MIN_FRAME_SIDE:
            raise ValueError(f"dataset.height/width must be >= {MIN_FRAME_SIDE}")


@dataclass(frozen=True)
class Split:
    """The videos of one split, row b of each array describing video b."""

    # (n, T, H, W) in [0, 1], float32 as a dataset file stores them; the
    # math widens frames to float64 where it uses them
    frames: np.ndarray
    ids: np.ndarray  # (n,)
    labels: np.ndarray  # (n,) class ids
    windows: np.ndarray  # (n, 2) [start, end) action windows; (-1, -1) when trimmed

    def __len__(self):
        return self.ids.shape[0]


def class_direction(spec: DatasetSpec, class_id: int):
    """Unit (dy, dx) travel direction: classes map to evenly spaced compass
    directions, the primary class signal."""
    theta = 2.0 * math.pi * (class_id % spec.classes) / spec.classes
    return math.sin(theta), math.cos(theta)


def _crossing_half_span(spec, class_id):
    """Distance from the frame center, along the class direction, at which
    the blob center sits fully outside the frame."""
    dy, dx = class_direction(spec, class_id)
    return 0.5 * (abs(dy) * (spec.height - 1) + abs(dx) * (spec.width - 1)) + _CLEARANCE


def window_length(spec: DatasetSpec):
    return max(1, round(spec.action_coverage * spec.frames)) if spec.untrimmed else spec.frames


def class_motion(spec: DatasetSpec, class_id: int):
    """Per-frame (dy, dx) velocity: the blob crosses the whole frame, edge to
    edge, over the action window."""
    dy, dx = class_direction(spec, class_id)
    span = _crossing_half_span(spec, class_id)
    speed = (2.0 * span + _PHASE_RANGE) / max(window_length(spec) - 1, 1)
    return speed * dy, speed * dx


def class_appearance(spec: DatasetSpec, class_id: int):
    """Secondary class signal: blob spread and peak intensity. The steps are
    kept small so a single frame is far more ambiguous about the class than
    the trajectory is."""
    sigma = 1.4 + 0.05 * (class_id % 8)
    amplitude = 0.8 - 0.02 * (class_id % 8)
    return sigma, amplitude


def _render_blob(height, width, cy, cx, sigma, amplitude):
    """The blob image centered at (cy, cx); centers of shape (n, 1, 1) give
    an (n, H, W) stack."""
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    return amplitude * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma * sigma))


def trajectory_start(spec: DatasetSpec, class_id: int, u_phase: float, u_perp: float):
    """Blob center at the first window frame, given the two per-video draws.

    The center starts just outside the frame (shifted further back by the
    phase draw) and is displaced sideways by the perpendicular draw; the
    class velocity then carries it across to the opposite side.
    """
    dy, dx = class_direction(spec, class_id)
    span = _crossing_half_span(spec, class_id)
    along = -span - _PHASE_RANGE * u_phase
    perp = _PERP_RANGE * (2.0 * u_perp - 1.0)
    center_y = (spec.height - 1) / 2.0
    center_x = (spec.width - 1) / 2.0
    return (center_y + along * dy + perp * dx,
            center_x + along * dx - perp * dy)


def generate_video(spec: DatasetSpec, class_id: int, video_index: int):
    """(frames (T, H, W), [start, end) action window, (-1, -1) when trimmed)
    of one video. Deterministic function of (spec.seed, class_id, video_index).

    The per-video RNG is derived by hashing the triple, so generation order
    never matters. Draw order: phase, perpendicular offset, window placement,
    noise field. Both trimmed and untrimmed modes consume identical draws,
    which makes untrimmed with full coverage frame-identical to trimmed under
    the same seed.
    """
    if class_id >= spec.classes or class_id < 0:
        raise ValueError(f"class_id {class_id} out of range for {spec.classes} classes")

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, class_id, video_index]))
    t_count = spec.frames
    vy, vx = class_motion(spec, class_id)
    sigma, amplitude = class_appearance(spec, class_id)

    u_phase = rng.uniform()
    u_perp = rng.uniform()
    start_y, start_x = trajectory_start(spec, class_id, u_phase, u_perp)

    window_len = window_length(spec)
    window_start = int(rng.integers(0, t_count - window_len + 1))
    window = (window_start, window_start + window_len)

    frames = rng.uniform(-spec.noise, spec.noise, size=(t_count, spec.height, spec.width))
    steps = np.arange(window_len)[:, None, None]
    frames[window[0]:window[1]] += _render_blob(
        spec.height, spec.width, start_y + vy * steps, start_x + vx * steps, sigma, amplitude)
    np.clip(frames, 0.0, 1.0, out=frames)

    return frames, window if spec.untrimmed else (-1, -1)


def split_counts(spec: DatasetSpec):
    """(train, test) videos per class; both ends are kept nonempty."""
    n = spec.videos_per_class
    n_train = min(n - 1, max(1, round(spec.train_fraction * n)))
    return n_train, n - n_train


def generate_dataset(spec: DatasetSpec):
    """All videos of the spec as (train, test) Splits, rows in (class, index)
    order, video (c, i) with id c * videos_per_class + i.

    The split is stratified: within each class the first train-count indices
    go to train, the rest to test. Frames are float32, each video rounded
    once as write_dataset rounds it, so runs see their dataset file's pixels.
    """
    n_train, _ = split_counts(spec)
    splits = []
    for indices in (range(n_train), range(n_train, spec.videos_per_class)):
        pairs = np.array([(c, i) for c in range(spec.classes) for i in indices])
        frames = np.empty((len(pairs), spec.frames, spec.height, spec.width), dtype=np.float32)
        windows = np.empty((len(pairs), 2), dtype=np.int64)
        for row, (class_id, index) in enumerate(pairs.tolist()):
            frames[row], windows[row] = generate_video(spec, class_id, index)
        splits.append(Split(frames=frames, ids=pairs[:, 0] * spec.videos_per_class + pairs[:, 1],
                            labels=pairs[:, 0], windows=windows))
    return tuple(splits)
