import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vidseg import sampling, synth


def make_video(t=12, h=16, w=16, seed=0):
    spec = synth.DatasetSpec(classes=8, videos_per_class=2, frames=t, height=h, width=w,
                             untrimmed=False, seed=seed)
    return synth.generate_video(spec, 0, 0)


def _resize_grid(in_extent, out_extent):
    centers = np.clip((np.arange(out_extent) + 0.5) * in_extent / out_extent - 0.5,
                      0.0, in_extent - 1.0)
    lo = np.floor(centers).astype(int)
    hi = np.minimum(lo + 1, in_extent - 1)
    return lo, hi, centers - lo


def _resize_bilinear(img, out_h, out_w):
    in_h, in_w = img.shape
    if (in_h, in_w) == (out_h, out_w):
        return img.copy()
    y0, y1, wy = _resize_grid(in_h, out_h)
    x0, x1, wx = _resize_grid(in_w, out_w)
    wy = wy[:, None]
    wx = wx[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bottom = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def _box_blur(img):
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out += padded[dy:dy + img.shape[0], dx:dx + img.shape[1]]
    return out / 9.0


def reference_augment_frame(frame, params):
    """One frame at a time: the reference augment_frames must match bytewise."""
    height, width = frame.shape
    if params.crop_h < 2 or params.crop_w < 2:
        raise ValueError(f"degenerate crop {params.crop_h}x{params.crop_w}")
    if params.crop_top + params.crop_h > height or params.crop_left + params.crop_w > width:
        raise ValueError("crop rectangle outside the frame")
    out = frame[params.crop_top:params.crop_top + params.crop_h,
                params.crop_left:params.crop_left + params.crop_w]
    out = _resize_bilinear(out, height, width)
    if params.flip:
        out = out[:, ::-1].copy()
    if params.brightness != 0.0:
        out = out + params.brightness
    if params.contrast != 1.0:
        mean = out.mean()
        out = mean + (out - mean) * params.contrast
    if params.blur:
        out = _box_blur(out)
    return np.clip(out, 0.0, 1.0)


def reference_augment_frames(frames, params):
    return np.stack([reference_augment_frame(f, p) for f, p in zip(frames, params)])


def columns(params):
    """Per-frame AugParams records as one set of (N,) columns."""
    return sampling.AugParams(*map(np.array, zip(*params)))


def frame_params(aug, index):
    """One frame's entries of augmentation columns."""
    return sampling.AugParams(*(col[index] for col in aug))


def draw(n, t=12, k=3, seed=0, share_augment=False):
    """Tuples of n videos with t frames of 16x16 each, from one stream."""
    return sampling.draw_tuples(np.random.default_rng(seed), np.full(n, t), k, 16, 16,
                                share_augment=share_augment)


def test_segment_bounds_even_partition():
    assert sampling.segment_bounds(30, 3).tolist() == [[0, 10], [10, 20], [20, 30]]


def test_segment_bounds_uneven_partition():
    assert sampling.segment_bounds(10, 3).tolist() == [[0, 3], [3, 6], [6, 10]]
    # one row of bounds per timeline length
    assert sampling.segment_bounds(np.array([10, 30]), 3).tolist() == [
        [[0, 3], [3, 6], [6, 10]], [[0, 10], [10, 20], [20, 30]]]


def test_segment_indices_forced_when_tight():
    drawn = draw(50, t=3)
    assert np.sort(drawn.indices, axis=-1).tolist() == [[[0, 1, 2]] * 2] * 50


def test_segment_indices_stay_in_segments():
    drawn = draw(200, t=30)
    in_order = np.sort(drawn.indices, axis=-1)
    for i, (lo, hi) in enumerate(sampling.segment_bounds(30, 3)):
        assert np.all((lo <= in_order[..., i]) & (in_order[..., i] < hi))


def test_empty_timeline_rejected():
    with pytest.raises(ValueError):
        sampling.segment_bounds(0, 3)
    with pytest.raises(ValueError):
        sampling.draw_tuples(np.random.default_rng(0), np.array([12, 0]), 3, 16, 16)


def test_tiled_timeline_when_too_few_frames():
    drawn = draw(50, t=2, k=5)
    assert drawn.indices.shape == (50, 2, 5)
    # tile indices still strictly increasing
    assert np.all(np.diff(np.sort(drawn.indices, axis=-1), axis=-1) > 0)


def test_order_label_mapping():
    drawn = draw(400)
    flags = drawn.shuffled
    assert drawn.labels.tolist() == (2 * flags[:, 0] + flags[:, 1]).tolist()
    assert set(drawn.labels.tolist()) == {0, 1, 2, 3}


def test_order_label_frequencies_balanced():
    counts = np.bincount(draw(10_000, seed=123).labels, minlength=4)
    freqs = counts / 10_000
    assert np.all(freqs >= 0.23) and np.all(freqs <= 0.27)


def test_permutation_unranking_is_lexicographic_and_complete():
    perms = [tuple(sampling.permutation_from_rank(3, r)) for r in range(6)]
    assert perms[0] == (0, 1, 2)
    assert perms == sorted(set(perms))
    # an array of ranks unranks row by row
    ranks = np.arange(24).reshape(4, 6)
    batched = sampling.permutation_from_rank(4, ranks)
    assert batched.shape == (4, 6, 4)
    for rank, perm in zip(ranks.reshape(-1), batched.reshape(-1, 4)):
        assert perm.tolist() == sampling.permutation_from_rank(4, rank).tolist()
    assert len({tuple(p) for p in batched.reshape(-1, 4).tolist()}) == 24


def test_non_identity_permutation_never_identity():
    drawn = draw(2000, t=30, seed=7)
    perms = np.argsort(drawn.indices, axis=-1)[drawn.shuffled]
    assert len(perms) > 0
    assert not np.any(np.all(perms == np.arange(3), axis=-1))


def test_unshuffled_pair_is_increasing_and_label_zero():
    drawn = draw(400)
    increasing = np.all(np.diff(drawn.indices, axis=-1) > 0, axis=-1)
    assert np.all(increasing[~drawn.shuffled])
    assert np.all(drawn.labels[~drawn.shuffled.any(axis=1)] == 0)


def test_shuffled_tuple_is_not_increasing():
    drawn = draw(400)
    increasing = np.all(np.diff(drawn.indices, axis=-1) > 0, axis=-1)
    assert drawn.shuffled.sum() > 100
    assert not np.any(increasing[drawn.shuffled])


def test_drawn_fields_stay_in_range_at_their_rates():
    # 10,000 videos of mixed lengths: 20,000 tuples, 60,000 frame draws
    height, width, k = 16, 12, 3
    t_counts = np.resize([2, 5, 12, 32], 10_000)
    drawn = sampling.draw_tuples(np.random.default_rng(2024), t_counts, k, height, width)
    bounds = sampling.segment_bounds(t_counts, k)[:, None]
    in_order = np.sort(drawn.indices, axis=-1)
    assert np.all((bounds[..., 0] <= in_order) & (in_order < bounds[..., 1]))
    aug = drawn.aug
    for side, crop in ((height, aug.crop_h), (width, aug.crop_w)):
        assert crop.min() == max(2, round(0.6 * side)) and crop.max() == side
    # both sides come from one scale draw per frame
    assert np.all(np.abs(aug.crop_h / height - aug.crop_w / width) <= 0.5 / height + 0.5 / width)
    for origin, crop, side in ((aug.crop_top, aug.crop_h, height),
                               (aug.crop_left, aug.crop_w, width)):
        assert np.all((0 <= origin) & (origin <= side - crop))
        assert np.any(origin == side - crop) and np.any((origin == 0) & (crop < side))
    assert np.all((-0.2 <= aug.brightness) & (aug.brightness < 0.2))
    assert np.all((0.8 <= aug.contrast) & (aug.contrast < 1.2))
    for flags in (aug.flip, aug.blur, drawn.shuffled):
        assert flags.dtype == bool and abs(flags.mean() - 0.5) <= 0.01
    perms = {tuple(p) for p in np.argsort(drawn.indices, axis=-1)[drawn.shuffled].tolist()}
    assert perms == {tuple(sampling.permutation_from_rank(k, r)) for r in range(1, 6)}
    four = sampling.draw_tuples(np.random.default_rng(4), np.full(2000, 32), 4, 16, 16)
    perms = {tuple(p) for p in np.argsort(four.indices, axis=-1)[four.shuffled].tolist()}
    assert len(perms) == 23 and tuple(range(4)) not in perms


def test_anchor_positive_draws_are_exchangeable():
    # anchor and positive come from one array draw per field, so their
    # per-segment index, augmentation and shuffle statistics agree
    n = 20_000
    drawn = draw(n, t=32, seed=99)
    in_order = np.sort(drawn.indices, axis=-1)
    for i in range(3):
        anchor = np.bincount(in_order[:, 0, i], minlength=32) / n
        positive = np.bincount(in_order[:, 1, i], minlength=32) / n
        assert np.max(np.abs(anchor - positive)) < 0.02
    for col in drawn.aug:
        col = col.astype(float)
        assert abs(col[:, 0].mean() - col[:, 1].mean()) < 0.02 * max(1.0, col.mean())
    assert abs(drawn.shuffled[:, 0].mean() - drawn.shuffled[:, 1].mean()) < 0.02


def test_identity_augmentation_is_identity():
    video = make_video()
    frame = video.frames[0]
    identity = sampling.AugParams(0, 0, 16, 16, False, 0.0, 1.0, False)
    out = sampling.augment_frame(frame, identity)
    assert np.array_equal(out, frame)


def test_flip_twice_restores_frame():
    video = make_video()
    frame = video.frames[0]
    params = sampling.AugParams(0, 0, 16, 16, True, 0.0, 1.0, False)
    assert np.array_equal(sampling.augment_frame(sampling.augment_frame(frame, params), params),
                          frame)


def test_brightness_shift_on_constant_frame():
    frame = np.full((16, 16), 0.5)
    params = sampling.AugParams(0, 0, 16, 16, False, 0.1, 1.0, False)
    out = sampling.augment_frame(frame, params)
    assert np.allclose(out, 0.6, atol=1e-12)


def test_degenerate_crop_rejected():
    frame = np.zeros((16, 16))
    for top, left, crop_h, crop_w in ((0, 0, 1, 16), (-1, 0, 16, 16), (0, -1, 16, 16),
                                      (-3, -2, 8, 8), (9, 0, 8, 8)):
        params = sampling.AugParams(top, left, crop_h, crop_w, False, 0.0, 1.0, False)
        with pytest.raises(ValueError):
            sampling.augment_frame(frame, params)
        # a bad draw anywhere in a stack rejects the whole stack
        with pytest.raises(ValueError):
            identity = sampling.AugParams(0, 0, 16, 16, False, 0.0, 1.0, False)
            sampling.augment_frames(np.zeros((3, 16, 16)), columns([identity, params, params]))


def test_augmented_frames_clamped_and_shaped():
    video = make_video()
    params = sampling.draw_aug(np.random.default_rng(5), (30,), 16, 16)
    for i in range(30):
        out = sampling.augment_frame(video.frames[1], frame_params(params, i))
        assert out.shape == (16, 16)
        assert out.min() >= 0.0 and out.max() <= 1.0
    out = sampling.augment_frames(video.frames[np.arange(30) % 12], params)
    assert out.shape == (30, 16, 16) and out.min() >= 0.0 and out.max() <= 1.0


def test_shared_augmentation_flag():
    shared = draw(50, seed=11, share_augment=True).aug
    own = draw(50, seed=11).aug
    for shared_col, own_col in zip(shared, own):
        assert np.all(shared_col == shared_col[..., :1])
        assert not np.all(own_col == own_col[..., :1])


def test_pair_sampling_deterministic():
    first, again, other = draw(32, seed=42), draw(32, seed=42), draw(32, seed=43)
    assert first.indices.tobytes() == again.indices.tobytes()
    assert first.shuffled.tobytes() == again.shuffled.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first.aug, again.aug))
    assert first.indices.tobytes() != other.indices.tobytes()


@st.composite
def frame_stacks(draw):
    """An (N, H, W) stack and one valid AugParams per frame, leaning on the
    edge cases: 2-pixel and full-frame crops, zero brightness, unit contrast."""
    n = draw(st.integers(1, 6))
    height = draw(st.integers(2, 12))
    width = draw(st.integers(2, 12))
    pixels = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 0.0, 1.0]),
                       st.floats(-0.5, 1.5))
    frames = draw(hnp.arrays(np.float64, (n, height, width), elements=pixels))
    params = []
    for _ in range(n):
        crop_h = draw(st.sampled_from([2, height]) | st.integers(2, height))
        crop_w = draw(st.sampled_from([2, width]) | st.integers(2, width))
        params.append(sampling.AugParams(
            draw(st.integers(0, height - crop_h)), draw(st.integers(0, width - crop_w)),
            crop_h, crop_w, draw(st.booleans()),
            draw(st.just(0.0) | st.floats(-0.2, 0.2)),
            draw(st.just(1.0) | st.floats(0.8, 1.2)),
            draw(st.booleans())))
    return frames, params


@settings(derandomize=True, max_examples=300, deadline=None)
@given(frame_stacks())
def test_augment_frames_matches_per_frame_reference(stack):
    frames, params = stack
    out = sampling.augment_frames(frames, columns(params))
    assert out.shape == frames.shape
    assert out.tobytes() == reference_augment_frames(frames, params).tobytes()


def test_augment_frames_edge_cases_match_reference():
    video = make_video()
    frames = np.concatenate([video.frames[:4], video.frames[:4]])
    P = sampling.AugParams
    params = [
        P(5, 7, 2, 2, False, 0.1, 0.9, False),  # 2x2 crop
        P(0, 0, 16, 16, False, 0.0, 1.0, False),  # full frame, nothing else
        P(0, 0, 16, 16, True, 0.0, 1.0, True),  # full frame, flip + blur
        P(3, 1, 10, 12, True, 0.0, 1.1, True),  # zero brightness, flip + blur
        P(2, 2, 12, 12, False, -0.15, 1.0, False),  # unit contrast
        P(0, 4, 16, 12, True, 0.05, 0.85, False),  # full height only
        P(1, 0, 14, 16, False, 0.0, 1.0, True),  # full width only, blur
        P(6, 6, 9, 9, True, -0.2, 1.2, False),
    ]
    out = sampling.augment_frames(frames, columns(params))
    assert out.tobytes() == reference_augment_frames(frames, params).tobytes()
    for frame, p, row in zip(frames, params, out):
        assert sampling.augment_frame(frame, p).tobytes() == row.tobytes()


def test_augment_frames_matches_reference_on_drawn_params():
    video = make_video(t=32)
    rng = np.random.default_rng(17)
    frames = video.frames[rng.integers(0, 32, size=2000)]
    params = sampling.draw_aug(rng, (2000,), 16, 16)
    reference = reference_augment_frames(frames, [frame_params(params, i) for i in range(2000)])
    assert sampling.augment_frames(frames, params).tobytes() == reference.tobytes()
