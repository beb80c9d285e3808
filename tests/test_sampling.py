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


def test_segment_bounds_even_partition():
    assert sampling.segment_bounds(30, 3) == [(0, 10), (10, 20), (20, 30)]


def test_segment_bounds_uneven_partition():
    assert sampling.segment_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]


def test_segment_indices_forced_when_tight():
    rng = np.random.default_rng(0)
    assert sampling.segment_indices(3, 3, rng).tolist() == [0, 1, 2]


def test_segment_indices_stay_in_segments():
    rng = np.random.default_rng(1)
    for _ in range(50):
        idx = sampling.segment_indices(30, 3, rng)
        for i, (lo, hi) in enumerate(sampling.segment_bounds(30, 3)):
            assert lo <= idx[i] < hi


def test_empty_timeline_rejected():
    with pytest.raises(ValueError):
        sampling.segment_indices(0, 3, np.random.default_rng(0))


def test_tiled_timeline_when_too_few_frames():
    rng = np.random.default_rng(2)
    idx = sampling.segment_indices(2, 5, rng)
    assert len(idx) == 5
    assert all(np.diff(idx) > 0)  # tile indices still strictly increasing


def test_order_label_mapping():
    assert sampling.ORDER_CLASSES[(False, False)] == 0
    assert sampling.ORDER_CLASSES[(False, True)] == 1
    assert sampling.ORDER_CLASSES[(True, False)] == 2
    assert sampling.ORDER_CLASSES[(True, True)] == 3
    for flags, label in sampling.ORDER_CLASSES.items():
        assert label == 2 * flags[0] + flags[1]


def test_order_label_frequencies_balanced():
    rng = np.random.default_rng(123)
    counts = np.zeros(4, dtype=int)
    n = 10_000
    for _ in range(n):
        _, _, label = sampling.assign_order_label(rng)
        counts[label] += 1
    freqs = counts / n
    assert np.all(freqs >= 0.23) and np.all(freqs <= 0.27)


def test_permutation_unranking_is_lexicographic_and_complete():
    perms = [tuple(sampling.permutation_from_rank(3, r)) for r in range(6)]
    assert perms[0] == (0, 1, 2)
    assert len(set(perms)) == 6


def test_non_identity_permutation_never_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        perm = sampling.non_identity_permutation(3, rng)
        assert perm != [0, 1, 2]


def test_unshuffled_pair_is_increasing_and_label_zero():
    video = make_video()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pair = sampling.sample_tuple_pair(video, 3, rng)
        if not pair.shuffle_anchor:
            assert all(np.diff(pair.anchor_indices) > 0)
        if not pair.shuffle_positive:
            assert all(np.diff(pair.positive_indices) > 0)
        if not pair.shuffle_anchor and not pair.shuffle_positive:
            assert pair.order_label == 0


def test_shuffled_tuple_is_not_increasing():
    video = make_video()
    seen = 0
    for seed in range(60):
        pair = sampling.sample_tuple_pair(video, 3, np.random.default_rng(seed))
        if pair.shuffle_anchor:
            seen += 1
            assert not np.all(np.diff(pair.anchor_indices) > 0)
        assert pair.order_label == 2 * pair.shuffle_anchor + pair.shuffle_positive
    assert seen > 10


def test_anchor_positive_exchangeable_under_stream_swap():
    video = make_video()
    ss = np.random.SeedSequence(99)
    child_a, child_b = ss.spawn(2)
    ia, fa, _ = sampling.sample_view(video, 3, np.random.default_rng(child_a))
    ib, fb, _ = sampling.sample_view(video, 3, np.random.default_rng(child_b))
    ia2, fa2, _ = sampling.sample_view(video, 3, np.random.default_rng(child_b))
    ib2, fb2, _ = sampling.sample_view(video, 3, np.random.default_rng(child_a))
    assert np.array_equal(ia, ib2) and np.array_equal(ib, ia2)
    assert fa.tobytes() == fb2.tobytes() and fb.tobytes() == fa2.tobytes()


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
            sampling.augment_frames(np.zeros((3, 16, 16)),
                                    [sampling.AugParams(0, 0, 16, 16, False, 0.0, 1.0, False),
                                     params, params])


def test_augmented_frames_clamped_and_shaped():
    video = make_video()
    rng = np.random.default_rng(5)
    for _ in range(30):
        params = sampling.draw_aug_params(16, 16, rng)
        out = sampling.augment_frame(video.frames[1], params)
        assert out.shape == (16, 16)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_shared_augmentation_flag():
    video = make_video()
    rng = np.random.default_rng(11)
    _, _, aug = sampling.sample_view(video, 3, rng, share_augment=True)
    assert aug[0] == aug[1] == aug[2]


def test_pair_sampling_deterministic():
    video = make_video()
    p1 = sampling.sample_tuple_pair(video, 3, np.random.default_rng(42))
    p2 = sampling.sample_tuple_pair(video, 3, np.random.default_rng(42))
    assert np.array_equal(p1.anchor_indices, p2.anchor_indices)
    assert p1.anchor_frames.tobytes() == p2.anchor_frames.tobytes()
    assert p1.order_label == p2.order_label


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
    out = sampling.augment_frames(frames, params)
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
    out = sampling.augment_frames(frames, params)
    assert out.tobytes() == reference_augment_frames(frames, params).tobytes()
    for frame, p, row in zip(frames, params, out):
        assert sampling.augment_frame(frame, p).tobytes() == row.tobytes()


def test_augment_frames_matches_reference_on_drawn_params():
    video = make_video(t=32)
    rng = np.random.default_rng(17)
    frames = video.frames[rng.integers(0, 32, size=2000)]
    params = [sampling.draw_aug_params(16, 16, rng) for _ in frames]
    assert (sampling.augment_frames(frames, params).tobytes()
            == reference_augment_frames(frames, params).tobytes())


def test_sample_tuple_pair_is_drawn_pair_augmented():
    video = make_video(t=5)
    for seed in range(20):
        pair = sampling.sample_tuple_pair(video, 4, np.random.default_rng(seed))
        drawn = sampling.draw_tuple_pair(video, 4, np.random.default_rng(seed))
        assert np.array_equal(pair.anchor_indices, drawn.anchor_indices)
        assert pair.anchor_aug == drawn.anchor_aug and pair.positive_aug == drawn.positive_aug
        for frames, indices, aug in ((pair.anchor_frames, drawn.anchor_indices, drawn.anchor_aug),
                                     (pair.positive_frames, drawn.positive_indices,
                                      drawn.positive_aug)):
            raw = video.frames[indices % 5]
            assert frames.tobytes() == reference_augment_frames(raw, aug).tobytes()
