import numpy as np
import pytest

from vidseg import synth


def spec_with(**kw):
    base = dict(classes=8, videos_per_class=4, frames=16, height=16, width=16,
                untrimmed=False, noise=0.05, seed=3)
    base.update(kw)
    return synth.DatasetSpec(**base)


def test_generation_is_deterministic():
    spec = spec_with()
    a, a_window = synth.generate_video(spec, 2, 1)
    b, b_window = synth.generate_video(spec, 2, 1)
    assert a.tobytes() == b.tobytes()
    assert a_window == b_window == (-1, -1)


def test_noise_free_frames_follow_construction_rule():
    # reproduce the documented draw order (phase, perp, window, noise) and
    # compare every frame against the analytic render
    spec = spec_with(noise=0.0, frames=20)
    frames, _ = synth.generate_video(spec, 0, 0)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0, 0]))
    u_phase, u_perp = rng.uniform(), rng.uniform()
    sy, sx = synth.trajectory_start(spec, 0, u_phase, u_perp)
    vy, vx = synth.class_motion(spec, 0)
    sigma, amplitude = synth.class_appearance(spec, 0)
    for t in range(spec.frames):
        expected = np.clip(
            synth._render_blob(16, 16, sy + vy * t, sx + vx * t, sigma, amplitude), 0.0, 1.0)
        assert np.array_equal(expected, frames[t])


def per_frame_render(spec, class_id, video_index):
    """The reference frame loop: each frame is its noise, plus the blob at
    its step when it lies inside the action window, clipped to [0, 1]."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, class_id, video_index]))
    start_y, start_x = synth.trajectory_start(spec, class_id, rng.uniform(), rng.uniform())
    window_len = synth.window_length(spec)
    start = int(rng.integers(0, spec.frames - window_len + 1))
    noise = rng.uniform(-spec.noise, spec.noise, size=(spec.frames, spec.height, spec.width))
    vy, vx = synth.class_motion(spec, class_id)
    sigma, amplitude = synth.class_appearance(spec, class_id)
    frames = np.empty_like(noise)
    for t in range(spec.frames):
        if start <= t < start + window_len:
            step = t - start
            blob = synth._render_blob(spec.height, spec.width, start_y + vy * step,
                                      start_x + vx * step, sigma, amplitude)
            frames[t] = np.clip(blob + noise[t], 0.0, 1.0)
        else:
            frames[t] = np.clip(noise[t], 0.0, 1.0)
    return frames, (start, start + window_len)


@pytest.mark.parametrize("overrides, window_len", [
    ({}, 16),
    ({"untrimmed": True, "action_coverage": 0.5}, 8),
    ({"untrimmed": True, "action_coverage": 0.05, "height": 12}, 1),
], ids=["trimmed", "untrimmed_half", "one_frame_window"])
def test_generate_video_matches_per_frame_render(overrides, window_len):
    spec = spec_with(**overrides)
    assert synth.window_length(spec) == window_len
    for class_id, index in [(0, 0), (3, 1), (6, 3)]:
        frames, window = synth.generate_video(spec, class_id, index)
        expected, expected_window = per_frame_render(spec, class_id, index)
        assert frames.tobytes() == expected.tobytes()
        assert window == (expected_window if spec.untrimmed else (-1, -1))


def test_shift_rule_between_consecutive_frames():
    # with zero noise, frame t+1 equals frame t advanced by the class
    # velocity: compare against re-rendering at the shifted center
    spec = spec_with(noise=0.0, frames=20)
    frames, _ = synth.generate_video(spec, 0, 1)
    vy, vx = synth.class_motion(spec, 0)
    # find a frame where the blob is well inside, then check the shift rule
    energies = frames.reshape(spec.frames, -1).max(axis=1)
    t = int(np.argmax(energies))
    assert 0 < t < spec.frames - 1
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0, 1]))
    sy, sx = synth.trajectory_start(spec, 0, rng.uniform(), rng.uniform())
    sigma, amplitude = synth.class_appearance(spec, 0)
    shifted = synth._render_blob(16, 16, (sy + vy * t) + vy, (sx + vx * t) + vx,
                                 sigma, amplitude)
    assert np.array_equal(np.clip(shifted, 0.0, 1.0), frames[t + 1])


def test_blob_crosses_the_frame():
    spec = spec_with(noise=0.0, frames=32)
    frames, _ = synth.generate_video(spec, 2, 0)
    energies = frames.reshape(spec.frames, -1).max(axis=1)
    # dark at both ends of the timeline, bright in the middle
    assert energies[0] < 0.05 and energies[-1] < 0.05
    assert energies.max() > 0.3


def test_pixels_stay_in_unit_interval():
    spec = spec_with(noise=0.3, untrimmed=True)
    frames, _ = synth.generate_video(spec, 5, 2)
    assert frames.min() >= 0.0 and frames.max() <= 1.0


def test_between_class_distance_exceeds_within():
    spec = spec_with(videos_per_class=20, untrimmed=False)
    means = {c: [] for c in (0, 1)}
    for c in (0, 1):
        for i in range(20):
            means[c].append(synth.generate_video(spec, c, i)[0].mean(axis=0).ravel())
    m0, m1 = np.array(means[0]), np.array(means[1])

    def mean_pair_dist(a, b):
        return np.mean([np.linalg.norm(x - y) for x in a for y in b if x is not y])

    within = 0.5 * (mean_pair_dist(m0, m0) + mean_pair_dist(m1, m1))
    between = mean_pair_dist(m0, m1)
    assert between > within


def test_small_frames_rejected():
    # the spec itself refuses, before anything is generated
    for kw in ({"height": 7}, {"width": 4}):
        with pytest.raises(ValueError, match="^dataset.height/width must be >= 8$"):
            spec_with(**kw)


def test_single_video_per_class_rejected():
    with pytest.raises(ValueError, match="^dataset.videos_per_class must be >= 2$"):
        spec_with(videos_per_class=1)


def test_negative_seed_rejected():
    # numpy's SeedSequence would refuse it only at generation, naming neither key nor file
    with pytest.raises(ValueError, match="^dataset.seed must be >= 0$"):
        spec_with(seed=-1)


def test_non_finite_noise_rejected():
    # NaN would pass a plain `noise < 0` check and fail inside numpy at generation
    for bad in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="^dataset.noise must be finite and >= 0$"):
            spec_with(noise=bad)


def test_dataset_split_counts_and_ids():
    spec = spec_with(classes=8, videos_per_class=25)
    train, test = synth.generate_dataset(spec)
    assert len(train) == 160 and len(test) == 40
    per_class_train = np.bincount(train.labels, minlength=8)
    per_class_test = np.bincount(test.labels, minlength=8)
    assert np.all(per_class_train == 20) and np.all(per_class_test == 5)
    ids = train.ids.tolist() + test.ids.tolist()
    assert len(set(ids)) == len(ids)
    assert np.array_equal(train.ids // 25, train.labels)
    assert np.array_equal(test.ids // 25, test.labels)
    assert train.frames.shape == (160, 16, 16, 16) and test.frames.shape == (40, 16, 16, 16)


def test_dataset_split_is_deterministic():
    spec = spec_with()
    t1, s1 = synth.generate_dataset(spec)
    t2, s2 = synth.generate_dataset(spec)
    assert t1.ids.tolist() == t2.ids.tolist()
    assert s1.frames.tobytes() == s2.frames.tobytes()


def test_untrimmed_full_coverage_matches_trimmed():
    trimmed = spec_with(untrimmed=False)
    covered = spec_with(untrimmed=True, action_coverage=1.0)
    for c, i in [(0, 0), (3, 2), (7, 3)]:
        a, a_window = synth.generate_video(trimmed, c, i)
        b, b_window = synth.generate_video(covered, c, i)
        assert a.tobytes() == b.tobytes()
        assert a_window == (-1, -1)
        assert b_window == (0, trimmed.frames)


def test_untrimmed_window_bounds_and_noise_outside():
    spec = spec_with(untrimmed=True, action_coverage=0.5, noise=0.0)
    frames, (start, end) = synth.generate_video(spec, 1, 0)
    assert 0 <= start < end <= spec.frames
    assert end - start == round(0.5 * spec.frames)
    outside = [t for t in range(spec.frames) if not start <= t < end]
    assert outside, "half coverage must leave frames outside the window"
    for t in outside:
        assert frames[t].max() == 0.0
    inside_energy = frames[start:end].max()
    assert inside_energy > 0.1


def test_nearest_class_mean_beats_chance():
    spec = spec_with(classes=8, videos_per_class=10, untrimmed=True)
    train, test = synth.generate_dataset(spec)
    train_feats = train.frames.mean(axis=1).reshape(len(train), -1)
    class_means = {}
    for c in range(8):
        rows = train_feats[train.labels == c]
        class_means[c] = np.mean(rows, axis=0)
    hits = 0
    for feat, label in zip(test.frames.mean(axis=1).reshape(len(test), -1), test.labels):
        dists = {c: np.linalg.norm(feat - m) for c, m in class_means.items()}
        if min(dists, key=dists.get) == label:
            hits += 1
    accuracy = hits / len(test)
    assert accuracy > 1.0 / 8.0 + 0.1
