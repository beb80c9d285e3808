import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidseg import cli, evaluate, formats, synth, trainer
from vidseg import config as config_mod

README = Path(__file__).resolve().parent.parent / "README.md"


def test_defaults_parse_and_build():
    flat = config_mod.parse_config_text("")
    cfg = config_mod.build_train_config(flat)
    cfg.validate()
    assert cfg.dataset.classes == 8
    assert cfg.epochs == 60 and cfg.batch_size == 32
    assert cfg.temperature == pytest.approx(0.07)
    assert cfg.key_momentum == pytest.approx(0.999)
    assert cfg.bank_capacity == 4096


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        config_mod.parse_config_text("train.lr_typo=0.1\n")


def test_bad_value_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        config_mod.parse_config_text("train.epochs=3\ntrain.batch_size=huge\n")


def test_repeated_key_rejected_naming_both_lines():
    with pytest.raises(ValueError, match="line 3: config key 'train.epochs' repeats line 1"):
        config_mod.parse_config_text("train.epochs=60\n# a comment\ntrain.epochs=4\n")


def test_comments_and_blank_lines_allowed():
    flat = config_mod.parse_config_text("# a comment\n\ntrain.epochs=7\n")
    assert flat["train.epochs"] == 7


def test_render_is_canonical_and_stable():
    text = "train.epochs=3\ndataset.classes=4\n"
    flat = config_mod.parse_config_text(text)
    rendered = formats.render_flat(flat)
    # idempotent: parse the rendering, render again, bytes match
    again = formats.render_flat(config_mod.parse_config_text(rendered))
    assert rendered == again
    assert "dataset.classes=4" in rendered.splitlines()
    assert rendered == "".join(f"{line}\n" for line in sorted(rendered.splitlines()))


def test_empty_retrieval_ks_rejected():
    with pytest.raises(ValueError, match="line 2: bad value for 'retrieval.ks'"):
        config_mod.parse_config_text("train.epochs=3\nretrieval.ks=\n")


CONFIG_CLASSES = (synth.DatasetSpec, trainer.TrainConfig, evaluate.ProbeConfig,
                  evaluate.RetrievalConfig)


def test_defaults_are_the_dataclass_fields():
    keys = {f"{cls.SECTION}.{field.metadata.get('key', field.name)}"
            for cls in CONFIG_CLASSES for field in dataclasses.fields(cls)
            if field.name != "dataset"}
    assert set(config_mod.DEFAULTS) == keys
    assert len(keys) == 33


# a value just outside each kind of declared end of a bound
PAST_END = {"min": lambda b: b - 1, "above": lambda b: b, "max": lambda b: b + 1,
            "below": lambda b: b}


def test_every_numeric_field_declares_a_bound_checked_when_built():
    def build(cls, **kw):
        return cls(dataset=synth.DatasetSpec(), **kw) if cls is trainer.TrainConfig else cls(**kw)

    unbounded = set()
    for cls in (synth.DatasetSpec, trainer.TrainConfig, evaluate.ProbeConfig):
        for field in dataclasses.fields(cls):
            if type(field.default) not in (int, float):
                continue
            ends = set(field.metadata) & set(PAST_END)
            if not ends:
                unbounded.add(f"{cls.SECTION}.{field.name}")
            bad = [PAST_END[end](field.metadata[end]) for end in ends]
            for value in bad + ([float("nan")] if type(field.default) is float else []):
                with pytest.raises(ValueError, match=rf"^{cls.SECTION}\.{field.name} must be "):
                    build(cls, **{field.name: value})
    # these two share one bound, checked jointly by DatasetSpec
    assert unbounded == {"dataset.height", "dataset.width"}
    # refused when built, not only when a run starts
    with pytest.raises(ValueError, match=r"^train\.epochs must be >= 1$"):
        trainer.TrainConfig(dataset=synth.DatasetSpec(), epochs=0)


def non_default(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if isinstance(value, tuple):
        return value + (value[-1] + 1,)
    return value + "-other"


def test_every_key_round_trips_at_a_non_default_value():
    text = formats.render_flat({key: non_default(value)
                                for key, value in config_mod.DEFAULTS.items()})
    flat = config_mod.parse_config_text(text)
    assert all(flat[key] != value for key, value in config_mod.DEFAULTS.items())
    built = (config_mod.build_train_config(flat), config_mod.build_probe_config(flat),
             config_mod.build_retrieval_config(flat))
    again = {key: value for cfg in built for key, value in formats.flatten_config(cfg).items()}
    assert formats.render_flat(again) == text
    assert built[2].ks == (1, 5, 10, 11)


def test_readme_key_table_lists_every_default():
    block = README.read_text().split("## Configuration keys and defaults")[1].split("```")[1]
    assert sorted(block.split()) == formats.render_flat(config_mod.DEFAULTS).split()


# every retired key with a value older echoes may carry, the default or not
RETIRED = [("probe.seed", "0"), ("train.frame_source", "uniform"),
           ("train.share_tuple_augment", "true"), ("train.order_positive_uses_key", "false"),
           ("train.normalize_order_embeddings", "false")]


@pytest.mark.parametrize("key, value", RETIRED, ids=[key for key, _ in RETIRED])
def test_retired_keys_dropped_from_echoes_only(key, value):
    assert key not in config_mod.parse_flat_strings({key: value})
    with pytest.raises(ValueError, match=f"line 1: unknown config key '{key}'"):
        config_mod.parse_config_text(f"{key}={value}\n")


def test_config_search_path_env(tmp_path, monkeypatch):
    target = tmp_path / "shared.cfg"
    target.write_text("train.epochs=2\n")
    monkeypatch.setenv(config_mod.CONFIG_PATH_ENV, str(tmp_path))
    flat = config_mod.load_config("shared.cfg")
    assert flat["train.epochs"] == 2
    monkeypatch.delenv(config_mod.CONFIG_PATH_ENV)
    with pytest.raises(FileNotFoundError):
        config_mod.load_config("shared.cfg")


def small_state():
    spec = synth.DatasetSpec(classes=2, videos_per_class=2, frames=6, seed=9)
    cfg = trainer.TrainConfig(dataset=spec, epochs=1, batch_size=2, bank_capacity=8,
                              hidden_dim=8, feature_dim=6, embed_dim=4)
    state = trainer.init_state(cfg)
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(3, 4))
    state.bank_inter.enqueue(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    return cfg, state


def test_checkpoint_round_trip(tmp_path):
    cfg, state = small_state()
    flat = formats.flatten_config(cfg)
    path = tmp_path / "model.ckpt"
    formats.write_checkpoint(path, flat, state.query, state.key,
                             {"inter": state.bank_inter, "segment": state.bank_segment},
                             {"seed": 9, "epoch": 1, "step": 2})
    loaded = formats.read_checkpoint(path)
    assert loaded.rng_meta == {"seed": 9, "epoch": 1, "step": 2}
    assert set(loaded.query) == set(state.query)
    for name in state.query:
        # payload is float32, so round-tripping matches at float32 precision
        assert np.allclose(loaded.query[name], state.query[name], atol=1e-6)
        assert loaded.query[name].dtype == np.float64
    assert loaded.banks["inter"].fill == 3
    norms = np.linalg.norm(loaded.banks["inter"].negatives_view(), axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-10)
    # the embedded echo reproduces the canonical rendering byte for byte
    echo = formats.render_flat(config_mod.parse_flat_strings(loaded.config_flat))
    assert echo == formats.render_flat(config_mod.parse_flat_strings(flat))


@pytest.mark.parametrize("key, value", RETIRED, ids=[key for key, _ in RETIRED])
def test_older_echo_with_retired_key_still_loads(tmp_path, key, value):
    cfg, state = small_state()
    flat = {**formats.flatten_config(cfg), **formats.flatten_config(evaluate.ProbeConfig()),
            key: value}
    path = tmp_path / "model.ckpt"
    formats.write_checkpoint(path, flat, state.query, state.key,
                             {"inter": state.bank_inter, "segment": state.bank_segment},
                             {"seed": 9, "epoch": 1, "step": 2})
    loaded = formats.read_checkpoint(path)
    assert loaded.config_flat[key] == value
    typed = config_mod.parse_flat_strings(loaded.config_flat)
    assert key not in typed
    assert config_mod.build_probe_config(typed) == evaluate.ProbeConfig()
    assert config_mod.build_train_config(typed) == cfg


def test_checkpoint_entries_read_at_their_offsets(tmp_path):
    # the manifest, not the order of its lines, places each entry
    checkpoint, _ = written_artifacts(tmp_path)
    blob = checkpoint.read_bytes()
    first, last = blob.index(b"#param "), blob.index(b"#rng ")
    entries = blob[first:last].splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.ckpt"
    shuffled.write_bytes(blob[:first] + b"".join(entries[::-1]) + blob[last:])
    want, got = formats.read_checkpoint(checkpoint), formats.read_checkpoint(shuffled)
    for side in ("query", "key"):
        assert list(getattr(got, side)) == list(getattr(want, side))[::-1]
        for name, arr in getattr(want, side).items():
            assert getattr(got, side)[name].tobytes() == arr.tobytes()
    for name, bank in want.banks.items():
        assert got.banks[name].storage.tobytes() == bank.storage.tobytes()


def test_checkpoint_version_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"#vidseg-checkpoint v999\n#payload 0\n")
    with pytest.raises(formats.ArtifactError, match="version"):
        formats.read_checkpoint(path)


def test_checkpoint_truncated_payload_rejected(tmp_path):
    cfg, state = small_state()
    path = tmp_path / "model.ckpt"
    formats.write_checkpoint(path, {}, state.query, state.key,
                             {"inter": state.bank_inter, "segment": state.bank_segment},
                             {"seed": 0, "epoch": 0, "step": 0})
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(formats.ArtifactError, match="payload"):
        formats.read_checkpoint(path)


def test_dataset_file_round_trip(tmp_path):
    spec = synth.DatasetSpec(classes=2, videos_per_class=3, frames=5, seed=4,
                             untrimmed=True)
    train, test = synth.generate_dataset(spec)
    path = tmp_path / "videos.ds"
    formats.write_dataset(path, spec, train, test)
    spec_flat, train2, test2 = formats.read_dataset(path)
    assert int(spec_flat["dataset.classes"]) == 2
    assert len(train2) == len(train) and len(test2) == len(test)
    for a, b in ((train, train2), (test, test2)):
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.windows, b.windows)
        # generated frames are the stored float32 values, exactly
        assert a.frames.dtype == b.frames.dtype == np.float32
        assert a.frames.tobytes() == b.frames.tobytes()
    # what was read writes back to the same bytes
    formats.write_dataset(tmp_path / "again.ds", spec, train2, test2)
    assert (tmp_path / "again.ds").read_bytes() == path.read_bytes()


def test_pretrain_on_generated_and_file_splits_writes_the_same_checkpoint(tmp_path):
    # training sees the pixels that probe and retrieve score from the file
    cfg = config_mod.build_train_config(config_mod.parse_config_text("train.epochs=4\n"))
    generated = synth.generate_dataset(cfg.dataset)
    formats.write_dataset(tmp_path / "videos.ds", cfg.dataset, *generated)
    _, *from_file = formats.read_dataset(tmp_path / "videos.ds")
    checkpoints = [trainer.pretrain(cfg, tmp_path / name, dataset=dataset)[0].read_bytes()
                   for name, dataset in (("generated", generated), ("file", tuple(from_file)))]
    assert checkpoints[0] == checkpoints[1]


def test_dataset_splits_keep_manifest_order(tmp_path):
    # a hand-made file whose manifest alternates train and test videos
    t, h, w = 2, 3, 4
    rows = [(7, 1, "test"), (2, 0, "train"), (5, 1, "train"), (0, 0, "test"), (9, 1, "train")]
    frames = (np.arange(len(rows) * t * h * w) / 100).astype("<f4").reshape(-1, t, h, w)
    header = [formats.DATASET_MAGIC, "#config-begin", f"dataset.frames={t}",
              f"dataset.height={h}", f"dataset.width={w}", "#config-end"]
    header += [f"#video {vid} {label} {split} {vid} {vid + 2}" for vid, label, split in rows]
    body = frames.tobytes()
    path = tmp_path / "videos.ds"
    path.write_bytes(("\n".join(header) + f"\n#payload {len(body)}\n").encode() + body)
    _, train, test = formats.read_dataset(path)
    for split, name in ((train, "train"), (test, "test")):
        keep = [i for i, row in enumerate(rows) if row[2] == name]
        assert split.ids.tolist() == [rows[i][0] for i in keep]
        assert split.labels.tolist() == [rows[i][1] for i in keep]
        assert split.windows.tolist() == [[rows[i][0], rows[i][0] + 2] for i in keep]
        # float32 as stored, the same values compared exactly
        assert split.frames.dtype == np.float32
        assert split.frames.tobytes() == frames[keep].tobytes()


def test_dataset_frame_shape_must_be_positive(tmp_path):
    path = tmp_path / "videos.ds"
    path.write_bytes(f"{formats.DATASET_MAGIC}\n#config-begin\ndataset.frames=-1\n"
                     "dataset.height=8\ndataset.width=8\n#config-end\n#payload 0\n".encode())
    with pytest.raises(formats.ArtifactError, match="videos.ds: frame shape -1x8x8"):
        formats.read_dataset(path)


def test_dataset_frame_shape_too_large_rejected(tmp_path):
    # with no videos the payload checks pass, but no array has such frames
    path = tmp_path / "videos.ds"
    side = 2 ** 32 + 1
    path.write_bytes(f"{formats.DATASET_MAGIC}\n#config-begin\ndataset.frames={side}\n"
                     f"dataset.height={side}\ndataset.width={side}\n#config-end\n"
                     "#payload 0\n".encode())
    with pytest.raises(formats.ArtifactError, match=f"videos.ds: frame shape {side}x"):
        formats.read_dataset(path)


@pytest.mark.parametrize("split, vid, message", [
    ("train", b"0", "video id 0 appears more than once"),
    ("test", b"0", "video id 0 appears more than once"),
    ("test", b"99999999999999999999", "a '#video' field is out of range"),
], ids=["repeated_in_train", "repeated_across_splits", "out_of_range"])
def test_dataset_bad_video_id_rejected(tmp_path, split, vid, message):
    # the last video of the split takes the id; 0 is the first train video's
    spec = synth.DatasetSpec(classes=2, videos_per_class=3, frames=5, seed=4)
    path = tmp_path / "videos.ds"
    formats.write_dataset(path, spec, *synth.generate_dataset(spec))
    blob = path.read_bytes()
    start = blob.rindex(f" {split} ".encode())
    start = blob.rindex(b"#video ", 0, start) + len(b"#video ")
    end = blob.index(b" ", start)
    path.write_bytes(blob[:start] + vid + blob[end:])
    with pytest.raises(formats.ArtifactError, match=f"videos.ds: {message}"):
        formats.read_dataset(path)


def test_dataset_version_mismatch(tmp_path):
    path = tmp_path / "bad.ds"
    path.write_bytes(b"#vidseg-dataset v0\n#payload 0\n")
    with pytest.raises(formats.ArtifactError, match="version"):
        formats.read_dataset(path)


MIB = 1 << 20


def test_header_split_does_not_copy_the_file(tmp_path, traced):
    # the header reader reads a file only up to its '#payload' line, so its
    # peak follows the header, not the payload
    peaks, payloads = [], []
    for videos in (2, 8):
        spec = synth.DatasetSpec(videos_per_class=videos)
        path = tmp_path / f"videos{videos}.ds"
        formats.write_dataset(path, spec, *synth.generate_dataset(spec))
        with open(path, "rb") as handle:
            (lines, offset, declared), peak = traced(
                formats._read_header, handle, formats.DATASET_MAGIC, path)
        assert lines[0] == formats.DATASET_MAGIC and lines[-1].startswith("#video ")
        assert offset + declared == path.stat().st_size
        peaks.append(peak)
        payloads.append(declared)
    assert peaks[1] - peaks[0] < (payloads[1] - payloads[0]) // 64, (peaks, payloads)
    assert peaks[1] < payloads[1] // 4
    path = tmp_path / "first_line.ds"
    path.write_bytes(formats.DATASET_MAGIC.encode())
    with open(path, "rb") as handle, pytest.raises(
            formats.ArtifactError, match="first_line.ds: not a recognized artifact"):
        formats._read_header(handle, formats.DATASET_MAGIC, path)


@pytest.fixture(scope="module")
def default_splits():
    return synth.generate_dataset(synth.DatasetSpec())


def test_generate_dataset_allocates_little_beyond_its_frames(default_splits, traced):
    # each video is rounded into its float32 row as it is made, so no
    # float64 copy of a split is ever held; the fixture's earlier call has
    # done numpy.random's one-off imports
    (train, test), peak = traced(synth.generate_dataset, synth.DatasetSpec())
    frames = train.frames.nbytes + test.frames.nbytes
    assert frames == 4 * sum(split.frames.size for split in default_splits)
    assert peak < frames + MIB, (peak, frames)


def test_dataset_write_streams_its_payload(tmp_path, default_splits, traced):
    # one float32 video at a time, never the whole payload
    _, peak = traced(formats.write_dataset, tmp_path / "videos.ds", synth.DatasetSpec(),
                     *default_splits)
    assert peak < MIB, peak


def test_dataset_read_allocates_little_beyond_its_frames(tmp_path, default_splits, traced):
    path = tmp_path / "videos.ds"
    formats.write_dataset(path, synth.DatasetSpec(), *default_splits)
    (_, train, test), peak = traced(formats.read_dataset, path)
    frames = train.frames.nbytes + test.frames.nbytes
    assert frames == 4 * sum(split.frames.size for split in default_splits)
    assert peak < frames + MIB, (peak, frames)


def test_checkpoint_read_widens_one_entry_at_a_time(tmp_path, traced):
    cfg = trainer.TrainConfig(dataset=synth.DatasetSpec())
    state = trainer.init_state(cfg)
    rows = np.random.default_rng(0).normal(size=(cfg.bank_capacity, cfg.embed_dim))
    for bank in (state.bank_inter, state.bank_segment):
        bank.enqueue(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    path = tmp_path / "model.ckpt"
    formats.write_checkpoint(path, formats.flatten_config(cfg), state.query, state.key,
                             {"inter": state.bank_inter, "segment": state.bank_segment},
                             {"seed": 0, "epoch": 0, "step": 0})
    ckpt, peak = traced(formats.read_checkpoint, path)
    arrays = [*ckpt.query.values(), *ckpt.key.values(),
              *(bank.storage for bank in ckpt.banks.values())]
    returned = sum(arr.nbytes for arr in arrays)
    largest = max(arr.nbytes for arr in arrays)
    # the slack covers the parsed header and the (capacity,) row norms of a
    # bank, which take about 0.12 MiB at the defaults
    assert peak < returned + largest + MIB // 4, (peak, returned, largest)


def test_csv_formatting(tmp_path):
    path = tmp_path / "m.csv"
    formats.write_csv(path, ("a", "b"), [[1, 0.123456789], [2, 3.0]])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.123457"  # six significant digits
    assert lines[2] == "2,3"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.bin"
    formats.atomic_write_bytes(path, b"payload")
    assert path.read_bytes() == b"payload"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("reader, magic", [
    (formats.read_checkpoint, formats.CHECKPOINT_MAGIC),
    (formats.read_dataset, formats.DATASET_MAGIC),
], ids=["checkpoint", "dataset"])
@pytest.mark.parametrize("tail", [b"", b"#config-begin\n#config-end\n", b"#payload 0"],
                         ids=["no_header", "no_payload_line", "unterminated_payload_line"])
def test_missing_payload_line_rejected(tmp_path, reader, magic, tail):
    path = tmp_path / "broken.bin"
    path.write_bytes(magic.encode() + b"\n" + tail)
    with pytest.raises(formats.ArtifactError, match="broken.bin.*#payload"):
        reader(path)


@pytest.mark.parametrize("artifact", ["checkpoint", "dataset"])
@pytest.mark.parametrize("change", [1, -1], ids=["extra_byte", "missing_byte"])
def test_payload_length_must_match_the_file(tmp_path, artifact, change):
    path = dict(zip(["checkpoint", "dataset"], written_artifacts(tmp_path)))[artifact]
    blob = path.read_bytes()
    declared = len(blob) - blob.index(b"\n", blob.index(b"#payload ")) - 1
    path.write_bytes(blob + b"\0" if change > 0 else blob[:-1])
    with pytest.raises(formats.ArtifactError, match=f"{path.name}: payload is "
                                                    f"{declared + change} bytes, header "
                                                    f"declares {declared}$"):
        read(path)


def test_dataset_unknown_split_rejected(tmp_path):
    spec = synth.DatasetSpec(classes=2, videos_per_class=3, frames=5, seed=4)
    path = tmp_path / "videos.ds"
    formats.write_dataset(path, spec, *synth.generate_dataset(spec))
    blob = path.read_bytes()
    first = blob.index(b" train ")
    path.write_bytes(blob[:first] + b" valid " + blob[first + len(b" train "):])
    with pytest.raises(formats.ArtifactError, match="videos.ds.*split 'valid'"):
        formats.read_dataset(path)


def written_artifacts(tmp_path):
    """A small valid checkpoint and dataset file."""
    cfg, state = small_state()
    checkpoint = tmp_path / "model.ckpt"
    formats.write_checkpoint(checkpoint, formats.flatten_config(cfg),
                             state.query, state.key,
                             {"inter": state.bank_inter, "segment": state.bank_segment},
                             {"seed": 0, "epoch": 0, "step": 0})
    dataset = tmp_path / "videos.ds"
    formats.write_dataset(dataset, cfg.dataset, *synth.generate_dataset(cfg.dataset))
    return checkpoint, dataset


def rewrite_header_line(path, prefix, edit):
    """Replace the first header line starting with prefix by edit(line)."""
    blob = path.read_bytes()
    start = blob.index(b"\n" + prefix) + 1
    end = blob.index(b"\n", start)
    path.write_bytes(blob[:start] + edit(blob[start:end]) + blob[end:])


def read(path):
    return (formats.read_checkpoint if path.suffix == ".ckpt" else formats.read_dataset)(path)


@pytest.mark.parametrize("edit", [lambda line: line.rsplit(b" ", 1)[0],
                                  lambda line: line + b" 7"], ids=["too_few", "too_many"])
def test_video_line_field_count_rejected(tmp_path, edit):
    _, dataset = written_artifacts(tmp_path)
    rewrite_header_line(dataset, b"#video ", edit)
    with pytest.raises(formats.ArtifactError, match="videos.ds.*expected 6 fields"):
        formats.read_dataset(dataset)


@pytest.mark.parametrize("artifact, prefix, edit", [
    ("dataset", b"#video ", lambda line: line.replace(b" train ", b" train x", 1)[:-1]),
    ("dataset", b"#payload ", lambda line: line + b".0"),
    ("checkpoint", b"#param ", lambda line: line + b".5"),
    ("checkpoint", b"#param ", lambda line: line.replace(b"x", b"xq", 1)),
    ("checkpoint", b"#bank ", lambda line: line.replace(b" 8 ", b" eight ", 1)),
    ("checkpoint", b"#rng ", lambda line: line.replace(b"step=0", b"step=zero")),
], ids=["video_id", "payload_length", "param_offset", "param_shape", "bank_capacity", "rng"])
def test_non_integer_field_rejected(tmp_path, artifact, prefix, edit):
    checkpoint, dataset = written_artifacts(tmp_path)
    path = checkpoint if artifact == "checkpoint" else dataset
    rewrite_header_line(path, prefix, edit)
    with pytest.raises(formats.ArtifactError, match=f"{path.name}.*non-integer field"):
        read(path)


@pytest.mark.parametrize("edit, message", [
    (lambda line: line.replace(b"seed=0", b"seed=1 seed=2"),
     "expected seed=, epoch=, step= once each in '#rng seed=1 seed=2 epoch=0 step=0'"),
    (lambda line: line.replace(b" step=0", b""),
     "expected seed=, epoch=, step= once each in '#rng seed=0 epoch=0'"),
    (lambda line: line + b" color=7",
     "expected seed=, epoch=, step= once each in '#rng seed=0 epoch=0 step=0 color=7'"),
    (lambda line: line + b"\n#rng seed=5 epoch=1 step=2",
     "a second '#rng' line '#rng seed=5 epoch=1 step=2'"),
    (lambda line: b"", "no '#rng' line"),
], ids=["repeated_counter", "missing_counter", "unknown_counter", "second_line", "no_line"])
def test_checkpoint_rng_line_must_hold_each_counter_once(tmp_path, edit, message):
    checkpoint, _ = written_artifacts(tmp_path)
    rewrite_header_line(checkpoint, b"#rng ", edit)
    with pytest.raises(formats.ArtifactError, match=f"model.ckpt: {re.escape(message)}$"):
        formats.read_checkpoint(checkpoint)


def past_payload(line, index, value):
    fields = line.split()
    fields[index] = value
    return b" ".join(fields)


@pytest.mark.parametrize("prefix, edit", [
    (b"#param ", lambda line: past_payload(line, 3, b"999999")),
    (b"#param ", lambda line: past_payload(line, 3, b"-4")),
    (b"#param ", lambda line: past_payload(line, 2, b"64x64x64")),
    (b"#bank ", lambda line: past_payload(line, 6, b"999999")),
    (b"#bank ", lambda line: past_payload(line, 2, b"100000")),
], ids=["param_offset", "negative_offset", "param_shape", "bank_offset", "bank_shape"])
def test_offset_or_shape_past_payload_rejected(tmp_path, prefix, edit):
    checkpoint, _ = written_artifacts(tmp_path)
    rewrite_header_line(checkpoint, prefix, edit)
    with pytest.raises(formats.ArtifactError, match="model.ckpt.*runs past the .*-byte payload"):
        formats.read_checkpoint(checkpoint)


@pytest.mark.parametrize("prefix, drop, message", [
    (b"#param query.encoder.fc1.bias ", False,
     r"'#param query.encoder.fc1.bias \S+ 0' starts at byte 0, not \d+"),
    (b"#bank inter ", True, r"'#bank segment [^']*' starts at byte (\d+), not (?!\1)\d+"),
    (b"#bank segment ", True, r"'#bank inter [^']*' ends at byte (\d+), not (?!\1)\d+"),
], ids=["overlap", "gap", "short_of_the_end"])
def test_checkpoint_entries_must_tile_the_payload(tmp_path, prefix, drop, message):
    """A bias read from offset 0 would silently alias the first weights; a
    dropped bank line leaves bytes no entry reads."""
    checkpoint, _ = written_artifacts(tmp_path)
    if drop:
        blob = checkpoint.read_bytes()
        start = blob.index(b"\n" + prefix) + 1
        checkpoint.write_bytes(blob[:start] + blob[blob.index(b"\n", start) + 1:])
    else:
        rewrite_header_line(checkpoint, prefix, lambda line: past_payload(line, 3, b"0"))
    with pytest.raises(formats.ArtifactError,
                       match=f"model.ckpt: entries do not tile the payload: {message}$"):
        formats.read_checkpoint(checkpoint)


@pytest.mark.parametrize("artifact", ["checkpoint", "dataset"])
def test_non_utf8_header_byte_rejected(tmp_path, artifact):
    checkpoint, dataset = written_artifacts(tmp_path)
    path = checkpoint if artifact == "checkpoint" else dataset
    rewrite_header_line(path, b"#config-end", lambda line: line + b"\xff")
    with pytest.raises(formats.ArtifactError, match=f"{path.name}.*not UTF-8"):
        read(path)


def test_bank_cursor_or_fill_outside_bank_rejected(tmp_path):
    checkpoint, _ = written_artifacts(tmp_path)
    rewrite_header_line(checkpoint, b"#bank ", lambda line: past_payload(line, 5, b"9"))
    with pytest.raises(formats.ArtifactError, match="model.ckpt.*outside the bank"):
        formats.read_checkpoint(checkpoint)


@pytest.mark.parametrize("prefix, cursor, message", [
    (b"#bank inter ", b"6", "cursor 6 is not the fill 3 of a bank that is not full"),
    (b"#bank segment ", b"4", "cursor 4 is not the fill 0 of a bank that is not full"),
], ids=["partly_filled", "empty"])
def test_bank_cursor_must_be_its_fill_until_full(tmp_path, prefix, cursor, message):
    """Rows between the fill and a cursor past it were never written, so the
    bank would hand out zero rows as negatives."""
    checkpoint, _ = written_artifacts(tmp_path)
    rewrite_header_line(checkpoint, prefix, lambda line: past_payload(line, 4, cursor))
    with pytest.raises(formats.ArtifactError, match=f"model.ckpt: {message} in '#bank "):
        formats.read_checkpoint(checkpoint)


def test_bank_without_rows_or_width_rejected(tmp_path):
    checkpoint, _ = written_artifacts(tmp_path)
    rewrite_header_line(checkpoint, b"#bank inter ", lambda line: past_payload(line, 3, b"0"))
    with pytest.raises(formats.ArtifactError,
                       match="model.ckpt: bank capacity and width must be positive"):
        formats.read_checkpoint(checkpoint)


@pytest.mark.parametrize("prefix, index", [(b"#param query.encoder.fc1.bias ", 3),
                                           (b"#bank inter ", 6)], ids=["param", "bank"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_payload_rejected(tmp_path, prefix, index, value):
    checkpoint, _ = written_artifacts(tmp_path)
    blob = checkpoint.read_bytes()
    line = blob[blob.index(b"\n" + prefix) + 1:].split(b"\n", 1)[0]
    at = blob.index(b"\n", blob.index(b"#payload ")) + 1 + int(line.split()[index])
    checkpoint.write_bytes(blob[:at] + np.float32(value).tobytes() + blob[at + 4:])
    with pytest.raises(formats.ArtifactError, match="model.ckpt: non-finite values"):
        formats.read_checkpoint(checkpoint)


@pytest.mark.parametrize("prefix, old, new, message", [
    (b"#param query.encoder.fc1.weight ", b"query.", b"qeury.",
     "parameter side 'qeury' is neither query nor key"),
    (b"#param query.encoder.fc1.bias ", b".bias", b".weight",
     "parameter 'query.encoder.fc1.weight' appears twice"),
    (b"#param key.encoder.fc1.weight ", b"fc1", b"fc9",
     r"query and key parameter names differ: \['encoder.fc1.weight', 'encoder.fc9.weight'\]"),
    (b"#bank segment ", b"segment", b"inter", "bank 'inter' appears twice"),
], ids=["unknown_side", "duplicate_name", "side_names_differ", "duplicate_bank"])
def test_checkpoint_param_sides_rejected(tmp_path, prefix, old, new, message):
    checkpoint, _ = written_artifacts(tmp_path)
    rewrite_header_line(checkpoint, prefix, lambda line: line.replace(old, new, 1))
    with pytest.raises(formats.ArtifactError, match=f"model.ckpt.*{message}"):
        formats.read_checkpoint(checkpoint)


@pytest.mark.parametrize("artifact", ["checkpoint", "dataset"])
def test_repeated_config_echo_key_rejected(tmp_path, artifact):
    path = dict(zip(["checkpoint", "dataset"], written_artifacts(tmp_path)))[artifact]
    blob = path.read_bytes()
    first = blob.index(b"#config-begin\n") + len(b"#config-begin\n")
    second = blob.index(b"\n", first) + 1
    key = blob[first:blob.index(b"=", first)]
    path.write_bytes(blob[:second] + key + blob[blob.index(b"=", second):])
    with pytest.raises(formats.ArtifactError,
                       match=f"{path.name}: config key '{key.decode()}' appears twice"):
        read(path)


@pytest.mark.parametrize("artifact", ["checkpoint", "dataset"])
@pytest.mark.parametrize("edit, message", [
    (lambda blob: blob.replace(b"#payload ", b"hello world\n#payload ", 1),
     "unknown header line 'hello world'"),
    (lambda blob: re.sub(rb"#config-begin\n.*?#config-end\n", b"", blob, count=1, flags=re.S),
     "header line 2 is not '#config-begin'"),
    (lambda blob: blob.replace(b"#config-end\n", b"", 1),
     "no '#config-end' line closes the config echo"),
    (lambda blob: blob.replace(b"#payload ", b"#config-begin\ntrain.epochs=3\n#config-end\n"
                                             b"#payload ", 1),
     "unknown header line '#config-begin'"),
    (lambda blob: blob.replace(b"#config-begin\n", b"#config-begin\nhello\n", 1),
     "config echo line 'hello' is not key=value"),
], ids=["unknown_line", "no_config_block", "unterminated_config_block",
        "config_block_after_manifest", "echo_line_without_equals"])
def test_header_lines_outside_the_grammar_rejected(tmp_path, artifact, edit, message):
    path = dict(zip(["checkpoint", "dataset"], written_artifacts(tmp_path)))[artifact]
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(formats.ArtifactError, match=f"{path.name}: {re.escape(message)}"):
        read(path)


@pytest.mark.parametrize("old, new, message", [
    (b"train.epochs=1", b"train.epochz=1", "unknown config key 'train.epochz'"),
    (b"train.epochs=1", b"train.epochs=x", "bad value for 'train.epochs'"),
    (b"train.hidden_dim=8", b"train.hidden_dim=17",
     r"query parameters \[.*'encoder.fc1.weight'.*\] do not have the shapes"),
], ids=["unknown_key", "bad_value", "size_mismatch"])
def test_bad_checkpoint_echo_rejected(tmp_path, capsys, old, new, message):
    checkpoint, dataset = written_artifacts(tmp_path)
    rewrite_header_line(checkpoint, old, lambda line: new)
    code = cli.main(["probe", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--out", str(tmp_path / "probe.csv")])
    assert code == 1
    assert re.match(f"error: .*model.ckpt: config echo: .*{message}", capsys.readouterr().err)
    assert not (tmp_path / "probe.csv").exists()


@pytest.mark.parametrize("change, message", [
    ({"height": 12}, "dataset.height=12 vs 16"),
    ({"seed": 99}, "dataset.seed=99 vs 9"),
], ids=["height", "seed"])
def test_dataset_spec_must_match_checkpoint_echo(tmp_path, capsys, change, message):
    checkpoint, _ = written_artifacts(tmp_path)
    cfg, _ = small_state()
    spec = dataclasses.replace(cfg.dataset, **change)
    dataset = tmp_path / "other.ds"
    formats.write_dataset(dataset, spec, *synth.generate_dataset(spec))
    code = cli.main(["probe", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--out", str(tmp_path / "probe.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert re.match(f"error: .*other.ds: spec differs from the dataset echo of .*model.ckpt: "
                    f"{message}$", err), err
    assert not (tmp_path / "probe.csv").exists()


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    """A directory holding a small valid checkpoint and dataset file."""
    directory = tmp_path_factory.mktemp("valid")
    written_artifacts(directory)
    return directory


def header_numbers(blob):
    """The header's lines grouped by kind (the first word, up to a space, dot
    or '='), each line as the spans of its numbers, or of the whole line if it
    has no digits."""
    end = blob.find(b"\n", blob.find(b"#payload ")) + 1 or len(blob)
    kinds = {}
    for line in re.finditer(rb"[^\n]*\n?", blob[:end]):
        if line.group():
            spans = [(line.start() + m.start(), line.start() + m.end())
                     for m in re.finditer(rb"\d+", line.group())] or [line.span()]
            kinds.setdefault(re.split(rb"[ .=\n]", line.group())[0], []).append(spans)
    return kinds


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_edited_artifacts_fail_only_with_artifact_error(valid_dir, data):
    """Up to three edits of header numbers, then maybe a truncation. An edit
    picks a kind of line first, so the few manifest lines are edited as often
    as the long config echo; it replaces a number's first byte, deletes it, or
    replaces the whole number."""
    suffix = data.draw(st.sampled_from([".ckpt", ".ds"]))
    blob = (valid_dir / ("model.ckpt" if suffix == ".ckpt" else "videos.ds")).read_bytes()
    for _ in range(data.draw(st.integers(1, 3))):
        kinds = header_numbers(blob)
        if not kinds:
            break
        lines = kinds[data.draw(st.sampled_from(sorted(kinds)))]
        start, stop = data.draw(st.sampled_from(data.draw(st.sampled_from(lines))))
        edit = data.draw(st.sampled_from(["number", "byte", "delete"]))
        if edit == "number":
            new = data.draw(st.sampled_from([b"0", b"-1", b"4294967297"]))
        else:
            stop = start + 1
            new = b"" if edit == "delete" else bytes(
                [data.draw(st.one_of(st.sampled_from(b"-x. \n"), st.integers(0, 255)))])
        blob = blob[:start] + new + blob[stop:]
    if data.draw(st.booleans()):
        blob = blob[:data.draw(st.integers(0, len(blob)))]
    path = valid_dir / f"edited{suffix}"
    path.write_bytes(blob)
    try:
        read(path)
    except formats.ArtifactError as err:
        assert str(path) in str(err)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_header_line_edits_fail_only_with_artifact_error(valid_dir, data):
    """Up to three whole-line edits of the header, '#payload' line included:
    delete a line, duplicate it, or swap it with another. An edit picks a
    kind of line first (the first word, up to a space, dot or '='), so the
    few manifest lines are edited as often as the long config echo."""
    suffix = data.draw(st.sampled_from([".ckpt", ".ds"]))
    blob = (valid_dir / ("model.ckpt" if suffix == ".ckpt" else "videos.ds")).read_bytes()
    end = blob.index(b"\n", blob.index(b"#payload ")) + 1
    lines = blob[:end].splitlines(keepends=True)
    for _ in range(data.draw(st.integers(1, 3))):
        kinds = {}
        for index, line in enumerate(lines):
            kinds.setdefault(re.split(rb"[ .=\n]", line)[0], []).append(index)
        i = data.draw(st.sampled_from(kinds[data.draw(st.sampled_from(sorted(kinds)))]))
        edit = data.draw(st.sampled_from(["delete", "duplicate", "swap"]))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
        else:
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        if not lines:
            break
    path = valid_dir / f"line_edited{suffix}"
    path.write_bytes(b"".join(lines) + blob[end:])
    try:
        read(path)
    except formats.ArtifactError as err:
        assert str(path) in str(err)
