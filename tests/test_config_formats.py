import numpy as np
import pytest

from vidseg import config as config_mod
from vidseg import formats, synth, trainer


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


def test_comments_and_blank_lines_allowed():
    flat = config_mod.parse_config_text("# a comment\n\ntrain.epochs=7\n")
    assert flat["train.epochs"] == 7


def test_render_is_canonical_and_stable():
    text = "train.epochs=3\ndataset.classes=4\n"
    flat = config_mod.parse_config_text(text)
    rendered = config_mod.render(flat)
    # idempotent: parse the rendering, render again, bytes match
    again = config_mod.render(config_mod.parse_config_text(rendered))
    assert rendered == again
    assert "dataset.classes=4" in rendered.splitlines()
    assert rendered == "".join(f"{line}\n" for line in sorted(rendered.splitlines()))


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
    flat = {**cfg.dataset.to_flat(), **cfg.to_flat()}
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
    for a, b in zip(train + test, train2 + test2):
        assert a.id == b.id and a.class_id == b.class_id
        assert a.action_window == b.action_window
        assert np.allclose(a.frames, b.frames, atol=1e-7)


def test_dataset_version_mismatch(tmp_path):
    path = tmp_path / "bad.ds"
    path.write_bytes(b"#vidseg-dataset v0\n#payload 0\n")
    with pytest.raises(formats.ArtifactError, match="version"):
        formats.read_dataset(path)


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
    formats.write_checkpoint(checkpoint, {**cfg.dataset.to_flat(), **cfg.to_flat()},
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
