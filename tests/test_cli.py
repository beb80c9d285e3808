import pytest

from vidseg import cli, formats

SMALL_CONFIG = """\
dataset.classes=4
dataset.videos_per_class=4
dataset.frames=10
train.epochs=2
train.batch_size=4
train.bank_capacity=32
train.hidden_dim=12
train.feature_dim=8
train.embed_dim=6
probe.frames=4
retrieval.ks=1,2
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def test_gen_then_probe_and_retrieve(tmp_path, small_config, capsys):
    dataset = tmp_path / "videos.ds"
    out_dir = tmp_path / "run"
    assert cli.main(["gen", "--config", str(small_config), "--out", str(dataset)]) == 0
    assert cli.main(["pretrain", "--config", str(small_config),
                     "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "checkpoint.ckpt").exists()
    assert (out_dir / "metrics.csv").exists()

    probe_csv = tmp_path / "probe.csv"
    assert cli.main(["probe", "--checkpoint", str(out_dir / "checkpoint.ckpt"),
                     "--dataset", str(dataset), "--out", str(probe_csv)]) == 0
    header, row = probe_csv.read_text().splitlines()
    assert header == "train_videos,test_videos,probe_accuracy"
    accuracy = float(row.split(",")[2])
    assert 0.0 <= accuracy <= 1.0

    retrieve_csv = tmp_path / "retrieve.csv"
    assert cli.main(["retrieve", "--checkpoint", str(out_dir / "checkpoint.ckpt"),
                     "--dataset", str(dataset), "--out", str(retrieve_csv)]) == 0
    lines = retrieve_csv.read_text().splitlines()
    assert lines[0] == "k,recall"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


def test_metrics_csv_shape(tmp_path, small_config):
    out_dir = tmp_path / "run"
    cli.main(["pretrain", "--config", str(small_config), "--out-dir", str(out_dir)])
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    assert lines[0].split(",") == list(__import__("vidseg.trainer", fromlist=["x"]).METRICS_COLUMNS)
    assert len(lines) == 1 + 2  # header + one row per epoch


def test_checkpoint_echo_matches_parsed_config(tmp_path, small_config):
    from vidseg import config as config_mod

    out_dir = tmp_path / "run"
    cli.main(["pretrain", "--config", str(small_config), "--out-dir", str(out_dir)])
    ckpt = formats.read_checkpoint(out_dir / "checkpoint.ckpt")
    echo = formats.render_flat(config_mod.parse_flat_strings(ckpt.config_flat))
    expected = formats.render_flat(config_mod.load_config(str(small_config)))
    assert echo == expected


def test_invalid_config_fails_with_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.epochs=0\n")
    code = cli.main(["pretrain", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
    assert code != 0
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_config_key_fails(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset.size=4\n")
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "d.ds")]) != 0
    assert "unknown config key" in capsys.readouterr().err


def test_missing_config_file_fails(tmp_path, capsys):
    assert cli.main(["gen", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "d.ds")]) != 0
    assert capsys.readouterr().err.startswith("error:")


def test_ablate_builtin_and_file_grids(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    grid = tmp_path / "grid.txt"
    grid.write_text("# two points\nname=full\nname=inter_only losses=inter\n")
    out = tmp_path / "ablate.csv"
    assert cli.main(["ablate", "--config", str(cfg), "--grid", str(grid),
                     "--seeds", "0,1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "configuration,seed,probe_accuracy,recall_at_1"
    assert len(lines) == 1 + 4 + 2  # header + 2 entries x 2 seeds + 2 medians
    assert sum(1 for line in lines if ",median," in line) == 2


def test_ablate_rejects_unknown_grid(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    assert cli.main(["ablate", "--config", str(cfg), "--grid", "nope",
                     "--out", str(tmp_path / "x.csv")]) != 0
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("seeds, message", [
    (",", "--seeds: no seed in ','"),
    ("x", "--seeds: 'x' is not an integer"),
    ("0,-1", "--seeds: seed -1 is negative"),
], ids=["empty", "non_integer", "negative"])
def test_ablate_rejects_bad_seeds(tmp_path, capsys, seeds, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    assert cli.main(["ablate", "--config", str(cfg), "--grid", "losses",
                     f"--seeds={seeds}", "--out", str(tmp_path / "x.csv")]) != 0
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_gradcheck_small_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    assert cli.main(["gradcheck", "--config", str(cfg), "--seeds", "2",
                     "--probes", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


@pytest.mark.parametrize("flag, count", [("--probes", "probes"), ("--seeds", "seeds")])
def test_gradcheck_rejects_zero_counts(tmp_path, capsys, flag, count):
    """A suite that checks no coordinate must not report PASS."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    counts = {"--seeds": "2", "--probes": "3", flag: "0"}
    assert cli.main(["gradcheck", "--config", str(cfg),
                     *(token for item in counts.items() for token in item)]) != 0
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert count in captured.err and "got 0" in captured.err


def test_builtin_grids_are_valid():
    for name, entries in cli.BUILTIN_GRIDS.items():
        assert entries
        names = [e.name for e in entries]
        assert len(set(names)) == len(names)


def test_ablate_grid_file_rejects_non_integer_segments(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    grid = tmp_path / "grid.txt"
    grid.write_text("name=full\nname=k2 segments=two\n")
    assert cli.main(["ablate", "--config", str(cfg), "--grid", str(grid),
                     "--out", str(tmp_path / "x.csv")]) != 0
    assert capsys.readouterr().err == (f"error: {grid}:2: segments must be an integer, "
                                       "got 'two'\n")
    assert not (tmp_path / "x.csv").exists()
