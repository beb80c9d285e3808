import pytest
from test_config_formats import RETIRED

from vidseg import cli, formats, trainer
from vidseg import config as config_mod
from vidseg import numerics as nm

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


def test_retired_key_in_a_config_file_fails(tmp_path, small_config, capsys):
    small_config.write_text(SMALL_CONFIG + "train.share_tuple_augment=true\n")
    line = len(SMALL_CONFIG.splitlines()) + 1
    assert cli.main(["pretrain", "--config", str(small_config),
                     "--out-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (f"error: {small_config}:{line}: unknown config key "
                                       "'train.share_tuple_augment'\n")
    assert not (tmp_path / "run").exists()


def test_probe_and_retrieve_read_echoes_with_retired_keys(tmp_path, small_config):
    """A checkpoint written before the keys were retired evaluates as one
    without them."""
    dataset, out_dir = tmp_path / "videos.ds", tmp_path / "run"
    assert cli.main(["gen", "--config", str(small_config), "--out", str(dataset)]) == 0
    assert cli.main(["pretrain", "--config", str(small_config),
                     "--out-dir", str(out_dir)]) == 0
    current = out_dir / "checkpoint.ckpt"
    ckpt = formats.read_checkpoint(current)
    older = tmp_path / "older.ckpt"
    formats.write_checkpoint(older, {**ckpt.config_flat, **dict(RETIRED)}, ckpt.query, ckpt.key,
                             ckpt.banks, ckpt.rng_meta)
    for command in ("probe", "retrieve"):
        written = []
        for checkpoint in (current, older):
            out = tmp_path / f"{command}_{checkpoint.stem}.csv"
            assert cli.main([command, "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                             "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


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


def test_gradcheck_status_comes_from_the_reports(tmp_path, capsys, monkeypatch):
    """A report under a stricter tolerance than the default fails its term."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)

    def report(error):
        return nm.GradCheckReport(per_input_max=[error], max_rel_error=error, tol=1e-6,
                                  checked=1, resampled=0)

    monkeypatch.setattr(trainer, "gradient_suite", lambda cfg, n_seeds, probes_per_param: [
        ("inter", 0, report(1e-7)), ("inter", 1, report(1e-5)), ("total", 0, report(1e-7))])
    assert cli.main(["gradcheck", "--config", str(cfg)]) == 1
    assert capsys.readouterr().out == ("FAIL loss_inter: max_rel_error=1.000e-05\n"
                                       "PASS loss_total: max_rel_error=1.000e-07\n")


@pytest.mark.parametrize("key", ["hidden_dim", "feature_dim", "embed_dim"])
def test_gradcheck_rejects_zero_sizes(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG.replace(f"train.{key}=", f"train.{key}=0\n# was "))
    assert cli.main(["gradcheck", "--config", str(cfg), "--seeds", "1"]) != 0
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err == f"error: {cfg}: train.{key} must be >= 1\n"


@pytest.mark.parametrize("text, message", [
    ("train.epochs=4\ntrain.epochs=5\n", "2: config key 'train.epochs' repeats line 1"),
    ("train.epochs=4\n\ntrain.epoch=5\n", "3: unknown config key 'train.epoch'"),
    ("train.epochs=four\n", "1: bad value for 'train.epochs': invalid literal for int() "
                            "with base 10: 'four'"),
    ("# a comment\ntrain.epochs\n", "2: expected key=value, got 'train.epochs'"),
], ids=["repeated_key", "unknown_key", "bad_value", "no_value"])
def test_config_errors_name_the_file_and_line(tmp_path, capsys, monkeypatch, text, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert cli.main(["gradcheck", "--config", str(bad)]) != 0
    assert capsys.readouterr().err == f"error: {bad}:{message}\n"
    # a file found under the search path is named by its resolved path
    monkeypatch.chdir(tmp_path.parent)
    monkeypatch.setenv(config_mod.CONFIG_PATH_ENV, str(tmp_path))
    assert cli.main(["gradcheck", "--config", "bad.cfg"]) != 0
    assert capsys.readouterr().err == f"error: {bad}:{message}\n"


@pytest.mark.parametrize("setting, message", [
    ("probe.frames=0", "probe.frames must be >= 1"),
    ("probe.iterations=0", "probe.iterations must be >= 1"),
    ("probe.learning_rate=0", "probe.learning_rate must be finite and > 0"),
    ("probe.l2_penalty=-0.5", "probe.l2_penalty must be finite and >= 0"),
    ("retrieval.ks=1,0", "retrieval.ks must list values >= 1, got [1, 0]"),
    ("dataset.classes=1", "dataset.classes must be >= 2"),
    ("dataset.height=4", "dataset.height/width must be >= 8"),
    ("dataset.videos_per_class=1", "dataset.videos_per_class must be >= 2"),
    ("train.hidden_dim=0", "train.hidden_dim must be >= 1"),
    ("dataset.seed=-1", "dataset.seed must be >= 0"),
    ("train.seed=-2", "train.seed must be >= 0"),
    # NaN fails every comparison, so these would pass a plain `x < 0` check
    ("train.learning_rate=nan", "train.learning_rate must be finite and >= 0"),
    ("train.sgd_momentum=nan", "train.sgd_momentum must be finite and >= 0"),
    ("train.weight_decay=inf", "train.weight_decay must be finite and >= 0"),
    ("train.temperature=nan", "train.temperature must be finite and > 0"),
    ("dataset.noise=nan", "dataset.noise must be finite and >= 0"),
    ("probe.learning_rate=inf", "probe.learning_rate must be finite and > 0"),
], ids=["probe_frames", "probe_iterations", "probe_learning_rate", "probe_l2_penalty",
        "retrieval_ks", "dataset_classes", "dataset_height", "dataset_videos_per_class",
        "train_hidden_dim", "dataset_seed", "train_seed", "train_learning_rate_nan",
        "train_sgd_momentum_nan", "train_weight_decay_inf", "train_temperature_nan",
        "dataset_noise_nan", "probe_learning_rate_inf"])
def test_config_values_checked_when_the_config_loads(tmp_path, capsys, monkeypatch, setting,
                                                     message):
    """A bad value in any section fails before the first fit, naming its key
    and the file, and neither generation nor pretraining writes anything."""
    fits = []
    monkeypatch.setattr(trainer, "fit", lambda *args, **kwargs: fits.append(args))
    key = setting.split("=")[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(line for line in SMALL_CONFIG.splitlines(keepends=True)
                           if not line.startswith(f"{key}=")) + setting + "\n")
    assert cli.main(["ablate", "--config", str(cfg), "--grid", "segments", "--seeds", "0",
                     "--out", str(tmp_path / "ablation.csv")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert cli.main(["pretrain", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "videos.ds")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert fits == [] and not (tmp_path / "run").exists()
    assert not (tmp_path / "videos.ds").exists()


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


@pytest.mark.parametrize("text, message", [
    ("name=full\nname=bad losses=intra\n",
     "grid entry 'bad': intra-frame loss alone does not stabilize training"),
    ("name=k0 segments=0\n", "grid entry 'k0': train.segments must be >= 1"),
    ("name=typo losses=inter,intar\n", "grid entry 'typo': unknown losses ['intar']"),
], ids=["intra_alone", "zero_segments", "unknown_loss"])
def test_ablate_errors_name_the_grid_entry(tmp_path, capsys, monkeypatch, text, message):
    """A grid entry that fails validation is named, and no entry trains."""
    fits = []
    monkeypatch.setattr(trainer, "fit", lambda *args, **kwargs: fits.append(args))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    assert cli.main(["ablate", "--config", str(cfg), "--grid", str(grid),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert fits == [] and not (tmp_path / "x.csv").exists()


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


@pytest.mark.parametrize("text, message", [
    ("name=full\nname=k2 segmnets=2\n",
     "2: unknown grid key 'segmnets' (expected name, losses, segments)"),
    ("name=inter_only loss=inter\n",
     "1: unknown grid key 'loss' (expected name, losses, segments)"),
    ("name=k2 segments=2 segments=3\n", "1: grid key 'segments' given twice"),
    ("name=full\n# a comment\n\nname=k2\nname=full losses=inter\n",
     "5: grid entry name 'full' repeats line 1"),
], ids=["misspelt_key", "singular_key", "repeated_key", "repeated_name"])
def test_ablate_grid_file_rejects_unknown_and_repeated_entries(tmp_path, capsys, text, message):
    # a misspelt key would run the entry at the default, and a repeated name
    # would pool two configs' seeds into one median row
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    assert cli.main(["ablate", "--config", str(cfg), "--grid", str(grid),
                     "--out", str(tmp_path / "x.csv")]) != 0
    assert capsys.readouterr().err == f"error: {grid}:{message}\n"
    assert not (tmp_path / "x.csv").exists()
