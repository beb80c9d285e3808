"""The byte trail: checkpoint, metrics, gradient-report and data-path digests
that a change to the hot path must keep.

`byte_trail.json` holds, for seven 4-epoch pretraining configs (the defaults
plus the overrides of each entry), the sha256 of `checkpoint.ckpt` and
`metrics.csv`, and the sha256 of the 10-seed default `gradient_suite` report
list. It also checks the data path directly: the sha256 of the float32 train
and test frames of three dataset specs, and, for the first pretraining
config, the sha256 of its train and test feature tables and of its
`evaluate_encoder` and `order_prediction_accuracy` results. The file path
has its own digests: each dataset spec's `.ds` file, and, for the first
pretraining config, its `.ckpt` and the same feature tables and results
computed as `vidseg probe` does, from the parameters `read_checkpoint`
returns on the splits `read_dataset` returns. A change that
alters the arithmetic on purpose rewrites the table in the same commit
(`PYTHONPATH=src python tests/test_byte_trail.py`, which prints the digests
that moved and those that held) and says why; any other mismatch is a
regression. The table records the numpy and BLAS build it was made with,
since another build may round differently.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vidseg import evaluate, formats, synth, trainer
from vidseg import config as config_mod

TABLE = Path(__file__).resolve().parent / "byte_trail.json"
TRAIL = json.loads(TABLE.read_text())
BASE = ["train.epochs=4"]


def build():
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def train_config(overrides):
    return config_mod.build_train_config(
        config_mod.parse_config_text("\n".join(BASE + overrides)))


def dataset_of(cfg, datasets):
    """The run's splits, each distinct dataset generated once per datasets dict."""
    if cfg.dataset not in datasets:
        datasets[cfg.dataset] = synth.generate_dataset(cfg.dataset)
    return datasets[cfg.dataset]


def pretrain_digests(cfg, out_dir, datasets):
    """sha256 of the run's checkpoint and metrics."""
    trainer.pretrain(cfg, out_dir, dataset=dataset_of(cfg, datasets))
    return {name: file_digest(Path(out_dir) / name) for name in ("checkpoint.ckpt", "metrics.csv")}


def frames_digests(cfg):
    """sha256 of the float32 frames of the spec's train and test splits."""
    train, test = synth.generate_dataset(cfg.dataset)
    return {"train": hashlib.sha256(train.frames.tobytes()).hexdigest(),
            "test": hashlib.sha256(test.frames.tobytes()).hexdigest()}


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dataset_file_digest(cfg, out_dir):
    """sha256 of the spec's dataset file."""
    path = Path(out_dir) / "videos.ds"
    formats.write_dataset(path, cfg.dataset, *synth.generate_dataset(cfg.dataset))
    return {"videos.ds": file_digest(path)}


def encoder_digests(query, key, train, test, cfg):
    """sha256 of the feature tables at the default probe frame count, and of
    the repr of the probe accuracy, recalls and order accuracy."""
    probe_cfg, retrieval_cfg = evaluate.ProbeConfig(), evaluate.RetrievalConfig()
    tables = evaluate.feature_tables(query, train, test, probe_cfg.frames)
    results = (evaluate.evaluate_encoder(query, key, train, test, probe_cfg, retrieval_cfg),
               evaluate.order_prediction_accuracy(query, key, test, cfg))
    features = b"".join(table.features.tobytes() for table in tables)
    return {"features": hashlib.sha256(features).hexdigest(),
            "results": hashlib.sha256(repr(results).encode()).hexdigest()}


def evaluation_digests(cfg, datasets):
    """encoder_digests of the run's trained parameters on its generated splits."""
    state, train, test = trainer.fit(cfg, dataset=dataset_of(cfg, datasets))
    return encoder_digests(state.query, state.key, train, test, cfg)


def file_evaluation_digests(cfg, out_dir, datasets):
    """sha256 of the run's checkpoint, and encoder_digests of the parameters
    read back from it on the splits read back from its dataset file."""
    out_dir = Path(out_dir)
    generated = dataset_of(cfg, datasets)
    checkpoint, _, _ = trainer.pretrain(cfg, out_dir, dataset=generated)
    formats.write_dataset(out_dir / "videos.ds", cfg.dataset, *generated)
    ckpt = formats.read_checkpoint(checkpoint)
    _, train, test = formats.read_dataset(out_dir / "videos.ds")
    return {"checkpoint.ckpt": file_digest(checkpoint),
            **encoder_digests(ckpt.query, ckpt.key, train, test, cfg)}


def suite_digest():
    rows = [(loss, seed, repr(report.max_rel_error), report.checked, report.resampled,
             report.per_input_max)
            for loss, seed, report in trainer.gradient_suite(train_config([]))]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def digests(trail):
    """Every digest of a table by a dotted name: the section, then the entry
    name for the listed configs, then the file or field."""
    found = {}
    for section, value in trail.items():
        if section == "made_with":
            continue
        if isinstance(value, str):
            found[section] = value
            continue
        for entry in value if isinstance(value, list) else [value]:
            prefix = f"{section}.{entry['name']}" if "name" in entry else section
            found.update((f"{prefix}.{field}", digest) for field, digest in entry.items()
                         if field not in ("name", "overrides"))
    return found


def moved_and_held(before, after):
    """The names of the digests that differ between two tables, and of those
    that do not."""
    old, new = digests(before), digests(after)
    moved = [name for name in new if old.get(name) != new[name]]
    return moved, [name for name in new if old.get(name) == new[name]]


def mismatch(what, got, want):
    return (f"{what}: sha256 {got} != {want} in {TABLE.name}; table made with "
            f"{TRAIL['made_with']}, this run {build()}")


@pytest.fixture(scope="module")
def datasets():
    return {}


@pytest.mark.parametrize("entry", TRAIL["pretrain"], ids=lambda entry: entry["name"])
def test_pretrain_bytes_match_the_table(entry, datasets, tmp_path):
    got = pretrain_digests(train_config(entry["overrides"]), tmp_path, datasets)
    for file, digest in got.items():
        assert digest == entry[file], mismatch(
            f"{entry['name']} {entry['overrides']} {file}", digest, entry[file])


def test_gradient_suite_reports_match_the_table():
    got = suite_digest()
    assert got == TRAIL["gradient_suite"], mismatch("10-seed default gradient_suite", got,
                                                    TRAIL["gradient_suite"])


@pytest.mark.parametrize("entry", TRAIL["data"], ids=lambda entry: entry["name"])
def test_generated_frames_match_the_table(entry):
    got = frames_digests(train_config(entry["overrides"]))
    for split, digest in got.items():
        assert digest == entry[split], mismatch(
            f"{entry['name']} {entry['overrides']} {split} frames", digest, entry[split])


@pytest.mark.parametrize("entry", TRAIL["data"], ids=lambda entry: entry["name"])
def test_dataset_files_match_the_table(entry, tmp_path):
    got = dataset_file_digest(train_config(entry["overrides"]), tmp_path)["videos.ds"]
    assert got == entry["videos.ds"], mismatch(
        f"{entry['name']} {entry['overrides']} videos.ds", got, entry["videos.ds"])


def test_evaluation_matches_the_table(datasets):
    entry = TRAIL["evaluation"]
    got = evaluation_digests(train_config(TRAIL["pretrain"][0]["overrides"]), datasets)
    for what, digest in got.items():
        assert digest == entry[what], mismatch(
            f"{TRAIL['pretrain'][0]['name']} evaluation {what}", digest, entry[what])


def test_file_evaluation_matches_the_table(datasets, tmp_path):
    entry = TRAIL["file_evaluation"]
    got = file_evaluation_digests(train_config(TRAIL["pretrain"][0]["overrides"]), tmp_path,
                                  datasets)
    for what, digest in got.items():
        assert digest == entry[what], mismatch(
            f"{TRAIL['pretrain'][0]['name']} file evaluation {what}", digest, entry[what])


def test_digest_names_cover_the_table():
    names = digests(TRAIL)
    assert sorted(names.values()) == sorted(re.findall(r'"([0-9a-f]{64})"', TABLE.read_text()))
    assert "pretrain.inter_only.metrics.csv" in names and "evaluation.features" in names
    edited = json.loads(TABLE.read_text())
    edited["data"][1]["test"] = "0" * 64
    moved, held = moved_and_held(TRAIL, edited)
    assert moved == [f"data.{TRAIL['data'][1]['name']}.test"]
    assert len(held) == len(names) - 1


if __name__ == "__main__":
    # rewrite the digests of the table's configs from this tree, then name
    # the digests that moved and those that held
    import copy
    import tempfile

    before = copy.deepcopy(TRAIL)
    found = {}
    for entry in TRAIL["pretrain"]:
        with tempfile.TemporaryDirectory() as out_dir:
            entry.update(pretrain_digests(train_config(entry["overrides"]), out_dir, found))
    for entry in TRAIL["data"]:
        with tempfile.TemporaryDirectory() as out_dir:
            entry.update(frames_digests(train_config(entry["overrides"])),
                         **dataset_file_digest(train_config(entry["overrides"]), out_dir))
    first = train_config(TRAIL["pretrain"][0]["overrides"])
    with tempfile.TemporaryDirectory() as out_dir:
        file_evaluation = file_evaluation_digests(first, out_dir, found)
    TRAIL.update(made_with=build(), gradient_suite=suite_digest(),
                 evaluation=evaluation_digests(first, found), file_evaluation=file_evaluation)
    TABLE.write_text(json.dumps(TRAIL, indent=2) + "\n")
    moved, held = moved_and_held(before, TRAIL)
    print(f"moved ({len(moved)}): {', '.join(moved) or 'none'}")
    print(f"held ({len(held)}): {', '.join(held) or 'none'}")
