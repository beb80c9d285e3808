"""The byte trail: checkpoint, metrics and gradient-report digests that a
change to the hot path must keep.

`byte_trail.json` holds, for nine 4-epoch pretraining configs (the defaults
plus the overrides of each entry), the sha256 of `checkpoint.ckpt` and
`metrics.csv`, and the sha256 of the 10-seed default `gradient_suite` report
list. A change that alters the arithmetic on purpose rewrites the table in
the same commit (`PYTHONPATH=src python tests/test_byte_trail.py`) and says
why; any other mismatch is a regression. The table records the numpy and
BLAS build it was made with, since another build may round differently.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vidseg import synth, trainer
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


def pretrain_digests(cfg, out_dir, datasets):
    """sha256 of the run's checkpoint and metrics, each distinct dataset
    generated once per datasets dict."""
    if cfg.dataset not in datasets:
        datasets[cfg.dataset] = synth.generate_dataset(cfg.dataset)
    trainer.pretrain(cfg, out_dir, dataset=datasets[cfg.dataset])
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
            for name in ("checkpoint.ckpt", "metrics.csv")}


def suite_digest():
    rows = [(loss, seed, repr(report.max_rel_error), report.checked, report.resampled,
             report.per_input_max)
            for loss, seed, report in trainer.gradient_suite(train_config([]))]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


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


if __name__ == "__main__":
    # rewrite the digests of the table's configs from this tree
    import tempfile

    found = {}
    for entry in TRAIL["pretrain"]:
        with tempfile.TemporaryDirectory() as out_dir:
            entry.update(pretrain_digests(train_config(entry["overrides"]), out_dir, found))
    TRAIL.update(made_with=build(), gradient_suite=suite_digest())
    TABLE.write_text(json.dumps(TRAIL, indent=2) + "\n")
