"""Command-line interface: dataset generation, pretraining, linear probing,
retrieval, ablation sweeps, and the gradient-check suite.

Commands are non-interactive and exit 0 on success; failures print one
`error: ...` line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as config_mod
from . import evaluate, formats, model, trainer
from .evaluate import AblationEntry

BUILTIN_GRIDS = {
    # loss-toggle sweep (weak single-loss rows included where they are valid)
    "losses": [
        AblationEntry(name="inter_only", losses=("inter",)),
        AblationEntry(name="segment_only", losses=("segment",)),
        AblationEntry(name="order_only", losses=("order",)),
        AblationEntry(name="intra_inter", losses=("intra", "inter")),
        AblationEntry(name="intra_inter_order", losses=("intra", "inter", "order")),
        AblationEntry(name="intra_inter_segment", losses=("intra", "inter", "segment")),
        AblationEntry(name="full", losses=("intra", "inter", "segment", "order")),
    ],
    # segment-count sweep with the full objective
    "segments": [AblationEntry(name=f"k{k}", segments=k) for k in (1, 2, 3, 4)],
}


GRID_KEYS = ("name", "losses", "segments")


def parse_grid_spec(spec):
    """A built-in grid name, or a file of `name=<id> [losses=..] [segments=N]`
    lines. An unknown or repeated key and a name used on two lines are errors
    naming the file and line(s)."""
    if spec in BUILTIN_GRIDS:
        return BUILTIN_GRIDS[spec]
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"grid '{spec}' is neither a builtin "
                         f"({', '.join(sorted(BUILTIN_GRIDS))}) nor a file")
    entries = []
    name_lines = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for token in line.split():
            key, _, value = token.partition("=")
            if key not in GRID_KEYS:
                raise ValueError(f"{spec}:{lineno}: unknown grid key '{key}' "
                                 f"(expected {', '.join(GRID_KEYS)})")
            if key in fields:
                raise ValueError(f"{spec}:{lineno}: grid key '{key}' given twice")
            fields[key] = value
        if "name" not in fields:
            raise ValueError(f"{spec}:{lineno}: grid entry needs name=<id>")
        first = name_lines.setdefault(fields["name"], lineno)
        if first != lineno:
            raise ValueError(f"{spec}:{lineno}: grid entry name '{fields['name']}' "
                             f"repeats line {first}")
        segments = fields.get("segments")
        if segments is not None:
            try:
                segments = int(segments)
            except ValueError:
                raise ValueError(f"{spec}:{lineno}: segments must be an integer, "
                                 f"got '{segments}'") from None
        entries.append(AblationEntry(
            name=fields["name"],
            losses=tuple(fields["losses"].split(",")) if "losses" in fields else None,
            segments=segments,
        ))
    if not entries:
        raise ValueError(f"{spec}: grid file has no entries")
    return entries


def _load(config_path):
    flat = config_mod.load_config(config_path)
    return flat, config_mod.build_train_config(flat)


def cmd_gen(args):
    flat, cfg = _load(args.config)
    from .synth import generate_dataset

    train, test = generate_dataset(cfg.dataset)
    formats.write_dataset(args.out, cfg.dataset, train, test)
    print(f"wrote {len(train) + len(test)} videos "
          f"({len(train)} train / {len(test)} test) to {args.out}")
    return 0


def cmd_pretrain(args):
    flat, cfg = _load(args.config)
    checkpoint, metrics, state = trainer.pretrain(cfg, args.out_dir, config_flat=flat)
    last = state.history[-1]
    print(f"wrote {checkpoint} and {metrics} "
          f"(final loss_total={last['loss_total']:.6g})")
    return 0


def _load_checkpoint_for_eval(checkpoint_path, dataset_path):
    """The checkpoint, its typed config echo and the dataset's splits. A bad
    echo, or parameters of other shapes than the echo's model, is an
    ArtifactError naming the checkpoint; a dataset file whose spec is not
    the echo's dataset is one naming both files."""
    ckpt = formats.read_checkpoint(checkpoint_path)
    try:
        flat = config_mod.parse_flat_strings(ckpt.config_flat)
        shapes = model.param_shapes(config_mod.build_configs(flat)[0].model_config())
    except ValueError as err:
        raise formats.ArtifactError(f"{checkpoint_path}: config echo: {err}") from None
    for side, params in (("query", ckpt.query), ("key", ckpt.key)):
        found = {name: arr.shape for name, arr in params.items()}
        if found != shapes:
            wrong = sorted(name for name in found.keys() | shapes.keys()
                           if found.get(name) != shapes.get(name))
            raise formats.ArtifactError(f"{checkpoint_path}: config echo: {side} parameters "
                                        f"{wrong} do not have the shapes of its model")
    spec_flat, train, test = formats.read_dataset(dataset_path)
    try:
        spec = config_mod.parse_flat_strings(spec_flat)
    except ValueError as err:
        raise formats.ArtifactError(f"{dataset_path}: spec echo: {err}") from None
    differ = [key for key in sorted(spec) if key.startswith("dataset.") and spec[key] != flat[key]]
    if differ:
        raise formats.ArtifactError(
            f"{dataset_path}: spec differs from the dataset echo of {checkpoint_path}: "
            + ", ".join(f"{key}={formats.render_value(spec[key])} vs "
                        f"{formats.render_value(flat[key])}" for key in differ))
    return ckpt, flat, train, test


def cmd_probe(args):
    ckpt, flat, train, test = _load_checkpoint_for_eval(args.checkpoint, args.dataset)
    probe_cfg = config_mod.build_probe_config(flat)
    train_table, test_table = evaluate.feature_tables(ckpt.query, train, test,
                                                      probe_cfg.frames)
    accuracy = evaluate.linear_probe(train_table, test_table, probe_cfg)
    formats.write_csv(args.out, ("train_videos", "test_videos", "probe_accuracy"),
                      [[len(train), len(test), accuracy]])
    print(f"probe accuracy {accuracy:.6g} -> {args.out}")
    return 0


def cmd_retrieve(args):
    ckpt, flat, train, test = _load_checkpoint_for_eval(args.checkpoint, args.dataset)
    probe_cfg = config_mod.build_probe_config(flat)
    retrieval_cfg = config_mod.build_retrieval_config(flat)
    gallery, queries = evaluate.feature_tables(ckpt.query, train, test, probe_cfg.frames)
    recalls = evaluate.retrieval_recall(queries, gallery, retrieval_cfg.ks)
    formats.write_csv(args.out, ("k", "recall"),
                      [[k, recalls[k]] for k in sorted(recalls)])
    print("  ".join(f"R@{k}={recalls[k]:.6g}" for k in sorted(recalls)) + f" -> {args.out}")
    return 0


def parse_seeds(text):
    """The seeds of a comma-separated --seeds list: at least one, each a
    non-negative integer."""
    seeds = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            seed = int(token)
        except ValueError:
            raise ValueError(f"--seeds: {token!r} is not an integer") from None
        if seed < 0:
            raise ValueError(f"--seeds: seed {seed} is negative")
        seeds.append(seed)
    if not seeds:
        raise ValueError(f"--seeds: no seed in {text!r}")
    return seeds


def cmd_ablate(args):
    seeds = parse_seeds(args.seeds)
    flat, cfg = _load(args.config)
    entries = parse_grid_spec(args.grid)
    probe_cfg = config_mod.build_probe_config(flat)
    rows, summary = evaluate.run_ablation(cfg, entries, seeds, probe_cfg=probe_cfg)
    formats.write_csv(args.out, evaluate.ABLATION_COLUMNS, list(rows) + list(summary))
    for name, tag, probe_median, r1_median in summary:
        print(f"{name}: median probe={probe_median:.6g} r@1={r1_median:.6g}")
    print(f"wrote {len(rows)} run rows + {len(summary)} summaries -> {args.out}")
    return 0


def cmd_gradcheck(args):
    _, cfg = _load(args.config)
    results = trainer.gradient_suite(cfg, n_seeds=args.seeds,
                                     probes_per_param=args.probes)
    worst, passed = {}, {}
    for name, _, report in results:
        worst[name] = max(worst.get(name, 0.0), report.max_rel_error)
        passed[name] = passed.get(name, True) and report.passed
    for name in worst:
        status = "PASS" if passed[name] else "FAIL"
        print(f"{status} loss_{name}: max_rel_error={worst[name]:.3e}")
    return 0 if all(passed.values()) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vidseg",
        description="Video-level contrastive pretraining on synthetic videos.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset file")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    pre = sub.add_parser("pretrain", help="run pretraining")
    pre.add_argument("--config", required=True)
    pre.add_argument("--out-dir", required=True)
    pre.set_defaults(func=cmd_pretrain)

    probe = sub.add_parser("probe", help="linear evaluation of a checkpoint")
    probe.add_argument("--checkpoint", required=True)
    probe.add_argument("--dataset", required=True)
    probe.add_argument("--out", required=True)
    probe.set_defaults(func=cmd_probe)

    retrieve = sub.add_parser("retrieve", help="R@k retrieval table")
    retrieve.add_argument("--checkpoint", required=True)
    retrieve.add_argument("--dataset", required=True)
    retrieve.add_argument("--out", required=True)
    retrieve.set_defaults(func=cmd_retrieve)

    ablate = sub.add_parser("ablate", help="loss-toggle / segment-count sweeps")
    ablate.add_argument("--config", required=True)
    ablate.add_argument("--grid", required=True,
                        help="builtin grid name (losses, segments) or a grid file")
    ablate.add_argument("--seeds", default="0,1,2")
    ablate.add_argument("--out", required=True)
    ablate.set_defaults(func=cmd_ablate)

    grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    grad.add_argument("--config", required=True)
    grad.add_argument("--seeds", type=int, default=10)
    grad.add_argument("--probes", type=int, default=4)
    grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
