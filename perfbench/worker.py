"""One benchmark process: set up a workload, run its iterations, check the
outputs, and print one JSON report on the last line of standard output.

Started by run.py with the BLAS thread count fixed in its environment and
``src`` of the checkout on PYTHONPATH. With ``--traced`` every public
function of the traced vidseg modules is wrapped (see tracer.py) and the
report carries per-layer numbers; without it only the step boundaries are
timed, with two clock reads per step.

An iteration is one closed-loop unit of work. Iterations run back to back
until ``--min-iterations`` are done and the next one would, at the median
iteration time so far, end after ``--seconds``:

- pretrain workloads: pretrain (checkpoint and metrics CSV written), then
  checkpoint read, feature extraction, linear probe and retrieval, as
  ``vidseg pretrain``, ``vidseg probe`` and ``vidseg retrieve`` do;
- gradcheck: ``trainer.gradient_suite`` at 10 seeds, as ``vidseg gradcheck``
  and acceptance criterion 1 do.

Every iteration of one process uses the same seed, so later iterations must
reproduce the first one's checkpoint bytes or gradient reports exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import CALLS, INCL, NUMERICS_DRIVERS, SELF, UNITS, Tracer

CLOCK = time.perf_counter
BLAS_THREADS = 1
GRAD_TOL = 1e-4
# pretraining epochs per iteration at the default scale: 5 steps per epoch,
# so 50 steps per iteration
PRETRAIN_EPOCHS = 10

WORKLOADS = {
    "pretrain_full": ("pretrain", []),
    "pretrain_inter_only": ("pretrain", ["train.loss_intra=false", "train.loss_segment=false",
                                         "train.loss_order=false"]),
    "gradcheck": ("gradcheck", []),
}

SCALES = {
    "default": [f"train.epochs={PRETRAIN_EPOCHS}"],
    # the model and training sizes of acceptance criterion 11, for the
    # self-test; 25 videos per class leave the probe 5 test videos per class
    "small": ["dataset.classes=4", "dataset.videos_per_class=25", "dataset.frames=16",
              "train.epochs=4", "train.batch_size=8", "train.bank_capacity=256",
              "train.hidden_dim=32", "train.feature_dim=16", "train.embed_dim=8"],
}


def config_text(workload, seed, scale):
    """The run config a user would write for this workload and seed.

    The seed is folded into seven digits so that the config echo, and with it
    the checkpoint and dataset sizes, does not depend on the seed.
    """
    value = 1_000_000 + seed % 1_000_000
    lines = [f"dataset.seed={value}", f"train.seed={value}"]
    return "\n".join(lines + SCALES[scale] + WORKLOADS[workload][1]) + "\n"


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_runtime_threads(),
    }


# ---------------------------------------------------------------------------
# step clock: the only instrumentation of an untraced process
# ---------------------------------------------------------------------------


class StepClock:
    """Wall time of every step, and the loss of every training step.

    A training step is batch assembly plus ``train_step``; a gradient-check
    step is one ``grad_check`` call (one report).
    """

    def __init__(self):
        self.step_ms = []
        self.losses = []
        self._assembly = 0.0

    def install(self, trainer, numerics):
        assemble_batch, train_step, grad_check = (trainer.assemble_batch, trainer.train_step,
                                                  numerics.grad_check)

        def timed_assemble(*args, **kwargs):
            start = CLOCK()
            batch = assemble_batch(*args, **kwargs)
            self._assembly += CLOCK() - start
            return batch

        def timed_step(*args, **kwargs):
            start = CLOCK()
            metrics = train_step(*args, **kwargs)
            self.step_ms.append((self._assembly + CLOCK() - start) * 1000.0)
            self._assembly = 0.0
            self.losses.append(metrics["loss_total"])
            return metrics

        def timed_check(*args, **kwargs):
            start = CLOCK()
            report = grad_check(*args, **kwargs)
            self.step_ms.append((CLOCK() - start) * 1000.0)
            return report

        trainer.assemble_batch = timed_assemble
        trainer.train_step = timed_step
        numerics.grad_check = timed_check

    def take(self):
        out = (self.step_ms, self.losses)
        self.step_ms, self.losses = [], []
        return out


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_pretrain(vidseg, env, out_dir):
    """One pipeline; returns (timed seconds, outputs needed by the checks)."""
    start = CLOCK()
    checkpoint_path, _, state = vidseg.trainer.pretrain(env["cfg"], out_dir,
                                                        config_flat=env["flat"],
                                                        dataset=env["generated"])
    ckpt = vidseg.formats.read_checkpoint(checkpoint_path)
    accuracy, recalls = vidseg.evaluate.evaluate_encoder(ckpt.query, ckpt.key,
                                                         *env["from_file"], env["probe_cfg"],
                                                         env["retrieval_cfg"])
    run_s = CLOCK() - start
    return run_s, {"state": state, "ckpt": ckpt, "checkpoint_path": checkpoint_path,
                   "accuracy": accuracy, "recall_at_1": recalls[min(recalls)]}


def check_pretrain(env, out, losses, checks, reference):
    state, ckpt = out["state"], out["ckpt"]
    for step, loss in enumerate(losses):
        checks.check(bool(np.isfinite(loss)), f"step {step}: loss_total {loss} is not finite")
    exact = all(
        name in saved and np.array_equal(saved[name], params[name].astype(np.float32))
        for saved, params in ((ckpt.query, state.query), (ckpt.key, state.key))
        for name in params) and len(ckpt.query) == len(state.query)
    checks.check(exact, "checkpoint parameters differ from the float32 cast of the trained ones")
    chance = 1.0 / env["cfg"].dataset.classes
    checks.check(out["accuracy"] > chance,
                 f"probe accuracy {out['accuracy']} is not above chance {chance}")
    digest = file_digest(out["checkpoint_path"])
    if reference is not None:
        checks.check(digest == reference, "rerun with the same seed changed the checkpoint")
    return digest, {"probe_accuracy": out["accuracy"], "recall_at_1": out["recall_at_1"],
                    "loss_final": state.history[-1]["loss_total"]}


def run_gradcheck(vidseg, env, _out_dir):
    start = CLOCK()
    results = vidseg.trainer.gradient_suite(env["cfg"], n_seeds=10, tol=GRAD_TOL)
    return CLOCK() - start, {"results": results}


def check_gradcheck(_env, out, _losses, checks, reference):
    worst = []
    for name, seed, report in out["results"]:
        checks.check(report.passed and report.tol == GRAD_TOL,
                     f"gradient check {name} seed {seed}: {report}")
        worst.append(report.max_rel_error)
    digest = hashlib.sha256(np.asarray(worst).tobytes()).hexdigest()
    if reference is not None:
        checks.check(digest == reference, "rerun with the same seed changed the gradient reports")
    return digest, {"max_rel_error": max(worst)}


KINDS = {"pretrain": (run_pretrain, check_pretrain),
         "gradcheck": (run_gradcheck, check_gradcheck)}


def import_vidseg():
    import vidseg
    import vidseg.cli  # noqa: F401 - imports every module, as the command does

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(vidseg.__file__).resolve().parents:
        raise SystemExit(f"error: vidseg imported from {vidseg.__file__}, not from {src}")
    return vidseg


def setup(vidseg, args, workdir):
    """Config, dataset generation, dataset write and read."""
    flat = vidseg.config.parse_config_text(config_text(args.workload, args.seed, args.scale))
    cfg = vidseg.config.build_train_config(flat)
    generated = vidseg.synth.generate_dataset(cfg.dataset)
    dataset_path = workdir / "videos.ds"
    vidseg.formats.write_dataset(dataset_path, cfg.dataset, *generated)
    _, train_file, test_file = vidseg.formats.read_dataset(dataset_path)
    return {"flat": flat, "cfg": cfg, "generated": generated,
            "from_file": (train_file, test_file), "dataset_path": dataset_path,
            "probe_cfg": vidseg.config.build_probe_config(flat),
            "retrieval_cfg": vidseg.config.build_retrieval_config(flat)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-iterations", type=int, default=1)
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started us")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    vidseg = import_vidseg()

    kind = WORKLOADS[args.workload][0]
    tracer = None
    if args.traced:
        roots = (("trainer.assemble_batch", "trainer.train_step") if kind == "pretrain"
                 else ("numerics.grad_check",))
        tracer = Tracer(roots)
        tracer.install(vidseg)
    env = setup(vidseg, args, workdir)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    report = {"setup_s": setup_s, "machine": machine_facts()}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    checks = Checks()
    threads = report["machine"]["blas_threads"]
    checks.check(threads in (None, BLAS_THREADS),
                 f"BLAS runs {threads} threads, expected {BLAS_THREADS}")
    if tracer is not None:
        report["setup_layers"] = setup_layers(tracer, env["dataset_path"])
    clock = StepClock()
    clock.install(vidseg.trainer, vidseg.numerics)
    run, check = KINDS[kind]
    iterations = []
    reference = None
    started = CLOCK()
    while len(iterations) < args.min_iterations or (
            CLOCK() - started + statistics.median(it["run_s"] for it in iterations)
            <= args.seconds):
        out_dir = workdir / f"run{len(iterations)}"
        if tracer is not None:
            tracer.begin_iteration()
        run_s, out = run(vidseg, env, out_dir)
        layers = None
        if tracer is not None:
            layers = iteration_layers(tracer, run_s, out, checks)
        step_ms, losses = clock.take()
        digest, quality = check(env, out, losses, checks, reference)
        reference = reference or digest
        samples = env["cfg"].batch_size if kind == "pretrain" else 1
        iterations.append({"run_s": run_s, "step_ms": step_ms, "samples_per_step": samples,
                           "quality": quality, "layers": layers})
    report.update(iterations=iterations, attempted=checks.attempted, failed=checks.failed,
                  messages=checks.messages,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# per-layer numbers of a traced process
# ---------------------------------------------------------------------------


def setup_layers(tracer, dataset_path):
    table = tracer.phases["setup"]

    def ms(name):
        return table[name][INCL] * 1000.0 if name in table else 0.0

    return {"formats.dataset_write_ms": ms("formats.write_dataset"),
            "formats.dataset_read_ms": ms("formats.read_dataset"),
            "formats.dataset_bytes": os.path.getsize(dataset_path),
            "synth.generate_ms": ms("synth.generate_dataset")}


def iteration_layers(tracer, run_s, out, checks):
    """Per-step and per-iteration layer numbers of the iteration just run."""
    run, step, roots_s = tracer.end_iteration()

    def field(table, name, index):
        return table[name][index] if name in table else 0

    def both(name, index):
        return field(run, name, index) + field(step, name, index)

    def step_sum(index, prefix="", names=None):
        return sum(rec[index] for name, rec in step.items()
                   if (names is None and name.startswith(prefix))
                   or (names is not None and name in names))

    steps = field(step, "trainer.train_step", CALLS) + field(step, "numerics.grad_check", CALLS)

    def per_step(value, scale=1.0):
        return value * scale / steps if steps else 0.0

    ops = {name for name in step
           if name.startswith("numerics.") and name.count(".") == 1
           and name not in NUMERICS_DRIVERS}
    augment_calls = both("sampling.augment_frame", CALLS)
    reports = [r for _, _, r in out.get("results", [])]
    checked = sum(r.checked for r in reports)
    resampled = sum(r.resampled for r in reports)
    checkpoint = out.get("checkpoint_path")
    self_total = sum(rec[SELF] for table in (run, step) for rec in table.values())
    remainder_s = run_s - roots_s
    checks.check(remainder_s >= 0 and abs(self_total + remainder_s - run_s) <= 1e-6 * run_s,
                 f"span self times {self_total:.6f}s plus untraced remainder "
                 f"{remainder_s:.6f}s do not sum to run_s {run_s:.6f}s")
    return {
        "sampling.batch_ms": per_step(field(step, "trainer.assemble_batch", INCL), 1000.0),
        "sampling.augment_calls_per_step": per_step(field(step, "sampling.augment_frame", CALLS)),
        "sampling.augment_us_per_call": (
            both("sampling.augment_frame", INCL) * 1e6 / augment_calls if augment_calls else 0.0),
        "sampling.share": both("trainer.assemble_batch", INCL) / run_s,
        "numerics.forward_ms": per_step(step_sum(SELF, names=ops), 1000.0),
        "numerics.backward_ms": per_step(field(step, "numerics.Var.backward", INCL), 1000.0),
        "numerics.backward_share": both("numerics.Var.backward", INCL) / run_s,
        "numerics.tape_nodes_per_step": tracer.last_tape_nodes,
        "numerics.ops_per_step": per_step(step_sum(CALLS, names=ops)),
        "numerics.grad_check_self_ms": both("numerics.grad_check", SELF) * 1000.0,
        "numerics.grad_check_useful_ratio": (checked / (checked + resampled)
                                             if reports else 0.0),
        "model.self_ms": per_step(step_sum(SELF, prefix="model."), 1000.0),
        "model.momentum_update_ms": per_step(field(step, "model.momentum_update", INCL), 1000.0),
        "losses.self_ms": per_step(step_sum(SELF, prefix="losses."), 1000.0),
        "trainer.step_ms": per_step(field(step, "trainer.train_step", INCL), 1000.0),
        "trainer.update_ms": per_step(field(step, "trainer.train_step", SELF), 1000.0),
        "trainer.sample_losses_calls": both("trainer.sample_losses", CALLS),
        "memory.enqueue_ms": per_step(field(step, "memory.MemoryBank.enqueue", INCL), 1000.0),
        "memory.negatives_view_ms": per_step(field(step, "memory.MemoryBank.negatives_view",
                                                   INCL), 1000.0),
        "memory.rows_enqueued_per_step": per_step(
            field(step, "memory.MemoryBank.enqueue", UNITS)),
        "memory.negative_rows_copied_per_step": per_step(
            field(step, "memory.MemoryBank.negatives_view", UNITS)),
        "evaluate.features_ms": both("evaluate.build_feature_table", INCL) * 1000.0,
        "evaluate.probe_ms": both("evaluate.linear_probe", INCL) * 1000.0,
        "evaluate.retrieval_ms": both("evaluate.retrieval_recall", INCL) * 1000.0,
        "formats.checkpoint_write_ms": both("formats.write_checkpoint", INCL) * 1000.0,
        "formats.checkpoint_read_ms": both("formats.read_checkpoint", INCL) * 1000.0,
        "formats.checkpoint_bytes": os.path.getsize(checkpoint) if checkpoint else 0,
        "trace.remainder_share": remainder_s / run_s,
    }


if __name__ == "__main__":
    sys.exit(main())
