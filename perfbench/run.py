"""Benchmark of vidseg pretraining and gradient checking.

    python3 perfbench/run.py --workload pretrain_full --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each is there):

- ``pretrain_full``: generate, pretrain with all four losses at K=3, then
  read the checkpoint, probe and retrieve;
- ``pretrain_inter_only``: the same pipeline with only the inter-frame loss;
- ``gradcheck``: the 10-seed finite-difference gradient suite.

Each keeps the default per-step shapes (8x25 videos of 32 16x16 frames,
batch 32, bank 4096, widths 128/64/32); pretraining is cut to 10 epochs
(50 steps) per iteration. One caller runs iterations back to back (closed
loop) in one worker process with one BLAS thread, so at most two threads are
busy. ``--seed`` sets ``dataset.seed`` and ``train.seed``.

``--trace 0`` prints the end-to-end metrics. Set-up time is the median of
six set-up-only processes and the measured one. ``--trace 1`` runs one
untraced and one traced worker, each for half of ``--seconds``, and prints the
per-layer metrics of the traced one, with the tracing overhead as the ratio
of their iteration times.

Outputs are checked: every step loss is finite, the checkpoint holds the
float32 cast of the trained parameters, the probe beats chance, every
gradient report passes tol 1e-4, reruns in one process are bit-identical,
per-layer counts repeat exactly, and span self times add up to the traced
iteration time. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain_full", "pretrain_inter_only", "gradcheck")
SETUP_PROCESSES = 6
# a whole run must end within 180 s; each worker gets what is left of this
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MiB",
}

# printed before the result but not part of it: quality depends on the seed,
# failed_share is zero while the code is correct, and the two iteration
# times give trace.overhead_ratio
INFO_UNITS = {
    "probe_accuracy": "fraction",
    "recall_at_1": "fraction",
    "loss_final": "nats",
    "max_rel_error": "ratio",
    "failed_share": "fraction",
    "traced_run_s": "s",
    "untraced_run_s": "s",
}

PER_LAYER_UNITS = {
    "sampling.batch_ms": "ms",
    "sampling.augment_calls_per_step": "count",
    "sampling.augment_us_per_call": "us",
    "sampling.share": "fraction",
    "numerics.forward_ms": "ms",
    "numerics.backward_ms": "ms",
    "numerics.backward_share": "fraction",
    "numerics.tape_nodes_per_step": "count",
    "numerics.ops_per_step": "count",
    "numerics.grad_check_self_ms": "ms",
    "numerics.grad_check_useful_ratio": "fraction",
    "model.self_ms": "ms",
    "model.momentum_update_ms": "ms",
    "losses.self_ms": "ms",
    "trainer.step_ms": "ms",
    "trainer.update_ms": "ms",
    "trainer.sample_losses_calls": "count",
    "memory.enqueue_ms": "ms",
    "memory.negatives_view_ms": "ms",
    "memory.rows_enqueued_per_step": "count",
    "memory.negative_rows_copied_per_step": "count",
    "evaluate.features_ms": "ms",
    "evaluate.probe_ms": "ms",
    "evaluate.retrieval_ms": "ms",
    "formats.checkpoint_write_ms": "ms",
    "formats.checkpoint_read_ms": "ms",
    "formats.checkpoint_bytes": "bytes",
    "formats.dataset_write_ms": "ms",
    "formats.dataset_read_ms": "ms",
    "formats.dataset_bytes": "bytes",
    "synth.generate_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.remainder_share": "fraction",
}

# counts that must repeat exactly between iterations of the same seed
EXACT_SUFFIXES = ("_per_step", "_calls", "_bytes")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload, seed, workdir, scale, deadline, *, seconds=0.0, min_iterations=1,
          traced=False, setup_only=False):
    """Run one worker process, killed at ``deadline`` (time.monotonic()), and
    return its JSON report."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--min-iterations", str(min_iterations), "--scale", scale,
           "--workdir", str(workdir)]
    cmd += ["--traced"] * traced + ["--setup-only"] * setup_only
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} did not finish within "
                         f"{RUN_TIMEOUT_S}s of the run's start") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure_end_to_end(workload, seed, seconds, workdir, scale, deadline):
    setups = [spawn(workload, seed, workdir / f"setup{i}", scale, deadline,
                    setup_only=True)["setup_s"]
              for i in range(SETUP_PROCESSES)]
    report = spawn(workload, seed, workdir / "plain", scale, deadline, seconds=seconds,
                   min_iterations=2)
    setups.append(report["setup_s"])
    iterations = report["iterations"]
    step_ms = [ms for it in iterations for ms in it["step_ms"]]
    samples = sum(it["samples_per_step"] * len(it["step_ms"]) for it in iterations)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(it["run_s"] for it in iterations),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": statistics.quantiles(step_ms, n=10)[-1],
        "samples_per_s": samples / (sum(step_ms) / 1000.0),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    info = {name: statistics.median(it["quality"][name] for it in iterations)
            for name in iterations[0]["quality"]}
    info["failed_share"] = report["failed"] / report["attempted"]
    shape = f"{len(iterations)} iterations, {len(step_ms)} steps, {len(setups)} set-ups"
    return (metrics, END_TO_END_UNITS, info, shape, report["machine"], report["attempted"],
            report["failed"], report["messages"])


def measure_per_layer(workload, seed, seconds, workdir, scale, deadline):
    plain = spawn(workload, seed, workdir / "plain", scale, deadline, seconds=seconds / 2,
                  min_iterations=1)
    traced = spawn(workload, seed, workdir / "traced", scale, deadline, seconds=seconds / 2,
                   min_iterations=2, traced=True)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    messages = plain["messages"] + traced["messages"]
    layers = [it["layers"] for it in traced["iterations"]]
    metrics = dict(traced["setup_layers"])
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith(EXACT_SUFFIXES):
            attempted += 1
            if len(set(values)) != 1:
                failed += 1
                messages.append(f"count {name} differs between iterations: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    traced_s = statistics.median(it["run_s"] for it in traced["iterations"])
    plain_s = statistics.median(it["run_s"] for it in plain["iterations"])
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    info = {"traced_run_s": traced_s, "untraced_run_s": plain_s,
            "failed_share": failed / attempted}
    shape = (f"{len(layers)} traced and {len(plain['iterations'])} untraced iterations")
    return (metrics, PER_LAYER_UNITS, info, shape, traced["machine"], attempted, failed,
            messages)


def measure(workload, seed, seconds, trace, scale="default"):
    """Run one benchmark measurement; returns the result dict and the lines
    to print before it."""
    if not (ROOT / "src" / "vidseg" / "__init__.py").is_file():
        raise BenchError(f"no vidseg sources under {ROOT / 'src'}")
    workdir = HERE / ".work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run = measure_per_layer if trace else measure_end_to_end
        metrics, units, info, shape, machine, attempted, failed, messages = run(
            workload, seed, seconds, workdir, scale, time.monotonic() + RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    lines = ["machine: " + " ".join(f"{k}={v}" for k, v in machine.items()),
             f"workload {workload} seed {seed} trace {trace}: {shape}"]
    lines += [f"  {name:38s} {metrics[name]:>14.6g} {unit}" for name, unit in units.items()]
    lines += [f"  {name:38s} {value:>14.6g} {INFO_UNITS[name]}"
              for name, value in info.items()]
    lines += [f"check failed: {message}" for message in messages]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="vidseg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run; at least two iterations run regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
