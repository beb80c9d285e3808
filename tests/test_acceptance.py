"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The trend criteria share one set of pretraining runs (3 seeds x {full,
inter-only, K=1} at the default configuration), prepared once per module.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import time
from dataclasses import replace
from statistics import median

import numpy as np
import pytest

from vidseg import evaluate, losses, model, sampling, synth, trainer
from vidseg.evaluate import ProbeConfig, RetrievalConfig
from vidseg.memory import MemoryBank


def report(number, description, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description} ({detail})"
    print(line, flush=True)
    assert ok, line


def default_config(seed=0):
    return trainer.TrainConfig(dataset=synth.DatasetSpec(), seed=seed)


@pytest.fixture(scope="module")
def trend_runs():
    """The nine default-scale pretraining runs shared by criteria 7-10."""
    t0 = time.time()
    seeds = (0, 1, 2)
    arms = {
        "full": default_config(),
        "inter_only": replace(default_config(), use_intra=False, use_segment=False,
                              use_order=False),
        "k1": replace(default_config(), segments=1),
    }
    probe_cfg = ProbeConfig()
    retrieval_cfg = RetrievalConfig(ks=(1, 5, 10))
    results = {name: {} for name in arms}
    full_states = {}
    datasets = {}
    for name, arm_cfg in arms.items():
        for seed in seeds:
            cfg = replace(arm_cfg, seed=seed)
            state, train_videos, test_videos = trainer.fit(cfg)
            accuracy, recalls = evaluate.evaluate_encoder(
                state.query, state.key, train_videos, test_videos,
                probe_cfg, retrieval_cfg)
            results[name][seed] = (accuracy, recalls)
            if name == "full":
                full_states[seed] = state
                datasets[seed] = (train_videos, test_videos)
    return {
        "results": results,
        "full_states": full_states,
        "datasets": datasets,
        "seeds": seeds,
        "elapsed": time.time() - t0,
    }


def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    reports = trainer.gradient_suite(default_config(), n_seeds=10, probes_per_param=4,
                                     step=1e-5, tol=1e-4)
    elapsed = time.time() - t0
    worst = max(r.max_rel_error for _, _, r in reports)
    ok = all(r.passed for _, _, r in reports) and elapsed < 60.0
    report(1, "loss gradients match finite differences",
           ok, f"max rel error {worst:.2e} over 10 seeds, {elapsed:.1f}s")


def test_criterion_2_info_nce_oracle():
    def oracle(q, p, negatives, tau):
        sims = np.concatenate([[q @ p], negatives @ q]) / tau
        shifted = sims - sims.max()
        return -np.log(np.exp(shifted[0]) / np.exp(shifted).sum())

    rng = np.random.default_rng(2024)
    taus = (0.05, 0.07, 0.2, 1.0)
    worst = 0.0
    for i in range(1000):
        d = int(rng.integers(4, 33))
        m = int(rng.integers(0, 65))
        q = rng.normal(size=d)
        q /= np.linalg.norm(q)
        p = rng.normal(size=d)
        p /= np.linalg.norm(p)
        negs = rng.normal(size=(m, d))
        if m:
            negs /= np.linalg.norm(negs, axis=1, keepdims=True)
        tau = taus[i % 4]
        mine = float(losses.info_nce(q[None], p[None], negs, tau))
        expected = oracle(q, p, negs, tau)
        worst = max(worst, abs(mine - expected))
    report(2, "info_nce equals the independent cross-entropy oracle",
           worst < 1e-10, f"max abs diff {worst:.2e} over 1000 instances")


def test_criterion_3_momentum_exactness():
    cfg = default_config().model_config()
    rng = np.random.default_rng(33)

    def flat_params():
        return np.concatenate([arr.ravel() for arr in model.init_params(cfg, rng).values()])

    query = flat_params()
    worst = 0.0
    for m in (0.9, 0.999):
        key = flat_params()
        base = math.sqrt(np.sum((key - query) ** 2))
        for t in range(1, 201):
            model.momentum_update(key, query, m)
            dist = math.sqrt(np.sum((key - query) ** 2))
            worst = max(worst, abs(dist - m ** t * base))
    report(3, "momentum decay of the key parameters is geometric",
           worst < 1e-10, f"max |distance - m^t * base| = {worst:.2e}, t <= 200")


def test_criterion_4_fifo_oracle():
    rng = np.random.default_rng(4)
    ok = True
    for capacity in (1, 7, 4096):
        bank = MemoryBank(capacity, 6)
        oracle = []
        for step in range(10_000):
            rows = rng.normal(size=(int(rng.integers(0, 5)), 6))
            if rows.shape[0]:
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            bank.enqueue(rows)
            oracle.extend(rows)
            oracle = oracle[-capacity:]
            if step % 2000 == 0 or step == 9_999:
                view = bank.negatives_view()
                same = sorted(map(tuple, view)) == sorted(map(tuple, oracle))
                ok = ok and same
    report(4, "memory bank equals the truncated-list oracle",
           ok, "10,000 randomized batches, capacities {1, 7, 4096}")


def test_criterion_5_consensus_permutation_invariance():
    cfg = default_config().model_config()
    exact = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        params = model.init_params(cfg, rng)
        frames = rng.uniform(size=(3, cfg.frame_pixels))
        base = model.segment_embedding(params, model.encode(params, frames), 3).tobytes()
        for perm in itertools.permutations(range(3)):
            out = model.segment_embedding(params, model.encode(params, frames[list(perm)]),
                                          3).tobytes()
            exact = exact and out == base
    report(5, "tuple embedding is bit-exact under frame permutations",
           exact, "all 6 permutations x 100 seeds")


def test_criterion_6_order_label_balance():
    n = 40_000
    drawn = sampling.draw_tuples(np.random.default_rng(6), np.full(n, 32), 3, 16, 16)
    freqs = np.bincount(drawn.labels, minlength=4) / n
    ok = bool(np.all(freqs >= 0.24) and np.all(freqs <= 0.26))
    report(6, "order labels are balanced",
           ok, "frequencies " + ", ".join(f"{f:.4f}" for f in freqs))


def test_criterion_7_loss_ablation_trend(trend_runs):
    res = trend_runs["results"]
    seeds = trend_runs["seeds"]
    full = [res["full"][s][0] for s in seeds]
    inter = [res["inter_only"][s][0] for s in seeds]
    strict_wins = sum(f > i for f, i in zip(full, inter))
    chance = 1.0 / 8.0
    ok = (median(full) >= median(inter)
          and strict_wins >= 2
          and median(full) >= chance + 0.15
          and median(inter) >= chance + 0.15
          and trend_runs["elapsed"] < 600.0)
    report(7, "full objective beats inter-only at the linear probe", ok,
           f"medians {median(full):.3f} vs {median(inter):.3f}, "
           f"strict wins {strict_wins}/3, runs took {trend_runs['elapsed']:.0f}s")


def test_criterion_8_segment_count_trend(trend_runs):
    res = trend_runs["results"]
    seeds = trend_runs["seeds"]
    k3 = median(res["full"][s][0] for s in seeds)
    k1 = median(res["k1"][s][0] for s in seeds)
    report(8, "three segments beat one segment at the linear probe",
           k3 >= k1, f"medians K=3 {k3:.3f} vs K=1 {k1:.3f}")


def test_criterion_9_order_head_learns(trend_runs):
    seed = trend_runs["seeds"][0]
    state = trend_runs["full_states"][seed]
    _, test_videos = trend_runs["datasets"][seed]
    accuracy = evaluate.order_prediction_accuracy(
        state.query, state.key, test_videos, default_config(seed), n_samples=200, seed=7)
    report(9, "trained order head beats chance on held-out videos",
           accuracy > 0.40, f"accuracy {accuracy:.3f} vs chance 0.25")


def test_criterion_10_retrieval_sanity(trend_runs):
    res = trend_runs["results"]
    seeds = trend_runs["seeds"]
    chance = 1.0 / 8.0
    r1 = median(res["full"][s][1][1] for s in seeds)
    monotone = all(
        res["full"][s][1][1] <= res["full"][s][1][5] <= res["full"][s][1][10]
        for s in seeds)
    ok = r1 >= chance + 0.15 and monotone
    report(10, "retrieval beats class-frequency chance and R@k is monotone",
           ok, f"median R@1 {r1:.3f}, monotone={monotone}")


def test_criterion_11_determinism(tmp_path):
    spec = synth.DatasetSpec(classes=4, videos_per_class=6, frames=16, seed=11)
    cfg = trainer.TrainConfig(dataset=spec, epochs=4, batch_size=8, bank_capacity=256,
                              hidden_dim=32, feature_dim=16, embed_dim=8, seed=3)
    blobs = []
    for run in ("a", "b"):
        ckpt, csv, _ = trainer.pretrain(cfg, tmp_path / run)
        blobs.append((ckpt.read_bytes(), csv.read_bytes()))
    ok = blobs[0] == blobs[1]
    report(11, "serial reruns produce bit-identical checkpoints and CSVs",
           ok, f"checkpoint {len(blobs[0][0])} bytes, csv {len(blobs[0][1])} bytes")
