"""Fast self-test of the benchmark, at the scale of acceptance criterion 11.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to the benchmark's file contract, that every
metric it names is printed with its unit on every workload, that all output
checks pass, that counts repeat exactly (between processes with one seed, and
for the pretraining workloads between seeds), and that the purpose stated
for each workload holds in the traced shares:

- sampling takes a larger share of the run on pretrain_inter_only than on
  pretrain_full;
- backward passes take under 2% of the run on gradcheck.

Exits 0 when everything holds and prints one line per problem otherwise.
"""

from __future__ import annotations

import json
import re
import sys

import run

SEED = 5
OTHER_SEED = 6
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
METRIC_KEYS = {"end_to_end": {"name", "unit", "better", "bound"},
               "per_layer": {"name", "unit", "better"}}


def check_spec(spec, problems):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys are {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(run.WORKLOADS):
        problems.append(f"workloads {names} differ from run.py's {list(run.WORKLOADS)}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            problems.append(f"workload entry {w['name']} is malformed")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    seen = set()
    for section, keys in METRIC_KEYS.items():
        for metric in spec[section]:
            name = metric["name"]
            if set(metric) != keys or not NAME.fullmatch(name) or name in seen \
                    or not UNIT.fullmatch(metric["unit"]) \
                    or metric["better"] not in ("higher", "lower"):
                problems.append(f"{section} metric {name} is malformed or repeated")
            if section == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"bound of {name} must be in (0, 0.25]")
            seen.add(name)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must be in s, lower is better, with the largest bound")


def check_result(workload, trace, result, metrics_spec, problems):
    label = f"{workload} trace {trace}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: checks failed ({result['failed']}/{result['attempted']})")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in metrics_spec}
    if printed != wanted:
        problems.append(f"{label}: printed metrics {printed} differ from BENCHMARK.json {wanted}")


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(run.EXACT_SUFFIXES)}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    check_spec(spec, problems)
    traced = {}
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run.measure(workload, SEED, 0, trace, scale="small")
            check_result(workload, trace, result, spec[section], problems)
            if trace:
                traced[workload] = result
        again, _ = run.measure(workload, SEED, 0, 1, scale="small")
        if counts(again) != counts(traced[workload]):
            problems.append(f"{workload}: counts differ between two processes with one seed")
        if workload.startswith("pretrain"):
            other, _ = run.measure(workload, OTHER_SEED, 0, 1, scale="small")
            if counts(other) != counts(traced[workload]):
                problems.append(f"{workload}: counts differ between seeds {SEED} and "
                                f"{OTHER_SEED}")

    def share(workload, name):
        return traced[workload]["metrics"][name]["value"]

    if not share("pretrain_inter_only", "sampling.share") > share("pretrain_full",
                                                                  "sampling.share"):
        problems.append("sampling share is not higher on pretrain_inter_only than on "
                        "pretrain_full")
    if not share("gradcheck", "numerics.backward_share") < 0.02:
        problems.append("backward share on gradcheck is not under 2%")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
