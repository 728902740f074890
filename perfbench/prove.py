"""Measure the run-to-run spread of the benchmark and record it.

    python3 perfbench/prove.py --seeds 1-10 --out perfbench/results/NAME.json \
        [--workloads mc,validate,scan] [--traced-seed 1] [--compare EARLIER.json]

Runs ``run.py`` once per workload and seed, interleaving the workloads,
with ``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end metric
it reports the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median, next to the metric's bound.  With
``--traced-seed`` it also makes two traced runs of that seed per workload
and checks that the exact counts agree.  With ``--compare`` it checks that
no metric's median is worse than in an earlier report of the same code by
more than the metric's bound.  Exit status 1 if any run failed a check, any
spread other than ``setup_s`` exceeds its bound, or a comparison fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT = ("simulate.chunks", "attack.extract_vectors.calls_per_attack",
         "keyrate.evals_per_threshold", "linalg.eig_ops")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(record, encoding="utf-8") as fh:
        env = json.load(fh)["environment"]
    return result, env


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "spread_over_bound": spread / bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--compare", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    runs = {name: [] for name in names}
    env = None
    ok = True
    for seed in seeds:
        for name in names:
            result, env = run(name, seed, seconds, 0)
            runs[name].append(result)
            ok &= result["correct"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)

    report = {"environment": env, "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for name in names:
        entry = {"attempted": sum(r["attempted"] for r in runs[name]),
                 "failed": sum(r["failed"] for r in runs[name]), "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            entry["metrics"][metric] = summary = summarize(values, bound)
            if metric != "setup_s" and summary["spread"] > bound:
                ok = False
            print(f"{name:<9} {metric:<15} median {summary['median']:.6g} "
                  f"spread {summary['spread']:.4f} bound {bound} "
                  f"({summary['spread_over_bound']:.2f} of bound)")
            if earlier and name in earlier:
                before = earlier[name]["metrics"][metric]["median"]
                change = (summary["median"] - before) / before
                worse = -change if metric in higher else change
                summary["earlier_median"] = before
                summary["worse_than_earlier"] = worse
                ok &= worse <= bound
                print(f"{'':<9} {'':<15} {worse:+.4f} worse than the earlier median "
                      f"{before:.6g}")
        if args.traced_seed is not None:
            traced = [run(name, args.traced_seed, seconds, 1)[0] for _ in range(2)]
            counts = [{k: t["metrics"][k]["value"] for k in EXACT} for t in traced]
            same = counts[0] == counts[1]
            ok &= same and all(t["correct"] for t in traced)
            entry["traced"] = {"seed": args.traced_seed, "exact_counts": counts,
                               "exact_counts_repeat": same,
                               "metrics": [t["metrics"] for t in traced]}
            print(f"{name:<9} exact counts {counts[0]} repeat: {same}")
        report["workloads"][name] = entry

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
