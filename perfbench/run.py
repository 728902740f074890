"""Closed-loop benchmark of the sqkd command line.

    python3 perfbench/run.py --workload {mc,validate,scan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ``src/``.
One client in one process sends its next task only when the previous one
has finished; every task goes through ``sqkd.cli.main(argv)`` in this
long-lived process, so the import cost is paid once and reported on its own
as ``setup_s``.  Every task's output is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced tasks and reports the per-layer metrics from the traced
ones (see ``tracing.py``), with the tracing overhead.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record, with the environment, goes to
``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread per calling thread, set before numpy loads its BLAS.  With
# the default of one BLAS thread per core, the spare thread spins on the
# small matrices of ``validate`` and doubles its CPU time; on a 2-core
# machine six back-to-back ``validate`` tasks took 2.2-3.8 s that way and
# 2.8-3.0 s with one thread.  It also keeps every workload within two
# threads (``mc`` runs two workers, which the default doubled to four).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 10
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import sqkd.cli"
MIN_BEYOND = 10
RNG_FLOOR_REPS = 3

END_TO_END = (
    ("setup_s", "s"), ("task_p50_s", "s"), ("task_tail_s", "s"),
    ("tasks_per_s", "1/s"), ("cpu_s_per_task", "s"), ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  The value is the sample of
    rank n - 10 (nearest rank).  With fewer than about twenty samples that
    rank falls below the median, and the sample just above the middle is
    reported instead; the record says which percentile was used.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - MIN_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def environment(workload) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], **workload.config()}


def setup_once() -> float:
    """Wall time of a fresh interpreter importing ``sqkd.cli``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def timed_loop(client, seconds):
    """Run tasks for ``seconds``; return (wall, cpu) samples and set-up times.

    The set-up samples are spread over the run, one about every
    ``seconds / SETUP_SAMPLES``, so that their median does not hang on the
    machine's speed in one moment.  Time spent on them extends the run.
    """
    samples, setup_times = [], []
    spacing = seconds / SETUP_SAMPLES
    start = time.perf_counter()
    deadline, next_setup = start + seconds, start
    index = 1
    while time.perf_counter() < deadline:
        if time.perf_counter() >= next_setup:
            setup_times.append(setup_once())
            deadline += setup_times[-1]
            next_setup = time.perf_counter() + spacing
        result = client.task(index)
        if result is not None:
            samples.append(result[:2])
        index += 1
    return samples, setup_times


def rng_floor_s(seed: int, chunk_size: int) -> float:
    """Time to replay only the random draws of one ``mc`` task.

    The five per-iteration draws, in the order the reproducibility contract
    fixes, from ``SeedSequence([seed, c])`` for every chunk c: the floor no
    Monte Carlo sampler that keeps the contract can go below.
    """
    n_total = workloads.MC_ITERATIONS
    t0 = time.perf_counter()
    for c in range(-(-n_total // chunk_size)):
        n = min(chunk_size, n_total - c * chunk_size)
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        draws = (rng.random(n) < 0.5, rng.integers(0, 2, size=n).astype(np.uint8),
                 rng.random(n) < 0.5, rng.random(n), rng.random(n))
    del draws
    return time.perf_counter() - t0


class Client:
    """Runs tasks one at a time and checks each one's output."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def task(self, index, runner=None):
        """Run and check task ``index``; return (wall s, cpu s, outputs)."""
        self.attempted += 1
        run = self.workload.run
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs = runner(index, run, index, self.cli) if runner else run(index, self.cli)
        except Exception:  # a task that raises is a failed task
            self.fail(f"task {index} raised:\n{traceback.format_exc()}")
            return None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        try:
            problems = self.workload.check(outputs)
        except (OSError, ValueError) as exc:
            problems = [f"output unreadable: {exc}"]
        if problems:
            self.fail(f"task {index}: " + "; ".join(problems))
        return wall, cpu, outputs

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def end_to_end(client, samples, setup_times) -> tuple[dict, dict]:
    walls = [w for w, _ in samples]
    cpus = [c for _, c in samples]
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "task_p50_s": statistics.median(walls),
        "task_tail_s": tail_value,
        "tasks_per_s": len(walls) / sum(walls),
        "cpu_s_per_task": sum(cpus) / len(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (client.attempted - client.failed) / client.attempted,
    }
    details = {"timed_tasks": len(walls), "task_wall_s": walls, "task_tail_pct": tail_pct,
               "task_tail_samples_beyond": beyond, "setup_samples_s": setup_times,
               "fail_frac": client.failed / client.attempted}
    return metrics, details


def layer_metrics(prof, sifted_fracs=(), rng_floor=0.0, overhead=0.0) -> dict:
    """The per-layer metrics, each ``name -> (value, unit)``.

    Counts and times are per traced task unless the name says per call
    (``p50_us``, ``p50_ms``) or per unit of work.
    """
    per_task = prof.per_task
    calls, total, own = prof.calls, prof.total, prof.self_time
    run_protocol_s = total.get("simulate.run_protocol", 0.0)
    iterations = calls.get("simulate.run_protocol", 0) * workloads.MC_ITERATIONS
    counts = prof.task_counts
    attacks = sum(c["attack.attacks"] for c in counts)
    thresholds = sum(c["keyrate.noise_threshold.calls"] for c in counts)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "simulate.run_protocol.s": (per_task(total, "simulate.run_protocol"), "s"),
        "simulate.iters_per_s": (ratio(iterations, run_protocol_s), "1/s"),
        "simulate.estimate_statistics.s":
            (per_task(total, "simulate.estimate_statistics"), "s"),
        "simulate.qber.s": (per_task(total, "simulate.qber"), "s"),
        "simulate.chunks": (per_task(calls, "simulate._simulate_chunk"), "count"),
        "simulate.chunk.total_s": (per_task(total, "simulate._simulate_chunk"), "s"),
        "simulate.sifted_frac":
            (statistics.fmean(sifted_fracs) if sifted_fracs else 0.0, "frac"),
        "simulate.rng_floor_s": (rng_floor, "s"),
        "attack.extract_vectors.calls_per_attack":
            (ratio(sum(c["attack.extract_vectors.calls"] for c in counts), attacks),
             "count"),
    }
    for name in ("extract_vectors", "statistics", "rho_be", "rho_bec",
                 "validate_attack", "random_attack", "unitarity_residuals"):
        m[f"attack.{name}.self_s"] = (per_task(own, f"attack.{name}"), "s")
    for dim in ("dsmall", "d32"):
        m[f"attack.exact_collective_rate.p50_us.{dim}"] = (
            1e6 * prof.p50(("attack.exact_collective_rate", dim)), "us")
    m["linalg.von_neumann_entropy.calls"] = (
        per_task(calls, "linalg.von_neumann_entropy"), "count")
    for dim in ("dsmall", "d32"):
        m[f"linalg.von_neumann_entropy.self_s.{dim}"] = (
            per_task(prof.dim_self, ("linalg.von_neumann_entropy", dim)), "s")
    m["linalg.eig_ops"] = (ratio(sum(c["linalg.eig_ops"] for c in counts),
                                 len(counts)), "count")
    m["linalg.partial_trace.self_s"] = (per_task(own, "linalg.partial_trace"), "s")
    m["linalg.shannon_entropy.calls"] = (
        per_task(calls, "linalg.shannon_entropy"), "count")
    m["linalg.shannon_entropy.self_s"] = (per_task(own, "linalg.shannon_entropy"), "s")
    m["linalg.binary_entropy.calls"] = (
        per_task(calls, "linalg.binary_entropy"), "count")
    m.update({
        "keyrate.key_rate_bound.calls":
            (per_task(calls, "keyrate.key_rate_bound"), "count"),
        "keyrate.key_rate_bound.p50_us":
            (1e6 * prof.p50("keyrate.key_rate_bound"), "us"),
        "keyrate.key_rate_bound.self_s": (per_task(own, "keyrate.key_rate_bound"), "s"),
        "keyrate.validate_statistics.self_s":
            (per_task(own, "keyrate.validate_statistics"), "s"),
        "keyrate.evals_per_threshold":
            (ratio(sum(c["keyrate.key_rate_bound.in_threshold"] for c in counts),
                   thresholds), "count"),
        "keyrate.noise_threshold.p50_ms":
            (1e3 * prof.p50("keyrate.noise_threshold"), "ms"),
        "keyrate.sweep.p50_ms": (1e3 * prof.p50("keyrate.sweep"), "ms"),
        "cli.write_stats_file.s": (per_task(total, "cli.write_stats_file"), "s"),
        "cli.parse_stats_file.s": (per_task(total, "cli.parse_stats_file"), "s"),
        "cli.cmd.self_s": (sum(per_task(own, n) for n in own
                               if n.startswith("cli.cmd_")), "s"),
    })
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (prof.layer_self(layer), "s")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


PER_LAYER = tuple((name, unit) for name, (_, unit)
                  in layer_metrics(tracing.Profile()).items())


def traced_loop(client, seconds, chunk_size):
    """Alternate untraced and traced tasks; fold traced spans into a profile."""
    tracer = tracing.Tracer()
    prof = tracing.Profile()
    plain, traced = [], []
    counts_by_seed: dict = {}
    index = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if index % 2:
            tracer.install()
            try:
                result = client.task(index, tracer.run_task)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            if result is not None:
                traced.append(result[0])
                counts = prof.add_task(spans)
                key = task_key(client.workload, index)
                if counts_by_seed.setdefault(key, counts) != counts:
                    client.fail(f"task {index}: exact counts {counts} differ "
                                 f"from an earlier task of the same inputs "
                                 f"{counts_by_seed[key]}")
        else:
            result = client.task(index)
            if result is not None:
                plain.append(result[0])
        index += 1
    seeds = getattr(client.workload, "seeds", [0])
    floor = statistics.median(rng_floor_s(seeds[n % len(seeds)], chunk_size)
                              for n in range(RNG_FLOOR_REPS))
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if traced and plain else 0.0)
    metrics = layer_metrics(prof, getattr(client.workload, "sifted_fracs", ()),
                            floor, overhead)
    details = {"traced_tasks": len(traced), "untraced_tasks": len(plain),
               "task_counts_first": prof.task_counts[:1],
               "calls": prof.table()}
    return metrics, details, prof


def task_key(workload, index):
    """Tasks with equal keys run identical inputs (scan's cell order aside)."""
    seeds = getattr(workload, "seeds", None)
    return seeds[index % len(seeds)] if seeds else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqkd" / "__init__.py").is_file():
        print(f"error: no sqkd package under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from sqkd import cli, simulate

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    client = Client(workload, cli)
    env = environment(workload)
    print("environment: " + json.dumps(env))

    client.task(0)  # warm-up: checked and counted, not timed
    if args.trace:
        values, details, prof = traced_loop(client, args.seconds, simulate.CHUNK_SIZE)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, task, attr in prof.kept_spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "task": task,
                                     "attr": attr}) + "\n")
        specs = PER_LAYER
    else:
        samples, setup_times = timed_loop(client, args.seconds)
        if not samples:
            print("error: no timed task completed", file=sys.stderr)
            return 1
        values, details = end_to_end(client, samples, setup_times)
        values = {name: (values[name], unit) for name, unit in END_TO_END}
        specs = END_TO_END

    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in specs}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": client.attempted,
              "failed": client.failed, "problems": client.problems[:20],
              "metrics": metrics, "details": details}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
