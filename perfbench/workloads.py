"""The benchmark's three workloads, and the checks on every task's output.

Every task goes through ``sqkd.cli.main(argv)``, with stdout and stderr
captured, exactly as a user's ``sqkd ...`` command would run it.

- ``mc``: ``simulate --attack symmetric:0.05,0.05 --iterations 1000000
  --workers 2`` and then ``rate --stats <out> --normalize`` on the file it
  wrote.  This is the README acceptance run (ancilla dimension 4).
  ``simulate.run_protocol`` does almost all of the work, and ``--workers 2``
  runs the thread pool.
- ``validate``: ``validate --attacks 500 --ancilla-dims 1,2,4,32``.  At
  d <= 4 the ``attack`` layer's Python loops dominate, and at d = 32 the
  eigendecompositions of ``linalg`` (matrices up to 256 x 256) do.
- ``scan``: the paper's nine-cell threshold table (``threshold`` for three
  scenarios x three X-noise ratios) plus a 101-point ``sweep`` per cell:
  thousands of small ``key_rate_bound`` calls, with no ``attack`` or
  ``simulate`` work at all.  It runs by hand only: ``BENCHMARK.json`` leaves
  it out because its median task time was too unsteady on a noisy host
  (see README.md).

Task seeds come from the workload seed.  ``mc`` and ``validate`` cycle
through a short list of task seeds, so tasks repeat seeds and the
reproducibility of ``simulate`` is checked; ``scan``'s seed only permutes
the order of the nine cells.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DISTINCT_TASK_SEEDS = 4

MC_ITERATIONS = 1_000_000
MC_WORKERS = 2
MC_Q_FWD = MC_Q_REV = 0.05
MC_SIGMAS = 5.0
# Each of the four conditioning classes (sent |0>, |1>, |+>, |->) gets one
# iteration in eight: basis 1/2 x bit 1/2 x Bob's choice 1/2.
MC_CLASS_SIZE = MC_ITERATIONS / 8

VALIDATE_ATTACKS = 500
VALIDATE_DIMS = (1, 2, 4, 32)

SCENARIOS = ("equal", "fwd-half", "rev-half")
QX_RATIOS = (0.5, 1.0, 2.0)
# The paper's threshold table in percent, as the acceptance suite states it.
THRESHOLD_TABLE_PCT = {
    ("equal", 0.5): 5.92, ("fwd-half", 0.5): 6.98, ("rev-half", 0.5): 8.96,
    ("equal", 1.0): 5.34, ("fwd-half", 1.0): 6.16, ("rev-half", 1.0): 7.79,
    ("equal", 2.0): 4.51, ("fwd-half", 2.0): 5.05, ("rev-half", 2.0): 6.25,
}
TABLE_TOL_PP = 0.05
EXACT_THRESHOLDS = {("equal", 1.0): "0.053495", ("rev-half", 0.5): "0.089670"}
SWEEP_QMAX = 0.1
SWEEP_STEPS = 101
# Printed thresholds carry 6 decimals.
PRINT_TOL = 1e-6

STATS_KEYS = ("p000", "p001", "p010", "p011", "p100", "p101", "p110", "p111",
              "p_plus_minus", "p_minus_plus")


@dataclass(frozen=True)
class CliResult:
    argv: tuple
    code: int
    out: str
    err: str


def call_cli(cli, argv) -> CliResult:
    """Run ``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(tuple(argv), code, out.getvalue(), err.getvalue())


def task_seeds(seed: int, count: int = DISTINCT_TASK_SEEDS) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# --- mc ---------------------------------------------------------------------

def symmetric_reference() -> dict[str, float]:
    """The ten statistics of the symmetric attack, in closed form.

    Independent Z flips with probability q_fwd on the way in and q_rev on
    the way back; the attack leaves X states undisturbed.  These are the
    values ``attack.statistics`` gives for ``symmetric_realizing_attack``.
    """
    ref = {}
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                fwd = MC_Q_FWD if i != j else 1.0 - MC_Q_FWD
                rev = MC_Q_REV if j != k else 1.0 - MC_Q_REV
                ref[f"p{i}{j}{k}"] = fwd * rev
    ref["p_plus_minus"] = ref["p_minus_plus"] = 0.0
    return ref


def parse_stats(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key.strip()] = float(value)
    return values


def sifted_bits(sim: CliResult) -> int:
    head = sim.out.split("sifted key bits =", 1)
    return int(head[1].split()[0]) if len(head) == 2 else 0


def check_mc(seed: int, sim: CliResult, stats_bytes: bytes, rate: CliResult,
             digests: dict) -> list[str]:
    """Check one mc task.

    ``digests`` maps each task seed to the digest of the first stats file
    written for it; tasks that repeat a seed must write identical bytes.
    """
    problems = []
    if sim.code != 0:
        problems.append(f"simulate exited {sim.code}: {sim.err.strip()}")
    if rate.code != 0:
        problems.append(f"rate --stats exited {rate.code}: {rate.err.strip()}")
    if sifted_bits(sim) <= 0:
        problems.append("simulate printed no sifted key length")
    digest = hashlib.sha256(stats_bytes).hexdigest()
    if digests.setdefault(seed, digest) != digest:
        problems.append(f"seed {seed}: stats file differs from an earlier "
                        "task with the same seed")
    try:
        values = parse_stats(stats_bytes.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return problems + [f"unreadable stats file: {exc}"]
    for key, expected in symmetric_reference().items():
        if key not in values:
            problems.append(f"stats file lacks {key}")
            continue
        stderr = math.sqrt(expected * (1.0 - expected) / MC_CLASS_SIZE)
        if abs(values[key] - expected) > MC_SIGMAS * stderr + 1e-12:
            problems.append(f"{key} = {values[key]!r} is more than "
                            f"{MC_SIGMAS:g} standard errors from {expected!r}")
    return problems


class Mc:
    name = "mc"

    def __init__(self, seed: int, workdir: Path):
        self.seeds = task_seeds(seed)
        self.stats_path = str(workdir / "mc-stats.txt")
        self.digests: dict[int, str] = {}
        self.sifted_fracs: list[float] = []

    def config(self) -> dict:
        return {"attack": f"symmetric:{MC_Q_FWD},{MC_Q_REV}",
                "ancilla_dims": [4], "iterations": MC_ITERATIONS,
                "workers": MC_WORKERS, "task_seeds": self.seeds}

    def run(self, index: int, cli):
        seed = self.seeds[index % len(self.seeds)]
        sim = call_cli(cli, ["simulate", "--attack",
                             f"symmetric:{MC_Q_FWD},{MC_Q_REV}",
                             "--iterations", str(MC_ITERATIONS),
                             "--workers", str(MC_WORKERS), "--seed", str(seed),
                             "--out", self.stats_path])
        rate = call_cli(cli, ["rate", "--stats", self.stats_path, "--normalize"])
        return seed, sim, rate

    def check(self, outputs) -> list[str]:
        seed, sim, rate = outputs
        self.sifted_fracs.append(sifted_bits(sim) / MC_ITERATIONS)
        with open(self.stats_path, "rb") as fh:
            stats_bytes = fh.read()
        return check_mc(seed, sim, stats_bytes, rate, self.digests)


# --- validate ---------------------------------------------------------------

def check_validate(res: CliResult) -> list[str]:
    problems = []
    if res.code != 0:
        problems.append(f"validate exited {res.code}")
    if f"checked {VALIDATE_ATTACKS + 2} attacks" not in res.out:
        problems.append(f"validate did not report checking "
                        f"{VALIDATE_ATTACKS + 2} attacks")
    if "all checks passed" not in res.out:
        problems.append("validate did not report that all checks passed")
    return problems


class Validate:
    name = "validate"

    def __init__(self, seed: int, workdir: Path):
        self.seeds = task_seeds(seed)

    def config(self) -> dict:
        return {"attacks": VALIDATE_ATTACKS, "ancilla_dims": list(VALIDATE_DIMS),
                "task_seeds": self.seeds}

    def run(self, index: int, cli):
        seed = self.seeds[index % len(self.seeds)]
        return call_cli(cli, ["validate", "--attacks", str(VALIDATE_ATTACKS),
                              "--ancilla-dims",
                              ",".join(map(str, VALIDATE_DIMS)),
                              "--seed", str(seed)])

    def check(self, outputs) -> list[str]:
        return check_validate(outputs)


# --- scan -------------------------------------------------------------------

def parse_sweep(text: str) -> list[tuple[float, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != "Q,rate":
        raise ValueError("sweep file lacks the `Q,rate` header")
    rows = []
    for line in lines[1:]:
        q, rate = line.split(",")
        rows.append((float(q), float(rate)))
    return rows


def check_scan_cell(scenario: str, ratio: float, thr: CliResult,
                    sweep: CliResult, sweep_text: str) -> list[str]:
    cell = f"{scenario}/{ratio:g}"
    problems = []
    if thr.code != 0:
        return [f"{cell}: threshold exited {thr.code}"]
    printed = thr.out.strip()
    exact = EXACT_THRESHOLDS.get((scenario, ratio))
    if exact is not None and printed != exact:
        problems.append(f"{cell}: threshold printed {printed!r}, expected {exact!r}")
    try:
        q = float(printed)
    except ValueError:
        return problems + [f"{cell}: threshold printed {printed!r}"]
    deviation = abs(100.0 * q - THRESHOLD_TABLE_PCT[(scenario, ratio)])
    if deviation > TABLE_TOL_PP:
        problems.append(f"{cell}: threshold {q} is {deviation:.4f} pp from the table")
    if sweep.code != 0:
        return problems + [f"{cell}: sweep exited {sweep.code}"]
    try:
        rows = parse_sweep(sweep_text)
    except ValueError as exc:
        return problems + [f"{cell}: {exc}"]
    if len(rows) != SWEEP_STEPS:
        return problems + [f"{cell}: sweep has {len(rows)} rows"]
    crossing = next((n for n, (_, rate) in enumerate(rows) if rate <= 0.0), 0)
    if crossing == 0:
        return problems + [f"{cell}: sweep rate never changes sign from positive"]
    lo, hi = rows[crossing - 1][0], rows[crossing][0]
    if not lo - PRINT_TOL <= q <= hi + PRINT_TOL:
        problems.append(f"{cell}: sweep changes sign in [{lo}, {hi}], "
                        f"not within one grid step of threshold {q}")
    return problems


class Scan:
    name = "scan"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cells = [(s, r) for s in SCENARIOS for r in QX_RATIOS]

    def config(self) -> dict:
        return {"cells": [f"{s}/{r:g}" for s, r in self.cells],
                "sweep_qmax": SWEEP_QMAX, "sweep_steps": SWEEP_STEPS,
                "order_seed": self.seed}

    def run(self, index: int, cli):
        order = np.random.default_rng([self.seed, index]).permutation(len(self.cells))
        results = []
        for n in order:
            scenario, ratio = self.cells[n]
            path = str(self.workdir / f"sweep-{scenario}-{ratio:g}.csv")
            thr = call_cli(cli, ["threshold", "--scenario", scenario,
                                 "--qx-ratio", f"{ratio:g}"])
            sweep = call_cli(cli, ["sweep", "--scenario", scenario,
                                   "--qx-ratio", f"{ratio:g}",
                                   "--qmax", f"{SWEEP_QMAX:g}",
                                   "--steps", str(SWEEP_STEPS), "--out", path])
            results.append((scenario, ratio, thr, sweep, path))
        return results

    def check(self, outputs) -> list[str]:
        problems = []
        for scenario, ratio, thr, sweep, path in outputs:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            problems += check_scan_cell(scenario, ratio, thr, sweep, text)
        return problems


WORKLOADS = {w.name: w for w in (Mc, Validate, Scan)}
