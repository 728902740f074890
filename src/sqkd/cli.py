"""Command-line surface: rates, thresholds, sweeps, simulation, validation.

Commands raise; ``main`` alone turns an error into one stderr line, `error: ...`
(exit 1) or `abort: ...` (exit 3).  Exit codes: 0 success / positive rate,
1 input error, 2 non-positive rate, 3 abort (p000 <= 0), 4 validation failure.
An input too large to allocate (MemoryError) is an input error.
On glibc, ``sqkd`` keeps freed heap memory until it exits.
"""

import argparse
import ctypes
import functools
import sys

import numpy as np

from . import attack as attack_mod
from . import keyrate, simulate
from .keyrate import ChannelStatistics, TooNoisyError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONPOSITIVE = 2
EXIT_ABORT = 3
EXIT_VALIDATION = 4

STATS_KEYS = ("p000", "p001", "p010", "p011", "p100", "p101", "p110", "p111",
              "p_plus_minus", "p_minus_plus")


class StatsFileError(ValueError):
    """Malformed statistics file."""


def parse_stats_file(path: str) -> ChannelStatistics:
    """Read a `key = value` statistics file.

    The file must be UTF-8 text.  All ten keys must appear exactly once;
    `#` starts a comment; values are decimals in [0, 1].  Errors name the
    file and carry line numbers and key names.
    """
    values: dict[str, float] = {}
    # utf-8-sig drops the byte-order mark that Windows editors write.
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise StatsFileError(f"{path}: not UTF-8 text") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise StatsFileError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in STATS_KEYS:
                raise StatsFileError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise StatsFileError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                v = float(value.strip())
            except ValueError:
                raise StatsFileError(
                    f"{path}:{lineno}: value for {key!r} is not a number") from None
            if not 0.0 <= v <= 1.0:
                raise StatsFileError(
                    f"{path}:{lineno}: value for {key!r} outside [0, 1]")
            values[key] = v
    missing = [k for k in STATS_KEYS if k not in values]
    if missing:
        raise StatsFileError(f"{path}: missing key {missing[0]!r}")
    *p, p_pm, p_mp = [values[k] for k in STATS_KEYS]
    return ChannelStatistics(p=np.reshape(p, (2, 2, 2)), p_pm=p_pm, p_mp=p_mp)


def write_stats_file(path: str, stats: ChannelStatistics) -> None:
    """Write the canonical `key = value` form (exact float round-trip)."""
    entries = keyrate.statistics_entries(stats).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{key} = {v!r}\n" for key, v in zip(STATS_KEYS, entries)))


def _print_report(report: keyrate.KeyRateReport) -> None:
    rows = [("B", report.b), ("calB", report.cal_b),
            ("lambda_tilde", report.lambda_tilde), ("S_BEC", report.s_bec),
            ("S_EC_upper", report.s_ec_upper), ("p_A0", report.p_a0),
            ("joint_00", report.joint[0]), ("joint_01", report.joint[1]),
            ("joint_10", report.joint[2]), ("joint_11", report.joint[3]),
            ("H_B_given_A", report.h_b_given_a), ("rate", report.rate)]
    for name, value in rows:
        print(f"{name:<13} = {float(value):.12g}")


def _parse_number(kind, text: str, what: str):
    """``kind(text)`` for kind int or float; an error names ``what``."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what}: {text!r} is not {noun}") from None


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated values Qf,Qr,Qx")
    return tuple(_parse_number(float, x, "--symmetric") for x in parts)


def cmd_rate(args) -> int:
    if args.stats is not None:
        stats = parse_stats_file(args.stats)
    else:
        stats = keyrate.symmetric_stats(*_parse_triple(args.symmetric))
    report = keyrate.key_rate_bound(stats, renormalize=args.normalize)
    _print_report(report)
    return EXIT_OK if report.rate > 0.0 else EXIT_NONPOSITIVE


def cmd_threshold(args) -> int:
    print(f"{keyrate.noise_threshold(args.scenario, args.qx_ratio):.6f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    rows = keyrate.sweep(args.scenario, args.qx_ratio, args.qmax, args.steps)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("Q,rate\n")
        for q, rate in rows:
            fh.write(f"{q:.9g},{rate:.9g}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _build_attack(spec: str, seed: int) -> attack_mod.CollectiveAttack:
    if spec == "identity":
        return attack_mod.identity_attack()
    if spec == "zmeasure":
        return attack_mod.z_measurement_attack()
    if spec.startswith("symmetric:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError("symmetric attack needs two values: symmetric:Qf,Qr")
        qf, qr = (_parse_number(float, x, f"attack spec {spec!r}") for x in parts)
        return attack_mod.symmetric_realizing_attack(qf, qr)
    if spec.startswith("random:"):
        d_e = _parse_number(int, spec.split(":", 1)[1], f"attack spec {spec!r}")
        return attack_mod.random_attack(d_e, seed)
    raise ValueError(f"unknown attack spec {spec!r}; expected identity, "
                     "zmeasure, symmetric:Qf,Qr or random:dE")


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ValueError("workers must be positive")
    # random:dE hands the seed to numpy, whose error would not name it.
    if args.seed < 0:
        raise ValueError("seed must fit in 64 unsigned bits")
    analytic = attack_mod.statistics(_build_attack(args.attack, args.seed))
    tally = simulate.run_protocol(analytic, args.iterations, args.seed)
    stats, err = simulate.estimate_statistics(tally)
    write_stats_file(args.out, stats)
    print(f"iterations = {args.iterations}  sifted key bits = {int(tally.z_counts.sum())}")
    print(f"{'entry':<14}{'empirical':>14}{'analytic':>14}{'stderr':>12}")
    columns = [keyrate.statistics_entries(x).tolist() for x in (stats, analytic, err)]
    for key, s, a, e in zip(STATS_KEYS, *columns):
        print(f"{key:<14}{s:>14.9f}{a:>14.9f}{e:>12.2e}")
    print(f"empirical QBER = {simulate.qber(tally):.9f}")
    report = keyrate.key_rate_bound(stats, renormalize=True)
    print(f"key rate bound (empirical statistics) = {report.rate:.9g}")
    print(f"stats written to {args.out}")
    return EXIT_OK


# Random attacks are built in stacks of one ancilla dimension, which
# ``attack.audit`` pulls one at a time on every CPU the process may use
# (``taskset`` restricts them; with OPENBLAS_NUM_THREADS=1 BLAS adds no
# threads of its own).  A stack holds at most ``attack.STACK_BYTES`` bytes
# of unitaries (four attacks at d = 32), and its Gram matrices take at most as
# many too (512 attacks, the cap at d <= 2).  Stacks and findings carry
# attack positions only, and FAIL lines name the attacks from them.  Neither
# the stacks nor the output depend on the number of CPUs.
def _validate_stacks(dims: list[int], attacks: int, seed: int, corrupt: bool):
    """Yield (positions, build) covering every attack ``validate`` checks.

    Positions number the attacks in report order: 0 the identity, 1 the Z
    measurement, idx + 2 random attack idx (ancilla dimension
    dims[idx % len(dims)], seed [seed, idx]) and, with ``corrupt``,
    attacks + 2 a copy of the last random attack with a broken u_e.
    Entry r of ``dims`` has stacks of its own, each a range of the
    positions r + 2, r + 2 + len(dims), ..., so the plan holds O(stacks)
    ints.  ``build()`` builds the stack, on whichever thread calls it.
    """
    fixed = [attack_mod.identity_attack(), attack_mod.z_measurement_attack()]
    if corrupt:
        last = attacks - 1
        atk = attack_mod.random_attack(dims[last % len(dims)], [seed, last])
        u_bad = atk.u_e.copy()
        u_bad[0, 0] += 0.5
        fixed.append(attack_mod.CollectiveAttack(atk.ancilla_dim, u_bad, atk.u_f))
    for pos, atk in zip((0, 1, attacks + 2), fixed):
        yield [pos], functools.partial(
            attack_mod.CollectiveAttack, atk.ancilla_dim, atk.u_e[None], atk.u_f[None])
    for r, d_e in enumerate(dims):
        members = range(r + 2, attacks + 2, len(dims))
        # Per attack: two (2d, 2d) complex unitaries, one 8x8 complex Gram matrix.
        size = max(1, attack_mod.STACK_BYTES // max(2 * 16 * (2 * d_e) ** 2, 16 * 8 * 8))
        for start in range(0, len(members), size):
            positions = members[start:start + size]
            yield positions, functools.partial(_random_stack, d_e, seed, positions)


def _random_stack(d_e: int, seed: int, positions: range) -> attack_mod.CollectiveAttack:
    # The seeds are made here, on the thread that builds the stack, so the
    # plan holds positions only.
    return attack_mod.random_attacks(d_e, [[seed, pos - 2] for pos in positions])


def cmd_validate(args) -> int:
    dims = [_parse_number(int, x, "--ancilla-dims") for x in args.ancilla_dims.split(",")]
    if args.attacks < 1 or any(d < 1 for d in dims):
        raise ValueError("need at least one attack and positive dimensions")
    # The stack plan takes len() of ranges of positions up to attacks + 2,
    # which must fit in a signed 64-bit int.
    if args.attacks > 2 ** 62:
        raise ValueError("--attacks must be at most 2**62")
    if max(dims) > attack_mod.MAX_ANCILLA_DIM:
        raise ValueError(f"ancilla_dim must be in [1, {attack_mod.MAX_ANCILLA_DIM}]")
    if args.seed < 0:
        raise ValueError("seed must be non-negative")

    stacks = list(_validate_stacks(dims, args.attacks, args.seed, args.corrupt))
    checked, worst_residual, worst_slack, failures = attack_mod.audit(stacks)
    names = {0: "identity", 1: "zmeasure", args.attacks + 2: "corrupted (test hook)"}
    for pos, text in failures:
        print(f"FAIL {names.get(pos, f'random seed={[args.seed, pos - 2]}')}: {text}")
    print(f"checked {checked} attacks: worst identity residual "
          f"{worst_residual:.3e}, worst slack (exact - bound) {worst_slack:.9f}")
    if failures:
        print(f"{len(failures)} violation(s) found")
        return EXIT_VALIDATION
    print("all checks passed")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which collides with the
    # "non-positive rate" code; input errors must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="sqkd",
                     description="Key-rate bounds and simulation for a "
                                 "measure-resend semi-quantum key "
                                 "distribution protocol.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_rate = sub.add_parser("rate", help="key-rate bound from statistics")
    src = p_rate.add_mutually_exclusive_group(required=True)
    src.add_argument("--stats", metavar="FILE",
                     help="statistics file with `key = value` lines")
    src.add_argument("--symmetric", metavar="QF,QR,QX",
                     help="symmetric scenario parameters")
    p_rate.add_argument("--normalize", action="store_true",
                        help="rescale each conditional block to sum to 1")

    p_thr = sub.add_parser("threshold", help="largest Q with positive rate")
    p_thr.add_argument("--scenario", required=True,
                       choices=sorted(keyrate.SCENARIOS))
    p_thr.add_argument("--qx-ratio", type=float, required=True,
                       help="X disturbance as a multiple of Q")

    p_sweep = sub.add_parser("sweep", help="rate-vs-Q table as CSV")
    p_sweep.add_argument("--scenario", required=True,
                         choices=sorted(keyrate.SCENARIOS))
    p_sweep.add_argument("--qx-ratio", type=float, required=True)
    p_sweep.add_argument("--qmax", type=float, default=0.1)
    p_sweep.add_argument("--steps", type=int, default=101)
    p_sweep.add_argument("--out", required=True, metavar="CSV")

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol run")
    p_sim.add_argument("--attack", required=True,
                       help="identity | zmeasure | symmetric:Qf,Qr | random:dE")
    p_sim.add_argument("--iterations", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; has no effect "
                            "(must be positive)")
    p_sim.add_argument("--out", required=True, metavar="STATSFILE")

    p_val = sub.add_parser("validate", help="soundness and hygiene checks")
    p_val.add_argument("--attacks", type=int, default=100)
    p_val.add_argument("--ancilla-dims", default="1,2,4",
                       help="comma-separated list cycled over the attacks")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--corrupt", action="store_true",
                       help=argparse.SUPPRESS)  # test hook: inject a bad unitary
    return parser


# glibc's mallopt parameters, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep freed heap memory rather than return it to the system.

    By default glibc trims the free top of the heap once it exceeds twice
    the largest block it has mapped on its own, so every ``validate`` stack
    faulted its QR buffers in again page by page.  Setting either threshold
    turns glibc's adjustment off and leaves the other at 128 KiB, so both
    are set: 32 MiB, the ceiling of that adjustment, and 64 MiB, the trim
    threshold it pairs with it.  The setting holds for the whole process, so
    the command makes it and the library never does.  Without glibc's
    ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code or 0)
    # Looked up by name on every call, so the cached parser holds no
    # command function and a replaced cmd_* binding takes effect.
    try:
        return globals()[f"cmd_{args.command}"](args)
    except TooNoisyError as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (ValueError, OSError) as exc:  # StatsFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # numpy's names the size; Python's own is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
