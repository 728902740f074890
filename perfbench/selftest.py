"""Tests of the benchmark itself: every output check can fail.

    python3 perfbench/selftest.py

Each checker gets a correct output, which must pass, and known-bad output,
which must count as a failure: a stats file with one altered value, a
threshold off by 1e-3, and ``validate --corrupt`` (exit 4).  The file name
keeps it out of the repository's test suite; it takes about ten seconds.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sqkd import cli, keyrate  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def replace_value(stats_bytes: bytes, key: str, new: float) -> bytes:
    lines = stats_bytes.decode().splitlines()
    lines = [f"{key} = {new!r}" if line.startswith(key + " ") else line
             for line in lines]
    return ("\n".join(lines) + "\n").encode()


class McCheck(unittest.TestCase):
    """Each bad input below breaks exactly one check, which must fire."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.mc = wl.Mc(7, Path(cls.tmp.name))
        cls.seed, cls.sim, cls.rate = cls.mc.run(0, cli)
        with open(cls.mc.stats_path, "rb") as fh:
            cls.stats = fh.read()
        cls.values = wl.parse_stats(cls.stats.decode())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check(self, stats=None, digests=None, sim=None, rate=None):
        return wl.check_mc(self.seed, sim or self.sim, stats or self.stats,
                           rate or self.rate, {} if digests is None else digests)

    def test_correct_output_passes(self):
        self.assertEqual(self.check(), [])

    def test_altered_value_fails_reproducibility(self):
        digests = {}
        self.assertEqual(self.check(digests=digests), [])
        bad = replace_value(self.stats, "p000", self.values["p000"] + 1e-9)
        self.assertEqual(len(self.check(bad, digests)), 1)

    def test_altered_value_fails_statistics(self):
        bad = replace_value(self.stats, "p011", self.values["p011"] + 0.01)
        self.assertEqual(len(self.check(bad)), 1)
        bad = replace_value(self.stats, "p_plus_minus", 1e-3)
        self.assertEqual(len(self.check(bad)), 1)

    def test_failed_commands_fail(self):
        failed = wl.CliResult(("x",), 1, "", "error")
        self.assertEqual(len(self.check(rate=failed)), 1)
        sim = wl.CliResult(self.sim.argv, 1, self.sim.out, "error")
        self.assertEqual(len(self.check(sim=sim)), 1)
        sim = wl.CliResult(self.sim.argv, 0, "", "")
        self.assertEqual(len(self.check(sim=sim)), 1)


def synthetic_sweep(crossing: float) -> str:
    """A sweep whose rate changes sign just after ``crossing``."""
    step = wl.SWEEP_QMAX / (wl.SWEEP_STEPS - 1)
    rows = [f"{n * step:.9g},{crossing - n * step:.9g}" for n in range(wl.SWEEP_STEPS)]
    return "\n".join(["Q,rate"] + rows) + "\n"


class ScanCheck(unittest.TestCase):
    """Each bad input below breaks exactly one check, which must fire."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.out = {}
        for cell in (("equal", 1.0), ("rev-half", 0.5), ("fwd-half", 2.0)):
            scan = wl.Scan(0, Path(cls.tmp.name))
            scan.cells = [cell]
            (out,) = scan.run(0, cli)
            with open(out[4], encoding="utf-8") as fh:
                cls.out[cell] = out[2], out[3], fh.read()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_correct_output_passes(self):
        for (scenario, ratio), (thr, sweep, text) in self.out.items():
            self.assertEqual(wl.check_scan_cell(scenario, ratio, thr, sweep, text), [])

    def test_threshold_off_by_1e3_fails(self):
        for (scenario, ratio), (thr, sweep, text) in self.out.items():
            for off in (1e-3, -1e-3):
                bad = wl.CliResult(thr.argv, 0, f"{float(thr.out) + off:.6f}\n", "")
                with self.subTest(cell=(scenario, ratio), off=off):
                    self.assertTrue(wl.check_scan_cell(scenario, ratio, bad, sweep, text))

    def test_exact_print_fails_alone(self):
        thr, sweep, text = self.out[("equal", 1.0)]
        bad = wl.CliResult(thr.argv, 0, "0.053496\n", "")
        self.assertEqual(len(wl.check_scan_cell("equal", 1.0, bad, sweep, text)), 1)

    def test_table_fails_alone(self):
        thr, sweep, _ = self.out[("fwd-half", 2.0)]
        q = float(thr.out) + 1e-3
        bad = wl.CliResult(thr.argv, 0, f"{q:.6f}\n", "")
        problems = wl.check_scan_cell("fwd-half", 2.0, bad, sweep, synthetic_sweep(q))
        self.assertEqual(len(problems), 1)

    def test_bracket_fails_alone(self):
        thr, sweep, _ = self.out[("fwd-half", 2.0)]
        shifted = synthetic_sweep(float(thr.out) + 2e-3)
        self.assertEqual(len(wl.check_scan_cell("fwd-half", 2.0, thr, sweep, shifted)), 1)
        text = self.out[("fwd-half", 2.0)][2]
        positive = "\n".join(line.replace(",-", ",") for line in text.splitlines())
        self.assertEqual(len(wl.check_scan_cell("fwd-half", 2.0, thr, sweep, positive)), 1)

    def test_failed_commands_fail(self):
        thr, sweep, text = self.out[("fwd-half", 2.0)]
        failed = wl.CliResult(("x",), 1, "", "error")
        self.assertTrue(wl.check_scan_cell("fwd-half", 2.0, failed, sweep, text))
        self.assertTrue(wl.check_scan_cell("fwd-half", 2.0, thr, failed, text))


class ValidateCheck(unittest.TestCase):
    def test_correct_and_corrupted(self):
        good = wl.Validate(3, Path(".")).run(0, cli)
        self.assertEqual(wl.check_validate(good), [])
        bad = wl.call_cli(cli, list(good.argv) + ["--corrupt"])
        self.assertEqual(bad.code, 4)
        self.assertTrue(wl.check_validate(bad))
        # Each check on its own.
        for res in (wl.CliResult(good.argv, 4, good.out, ""),
                    wl.CliResult(good.argv, 0, good.out.replace("502", "503"), ""),
                    wl.CliResult(good.argv, 0, good.out.replace("all checks passed",
                                                                "1 violation(s) found"), "")):
            self.assertEqual(len(wl.check_validate(res)), 1)


class Tracing(unittest.TestCase):
    def test_spans_self_time_and_restore(self):
        original = keyrate.shannon_entropy
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(keyrate.shannon_entropy, original)
            tracer.run_task(1, wl.call_cli, cli,
                            ["threshold", "--scenario", "equal", "--qx-ratio", "1"])
        finally:
            tracer.uninstall()
        self.assertIs(keyrate.shannon_entropy, original)
        spans = tracer.take()
        prof = tracing.Profile()
        counts = prof.add_task(spans)
        self.assertGreater(prof.calls["linalg.shannon_entropy"], 0)
        self.assertEqual(prof.calls["keyrate.noise_threshold"], 1)
        self.assertEqual(counts["keyrate.key_rate_bound.in_threshold"],
                         prof.calls["keyrate.key_rate_bound"])
        own = sum(prof.self_time.values())
        self.assertAlmostEqual(own, prof.total["task"], delta=1e-9)


class Spec(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(wl.WORKLOADS))

    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(100))), (89, 90.0, 10))
        self.assertEqual(run.tail(list(range(40))), (29, 75.0, 10))
        self.assertEqual(run.tail(list(range(12)))[::2], (6, 5))


if __name__ == "__main__":
    unittest.main()
