import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sqkd import attack, cli, keyrate, linalg, simulate
from sqkd.keyrate import ChannelStatistics


def run_cli(*argv):
    return cli.main(list(argv))


def read_rate(output):
    for line in output.splitlines():
        if line.startswith("rate"):
            return float(line.split("=")[1])
    raise AssertionError(f"no rate line in output:\n{output}")


class TestStatsFile:
    def test_round_trip_is_exact(self, tmp_path):
        stats = keyrate.symmetric_stats(0.05, 0.03, 0.07)
        path = tmp_path / "stats.txt"
        cli.write_stats_file(str(path), stats)
        again = cli.parse_stats_file(str(path))
        assert np.array_equal(again.p, stats.p)
        assert again.p_pm == stats.p_pm and again.p_mp == stats.p_mp

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "stats.txt"
        body = "\n".join(["# full-line comment",
                          "p000 = 1.0  # trailing comment", "p001 = 0",
                          "p010=0", "p011 = 0", "p100 = 0", "p101 = 0",
                          "p110 = 0", "p111 = 1", "p_plus_minus = 0",
                          "p_minus_plus = 0", ""])
        path.write_text(body)
        stats = cli.parse_stats_file(str(path))
        assert stats.p[0, 0, 0] == 1.0

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("p000 = 1.0\n")
        with pytest.raises(cli.StatsFileError, match="p001"):
            cli.parse_stats_file(str(path))

    def test_duplicate_key_named(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("p000 = 1.0\np000 = 0.5\n")
        with pytest.raises(cli.StatsFileError, match="duplicate key 'p000'"):
            cli.parse_stats_file(str(path))

    def test_unknown_key_with_line_number(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("p000 = 1.0\nbogus = 0.5\n")
        with pytest.raises(cli.StatsFileError, match=r":2: unknown key"):
            cli.parse_stats_file(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("p000 = banana\n")
        with pytest.raises(cli.StatsFileError, match="not a number"):
            cli.parse_stats_file(str(path))

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("p000 = 1.5\n")
        with pytest.raises(cli.StatsFileError, match=r"outside \[0, 1\]"):
            cli.parse_stats_file(str(path))

    def test_byte_order_mark_skipped(self, tmp_path):
        # Notepad and other Windows editors start UTF-8 files with a BOM.
        stats = keyrate.symmetric_stats(0.05, 0.03, 0.07)
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        cli.write_stats_file(str(plain), stats)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        again = cli.parse_stats_file(str(bom))
        assert again.p.tobytes() == stats.p.tobytes()
        assert again.p_pm == stats.p_pm and again.p_mp == stats.p_mp

    def test_text_not_utf8_named(self, tmp_path, capsys):
        # Notepad's "Unicode" encoding is UTF-16 with a BOM; a stray 0xff
        # byte mid-file fails the same way.
        stats = keyrate.symmetric_stats(0.05, 0.03, 0.07)
        plain = tmp_path / "plain.txt"
        cli.write_stats_file(str(plain), stats)
        utf16, stray = tmp_path / "utf16.txt", tmp_path / "stray.txt"
        utf16.write_bytes(plain.read_text().encode("utf-16"))
        stray.write_bytes(plain.read_bytes() + b"# \xff\n")
        for path in (utf16, stray):
            with pytest.raises(cli.StatsFileError, match=f"^{path}: not UTF-8 text$"):
                cli.parse_stats_file(str(path))
            assert run_cli("rate", "--stats", str(path)) == 1
            assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"


class TestRateCommand:
    def test_noiseless_exit_zero(self, capsys):
        assert run_cli("rate", "--symmetric", "0,0,0") == 0
        assert read_rate(capsys.readouterr().out) == 1.0

    def test_above_threshold_exit_two(self, capsys):
        assert run_cli("rate", "--symmetric", "0.06,0.06,0.06") == 2
        assert read_rate(capsys.readouterr().out) < 0.0

    def test_abort_exit_three(self, tmp_path, capsys):
        stats = ChannelStatistics(
            p=np.array([[[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]]),
            p_pm=0.0, p_mp=0.0)
        path = tmp_path / "noisy.txt"
        cli.write_stats_file(str(path), stats)
        assert run_cli("rate", "--stats", str(path)) == 3

    def test_input_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("p000 = 1.0\n")
        assert run_cli("rate", "--stats", str(path)) == 1
        assert "p001" in capsys.readouterr().err
        assert run_cli("rate", "--symmetric", "a,0.1,0.1") == 1
        assert "--symmetric: 'a' is not a number" in capsys.readouterr().err

    def test_file_and_symmetric_agree(self, tmp_path, capsys):
        stats = keyrate.symmetric_stats(0.02, 0.04, 0.03)
        path = tmp_path / "stats.txt"
        cli.write_stats_file(str(path), stats)
        assert run_cli("rate", "--stats", str(path)) == 0
        from_file = capsys.readouterr().out
        assert run_cli("rate", "--symmetric", "0.02,0.04,0.03") == 0
        assert capsys.readouterr().out == from_file

    def test_denormalized_needs_normalize_flag(self, tmp_path, capsys):
        stats = keyrate.symmetric_stats(0.05, 0.05, 0.05)
        p = stats.p * 1.001  # slightly denormalized blocks
        path = tmp_path / "stats.txt"
        cli.write_stats_file(str(path), ChannelStatistics(p=p, p_pm=0.05,
                                                          p_mp=0.05))
        assert run_cli("rate", "--stats", str(path)) == 1
        capsys.readouterr()
        assert run_cli("rate", "--stats", str(path), "--normalize") == 0

    def test_block_sums_whose_mean_exceeds_one_named(self, tmp_path, capsys):
        # Each block is within the 1e-6 of the stats-file format, but the
        # halved entries sum to 1.00000025, more than the entropies accept.
        p = np.zeros((2, 2, 2))
        p[0, 0, 0], p[0, 0, 1], p[1, 1, 0], p[1, 1, 1] = 0.9 + 5e-7, 0.1, 0.1, 0.9
        path = tmp_path / "over.txt"
        cli.write_stats_file(str(path), ChannelStatistics(p=p, p_pm=0.0, p_mp=0.0))
        assert run_cli("rate", "--stats", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: conditional blocks p000..p011 and p100..p111 "
                              "sum to 1.0000005 and 1.0;")
        assert "at most 1e-09" in err


class TestThresholdCommand:
    @pytest.mark.parametrize("scenario,ratio,expected", [
        ("equal", "1", 0.0534),
        ("fwd-half", "1", 0.0616),
        ("rev-half", "2", 0.0625),
    ])
    def test_table_cells(self, capsys, scenario, ratio, expected):
        assert run_cli("threshold", "--scenario", scenario,
                       "--qx-ratio", ratio) == 0
        line = capsys.readouterr().out.strip()
        assert len(line.split(".")[1]) == 6
        assert float(line) == pytest.approx(expected, abs=5e-4)

    @pytest.mark.parametrize("ratio,printed", [
        ("0.5", ("0.059285", "0.069899", "0.089670")),
        ("1", ("0.053495", "0.061680", "0.077942")),
        ("2", ("0.045144", "0.050566", "0.062542")),
        # q_x reaches 1/2 before these rates turn negative within a scan step.
        ("200", ("0.002042", "0.002050", "0.002153")),
        ("501", ("0.000875", "0.000876", "0.000906")),
    ])
    def test_printed_thresholds(self, capsys, ratio, printed):
        for scenario, want in zip(("equal", "fwd-half", "rev-half"), printed):
            assert run_cli("threshold", "--scenario", scenario, "--qx-ratio", ratio) == 0
            assert capsys.readouterr().out == want + "\n"

    def test_invalid_tag_exit_one(self, capsys):
        assert run_cli("threshold", "--scenario", "diagonal",
                       "--qx-ratio", "1") == 1

    def test_non_finite_ratio_named(self, capsys):
        assert run_cli("threshold", "--scenario", "equal",
                       "--qx-ratio", "nan") == 1
        assert capsys.readouterr().err == (
            "error: qx_ratio = nan must be positive and finite\n")


class TestSweepCommand:
    def test_csv_shape_and_endpoints(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--scenario", "equal", "--qx-ratio", "1",
                       "--qmax", "0.08", "--steps", "81",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "Q,rate"
        assert len(lines) == 82
        q0, r0 = lines[1].split(",")
        assert float(q0) == 0.0 and float(r0) == 1.0
        rates = [float(line.split(",")[1]) for line in lines[1:]]
        qs = [float(line.split(",")[0]) for line in lines[1:]]
        threshold = keyrate.noise_threshold("equal", 1.0)
        sign_flips = [i for i in range(len(rates) - 1)
                      if rates[i] > 0 >= rates[i + 1]]
        assert len(sign_flips) == 1
        assert qs[sign_flips[0]] <= threshold <= qs[sign_flips[0] + 1]
        assert out.read_text().endswith("\n")

    @pytest.mark.parametrize("args,message", [
        (("--qx-ratio", "1", "--qmax", "2"),
         "error: q_max = 2.0 puts q_fwd = 2.0 outside [0, 1/2]"),
        (("--qx-ratio", "1", "--qmax", "nan"),
         "error: q_max = nan must be non-negative and finite"),
        (("--qx-ratio", "-1"), "error: qx_ratio = -1.0 is negative"),
    ], ids=["qmax-2", "qmax-nan", "ratio-negative"])
    def test_bad_range_named(self, tmp_path, capsys, args, message):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--scenario", "equal", *args,
                       "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    # sha256 of the default sweeps (--qmax 0.1 --steps 101), recorded when
    # every grid point took its own key_rate_bound call.
    @pytest.mark.parametrize("scenario,ratio,digest", [
        ("equal", "0.5", "c6c94286a0e954be41d83c3d34283b60f0a063311f56b227134d971e7d05244c"),
        ("equal", "1", "ca77c73865be1dd161c110925fab4e42dc67780d17b9df36d5a4308dc726fe9c"),
        ("equal", "2", "0bc6945c6d11f7fce9bd3d3a39f267a8c7fca0b3697d7f6e289fe24db0e09387"),
        ("fwd-half", "0.5", "7a4791ee7f2f55afe111f632e04db9d71afab7ce0048673f9e6df10645306ac0"),
        ("fwd-half", "1", "7e686521eeb09af7ce82ef59464349e98b3a77213d8931473e837349ca26be7c"),
        ("fwd-half", "2", "509534fafab1b8971eecc61596846c7d850636395051c022abf90472e5d54f20"),
        ("rev-half", "0.5", "1100aa489647bbf1b7ab6718d9b52e9a98547e2a6f5dc38c2549bb09cdb1779e"),
        ("rev-half", "1", "6fc2145f6ae0ec1cd904a437743d26cb16975a849384fa7394e6585bd1f116e1"),
        ("rev-half", "2", "e31f2b7131aafaeb23b8abec7d5101098ae77b87bf9f78accdae9472dc451d4e"),
    ])
    def test_default_csv_matches_recorded_digest(self, tmp_path, capsys, scenario, ratio, digest):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--scenario", scenario, "--qx-ratio", ratio,
                       "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_unwritable_path_exit_one(self, tmp_path, capsys):
        assert run_cli("sweep", "--scenario", "equal", "--qx-ratio", "1",
                       "--out", str(tmp_path / "no" / "dir.csv")) == 1


class TestSimulateCommand:
    def test_identity_run_is_noiseless(self, tmp_path, capsys):
        out = tmp_path / "stats.txt"
        assert run_cli("simulate", "--attack", "identity",
                       "--iterations", "20000", "--seed", "5",
                       "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "key rate bound (empirical statistics) = 1" in text
        stats = cli.parse_stats_file(str(out))
        assert stats.p[0, 0, 0] == 1.0 and stats.p[1, 1, 1] == 1.0
        assert stats.p_pm == 0.0 and stats.p_mp == 0.0

    def test_repeat_run_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run_cli("simulate", "--attack", "symmetric:0.03,0.03",
                           "--iterations", "50000", "--seed", "21",
                           "--workers", "2", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_flag_has_no_effect(self, tmp_path, capsys):
        outs = [tmp_path / "w1.txt", tmp_path / "w2.txt"]
        for workers, out in zip(("1", "2"), outs):
            assert run_cli("simulate", "--attack", "symmetric:0.1,0.05",
                           "--iterations", "60000", "--seed", "8",
                           "--workers", workers, "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert run_cli("simulate", "--attack", "identity",
                       "--iterations", "100", "--workers", "0",
                       "--out", str(tmp_path / "w0.txt")) == 1
        assert "workers must be positive" in capsys.readouterr().err

    def test_random_attack_spec(self, tmp_path, capsys):
        out = tmp_path / "stats.txt"
        assert run_cli("simulate", "--attack", "random:2",
                       "--iterations", "50000", "--seed", "3",
                       "--out", str(out)) == 0
        assert "analytic" in capsys.readouterr().out

    def test_bad_attack_spec_exit_one(self, tmp_path, capsys):
        for spec in ("teleport", "random:x", "symmetric:a,0.1"):
            assert run_cli("simulate", "--attack", spec,
                           "--iterations", "100", "--out",
                           str(tmp_path / "x.txt")) == 1
            err = capsys.readouterr().err
            assert "attack spec" in err and repr(spec) in err

    @pytest.mark.parametrize("d", ["-1", "0", "33", "1000000000"])
    def test_random_dimension_checked_first(self, tmp_path, capsys, d):
        assert run_cli("simulate", "--attack", f"random:{d}", "--iterations", "100",
                       "--out", str(tmp_path / "x.txt")) == 1
        assert capsys.readouterr().err == "error: ancilla_dim must be in [1, 32]\n"

    def test_attack_statistics_taken_once(self, tmp_path):
        # The same statistics feed the sampler and the "analytic" column.
        # Frames are counted by code object, so every binding is caught.
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is attack.statistics.__code__:
                calls.append(frame)

        sys.setprofile(profile)
        try:
            code = run_cli("simulate", "--attack", "random:2", "--iterations", "2000",
                           "--out", str(tmp_path / "x.txt"))
        finally:
            sys.setprofile(None)
        assert code == 0 and len(calls) == 1

    def test_insufficient_data_named(self, tmp_path, capsys):
        assert run_cli("simulate", "--attack", "identity",
                       "--iterations", "2", "--seed", "1",
                       "--out", str(tmp_path / "x.txt")) == 1
        assert "no samples in class" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["identity", "symmetric:0.05,0.05", "random:4"])
    def test_negative_seed_named(self, tmp_path, capsys, spec):
        # Rejected before the attack is built: random:dE would hand the seed
        # to numpy, whose error does not name it.
        assert run_cli("simulate", "--attack", spec, "--seed", "-3",
                       "--iterations", "100", "--out", str(tmp_path / "x.txt")) == 1
        assert capsys.readouterr() == ("", "error: seed must fit in 64 unsigned bits\n")


class TestValidateCommand:
    def test_small_suite_passes(self, capsys):
        assert run_cli("validate", "--attacks", "12",
                       "--ancilla-dims", "1,2,4", "--seed", "9") == 0
        text = capsys.readouterr().out
        assert "all checks passed" in text
        # The identity attack is always included and the bound is tight
        # there, so the reported worst slack is zero, printed without a
        # minus sign.
        assert "worst slack (exact - bound) 0.000000000\n" in text

    @pytest.mark.parametrize("option,value,named", [
        ("--ancilla-dims", "1,64", "ancilla_dim"),
        ("--seed", "-1", "seed"),
        ("--ancilla-dims", ",1", "--ancilla-dims"),
    ], ids=["ancilla-dim-64", "negative-seed", "ancilla-dims-empty-entry"])
    def test_bad_input_exit_one(self, capsys, option, value, named):
        assert run_cli("validate", "--attacks", "3", option, value) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert named in err[0]

    def test_corrupted_unitary_detected(self, capsys):
        assert run_cli("validate", "--attacks", "3", "--seed", "9",
                       "--corrupt") == 4
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("u00,printed", [(1 + 3e-10, "6.000e-10"), (np.nan, "nan")],
                             ids=["between-the-cuts", "nan"])
    def test_attack_refused_statistics_fails_unitarity(self, monkeypatch, capsys,
                                                       u00, printed):
        # A residual of 6e-10 passes validate's 1e-9 cut, but at d = 1 it is
        # above what attack.statistics accepts (4.01e-10); a NaN passes neither.
        u_e = np.eye(2, dtype=complex) * u00
        monkeypatch.setattr(cli.attack_mod, "identity_attack", lambda: attack.CollectiveAttack(
            1, u_e, np.eye(2, dtype=complex)))
        assert run_cli("validate", "--attacks", "3", "--ancilla-dims", "1") == 4
        out, err = capsys.readouterr()
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL identity: unitarity identity residual {printed}"]
        assert f"worst identity residual {printed}," in out
        assert err == "" and "1 violation(s) found" in out

    def test_refused_member_leaves_its_stack_checked(self, monkeypatch, capsys):
        # Member 1 of the one random stack is refused statistics; the other
        # members are still checked, with the same statistics and Gram
        # matrices as in a clean run.
        random_attacks = attack.random_attacks
        soundness = attack.soundness
        checked = []

        def nudged(d_e, seeds):
            stack = random_attacks(d_e, seeds)
            u_e = stack.u_e.copy()
            u_e[1] *= 1 + 3e-10
            return attack.CollectiveAttack(d_e, u_e, stack.u_f)

        def spy(stats, g):
            checked.append((stats.p, stats.p_pm, stats.p_mp, g))
            return soundness(stats, g)

        monkeypatch.setattr(attack, "soundness", spy)
        argv = ("validate", "--attacks", "3", "--ancilla-dims", "1", "--seed", "9")
        assert run_cli(*argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(attack, "random_attacks", nudged)
        assert run_cli(*argv) == 4
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        assert len(fails) == 1
        assert fails[0].startswith("FAIL random seed=[9, 1]: unitarity identity residual 6.0")
        # Reports 0 and 1 are the fixed attacks, 2 to 4 the random ones.
        for clean, rest in zip(*checked):
            assert np.array_equal(np.delete(clean, 3, axis=0), rest)

    @pytest.mark.parametrize("extra,code,digest", [
        ((), 0, "4730ae6669fb8c75ff1fe034aa53a9272c4bd0f4e851351893f692ae21bf7ee0"),
        (("--corrupt",), 4,
         "58f52a4d30fe256dc94c753904a9fbc914aba9e14c9af75dc9f8fd214ca1eea0"),
    ], ids=["clean", "corrupt"])
    def test_output_matches_recorded_digest(self, monkeypatch, capsys, extra, code, digest):
        # The sha256 of stdout, recorded when every attack was still checked
        # on its own: checking them in stacks, on one CPU or two, must not
        # change a byte.
        for workers in (1, 2):
            monkeypatch.setattr(simulate, "_workers", lambda: workers)
            assert run_cli("validate", "--attacks", "60", "--ancilla-dims", "1,2,4,32",
                           "--seed", "3", *extra) == code
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (workers, out)

    def test_output_independent_of_cpu_count(self, monkeypatch, capsys):
        # Five threads on a shortened switch interval interleave the stacks
        # more finely than the cores alone would.
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 5):
                monkeypatch.setattr(simulate, "_workers", lambda: workers)
                assert run_cli("validate", "--attacks", "500", "--ancilla-dims", "1,2,4,32",
                               "--seed", "3") == 0
                outputs.append(capsys.readouterr().out)
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "checked 502 attacks" in outputs[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_a_stack_ends_the_run(self, monkeypatch, capsys, workers):
        # The first random stack (d = 32) to reach its statistics raises.
        # The run ends at once: no thread pulls another stack once the error
        # is raised, so the stacks not yet pulled are never built, and the
        # pool's threads are gone when validate returns.
        after_failure = []  # per random stack built: did a stack fail before?
        failed = []
        random_attacks = attack.random_attacks
        statistics = attack.statistics

        def spy(d_e, seeds):
            after_failure.append(bool(failed))
            return random_attacks(d_e, seeds)

        def failing(stack):
            if stack.ancilla_dim == 32 and not failed:
                failed.append(True)
                raise ValueError("boom")
            return statistics(stack)

        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        monkeypatch.setattr(attack, "random_attacks", spy)
        monkeypatch.setattr(attack, "statistics", failing)
        threads = threading.active_count()
        # 80 attacks at d = 32 make 20 stacks on any number of CPUs.
        assert run_cli("validate", "--attacks", "80", "--ancilla-dims", "32") == 1
        assert capsys.readouterr() == ("", "error: boom\n")
        assert sum(after_failure) <= workers
        assert len(after_failure) < 10 * workers
        assert threading.active_count() == threads

    def test_validate_starts_one_thread_fewer_than_it_pulls_on(self, monkeypatch, capsys):
        # The calling thread builds stacks too: min(workers, stacks) - 1 pool
        # threads, none on one CPU.  60 attacks at d = 1, 2, 4, 32 make 9
        # stacks.
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        for workers, want in ((1, 0), (2, 1), (5, 4)):
            monkeypatch.setattr(simulate, "_workers", lambda: workers)
            started.clear()
            assert run_cli("validate", "--attacks", "60", "--ancilla-dims", "1,2,4,32") == 0
            assert len(started) == want, (workers, started)
        capsys.readouterr()

    def test_one_bound_call_per_batch(self, monkeypatch, capsys):
        shapes = []
        bound = keyrate.key_rate_bound

        def counting(stats, **kwargs):
            shapes.append(stats.p.shape[:-3])
            return bound(stats, **kwargs)

        monkeypatch.setattr(keyrate, "key_rate_bound", counting)
        argv = ("validate", "--attacks", "60", "--ancilla-dims", "1,2,4,32", "--seed", "3")
        assert run_cli(*argv) == 0
        clean = capsys.readouterr().out
        # All 62 attacks' Gram matrices fit in one batch.
        assert shapes == [(62,)]
        # An 8 KiB budget cuts the unitaries into more stacks and the sound
        # attacks into more batches on any number of CPUs (62 rows take
        # 62 KiB), without changing a byte of the report.
        shapes.clear()
        monkeypatch.setattr(attack, "STACK_BYTES", 8 << 10)
        assert run_cli(*argv) == 0
        assert len(shapes) > 1 and sum(n for n, in shapes) == 62
        assert capsys.readouterr().out == clean
        assert hashlib.sha256(clean.encode()).hexdigest() == (
            "4730ae6669fb8c75ff1fe034aa53a9272c4bd0f4e851351893f692ae21bf7ee0")

    def test_batches_independent_of_cpu_count(self, monkeypatch, capsys):
        # One thread pulls every stack while five CPUs are reported: every
        # sound attack of a 500-attack run fits one thread's budget, so all
        # 502 are checked in one pass, as on any number of CPUs.
        shapes = []
        bound = keyrate.key_rate_bound

        def counting(stats, **kwargs):
            shapes.append(stats.p.shape[:-3])
            return bound(stats, **kwargs)

        monkeypatch.setattr(keyrate, "key_rate_bound", counting)
        monkeypatch.setattr(simulate, "_workers", lambda: 5)
        monkeypatch.setattr(simulate, "_pull_on_every_cpu",
                            lambda work, items: [work(iter(items))])
        assert run_cli("validate", "--attacks", "500", "--ancilla-dims", "1,2,4,32",
                       "--seed", "3") == 0
        assert "checked 502 attacks" in capsys.readouterr().out
        assert shapes == [(502,)]

    def test_bound_above_exact_rate_detected(self, monkeypatch, capsys):
        # Every bound raised by 10 exceeds its exact rate, which is at most 1.
        bound = keyrate.key_rate_bound

        def inflated(stats, **kwargs):
            report = bound(stats, **kwargs)
            return dataclasses.replace(report, rate=report.rate + 10.0)

        monkeypatch.setattr(keyrate, "key_rate_bound", inflated)
        assert run_cli("validate", "--attacks", "3", "--ancilla-dims", "1,2",
                       "--seed", "9") == 4
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in fails] == [
            "FAIL identity", "FAIL zmeasure"] + [
            f"FAIL random seed=[9, {idx}]" for idx in range(3)]
        assert all(": bound " in line and " exceeds exact rate " in line for line in fails)

    @pytest.mark.parametrize("patched", ["bound", "exact"])
    def test_nan_rate_fails_every_attack(self, monkeypatch, capsys, patched):
        # NaN passes a plain "rate > exact + tolerance" test, and the builtin
        # min drops a NaN slack; both must count as violations.
        bound, exact_rate = keyrate.key_rate_bound, attack._exact_rate

        def nan_bound(stats, **kwargs):
            report = bound(stats, **kwargs)
            return dataclasses.replace(report, rate=report.rate * np.nan)

        if patched == "bound":
            monkeypatch.setattr(keyrate, "key_rate_bound", nan_bound)
        else:
            monkeypatch.setattr(attack, "_exact_rate",
                                lambda stats, g: exact_rate(stats, g) * np.nan)
        assert run_cli("validate", "--attacks", "3", "--ancilla-dims", "1",
                       "--seed", "9") == 4
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in fails] == [
            "FAIL identity", "FAIL zmeasure"] + [
            f"FAIL random seed=[9, {idx}]" for idx in range(3)]
        assert all(" exceeds exact rate " in line and "nan" in line for line in fails)
        assert lines[len(fails)].endswith("worst slack (exact - bound) nan")
        assert lines[len(fails) + 1] == "5 violation(s) found"

    def test_s_bec_mismatch_detected(self, monkeypatch, capsys):
        # Records (0, 0, 0) and (0, 0, 1), rows 0 and 1 of the Gram matrix,
        # share one group, so the eigenvalues of that 2x2 block no longer
        # equal the halved statistics.  Blocks are zero-padded to the
        # largest group.  Like the real one, it takes a stack of Gram
        # matrices (..., 8, 8) and returns blocks (..., groups, n, n).
        def gram_blocks(g, groups):
            n = max(len(rows) for rows in groups)
            blocks = np.zeros(g.shape[:-2] + (len(groups), n, n), dtype=complex)
            for b, rows in enumerate(groups):
                blocks[..., b, :len(rows), :len(rows)] = g[..., rows, :][..., rows]
            return blocks

        merged = [[0, 1]] + [[r] for r in range(2, 8)]
        monkeypatch.setattr(attack, "gram_blocks", gram_blocks)
        monkeypatch.setattr(attack, "BOB_REGISTER_GROUPS", merged)
        assert run_cli("validate", "--attacks", "3", "--ancilla-dims", "1,2",
                       "--seed", "9") == 4
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        # Attacks 0 and 2 share a stack (d = 1) checked before attack 1's,
        # yet the lines come in attack order.
        assert [line.split(":")[0] for line in fails] == [
            f"FAIL random seed=[9, {idx}]" for idx in range(3)]
        assert all(": S(BEC) mismatch " in line for line in fails)

    def test_eigen_blocks_at_most_8x8_at_d32(self, monkeypatch, capsys):
        # The exact rate and the S(BEC) check eigendecompose Gram blocks of
        # the eight records, never d x d blocks.
        orders = []
        eigvalsh = linalg.np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            orders.append(np.shape(a)[-1])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(linalg.np.linalg, "eigvalsh", spy)
        assert run_cli("validate", "--attacks", "2", "--ancilla-dims", "32") == 0
        assert "checked 4 attacks" in capsys.readouterr().out
        assert orders and max(orders) <= 8


def _abort_file(tmp_path):
    path = tmp_path / "noisy.txt"
    cli.write_stats_file(str(path), ChannelStatistics(
        p=np.array([[[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]]), p_pm=0.0, p_mp=0.0))
    return str(path)


class TestErrorsReachMain:
    # Commands raise; main alone prints one stderr line and returns the code.
    @pytest.mark.parametrize("argv,code,prefix", [
        (lambda tmp: ["rate", "--stats", str(tmp / "missing.txt")], 1, "error: "),
        (lambda tmp: ["rate", "--stats", _abort_file(tmp)], 3, "abort: "),
        (lambda tmp: ["threshold", "--scenario", "equal", "--qx-ratio", "0"], 1, "error: "),
        (lambda tmp: ["sweep", "--scenario", "equal", "--qx-ratio", "1",
                      "--out", str(tmp / "no" / "x.csv")], 1, "error: "),
        (lambda tmp: ["simulate", "--attack", "identity", "--iterations", "1000",
                      "--out", str(tmp / "no" / "x.txt")], 1, "error: "),
        (lambda tmp: ["validate", "--seed", "-1"], 1, "error: "),
    ], ids=["rate-missing-file", "rate-abort", "threshold-ratio-zero", "sweep-missing-dir",
            "simulate-missing-dir", "validate-negative-seed"])
    def test_one_stderr_line_and_exit_code(self, tmp_path, capsys, argv, code, prefix):
        assert run_cli(*argv(tmp_path)) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(prefix)

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 7.28 TiB for an array", "Unable to allocate 7.28 TiB for an array"),
        ("", "out of memory")], ids=["numpy", "no-message"])
    def test_failed_allocation(self, monkeypatch, capsys, message, line):
        # Raised, not provoked: a host that overcommits memory would try to
        # allocate.
        def sweep(args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_sweep", sweep)
        assert run_cli("sweep", "--scenario", "equal", "--qx-ratio", "1",
                       "--out", "unused.csv") == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")

    @pytest.mark.parametrize("argv,line", [
        (lambda tmp: ["simulate", "--attack", "identity", "--iterations", "1" + "0" * 27,
                      "--out", str(tmp / "x.txt")], "error: iterations must be below 2**63"),
        (lambda tmp: ["validate", "--attacks", "1" + "0" * 27, "--ancilla-dims", "1"],
         "error: --attacks must be at most 2**62"),
    ], ids=["simulate-iterations", "validate-attacks"])
    def test_huge_count_named(self, tmp_path, capsys, argv, line):
        # Too large for a C ssize_t: rejected up front, not an OverflowError
        # from len() of the chunks or of the stack plan.
        assert run_cli(*argv(tmp_path)) == 1
        assert capsys.readouterr() == ("", line + "\n")

    def test_error_inside_validate_loop(self, monkeypatch, capsys):
        def statistics(stack):
            raise ValueError("boom")

        monkeypatch.setattr(attack, "statistics", statistics)
        # A pool thread may raise while the calling thread is still pulling
        # and building stacks; every run must still end with the one error
        # line.  Five threads on a short switch interval make that
        # interleaving likely.
        monkeypatch.setattr(simulate, "_workers", lambda: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(40):
                assert run_cli("validate", "--attacks", "3") == 1
                assert capsys.readouterr() == ("", "error: boom\n")
        finally:
            sys.setswitchinterval(interval)


# Faults of five rounds of "allocate three 1 MiB arrays, free them", after
# one uncounted round, before and after ``cli.main`` in a fresh interpreter
# (other tests have already run ``main`` in this one).
HEAP_PROBE = """
import json, resource
import numpy as np
from sqkd import cli

def faults():
    arrays = [np.ones(1 << 17) for _ in range(3)]
    del arrays
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        arrays = [np.ones(1 << 17) for _ in range(3)]
        del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start

before = faults()
code = cli.main(["rate", "--symmetric", "0.01,0.01,0.01"])
print(json.dumps([code, before, faults()]))
"""


def _no_c_library(name):
    raise OSError("cannot load the C library")


class TestHeapMemoryKept:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_freed_memory_is_reused_after_main(self):
        src = Path(cli.__file__).resolve().parents[1]
        run = subprocess.run([sys.executable, "-c", HEAP_PROBE], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        code, before, after = json.loads(run.stdout.splitlines()[-1])
        # By default glibc hands the freed arrays back and every round
        # faults their pages in again; once main has run, the rounds reuse
        # the heap.
        assert code == 0
        assert before >= 5 * 256, before
        assert after <= 16, after

    @pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                             ids=["no-mallopt", "no-libc"])
    def test_main_runs_without_mallopt(self, monkeypatch, capsys, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cli._keep_freed_memory.cache_clear()
        try:
            assert run_cli("rate", "--symmetric", "0.01,0.01,0.01") == 0
        finally:
            cli._keep_freed_memory.cache_clear()
        assert "rate" in capsys.readouterr().out


class TestParser:
    def test_built_once_with_commands_looked_up_per_call(self, monkeypatch, capsys):
        assert cli._build_parser() is cli._build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_threshold", lambda args: calls.append(args) or 0)
        assert run_cli("threshold", "--scenario", "equal", "--qx-ratio", "1") == 0
        assert len(calls) == 1 and calls[0].scenario == "equal"
        assert capsys.readouterr().out == ""
