import hashlib

import numpy as np
import pytest

from sqkd import attack, cli, keyrate, linalg
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
        stats = keyrate.symmetric_stats(keyrate.ScenarioParams(0.05, 0.03, 0.07))
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
        stats = keyrate.symmetric_stats(keyrate.ScenarioParams(0.02, 0.04, 0.03))
        path = tmp_path / "stats.txt"
        cli.write_stats_file(str(path), stats)
        assert run_cli("rate", "--stats", str(path)) == 0
        from_file = capsys.readouterr().out
        assert run_cli("rate", "--symmetric", "0.02,0.04,0.03") == 0
        assert capsys.readouterr().out == from_file

    def test_denormalized_needs_normalize_flag(self, tmp_path, capsys):
        stats = keyrate.symmetric_stats(keyrate.ScenarioParams(0.05, 0.05, 0.05))
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

    def test_insufficient_data_named(self, tmp_path, capsys):
        assert run_cli("simulate", "--attack", "identity",
                       "--iterations", "2", "--seed", "1",
                       "--out", str(tmp_path / "x.txt")) == 1
        assert "no samples in class" in capsys.readouterr().err

    def test_negative_seed_named(self, tmp_path, capsys):
        assert run_cli("simulate", "--attack", "random:4", "--seed", "-3",
                       "--iterations", "100", "--out", str(tmp_path / "x.txt")) == 1
        assert "seed" in capsys.readouterr().err


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

    @pytest.mark.parametrize("extra,code,digest", [
        ((), 0, "4730ae6669fb8c75ff1fe034aa53a9272c4bd0f4e851351893f692ae21bf7ee0"),
        (("--corrupt",), 4,
         "58f52a4d30fe256dc94c753904a9fbc914aba9e14c9af75dc9f8fd214ca1eea0"),
    ], ids=["clean", "corrupt"])
    def test_output_matches_recorded_digest(self, capsys, extra, code, digest):
        # The sha256 of stdout, recorded when every attack was still checked
        # on its own: checking them in stacks must not change a byte.
        assert run_cli("validate", "--attacks", "60", "--ancilla-dims", "1,2,4,32",
                       "--seed", "3", *extra) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

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


class TestParser:
    def test_built_once_with_commands_looked_up_per_call(self, monkeypatch, capsys):
        assert cli._build_parser() is cli._build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_threshold", lambda args: calls.append(args) or 0)
        assert run_cli("threshold", "--scenario", "equal", "--qx-ratio", "1") == 0
        assert len(calls) == 1 and calls[0].scenario == "equal"
        assert capsys.readouterr().out == ""
