import dataclasses
import hashlib
import math

import numpy as np
import pytest

from sqkd import attack, keyrate, linalg
from sqkd.keyrate import ChannelStatistics, TooNoisyError
from conftest import make_attack_pool, report_bytes
from oracles import independent_rate, rho_bec


def stats_from_blocks(block0, block1, p_pm=0.0, p_mp=0.0):
    p = np.array([block0, block1], dtype=float).reshape(2, 2, 2)
    return ChannelStatistics(p=p, p_pm=p_pm, p_mp=p_mp)


NOISELESS = keyrate.symmetric_stats(0.0, 0.0, 0.0)


class TestSymmetricStats:
    def test_noiseless(self):
        assert NOISELESS.p[0, 0, 0] == 1.0
        assert NOISELESS.p[1, 1, 1] == 1.0
        assert NOISELESS.p.sum() == 2.0
        assert NOISELESS.p_pm == 0.0 and NOISELESS.p_mp == 0.0

    def test_product_values(self):
        s = keyrate.symmetric_stats(0.1, 0.2, 0.1)
        assert s.p[0, 0, 0] == pytest.approx(0.72, abs=1e-15)
        assert s.p[0, 0, 1] == pytest.approx(0.18, abs=1e-15)
        assert s.p[0, 1, 0] == pytest.approx(0.02, abs=1e-15)
        assert s.p[0, 1, 1] == pytest.approx(0.08, abs=1e-15)

    def test_blocks_always_normalized(self, rng):
        for _ in range(50):
            qf, qr, qx = rng.random(3) * 0.5
            s = keyrate.symmetric_stats(qf, qr, qx)
            np.testing.assert_allclose(s.p.reshape(2, 4).sum(axis=1), 1.0,
                                       atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^q_fwd = 0.6 outside \[0, 1/2\]$"):
            keyrate.symmetric_stats(0.6, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^q_x = -0.01 outside \[0, 1/2\]$"):
            keyrate.symmetric_stats(0.1, 0.1, -0.01)


class TestValidateStatistics:
    def test_accepts_attack_derived(self):
        keyrate.validate_statistics(NOISELESS)

    def test_rejects_denormalized_block(self):
        bad = stats_from_blocks([0.9, 0, 0, 0], [0, 0, 0, 1.0])
        with pytest.raises(ValueError):
            keyrate.validate_statistics(bad)

    def test_block_sums_must_not_exceed_one_on_average(self):
        # Both blocks pass the 1e-6 per-block tolerance; only the mean of
        # the two sums decides, as the entropies accept an excess of 1e-9.
        over = stats_from_blocks([0.9 + 5e-7, 0.1, 0, 0], [0, 0, 0.1, 0.9])
        with pytest.raises(ValueError, match=r"p000\.\.p011 and p100\.\.p111 sum to "
                                             r"1\.0000005 and 1\.0; .* at most 1e-09"):
            keyrate.validate_statistics(over)
        balanced = stats_from_blocks([0.9 + 5e-7, 0.1, 0, 0], [0, 0, 0.1, 0.9 - 5e-7])
        assert keyrate.key_rate_bound(balanced).rate == 0.4310044064105385

    @pytest.mark.parametrize("bad, match", [
        (stats_from_blocks([1.5, -0.5, 0, 0], [0, 0, 0, 1.0]), None),
        (stats_from_blocks([1, 0, 0, 0], [0, 0, 0, 1.0], p_pm=math.nan),
         r"p_pm is not finite"),
        (stats_from_blocks([math.nan, 0, 0, 0], [0, 0, 0, 1.0]),
         r"p\[0,0,0\] is not finite"),
    ], ids=["out-of-range", "nan-p_pm", "nan-p000"])
    def test_rejects_out_of_range_entry(self, bad, match):
        with pytest.raises(ValueError, match=match):
            keyrate.validate_statistics(bad)


class TestCrossOverlapLowerBound:
    # KeyRateReport.b, the lower bound B on Eve's critical overlap.
    def test_noiseless_is_one(self):
        assert keyrate.key_rate_bound(NOISELESS).b == pytest.approx(1.0, abs=1e-15)

    def test_full_x_noise_is_zero(self):
        s = stats_from_blocks([1, 0, 0, 0], [0, 0, 0, 1], p_pm=0.5, p_mp=0.5)
        assert keyrate.key_rate_bound(s).b == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_hand_evaluation(self):
        s = keyrate.symmetric_stats(0.05, 0.05, 0.05)
        # Nine-term formula evaluated by hand from the product entries:
        # p000 = p111 = 0.9025, four entries of 0.0475, two of 0.0025.
        expected = (1.0 - 0.05 - 0.05
                    - math.sqrt(0.9025 * 0.0025) - math.sqrt(0.0025 * 0.0025)
                    - math.sqrt(0.0025 * 0.9025) - 4 * 0.0475)
        assert expected == pytest.approx(0.6125, abs=1e-12)
        assert keyrate.key_rate_bound(s).b == pytest.approx(expected, abs=1e-12)


class TestCapCalB:
    # KeyRateReport.cal_b.  Noiseless Z statistics have no cross terms, so
    # p_pm = p_mp = (1 - b) / 2 gives B = b.
    @pytest.mark.parametrize("b,expected", [(1.0, 1.0), (-0.3, 0.0), (0.5, 0.25)])
    def test_values(self, b, expected):
        p_x = (1.0 - b) / 2
        report = keyrate.key_rate_bound(ChannelStatistics(p=NOISELESS.p, p_pm=p_x, p_mp=p_x))
        assert report.b == pytest.approx(b, abs=1e-15)
        assert report.cal_b == expected


class TestLambdaTilde:
    def test_noiseless(self):
        assert keyrate.lambda_tilde(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_symmetric_without_overlap_knowledge(self, p):
        assert keyrate.lambda_tilde(p, p, 0.0) == 0.5

    def test_abort_when_p000_vanishes(self):
        with pytest.raises(TooNoisyError):
            keyrate.lambda_tilde(0.0, 0.5, 0.1)

    @pytest.mark.parametrize("args, match", [
        ((math.nan, 0.5, 0.1), r"^p000 = nan is not finite$"),
        ((0.5, math.inf, 0.1), r"^p111 = inf is not finite$"),
        ((0.5, -0.6, 0.0), r"^p111 = -0.6 is negative$"),
        ((0.5, 0.5, -1.0), r"^cal_b = -1.0 is negative$"),
        ((math.nan, 0.5, -1.0), r"^p000 = nan is not finite$"),
    ], ids=["nan-p000", "inf-p111", "negative-p111", "negative-cal_b", "nan-before-negative"])
    def test_rejects_bad_argument_by_name(self, args, match):
        with pytest.raises(ValueError, match=match):
            keyrate.lambda_tilde(*args)

    def test_stack_names_the_first_failing_member(self):
        with pytest.raises(ValueError, match=r"^member 1: p111 = -0.1 is negative$"):
            keyrate.lambda_tilde([0.5, 0.5, 0.0], [0.5, -0.1, 0.5], 0.0)

    def test_unrealizable_input_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            assert keyrate.lambda_tilde(1.0, 0.04, 1.0) == 1.0

    def test_matches_sigma1_eigenvalues_for_explicit_attacks(self):
        # With the true squared overlap, the closed form reproduces both
        # eigenvalues of the normalized "agree, no flips" ancilla block.
        for atk in make_attack_pool(40, seed=771):
            e000 = atk.records[0, 0, 0]
            e131 = atk.records[1, 1, 1]
            sigma1 = np.outer(e000, e000.conj()) + np.outer(e131, e131.conj())
            t1 = np.trace(sigma1).real
            lam_top = linalg.hermitian_eigenvalues(sigma1 / t1)[0]
            overlap_sq = abs(np.vdot(e000, e131)) ** 2
            p000 = float(np.vdot(e000, e000).real)
            p111 = float(np.vdot(e131, e131).real)
            lam = keyrate.lambda_tilde(p000, p111, overlap_sq)
            assert lam == pytest.approx(lam_top, abs=1e-9)
            # A smaller assumed overlap can only push the entropy bound up.
            s_true = linalg.binary_entropy(lam_top)
            for shrink in (0.5, 0.1, 0.0):
                lam_lo = keyrate.lambda_tilde(p000, p111, shrink * overlap_sq)
                assert linalg.binary_entropy(lam_lo) >= s_true - 1e-9


class TestEntropyPieces:
    def test_s_bec_noiseless(self):
        assert keyrate.key_rate_bound(NOISELESS).s_bec == pytest.approx(1.0, abs=1e-12)

    def test_s_bec_uniform(self):
        # Every step by hand: B = 1 - 7/4 < 0, so lambda_tilde = 1/2; the
        # four register blocks weigh 1/4 each, so S(EC) <= 2 + 3/4 + 1/4.
        # rate = 3 - 3 + h(1/2) - H(uniform joint) = 3 - 3 + 1 - 2.
        report = keyrate.key_rate_bound(stats_from_blocks([0.25] * 4, [0.25] * 4))
        assert report.s_bec == pytest.approx(3.0, abs=1e-12)
        assert report.lambda_tilde == 0.5
        assert report.s_ec_upper == pytest.approx(3.0, abs=1e-12)
        assert report.rate == pytest.approx(-1.0, abs=1e-12)

    def test_s_ec_upper_noiseless(self):
        assert keyrate.key_rate_bound(NOISELESS).s_ec_upper == pytest.approx(0.0, abs=1e-12)

    def test_s_ec_upper_unit_blocks(self):
        # B = 0, so lambda_tilde = 1/2: the one block present costs 1 bit.
        s = stats_from_blocks([1, 0, 0, 0], [0, 0, 0, 1], p_pm=0.5, p_mp=0.5)
        report = keyrate.key_rate_bound(s)
        assert report.lambda_tilde == 0.5
        assert report.s_ec_upper == pytest.approx(1.0, abs=1e-12)

    def test_s_ec_upper_dominates_exact(self):
        # The bound must sit above the exact entropy of Eve's side
        # information, eigendecomposed from the extended state.
        for atk in make_attack_pool(40, seed=772):
            stats = attack.statistics(atk)
            report = keyrate.key_rate_bound(stats)
            rho_ec = rho_bec(atk).sum(axis=0)
            assert report.s_ec_upper >= linalg.von_neumann_entropy(rho_ec) - 1e-9

    def test_s_ec_upper_monotone_in_overlap_bound(self):
        # Less overlap knowledge can only loosen (raise) the bound: more X
        # noise at the same Z statistics lowers B, from about 0.77 to below 0.
        s = keyrate.symmetric_stats(0.04, 0.04, 0.0)
        p_x = np.linspace(0.0, 0.4, 9)
        report = keyrate.key_rate_bound(ChannelStatistics(
            p=np.broadcast_to(s.p, p_x.shape + s.p.shape), p_pm=p_x, p_mp=p_x))
        assert report.cal_b[0] > 0.5 and report.cal_b[-1] == 0.0
        assert np.all(np.diff(report.cal_b) <= 0.0)
        assert np.all(np.diff(report.s_ec_upper) >= -1e-12)

    def test_p_alice_zero(self):
        assert keyrate.key_rate_bound(NOISELESS).p_a0 == 0.5
        sym = keyrate.symmetric_stats(0.13, 0.21, 0.0)
        assert keyrate.key_rate_bound(sym).p_a0 == pytest.approx(0.5, abs=1e-12)
        lopsided = stats_from_blocks([0.7, 0.1, 0.15, 0.05],
                                     [0.2, 0.3, 0.1, 0.4])
        assert keyrate.key_rate_bound(lopsided).p_a0 == pytest.approx(
            0.5 * (0.7 + 0.15 + 0.1 + 0.2), abs=1e-15)

    def test_h_b_given_a_noiseless(self):
        assert keyrate.h_b_given_a(NOISELESS) == pytest.approx(0.0, abs=1e-12)

    def test_h_b_given_a_uniform_joint(self):
        s = stats_from_blocks([0.25] * 4, [0.25] * 4)
        assert keyrate.h_b_given_a(s) == pytest.approx(1.0, abs=1e-12)

    def test_h_b_given_a_symmetric_is_reverse_noise_entropy(self, rng):
        # For the product scenario the raw keys disagree exactly when the
        # return pass flips, so H(B|A) = h(q_rev); checked against the
        # four-cell joint distribution built by hand.
        for _ in range(20):
            qf, qr = rng.random(2) * 0.5
            s = keyrate.symmetric_stats(qf, qr, 0.0)
            joint = [0.5 * (s.p[0, 0, 0] + s.p[1, 0, 0]),
                     0.5 * (s.p[0, 0, 1] + s.p[1, 0, 1]),
                     0.5 * (s.p[0, 1, 0] + s.p[1, 1, 0]),
                     0.5 * (s.p[0, 1, 1] + s.p[1, 1, 1])]
            pa0 = joint[0] + joint[2]
            by_hand = (-sum(v * math.log2(v) for v in joint if v > 0)
                       + (pa0 * math.log2(pa0) + (1 - pa0) * math.log2(1 - pa0)
                          if 0 < pa0 < 1 else 0.0))
            assert keyrate.h_b_given_a(s) == pytest.approx(by_hand, abs=1e-12)
            assert keyrate.h_b_given_a(s) == pytest.approx(
                linalg.binary_entropy(qr), abs=1e-12)


class TestKeyRateBound:
    def test_noiseless_rate_is_one(self):
        report = keyrate.key_rate_bound(NOISELESS)
        assert report.rate == pytest.approx(1.0, abs=1e-12)
        assert report.b == pytest.approx(1.0, abs=1e-15)
        assert report.cal_b == pytest.approx(1.0, abs=1e-15)
        assert report.lambda_tilde == pytest.approx(1.0, abs=1e-15)

    def test_above_threshold_rate_is_negative(self):
        s = keyrate.symmetric_stats(0.06, 0.06, 0.06)
        assert keyrate.key_rate_bound(s).rate < 0.0

    def test_matches_independent_reimplementation(self, rng):
        cases = [(0.03, 0.03, 0.03)] + [tuple(rng.random(3) * 0.4) for _ in range(30)]
        for qs in cases:
            s = keyrate.symmetric_stats(*qs)
            want = independent_rate(s.p, s.p_pm, s.p_mp)
            assert keyrate.key_rate_bound(s).rate == pytest.approx(want, abs=1e-12)
        assert keyrate.key_rate_bound(
            keyrate.symmetric_stats(*cases[0])).rate > 0.0

    def test_report_joint_sums_to_one(self):
        s = keyrate.symmetric_stats(0.04, 0.02, 0.03)
        report = keyrate.key_rate_bound(s)
        assert sum(report.joint) == pytest.approx(1.0, abs=1e-9)
        assert report.rate == pytest.approx(
            report.s_bec - report.s_ec_upper - report.h_b_given_a, abs=1e-12)

    def test_block_sum_excess_within_tolerance_gives_a_rate(self):
        # p_a0 = 1 + 4.5e-10, which the block sums allow; unrealizable, so
        # lambda_tilde is clamped with a warning.
        s = stats_from_blocks([1.0, 0.0, 9e-10, 0.0], [1.0, 0.0, 0.0, 0.0])
        with pytest.warns(UserWarning, match="clamped"):
            report = keyrate.key_rate_bound(s)
        assert np.isfinite(report.rate)

    def test_abort_propagates(self):
        s = stats_from_blocks([0, 0, 0, 1], [0, 0, 0, 1])
        with pytest.raises(TooNoisyError):
            keyrate.key_rate_bound(s)


class TestStacks:
    def test_layout_and_member_types(self):
        # A Fortran-ordered stack is stored in C order, so that each member's
        # sums round as the member's own do.
        p = np.asfortranarray(np.stack([NOISELESS.p, 0.5 * np.ones((2, 2, 2)) / 2]))
        stack = ChannelStatistics(p=p, p_pm=[0.0, 0.1], p_mp=0.0)
        assert stack.p.flags.c_contiguous and not stack.p.flags.writeable
        assert stack.p_mp.shape == (2,) and not stack.p_mp.flags.writeable
        report = keyrate.key_rate_bound(stack)
        assert report.joint.shape == (2, 4) and report.rate.shape == (2,)
        for m in range(2):
            alone = keyrate.key_rate_bound(ChannelStatistics(
                p=p[m], p_pm=stack.p_pm[m], p_mp=0.0))
            assert type(alone.rate) is float and type(alone.joint) is tuple
            assert report_bytes(report, m) == report_bytes(alone)

    def test_first_failing_member_named(self):
        # Member 1 is too noisy and member 2 invalid: member 1's error wins
        # although validation runs over the whole stack first.
        good = NOISELESS.p
        noisy = stats_from_blocks([0, 0, 0, 1], [0, 0, 0, 1]).p
        stack = ChannelStatistics(p=[[good, noisy, good]], p_pm=[[0.0, 0.0, math.nan]], p_mp=0.0)
        with pytest.raises(TooNoisyError, match=r"^member \(0, 1\): p\[0,0,0\] <= 0"):
            keyrate.key_rate_bound(stack)
        with pytest.raises(ValueError, match=r"^member \(0, 2\): statistics entry p_pm is not"):
            keyrate.validate_statistics(stack)

    def test_report_bytes_match_recorded_digest(self, attack_pool):
        # Every field of the reports of the nine sweep grids (three scenarios
        # at ratios 1/2, 1 and 2, Q from 0 to 0.1 in 101 points) and of the
        # 500 pool attacks, bit for bit; the digest was taken before the
        # intermediates were folded into key_rate_bound.
        q = np.linspace(0.0, 0.1, 101)
        parts = [keyrate.symmetric_stats(fwd(q), rev(q), ratio * q)
                 for fwd, rev in keyrate.SCENARIOS.values() for ratio in (0.5, 1.0, 2.0)]
        parts += [attack.statistics(atk) for atk in attack_pool]
        stack = ChannelStatistics(p=np.concatenate([np.reshape(s.p, (-1, 2, 2, 2)) for s in parts]),
                                  p_pm=np.concatenate([np.ravel(s.p_pm) for s in parts]),
                                  p_mp=np.concatenate([np.ravel(s.p_mp) for s in parts]))
        digest = hashlib.sha256()
        for name, data in report_bytes(keyrate.key_rate_bound(stack)).items():
            digest.update(name.encode() + data)
        assert stack.p.shape == (1409, 2, 2, 2)
        assert digest.hexdigest() == (
            "7018c0b6897a7cb6e3d978a71cab6fc6b497905867c3557d262e86725f7f5076")

    def test_clamp_warning_names_the_member(self):
        s = stats_from_blocks([1.0, 0.0, 9e-10, 0.0], [1.0, 0.0, 0.0, 0.0])
        stack = ChannelStatistics(p=[NOISELESS.p, s.p], p_pm=0.0, p_mp=0.0)
        with pytest.warns(UserWarning, match=r"^member 1: lambda_tilde = .* clamped to 1"):
            keyrate.key_rate_bound(stack)

    def test_report_arrays_are_read_only(self):
        report = keyrate.key_rate_bound(keyrate.symmetric_stats([0.01, 0.05], 0.05, 0.05))
        for f in dataclasses.fields(report):
            value = getattr(report, f.name)
            assert value.shape[:1] == (2,) and not value.flags.writeable, f.name


class TestThresholdAndSweep:
    @pytest.mark.parametrize("ratio", [200.0, 501.0])
    @pytest.mark.parametrize("scenario", sorted(keyrate.SCENARIOS))
    def test_threshold_brackets_the_sign_change(self, scenario, ratio):
        # q_x reaches 1/2 at q_max = 0.5 / ratio, where these rates are
        # already negative; q_max must be checked, not returned.
        fwd, rev = keyrate.SCENARIOS[scenario]

        def rate(q):
            return keyrate.key_rate_bound(keyrate.symmetric_stats(fwd(q), rev(q), ratio * q)).rate

        q = keyrate.noise_threshold(scenario, ratio)
        assert rate(q - 1e-6) > 0.0 >= rate(q + 1e-6)

    def test_one_bound_call_per_scan_and_sweep(self, monkeypatch):
        shapes = []
        bound = keyrate.key_rate_bound

        def counting(stats, **kwargs):
            shapes.append(stats.p.shape[:-3])
            return bound(stats, **kwargs)

        monkeypatch.setattr(keyrate, "key_rate_bound", counting)
        keyrate.sweep("equal", 1.0, 0.1, 101)
        assert shapes == [(101,)]
        shapes.clear()
        # Q = 0, the 249 scan points below q_max = 0.25, and q_max; then
        # single bisection steps.
        keyrate.noise_threshold("equal", 1.0)
        assert shapes[0] == (251,) and set(shapes[1:]) == {()}

    def test_equal_scenario_threshold(self):
        assert keyrate.noise_threshold("equal", 1.0) == pytest.approx(
            0.0534, abs=5e-4)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            keyrate.noise_threshold("sideways", 1.0)

    @pytest.mark.parametrize("ratio", [0.0, math.nan, math.inf])
    def test_nonpositive_ratio(self, ratio):
        with pytest.raises(ValueError, match="qx_ratio"):
            keyrate.noise_threshold("equal", ratio)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_sweep_rejects_non_finite_ratio(self, ratio):
        with pytest.raises(ValueError, match="qx_ratio"):
            keyrate.sweep("equal", ratio, 0.1, 11)

    @pytest.mark.parametrize("scenario,ratio,q_max,message", [
        ("equal", 1.0, math.nan, "q_max = nan must be non-negative and finite"),
        ("equal", 1.0, math.inf, "q_max = inf must be non-negative and finite"),
        ("equal", 1.0, -0.1, "q_max = -0.1 must be non-negative and finite"),
        ("equal", -1.0, 0.1, "qx_ratio = -1.0 is negative"),
        ("equal", 1.0, 2.0, "q_max = 2.0 puts q_fwd = 2.0 outside [0, 1/2]"),
        ("fwd-half", 0.5, 0.8, "q_max = 0.8 puts q_rev = 0.8 outside [0, 1/2]"),
        ("equal", 2.0, 0.3, "q_max = 0.3 puts q_x = 0.6 outside [0, 1/2]"),
    ], ids=["q_max-nan", "q_max-inf", "q_max-negative", "ratio-negative",
            "q_fwd", "q_rev", "q_x"])
    def test_sweep_names_what_was_typed(self, scenario, ratio, q_max, message):
        with pytest.raises(ValueError) as info:
            keyrate.sweep(scenario, ratio, q_max, 11)
        assert str(info.value) == message

    def test_sweep_reaches_the_noise_limit(self):
        # q_fwd = q_rev = q_x = 1/2 at q_max itself is still allowed.
        rows = keyrate.sweep("equal", 1.0, 0.5, 3)
        assert [q for q, _ in rows] == [0.0, 0.25, 0.5]

    def test_sweep_starts_at_one_and_brackets_threshold(self):
        rows = keyrate.sweep("equal", 1.0, 0.1, 101)
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        threshold = keyrate.noise_threshold("equal", 1.0)
        signs = [(q, r) for q, r in rows]
        crossing = [i for i in range(len(signs) - 1)
                    if signs[i][1] > 0 >= signs[i + 1][1]]
        assert len(crossing) == 1
        q_lo, q_hi = signs[crossing[0]][0], signs[crossing[0] + 1][0]
        assert q_lo <= threshold <= q_hi

    def test_sweep_monotone_and_ordered_in_qx(self):
        curves = {ratio: keyrate.sweep("equal", ratio, 0.08, 81)
                  for ratio in (0.5, 1.0, 2.0)}
        for ratio, rows in curves.items():
            threshold = keyrate.noise_threshold("equal", ratio)
            rates = [r for q, r in rows if q <= threshold]
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        for (q_a, r_half), (_, r_one), (_, r_two) in zip(
                curves[0.5], curves[1.0], curves[2.0]):
            assert r_half >= r_one - 1e-12 >= r_two - 2e-12

    def test_sweep_rejects_single_step(self):
        with pytest.raises(ValueError):
            keyrate.sweep("equal", 1.0, 0.1, 1)
