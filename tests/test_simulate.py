import warnings

import numpy as np
import pytest

from oracles import born_rule_chunk
from sqkd import attack, keyrate, simulate
from sqkd.simulate import ProtocolConfig, RawKeys, TallyCounts


def run(atk, iterations, seed, **kwargs):
    cfg = ProtocolConfig(iterations=iterations, seed=seed, **kwargs)
    return simulate.run_protocol(atk, cfg)


ORACLE_ATTACKS = {
    "identity": attack.identity_attack(),
    "zmeasure": attack.z_measurement_attack(),
    "symmetric": attack.symmetric_realizing_attack(0.1, 0.05),
    **{f"haar-d{d}": attack.random_attack(d, [d, 5]) for d in (1, 2, 4, 32)},
}


class TestRunProtocol:
    def test_identity_attack_has_no_errors(self):
        tally, keys = run(attack.identity_attack(), 100_000, seed=11)
        z = tally.z_counts
        assert z[0, 1, :].sum() == 0 and z[1, 0, :].sum() == 0
        assert z[0, 0, 1] == 0 and z[1, 1, 0] == 0
        assert tally.x_reflect_counts[0, 1] == 0
        assert tally.x_reflect_counts[1, 0] == 0
        assert simulate.qber(keys) == 0.0

    def test_totals_conserved(self):
        tally, keys = run(attack.random_attack(2, 99), 30_000, seed=5)
        assert (tally.z_counts.sum() + tally.x_reflect_counts.sum()
                + tally.other_counts) == tally.total == 30_000
        assert len(keys) == tally.z_counts.sum()

    def test_same_seed_is_bit_identical(self):
        atk = attack.random_attack(2, 4)
        t1, k1 = run(atk, 50_000, seed=17)
        t2, k2 = run(atk, 50_000, seed=17)
        assert np.array_equal(t1.z_counts, t2.z_counts)
        assert np.array_equal(t1.x_reflect_counts, t2.x_reflect_counts)
        assert t1.other_counts == t2.other_counts
        assert np.array_equal(k1.alice_bits, k2.alice_bits)
        assert np.array_equal(k1.bob_bits, k2.bob_bits)

    @pytest.mark.parametrize("probs", [(0.5, 0.5), (0.9, 0.8), (0.1, 0.3)],
                             ids=["unbiased", "biased", "low"])
    @pytest.mark.parametrize("name", sorted(ORACLE_ATTACKS))
    def test_chunks_match_born_rule_oracle(self, name, probs):
        atk = ORACLE_ATTACKS[name]
        bob, alice = simulate._outcome_table(attack.statistics(atk))
        for n in (simulate.CHUNK_SIZE, 1000, 1):
            for chunk in range(2):
                args = (n, *probs, 12345, chunk)
                got = simulate._simulate_chunk(bob, alice, *args)
                want = born_rule_chunk(atk.u_e, atk.u_f, atk.ancilla_dim, *args)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                # array_equal ignores dtype, so the dtypes are pinned here.
                z, x, other, a_bits, b_bits = got
                assert z.dtype == x.dtype == np.int64
                assert type(other) is int
                assert a_bits.dtype == b_bits.dtype == np.uint8

    def test_empirical_statistics_converge_to_analytic(self):
        atk = attack.symmetric_realizing_attack(0.05, 0.05)
        tally, _ = run(atk, 400_000, seed=12345)
        stats, _ = simulate.estimate_statistics(tally)
        analytic = attack.statistics(atk)
        n_z = tally.z_counts.reshape(2, 4).sum(axis=1)
        for i in range(2):
            se = np.sqrt(analytic.p[i] * (1 - analytic.p[i]) / n_z[i])
            diff = np.abs(stats.p[i] - analytic.p[i])
            assert np.all(diff <= np.where(se > 0, 3 * se, 0)), (i, diff, se)
        # This attack flips without touching the X basis, so the reflected
        # X rounds are exactly error free.
        assert stats.p_pm == 0.0 and stats.p_mp == 0.0

    def test_biased_basis_choice(self):
        tally, _ = run(attack.identity_attack(), 40_000, seed=3,
                       prob_z_basis=0.9, prob_measure_resend=0.8)
        n_key = tally.z_counts.sum()
        assert n_key == pytest.approx(40_000 * 0.9 * 0.8, rel=0.05)

    def test_non_unitary_attack_caught(self):
        bad_us = [np.diag([entry, 1.0]) for entry in (0.9, np.nan)]
        # Unit-norm columns that are not orthogonal.
        bad_us.append(np.array([[1.0, 1.0], [0.0, 1.0]]) / [1.0, np.sqrt(2.0)])
        for bad_u in bad_us:
            bad = attack.CollectiveAttack(1, bad_u.astype(complex),
                                          np.eye(2, dtype=complex))
            with pytest.raises(simulate.SimulationError):
                run(bad, 1000, seed=0)

    @pytest.mark.parametrize("d,scale", [(1, 1 + 4e-11), (32, 1 + 4.9e-11)],
                             ids=["d1", "d32"])
    def test_validated_attack_simulates(self, d, scale):
        # Both unitaries pass validate_attack's tolerance; a reflected round
        # compounds their norm errors.
        atk = attack.random_attack(d, 3)
        near = attack.validate_attack(atk.u_e * scale, atk.u_f * scale, d)
        tally, _ = run(near, 1000, seed=0)
        assert tally.total == 1000

    def test_unreachable_collapse_is_finite_and_silent(self):
        # Identity: Bob never reads 1 on |0> nor 0 on |1>.
        atk = attack.identity_attack()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bob, alice = simulate._outcome_table(attack.statistics(atk))
        assert np.array_equal(bob[:2], [0.0, 1.0])
        assert np.all(np.isfinite(bob)) and np.all(np.isfinite(alice))

    @pytest.mark.parametrize("name", sorted(ORACLE_ATTACKS))
    def test_unused_cells_never_reach_an_output(self, name):
        # Bob's X preparations, Alice's Z reflections and her X collapses
        # only ever land in other_counts.
        bob, alice = simulate._outcome_table(attack.statistics(ORACLE_ATTACKS[name]))
        bob_used = np.array([True, True, False, False])
        alice_used = np.zeros((4, 3), dtype=bool)
        alice_used[:2, 1:] = True
        alice_used[2:, 0] = True
        rng = np.random.default_rng(2024)
        noisy_bob = np.where(bob_used, bob, rng.random(4))
        noisy_alice = np.where(alice_used, alice, rng.random((4, 3)))
        for chunk in range(2):
            args = (simulate.CHUNK_SIZE, 0.5, 0.5, 12345, chunk)
            got = simulate._simulate_chunk(noisy_bob, noisy_alice, *args)
            want = simulate._simulate_chunk(bob, alice, *args)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(iterations=0)
        with pytest.raises(ValueError):
            ProtocolConfig(iterations=10, prob_z_basis=1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(iterations=10, seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("iterations", 2.5), ("iterations", True), ("iterations", "10"),
        ("seed", 1.5), ("seed", False)])
    def test_config_rejects_non_integers_by_name(self, field, value):
        kwargs = {"iterations": 10, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ProtocolConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        cfg = ProtocolConfig(iterations=np.int64(10), seed=np.uint64(2 ** 63))
        assert cfg.iterations == 10


class TestEstimateStatistics:
    def test_identity_tallies_are_noiseless(self):
        tally, _ = run(attack.identity_attack(), 50_000, seed=2)
        stats, err = simulate.estimate_statistics(tally)
        assert stats.p[0, 0, 0] == 1.0 and stats.p[1, 1, 1] == 1.0
        assert stats.p_pm == 0.0 and stats.p_mp == 0.0
        assert err.p[0, 0, 0] == 0.0 and err.p_pm == 0.0

    def test_hand_built_tally(self):
        z = np.zeros((2, 2, 2), dtype=np.int64)
        z[0, 0, 0] = 75
        z[0, 1, 1] = 25
        z[1, 1, 1] = 10
        x = np.array([[5, 0], [0, 5]], dtype=np.int64)
        tally = TallyCounts(z_counts=z, x_reflect_counts=x, other_counts=0,
                            total=120)
        stats, err = simulate.estimate_statistics(tally)
        assert stats.p[0, 0, 0] == pytest.approx(0.75)
        assert stats.p[0, 1, 1] == pytest.approx(0.25)
        assert stats.p[1, 1, 1] == 1.0
        assert err.p[0, 0, 0] == pytest.approx(np.sqrt(0.75 * 0.25 / 100))

    def test_empty_class_reported_by_name(self):
        z = np.zeros((2, 2, 2), dtype=np.int64)
        z[0, 0, 0] = 10
        z[1, 1, 1] = 10
        x = np.array([[5, 0], [0, 0]], dtype=np.int64)
        tally = TallyCounts(z_counts=z, x_reflect_counts=x, other_counts=0,
                            total=25)
        with pytest.raises(simulate.InsufficientDataError, match=r"\|->"):
            simulate.estimate_statistics(tally)

    def test_bound_from_estimates_tracks_analytic(self):
        atk = attack.random_attack(2, 31)
        tally, _ = run(atk, 400_000, seed=6)
        stats, err = simulate.estimate_statistics(tally)
        got = keyrate.key_rate_bound(stats, renormalize=True).rate
        want = keyrate.key_rate_bound(attack.statistics(atk)).rate
        # Crude propagation: the bound moves at most a few units per unit
        # of statistics error.
        budget = 10 * float(np.max(err.p))
        assert abs(got - want) <= budget


class TestQber:
    def test_identical_and_complementary(self):
        a = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert simulate.qber(RawKeys(a, a.copy())) == 0.0
        assert simulate.qber(RawKeys(a, 1 - a)) == 1.0

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            simulate.qber(RawKeys(np.array([], dtype=np.uint8),
                                  np.array([], dtype=np.uint8)))

    def test_symmetric_attack_qber_is_reverse_noise(self):
        # Raw keys disagree exactly when the return pass flips, which is
        # the joint p(0,1) + p(1,0) of the product statistics.
        atk = attack.symmetric_realizing_attack(0.05, 0.05)
        _, keys = run(atk, 400_000, seed=9)
        s = attack.statistics(atk)
        expected = 0.5 * (s.p[0, 0, 1] + s.p[1, 0, 1]
                          + s.p[0, 1, 0] + s.p[1, 1, 0])
        assert expected == pytest.approx(0.05, abs=1e-12)
        se = np.sqrt(expected * (1 - expected) / len(keys))
        assert abs(simulate.qber(keys) - expected) <= 3 * se


class TestTallyCounts:
    def test_conservation_enforced(self):
        with pytest.raises(ValueError):
            TallyCounts(z_counts=np.ones((2, 2, 2), dtype=np.int64),
                        x_reflect_counts=np.zeros((2, 2), dtype=np.int64),
                        other_counts=0, total=5)

    def test_key_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RawKeys(np.array([0, 1], dtype=np.uint8),
                    np.array([0], dtype=np.uint8))
