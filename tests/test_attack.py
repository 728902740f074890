import types

import numpy as np
import pytest

from sqkd import attack, keyrate, linalg
from conftest import make_attack_pool
from oracles import (assemble_block_diagonal, born_x_flip_probabilities,
                     partial_trace_bruteforce)


class TestValidateAttack:
    def test_identity_pair_is_valid(self):
        atk = attack.validate_attack(np.eye(2), np.eye(2), 1)
        assert atk.ancilla_dim == 1

    def test_scaled_identity_rejected(self):
        nan_entry = np.eye(2)
        nan_entry[0, 0] = np.nan
        for u in (2.0 * np.eye(2), nan_entry):
            with pytest.raises(ValueError, match="not unitary"):
                attack.validate_attack(u, np.eye(2), 1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            attack.validate_attack(np.eye(4), np.eye(4), 1)

    def test_random_pair_is_valid(self):
        atk = attack.random_attack(4, 2024)
        residual = np.max(np.abs(atk.u_e.conj().T @ atk.u_e - np.eye(8)))
        assert residual <= 1e-10

    def test_ancilla_cap(self):
        with pytest.raises(ValueError):
            attack.validate_attack(np.eye(66), np.eye(66), 33)


class TestExtractVectors:
    def test_identity_attack_vectors(self):
        v = attack.identity_attack()
        np.testing.assert_allclose(v.e[0], [1.0])
        np.testing.assert_allclose(v.e[1], [0.0])
        np.testing.assert_allclose(v.e[2], [0.0])
        np.testing.assert_allclose(v.e[3], [1.0])
        np.testing.assert_allclose(v.e_ijk[0, 0, 0], [1.0])
        np.testing.assert_allclose(v.e_ijk[1, 3, 1], [1.0])
        np.testing.assert_allclose(v.g[1], [0.0])
        np.testing.assert_allclose(v.g[2], [0.0])

    def test_copy_attack_vectors(self):
        v = attack.z_measurement_attack()
        np.testing.assert_allclose(v.e[0], [1.0, 0.0])
        np.testing.assert_allclose(v.e[1], [0.0, 0.0])
        np.testing.assert_allclose(v.e[2], [0.0, 0.0])
        np.testing.assert_allclose(v.e[3], [0.0, 1.0])
        assert np.vdot(v.e[0], v.e[3]) == 0.0

    def test_identity_groups_hold_for_random_attacks(self):
        for atk in make_attack_pool(1000):
            residuals = attack.unitarity_residuals(atk)
            worst = max(residuals.values())
            assert worst <= 1e-9, f"residuals {residuals}"

    def test_g_combo_compares_two_routes(self, attack_pool):
        # g comes from u_f u_e |+/-,0> and f from the e_ijk records, so the
        # two agree only to rounding: never worse, but not always exactly.
        combos = [attack.unitarity_residuals(atk)["g_combo"]
                  for atk in attack_pool]
        assert max(combos) <= 1e-12
        assert any(c != 0.0 for c in combos)

    def test_g_combo_detects_wrong_x_components(self, attack_pool):
        atk = attack_pool[0]
        bad = types.SimpleNamespace(e=atk.e, e_ijk=atk.e_ijk, f=atk.f, g=atk.g[::-1])
        assert attack.unitarity_residuals(bad)["g_combo"] > 1e-9

    def test_vector_fields_are_read_only(self):
        atk = attack.random_attack(2, 5)
        assert atk.records.shape == (2, 2, 2, 2)
        for name in ("e", "e_ijk", "f", "g", "records"):
            arr = getattr(atk, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            with pytest.raises(AttributeError):
                setattr(atk, name, arr.copy())
        with pytest.raises(TypeError):
            attack.CollectiveAttack(2, atk.u_e, atk.u_f, g=atk.g)


class TestStatistics:
    def test_identity(self):
        s = attack.statistics(attack.identity_attack())
        assert s.p[0, 0, 0] == 1.0 and s.p[1, 1, 1] == 1.0
        assert s.p.sum() == 2.0
        assert s.p_pm == 0.0 and s.p_mp == 0.0

    def test_copy_attack_x_disturbance(self):
        atk = attack.z_measurement_attack()
        s = attack.statistics(atk)
        assert s.p[0, 0, 0] == 1.0 and s.p[1, 1, 1] == 1.0
        assert s.p[0, 0, 1] == s.p[1, 1, 0] == 0.0
        # Direct Born-rule evaluation of the reflected X rounds.
        want_pm, want_mp = born_x_flip_probabilities(atk.u_e, atk.u_f, 2)
        assert want_pm == pytest.approx(0.5, abs=1e-15)
        assert s.p_pm == pytest.approx(want_pm, abs=1e-15)
        assert s.p_mp == pytest.approx(want_mp, abs=1e-15)

    def test_blocks_normalized_for_random_attacks(self, attack_pool):
        for atk in attack_pool[:100]:
            s = attack.statistics(atk)
            np.testing.assert_allclose(s.p.reshape(2, 4).sum(axis=1), 1.0,
                                       atol=1e-9)
            assert s.p.min() >= 0.0 and s.p.max() <= 1.0

    def test_x_disturbance_agrees_with_born_rule(self, attack_pool):
        for atk in attack_pool[:100]:
            s = attack.statistics(atk)
            want_pm, want_mp = born_x_flip_probabilities(
                atk.u_e, atk.u_f, atk.ancilla_dim)
            assert s.p_pm == pytest.approx(want_pm, abs=1e-10)
            assert s.p_mp == pytest.approx(want_mp, abs=1e-10)


class TestOverlap:
    # Eve's critical overlap between the two "all went right" records.
    def test_identity(self):
        atk = attack.identity_attack()
        assert np.vdot(atk.records[0, 0, 0], atk.records[1, 1, 1]) == 1.0

    def test_copy_attack_records_orthogonal(self):
        atk = attack.z_measurement_attack()
        assert np.vdot(atk.records[0, 0, 0], atk.records[1, 1, 1]) == 0.0

    def test_x_bound_is_sound(self, attack_pool):
        for atk in attack_pool:
            bound = keyrate.cross_overlap_lower_bound(attack.statistics(atk))
            overlap = np.vdot(atk.records[0, 0, 0], atk.records[1, 1, 1])
            assert overlap.real >= bound - 1e-9


def block_traces(rho):
    return np.trace(rho, axis1=-2, axis2=-1).real


class TestRhoBE:
    def test_identity_attack_state(self):
        rho = attack.rho_be(attack.identity_attack())
        np.testing.assert_allclose(rho, [[[0.5]], [[0.5]]], atol=1e-15)

    def test_hygiene_and_bob_marginal(self, attack_pool):
        for atk in attack_pool[:60]:
            d = atk.ancilla_dim
            rho = attack.rho_be(atk)
            # One d x d block per bit of Bob's.
            assert rho.shape == (2, d, d)
            assert abs(block_traces(rho).sum() - 1.0) <= 1e-10
            assert linalg.hermitian_eigenvalues(rho).min() >= -1e-10
            # Bob's diagonal equals his bit marginals from the statistics.
            s = attack.statistics(atk)
            want = 0.5 * s.p.sum(axis=(0, 2))
            np.testing.assert_allclose(block_traces(rho), want, atol=1e-10)

    def test_eve_marginal_matches_bruteforce_partial_trace(self):
        for d in (1, 2, 4, 32):
            for seed in range(5):
                rho = attack.rho_be(attack.random_attack(d, [31, seed]))
                want = partial_trace_bruteforce(assemble_block_diagonal(rho), (2, d), 1)
                np.testing.assert_allclose(rho.sum(axis=0), want, atol=1e-12)
                assert np.trace(want).real == pytest.approx(1.0, abs=1e-10)


class TestRhoBEC:
    def test_identity_attack_weights(self):
        rho = attack.rho_bec(attack.identity_attack())
        want = np.zeros((2, 4, 1, 1))
        want[0, 0] = 0.5   # Bob 0, (correct, 0 flips)
        want[1, 0] = 0.5   # Bob 1, (correct, 0 flips)
        np.testing.assert_allclose(rho, want, atol=1e-15)

    def test_tracing_register_recovers_rho_be(self, attack_pool):
        for atk in attack_pool[:60]:
            got = attack.rho_bec(atk).sum(axis=1)
            np.testing.assert_allclose(got, attack.rho_be(atk), atol=1e-10)

    def test_entropy_matches_halved_statistics(self, attack_pool):
        for atk in attack_pool[:60]:
            s_direct = keyrate.s_bec(attack.statistics(atk))
            s_eigen = linalg.von_neumann_entropy(attack.rho_bec(atk))
            assert s_direct == pytest.approx(s_eigen, abs=1e-9)

    def test_hygiene(self, attack_pool):
        for atk in attack_pool[:60]:
            rho = attack.rho_bec(atk)
            assert abs(block_traces(rho).sum() - 1.0) <= 1e-10
            assert linalg.hermitian_eigenvalues(rho).min() >= -1e-10

    def test_register_blocks_match_keyrate_pair_sums(self, attack_pool):
        # keyrate bounds S(EC) from the pair sums of its register labels;
        # attack places each record in the block of the same label.
        for atk in attack_pool:
            rho_ec = attack.rho_bec(atk).sum(axis=0)
            want = 0.5 * np.array(keyrate._pair_sums(attack.statistics(atk).p))
            np.testing.assert_allclose(block_traces(rho_ec), want, rtol=0, atol=1e-12)

    def test_conditioning_cannot_help_bob(self, attack_pool):
        # S(B|EC) <= S(B|E): extra conditioning never increases entropy.
        for atk in attack_pool[:40]:
            rho_bec_ = attack.rho_bec(atk)
            rho_be_ = attack.rho_be(atk)
            s_b_ec = (linalg.von_neumann_entropy(rho_bec_)
                      - linalg.von_neumann_entropy(rho_bec_.sum(axis=0)))
            s_b_e = (linalg.von_neumann_entropy(rho_be_)
                     - linalg.von_neumann_entropy(rho_be_.sum(axis=0)))
            assert s_b_ec <= s_b_e + 1e-9


class TestExactCollectiveRate:
    def test_identity_attack(self):
        assert attack.exact_collective_rate(attack.identity_attack()) \
            == pytest.approx(1.0, abs=1e-12)

    def test_copy_attack_leaks_everything(self):
        assert attack.exact_collective_rate(attack.z_measurement_attack()) \
            == pytest.approx(0.0, abs=1e-12)

    def test_bound_never_exceeds_exact(self, attack_pool):
        for atk in attack_pool[:100]:
            bound = keyrate.key_rate_bound(attack.statistics(atk)).rate
            assert bound <= attack.exact_collective_rate(atk) + 1e-9


class TestSymmetricRealizingAttack:
    def test_zero_noise_matches_identity_statistics(self):
        s = attack.statistics(attack.symmetric_realizing_attack(0.0, 0.0))
        assert s.p[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert s.p[1, 1, 1] == pytest.approx(1.0, abs=1e-12)
        assert s.p_pm == pytest.approx(0.0, abs=1e-12)
        assert s.p_mp == pytest.approx(0.0, abs=1e-12)

    def test_forward_only_noise(self):
        s = attack.statistics(attack.symmetric_realizing_attack(0.1, 0.0))
        assert s.p[0, 0, 0] == pytest.approx(0.9, abs=1e-12)
        assert s.p[1, 1, 1] == pytest.approx(0.9, abs=1e-12)
        assert s.p[0, 1, 1] == pytest.approx(0.1, abs=1e-12)
        assert s.p[1, 0, 0] == pytest.approx(0.1, abs=1e-12)
        assert s.p[0, 0, 1] == pytest.approx(0.0, abs=1e-12)
        assert s.p[0, 1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_z_statistics_match_products(self):
        got = attack.statistics(attack.symmetric_realizing_attack(0.05, 0.05))
        want = keyrate.symmetric_stats(keyrate.ScenarioParams(0.05, 0.05, 0.0))
        np.testing.assert_allclose(got.p, want.p, atol=1e-9)

    def test_construction_is_unitary(self, rng):
        for _ in range(10):
            qf, qr = rng.random(2) * 0.5
            atk = attack.symmetric_realizing_attack(qf, qr)
            assert atk.ancilla_dim == 4
            residuals = attack.unitarity_residuals(atk)
            assert max(residuals.values()) <= 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            attack.symmetric_realizing_attack(0.6, 0.0)
        with pytest.raises(ValueError):
            attack.symmetric_realizing_attack(0.0, -0.1)
