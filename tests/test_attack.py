import types

import numpy as np
import pytest

from sqkd import attack, cli, keyrate, linalg
from conftest import make_attack_pool, one_member_stacks, report_bytes, soundness_inputs
from oracles import (assemble_block_diagonal, born_x_flip_probabilities, haar_pair,
                     partial_trace_bruteforce, rho_be, rho_bec)


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

    def test_stack_of_unitaries(self):
        u = np.stack([np.eye(2)] * 3)
        assert attack.validate_attack(u, u, 1).records.shape == (3, 2, 2, 2, 1)
        with pytest.raises(ValueError, match="stack shapes differ"):
            attack.validate_attack(u, u[:2], 1)
        one_bad = u.copy()
        one_bad[1] *= 2.0
        with pytest.raises(ValueError, match="u_f is not unitary: residual 3.0"):
            attack.validate_attack(u, one_bad, 1)

    def test_empty_stack_named(self):
        empty = np.zeros((0, 2, 2))
        with pytest.raises(ValueError, match=r"^u_e is an empty stack \(0, 2, 2\)$"):
            attack.validate_attack(empty, empty, 1)
        with pytest.raises(ValueError, match=r"^u_e is an empty stack \(0, 4, 4\)$"):
            attack.random_attacks(2, [])

    def test_ancilla_cap(self):
        with pytest.raises(ValueError):
            attack.validate_attack(np.eye(66), np.eye(66), 33)

    @pytest.mark.parametrize("d", [1.7, 2.9, 2.0, True, np.bool_(True), "2"])
    def test_ancilla_dim_must_be_an_integer(self, d):
        # int() would truncate these to a dimension nobody asked for.
        for build in (lambda d: attack.validate_attack(np.eye(2), np.eye(2), d),
                      attack.identity_attack, lambda d: attack.random_attack(d, 1),
                      lambda d: attack.random_attacks(d, [[0, 0]])):
            with pytest.raises(ValueError, match=f"^ancilla_dim must be an integer, got {d!r}$"):
                build(d)
        assert attack.identity_attack(np.int64(2)).ancilla_dim == 2

    @pytest.mark.parametrize("d", [-1, 0, 33, 10 ** 9])
    def test_ancilla_dim_checked_before_drawing(self, d):
        # A negative or huge dimension would otherwise reach numpy's
        # allocator; 10**9 asks for exabytes.
        for build in (attack.identity_attack, lambda d: attack.random_attack(d, 0),
                      lambda d: attack.random_attacks(d, [[0, 0], [0, 1]])):
            with pytest.raises(ValueError, match=r"^ancilla_dim must be in \[1, 32\]$"):
                build(d)


class TestConstruction:
    """Every way of building an attack checks and freezes its unitaries."""

    def test_unitaries_are_read_only_complex_copies(self):
        u = np.eye(2)
        atk = attack.CollectiveAttack(1, u, u)
        for stored in (atk.u_e, atk.u_f):
            assert stored.dtype == complex and not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 0.0
        assert u.flags.writeable and u.dtype == float
        u[0, 0] = 5.0
        assert atk.u_e[0, 0] == 1.0 and atk.u_f[0, 0] == 1.0
        assert type(attack.CollectiveAttack(np.int64(1), u, u).ancilla_dim) is int

    @pytest.mark.parametrize("args, message", [
        ((2, np.eye(2), np.eye(2)), r"u_e must have shape \(4, 4\), got \(2, 2\)"),
        ((1, np.eye(2), np.eye(4)), r"u_f must have shape \(2, 2\), got \(4, 4\)"),
        ((1, np.zeros((0, 2, 2)), np.zeros((0, 2, 2))), r"u_e is an empty stack \(0, 2, 2\)"),
        ((1, np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 2)),
         r"u_e and u_f stack shapes differ: \(3, 2, 2\) and \(2, 2, 2\)"),
        ((1.5, np.eye(2), np.eye(2)), r"ancilla_dim must be an integer, got 1.5"),
    ], ids=["shape", "shape-u-f", "empty", "stack-shapes", "non-integer-dim"])
    def test_structural_faults_raise_validate_attacks_messages(self, args, message):
        d, u_e, u_f = args
        with pytest.raises(ValueError, match=f"^{message}$"):
            attack.CollectiveAttack(d, u_e, u_f)
        with pytest.raises(ValueError, match=f"^{message}$"):
            attack.validate_attack(u_e, u_f, d)


# I, X, Y, Z: a pass's X flips the Z basis, its Z flips the X basis.
PAULIS = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1j], [1j, 0.0]],
                   np.diag([1.0, -1.0])])


def pauli_kraus(q, x):
    """Kraus list of a pass that flips Z with probability q and X with x, independently."""
    p = np.array([(1.0 - q) * (1.0 - x), q * (1.0 - x), q * x, (1.0 - q) * x])
    return np.sqrt(p)[:, None, None] * PAULIS


def damping_kraus(gamma):
    """Amplitude damping: |1> decays to |0> with probability gamma."""
    return [np.diag([1.0, np.sqrt(1.0 - gamma)]), [[0.0, np.sqrt(gamma)], [0.0, 0.0]]]


def table_points():
    """(q_fwd, q_rev, q_x) at five Q in [0.001, 0.1] of each threshold-table cell.

    The cells are the nine ``keyrate.SCENARIOS`` x qx_ratio 1/2, 1, 2 of the
    paper's table.
    """
    return [(fwd(q), rev(q), ratio * q) for fwd, rev in keyrate.SCENARIOS.values()
            for ratio in (0.5, 1.0, 2.0) for q in np.linspace(0.001, 0.1, 25)[::6]]


def pauli_table_attack(q_fwd, q_rev, q_x):
    """Pauli passes with Z flips q_fwd and q_rev, and an X flip x on both.

    x is chosen so that a reflected round's X disturbance, 2x(1 - x), is q_x.
    """
    x = (1.0 - np.sqrt(1.0 - 2.0 * q_x)) / 2.0
    return attack.channel_attack(pauli_kraus(q_fwd, x), pauli_kraus(q_rev, x))


def builder_attacks():
    """One attack, or a stack, from each of the package's six builders."""
    rng = np.random.default_rng(2028)
    return ([attack.identity_attack(1), attack.identity_attack(4),
             attack.z_measurement_attack()]
            + [attack.symmetric_realizing_attack(*(rng.random(2) * 0.5)) for _ in range(10)]
            + [attack.random_attack(d, [2028, d]) for d in (1, 2, 4, 32)]
            + [attack.random_attacks(2, [[2028, idx] for idx in range(6)])]
            # d = 8 with zero-column operators, d = 3, d = 16.
            + [attack.channel_attack(damping_kraus(0.3), pauli_kraus(0.1, 0.2)),
               attack.channel_attack(np.sqrt([0.5, 0.3, 0.2])[:, None, None] * PAULIS[:3],
                                     [np.eye(2)]),
               attack.channel_attack(pauli_kraus(0.05, 0.02), pauli_kraus(0.1, 0.03))])


class TestBuilders:
    """The builders make unitaries the gate accepts, and so skip the gate."""

    def test_unitaries_pass_validate_attack(self):
        for atk in builder_attacks():
            checked = attack.validate_attack(atk.u_e, atk.u_f, atk.ancilla_dim)
            assert np.array_equal(checked.records, atk.records)

    def test_builders_skip_the_gate(self, monkeypatch):
        want = builder_attacks()

        def refuse(*args):
            raise AssertionError("validate_attack called")

        monkeypatch.setattr(attack, "validate_attack", refuse)
        got = builder_attacks()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.ancilla_dim == b.ancilla_dim
            for name in TestStacks.FIELDS + ("residual",):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestResidual:
    def test_worst_of_the_identity_residuals(self):
        stack = attack.random_attacks(2, [[7, idx] for idx in range(5)])
        want = np.max(list(attack.unitarity_residuals(stack).values()), axis=0)
        assert np.array_equal(stack.residual, want)
        assert not stack.residual.flags.writeable
        atk = attack.random_attack(2, [7, 3])
        assert atk.residual == max(attack.unitarity_residuals(atk).values())
        assert attack.identity_attack().residual == 0.0

    def test_nan_is_kept_and_refused(self):
        u = np.diag([np.nan, 1.0]).astype(complex)
        bad = attack.CollectiveAttack(1, u, np.eye(2, dtype=complex))
        assert np.isnan(bad.residual)
        with pytest.raises(ValueError, match="identity residual nan"):
            attack.statistics(bad)

    def test_one_bad_member_refuses_the_stack(self):
        good = attack.identity_attack()
        u_e = np.stack([good.u_e, 0.9 * good.u_e])
        u_f = np.stack([good.u_f, good.u_f])
        stack = attack.CollectiveAttack(1, u_e, u_f)
        assert stack.residual[0] == 0.0 and stack.residual[1] > 0.1
        with pytest.raises(ValueError, match=f"identity residual {stack.residual[1]}"):
            attack.statistics(stack)


class TestGroupRecords:
    def test_bob_groupings(self):
        assert attack.BOB_GROUPS.tolist() == [[0, 1, 4, 5], [2, 3, 6, 7]]
        assert attack.BOB_REGISTER_GROUPS.tolist() == [[0], [4], [1], [5], [7], [3], [6], [2]]
        assert attack._group_records(np.array([1, 1, 0, 0])).tolist() == [[2, 3], [0, 1]]

    @pytest.mark.parametrize("key", [[0, 0, 0, 1, 1, 1, 1, 1], [0, 0, 2, 2], [-1, -1, 0, 0]],
                             ids=["unequal", "gap", "negative"])
    def test_keys_must_cover_each_group_equally(self, key):
        with pytest.raises(ValueError, match="do not cover 0, 1, ... equally"):
            attack._group_records(np.array(key))


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
            bound = keyrate.key_rate_bound(attack.statistics(atk)).b
            overlap = np.vdot(atk.records[0, 0, 0], atk.records[1, 1, 1])
            assert overlap.real >= bound - 1e-9


def block_traces(rho):
    return np.trace(rho, axis1=-2, axis2=-1).real


class TestRhoBE:
    def test_identity_attack_state(self):
        rho = rho_be(attack.identity_attack())
        np.testing.assert_allclose(rho, [[[0.5]], [[0.5]]], atol=1e-15)

    def test_hygiene_and_bob_marginal(self, attack_pool):
        for atk in attack_pool[:60]:
            d = atk.ancilla_dim
            rho = rho_be(atk)
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
                rho = rho_be(attack.random_attack(d, [31, seed]))
                want = partial_trace_bruteforce(assemble_block_diagonal(rho), (2, d), 1)
                np.testing.assert_allclose(rho.sum(axis=0), want, atol=1e-12)
                assert np.trace(want).real == pytest.approx(1.0, abs=1e-10)


class TestRhoBEC:
    def test_identity_attack_weights(self):
        rho = rho_bec(attack.identity_attack())
        want = np.zeros((2, 4, 1, 1))
        want[0, 0] = 0.5   # Bob 0, (correct, 0 flips)
        want[1, 0] = 0.5   # Bob 1, (correct, 0 flips)
        np.testing.assert_allclose(rho, want, atol=1e-15)

    def test_tracing_register_recovers_rho_be(self, attack_pool):
        for atk in attack_pool[:60]:
            got = rho_bec(atk).sum(axis=1)
            np.testing.assert_allclose(got, rho_be(atk), atol=1e-10)

    def test_entropy_matches_halved_statistics(self, attack_pool):
        for atk in attack_pool[:60]:
            d = atk.ancilla_dim
            s_direct = keyrate.key_rate_bound(attack.statistics(atk)).s_bec
            s_eigen = linalg.von_neumann_entropy(rho_bec(atk).reshape(8, d, d))
            assert s_direct == pytest.approx(s_eigen, abs=1e-9)

    def test_hygiene(self, attack_pool):
        for atk in attack_pool[:60]:
            d = atk.ancilla_dim
            rho = rho_bec(atk)
            assert abs(block_traces(rho).sum() - 1.0) <= 1e-10
            assert linalg.hermitian_eigenvalues(rho.reshape(8, d, d)).min() >= -1e-10

    def test_register_blocks_match_keyrate_pair_sums(self, attack_pool):
        # keyrate bounds S(EC) from the sums of p over each register label;
        # the oracle places each record in the block its label's definition
        # names.
        labels = keyrate.REGISTER_LABEL.ravel()
        for atk in attack_pool:
            rho_ec = rho_bec(atk).sum(axis=0)
            p = attack.statistics(atk).p.ravel()
            want = 0.5 * np.bincount(labels, weights=p, minlength=4)
            np.testing.assert_allclose(block_traces(rho_ec), want, rtol=0, atol=1e-12)

    def test_conditioning_cannot_help_bob(self, attack_pool):
        # S(B|EC) <= S(B|E): extra conditioning never increases entropy.
        for atk in attack_pool[:40]:
            d = atk.ancilla_dim
            rho_bec_ = rho_bec(atk)
            rho_be_ = rho_be(atk)
            s_b_ec = (linalg.von_neumann_entropy(rho_bec_.reshape(8, d, d))
                      - linalg.von_neumann_entropy(rho_bec_.sum(axis=0)))
            s_b_e = (linalg.von_neumann_entropy(rho_be_)
                     - linalg.von_neumann_entropy(rho_be_.sum(axis=0)))
            assert s_b_ec <= s_b_e + 1e-9


class TestGramRoute:
    # The entropies from the records' 8x8 Gram matrix against the dense
    # d x d oracle states, which share no eigendecomposition with them.
    @staticmethod
    def attacks(attack_pool):
        return (attack_pool + [attack.identity_attack(), attack.z_measurement_attack()]
                + [attack.random_attack(d, [53, seed])
                   for d in (1, 2, 4, 32) for seed in range(5)])

    def test_entropies_match_dense_oracles(self, attack_pool):
        for atk in self.attacks(attack_pool):
            g = attack.gram(atk)
            be, bec = rho_be(atk), rho_bec(atk)
            s_be = linalg.von_neumann_entropy(attack.gram_blocks(g, attack.BOB_GROUPS))
            s_e = linalg.von_neumann_entropy(g)
            s_bec = linalg.von_neumann_entropy(
                attack.gram_blocks(g, attack.BOB_REGISTER_GROUPS))
            want_be = linalg.von_neumann_entropy(be)
            want_e = linalg.von_neumann_entropy(be.sum(axis=0))
            assert s_be == pytest.approx(want_be, abs=1e-12)
            assert s_e == pytest.approx(want_e, abs=1e-12)
            d = atk.ancilla_dim
            assert s_bec == pytest.approx(linalg.von_neumann_entropy(bec.reshape(8, d, d)),
                                          abs=1e-12)
            want_rate = (want_be - want_e
                         - keyrate.h_b_given_a(attack.statistics(atk)))
            assert attack.exact_collective_rate(atk) == pytest.approx(want_rate, abs=1e-12)

    def test_register_groups_follow_the_labels(self, attack_pool):
        # Block [j, c] of the register grouping holds the record the oracle
        # places in rho_bec's block [j, c].
        for atk in self.attacks(attack_pool):
            blocks = attack.gram_blocks(attack.gram(atk), attack.BOB_REGISTER_GROUPS)
            np.testing.assert_allclose(blocks.reshape(2, 4), block_traces(rho_bec(atk)),
                                       rtol=0, atol=1e-12)

    def test_diagonal_and_critical_overlap(self, attack_pool):
        for atk in attack_pool[:60]:
            g = attack.gram(atk)
            np.testing.assert_allclose(g.diagonal().real,
                                       0.5 * attack.statistics(atk).p.reshape(-1),
                                       rtol=0, atol=1e-15)
            overlap = np.vdot(atk.records[0, 0, 0], atk.records[1, 1, 1])
            assert g[0, 7] == pytest.approx(0.5 * overlap, abs=1e-15)


class TestExactCollectiveRate:
    def test_identity_attack(self):
        assert attack.exact_collective_rate(attack.identity_attack()) \
            == pytest.approx(1.0, abs=1e-12)

    def test_copy_attack_leaks_everything(self):
        assert attack.exact_collective_rate(attack.z_measurement_attack()) \
            == pytest.approx(0.0, abs=1e-12)

    def test_exists_where_the_bound_aborts(self):
        # Eve flips the transit bit on the way in, so p000 = 0 and the bound
        # aborts; her one-dimensional ancilla learns nothing, so the rate is 1.
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        atk = attack.validate_attack(x, np.eye(2), 1)
        with pytest.raises(keyrate.TooNoisyError):
            keyrate.key_rate_bound(attack.statistics(atk))
        assert attack.exact_collective_rate(atk) == pytest.approx(1.0, abs=1e-12)


class TestSoundness:
    def test_mixed_dimension_batch_matches_members(self):
        members = [attack.identity_attack(), attack.z_measurement_attack()] + [
            attack.random_attack(d, [71, idx]) for d in (1, 2, 4, 32) for idx in range(10)]
        report, exact, mismatch = attack.soundness(*soundness_inputs(members))
        assert exact.shape == mismatch.shape == (42,)
        for m, atk in enumerate(members):
            report_m, _, mismatch_m = attack.soundness(attack.statistics(atk), attack.gram(atk))
            assert report_bytes(report, m) == report_bytes(report_m)
            assert exact[m] == attack.exact_collective_rate(atk)
            assert mismatch[m] == pytest.approx(mismatch_m, rel=0, abs=1e-14)


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
        # The realizing attack at q_x = 0, and Pauli passes at the table's
        # own points, where every statistic is the product form.
        cases = [((0.05, 0.05, 0.0), attack.symmetric_realizing_attack(0.05, 0.05))]
        cases += [(point, pauli_table_attack(*point)) for point in table_points()]
        for point, atk in cases:
            got = attack.statistics(atk)
            want = keyrate.symmetric_stats(*point)
            np.testing.assert_allclose(got.p, want.p, rtol=0, atol=1e-14, err_msg=str(point))
            for flips in (got.p_pm, got.p_mp):
                assert flips == pytest.approx(point[2], rel=0, abs=1e-14), point

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


class TestChannelAttack:
    """``channel_attack`` against channels whose statistics are known in closed form."""

    def test_pauli_table_points_exact_rate_and_audit(self):
        # At these statistics H(B|A) = h(q_rev), and the exact rate is
        # 1 - h(q_rev) - h(q_x); the bound stays below it.
        points = table_points()
        attacks = [pauli_table_attack(*point) for point in points]
        q_rev, q_x = np.array(points)[:, 1:].T
        exact = [attack.exact_collective_rate(atk) for atk in attacks]
        np.testing.assert_allclose(
            exact, 1.0 - linalg.binary_entropy(q_rev) - linalg.binary_entropy(q_x),
            rtol=0, atol=1e-13)
        checked, worst_residual, worst_slack, failures = attack.audit(one_member_stacks(attacks))
        assert (checked, failures) == (len(attacks), [])
        assert worst_residual <= 1e-12 and worst_slack >= 0.0
        stats, _ = soundness_inputs(attacks)
        assert np.count_nonzero(keyrate.key_rate_bound(stats).rate > 0.0) >= len(attacks) // 2

    def test_amplitude_damping_statistics(self):
        # |0> never decays; |1> survives each pass with probability 1 - gamma.
        # The operators are not symmetric, so a transposed K_k shows, and a
        # return pass acting on the forward register moves p[1, 0, :].
        for g_f in np.linspace(0.0, 0.3, 4):
            for g_r in np.linspace(0.0, 0.3, 4):
                p = attack.statistics(attack.channel_attack(damping_kraus(g_f),
                                                            damping_kraus(g_r))).p
                want = np.zeros((2, 2, 2))
                want[0, 0, 0] = 1.0
                want[1, 1, 1] = (1.0 - g_f) * (1.0 - g_r)
                want[1, 1, 0] = (1.0 - g_f) * g_r
                want[1, 0, 0] = g_f
                np.testing.assert_allclose(p, want, rtol=0, atol=1e-15,
                                           err_msg=f"gamma {g_f}, {g_r}")

    @pytest.mark.parametrize("kraus", [
        pytest.param([np.eye(2), np.eye(2)], id="not-trace-preserving"),
        pytest.param(np.sqrt(0.2) * np.array([np.eye(2)] * 5), id="five-operators"),
        pytest.param(np.eye(2), id="bare-matrix"),
        pytest.param([[[np.nan, 0.0], [0.0, 1.0]]], id="nan-entry"),
        pytest.param([np.eye(2), [1.0, 0.0]], id="ragged"),
    ])
    @pytest.mark.parametrize("side", ["kraus_fwd", "kraus_rev"])
    def test_rejects_bad_kraus_list_by_name(self, side, kraus):
        lists = {"kraus_fwd": [np.eye(2)], "kraus_rev": [np.eye(2)], side: kraus}
        with pytest.raises(ValueError, match=f"^{side} "):
            attack.channel_attack(**lists)


class TestStacks:
    """A stack of attacks against its members built one at a time."""

    FIELDS = ("u_e", "u_f", "e", "e_ijk", "f", "g", "records")

    @classmethod
    def assert_members_match(cls, stack, members):
        assert stack.u_e.shape[0] == len(members)
        stats = attack.statistics(stack)
        residuals = attack.unitarity_residuals(stack)
        report, exact, mismatch = attack.soundness(stats, attack.gram(stack))
        for m, atk in enumerate(members):
            assert stack.ancilla_dim == atk.ancilla_dim
            for name in cls.FIELDS:
                assert np.array_equal(getattr(stack, name)[m], getattr(atk, name)), name
            alone = attack.statistics(atk)
            assert np.array_equal(stats.p[m], alone.p)
            assert (stats.p_pm[m], stats.p_mp[m]) == (alone.p_pm, alone.p_mp)
            for name, value in attack.unitarity_residuals(atk).items():
                assert residuals[name][m] == pytest.approx(value, rel=0, abs=1e-14), name
            report_m, exact_m, mismatch_m = attack.soundness(alone, attack.gram(atk))
            assert report_bytes(report, m) == report_bytes(report_m)
            assert exact[m] == pytest.approx(exact_m, rel=0, abs=1e-14)
            assert mismatch[m] == pytest.approx(mismatch_m, rel=0, abs=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 4, 32])
    def test_stack_equals_members_built_alone(self, d):
        seeds = [[61, idx] for idx in range(12 if d == 32 else 40)]
        self.assert_members_match(attack.random_attacks(d, seeds),
                                  [attack.random_attack(d, seed) for seed in seeds])

    @pytest.mark.parametrize("d", [1, 2, 4, 32])
    def test_draws_match_one_draw_at_a_time(self, d):
        # One draw per seed written into the stack gives the unitaries of
        # four separate draws joined by complex arithmetic.
        seeds = [[67, idx] for idx in range(8)]
        want = np.stack([haar_pair(2 * d, seed) for seed in seeds])
        stack = attack.random_attacks(d, seeds)
        assert np.array_equal(stack.u_e, want[:, 0]) and np.array_equal(stack.u_f, want[:, 1])
        # A Generator seed is drawn from, and advanced, as the reference does.
        rng, ref = np.random.default_rng(67), np.random.default_rng(67)
        for _ in range(2):
            atk, want = attack.random_attack(d, rng), haar_pair(2 * d, ref)
            assert np.array_equal(atk.u_e, want[0]) and np.array_equal(atk.u_f, want[1])

    @pytest.mark.parametrize("dims", [[1, 2, 4, 32], [1, 2, 1, 32]], ids=["1,2,4,32", "1,2,1,32"])
    def test_validate_stacks_cover_every_attack_once(self, dims):
        # 44 attacks over four dimensions give 11 at d = 32, which the byte
        # budget cuts into stacks of 4, 4 and 3 on any number of CPUs.  A
        # repeated dimension has stacks of its own for each of its entries.
        positions_seen = []
        d32_sizes = []
        for positions, build in cli._validate_stacks(dims, 44, 5, corrupt=True):
            stack = build()
            assert stack.u_e.nbytes + stack.u_f.nbytes <= attack.STACK_BYTES
            positions_seen += positions
            if stack.ancilla_dim == 32 and positions[0] < 46:
                d32_sizes.append(len(positions))
            members = []
            for pos in positions:
                if pos < 2:
                    atk = (attack.identity_attack(), attack.z_measurement_attack())[pos]
                elif pos == 46:
                    atk = attack.random_attack(32, [5, 43])
                    assert stack.u_e[0, 0, 0] == atk.u_e[0, 0] + 0.5
                    assert np.array_equal(stack.u_e[0, 1:], atk.u_e[1:])
                    continue
                else:
                    idx = pos - 2
                    atk = attack.random_attack(dims[idx % 4], [5, idx])
                members.append(atk)
            if members:
                self.assert_members_match(stack, members)
        assert sorted(positions_seen) == list(range(47))
        assert d32_sizes == [4, 4, 3]

    def test_validate_stacks_fit_gram_matrices_in_the_budget(self):
        # At d = 1 a stack's unitaries take 128 bytes per attack and its
        # Gram matrices 1 KiB, so the Gram matrices set the cut.
        sizes = []
        for positions, build in cli._validate_stacks([1], 1100, 0, False):
            stack = build()
            assert stack.u_e.nbytes + stack.u_f.nbytes <= attack.STACK_BYTES
            assert attack.gram(stack).nbytes <= attack.STACK_BYTES
            if positions[0] >= 2:
                sizes.append(len(positions))
        assert sizes == [512, 512, 76]
