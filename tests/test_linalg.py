import numpy as np
import pytest

from sqkd import linalg
from oracles import assemble_block_diagonal, jacobi_hermitian_eigenvalues

# -sum p log2 p for (1/4, 3/4), evaluated with 30-digit arithmetic.
H_QUARTER = 0.8112781244591328


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def random_density(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def random_density_stack(n, dim, rng):
    """Blocks w_j sigma_j of a random block-diagonal density operator."""
    weights = rng.random(n)
    weights /= weights.sum()
    return np.stack([w * random_density(dim, rng) for w in weights])


def jacobi_entropy(m):
    lam = jacobi_hermitian_eigenvalues(m)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


class TestShannonEntropy:
    def test_uniform_two_outcome(self):
        assert linalg.shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert linalg.shannon_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_uniform_four_outcome(self):
        assert linalg.shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_subnormalized_allowed(self):
        assert linalg.shannon_entropy([0.25, 0.25]) == pytest.approx(1.0, abs=1e-12)

    def test_rounding_negative_clamped(self):
        assert linalg.shannon_entropy([1.0, -1e-13]) == 0.0

    def test_negative_beyond_tolerance(self):
        with pytest.raises(ValueError):
            linalg.shannon_entropy([1.0, -1e-6])

    def test_sum_exceeding_one(self):
        with pytest.raises(ValueError):
            linalg.shannon_entropy([0.7, 0.7])

    @pytest.mark.parametrize("n", [8, 4, 2, 1, 0])
    def test_rows_of_a_stack_sum_as_their_positive_terms(self, rng, n):
        # The last axis holds the distributions, and each row's entropy is
        # bit for bit the sum over its positive terms alone.
        rows = rng.random((60, n)) * (rng.random((60, n)) < 0.7)
        rows /= np.maximum(rows.sum(axis=1, keepdims=True), 1.0)
        rows[:2] = 0.0
        if n:
            rows[1, 0] = 1.0
        want = []
        for row in rows:
            nz = row[row > 0.0]
            want.append(float(-(nz * np.log2(nz)).sum()) if nz.size else 0.0)
        assert linalg.shannon_entropy(rows).tobytes() == np.array(want).tobytes()
        assert linalg.binary_entropy(rows[:, :1]).tobytes() == np.array(
            [[linalg.binary_entropy(p)] for p in rows[:, :1].ravel()]).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match=f"non-finite probability {bad}"):
            linalg.shannon_entropy([bad, 0.5])


class TestBinaryEntropy:
    def test_endpoints_and_half(self):
        assert linalg.binary_entropy(0.0) == 0.0
        assert linalg.binary_entropy(1.0) == 0.0
        assert linalg.binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_matches_high_precision_value(self):
        assert linalg.binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_symmetric(self, rng):
        for p in rng.random(20):
            assert linalg.binary_entropy(p) == pytest.approx(
                linalg.binary_entropy(1.0 - p), abs=1e-12)

    def test_sum_tolerance_above_one(self):
        # Half-sums of statistics that the rate bound accepts reach this far.
        assert linalg.binary_entropy(1.0 + 0.5 * linalg.PROB_SUM_TOL) == 0.0
        with pytest.raises(ValueError):
            linalg.binary_entropy(1.0 + 2 * linalg.PROB_SUM_TOL)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            linalg.binary_entropy(1.01)
        with pytest.raises(ValueError):
            linalg.binary_entropy(-0.01)


class TestHermitianEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(
            linalg.hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        np.testing.assert_allclose(
            linalg.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0])

    def test_random_matches_jacobi_oracle(self, rng):
        for _ in range(10):
            m = random_hermitian(8, rng)
            got = linalg.hermitian_eigenvalues(m)
            want = jacobi_hermitian_eigenvalues(m)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_eigenvalue_sum_equals_trace(self, rng):
        for dim in (2, 5, 9):
            m = random_hermitian(dim, rng)
            assert linalg.hermitian_eigenvalues(m).sum() == pytest.approx(
                np.trace(m).real, abs=1e-9)

    def test_rejects_non_hermitian(self, rng):
        # A plain matrix, and a stack with one non-Hermitian block.
        stack = np.stack([random_hermitian(3, rng) for _ in range(4)])
        stack[2, 0, 1] += 1e-6
        for m in (np.array([[0.0, 1.0], [0.0, 0.0]]), stack):
            with pytest.raises(ValueError, match="not Hermitian"):
                linalg.hermitian_eigenvalues(m)

    def test_stack_matches_assembled_matrix(self, rng):
        for n, dim in ((1, 5), (2, 3), (4, 2), (8, 1)):
            stack = np.stack([random_hermitian(dim, rng) for _ in range(n)])
            got = linalg.hermitian_eigenvalues(stack)
            assert got.shape == (n * dim,)
            full = assemble_block_diagonal(stack)
            np.testing.assert_allclose(got, jacobi_hermitian_eigenvalues(full),
                                       atol=1e-9)
            np.testing.assert_allclose(got, linalg.hermitian_eigenvalues(full),
                                       atol=1e-12)


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert linalg.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(
            1.0, abs=1e-12)

    def test_pure_state_projector(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        assert linalg.von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(
            0.0, abs=1e-10)

    def test_diagonal_matches_binary_entropy(self):
        assert linalg.von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(
            H_QUARTER, abs=1e-12)

    def test_bounds_on_random_states(self, rng):
        for dim in (2, 3, 6, 8):
            s = linalg.von_neumann_entropy(random_density(dim, rng))
            assert 0.0 <= s <= np.log2(dim) + 1e-12

    def test_trace_deviation_rejected(self, rng):
        for rho in (np.eye(2), 1.01 * random_density_stack(3, 2, rng)):
            with pytest.raises(ValueError, match="trace"):
                linalg.von_neumann_entropy(rho)

    def test_negative_eigenvalue_rejected(self):
        stack = np.stack([np.diag([0.75, 0.0]), np.diag([0.5, -0.25])])
        for rho in (np.diag([1.5, -0.5]), stack):
            with pytest.raises(ValueError, match="PSD"):
                linalg.von_neumann_entropy(rho)

    def test_stack_matches_assembled_matrix(self, rng):
        for n, dim in ((1, 4), (2, 3), (4, 2), (8, 1)):
            stack = random_density_stack(n, dim, rng)
            full = assemble_block_diagonal(stack)
            s = linalg.von_neumann_entropy(stack)
            assert s == pytest.approx(jacobi_entropy(full), abs=1e-9)
            assert s == pytest.approx(linalg.von_neumann_entropy(full), abs=1e-12)


class TestBlockDiagEntropy:
    """Entropy of sum_j w_j |j><j| x sigma_j, passed as the stack of the
    blocks w_j sigma_j."""

    def test_two_pure_blocks(self):
        pure = np.diag([1.0, 0.0])
        assert linalg.von_neumann_entropy(np.stack([0.5 * pure, 0.5 * pure])) \
            == pytest.approx(1.0, abs=1e-12)

    def test_single_maximally_mixed_block(self):
        assert linalg.von_neumann_entropy((np.eye(2) / 2)[None]) == pytest.approx(
            1.0, abs=1e-12)

    def test_zero_weight_block_skipped(self):
        garbage = np.diag([5.0, 5.0])  # any operator, but its weight is zero
        assert linalg.von_neumann_entropy(np.stack([np.eye(2) / 2, 0.0 * garbage])) \
            == pytest.approx(1.0, abs=1e-12)

    def test_non_unit_trace_block_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            linalg.von_neumann_entropy(np.eye(2)[None])

    def test_matches_assembled_matrix(self, rng):
        # Blocks of unequal size are zero-padded to a common one; the sum
        # also equals H(weights) + sum_j w_j S(sigma_j).
        for _ in range(50):
            n = int(rng.integers(1, 5))
            dims = rng.integers(1, 9, size=n)
            weights = rng.random(n)
            weights /= weights.sum()
            blocks = [random_density(int(d), rng) for d in dims]
            stack = np.zeros((n, dims.max(), dims.max()), dtype=complex)
            for j, (w, blk, d) in enumerate(zip(weights, blocks, dims)):
                stack[j, :d, :d] = w * blk
            full = assemble_block_diagonal([w * blk for w, blk in zip(weights, blocks)])
            mixture = linalg.shannon_entropy(weights) + sum(
                w * linalg.von_neumann_entropy(blk) for w, blk in zip(weights, blocks))
            s = linalg.von_neumann_entropy(stack)
            assert s == pytest.approx(linalg.von_neumann_entropy(full), abs=1e-9)
            assert s == pytest.approx(mixture, abs=1e-9)


class TestBatches:
    """Leading axes index independent block-diagonal operators."""

    def test_batch_matches_one_call_per_operator(self, rng):
        for m, n in ((1, 1), (1, 8), (2, 4), (8, 1), (3, 2)):
            batch = np.stack([random_density_stack(m, n, rng) for _ in range(6)])
            batch = batch.reshape((2, 3) + batch.shape[1:])
            s = linalg.von_neumann_entropy(batch)
            lam = linalg.hermitian_eigenvalues(batch)
            assert s.shape == (2, 3) and lam.shape == (2, 3, m * n)
            for idx in np.ndindex(2, 3):
                one = linalg.von_neumann_entropy(batch[idx])
                assert isinstance(one, float)
                assert s[idx] == pytest.approx(one, abs=1e-14)
                np.testing.assert_allclose(lam[idx], linalg.hermitian_eigenvalues(batch[idx]),
                                           rtol=0, atol=1e-14)

    def test_one_bad_member_fails_the_batch(self, rng):
        good = np.stack([random_density_stack(2, 3, rng) for _ in range(5)])
        not_hermitian = good.copy()
        not_hermitian[3, 1, 0, 2] += 1e-6
        bad_trace = good.copy()
        bad_trace[1] *= 1.01
        not_psd = good.copy()
        not_psd[4, 0] = np.diag([0.75, -0.25, 0.0])
        not_psd[4, 1] = np.diag([0.5, 0.0, 0.0])
        for batch, match in ((not_hermitian, "not Hermitian"), (bad_trace, "trace 1.01"),
                             (not_psd, "eigenvalue -0.25 below PSD")):
            with pytest.raises(ValueError, match=match):
                linalg.von_neumann_entropy(batch)
        assert linalg.von_neumann_entropy(good).shape == (5,)
