"""Dense complex linear algebra and entropy kernel.

Operators and kets are plain numpy arrays of complex numbers; entropies are
in bits (base-2 logarithms everywhere).  Composite systems follow one fixed
convention, inherited by every other module: the first tensor factor is the
most significant index, as in ``np.kron(a, b)[i * dim_b + j] == a[i] * b[j]``.

A block-diagonal operator is passed as the ``(..., n, n)`` stack of its
diagonal blocks; a plain 2-D matrix is a stack of one block.  Blocks stay
small (the attack layer passes Gram blocks of at most 8 x 8), so they are
dense and all of them are eigendecomposed by one LAPACK call through numpy.
"""

import numpy as np

# Tolerances used across the package.
HERMITIAN_TOL = 1e-10      # max entrywise |M - M^dagger| for "Hermitian" inputs
EIGENVALUE_CLAMP = -1e-10  # eigenvalues in [EIGENVALUE_CLAMP, 0) are rounding noise
TRACE_TOL = 1e-9           # |tr(rho) - 1| for density operators
PROB_NEG_TOL = -1e-12      # probabilities in [PROB_NEG_TOL, 0) are clamped to 0
PROB_SUM_TOL = 1e-9        # allowed excess of a probability sum over 1


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True if max entrywise |M - M^dagger| <= tol over every block."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= tol)


def _clean_probabilities(p) -> np.ndarray:
    """Clamp rounding-level negatives to 0; reject anything worse."""
    p = np.asarray(p, dtype=float).reshape(-1)
    bad = p[~np.isfinite(p)]
    if bad.size:
        raise ValueError(f"non-finite probability {bad[0]}")
    if p.size and p.min() < PROB_NEG_TOL:
        raise ValueError(f"negative probability {p.min()} beyond tolerance")
    return np.clip(p, 0.0, None)


def shannon_entropy(p) -> float:
    """Shannon entropy -sum p_i log2 p_i in bits, with 0*log(0) = 0.

    Entries may be a sub-normalized distribution; the sum may not exceed 1
    beyond tolerance.
    """
    p = _clean_probabilities(p)
    total = p.sum()
    if total > 1.0 + PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total} > 1")
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum()) if nz.size else 0.0


def binary_entropy(p: float) -> float:
    """Entropy of a (p, 1-p) coin in bits; symmetric about 1/2."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"binary entropy argument {p} outside [0, 1]")
    p = min(max(float(p), 0.0), 1.0)
    return shannon_entropy([p, 1.0 - p])


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian block-diagonal operator, descending.

    ``m`` is the ``(..., n, n)`` stack of its diagonal blocks.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square blocks, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.sort(np.linalg.eigvalsh(m).reshape(-1))[::-1]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy of a density operator in bits: -sum lambda_i log2 lambda_i.

    ``rho`` is the stack of diagonal blocks of a block-diagonal operator
    (see ``hermitian_eigenvalues``).  Requires rho Hermitian, positive
    semi-definite and of unit trace within tolerance.  Eigenvalues in
    [-1e-10, 0) are treated as rounding noise and clamped to 0; anything
    more negative is an error.
    """
    lam = hermitian_eigenvalues(rho)
    if abs(lam.sum() - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {lam.sum()} deviates from 1 beyond tolerance")
    if lam.min() < EIGENVALUE_CLAMP:
        raise ValueError(f"eigenvalue {lam.min()} below PSD tolerance")
    lam = np.clip(lam, 0.0, None)
    nz = lam[lam > 0.0]
    return max(float(-(nz * np.log2(nz)).sum()), 0.0)
