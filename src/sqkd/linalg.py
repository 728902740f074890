"""Dense complex linear algebra and entropy kernel.

Operators and kets are plain numpy arrays of complex numbers; entropies are
in bits (base-2 logarithms everywhere).  Composite systems follow one fixed
convention, inherited by every other module: the first tensor factor is the
most significant index, as in ``np.kron(a, b)[i * dim_b + j] == a[i] * b[j]``.

Operators follow the gufunc convention ``(..., m, n, n)``: the last three
axes hold the m diagonal blocks of one block-diagonal operator, any leading
axes index independent operators, and a plain 2-D matrix is one block.  A
single operator gives a float, a batch an array over its leading axes, and
both are the same code.  Blocks stay small (the attack layer passes Gram
blocks of at most 8 x 8), so they are dense and every block of a batch is
eigendecomposed by one LAPACK call through numpy.
"""

import numpy as np

# Tolerances used across the package.
HERMITIAN_TOL = 1e-10      # max entrywise |M - M^dagger| for "Hermitian" inputs
EIGENVALUE_CLAMP = -1e-10  # eigenvalues in [EIGENVALUE_CLAMP, 0) are rounding noise
TRACE_TOL = 1e-9           # |tr(rho) - 1| for density operators
PROB_NEG_TOL = -1e-12      # probabilities in [PROB_NEG_TOL, 0) are clamped to 0
PROB_SUM_TOL = 1e-9        # allowed excess of a probability sum over 1


def is_hermitian(m: np.ndarray) -> bool:
    """True if max entrywise |M - M^dagger| <= HERMITIAN_TOL over every block."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= HERMITIAN_TOL)


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
    """Entropy of a (p, 1-p) coin in bits; symmetric about 1/2.

    p may leave [0, 1] by the same rounding the other entropies accept:
    down to PROB_NEG_TOL and up to 1 + PROB_SUM_TOL.
    """
    if not PROB_NEG_TOL <= p <= 1.0 + PROB_SUM_TOL:
        raise ValueError(f"binary entropy argument {p} outside [0, 1]")
    p = min(max(float(p), 0.0), 1.0)
    return shannon_entropy([p, 1.0 - p])


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of Hermitian block-diagonal operators, descending.

    ``m`` is ``(..., k, n, n)`` (see the module docstring); the result is
    ``(..., k * n)``, one row of eigenvalues per operator.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square blocks, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    lam = np.linalg.eigvalsh(m).reshape(m.shape[:-3] + (-1,))
    return np.sort(lam, axis=-1)[..., ::-1]


def von_neumann_entropy(rho: np.ndarray):
    """Entropy in bits, -sum lambda_i log2 lambda_i, of density operators.

    ``rho`` is ``(..., k, n, n)``, the diagonal blocks of block-diagonal
    operators (see ``hermitian_eigenvalues``); a single operator gives a
    float and a batch an array over the leading axes.  Every operator must
    be Hermitian, positive semi-definite and of unit trace within
    tolerance.  Eigenvalues in [-1e-10, 0) are treated as rounding noise
    and clamped to 0; anything more negative is an error.
    """
    lam = hermitian_eigenvalues(rho)
    trace = lam.sum(axis=-1)
    worst = np.ravel(trace)[np.argmax(np.abs(trace - 1.0))]
    if abs(worst - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {worst} deviates from 1 beyond tolerance")
    if lam.min() < EIGENVALUE_CLAMP:
        raise ValueError(f"eigenvalue {lam.min()} below PSD tolerance")
    lam = np.clip(lam, 0.0, None)
    plogp = lam * np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    s = np.maximum(-plogp.sum(axis=-1), 0.0)
    return s if s.ndim else float(s)
