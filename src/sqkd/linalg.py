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


def shannon_entropy(p):
    """Shannon entropy -sum p_i log2 p_i in bits, with 0*log(0) = 0.

    ``p`` is ``(..., n)``, a distribution over the last axis: one gives a
    float and a stack an array over the leading axes.  Entries may be a
    sub-normalized distribution, no sum may exceed 1 beyond tolerance, and
    rounding-level negatives are clamped to 0.
    """
    p = np.asarray(p, dtype=float)
    bad = p[~np.isfinite(p)]
    if bad.size:
        raise ValueError(f"non-finite probability {bad[0]}")
    if p.size and p.min() < PROB_NEG_TOL:
        raise ValueError(f"negative probability {p.min()} beyond tolerance")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1)
    bad = total[total > 1.0 + PROB_SUM_TOL]
    if bad.size:
        raise ValueError(f"probabilities sum to {bad[0]} > 1")
    positive = p > 0.0
    terms = p * np.log2(p, out=np.zeros_like(p), where=positive)
    # Rounded as a sum of the positive terms alone (n <= 8): numpy adds eight
    # terms pairwise but fewer one after another, as cumsum does.
    s = np.where(positive.all(axis=-1), terms.sum(axis=-1),
                 terms.cumsum(axis=-1)[..., -1:].sum(axis=-1))
    s = np.where(positive.any(axis=-1), -s, 0.0)
    return s if s.ndim else float(s)


def binary_entropy(p):
    """Entropy of a (p, 1-p) coin in bits; symmetric about 1/2.

    p may leave [0, 1] by the same rounding the other entropies accept:
    down to PROB_NEG_TOL and up to 1 + PROB_SUM_TOL.  An array of p gives
    an array of entropies.
    """
    p = np.asarray(p, dtype=float)
    bad = p[~((PROB_NEG_TOL <= p) & (p <= 1.0 + PROB_SUM_TOL))]
    if bad.size:
        raise ValueError(f"binary entropy argument {bad[0]} outside [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    return shannon_entropy(np.stack([p, 1.0 - p], axis=-1))


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
