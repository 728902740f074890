"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the code paths under test: eigenvalues
come from cyclic Jacobi rotations instead of LAPACK, partial traces from
explicit index loops, block-diagonal operators from copying each block into
place, the rate bound from a direct transcription with
scalar math, Monte Carlo chunks from evolving one state vector per
iteration instead of sampling a table of outcomes, the post-protocol
states as dense d x d blocks instead of the records' 8 x 8 Gram matrix, and
each random attack's Gaussian matrices from four separate draws and complex
arithmetic instead of one draw written into a stack.
"""

import math

import numpy as np


def jacobi_hermitian_eigenvalues(a, max_sweeps=200, tol=1e-14):
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations.

    Returns them in descending order.  Independent of numpy.linalg.
    """
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol:
                    continue
                off = max(off, abs(apq))
                phi = np.angle(apq)
                beta = abs(apq)
                app = a[p, p].real
                aqq = a[q, q].real
                theta = 0.5 * math.atan2(2.0 * beta, app - aqq)
                c, s = math.cos(theta), math.sin(theta)
                v = np.eye(n, dtype=complex)
                v[p, p] = c
                v[p, q] = -s * np.exp(1j * phi)
                v[q, p] = s * np.exp(-1j * phi)
                v[q, q] = c
                a = v.conj().T @ a @ v
        if off <= tol:
            break
    return np.sort(np.diag(a).real)[::-1]


def partial_trace_bruteforce(rho, dims, keep):
    """Partial trace by explicit index summation."""
    d0, d1 = dims
    rho = np.asarray(rho, dtype=complex)
    if keep == 0:
        out = np.zeros((d0, d0), dtype=complex)
        for i in range(d0):
            for k in range(d0):
                for j in range(d1):
                    out[i, k] += rho[i * d1 + j, k * d1 + j]
    else:
        out = np.zeros((d1, d1), dtype=complex)
        for j in range(d1):
            for l in range(d1):
                for i in range(d0):
                    out[j, l] += rho[i * d1 + j, i * d1 + l]
    return out


def assemble_block_diagonal(blocks):
    """Dense block-diagonal matrix with the given square blocks, in order.

    The blocks may differ in size; ``blocks`` may be a list or a stack.
    """
    sizes = [len(b) for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    at = 0
    for blk, n in zip(blocks, sizes):
        out[at:at + n, at:at + n] = blk
        at += n
    return out


def _entropy(values):
    return -sum(v * math.log2(v) for v in values if v > 0.0)


def _h(p):
    return _entropy([p, 1.0 - p])


def independent_rate(p, p_pm, p_mp):
    """Direct scalar transcription of the key-rate bound formula.

    ``p`` is indexable as p[i][j][k].  Shares nothing with the package
    implementation beyond the math module.
    """
    b = (1.0 - p_pm - p_mp
         - math.sqrt(p[0][0][0] * p[1][0][1]) - math.sqrt(p[0][1][0] * p[1][0][1])
         - math.sqrt(p[0][1][0] * p[1][1][1]) - math.sqrt(p[0][0][1] * p[1][0][0])
         - math.sqrt(p[0][0][1] * p[1][1][0]) - math.sqrt(p[0][1][1] * p[1][0][0])
         - math.sqrt(p[0][1][1] * p[1][1][0]))
    cal_b = b * b if b >= 0.0 else 0.0
    p000, p111 = p[0][0][0], p[1][1][1]
    lam = 0.5 + math.sqrt((p000 - p111) ** 2 + 4.0 * cal_b) / (2.0 * (p000 + p111))
    lam = min(lam, 1.0)
    s_bec = _entropy([0.5 * p[i][j][k]
                      for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    t1 = p000 + p111
    t2 = p[1][0][0] + p[0][1][1]
    t3 = p[0][0][1] + p[1][1][0]
    t4 = p[1][0][1] + p[0][1][0]
    s_ec = (_entropy([0.5 * t1, 0.5 * t2, 0.5 * t3, 0.5 * t4])
            + 0.5 * (t2 + t3 + t4) + 0.5 * t1 * _h(lam))
    pa0 = 0.5 * (p[0][0][0] + p[0][1][0] + p[1][1][0] + p[1][0][0])
    joint = [0.5 * (p[0][0][0] + p[1][0][0]), 0.5 * (p[0][0][1] + p[1][0][1]),
             0.5 * (p[0][1][0] + p[1][1][0]), 0.5 * (p[0][1][1] + p[1][1][1])]
    return s_bec - s_ec + _h(pa0) - _entropy(joint)


def born_x_flip_probabilities(u_e, u_f, d):
    """(p_pm, p_mp) straight from the Born rule on reflected X rounds.

    Builds |+,0> and |-,0>, applies both unitaries, and projects onto the
    flipped X state; never touches the conditional-vector machinery.
    """
    out = []
    for sign in (1.0, -1.0):
        psi = np.zeros(2 * d, dtype=complex)
        psi[0] = 1.0 / math.sqrt(2.0)
        psi[d] = sign / math.sqrt(2.0)
        psi = u_f @ (u_e @ psi)
        flipped = (psi[:d] - sign * psi[d:]) / math.sqrt(2.0)
        out.append(float(np.vdot(flipped, flipped).real))
    return tuple(out)


def born_rule_chunk(u_e, u_f, d, n, prob_z, prob_measure, seed, chunk):
    """One Monte Carlo chunk by batched state-vector evolution.

    Same draws, in the same order, as ``simulate._simulate_chunk``, which
    makes both choices with probability 1/2; every row's state is prepared,
    evolved through u_e, collapsed by Bob's measurement, evolved through u_f
    and measured by Alice.  Returns the Z tallies, reflected X tallies and
    other count that the chunk's event codes tally, then Alice's and Bob's
    sifted key bits.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, chunk]))
    z_mask = rng.random(n) < prob_z
    bits = rng.integers(0, 2, size=n).astype(np.uint8)
    measure_mask = rng.random(n) < prob_measure
    u_bob = rng.random(n)
    u_alice = rng.random(n)

    def born_pair(psi):
        mag = psi.real ** 2 + psi.imag ** 2
        return mag[:, :d].sum(axis=1), mag[:, d:].sum(axis=1)

    # Alice's preparation: Z rows get |bit, 0>, X rows (|0,0> +/- |1,0>)/sqrt2.
    psi = np.zeros((n, 2 * d), dtype=complex)
    rows = np.arange(n)
    z_rows = rows[z_mask]
    psi[z_rows, bits[z_mask].astype(np.int64) * d] = 1.0
    x_rows = rows[~z_mask]
    psi[x_rows, 0] = 1.0 / np.sqrt(2.0)
    psi[x_rows, d] = np.where(bits[~z_mask] == 0, 1.0, -1.0) / np.sqrt(2.0)

    psi = psi @ u_e.T

    # Bob: projective Z measurement with collapse on measuring rows.
    p0, p1 = born_pair(psi)
    ratio1 = np.divide(p1, p0 + p1, out=np.zeros_like(p1), where=(p0 + p1) > 0)
    bob_bits = np.zeros(n, dtype=np.uint8)
    bob_bits[measure_mask] = u_bob[measure_mask] < ratio1[measure_mask]
    sel1 = measure_mask & (bob_bits == 1)
    psi[sel1, :d] = 0.0
    psi[sel1] /= np.sqrt(p1[sel1])[:, None]
    sel0 = measure_mask & (bob_bits == 0)
    psi[sel0, d:] = 0.0
    psi[sel0] /= np.sqrt(p0[sel0])[:, None]

    psi = psi @ u_f.T

    # Alice measures in her preparation basis.
    p0, p1 = born_pair(psi)
    alice_bits = np.zeros(n, dtype=np.uint8)
    ratio1 = np.divide(p1, p0 + p1, out=np.zeros_like(p1), where=(p0 + p1) > 0)
    alice_bits[z_mask] = u_alice[z_mask] < ratio1[z_mask]
    if x_rows.size:
        minus = psi[x_rows, :d] - psi[x_rows, d:]
        q_minus = 0.5 * (minus.real ** 2 + minus.imag ** 2).sum(axis=1)
        totals = (p0 + p1)[x_rows]
        alice_bits[x_rows] = u_alice[x_rows] < q_minus / totals

    key_mask = z_mask & measure_mask
    cells = (bits.astype(np.int64) * 4 + bob_bits * 2 + alice_bits)[key_mask]
    z_counts = np.bincount(cells, minlength=8).reshape(2, 2, 2)
    x_reflect = ~z_mask & ~measure_mask
    x_cells = (bits.astype(np.int64) * 2 + alice_bits)[x_reflect]
    x_counts = np.bincount(x_cells, minlength=4).reshape(2, 2)
    other = n - int(key_mask.sum()) - int(x_reflect.sum())
    return z_counts, x_counts, other, alice_bits[key_mask], bob_bits[key_mask]


def haar_pair(dim, seed):
    """The (2, dim, dim) random unitaries u_e, u_f of ``seed``, one draw at a time.

    Each matrix is drawn as its real part and then its imaginary part, u_e
    before u_f, scaled to unit variance per entry; QR then makes it unitary,
    with the phases of R's diagonal moved into Q.
    """
    rng = np.random.default_rng(seed)
    z = np.stack([rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                  for _ in range(2)])
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def register_label(i, j, k):
    """Agreement-register label of key round (sent i, Bob j, Alice k).

    0 (agree, 0 flips), 1 (agree, 1 flip), 2 (disagree, 1 flip),
    3 (disagree, 2 flips), transcribed from the definition rather than read
    from ``keyrate.REGISTER_LABEL``.
    """
    agree = j == k
    flips = (i != j) + (j != k)
    return {(True, 0): 0, (True, 1): 1, (False, 1): 2, (False, 2): 3}[agree, flips]


def rho_bec(attack):
    """Dense post-protocol state of Bob's key bit, the register and Eve.

    The (2, 4, d, d) stack of its blocks, indexed by Bob's bit and then the
    register label; each block holds one key-round record r as |r><r|/2.
    Eve's marginal with the register is ``rho_bec(attack).sum(axis=0)``.
    """
    d = attack.ancilla_dim
    rho = np.zeros((2, 4, d, d), dtype=complex)
    for i, j, k in np.ndindex(2, 2, 2):
        r = attack.records[i, j, k]
        rho[j, register_label(i, j, k)] += 0.5 * np.outer(r, r.conj())
    return rho


def rho_be(attack):
    """Dense post-protocol state of Bob's key bit and Eve's ancilla.

    ``rho_bec`` with the register traced out: the (2, d, d) stack of blocks
    indexed by Bob's bit.  Eve's marginal is ``rho_be(attack).sum(axis=0)``.
    """
    return rho_bec(attack).sum(axis=1)
