"""Collective attacks on the two-way channel and their exact analysis.

An attack is a pair of unitaries (u_e, u_f) on the transit qubit joined to
Eve's private ancilla; u_e acts on the way from Alice to Bob, u_f on the
way back.  Everything Alice and Bob can observe, and everything Eve ends up
holding, is determined by a family of (generally unnormalized) conditional
ancilla vectors obtained by projecting the unitaries' action on |0>_E.  An
attack carries them, computed once when it is built:

  e[j]           components of u_e |i, 0>:  u_e|i,0> = |0, e[2i]> + |1, e[2i+1]>
  e_ijk[i, j, k] components of u_f |i, e[j]> on Bob-resent bit i
  f[j]           components of (u_f u_e) |i, 0> on Z inputs (reflected rounds)
  g[j]           components of (u_f u_e) |+/-, 0> on X inputs
  records[i, j, k]  the key-round record e_ijk[j, 2i+j, k] (sent i, Bob j,
                    Alice k)

f is summed from e_ijk while g comes from the unitaries directly, so the
identity that makes g a Hadamard combination of f
(``unitarity_residuals(attack)['g_combo']``) cross-checks the e_ijk
extraction.  The worst residual is stored as ``residual``, and an attack not
unitary enough to have statistics has none: ``statistics`` refuses it, and
with it ``exact_collective_rate`` and any simulation of it.

Eve's post-protocol states are mixtures of the eight records, |r><r|/2
each, block diagonal in Bob's bit and the agreement register.  Their
entropies are taken from the 8x8 Gram matrix of the records (``gram``),
whose principal submatrices share the blocks' non-zero spectra, so no d x d
state is ever built.

Attacks stack: unitaries of shape (..., 2d, 2d) make one CollectiveAttack
whose vectors, Gram matrices, statistics, residuals and entropies carry the
same leading axes, one member per index, so a batch of attacks of one
ancilla dimension takes a single vectorised pass.  A single attack is the
same code with no leading axes.  Each member of a stack equals the attack
built alone from its unitaries, and ``statistics`` gives one stacked
ChannelStatistics, which ``keyrate`` takes in one pass as well.
``random_attacks`` writes each seed's Gaussian draw straight into one
stack and factorises it by one batched QR; ``random_attack`` is member 0 of
the same route with a single seed.  Gram matrices are (..., 8, 8) whatever
the ancilla dimension, so those of stacks of different dimensions
concatenate into one batch for the entropies and the bound.

Transit is the most significant tensor factor throughout (see linalg).
"""

from dataclasses import dataclass, field

import numpy as np

from . import keyrate, linalg
from .keyrate import REGISTER_LABEL, ChannelStatistics

UNITARY_TOL = 1e-10
MAX_ANCILLA_DIM = 32

# Key-round record [i, j, k] (sent i, Bob j, Alice k) is e_ijk[j, 2i+j, k];
# e_ijk[_RECORDS] gathers all eight as a (2, 2, 2, d) array.
_I, _J, _K = np.indices((2, 2, 2))
_RECORDS = (_J, 2 * _I + _J, _K)


def _group_records(key: np.ndarray) -> np.ndarray:
    # Record indices (C order of [i, j, k]) grouped by key, row m holding the
    # records with key m; keys 0, 1, ... must each cover as many records.
    key = key.reshape(-1)
    if key.min() < 0 or np.ptp(np.bincount(key)):
        raise ValueError(f"record keys {key.tolist()} do not cover 0, 1, ... equally")
    groups = np.argsort(key, kind="stable").reshape(key.max() + 1, -1)
    groups.setflags(write=False)
    return groups


# The post-protocol state is block diagonal in Bob's bit (state BE) and in
# Bob's bit and the agreement register (state BEC); each row lists the
# records of one block.  Every register block holds exactly one record.
BOB_GROUPS = _group_records(_J)
BOB_REGISTER_GROUPS = _group_records(4 * _J + REGISTER_LABEL)

# Columns are sqrt(2)|+> and sqrt(2)|->.
_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]])


@dataclass(frozen=True)
class CollectiveAttack:
    """A pair of attack unitaries with their ancilla dimension.

    Eve's conditional ancilla vectors are computed from the unitaries when
    the attack is built and stored read-only; none is normalized.  e has
    shape (4, d); e_ijk has shape (2, 4, 2, d) indexed by Bob's resent bit
    i, the forward label j and Alice's final outcome k; f and g have shape
    (4, d); records has shape (2, 2, 2, d), record [i, j, k] being the
    ancilla vector on the key-round path (sent i) -> (Bob j) -> (Alice k).
    A stack of attacks has unitaries (..., 2d, 2d), and every vector field
    carries the same leading axes.  residual is the worst of the six
    ``unitarity_residuals``, per member of a stack, and keeps a NaN.
    """

    ancilla_dim: int
    u_e: np.ndarray
    u_f: np.ndarray
    e: np.ndarray = field(init=False, repr=False, compare=False)
    e_ijk: np.ndarray = field(init=False, repr=False, compare=False)
    f: np.ndarray = field(init=False, repr=False, compare=False)
    g: np.ndarray = field(init=False, repr=False, compare=False)
    records: np.ndarray = field(init=False, repr=False, compare=False)
    residual: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.ancilla_dim
        lead = self.u_e.shape[:-2]
        forward = self.u_e[..., [0, d]]            # u_e |0,0> and u_e |1,0>
        e = forward.swapaxes(-1, -2).reshape(lead + (4, d))
        e_ijk = np.einsum("...kaib,...jb->...ijka",
                          self.u_f.reshape(lead + (2, d, 2, d)), e)
        f = (e_ijk[..., 0, 0::2, :, :] + e_ijk[..., 1, 1::2, :, :]).reshape(lead + (4, d))
        # u_f u_e |+/-,0> projected onto <+| and <-|, each carrying 1/sqrt(2).
        x_round = (self.u_f @ (forward @ _PLUS_MINUS)).reshape(lead + (2, d, 2))
        g = 0.5 * np.einsum("ky,...kax->...xya", _PLUS_MINUS, x_round).reshape(lead + (4, d))
        records = e_ijk[(..., *_RECORDS, slice(None))]
        for name, arr in (("e", e), ("e_ijk", e_ijk), ("f", f), ("g", g),
                          ("records", records)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        residual = np.max(list(unitarity_residuals(self).values()), axis=0)
        residual.setflags(write=False)
        object.__setattr__(self, "residual", residual)


def _checked_ancilla_dim(ancilla_dim) -> int:
    if isinstance(ancilla_dim, bool) or not isinstance(ancilla_dim, (int, np.integer)):
        raise ValueError(f"ancilla_dim must be an integer, got {ancilla_dim!r}")
    if not 1 <= ancilla_dim <= MAX_ANCILLA_DIM:
        raise ValueError(f"ancilla_dim must be in [1, {MAX_ANCILLA_DIM}]")
    return int(ancilla_dim)


def validate_attack(u_e: np.ndarray, u_f: np.ndarray, ancilla_dim: int) -> CollectiveAttack:
    """Check shapes and unitarity, returning an immutable attack.

    ``u_e`` and ``u_f`` may carry the same leading axes, giving a stack; the
    unitarity residual reported is the worst over the stack.
    """
    ancilla_dim = _checked_ancilla_dim(ancilla_dim)
    d = 2 * ancilla_dim
    out = []
    for name, u in (("u_e", u_e), ("u_f", u_f)):
        u = np.asarray(u, dtype=complex)
        if u.shape[-2:] != (d, d):
            raise ValueError(f"{name} must have shape ({d}, {d}), got {u.shape}")
        defect = u.conj().swapaxes(-1, -2) @ u
        np.einsum("...ii->...i", defect)[...] -= 1.0     # U^dag U - I
        residual = np.max(np.abs(defect))
        if not residual <= UNITARY_TOL:     # NaN fails too
            raise ValueError(f"{name} is not unitary: residual {residual}")
        u = u.copy()
        u.setflags(write=False)
        out.append(u)
    if out[0].shape != out[1].shape:
        raise ValueError(f"u_e and u_f stack shapes differ: {out[0].shape} "
                         f"and {out[1].shape}")
    return CollectiveAttack(ancilla_dim=ancilla_dim, u_e=out[0], u_f=out[1])


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("...a,...a->...", x.conj(), x).real


def unitarity_residuals(attack: CollectiveAttack) -> dict:
    """Max deviation of each identity group the attack's vectors must satisfy.

    Keys: 'e_norms' and 'e_orth' (forward unitarity), 'e_split' (each
    forward norm splits across Alice's outcomes), 'f_norms' and 'f_orth'
    (round-trip unitarity), 'g_combo' (the X components, computed from the
    unitaries, against the Hadamard combinations of f, summed from e_ijk).
    Values are floats for a single attack and arrays over a stack's leading
    axes.
    """
    e, f, g = attack.e, attack.f, attack.g
    lead = e.shape[:-2]

    def norms_and_orth(x):
        gram = x.conj() @ x.swapaxes(-1, -2)
        norms = np.diagonal(gram, axis1=-2, axis2=-1).real.reshape(lead + (2, 2)).sum(axis=-1)
        orth = gram[..., 0, 2] + gram[..., 1, 3]
        # hypot rounds as abs of one complex number; abs of a complex array
        # can differ in the last bit.
        return np.max(np.abs(norms - 1.0), axis=-1), np.hypot(orth.real, orth.imag)

    e_norms, e_orth = norms_and_orth(e)
    f_norms, f_orth = norms_and_orth(f)
    e_split = np.max(np.abs(_sq_norms(e)[..., None, :] - _sq_norms(attack.e_ijk).sum(axis=-1)),
                     axis=(-2, -1))
    f0, f1, f2, f3 = (f[..., j, :] for j in range(4))
    combos = 0.5 * np.stack([f0 + f1 + f2 + f3,
                             f0 - f1 + f2 - f3,
                             f0 + f1 - f2 - f3,
                             f0 - f1 - f2 + f3], axis=-2)
    g_combo = np.max(np.abs(g - combos), axis=(-2, -1))
    residuals = {"e_norms": e_norms, "e_orth": e_orth, "e_split": e_split,
                 "f_norms": f_norms, "f_orth": f_orth, "g_combo": g_combo}
    return {name: r if lead else float(r) for name, r in residuals.items()}


def statistics(attack: CollectiveAttack):
    """The ten observables induced by an attack.

    p[i, j, k] is the squared norm of the record on the path
    (sent i) -> (Bob j) -> (Alice k); the X disturbances are the squared
    norms of the basis-flipping components on reflected rounds.  A stack
    gives statistics with the stack's leading axes, one member per attack.
    An ``attack.residual`` beyond what validate_attack allows raises
    ValueError.
    """
    # validate_attack bounds each entry of U^dag U - I by UNITARY_TOL, so one
    # unitary moves a squared norm by at most 2d * UNITARY_TOL and a reflected
    # round passes two; 1e-12 is rounding.  Phrased so that NaN fails.
    if not np.all(attack.residual <= 2 * 2 * attack.ancilla_dim * UNITARY_TOL + 1e-12):
        raise ValueError("the attack operators are not unitary enough: "
                         f"identity residual {np.max(attack.residual)}")
    flips = np.clip(_sq_norms(attack.g[..., 1:3, :]), 0.0, 1.0)
    return ChannelStatistics(p=np.clip(_sq_norms(attack.records), 0.0, 1.0),
                             p_pm=flips[..., 0], p_mp=flips[..., 1])


def gram(attack: CollectiveAttack) -> np.ndarray:
    """Hermitian 8x8 Gram matrix G = <r|r'>/2 of the key-round records.

    Rows and columns follow the C order of ``records[i, j, k]``.  A state
    sum_r |label(r)><label(r)| (x) |r><r|/2 of classical labels and Eve's
    ancilla is block diagonal in the label, and the block of each label has
    the non-zero spectrum of the principal submatrix of G on the records
    carrying that label (``gram_blocks``); Eve's marginal has the spectrum
    of G itself.  The diagonal holds p[i, j, k]/2 and G[0, 7] is half the
    critical overlap <r000|r111>.  A stack gives (..., 8, 8).
    """
    records = attack.records
    r = records.reshape(records.shape[:-4] + (8, -1))
    return 0.5 * (r.conj() @ r.swapaxes(-1, -2))


def gram_blocks(g: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Stack of the principal submatrices of ``g`` on each row of ``groups``.

    ``g`` is (..., 8, 8) and ``groups`` an (m, n) array of record indices;
    the blocks are (..., m, n, n), one block-diagonal operator per leading
    index of ``g``.
    """
    return g[..., groups[:, :, None], groups[:, None, :]]


def s_b_given_e(g: np.ndarray):
    """S(B|E) = S(BE) - S(E) in bits, from the Gram matrix ``g`` (..., 8, 8).

    S(BE) comes from the 4x4 blocks of the records' Gram matrix grouped by
    Bob's bit and S(E) from the whole 8x8 matrix, so the eigen-work does not
    grow with the ancilla dimension.  A float for one matrix, an array over
    the leading axes of a stack.
    """
    return (linalg.von_neumann_entropy(gram_blocks(g, BOB_GROUPS))
            - linalg.von_neumann_entropy(g[..., None, :, :]))


def exact_collective_rate(attack: CollectiveAttack):
    """Exact S(B|E) - H(B|A) in bits per sifted signal, per member of a stack.

    This is what the statistics-only bound must never exceed.  An attack
    that ``statistics`` refuses as not unitary raises its ValueError.
    """
    h_b_given_a = keyrate.h_b_given_a(statistics(attack))
    return s_b_given_e(gram(attack)) - h_b_given_a


def identity_attack(ancilla_dim: int = 1) -> CollectiveAttack:
    """No-op attack: both unitaries are the identity."""
    u = np.eye(2 * _checked_ancilla_dim(ancilla_dim), dtype=complex)
    return validate_attack(u, u, ancilla_dim)


def z_measurement_attack() -> CollectiveAttack:
    """Eve copies the transit bit into a fresh ancilla qubit on the way in.

    The forward unitary maps |t, a> -> |t, a xor t>; the return pass is the
    identity.  Z statistics look noiseless while both X disturbances are
    1/2, and Eve's record determines Bob's bit exactly.
    """
    u_e = np.zeros((4, 4), dtype=complex)
    for t in (0, 1):
        for a in (0, 1):
            u_e[2 * t + (a ^ t), 2 * t + a] = 1.0
    return validate_attack(u_e, np.eye(4, dtype=complex), 2)


def _flip_recorder(q: float) -> np.ndarray:
    # Two-level rotation on (transit, one ancilla qubit): flips the transit
    # with amplitude sqrt(q) while raising the ancilla qubit.  Basis order
    # |t, a> = 00, 01, 10, 11.
    c = np.sqrt(1.0 - q)
    s = np.sqrt(q)
    return np.array([[c, 0.0, 0.0, -s],
                     [0.0, c, s, 0.0],
                     [0.0, -s, c, 0.0],
                     [s, 0.0, 0.0, c]], dtype=complex)


def symmetric_realizing_attack(q_fwd: float, q_rev: float) -> CollectiveAttack:
    """Explicit attack realizing the symmetric product-form Z statistics.

    Eve's ancilla is two qubits (d = 4).  The forward pass flips the transit
    with probability q_fwd, recording into the first ancilla qubit; the
    return pass does the same with q_rev into the second.  The induced Z
    statistics are exactly the symmetric products; the X disturbances are
    whatever the construction yields (zero, as the flips commute with X on
    X-basis states).
    """
    for name, q in (("q_fwd", q_fwd), ("q_rev", q_rev)):
        if not 0.0 <= q <= 0.5:
            raise ValueError(f"{name} = {q} outside [0, 1/2]")
    # Forward: rotation on (transit, first ancilla qubit), identity on the
    # second.  Index order is |t, a1, a2>.
    u_e = np.kron(_flip_recorder(q_fwd), np.eye(2))
    # Return: the same construction with the two ancilla qubits swapped on
    # both sides, so the rotation acts on (transit, second ancilla qubit).
    # kron leaves -0.0 where -sqrt(q) meets a zero of the identity; adding
    # 0.0 makes every zero of u_f +0.0.
    u_f = (np.kron(_flip_recorder(q_rev), np.eye(2)).reshape((2,) * 6)
           .transpose(0, 2, 1, 3, 5, 4).reshape(8, 8) + 0.0)
    return validate_attack(u_e, u_f, 4)


def _haar_pairs(dim: int, seeds) -> np.ndarray:
    # Haar unitaries (M, 2, dim, dim), u_e and u_f of seeds[m] at [m]: QR of
    # standard complex Gaussian matrices with the phases of R's diagonal
    # moved into Q.  One draw per seed fills u_e's real part, u_e's
    # imaginary part, u_f's real part and u_f's imaginary part in that order.
    z = np.empty((len(seeds), 2, dim, dim), dtype=complex)
    buf = np.empty((2, 2, dim, dim))
    for m, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=buf)
        z[m].real = buf[:, 0]
        z[m].imag = buf[:, 1]
    # Dividing by the complex sqrt(2) + 0j, as before; multiplying by the
    # reciprocal can round the last bit differently.
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_attack(ancilla_dim: int, seed) -> CollectiveAttack:
    """Haar-style random attack pair, reproducible from the seed.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including
    an existing Generator.  The attack is member 0 of ``random_attacks``
    with ``seeds = [seed]``.
    """
    u = _haar_pairs(2 * _checked_ancilla_dim(ancilla_dim), [seed])[0]
    return validate_attack(u[0], u[1], ancilla_dim)


def random_attacks(ancilla_dim: int, seeds) -> CollectiveAttack:
    """Stack of ``random_attack(ancilla_dim, seed)`` for each of ``seeds``.

    Member m equals ``random_attack(ancilla_dim, seeds[m])`` bit for bit;
    every seed's draw is written straight into the stack, and every unitary
    of the stack is factorised by one batched QR.
    """
    u = _haar_pairs(2 * _checked_ancilla_dim(ancilla_dim), seeds)
    return validate_attack(u[:, 0], u[:, 1], ancilla_dim)
