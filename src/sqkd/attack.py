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
extraction.

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
    """

    ancilla_dim: int
    u_e: np.ndarray
    u_f: np.ndarray
    e: np.ndarray = field(init=False, repr=False, compare=False)
    e_ijk: np.ndarray = field(init=False, repr=False, compare=False)
    f: np.ndarray = field(init=False, repr=False, compare=False)
    g: np.ndarray = field(init=False, repr=False, compare=False)
    records: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.ancilla_dim
        forward = self.u_e[:, [0, d]]              # u_e |0,0> and u_e |1,0>
        e = forward.T.reshape(4, d)
        e_ijk = np.einsum("kaib,jb->ijka", self.u_f.reshape(2, d, 2, d), e)
        f = (e_ijk[0, 0::2] + e_ijk[1, 1::2]).reshape(4, d)
        # u_f u_e |+/-,0> projected onto <+| and <-|, each carrying 1/sqrt(2).
        x_round = (self.u_f @ (forward @ _PLUS_MINUS)).reshape(2, d, 2)
        g = 0.5 * np.einsum("ky,kax->xya", _PLUS_MINUS, x_round).reshape(4, d)
        for name, arr in (("e", e), ("e_ijk", e_ijk), ("f", f), ("g", g),
                          ("records", e_ijk[_RECORDS])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def validate_attack(u_e: np.ndarray, u_f: np.ndarray, ancilla_dim: int) -> CollectiveAttack:
    """Check shapes and unitarity, returning an immutable attack."""
    if not 1 <= int(ancilla_dim) <= MAX_ANCILLA_DIM:
        raise ValueError(f"ancilla_dim must be in [1, {MAX_ANCILLA_DIM}]")
    d = 2 * int(ancilla_dim)
    out = []
    for name, u in (("u_e", u_e), ("u_f", u_f)):
        u = np.asarray(u, dtype=complex)
        if u.shape != (d, d):
            raise ValueError(f"{name} must have shape ({d}, {d}), got {u.shape}")
        residual = np.max(np.abs(u.conj().T @ u - np.eye(d)))
        if not residual <= UNITARY_TOL:     # NaN fails too
            raise ValueError(f"{name} is not unitary: residual {residual}")
        u = u.copy()
        u.setflags(write=False)
        out.append(u)
    return CollectiveAttack(ancilla_dim=int(ancilla_dim), u_e=out[0], u_f=out[1])


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("...a,...a->...", x.conj(), x).real


def unitarity_residuals(attack: CollectiveAttack) -> dict[str, float]:
    """Max deviation of each identity group the attack's vectors must satisfy.

    Keys: 'e_norms' and 'e_orth' (forward unitarity), 'e_split' (each
    forward norm splits across Alice's outcomes), 'f_norms' and 'f_orth'
    (round-trip unitarity), 'g_combo' (the X components, computed from the
    unitaries, against the Hadamard combinations of f, summed from e_ijk).
    """
    e, f, g = attack.e, attack.f, attack.g

    def norms_and_orth(x):
        gram = x.conj() @ x.T
        norms = gram.diagonal().real.reshape(2, 2).sum(axis=1)
        return float(np.max(np.abs(norms - 1.0))), float(abs(gram[0, 2] + gram[1, 3]))

    e_norms, e_orth = norms_and_orth(e)
    f_norms, f_orth = norms_and_orth(f)
    e_split = float(np.max(np.abs(_sq_norms(e) - _sq_norms(attack.e_ijk).sum(axis=-1))))
    combos = 0.5 * np.array([f[0] + f[1] + f[2] + f[3],
                             f[0] - f[1] + f[2] - f[3],
                             f[0] + f[1] - f[2] - f[3],
                             f[0] - f[1] - f[2] + f[3]])
    g_combo = float(np.max(np.abs(g - combos)))
    return {"e_norms": e_norms, "e_orth": e_orth, "e_split": e_split,
            "f_norms": f_norms, "f_orth": f_orth, "g_combo": g_combo}


def statistics(attack: CollectiveAttack) -> ChannelStatistics:
    """The ten observables induced by an attack.

    p[i, j, k] is the squared norm of the record on the path
    (sent i) -> (Bob j) -> (Alice k); the X disturbances are the squared
    norms of the basis-flipping components on reflected rounds.
    """
    p_pm, p_mp = np.clip(_sq_norms(attack.g[1:3]), 0.0, 1.0)
    return ChannelStatistics(p=np.clip(_sq_norms(attack.records), 0.0, 1.0),
                             p_pm=p_pm, p_mp=p_mp)


def rho_bec(attack: CollectiveAttack) -> np.ndarray:
    """Post-protocol state of Bob's key bit, the agreement register and Eve.

    Block-diagonal in (Bob bit, register), so it is returned as the
    (2, 4, d, d) stack of its blocks indexed by Bob's bit and then the
    register (``keyrate.REGISTER_LABEL``), which labels whether the raw key
    bits agree and how many Z flips the transit suffered.  Each block holds
    exactly one key-round record r, as |r><r|/2 (weight 1/2 per sent bit).
    Eve's marginal with the register is ``rho_bec(attack).sum(axis=0)``.
    """
    d = attack.ancilla_dim
    r = attack.records
    rho = np.zeros((2, 4, d, d), dtype=complex)
    rho[_J, REGISTER_LABEL] = 0.5 * (r[..., :, None] * r[..., None, :].conj())
    return rho


def rho_be(attack: CollectiveAttack) -> np.ndarray:
    """Post-protocol state of Bob's key bit and Eve's ancilla on key rounds.

    ``rho_bec`` with the register traced out: the (2, d, d) stack of blocks
    indexed by Bob's bit, each mixing the four records that end with that
    bit.  Eve's marginal is ``rho_be(attack).sum(axis=0)``.
    """
    return rho_bec(attack).sum(axis=1)


def exact_collective_rate(attack: CollectiveAttack) -> float:
    """Exact S(B|E) - H(B|A) for this attack (bits per sifted signal).

    This is what the statistics-only bound must never exceed; the entropies
    come from eigendecompositions of the blocks of the post-protocol state.
    """
    rho = rho_be(attack)
    s_b_given_e = (linalg.von_neumann_entropy(rho)
                   - linalg.von_neumann_entropy(rho.sum(axis=0)))
    return s_b_given_e - keyrate.h_b_given_a(statistics(attack))


def identity_attack(ancilla_dim: int = 1) -> CollectiveAttack:
    """No-op attack: both unitaries are the identity."""
    u = np.eye(2 * ancilla_dim, dtype=complex)
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


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_attack(ancilla_dim: int, seed) -> CollectiveAttack:
    """Haar-style random attack pair, reproducible from the seed.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including
    an existing Generator.
    """
    rng = np.random.default_rng(seed)
    dim = 2 * ancilla_dim
    return validate_attack(_haar_unitary(dim, rng), _haar_unitary(dim, rng),
                           ancilla_dim)
