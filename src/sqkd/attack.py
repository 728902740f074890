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
unitary enough to have statistics (``has_statistics``) has none:
``statistics`` refuses it, and with it ``exact_collective_rate`` and any
simulation of it.

Building a CollectiveAttack checks its ancilla dimension and the shapes of
its unitaries and stores read-only complex copies of them, however the
attack is built.  Unitarity is gated once, by ``validate_attack``, for
unitaries made outside the package.  The builders here make exact or
freshly QR-factorised unitaries and call the constructor directly; the
tests check that their unitaries pass the same gate.  A per-pass qubit
channel becomes an attack only through ``channel_attack(kraus_fwd,
kraus_rev)``: each pass's Stinespring unitary records its Kraus index in a
register of its own, in the ancilla index order |t, a_fwd, a_rev>, so d =
r_e * r_f.  ``z_measurement_attack`` and ``symmetric_realizing_attack`` are
its Kraus lists; ``identity_attack`` is the identity of any d.

Eve's post-protocol states are mixtures of the eight records, |r><r|/2
each, block diagonal in Bob's bit and the agreement register.  Their
entropies are taken from the 8x8 Gram matrix of the records (``gram``),
whose principal submatrices share the blocks' non-zero spectra, so no d x d
state is ever built.  ``soundness`` sets the statistics-only bound against
the exact rate and the S(BEC) it assumes, given statistics and Gram matrices,
and ``audit`` gives the one verdict on stacks of attacks, which ``sqkd
validate`` and the acceptance tests share.

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
the ancilla dimension, so stacks of different dimensions join into one
batch for ``soundness``.

Transit is the most significant tensor factor throughout (see linalg).
"""

from dataclasses import dataclass, field
from itertools import chain, compress

import numpy as np

from . import keyrate, linalg, simulate
from .keyrate import REGISTER_LABEL, ChannelStatistics

UNITARY_TOL = 1e-10
# The bound is sound while neither rate - exact nor the S(BEC) mismatch exceeds this.
SOUNDNESS_TOL = 1e-9
MAX_ANCILLA_DIM = 32
# One byte budget per stack and per thread of ``audit``, never divided by the
# number of threads: a stack should hold at most this many bytes of
# unitaries, and a thread checks the Gram matrices of the sound attacks it
# keeps in one pass once they take this many bytes; what the threads keep at
# the end is checked in one pass.  A thread holds its last stack until its
# next one is built, so memory grows with the number of threads: each holds
# at most twice this many bytes of unitaries and twice this many of Gram
# matrices.  What ``audit`` returns does not depend on the number of CPUs.
STACK_BYTES = 1 << 19

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

    Building one checks that ancilla_dim is an integer in [1,
    MAX_ANCILLA_DIM] and that u_e and u_f are non-empty stacks of one shape
    (..., 2d, 2d), and stores read-only complex copies of them.  It does not
    check unitarity; ``validate_attack`` does.
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
        d = _checked_ancilla_dim(self.ancilla_dim)
        object.__setattr__(self, "ancilla_dim", d)
        for name in ("u_e", "u_f"):
            # Always a copy, so the caller's array stays theirs to change.
            u = np.array(getattr(self, name), dtype=complex, order="C")
            if u.shape[-2:] != (2 * d, 2 * d):
                raise ValueError(f"{name} must have shape ({2 * d}, {2 * d}), got {u.shape}")
            if not u.size:
                raise ValueError(f"{name} is an empty stack {u.shape}")
            u.setflags(write=False)
            object.__setattr__(self, name, u)
        if self.u_e.shape != self.u_f.shape:
            raise ValueError(f"u_e and u_f stack shapes differ: {self.u_e.shape} "
                             f"and {self.u_f.shape}")
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
    """Build an attack from unitaries made outside the package, checking unitarity.

    The attack's own construction checks ``ancilla_dim`` and the shapes and
    makes read-only complex copies; this adds the U^dag U - I gate, each
    entry within UNITARY_TOL.  ``u_e`` and ``u_f`` may carry the same
    leading axes, giving a stack; the unitarity residual reported is the
    worst over the stack.
    """
    atk = CollectiveAttack(ancilla_dim, u_e, u_f)
    for name, u in (("u_e", atk.u_e), ("u_f", atk.u_f)):
        defect = u.conj().swapaxes(-1, -2) @ u
        np.einsum("...ii->...i", defect)[...] -= 1.0     # U^dag U - I
        residual = np.max(np.abs(defect))
        if not residual <= UNITARY_TOL:     # NaN fails too
            raise ValueError(f"{name} is not unitary: residual {residual}")
    return atk


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


def has_statistics(attack: CollectiveAttack):
    """Whether ``statistics`` accepts the attack, per member of a stack.

    A member is accepted while its ``residual`` is within what
    validate_attack allows, and refused if it is NaN.
    """
    # validate_attack bounds each entry of U^dag U - I by UNITARY_TOL, and the
    # builders' unitaries meet the same bound (checked by the tests), so one
    # unitary moves a squared norm by at most 2d * UNITARY_TOL and a reflected
    # round passes two; 1e-12 is rounding.  Phrased so that NaN fails.
    return attack.residual <= 2 * 2 * attack.ancilla_dim * UNITARY_TOL + 1e-12


def statistics(attack: CollectiveAttack):
    """The ten observables induced by an attack.

    p[i, j, k] is the squared norm of the record on the path
    (sent i) -> (Bob j) -> (Alice k); the X disturbances are the squared
    norms of the basis-flipping components on reflected rounds.  A stack
    gives statistics with the stack's leading axes, one member per attack.
    A stack with a member that ``has_statistics`` refuses raises ValueError.
    """
    if not np.all(has_statistics(attack)):
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


def _exact_rate(stats: ChannelStatistics, g: np.ndarray):
    # S(BE) - S(E) - H(B|A) in bits: S(BE) from the Gram blocks grouped by
    # Bob's bit, S(E) from the whole 8x8 matrix, whatever the ancilla dimension.
    return (linalg.von_neumann_entropy(gram_blocks(g, BOB_GROUPS))
            - linalg.von_neumann_entropy(g[..., None, :, :])
            - keyrate.h_b_given_a(stats))


def exact_collective_rate(attack: CollectiveAttack):
    """Exact S(B|E) - H(B|A) in bits per sifted signal, per member of a stack.

    This is what the statistics-only bound must never exceed.  An attack
    that ``statistics`` refuses as not unitary raises its ValueError.
    """
    return _exact_rate(statistics(attack), gram(attack))


def soundness(stats: ChannelStatistics, g: np.ndarray):
    """(report, exact, mismatch) for statistics and Gram matrices (..., 8, 8).

    report is ``keyrate.key_rate_bound(stats)``, exact the exact collective
    rate and mismatch |report.s_bec - S(BEC)|, S(BEC) from the Gram blocks
    grouped by Bob's bit and register.  A stack may mix ancilla dimensions.
    """
    report = keyrate.key_rate_bound(stats)
    s_bec = linalg.von_neumann_entropy(gram_blocks(g, BOB_REGISTER_GROUPS))
    return report, _exact_rate(stats, g), abs(report.s_bec - s_bec)


def audit(stacks) -> tuple:
    """Check every attack of ``stacks``: the one soundness verdict.

    ``stacks`` is a sequence of (positions, build), ``build()`` returning a
    stack whose member m is the attack numbered positions[m].  One thread
    per CPU the process may use, the calling thread among them, builds and
    checks them (``simulate._pull_on_every_cpu``).  An attack fails on its
    residual unless that is at most 1e-9 and ``has_statistics`` grants it;
    only attacks whose identities hold have states to take entropies of.
    For the others ``soundness`` gives the bound, the exact rate and the
    S(BEC) mismatch, and an attack fails where its bound exceeds its exact
    rate by more than SOUNDNESS_TOL, or its mismatch exceeds SOUNDNESS_TOL;
    a NaN in any of the three fails too.

    Returns the number of attacks, the worst residual, the worst slack
    (exact - bound, inf if no attack reached ``soundness``) and the
    (position, text) failures in position order; a NaN residual or slack
    is kept.  None of them depends on the number of CPUs.
    """
    results = simulate._pull_on_every_cpu(_check_pulled, stacks)
    checked, residuals, slacks, failures, leftovers = zip(*results)
    failures = list(chain.from_iterable(failures))
    # The threads' leftover rows in one pass, in an order that does not
    # depend on which thread kept which.
    kept = sorted(chain.from_iterable(leftovers), key=lambda part: part[0][0])
    if kept:
        slacks += (_check_sound(kept, failures),)
    # np.max and np.min keep a NaN, which the builtin max and min would drop.
    return (sum(checked), float(np.max(residuals)), float(np.min(slacks)),
            sorted(failures, key=lambda failure: failure[0]))


def _check_pulled(pull) -> tuple:
    """Check the stacks one thread pulls; return what ``audit`` merges.

    That is the attacks checked, the worst residual and slack, the (position,
    text) failures and the rows of sound attacks left unchecked.  Kept rows
    are checked once they take ``STACK_BYTES``.
    """
    failures: list[tuple[int, str]] = []
    kept: list[tuple] = []
    checked, worst_residual, worst_slack = 0, 0.0, np.inf
    for positions, build in pull:
        # The previous stack is freed only once this one is built.  Freed
        # before, its memory would go back to the system and be faulted in
        # again page by page (three times the minor faults per task).
        stack = build()
        checked += len(positions)
        residual = stack.residual
        # np.max keeps a NaN residual, which the builtin max would drop.
        worst_residual = float(np.max(residual, initial=worst_residual))
        sound = has_statistics(stack) & (residual <= 1e-9)
        for m in np.flatnonzero(~sound):
            failures.append((positions[m], f"unitarity identity residual {residual[m]:.3e}"))
        if not sound.any():
            continue
        # statistics refuses a stack with any member it refuses.
        members = stack if sound.all() else CollectiveAttack(
            stack.ancilla_dim, stack.u_e[sound], stack.u_f[sound])
        stats = statistics(members)
        kept.append((list(compress(positions, sound)), stats.p, stats.p_pm, stats.p_mp,
                     gram(members)))
        if sum(part[-1].nbytes for part in kept) >= STACK_BYTES:
            # np.minimum keeps a NaN, which the builtin min would drop.
            worst_slack = float(np.minimum(worst_slack, _check_sound(kept, failures)))
            kept = []
    return checked, worst_residual, worst_slack, failures, kept


def _check_sound(kept: list, failures: list) -> float:
    """Check a batch of sound attacks in one pass; return its worst slack.

    ``kept`` holds one (positions, p, p_pm, p_mp, gram) per stack, for the
    stack's sound members; the batch's bound and exact rate violations and
    S(BEC) mismatches are appended to ``failures``.
    """
    positions, *arrays = zip(*kept)
    positions = sum(positions, [])
    *stats, g = map(np.concatenate, arrays)
    report, exact, mismatch = soundness(ChannelStatistics(*stats), g)
    # Phrased so that NaN fails.
    for i in np.flatnonzero(~(report.rate <= exact + SOUNDNESS_TOL)):
        failures.append((positions[i], f"bound {report.rate[i]:.9f} "
                                       f"exceeds exact rate {exact[i]:.9f}"))
    for i in np.flatnonzero(~(mismatch <= SOUNDNESS_TOL)):
        failures.append((positions[i], f"S(BEC) mismatch {mismatch[i]:.3e}"))
    return float(np.min(exact - report.rate))


def identity_attack(ancilla_dim: int = 1) -> CollectiveAttack:
    """No-op attack: both unitaries are the identity."""
    u = np.eye(2 * _checked_ancilla_dim(ancilla_dim), dtype=complex)
    return CollectiveAttack(ancilla_dim, u, u)


def _stinespring(kraus, name: str) -> np.ndarray:
    # Unitary (2, r, 2, r) on |t, a>, a in r = len(kraus) levels, with
    # U|t, 0> = sum_k K_k|t> (x) |k>: these two columns are the isometry V,
    # and the others V's orthogonal complement from a complete QR (appending
    # identity columns to V instead gives NaN when some K_k has a zero column).
    try:
        k = np.asarray(kraus, dtype=complex)
    except ValueError as exc:           # a ragged list, whose shape numpy names
        raise ValueError(f"{name} must have shape (r, 2, 2) with 1 <= r <= 4: {exc}") from None
    if k.ndim != 3 or k.shape[1:] != (2, 2) or not 1 <= len(k) <= 4:
        raise ValueError(f"{name} must have shape (r, 2, 2) with 1 <= r <= 4, got {k.shape}")
    defect = np.abs(np.einsum("kst,ksu->tu", k.conj(), k) - np.eye(2)).max()
    if not defect <= UNITARY_TOL:       # NaN fails too
        raise ValueError(f"{name} is not trace preserving: residual {defect}")
    v = k.transpose(1, 0, 2).reshape(-1, 2)         # V[(s, k), t] = K_k[s, t]
    q = np.linalg.qr(v, mode="complete")[0]
    u = np.concatenate([v[..., None], q[:, 2:].reshape(len(v), 2, len(k) - 1)], axis=-1)
    return u.reshape(2, len(k), 2, len(k))


def channel_attack(kraus_fwd, kraus_rev) -> CollectiveAttack:
    """Attack that applies one qubit channel per pass, given by its Kraus operators.

    ``kraus_fwd`` and ``kraus_rev`` are sequences of r_e and r_f 2x2
    operators (1 <= r <= 4) with sum K^dag K = I within UNITARY_TOL, the
    channel on the way to Bob and the channel on the way back.  Each pass
    records its Kraus index in a register of its own, in the index order
    |t, a_fwd, a_rev>, so d = r_e * r_f: u_e|t, 0, 0> = sum_k K_k|t> (x)
    |k, 0>, u_e acting on (t, a_fwd) and u_f likewise on (t, a_rev).  A
    list of another shape, or one that is not trace preserving (NaN
    included), raises ValueError naming it.
    """
    w_e, w_f = _stinespring(kraus_fwd, "kraus_fwd"), _stinespring(kraus_rev, "kraus_rev")
    # Each pass is the identity on the other's register.  Written into zeros,
    # so no entry is a signed zero from a product with the identity.
    u_e, u_f = np.zeros((2,) + (2, w_e.shape[1], w_f.shape[1]) * 2, dtype=complex)
    np.einsum("sabtcb->bsatc", u_e)[...] = w_e
    np.einsum("sabtac->asbtc", u_f)[...] = w_f
    d = w_e.shape[1] * w_f.shape[1]
    return CollectiveAttack(d, u_e.reshape(2 * d, 2 * d), u_f.reshape(2 * d, 2 * d))


def z_measurement_attack() -> CollectiveAttack:
    """Eve copies the transit bit into a fresh ancilla qubit on the way in.

    ``channel_attack([|0><0|, |1><1|], [I])``: the forward pass measures Z
    and records the outcome (d = 2), and the return pass is the identity.
    Z statistics look noiseless while both X disturbances are 1/2, and
    Eve's record determines Bob's bit exactly.
    """
    return channel_attack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [np.eye(2)])


def symmetric_realizing_attack(q_fwd: float, q_rev: float) -> CollectiveAttack:
    """Explicit attack realizing the symmetric product-form Z statistics.

    ``channel_attack`` with the bit-flip list [sqrt(1 - q) I, sqrt(q) X]
    per pass, q = q_fwd on the way to Bob and q_rev on the way back, so
    Eve's ancilla is two qubits (d = 4), one recording each pass's flip.
    The induced Z statistics are exactly the symmetric products; the X
    disturbances are zero, as the flips commute with X on X-basis states.
    """
    for name, q in (("q_fwd", q_fwd), ("q_rev", q_rev)):
        if not 0.0 <= q <= 0.5:
            raise ValueError(f"{name} = {q} outside [0, 1/2]")
    return channel_attack(*([np.sqrt(1.0 - q) * np.eye(2), np.sqrt(q) * np.eye(2)[::-1]]
                            for q in (q_fwd, q_rev)))


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
    # In place: a product would be one more stack-sized temporary.
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def random_attack(ancilla_dim: int, seed) -> CollectiveAttack:
    """Haar-style random attack pair, reproducible from the seed.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including
    an existing Generator.  The attack is member 0 of ``random_attacks``
    with ``seeds = [seed]``.
    """
    u = _haar_pairs(2 * _checked_ancilla_dim(ancilla_dim), [seed])[0]
    return CollectiveAttack(ancilla_dim, u[0], u[1])


def random_attacks(ancilla_dim: int, seeds) -> CollectiveAttack:
    """Stack of ``random_attack(ancilla_dim, seed)`` for each of ``seeds``.

    Member m equals ``random_attack(ancilla_dim, seeds[m])`` bit for bit;
    every seed's draw is written straight into the stack, and every unitary
    of the stack is factorised by one batched QR.
    """
    u = _haar_pairs(2 * _checked_ancilla_dim(ancilla_dim), seeds)
    return CollectiveAttack(ancilla_dim, u[:, 0], u[:, 1])
