"""Monte Carlo simulation of the quantum communication stage.

Alice prepares |0>, |1>, |+> or |->, Eve applies u_e, Bob either performs a
projective Z measurement and resends what he saw or reflects, Eve applies
u_f, and Alice measures in her preparation basis.  Everything Alice and Bob
can observe is summed up in the attack's ten statistics (``statistics``), so
the Born probabilities of Bob's and Alice's bits are read off them once per
run and each iteration only compares uniform draws against that table.  An
iteration's event code is its cell of Alice's table (preparation x branch)
followed by Alice's bit, 24 codes in all, so one bincount per chunk gives
every tally.

Reproducibility contract: iterations are processed in fixed chunks of
CHUNK_SIZE; chunk c draws from an independent PCG64 stream seeded with
SeedSequence([seed, c]).  Each chunk makes five draws in a fixed order and
with fixed dtypes: the basis uniforms, the int64 bits of integers(0, 2),
the measure-or-reflect uniforms, then Bob's and Alice's uniforms.  A
different dtype for the bits draws a different stream.  Tallies merge by
addition and key bits by chunk order, so the output is a pure function of
the attack's ten statistics and the config.
"""

from dataclasses import dataclass

import numpy as np

from .attack import UNITARY_TOL, CollectiveAttack, statistics, unitarity_residuals
from .keyrate import ChannelStatistics

CHUNK_SIZE = 1 << 14  # fixed; changing it changes every sampled trajectory

BORN_TOL = 1e-12  # rounding allowance on top of the unitarity tolerance


class SimulationError(RuntimeError):
    """Internal consistency violation (e.g. non-unitary attack operators)."""


class InsufficientDataError(ValueError):
    """A conditioning class required for estimation has no samples."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters for the quantum communication stage.

    prob_z_basis is Alice's probability of preparing (and later measuring)
    in the Z basis; prob_measure_resend is Bob's probability of measuring
    instead of reflecting.  Both may be biased but must stay strictly inside
    (0, 1).
    """

    iterations: int
    prob_z_basis: float = 0.5
    prob_measure_resend: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        for name in ("prob_z_basis", "prob_measure_resend"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class TallyCounts:
    """Event counts per sift class.

    z_counts[i, j, k] counts iterations where Alice sent |i>, Bob measured
    and resent |j> and Alice measured |k>; x_reflect_counts[a, a'] counts
    reflected X iterations with sent state a and measured state a'
    (0 = plus, 1 = minus).  Everything else lands in other_counts.
    """

    z_counts: np.ndarray
    x_reflect_counts: np.ndarray
    other_counts: int
    total: int

    def __post_init__(self):
        z = np.asarray(self.z_counts, dtype=np.int64)
        x = np.asarray(self.x_reflect_counts, dtype=np.int64)
        if z.shape != (2, 2, 2) or x.shape != (2, 2):
            raise ValueError("tally arrays have wrong shape")
        if int(z.sum() + x.sum()) + self.other_counts != self.total:
            raise ValueError("tally cells do not sum to the total")
        z.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "z_counts", z)
        object.__setattr__(self, "x_reflect_counts", x)


@dataclass(frozen=True)
class RawKeys:
    """Sifted raw key bits, aligned position by position."""

    alice_bits: np.ndarray
    bob_bits: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alice_bits, dtype=np.uint8)
        b = np.asarray(self.bob_bits, dtype=np.uint8)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("key strings must be 1-D and of equal length")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "alice_bits", a)
        object.__setattr__(self, "bob_bits", b)

    def __len__(self) -> int:
        return int(self.alice_bits.shape[0])


@dataclass(frozen=True)
class StatisticsUncertainty:
    """Per-entry binomial standard errors, mirroring ChannelStatistics."""

    p: np.ndarray
    p_pm: float
    p_mp: float


def _outcome_table(stats: ChannelStatistics):
    """Bit-1 probabilities of Bob's and Alice's measurements.

    Returns bob[prep], the probability that Bob's Z measurement reads 1, and
    alice[prep, branch], the probability that Alice's measurement in her
    preparation basis reads 1 (|1> or |->).  prep indexes |0>, |1>, |+>,
    |->; branch 0 is Bob reflecting, 1 and 2 are Bob's collapse onto
    transit |0> and |1>.  Only Z collapses and X reflections reach an
    output; every other cell, and a collapse Bob never samples, stays 0.
    """
    p = stats.p
    bob = np.zeros(4)
    bob[:2] = p[:, 1].sum(axis=-1) / p.sum(axis=(1, 2))
    branch = p.sum(axis=-1)
    alice = np.zeros((4, 3))
    np.divide(p[..., 1], branch, out=alice[:2, 1:], where=branch > 0.0)
    alice[2:, 0] = stats.p_pm, 1.0 - stats.p_mp
    return bob, alice


def _simulate_chunk(bob: np.ndarray, alice: np.ndarray, n: int,
                    prob_z: float, prob_measure: float, seed: int, chunk: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, chunk]))
    # Fixed draw order and dtypes are part of the reproducibility contract;
    # bits stays the int64 array integers() returns.
    z_mask = rng.random(n) < prob_z
    bits = rng.integers(0, 2, size=n)
    measure_mask = rng.random(n) < prob_measure
    u_bob = rng.random(n)
    u_alice = rng.random(n)

    prep = bits + 2 * ~z_mask
    bob_bits = measure_mask & (u_bob < bob.take(prep))
    # Branch 0, 1 or 2, added to the int64 term first: bool + bool would be
    # a logical or.
    cell = 3 * prep + measure_mask + bob_bits
    alice_bits = u_alice < alice.reshape(-1).take(cell)

    # Event code: the (prep, branch) cell of the table and Alice's bit.
    counts = np.bincount(2 * cell + alice_bits, minlength=24).reshape(4, 3, 2)
    z_counts = counts[:2, 1:]
    x_counts = counts[2:, 0]
    other = n - int(z_counts.sum()) - int(x_counts.sum())
    key_rows = np.flatnonzero(z_mask & measure_mask)
    return (z_counts, x_counts, other, alice_bits.take(key_rows).view(np.uint8),
            bob_bits.take(key_rows).view(np.uint8))


def run_protocol(attack: CollectiveAttack, config: ProtocolConfig) -> tuple[TallyCounts, RawKeys]:
    """Simulate the quantum communication stage under a collective attack.

    Returns the per-class tallies and the sifted raw keys (Z-prepared,
    measured-and-resent iterations only).  Output is a pure function of
    the attack's ten statistics and the config; an attack whose unitaries
    are not unitary within tolerance raises SimulationError.
    """
    # validate_attack bounds every entry of U^dag U - I by UNITARY_TOL, so
    # one unitary moves a unit state's squared norm by at most
    # 2d * UNITARY_TOL; a reflected round passes two.  BORN_TOL is rounding.
    # np.max keeps a NaN, and the comparison is phrased so that NaN fails.
    worst = np.max(list(unitarity_residuals(attack).values()))
    if not worst <= 2 * 2 * attack.ancilla_dim * UNITARY_TOL + BORN_TOL:
        raise SimulationError("the attack operators are not unitary enough: "
                              f"identity residual {worst}")
    bob, alice = _outcome_table(statistics(attack))
    n_total = config.iterations
    z_counts = np.zeros((2, 2, 2), dtype=np.int64)
    x_counts = np.zeros((2, 2), dtype=np.int64)
    other = 0
    alice_parts = []
    bob_parts = []
    for c in range((n_total + CHUNK_SIZE - 1) // CHUNK_SIZE):
        z, x, o, a_bits, b_bits = _simulate_chunk(
            bob, alice, min(CHUNK_SIZE, n_total - c * CHUNK_SIZE),
            config.prob_z_basis, config.prob_measure_resend, config.seed, c)
        z_counts += z
        x_counts += x
        other += o
        alice_parts.append(a_bits)
        bob_parts.append(b_bits)
    tally = TallyCounts(z_counts=z_counts, x_reflect_counts=x_counts,
                        other_counts=other, total=n_total)
    keys = RawKeys(alice_bits=np.concatenate(alice_parts),
                   bob_bits=np.concatenate(bob_parts))
    return tally, keys


_CLASS_NAMES = {
    "z0": "Alice sent |0> and Bob measured",
    "z1": "Alice sent |1> and Bob measured",
    "x_plus": "Alice sent |+> and Bob reflected",
    "x_minus": "Alice sent |-> and Bob reflected",
}


def estimate_statistics(tally: TallyCounts) -> tuple[ChannelStatistics, StatisticsUncertainty]:
    """Conditional relative frequencies with binomial standard errors.

    Raises InsufficientDataError naming the conditioning class if any of
    the four classes (sent |0> or |1> with Bob measuring; sent |+> or |->
    with Bob reflecting) has no samples.
    """
    n_z = tally.z_counts.reshape(2, 4).sum(axis=1)
    n_x = tally.x_reflect_counts.sum(axis=1)
    for count, key in ((n_z[0], "z0"), (n_z[1], "z1"),
                       (n_x[0], "x_plus"), (n_x[1], "x_minus")):
        if count == 0:
            raise InsufficientDataError(
                f"no samples in class: {_CLASS_NAMES[key]}")
    p = tally.z_counts / n_z[:, None, None]
    p_pm = tally.x_reflect_counts[0, 1] / n_x[0]
    p_mp = tally.x_reflect_counts[1, 0] / n_x[1]
    p_err = np.sqrt(p * (1.0 - p) / n_z[:, None, None])
    pm_err = float(np.sqrt(p_pm * (1.0 - p_pm) / n_x[0]))
    mp_err = float(np.sqrt(p_mp * (1.0 - p_mp) / n_x[1]))
    stats = ChannelStatistics(p=p, p_pm=float(p_pm), p_mp=float(p_mp))
    return stats, StatisticsUncertainty(p=p_err, p_pm=pm_err, p_mp=mp_err)


def qber(keys: RawKeys) -> float:
    """Fraction of positions where the two raw keys disagree."""
    if len(keys) == 0:
        raise ValueError("cannot compute the error rate of empty keys")
    return float(np.mean(keys.alice_bits != keys.bob_bits))
