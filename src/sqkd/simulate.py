"""Monte Carlo simulation of the quantum communication stage.

Alice prepares |0>, |1>, |+> or |->, Eve applies u_e, Bob either performs a
projective Z measurement and resends what he saw or reflects, Eve applies
u_f, and Alice measures in her preparation basis.  Everything Alice and Bob
can observe is summed up in the ten statistics an attack induces
(``attack.statistics``), and ``run_protocol`` samples those statistics alone:
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
the ten statistics and the config.
"""

from dataclasses import dataclass

import numpy as np

from .keyrate import ChannelStatistics, validate_statistics

CHUNK_SIZE = 1 << 14  # fixed; changing it changes every sampled trajectory


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
                    prob_z: float, prob_measure: float, seed: int, chunk: int,
                    uniforms: np.ndarray, thresholds: np.ndarray):
    # uniforms and thresholds are float64 buffers of n or more entries that
    # every chunk reuses; prep, cell and event code overwrite the bits.
    rng = np.random.default_rng(np.random.SeedSequence([seed, chunk]))
    u, t = uniforms[:n], thresholds[:n]
    # Fixed draw order and dtypes are part of the reproducibility contract;
    # bits stays the int64 array integers() returns.
    z_mask = rng.random(out=u) < prob_z
    bits = rng.integers(0, 2, size=n)
    measure_mask = rng.random(out=u) < prob_measure
    x_prep = ~z_mask
    prep = np.add(np.add(bits, x_prep, out=bits), x_prep, out=bits)    # bits + 2 * x_prep
    # mode="raise" would buffer take's output; every index is in range.
    bob_bits = measure_mask & (rng.random(out=u) < bob.take(prep, out=t, mode="clip"))
    # Branch 0, 1 or 2, added to the int64 cell: bool + bool would be a
    # logical or.
    cell = np.add(np.multiply(prep, 3, out=bits), measure_mask, out=bits)
    cell += bob_bits
    alice_bits = rng.random(out=u) < alice.reshape(-1).take(cell, out=t, mode="clip")

    # Event code: the (prep, branch) cell of the table and Alice's bit.
    code = np.add(np.multiply(cell, 2, out=bits), alice_bits, out=bits)
    counts = np.bincount(code, minlength=24).reshape(4, 3, 2)
    z_counts = counts[:2, 1:]
    x_counts = counts[2:, 0]
    other = n - int(z_counts.sum()) - int(x_counts.sum())
    key_rows = np.flatnonzero(z_mask & measure_mask)
    return (z_counts, x_counts, other, alice_bits.take(key_rows).view(np.uint8),
            bob_bits.take(key_rows).view(np.uint8))


def run_protocol(stats: ChannelStatistics,
                 config: ProtocolConfig) -> tuple[TallyCounts, RawKeys]:
    """Simulate the quantum communication stage with the given statistics.

    Returns the per-class tallies and the sifted raw keys (Z-prepared,
    measured-and-resent iterations only).  Output is a pure function of
    the ten statistics and the config; statistics that
    ``keyrate.validate_statistics`` rejects raise its ValueError, as does
    a stack.
    """
    if stats.p.ndim != 3:
        raise ValueError(f"run_protocol takes one member, not a stack {stats.p.shape[:-3]}")
    bob, alice = _outcome_table(validate_statistics(stats))
    n_total = config.iterations
    buffers = np.empty(CHUNK_SIZE), np.empty(CHUNK_SIZE)
    z, x, other, alice_bits, bob_bits = zip(*(
        _simulate_chunk(bob, alice, min(CHUNK_SIZE, n_total - c * CHUNK_SIZE),
                        config.prob_z_basis, config.prob_measure_resend, config.seed, c,
                        *buffers)
        for c in range((n_total + CHUNK_SIZE - 1) // CHUNK_SIZE)))
    tally = TallyCounts(z_counts=sum(z), x_reflect_counts=sum(x),
                        other_counts=sum(other), total=n_total)
    keys = RawKeys(alice_bits=np.concatenate(alice_bits),
                   bob_bits=np.concatenate(bob_bits))
    return tally, keys


_CLASS_NAMES = {
    "z0": "Alice sent |0> and Bob measured",
    "z1": "Alice sent |1> and Bob measured",
    "x_plus": "Alice sent |+> and Bob reflected",
    "x_minus": "Alice sent |-> and Bob reflected",
}


def estimate_statistics(tally: TallyCounts) -> tuple[ChannelStatistics, ChannelStatistics]:
    """Conditional relative frequencies and their binomial standard errors.

    The standard errors come as a ChannelStatistics of the same ten entries.

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
    err = ChannelStatistics(p=np.sqrt(p * (1.0 - p) / n_z[:, None, None]),
                            p_pm=np.sqrt(p_pm * (1.0 - p_pm) / n_x[0]),
                            p_mp=np.sqrt(p_mp * (1.0 - p_mp) / n_x[1]))
    return ChannelStatistics(p=p, p_pm=p_pm, p_mp=p_mp), err


def qber(keys: RawKeys) -> float:
    """Fraction of positions where the two raw keys disagree."""
    if len(keys) == 0:
        raise ValueError("cannot compute the error rate of empty keys")
    return float(np.mean(keys.alice_bits != keys.bob_bits))
