"""Key-rate lower bound from observed channel statistics.

Alice and Bob can estimate ten numbers during parameter estimation: the
eight conditional probabilities p[i, j, k] that, given Alice sent the Z
state |i>, Bob measured-and-resent |j> and Alice finally measured |k>, plus
the two X-basis disturbance probabilities p_pm (sent |+>, reflected,
measured |->) and p_mp (sent |->, measured |+>).  This module turns those
ten observables into a lower bound on the asymptotic secret-key rate under
reverse reconciliation, together with every intermediate quantity, and
provides the symmetric-noise scenario generators, the noise-threshold
search and the rate sweep used to tabulate them.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import PROB_SUM_TOL, binary_entropy, shannon_entropy

# Per-i blocks of user-supplied statistics must sum to 1 within this.
STATS_SUM_TOL = 1e-6

# Agreement register: REGISTER_LABEL[i, j, k] labels the key round (sent i,
# Bob j, Alice k) by whether Bob's and Alice's raw key bits agree and how
# many Z flips the transit suffered along i -> j -> k: 0 (agree, 0 flips),
# 1 (agree, 1 flip), 2 (disagree, 1 flip), 3 (disagree, 2 flips).  Each
# label covers exactly two rounds.
REGISTER_LABEL = np.array([[[0, 2], [3, 1]], [[1, 3], [2, 0]]])
REGISTER_LABEL.setflags(write=False)


class TooNoisyError(Exception):
    """Raised when p[0,0,0] vanishes: the channel is too noisy to proceed."""


@dataclass(frozen=True)
class ChannelStatistics:
    """The ten observables of one protocol iteration.

    p[i, j, k] is conditioned on Alice sending |i>; p_pm and p_mp are
    conditioned on Alice sending |+> (resp. |->) and Bob reflecting.
    """

    p: np.ndarray
    p_pm: float
    p_mp: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (2, 2, 2):
            raise ValueError(f"p must have shape (2, 2, 2), got {p.shape}")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_pm", float(self.p_pm))
        object.__setattr__(self, "p_mp", float(self.p_mp))


def validate_statistics(stats: ChannelStatistics, *, sum_tol: float = STATS_SUM_TOL,
                        renormalize: bool = False) -> ChannelStatistics:
    """Check entries (finite, in [0, 1]) and per-i sums; optionally rescale blocks.

    Each block must sum to 1 within ``sum_tol``, and the mean of the two
    block sums may exceed 1 by at most ``linalg.PROB_SUM_TOL``, the excess
    the entropies accept.

    Attack-derived statistics satisfy the constraints to rounding error;
    Monte Carlo estimates satisfy them to sampling error, hence the
    ``renormalize`` escape hatch that rescales each conditional block to sum
    to exactly 1.
    """
    p = np.asarray(stats.p, dtype=float)
    entries = np.concatenate([p.reshape(-1), [stats.p_pm, stats.p_mp]])
    finite = np.isfinite(entries)
    if not finite.all():
        names = [f"p[{i},{j},{k}]" for i, j, k in np.ndindex(2, 2, 2)] + ["p_pm", "p_mp"]
        raise ValueError(f"statistics entry {names[int(np.argmin(finite))]} is not finite")
    if entries.min() < -1e-9 or entries.max() > 1.0 + 1e-9:
        raise ValueError("statistics entries must lie in [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    sums = p.reshape(2, 4).sum(axis=1)
    if renormalize:
        if sums.min() <= 0.0:
            raise ValueError("cannot renormalize an all-zero conditional block")
        p = p / sums[:, None, None]
    elif np.max(np.abs(sums - 1.0)) > sum_tol:
        raise ValueError(
            f"conditional blocks sum to {sums[0]} and {sums[1]}, expected 1 "
            f"within {sum_tol} (pass renormalize to rescale)")
    elif (0.5 * p.reshape(-1)).sum() > 1.0 + PROB_SUM_TOL:
        # s_bec takes the Shannon entropy of exactly these halved entries.
        raise ValueError(
            f"conditional blocks p000..p011 and p100..p111 sum to {sums[0]} and "
            f"{sums[1]}; their mean may exceed 1 by at most {PROB_SUM_TOL} "
            f"(pass renormalize to rescale)")
    return ChannelStatistics(p=p, p_pm=min(max(stats.p_pm, 0.0), 1.0),
                             p_mp=min(max(stats.p_mp, 0.0), 1.0))


@dataclass(frozen=True)
class ScenarioParams:
    """Symmetric-noise scenario: independent Z flips in each channel pass.

    q_fwd is the probability a Z state flips on the way to Bob, q_rev the
    flip probability on the way back, q_x the X-basis disturbance seen on
    reflected iterations.  Each must lie in [0, 1/2].
    """

    q_fwd: float
    q_rev: float
    q_x: float

    def __post_init__(self):
        for name in ("q_fwd", "q_rev", "q_x"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 0.5:
                raise ValueError(f"{name} = {v} outside [0, 1/2]")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class KeyRateReport:
    """Key-rate lower bound together with every intermediate quantity.

    b is the X-disturbance lower bound on the real part of Eve's critical
    ancilla overlap; cal_b its non-negative squared version; lambda_tilde
    the resulting dominant eigenvalue bound for the "both bits agree, no
    flips" ancilla block.  s_bec is the joint entropy of Bob's bit, the
    agreement register and Eve's ancilla; s_ec_upper the upper bound on the
    same entropy without Bob.  joint holds p(b, a) for Bob's and Alice's raw
    key bits in order (0,0), (0,1), (1,0), (1,1).
    """

    b: float
    cal_b: float
    lambda_tilde: float
    s_bec: float
    s_ec_upper: float
    p_a0: float
    joint: tuple[float, float, float, float]
    h_b_given_a: float
    rate: float


def cross_overlap_lower_bound(stats: ChannelStatistics) -> float:
    """Lower bound B on Re<e_{0,0}^0|e_{1,3}^1> from the ten observables.

    May be negative when the noise is large; the Cauchy-Schwarz cross terms
    pair each "Alice sent 0" outcome with the "Alice sent 1" outcomes that
    could interfere with it on reflected X iterations.
    """
    p = stats.p
    return float(
        1.0 - stats.p_pm - stats.p_mp
        - math.sqrt(p[0, 0, 0] * p[1, 0, 1])
        - math.sqrt(p[0, 1, 0] * p[1, 0, 1])
        - math.sqrt(p[0, 1, 0] * p[1, 1, 1])
        - math.sqrt(p[0, 0, 1] * p[1, 0, 0])
        - math.sqrt(p[0, 0, 1] * p[1, 1, 0])
        - math.sqrt(p[0, 1, 1] * p[1, 0, 0])
        - math.sqrt(p[0, 1, 1] * p[1, 1, 0]))


def cap_cal_b(b: float) -> float:
    """Squared overlap bound, capped at zero: B^2 if B >= 0 else 0."""
    return b * b if b >= 0.0 else 0.0


def lambda_tilde(p000: float, p111: float, cal_b: float) -> float:
    """Dominant-eigenvalue bound for the normalized "agree, no flip" block.

    Returns 1/2 + sqrt((p000 - p111)^2 + 4*cal_b) / (2*(p000 + p111)),
    clamped into [1/2, 1].  Statistics realizable by an actual attack never
    need the upper clamp; inconsistent user input triggers a warning.
    """
    if p000 <= 0.0:
        raise TooNoisyError("p[0,0,0] <= 0: too much noise, abort")
    lam = 0.5 + math.sqrt((p000 - p111) ** 2 + 4.0 * cal_b) / (2.0 * (p000 + p111))
    if lam > 1.0 + 1e-9:
        warnings.warn(f"lambda_tilde = {lam} clamped to 1; statistics are not "
                      "realizable by any attack", stacklevel=2)
    return min(max(lam, 0.5), 1.0)


def s_bec(stats: ChannelStatistics) -> float:
    """Joint entropy (bits) of Bob's bit, agreement register and ancilla.

    The post-protocol state is diagonal across those labels with weights
    p[i, j, k] / 2, so this is a plain Shannon entropy.
    """
    return shannon_entropy(0.5 * stats.p.reshape(-1))


def _pair_sums(p: np.ndarray) -> list[float]:
    # p summed over the two rounds of each REGISTER_LABEL: twice the traces
    # of the four agreement-register blocks.
    return np.bincount(REGISTER_LABEL.reshape(-1), weights=p.reshape(-1),
                       minlength=4).tolist()


def s_ec_upper(stats: ChannelStatistics, lam: float) -> float:
    """Upper bound (bits) on the entropy of Eve's side information.

    Uses the trivial 1-bit bound for every agreement block except the
    dominant "agree, no flip" one, whose entropy is bounded by the binary
    entropy of ``lam``.  Vanishing blocks drop out through the 0*log(0)
    convention.
    """
    t = _pair_sums(stats.p)
    return (shannon_entropy([0.5 * tj for tj in t])
            + 0.5 * (t[1] + t[2] + t[3])
            + 0.5 * t[0] * binary_entropy(lam))


def p_alice_zero(stats: ChannelStatistics) -> float:
    """Probability that Alice's raw key bit (her final measurement) is 0."""
    p = stats.p
    return float(0.5 * (p[0, 0, 0] + p[0, 1, 0] + p[1, 1, 0] + p[1, 0, 0]))


def _joint_key_distribution(stats: ChannelStatistics) -> tuple[float, float, float, float]:
    p = stats.p
    return (float(0.5 * (p[0, 0, 0] + p[1, 0, 0])),   # p(b=0, a=0)
            float(0.5 * (p[0, 0, 1] + p[1, 0, 1])),   # p(b=0, a=1)
            float(0.5 * (p[0, 1, 0] + p[1, 1, 0])),   # p(b=1, a=0)
            float(0.5 * (p[0, 1, 1] + p[1, 1, 1])))   # p(b=1, a=1)


def h_b_given_a(stats: ChannelStatistics) -> float:
    """Conditional Shannon entropy (bits) of Bob's raw bit given Alice's."""
    joint = _joint_key_distribution(stats)
    return shannon_entropy(joint) - binary_entropy(p_alice_zero(stats))


def key_rate_bound(stats: ChannelStatistics, *, renormalize: bool = False) -> KeyRateReport:
    """Lower bound on the asymptotic key rate, with all intermediates.

    rate = s_bec - s_ec_upper + h(p_a0) - H(joint); the last two terms are
    -H(B|A).  Raises TooNoisyError when p[0,0,0] <= 0 and ValueError when
    the statistics fail validation.
    """
    stats = validate_statistics(stats, renormalize=renormalize)
    p = stats.p
    b = cross_overlap_lower_bound(stats)
    cal_b = cap_cal_b(b)
    lam = lambda_tilde(p[0, 0, 0], p[1, 1, 1], cal_b)
    entropy_bec = s_bec(stats)
    entropy_ec = s_ec_upper(stats, lam)
    pa0 = p_alice_zero(stats)
    joint = _joint_key_distribution(stats)
    h_a = binary_entropy(pa0)
    h_ab = shannon_entropy(joint)
    h_cond = h_ab - h_a
    rate = entropy_bec - entropy_ec + h_a - h_ab
    return KeyRateReport(b=b, cal_b=cal_b, lambda_tilde=lam, s_bec=entropy_bec,
                         s_ec_upper=entropy_ec, p_a0=pa0, joint=joint,
                         h_b_given_a=h_cond, rate=rate)


def symmetric_stats(params: ScenarioParams) -> ChannelStatistics:
    """Statistics of independent symmetric Z flips in each channel pass.

    The two passes flip independently with probabilities q_fwd and q_rev,
    giving product-form Z statistics; the X disturbance is q_x in both
    directions.
    """
    qf, qr = params.q_fwd, params.q_rev
    p = np.empty((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 1] = (1.0 - qf) * (1.0 - qr)
    p[0, 0, 1] = p[1, 1, 0] = (1.0 - qf) * qr
    p[0, 1, 0] = p[1, 0, 1] = qf * qr
    p[0, 1, 1] = p[1, 0, 0] = qf * (1.0 - qr)
    return ChannelStatistics(p=p, p_pm=params.q_x, p_mp=params.q_x)


# Scenario tag -> (q_fwd, q_rev) as functions of the headline noise Q.
SCENARIOS = {
    "equal": (lambda q: q, lambda q: q),
    "fwd-half": (lambda q: 0.5 * q, lambda q: q),
    "rev-half": (lambda q: q, lambda q: 0.5 * q),
}

_SCAN_STEP = 1e-3
_BISECT_TOL = 1e-6


def _scenario(scenario: str):
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"expected one of {sorted(SCENARIOS)}") from None


def _scenario_rate(scenario: str, qx_ratio: float, q: float) -> float:
    fwd, rev = _scenario(scenario)
    params = ScenarioParams(q_fwd=fwd(q), q_rev=rev(q), q_x=qx_ratio * q)
    return key_rate_bound(symmetric_stats(params)).rate


def noise_threshold(scenario: str, qx_ratio: float) -> float:
    """Largest Q in [0, 0.25] with a positive key-rate bound.

    A coarse bracket scan (step 1e-3) locates the first sign change, then
    bisection tightens it to 1e-6.  The scan range is additionally capped so
    that q_x = qx_ratio * Q stays within [0, 1/2].  Raises ValueError if the
    rate is already non-positive at Q = 0.
    """
    if not 0.0 < qx_ratio < math.inf:       # NaN fails too
        raise ValueError(f"qx_ratio = {qx_ratio} must be positive and finite")
    q_max = min(0.25, 0.5 / qx_ratio)
    if _scenario_rate(scenario, qx_ratio, 0.0) <= 0.0:
        raise ValueError("key rate is non-positive even at Q = 0")
    lo = 0.0
    hi = None
    q = _SCAN_STEP
    while q <= q_max + 1e-15:
        if _scenario_rate(scenario, qx_ratio, q) <= 0.0:
            hi = q
            break
        lo = q
        q += _SCAN_STEP
    if hi is None:
        return q_max
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _scenario_rate(scenario, qx_ratio, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep(scenario: str, qx_ratio: float, q_max: float, steps: int) -> list[tuple[float, float]]:
    """Evenly spaced (Q, rate) table over [0, q_max]; rates kept as-is.

    ``steps`` grid points including both endpoints; negative rates are
    reported unmodified so zero crossings stay visible.  A negative or
    non-finite ``qx_ratio`` or ``q_max``, or a ``q_max`` that takes q_fwd,
    q_rev or q_x beyond 1/2, is rejected up front by the name it was given.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not math.isfinite(qx_ratio):
        raise ValueError(f"qx_ratio = {qx_ratio} is not finite")
    if qx_ratio < 0.0:
        raise ValueError(f"qx_ratio = {qx_ratio} is negative")
    if not 0.0 <= q_max < math.inf:         # NaN fails too
        raise ValueError(f"q_max = {q_max} must be non-negative and finite")
    # Every scenario's noise grows with Q, so the last grid point, q_max
    # itself, sets the largest q_fwd, q_rev and q_x.
    fwd, rev = _scenario(scenario)
    try:
        ScenarioParams(q_fwd=fwd(q_max), q_rev=rev(q_max), q_x=qx_ratio * q_max)
    except ValueError as exc:
        raise ValueError(f"q_max = {q_max} puts {exc}") from None
    rows = []
    for q in np.linspace(0.0, q_max, steps):
        rows.append((float(q), _scenario_rate(scenario, qx_ratio, float(q))))
    return rows
