"""Key-rate lower bound from observed channel statistics.

Alice and Bob can estimate ten numbers during parameter estimation: the
eight conditional probabilities p[i, j, k] that, given Alice sent the Z
state |i>, Bob measured-and-resent |j> and Alice finally measured |k>, plus
the two X-basis disturbance probabilities p_pm (sent |+>, reflected,
measured |->) and p_mp (sent |->, measured |+>).  This module turns those
ten observables into a lower bound on the asymptotic secret-key rate under
reverse reconciliation, and provides the symmetric-noise scenario
generators, the noise-threshold search and the rate sweep used to tabulate
it.  The report, KeyRateReport, carries every intermediate quantity and is
where each one is defined; lambda_tilde and h_b_given_a are also functions
of their own, for callers that need them apart from a report.

Statistics stack over the leading axes of p (..., 2, 2, 2), as in linalg:
each member gives bit for bit the floats it gives alone, and a stack raises
the error of its first failing member, in C order, naming it.
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


_TOO_NOISY = "p[0,0,0] <= 0: too much noise, abort"


def _floats(x):
    # A float for a single member, a read-only array for a stack.
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return x if x.ndim else float(x)


def _raise_first(checks) -> None:
    # Raise the first failing member's error; ``checks`` are (failed, over the
    # leading axes, error type, message(m) for member m) in the order a member
    # runs them.
    failed = np.stack([bad for bad, _, _ in checks])
    if failed.any():
        m = tuple(map(int, np.unravel_index(np.argmax(failed.any(axis=0)), failed.shape[1:])))
        _, error, message = checks[int(np.argmax(failed[(slice(None),) + m]))]
        raise error(_for_member(m, message(m)))


def _for_member(m: tuple, message: str) -> str:
    return f"member {m[0] if len(m) == 1 else m}: {message}" if m else message


@dataclass(frozen=True)
class ChannelStatistics:
    """The ten observables of one protocol iteration, or a stack of them.

    p[..., i, j, k] is conditioned on Alice sending |i>; p_pm and p_mp are
    conditioned on Alice sending |+> (resp. |->) and Bob reflecting, and
    carry p's leading axes: floats for a single member, arrays for a stack.
    """

    p: np.ndarray
    p_pm: float | np.ndarray
    p_mp: float | np.ndarray

    def __post_init__(self):
        # C order: each member's sums run along the last axes, and a strided
        # layout would round them differently from the member alone.
        p = np.array(self.p, dtype=float, order="C")
        if p.shape[-3:] != (2, 2, 2):
            raise ValueError(f"p must have shape (..., 2, 2, 2), got {p.shape}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        for name in ("p_pm", "p_mp"):
            object.__setattr__(self, name, _floats(np.broadcast_to(getattr(self, name),
                                                                   p.shape[:-3])))


def validate_statistics(stats: ChannelStatistics) -> ChannelStatistics:
    """Check entries (finite, in [0, 1]) and per-i sums.

    Each block must sum to 1 within STATS_SUM_TOL, and the mean of the two
    block sums may exceed 1 by at most ``linalg.PROB_SUM_TOL``, the excess
    the entropies accept.  Returns the statistics with entries clipped into
    [0, 1].
    """
    return _validated(stats, False)


def statistics_entries(stats) -> np.ndarray:
    """The ten observables in their one order, (..., 10): p in C order, p_pm, p_mp."""
    return np.concatenate([stats.p.reshape(stats.p.shape[:-3] + (8,)),
                           np.stack([stats.p_pm, stats.p_mp], axis=-1)], axis=-1)


def _validated(stats: ChannelStatistics, renormalize: bool, *later) -> ChannelStatistics:
    # validate_statistics, then the ``later`` checks of _raise_first.
    names = [f"p[{i},{j},{k}]" for i, j, k in np.ndindex(2, 2, 2)] + ["p_pm", "p_mp"]
    p = stats.p
    lead = p.shape[:-3]
    entries = statistics_entries(stats)
    finite = np.isfinite(entries)
    checks = [(~finite.all(axis=-1), ValueError,
               lambda m: f"statistics entry {names[int(np.argmin(finite[m]))]} is not finite"),
              ((entries.min(axis=-1) < -1e-9) | (entries.max(axis=-1) > 1.0 + 1e-9),
               ValueError, lambda m: "statistics entries must lie in [0, 1]")]
    p = np.clip(p, 0.0, 1.0)
    sums = p.reshape(lead + (2, 4)).sum(axis=-1)
    if renormalize:
        checks.append((sums.min(axis=-1) <= 0.0, ValueError,
                       lambda m: "cannot renormalize an all-zero conditional block"))
        with np.errstate(divide="ignore", invalid="ignore"):
            p = p / sums[..., None, None]
    else:
        # KeyRateReport.s_bec is the Shannon entropy of exactly these halved entries.
        checks += [(np.max(np.abs(sums - 1.0), axis=-1) > STATS_SUM_TOL, ValueError,
                    lambda m: f"conditional blocks sum to {sums[m][0]} and {sums[m][1]}, "
                              f"expected 1 within {STATS_SUM_TOL} (pass renormalize to rescale)"),
                   ((0.5 * p.reshape(lead + (8,))).sum(axis=-1) > 1.0 + PROB_SUM_TOL, ValueError,
                    lambda m: f"conditional blocks p000..p011 and p100..p111 sum to "
                              f"{sums[m][0]} and {sums[m][1]}; their mean may exceed 1 by at "
                              f"most {PROB_SUM_TOL} (pass renormalize to rescale)")]
    _raise_first(checks + list(later))
    return ChannelStatistics(p=p, p_pm=np.clip(stats.p_pm, 0.0, 1.0),
                             p_mp=np.clip(stats.p_mp, 0.0, 1.0))


@dataclass(frozen=True)
class KeyRateReport:
    """Key-rate lower bound together with every intermediate quantity.

    rate = s_bec - s_ec_upper + h(p_a0) - H(joint), the last two terms
    being -h_b_given_a.  Each step, from the ten observables:

    - b: lower bound B on Re<e_{0,0}^0|e_{1,3}^1>, Eve's critical ancilla
      overlap: 1 - p_pm - p_mp less seven Cauchy-Schwarz cross terms, which
      pair each "Alice sent 0" outcome with the "Alice sent 1" outcomes that
      could interfere with it on reflected X iterations.  May be negative
      when the noise is large.
    - cal_b: B^2 if B >= 0, else 0.
    - lambda_tilde: ``lambda_tilde(p[0,0,0], p[1,1,1], cal_b)``, the
      dominant eigenvalue bound for the "both bits agree, no flips" ancilla
      block.
    - s_bec: joint entropy (bits) of Bob's bit, the agreement register and
      Eve's ancilla.  The state is diagonal across those labels with weights
      p[i, j, k] / 2, so this is a plain Shannon entropy.
    - s_ec_upper: upper bound (bits) on the same entropy without Bob.  With
      t[l] the sum of p over the two rounds of REGISTER_LABEL l (twice the
      trace of register block l), it is H(t/2) plus t[l]/2 times the trivial
      1-bit bound for l = 1, 2, 3 and times h(lambda_tilde) for the dominant
      block l = 0.  Vanishing blocks drop out through 0*log(0) = 0.
    - p_a0: probability that Alice's raw key bit (her final measurement) is 0.
    - joint: p(b, a) for Bob's and Alice's raw key bits in order (0,0),
      (0,1), (1,0), (1,1).
    - h_b_given_a: H(joint) - h(p_a0), Bob's raw bit given Alice's.

    For a stack every field is an array over its leading axes, and joint one
    of shape (..., 4).
    """

    b: float | np.ndarray
    cal_b: float | np.ndarray
    lambda_tilde: float | np.ndarray
    s_bec: float | np.ndarray
    s_ec_upper: float | np.ndarray
    p_a0: float | np.ndarray
    joint: tuple[float, float, float, float] | np.ndarray
    h_b_given_a: float | np.ndarray
    rate: float | np.ndarray


def lambda_tilde(p000, p111, cal_b):
    """Dominant-eigenvalue bound for the normalized "agree, no flip" block.

    Returns 1/2 + sqrt((p000 - p111)^2 + 4*cal_b) / (2*(p000 + p111)),
    clamped into [1/2, 1].  Statistics realizable by an actual attack never
    need the upper clamp; inconsistent user input triggers a warning.  The
    arguments broadcast together; a non-finite one, or a negative p111 or
    cal_b, raises ValueError, and p000 <= 0 raises TooNoisyError.
    """
    names = ("p000", "p111", "cal_b")
    args = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (p000, p111, cal_b)))
    p000, p111, cal_b = args
    # NaN passes p000 <= 0, so finiteness is checked first.
    _raise_first([(~np.isfinite(v), ValueError, lambda m, n=n, v=v: f"{n} = {v[m]} is not finite")
                  for n, v in zip(names, args)]
                 + [(p000 <= 0.0, TooNoisyError, lambda m: _TOO_NOISY)]
                 + [(v < 0.0, ValueError, lambda m, n=n, v=v: f"{n} = {v[m]} is negative")
                    for n, v in zip(names[1:], args[1:])])
    return _lambda_tilde(p000, p111, cal_b)


def _lambda_tilde(p000, p111, cal_b):
    # lambda_tilde without its argument checks, for arguments that pass them.
    lam = 0.5 + np.sqrt(np.square(p000 - p111) + 4.0 * cal_b) / (2.0 * (p000 + p111))
    clamped = lam > 1.0 + 1e-9
    if clamped.any():
        m = tuple(map(int, np.unravel_index(np.argmax(clamped), lam.shape)))
        warnings.warn(_for_member(m, f"lambda_tilde = {lam[m]} clamped to 1; statistics "
                                     "are not realizable by any attack"), stacklevel=3)
    return _floats(np.clip(lam, 0.5, 1.0))


# Row l: the C-order indices of the two rounds with REGISTER_LABEL l.
_REGISTER_PAIRS = np.argsort(REGISTER_LABEL.reshape(-1), kind="stable").reshape(4, 2)


def _raw_keys(p: np.ndarray) -> tuple:
    # p_a0, and p(b, a) over the last axis in order (0,0), (0,1), (1,0), (1,1).
    return (_floats(0.5 * (p[..., 0, 0, 0] + p[..., 0, 1, 0] + p[..., 1, 1, 0] + p[..., 1, 0, 0])),
            (0.5 * (p[..., 0, :, :] + p[..., 1, :, :])).reshape(p.shape[:-3] + (4,)))


def h_b_given_a(stats: ChannelStatistics):
    """Conditional Shannon entropy (bits) of Bob's raw bit given Alice's."""
    pa0, joint = _raw_keys(stats.p)
    return _floats(shannon_entropy(joint) - binary_entropy(pa0))


def key_rate_bound(stats: ChannelStatistics, *, renormalize: bool = False) -> KeyRateReport:
    """Lower bound on the asymptotic key rate, with all intermediates.

    KeyRateReport defines each of them.  Raises TooNoisyError when
    p[0,0,0] <= 0 and ValueError when the statistics fail
    ``validate_statistics``.

    Statistics from an attack, or estimated from a simulation's tallies,
    have blocks that sum to 1 within rounding.  ``renormalize`` is for
    blocks that miss 1 by more than STATS_SUM_TOL, such as hand-rounded
    files: it rescales each clipped block to sum to 1 instead of rejecting
    it, and rejects an all-zero block.
    """
    stats = _validated(stats, renormalize,
                       (stats.p[..., 0, 0, 0] <= 0.0, TooNoisyError, lambda m: _TOO_NOISY))
    p = stats.p
    b = _floats(
        1.0 - stats.p_pm - stats.p_mp
        - np.sqrt(p[..., 0, 0, 0] * p[..., 1, 0, 1])
        - np.sqrt(p[..., 0, 1, 0] * p[..., 1, 0, 1])
        - np.sqrt(p[..., 0, 1, 0] * p[..., 1, 1, 1])
        - np.sqrt(p[..., 0, 0, 1] * p[..., 1, 0, 0])
        - np.sqrt(p[..., 0, 0, 1] * p[..., 1, 1, 0])
        - np.sqrt(p[..., 0, 1, 1] * p[..., 1, 0, 0])
        - np.sqrt(p[..., 0, 1, 1] * p[..., 1, 1, 0]))
    cal_b = _floats(np.where(np.asarray(b) >= 0.0, np.square(b), 0.0))
    # _validated has passed what lambda_tilde checks: every entry finite and in
    # [0, 1], p000 > 0; cal_b is B^2 or 0.
    lam = _lambda_tilde(p[..., 0, 0, 0], p[..., 1, 1, 1], cal_b)
    flat = p.reshape(p.shape[:-3] + (8,))
    entropy_bec = _floats(shannon_entropy(0.5 * flat))
    t = flat[..., _REGISTER_PAIRS].sum(axis=-1)
    entropy_ec = _floats(shannon_entropy(0.5 * t)
                         + 0.5 * (t[..., 1] + t[..., 2] + t[..., 3])
                         + 0.5 * t[..., 0] * binary_entropy(lam))
    pa0, joint = _raw_keys(p)
    h_a = binary_entropy(pa0)
    h_ab = shannon_entropy(joint)
    rate = entropy_bec - entropy_ec + h_a - h_ab
    return KeyRateReport(b=b, cal_b=cal_b, lambda_tilde=lam, s_bec=entropy_bec,
                         s_ec_upper=entropy_ec, p_a0=pa0,
                         joint=tuple(joint.tolist()) if joint.ndim == 1 else _floats(joint),
                         h_b_given_a=_floats(h_ab - h_a), rate=_floats(rate))


def symmetric_stats(q_fwd, q_rev, q_x) -> ChannelStatistics:
    """Statistics of independent symmetric Z flips in each channel pass.

    q_fwd is the probability a Z state flips on the way to Bob, q_rev the
    flip probability on the way back, giving product-form Z statistics;
    q_x is the X-basis disturbance seen on reflected iterations, in both
    directions.  Each must lie in [0, 1/2], or ValueError names it.  Arrays
    whose shapes broadcast together give a stack of statistics of the
    broadcast shape.
    """
    qf, qr, qx = qs = [np.asarray(v, dtype=float) for v in (q_fwd, q_rev, q_x)]
    for name, v in zip(("q_fwd", "q_rev", "q_x"), qs):
        bad = v[~((0.0 <= v) & (v <= 0.5))]
        if bad.size:
            raise ValueError(f"{name} = {bad[0]} outside [0, 1/2]")
    shapes = [v.shape for v in qs]
    try:
        p = np.empty(np.broadcast_shapes(*shapes) + (2, 2, 2))
    except ValueError:
        raise ValueError(f"q_fwd, q_rev and q_x shapes {shapes} do not broadcast") from None
    p[..., 0, 0, 0] = p[..., 1, 1, 1] = (1.0 - qf) * (1.0 - qr)
    p[..., 0, 0, 1] = p[..., 1, 1, 0] = (1.0 - qf) * qr
    p[..., 0, 1, 0] = p[..., 1, 0, 1] = qf * qr
    p[..., 0, 1, 1] = p[..., 1, 0, 0] = qf * (1.0 - qr)
    return ChannelStatistics(p=p, p_pm=qx, p_mp=qx)


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


def _scenario_rate(scenario: str, qx_ratio: float, q):
    fwd, rev = _scenario(scenario)
    return key_rate_bound(symmetric_stats(fwd(q), rev(q), qx_ratio * q)).rate


def noise_threshold(scenario: str, qx_ratio: float) -> float:
    """Largest Q in [0, 0.25] with a positive key-rate bound.

    A coarse bracket scan (step 1e-3, one key_rate_bound call) locates the
    first sign change, then bisection tightens it to 1e-6.  The scan ends at
    q_max <= 0.25, where q_x = qx_ratio * Q may reach 1/2, and q_max is
    returned only if the rate is positive there.  Raises ValueError if the
    rate is already non-positive at Q = 0.
    """
    if not 0.0 < qx_ratio < math.inf:       # NaN fails too
        raise ValueError(f"qx_ratio = {qx_ratio} must be positive and finite")
    q_max = min(0.25, 0.5 / qx_ratio)
    # Accumulated as q += step would be.
    scan = np.cumsum(np.full(math.ceil(q_max / _SCAN_STEP), _SCAN_STEP))
    q = np.concatenate([[0.0], scan[scan < q_max], [q_max]])
    rates = _scenario_rate(scenario, qx_ratio, q)
    if rates[0] <= 0.0:
        raise ValueError("key rate is non-positive even at Q = 0")
    first = int(np.argmax(rates <= 0.0))
    if not first:
        return q_max
    lo, hi = float(q[first - 1]), float(q[first])
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _scenario_rate(scenario, qx_ratio, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep(scenario: str, qx_ratio: float, q_max: float, steps: int) -> list[tuple[float, float]]:
    """Evenly spaced (Q, rate) table over [0, q_max]; rates kept as-is.

    ``steps`` grid points including both endpoints, in one key_rate_bound
    call; negative rates are reported unmodified so zero crossings stay
    visible.  A negative or non-finite ``qx_ratio`` or ``q_max``, or a
    ``q_max`` that takes q_fwd, q_rev or q_x beyond 1/2, is rejected up front
    by the name it was given.
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
        symmetric_stats(fwd(q_max), rev(q_max), qx_ratio * q_max)
    except ValueError as exc:
        raise ValueError(f"q_max = {q_max} puts {exc}") from None
    q = np.linspace(0.0, q_max, steps)
    return list(zip(q.tolist(), _scenario_rate(scenario, qx_ratio, q).tolist()))
