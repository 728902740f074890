"""Property tests over the statistics file, the key-rate bound and the
Monte Carlo thresholds."""

import math
import sys
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqkd import cli, keyrate, simulate
from sqkd.keyrate import ChannelStatistics, TooNoisyError
from conftest import report_bytes

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=80, deadline=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])

unit_floats = st.floats(min_value=0.0, max_value=1.0)
any_floats = st.floats(allow_nan=True, allow_infinity=True)


# Noiseless statistics: Bob and Alice always read what Alice sent.
IDEAL = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])


@st.composite
def channel_statistics(draw):
    """Noise ``t`` times ten entries in [0, 1] plus (1 - t) times IDEAL.

    The entries' conditional blocks may first be rescaled to sum to 1, so
    that many examples reach the whole bound, and small ``t`` gives positive
    rates.  Sometimes one entry is then replaced by any float at all.
    """
    entries = np.array(draw(st.lists(unit_floats, min_size=10, max_size=10)))
    if draw(st.booleans()):
        sums = entries[:8].reshape(2, 4).sum(axis=1)
        for i in np.flatnonzero(sums > 0.0):
            entries[4 * i:4 * i + 4] /= sums[i]
    t = draw(unit_floats)
    entries = t * entries + (1.0 - t) * IDEAL
    if draw(st.booleans()):
        entries[draw(st.integers(0, 9))] = draw(any_floats)
    return ChannelStatistics(p=entries[:8].reshape(2, 2, 2),
                             p_pm=entries[8], p_mp=entries[9])


@PROPERTY_SETTINGS
@given(entries=st.lists(unit_floats, min_size=10, max_size=10))
def test_stats_file_round_trips_exactly(tmp_path, entries):
    stats = ChannelStatistics(p=np.reshape(entries[:8], (2, 2, 2)),
                              p_pm=entries[8], p_mp=entries[9])
    path = str(tmp_path / "stats.txt")
    cli.write_stats_file(path, stats)
    back = cli.parse_stats_file(path)
    got = np.append(back.p.reshape(-1), [back.p_pm, back.p_mp])
    assert got.tobytes() == np.array(entries).tobytes()


@PROPERTY_SETTINGS
@given(members=st.lists(channel_statistics(), min_size=1, max_size=5))
def test_stack_gives_what_its_members_give(members):
    # Bit for bit each member's report, or the first failing member's error
    # with the member named.
    stack = ChannelStatistics(p=np.stack([s.p for s in members]),
                              p_pm=[s.p_pm for s in members],
                              p_mp=[s.p_mp for s in members])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"(member \d+: )?lambda_tilde = .* clamped",
                                category=UserWarning)
        alone = []
        for s in members:
            try:
                alone.append(keyrate.key_rate_bound(s))
            except (ValueError, TooNoisyError) as exc:
                alone.append(exc)
        try:
            report = keyrate.key_rate_bound(stack)
        except (ValueError, TooNoisyError) as exc:
            report = exc
    failed = [m for m, r in enumerate(alone) if isinstance(r, Exception)]
    if failed:
        first = alone[failed[0]]
        assert type(report) is type(first)
        assert str(report) == f"member {failed[0]}: {first}"
    else:
        for m, r in enumerate(alone):
            assert report_bytes(report, m) == report_bytes(r)


@PROPERTY_SETTINGS
@given(stats=channel_statistics())
def test_bound_is_finite_or_a_typed_error(stats):
    with warnings.catch_warnings():
        # The documented clamp for statistics no attack realises.
        warnings.filterwarnings("ignore", message="lambda_tilde = .* clamped to 1",
                                category=UserWarning)
        try:
            report = keyrate.key_rate_bound(stats)
        except (ValueError, TooNoisyError):
            return
    assert math.isfinite(report.rate)


q_entries = st.one_of(st.floats(min_value=0.0, max_value=0.5), any_floats)
q_values = st.one_of(q_entries, st.lists(q_entries, max_size=3))


@PROPERTY_SETTINGS
@given(qs=st.tuples(q_values, q_values, q_values))
def test_symmetric_stats_accepts_exactly_the_valid_ones(qs):
    # Valid: every entry in [0, 1/2], and list lengths other than 1 agree.
    entries = [x for q in qs for x in (q if isinstance(q, list) else [q])]
    lengths = {len(q) for q in qs if isinstance(q, list)} - {1}
    valid = all(0.0 <= x <= 0.5 for x in entries) and len(lengths) <= 1
    try:
        stats = keyrate.symmetric_stats(*qs)
    except ValueError:
        assert not valid
        return
    assert valid
    rate = keyrate.key_rate_bound(stats).rate
    assert np.isfinite(rate).all()


@PROPERTY_SETTINGS
@given(stats=channel_statistics())
def test_swapping_x_disturbances_keeps_the_bound(stats):
    # p_pm and p_mp enter only through 1 - p_pm - p_mp, which rounds
    # differently in the two orders: the rate may move by rounding alone.
    swapped = ChannelStatistics(p=stats.p, p_pm=stats.p_mp, p_mp=stats.p_pm)
    reports = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="lambda_tilde = .* clamped to 1",
                                category=UserWarning)
        for s in (stats, swapped):
            try:
                reports.append(keyrate.key_rate_bound(s))
            except (ValueError, TooNoisyError) as exc:
                reports.append(exc)
    a, b = reports
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert type(a) is type(b)
        return
    for name in ("s_bec", "p_a0", "joint", "h_b_given_a"):
        assert report_bytes(a)[name] == report_bytes(b)[name]
    assert abs(a.rate - b.rate) <= 1e-12


@st.composite
def word_threshold_cases(draw):
    """A probability p and m = w >> 11 of a word w near p's threshold.

    p is k * 2**-53 (0 and 1 among them) or one ulp either side of it, a
    subnormal, or any p in [0, 1]; m is within two of the threshold, or
    anywhere.
    """
    kind = draw(st.sampled_from(["grid", "subnormal", "any"]))
    if kind == "grid":
        p = math.ldexp(draw(st.integers(0, 2 ** 53)), -53)
        p = draw(st.sampled_from([p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)]))
    elif kind == "subnormal":
        p = draw(st.floats(min_value=0.0, max_value=sys.float_info.min, exclude_max=True,
                           allow_subnormal=True))
    else:
        p = draw(unit_floats)
    k = int(simulate._thresholds(p))
    m = draw(st.integers(max(k - 2, 0), min(k + 1, 2 ** 53 - 1)) | st.integers(0, 2 ** 53 - 1))
    return p, m


@PROPERTY_SETTINGS
@given(case=word_threshold_cases(), low=st.integers(0, 2 ** 11 - 1))
def test_word_threshold_decides_as_the_uniform(case, low):
    # Generator.random makes u = m * 2**-53 of a word w = m << 11 | low, and
    # the chunk decides u < p on the word's integers alone.
    p, m = case
    below = m * 2.0 ** -53 < p
    k = simulate._thresholds(p)
    assert k.dtype == np.uint64 and simulate._thresholds(np.array([p]))[0] == k
    assert (np.uint64(m) < k) == below, (p, m, int(k))
    if 0.0 < p < 1.0:
        # Whole words against the shifted threshold, as the chunk compares its
        # basis and measure words with that of 1/2.
        assert (np.uint64(m << 11 | low) < k << 11) == below, (p, m, low, int(k))
