import dataclasses
import threading

import numpy as np
import pytest

from sqkd import attack
from sqkd.keyrate import ChannelStatistics

# One fixed pool of random attacks shared across the suite; seeds chosen
# once and never resampled.
SUITE_SEED = 20240
SUITE_DIMS = (1, 2, 4)


def make_attack_pool(count, seed=SUITE_SEED, dims=SUITE_DIMS):
    return [attack.random_attack(dims[idx % len(dims)], [seed, idx])
            for idx in range(count)]


def soundness_inputs(attacks):
    """Statistics and Gram matrices of ``attacks`` stacked, for ``attack.soundness``.

    The attacks may have different ancilla dimensions.
    """
    stats = [attack.statistics(atk) for atk in attacks]
    return (ChannelStatistics(p=np.stack([s.p for s in stats]),
                              p_pm=np.array([s.p_pm for s in stats]),
                              p_mp=np.array([s.p_mp for s in stats])),
            np.stack([attack.gram(atk) for atk in attacks]))


def one_member_stacks(attacks):
    """``attack.audit`` stacks holding each of ``attacks`` alone, at positions 0, 1, ..."""
    return [([m], lambda atk=atk: attack.CollectiveAttack(atk.ancilla_dim, atk.u_e[None],
                                                          atk.u_f[None]))
            for m, atk in enumerate(attacks)]


def report_bytes(report, m=()):
    """Field name -> bytes of member ``m`` of a KeyRateReport (all of it by default).

    Bytes tell -0.0 from 0.0, so equal results are equal bit for bit.
    """
    return {f.name: np.asarray(getattr(report, f.name), dtype=float)[m].tobytes()
            for f in dataclasses.fields(report)}


@pytest.fixture(scope="session")
def attack_pool():
    """500 seeded random attacks with ancilla dimensions cycling 1, 2, 4."""
    return make_attack_pool(500)


@pytest.fixture()
def rng():
    return np.random.default_rng(97531)


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a new non-daemon thread alive.

    Such a thread would keep the interpreter from exiting after ``main``
    returns; the pool of ``simulate._pull_on_every_cpu``, which ``validate``
    and ``simulate.run_protocol`` run on, must be joined on every path.
    """
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate()
            if t not in before and not t.daemon and t.is_alive()]
    if left:
        pytest.fail(f"threads left running: {[t.name for t in left]}")
