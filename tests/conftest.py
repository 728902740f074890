import dataclasses

import numpy as np
import pytest

from sqkd import attack

# One fixed pool of random attacks shared across the suite; seeds chosen
# once and never resampled.
SUITE_SEED = 20240
SUITE_DIMS = (1, 2, 4)


def make_attack_pool(count, seed=SUITE_SEED, dims=SUITE_DIMS):
    return [attack.random_attack(dims[idx % len(dims)], [seed, idx])
            for idx in range(count)]


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
