"""Monte Carlo simulation of the quantum communication stage.

Alice prepares |0>, |1>, |+> or |->, Eve applies u_e, Bob either performs a
projective Z measurement and resends what he saw or reflects, Eve applies
u_f, and Alice measures in her preparation basis.  Everything Alice and Bob
can observe is summed up in the ten statistics an attack induces
(``attack.statistics``), and ``run_protocol`` samples those statistics alone:
``_chunk_thresholds`` reads the Born probabilities of Bob's and Alice's bits
off them once per run, and each iteration only compares uniform draws
against that table.  An iteration's event code is its cell of Alice's table
(preparation x branch) followed by Alice's bit, 24 codes in all, so one
bincount per chunk gives every tally.

Alice prepares in either basis, and Bob measures or reflects, with
probability 1/2 each.  Every statistic is conditioned on both choices, so
their probabilities only decide how many iterations land in each class.

Reproducibility contract: iterations are processed in fixed chunks of
CHUNK_SIZE; chunk c draws from an independent PCG64 stream seeded with
SeedSequence([seed, c]).  A chunk of n iterations consumes the stream's raw
64-bit words in a fixed order: n basis words, ceil(n/2) words of bits, n
measure-or-reflect words, then n words for Bob and n for Alice.  These are
the words that numpy's Generator draws ``random(n)``, ``integers(0, 2,
size=n)`` (int64), ``random(n)``, ``random(n)``, ``random(n)`` consume, and
the chunk reads the same values off them exactly:

- ``random`` makes u = (w >> 11) * 2**-53 of a word w, and u < p exactly
  when (w >> 11) < ceil(p * 2**53), for every p in [0, 1] (``_thresholds``);
- so u < 1/2 exactly when w's top bit is clear: Alice prepares in X when
  her basis word's top bit is set, and Bob measures when his
  measure-or-reflect word's top bit is clear;
- bits 2i and 2i + 1 of ``integers(0, 2)`` are bits 31 and 63 of word i,
  the top bits of its two 32-bit halves, low half first.

One thread per CPU the process may use (``taskset`` restricts them), the
calling thread among them, pulls the chunks one at a time
(``_pull_on_every_cpu``, which ``attack.audit`` shares), and their tallies
are summed as integers, so the run's output, its tallies alone, is a pure
function of the ten statistics, the iterations and the seed, on any number
of CPUs and whichever thread runs a chunk.  The sifted key and its error
rate are read off the Z tallies: every Z-prepared, measured iteration is
one key bit, counted in exactly one z_counts cell.
"""

import os
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .keyrate import ChannelStatistics, validate_statistics

CHUNK_SIZE = 1 << 14  # fixed; changing it changes every sampled trajectory


class InsufficientDataError(ValueError):
    """A conditioning class required for estimation has no samples."""


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


def _workers() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pull_on_every_cpu(work: Callable[[Iterator], object], items: Sequence) -> list:
    """Run ``work(pull)`` on one thread per CPU, the calling thread among them.

    ``min(_workers(), len(items))`` threads run, so the pool starts none on
    one CPU or for one item.  Each thread's ``pull`` yields the items no
    thread has taken, one at a time, so a thread on a slower CPU takes fewer.
    An error in any thread, or the calling thread's ``work`` ending, stops the
    others before their next item.  Once every thread has ended, returns
    their results or raises the calling thread's error, else the first
    started pool thread's.
    """
    shared, end = iter(items), object()
    lock, stop = threading.Lock(), threading.Event()

    def pull():
        while not stop.is_set():
            # The lock, not the GIL, makes every item taken exactly once.
            with lock:
                item = next(shared, end)
            if item is end:
                return
            yield item

    def pooled():
        try:
            return work(pull())
        except BaseException:
            stop.set()
            raise

    helpers = min(_workers(), len(items)) - 1
    # The pool starts its threads on submit; the with block joins them.
    with ThreadPoolExecutor(max(helpers, 1)) as pool:
        try:
            futures = [pool.submit(pooled) for _ in range(helpers)]
            mine = work(pull())
        finally:
            stop.set()
    return [mine] + [future.result() for future in futures]


def _thresholds(p):
    """ceil(p * 2**53) as uint64, elementwise for an array of probabilities.

    A word w's uniform u = (w >> 11) * 2**-53 is below p exactly when
    (w >> 11) is below this: scaling by 2**53 is exact in floating point,
    and an integer lies below a real exactly when it lies below its ceiling.
    """
    return np.ceil(np.ldexp(np.asarray(p, dtype=float), 53)).astype(np.uint64)


# 2**63: a word's uniform lies below 1/2 exactly when the word is below this,
# that is when its top bit is clear.
_HALF = _thresholds(0.5) << 11


def _chunk_thresholds(stats: ChannelStatistics) -> tuple:
    """Bob's and Alice's thresholds, which ``_simulate_chunk`` compares words with.

    Their Born probabilities of reading 1 are read off the statistics into
    (prep, branch) tables: prep indexes |0>, |1>, |+>, |->; branch 0 is Bob
    reflecting, 1 and 2 his collapse onto transit |0> and |1>.  Bob's sit in
    the branch-1 column, which the chunk looks up before it adds his bit, so
    he never reads 1 when he reflects.  Only Z collapses and X reflections
    reach an output; every other cell, and a collapse Bob never samples, is
    0.  Both tables compare with words shifted right by 11.
    """
    p = stats.p
    bob, alice = np.zeros((4, 3)), np.zeros((4, 3))
    bob[:2, 1] = p[:, 1].sum(axis=-1) / p.sum(axis=(1, 2))
    branch = p.sum(axis=-1)
    np.divide(p[..., 1], branch, out=alice[:2, 1:], where=branch > 0.0)
    alice[2:, 0] = stats.p_pm, 1.0 - stats.p_mp
    return _thresholds(bob), _thresholds(alice)


def _simulate_chunk(bob: np.ndarray, alice: np.ndarray, n: int, seed: int,
                    chunk: int) -> np.ndarray:
    # Returns the chunk's bincount of its 24 event codes; the thresholds come
    # from _chunk_thresholds.  prep, cell and event code are built in one
    # uint8 array, whose in-place sums with the masks cost a third of int64
    # ones, and Bob's and then Alice's bits overwrite the X mask.
    #
    # The words come in two draws with Bob's thresholds taken between them,
    # so at most 2n words and n thresholds live at once; one draw of all
    # 4n + ceil(n/2) words is a little faster on two threads but holds
    # 200 KiB more per thread.  The masks are allocated before the first
    # draw and Bob's thresholds before take copies its indices, so each
    # freed draw or copy returns to the top of the thread's heap and the
    # next fits there instead of growing the heap.
    bitgen = np.random.PCG64(np.random.SeedSequence([seed, chunk]))
    half = -(-n // 2)
    x_prep, cell = np.empty(n, dtype=bool), np.empty(n, dtype=np.uint8)
    first = bitgen.random_raw(2 * n + half)             # basis, bits, measure
    np.greater_equal(first[:n], _HALF, out=x_prep)      # top bit set
    # The bits: the top bit of each little-endian 32-bit half, as 0 or 1.
    halves = first[n:n + half].astype("<u8", copy=False).view("<u4")
    np.greater_equal(halves[:n], 1 << 31, out=cell.view(bool))
    cell += x_prep
    cell += x_prep                                      # prep: bits + 2 * x_prep
    cell *= 3
    cell += first[n + half:] < _HALF                    # prep, reflect or measure
    del first, halves
    # take without an axis indexes the flattened table, and mode="raise"
    # would buffer its output; every index is in range.
    bob_t = bob.take(cell, out=np.empty(n, dtype=np.uint64), mode="clip")
    second = bitgen.random_raw(2 * n)                   # Bob, Alice
    second >>= 11
    bob_bits = np.less(second[:n], bob_t, out=x_prep)
    del bob_t
    cell += bob_bits                                    # branch 0, 1 or 2
    # Alice's thresholds overwrite Bob's words, which are spent.
    alice_bits = np.less(second[n:], alice.take(cell, out=second[:n], mode="clip"),
                         out=bob_bits)

    # Event code: the (prep, branch) cell of the table and Alice's bit.
    cell *= 2
    cell += alice_bits
    return np.bincount(cell, minlength=24)


def run_protocol(stats: ChannelStatistics, iterations: int, seed: int = 0) -> TallyCounts:
    """Simulate the quantum communication stage with the given statistics.

    Returns the per-class tallies, a pure function of the ten statistics,
    the iterations and the seed of every chunk's stream.  iterations and
    seed must be integers, not bools, with iterations >= 1 and 0 <= seed <
    2**64; these are checked first, then the statistics, which raise the
    ValueError of ``keyrate.validate_statistics``, as does a stack.
    """
    for name, v in (("iterations", iterations), ("seed", seed)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if stats.p.ndim != 3:
        raise ValueError(f"run_protocol takes one member, not a stack {stats.p.shape[:-3]}")
    thresholds = _chunk_thresholds(validate_statistics(stats))

    def pulled(pull: Iterator[int]) -> np.ndarray:
        # The sum of the 24-cell bincounts of the chunks this thread pulls.
        counts = np.zeros(24, dtype=np.int64)
        for c in pull:
            counts += _simulate_chunk(*thresholds, min(CHUNK_SIZE, iterations - c * CHUNK_SIZE),
                                      seed, c)
        return counts

    counts = sum(_pull_on_every_cpu(pulled, range(-(-iterations // CHUNK_SIZE))))
    counts = counts.reshape(4, 3, 2)
    z, x = counts[:2, 1:], counts[2:, 0]
    return TallyCounts(z_counts=z, x_reflect_counts=x,
                       other_counts=iterations - int(z.sum()) - int(x.sum()), total=iterations)


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


def qber(tally: TallyCounts) -> float:
    """Fraction of sifted key bits where Bob's and Alice's bits disagree.

    The sifted key is every Z-prepared, measured iteration; z_counts[i, j, k]
    holds Bob's key bit j and Alice's k.
    """
    z = tally.z_counts
    if not z.any():
        raise ValueError("cannot compute the error rate of an empty sifted key")
    return float((z[:, 0, 1].sum() + z[:, 1, 0].sum()) / z.sum())
