import dataclasses
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import born_rule_chunk
from sqkd import attack, cli, keyrate, simulate
from sqkd.simulate import TallyCounts


def run(atk, iterations, seed):
    return simulate.run_protocol(attack.statistics(atk), iterations, seed)


def chunk_tally(counts, n):
    """The tallies of n iterations, read off their 24 counts as a (4, 3, 2) view."""
    view = counts.reshape(4, 3, 2)
    z, x = view[:2, 1:], view[2:, 0]
    return TallyCounts(z_counts=z, x_reflect_counts=x,
                       other_counts=n - int(z.sum()) - int(x.sum()), total=n)


def serial_tally(stats, n, seed):
    """The tallies of a run with every chunk summed on this thread, in order."""
    thresholds = simulate._chunk_thresholds(stats)
    size = simulate.CHUNK_SIZE
    return chunk_tally(sum(simulate._simulate_chunk(
        *thresholds, min(size, n - c * size), seed, c)
        for c in range(-(-n // size))), n)


def assert_same_tally(got, want, workers):
    for field in dataclasses.fields(TallyCounts):
        assert np.array_equal(getattr(got, field.name),
                              getattr(want, field.name)), (workers, field.name)


ORACLE_ATTACKS = {
    "identity": attack.identity_attack(),
    "zmeasure": attack.z_measurement_attack(),
    "symmetric": attack.symmetric_realizing_attack(0.1, 0.05),
    **{f"haar-d{d}": attack.random_attack(d, [d, 5]) for d in (1, 2, 4, 32)},
}


class TestRunProtocol:
    def test_identity_attack_has_no_errors(self):
        tally = run(attack.identity_attack(), 100_000, seed=11)
        z = tally.z_counts
        assert z[0, 1, :].sum() == 0 and z[1, 0, :].sum() == 0
        assert z[0, 0, 1] == 0 and z[1, 1, 0] == 0
        assert tally.x_reflect_counts[0, 1] == 0
        assert tally.x_reflect_counts[1, 0] == 0
        assert simulate.qber(tally) == 0.0

    def test_totals_conserved(self):
        tally = run(attack.random_attack(2, 99), 30_000, seed=5)
        assert (tally.z_counts.sum() + tally.x_reflect_counts.sum()
                + tally.other_counts) == tally.total == 30_000

    def test_same_seed_is_bit_identical(self):
        atk = attack.random_attack(2, 4)
        t1 = run(atk, 50_000, seed=17)
        t2 = run(atk, 50_000, seed=17)
        assert np.array_equal(t1.z_counts, t2.z_counts)
        assert np.array_equal(t1.x_reflect_counts, t2.x_reflect_counts)
        assert t1.other_counts == t2.other_counts

    @pytest.mark.parametrize("n", [simulate.CHUNK_SIZE, 1000, 999, 1])
    def test_raw_words_reproduce_generator_draws(self, n):
        # The chunk reads its five draws off raw PCG64 words as the module
        # docstring states.  Here the words are read the slow way and
        # checked against Generator itself, so a numpy whose Generator
        # turns words into draws differently fails naming the draw.
        half = -(-n // 2)
        for chunk in range(2):
            rng = np.random.default_rng(np.random.SeedSequence([12345, chunk]))
            want = {"basis": rng.random(n), "bits": rng.integers(0, 2, size=n),
                    "measure": rng.random(n), "bob": rng.random(n), "alice": rng.random(n)}
            words = np.random.PCG64(np.random.SeedSequence([12345, chunk])).random_raw(
                4 * n + half)
            basis, bits, measure, bob, alice = np.split(
                words, [n, n + half, 2 * n + half, 3 * n + half])
            got = {name: (w >> 11) * 2.0 ** -53 for name, w in
                   (("basis", basis), ("measure", measure), ("bob", bob), ("alice", alice))}
            pairs = np.stack([bits >> 31 & 1, bits >> 63], axis=1)
            got["bits"] = pairs.reshape(-1)[:n].astype(np.int64)
            for name, draw in want.items():
                assert draw.dtype == got[name].dtype, (name, draw.dtype)
                assert np.array_equal(got[name], draw), \
                    f"the {name} draw differs from its raw words (n={n}, chunk {chunk})"

    @pytest.mark.parametrize("name", sorted(ORACLE_ATTACKS))
    def test_chunks_match_born_rule_oracle(self, name):
        atk = ORACLE_ATTACKS[name]
        thresholds = simulate._chunk_thresholds(attack.statistics(atk))
        # An odd n leaves the last bits word's high half unused.
        for n in (simulate.CHUNK_SIZE, 1000, 999, 1):
            for chunk in range(2):
                counts = simulate._simulate_chunk(*thresholds, n, 12345, chunk)
                # array_equal ignores dtype, so the dtype is pinned here.
                assert counts.shape == (24,) and counts.dtype == np.int64
                tally = chunk_tally(counts, n)
                *want, a_bits, b_bits = born_rule_chunk(atk.u_e, atk.u_f, atk.ancilla_dim,
                                                        n, 12345, chunk)
                got = tally.z_counts, tally.x_reflect_counts, tally.other_counts
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                # The sifted key and its error rate come from the tallies.
                assert int(tally.z_counts.sum()) == len(a_bits)
                if len(a_bits):
                    assert simulate.qber(tally) == np.mean(a_bits != b_bits)
                else:
                    with pytest.raises(ValueError, match="empty sifted key"):
                        simulate.qber(tally)

    def test_empirical_statistics_converge_to_analytic(self):
        atk = attack.symmetric_realizing_attack(0.05, 0.05)
        tally = run(atk, 400_000, seed=12345)
        stats, _ = simulate.estimate_statistics(tally)
        analytic = attack.statistics(atk)
        n_z = tally.z_counts.reshape(2, 4).sum(axis=1)
        for i in range(2):
            se = np.sqrt(analytic.p[i] * (1 - analytic.p[i]) / n_z[i])
            diff = np.abs(stats.p[i] - analytic.p[i])
            assert np.all(diff <= np.where(se > 0, 3 * se, 0)), (i, diff, se)
        # This attack flips without touching the X basis, so the reflected
        # X rounds are exactly error free.
        assert stats.p_pm == 0.0 and stats.p_mp == 0.0

    def test_non_unitary_attack_caught(self):
        # An attack that is not unitary has no statistics to sample, and no
        # exact rate either.
        bad_us = [np.diag([entry, 1.0]) for entry in (0.9, np.nan)]
        # Unit-norm columns that are not orthogonal.
        bad_us.append(np.array([[1.0, 1.0], [0.0, 1.0]]) / [1.0, np.sqrt(2.0)])
        for bad_u in bad_us:
            bad = attack.CollectiveAttack(1, bad_u.astype(complex),
                                          np.eye(2, dtype=complex))
            for check in (lambda: run(bad, 1000, seed=0),
                          lambda: attack.exact_collective_rate(bad)):
                with pytest.raises(ValueError, match="not unitary enough: identity residual"):
                    check()

    @pytest.mark.parametrize("p000,p_pm,match", [
        (0.5, 0.0, "conditional blocks sum to 0.5"),
        (np.nan, 0.0, r"entry p\[0,0,0\] is not finite"),
        (1.0, 1.5, r"must lie in \[0, 1\]")])
    def test_statistics_rejected_as_the_bound_rejects_them(self, p000, p_pm, match):
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = p000
        p[1, 1, 1] = 1.0
        stats = keyrate.ChannelStatistics(p=p, p_pm=p_pm, p_mp=0.0)
        for check in (lambda: simulate.run_protocol(stats, 1000),
                      lambda: keyrate.key_rate_bound(stats)):
            with pytest.raises(ValueError, match=match):
                check()

    @pytest.mark.parametrize("d,scale", [(1, 1 + 4e-11), (32, 1 + 4.9e-11)],
                             ids=["d1", "d32"])
    def test_validated_attack_simulates(self, d, scale):
        # Both unitaries pass validate_attack's tolerance; a reflected round
        # compounds their norm errors.
        atk = attack.random_attack(d, 3)
        near = attack.validate_attack(atk.u_e * scale, atk.u_f * scale, d)
        tally = run(near, 1000, seed=0)
        assert tally.total == 1000

    def test_unreachable_collapse_is_finite_and_silent(self):
        # Identity: Bob never reads 1 on |0> nor 0 on |1>.
        atk = attack.identity_attack()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bob, _ = simulate._chunk_thresholds(attack.statistics(atk))
        assert np.array_equal(bob[:, 1], [0, 2 ** 53, 0, 0])
        # A 0 / 0 for a collapse Bob never samples would warn in the divide,
        # and its NaN again in the uint64 cast:
        with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
            simulate._thresholds(np.nan)

    @pytest.mark.parametrize("name", sorted(ORACLE_ATTACKS))
    def test_unused_cells_never_reach_an_output(self, name):
        # Bob's X preparations, Alice's Z reflections and her X collapses
        # only ever land in other_counts.  Which of the other cells they
        # land in is not an output.
        # Bob's reflect column is used: it keeps him from reading 1.
        bob, alice = simulate._chunk_thresholds(attack.statistics(ORACLE_ATTACKS[name]))
        bob_used = np.zeros((4, 3), dtype=bool)
        bob_used[:, 0] = True
        bob_used[:2, 1] = True
        alice_used = np.zeros((4, 3), dtype=bool)
        alice_used[:2, 1:] = True
        alice_used[2:, 0] = True
        rng = np.random.default_rng(2024)
        noisy_bob, noisy_alice = (
            np.where(used, table, rng.integers(0, 2 ** 53, size=(4, 3), dtype=np.uint64,
                                               endpoint=True))
            for used, table in ((bob_used, bob), (alice_used, alice)))
        size = simulate.CHUNK_SIZE
        for chunk in range(2):
            got, want = (chunk_tally(simulate._simulate_chunk(b, a, size, 12345, chunk), size)
                for b, a in ((noisy_bob, noisy_alice), (bob, alice)))
            assert np.array_equal(got.z_counts, want.z_counts)
            assert np.array_equal(got.x_reflect_counts, want.x_reflect_counts)
            assert got.other_counts == want.other_counts

    def test_one_chunk_run_allocates_little(self):
        # The chunk holds at most 2n raw words and n thresholds at once
        # (about 420 KiB in all) and builds prep, cell and event code in one
        # uint8 array; the old chunk's dozen 128 KiB temporaries peaked at
        # about 1 MiB.
        stats = attack.statistics(attack.symmetric_realizing_attack(0.05, 0.05))
        simulate.run_protocol(stats, simulate.CHUNK_SIZE, 3)
        tracemalloc.start()
        try:
            simulate.run_protocol(stats, simulate.CHUNK_SIZE, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 640 * 1024

    def test_validate_plan_holds_no_seed_lists(self):
        # The plan of a 200 000-attack validate run holds one range of
        # positions per stack; the seeds are made by the thread that builds
        # the stack.  Seed lists made up front took about 34 MB, a list of
        # positions per stack 12.2 MB.
        tracemalloc.start()
        try:
            plan = list(cli._validate_stacks([1, 2, 4, 32], 200_000, 0, False))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(plan) == 12894
        assert held < 8 * 10 ** 6

    @pytest.mark.parametrize("iterations", [1000, 200_000, 1_000_000],
                             ids=["1-chunk", "13-chunks", "62-chunks"])
    def test_tallies_independent_of_cpu_count(self, monkeypatch, iterations):
        # Five threads on a shortened switch interval interleave their pulls
        # more finely than the cores alone would.
        stats = attack.statistics(attack.random_attack(4, 77))
        want = serial_tally(stats, iterations, 12345)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 5):
                monkeypatch.setattr(simulate, "_workers", lambda: workers)
                assert_same_tally(simulate.run_protocol(stats, iterations, 12345), want, workers)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_slow_thread_does_not_hold_back_the_run(self, monkeypatch, workers):
        # Chunk 0, the first any thread takes, blocks until every other chunk
        # has finished, so the other threads must pull all of them.  Chunks
        # dealt out in fixed shares would leave the rest of chunk 0's share
        # undone, and the wait would time out.
        stats = attack.statistics(attack.random_attack(4, 77))
        want = serial_tally(stats, 1_000_000, 12345)
        n_chunks = -(-1_000_000 // simulate.CHUNK_SIZE)
        finished, lock = [], threading.Lock()
        others_done = threading.Event()
        simulate_chunk = simulate._simulate_chunk

        def slow(*args):
            if args[4] == 0:
                assert others_done.wait(timeout=10)
                return simulate_chunk(*args)
            counts = simulate_chunk(*args)
            with lock:
                finished.append(args[4])
                if len(finished) == n_chunks - 1:
                    others_done.set()
            return counts

        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        monkeypatch.setattr(simulate, "_simulate_chunk", slow)
        tally = simulate.run_protocol(stats, 1_000_000, 12345)
        assert sorted(finished) == list(range(1, n_chunks))
        assert_same_tally(tally, want, workers)

    def test_run_starts_one_thread_fewer_than_it_pulls_on(self, monkeypatch):
        # The calling thread pulls chunks too: min(workers, chunks) - 1 pool
        # threads, none on one CPU or for one chunk.
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        for workers, iterations, want in ((1, 1_000_000, 0), (5, simulate.CHUNK_SIZE, 0),
                                          (2, 1_000_000, 1), (5, 1_000_000, 4)):
            monkeypatch.setattr(simulate, "_workers", lambda: workers)
            started.clear()
            run(attack.identity_attack(), iterations, seed=1)
            assert len(started) == want, (workers, iterations, started)

    def test_interrupt_ends_the_pool_threads(self, monkeypatch):
        # The calling thread is interrupted while the pool's one thread is
        # inside an item, which it leaves only once the pool is being shut
        # down.  The interrupt propagates, the pool thread pulls no further
        # item, and it has ended when the call returns.
        caller = threading.current_thread()
        inside, shutting_down = threading.Event(), threading.Event()
        pooled, waited = [], []

        class Pool(ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                shutting_down.set()
                super().shutdown(*args, **kwargs)

        def work(pull):
            for item in pull:
                if threading.current_thread() is caller:
                    assert inside.wait(timeout=10)
                    raise KeyboardInterrupt
                pooled.append(item)
                inside.set()
                waited.append(shutting_down.wait(timeout=10))

        monkeypatch.setattr(simulate, "_workers", lambda: 2)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Pool)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            simulate._pull_on_every_cpu(work, range(10))
        assert len(pooled) == 1 and waited == [True], (pooled, waited)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers,where", [(1, "caller"), (2, "caller"), (2, "pool")],
                             ids=["1-caller", "2-caller", "2-pool"])
    def test_error_in_a_chunk_ends_the_run(self, tmp_path, monkeypatch, capsys,
                                           workers, where):
        # The failing thread, the caller or the pool's one thread, raises in
        # the first chunk from 31 on that it takes, once the other thread is
        # held in a chunk it began before the failure.  The run raises that
        # error, the other thread begins at most one chunk after it, and the
        # pool's threads are gone when the run returns.
        caller = threading.current_thread()
        taken = []  # (chunk, on the failing thread, had the failure happened)
        held, failed = threading.Event(), threading.Event()
        simulate_chunk = simulate._simulate_chunk

        def failing(*args):
            mine = (threading.current_thread() is caller) == (where == "caller")
            taken.append((args[4], mine, failed.is_set()))
            if mine and args[4] >= 31:
                if workers > 1:
                    assert held.wait(timeout=10)
                failed.set()
                raise ValueError("boom")
            if not mine:
                held.set()
                assert failed.wait(timeout=10)
            return simulate_chunk(*args)

        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        monkeypatch.setattr(simulate, "_simulate_chunk", failing)
        stats = attack.statistics(attack.identity_attack())
        threads = threading.active_count()
        with pytest.raises(ValueError, match="boom"):
            simulate.run_protocol(stats, 1_000_000)
        assert threading.active_count() == threads
        # On one thread: chunks 0 to 31, the last failing.  On two: one chunk
        # of the other thread's before the failure, at most one after, and
        # none of the failing thread's after.
        others = [late for _, mine, late in taken if not mine]
        assert others.count(False) == workers - 1, taken
        assert others.count(True) <= 1, taken
        assert not any(late for _, mine, late in taken if mine), taken
        if workers == 1:
            assert [c for c, _, _ in taken] == list(range(32)), taken
        failed.clear()
        assert cli.main(["simulate", "--attack", "identity", "--iterations", "1000000",
                         "--out", str(tmp_path / "unused.txt")]) == 1
        assert capsys.readouterr() == ("", "error: boom\n")
        assert threading.active_count() == threads

    def test_stack_of_statistics_rejected(self):
        stats = attack.statistics(attack.random_attacks(1, [[1, 0], [1, 1]]))
        with pytest.raises(ValueError, match=r"takes one member, not a stack \(2,\)"):
            simulate.run_protocol(stats, 10)

    # Statistics that fail validation, so each config error below is shown
    # to be raised before the statistics are checked.
    BAD_STATS = keyrate.ChannelStatistics(p=np.zeros((2, 2, 2)), p_pm=0.0, p_mp=0.0)

    def test_config_validation(self):
        for iterations, seed, message in [(0, 0, "iterations must be positive"),
                                          (10, -1, "seed must fit in 64 unsigned bits"),
                                          (10, 2 ** 64, "seed must fit in 64 unsigned bits"),
                                          (2 ** 63, 0, "iterations must be below 2**63")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                simulate.run_protocol(self.BAD_STATS, iterations, seed)

    @pytest.mark.parametrize("field,value", [
        ("iterations", 2.5), ("iterations", True), ("iterations", "10"),
        ("seed", 1.5), ("seed", False)])
    def test_config_rejects_non_integers_by_name(self, field, value):
        kwargs = {"iterations": 10, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            simulate.run_protocol(self.BAD_STATS, **kwargs)

    def test_config_accepts_numpy_integers(self):
        stats = attack.statistics(attack.identity_attack())
        tally = simulate.run_protocol(stats, np.int64(10), np.uint64(2 ** 63))
        assert tally.total == 10


class TestEstimateStatistics:
    def test_identity_tallies_are_noiseless(self):
        tally = run(attack.identity_attack(), 50_000, seed=2)
        stats, err = simulate.estimate_statistics(tally)
        assert stats.p[0, 0, 0] == 1.0 and stats.p[1, 1, 1] == 1.0
        assert stats.p_pm == 0.0 and stats.p_mp == 0.0
        assert err.p[0, 0, 0] == 0.0 and err.p_pm == 0.0

    def test_hand_built_tally(self):
        z = np.zeros((2, 2, 2), dtype=np.int64)
        z[0, 0, 0] = 75
        z[0, 1, 1] = 25
        z[1, 1, 1] = 10
        x = np.array([[5, 0], [0, 5]], dtype=np.int64)
        tally = TallyCounts(z_counts=z, x_reflect_counts=x, other_counts=0,
                            total=120)
        stats, err = simulate.estimate_statistics(tally)
        assert stats.p[0, 0, 0] == pytest.approx(0.75)
        assert stats.p[0, 1, 1] == pytest.approx(0.25)
        assert stats.p[1, 1, 1] == 1.0
        assert err.p[0, 0, 0] == pytest.approx(np.sqrt(0.75 * 0.25 / 100))

    def test_empty_class_reported_by_name(self):
        z = np.zeros((2, 2, 2), dtype=np.int64)
        z[0, 0, 0] = 10
        z[1, 1, 1] = 10
        x = np.array([[5, 0], [0, 0]], dtype=np.int64)
        tally = TallyCounts(z_counts=z, x_reflect_counts=x, other_counts=0,
                            total=25)
        with pytest.raises(simulate.InsufficientDataError, match=r"\|->"):
            simulate.estimate_statistics(tally)

    def test_bound_from_estimates_tracks_analytic(self):
        atk = attack.random_attack(2, 31)
        tally = run(atk, 400_000, seed=6)
        stats, err = simulate.estimate_statistics(tally)
        got = keyrate.key_rate_bound(stats).rate
        want = keyrate.key_rate_bound(attack.statistics(atk)).rate
        # Crude propagation: the bound moves at most a few units per unit
        # of statistics error.
        budget = 10 * float(np.max(err.p))
        assert abs(got - want) <= budget


def z_tally(z_counts):
    """Tallies with the given Z counts and nothing else."""
    z = np.asarray(z_counts, dtype=np.int64)
    return TallyCounts(z_counts=z, x_reflect_counts=np.zeros((2, 2), dtype=np.int64),
                       other_counts=0, total=int(z.sum()))


class TestQber:
    def test_identical_and_complementary(self):
        # z_counts[i, j, k]: sent i, Bob's key bit j, Alice's key bit k.
        agree = np.zeros((2, 2, 2))
        agree[0, 0, 0], agree[0, 1, 1], agree[1, 1, 1] = 3, 1, 4
        disagree = np.zeros((2, 2, 2))
        disagree[0, 0, 1], disagree[1, 1, 0], disagree[1, 0, 1] = 2, 5, 1
        assert simulate.qber(z_tally(agree)) == 0.0
        assert simulate.qber(z_tally(disagree)) == 1.0
        assert simulate.qber(z_tally(agree + disagree)) == 8 / 16

    def test_empty_keys_rejected(self):
        empty = TallyCounts(z_counts=np.zeros((2, 2, 2), dtype=np.int64),
                            x_reflect_counts=np.ones((2, 2), dtype=np.int64),
                            other_counts=3, total=7)
        with pytest.raises(ValueError, match="empty sifted key"):
            simulate.qber(empty)

    def test_symmetric_attack_qber_is_reverse_noise(self):
        # Sifted key bits disagree exactly when the return pass flips, which is
        # the joint p(0,1) + p(1,0) of the product statistics.
        atk = attack.symmetric_realizing_attack(0.05, 0.05)
        tally = run(atk, 400_000, seed=9)
        s = attack.statistics(atk)
        expected = 0.5 * (s.p[0, 0, 1] + s.p[1, 0, 1]
                          + s.p[0, 1, 0] + s.p[1, 1, 0])
        assert expected == pytest.approx(0.05, abs=1e-12)
        se = np.sqrt(expected * (1 - expected) / tally.z_counts.sum())
        assert abs(simulate.qber(tally) - expected) <= 3 * se


class TestTallyCounts:
    def test_conservation_enforced(self):
        with pytest.raises(ValueError):
            TallyCounts(z_counts=np.ones((2, 2, 2), dtype=np.int64),
                        x_reflect_counts=np.zeros((2, 2), dtype=np.int64),
                        other_counts=0, total=5)
