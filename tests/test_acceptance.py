"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import hashlib
import time

import numpy as np
import pytest

from sqkd import attack, cli, keyrate, linalg, simulate
from conftest import one_member_stacks, soundness_inputs
from oracles import rho_be, rho_bec
from test_linalg import random_density

# Published reference seed for the Monte Carlo convergence criterion.
MC_SEED = 12345
# sha256 of the stats file of `simulate --attack symmetric:0.05,0.05
# --iterations 200000 --seed 12345`.
STATS_DIGEST_200K = "910120b3c9174a15ca7e65dafe9c2f302b2a9f8aff2cfb1d31a7a54012791cad"
# sha256 of what the same run prints with `--out stats.txt` (the path is
# echoed); it exits 0.
STDOUT_DIGEST_200K = "9cfae6d5f25860f5ecdf9b9b422a7fde7a8eff487361d7527be5b63d4ca4668e"
# The same for two more attacks, so that a stream with exact 0 and 1 cells
# and one of a random d = 32 attack are pinned as well.
STATS_DIGESTS_200K = {
    "zmeasure": "27ba8e6f00e791f562ca47dbbad8520342cff02912ff53099484d0e79ca5126f",
    "random:32": "486cff0f05bedfc57190217e7ebcbeef6613264d5ac4e8a36f57fa75991f4486",
}
# What those two runs print with `--out stats.txt`, so that the sifted key
# length and the QBER of both streams are pinned too.
STDOUT_DIGESTS_200K = {
    "zmeasure": "922329e7cc29ef3831f5a6cf3beeb94886f012b5d858391c4476051851401671",
    "random:32": "572686bff65abdaa4d9096e7c8de37374cd15943e288e7b747d644a462ab36e0",
}
# Seed of the near-identity attacks of criterion 10.
NEAR_IDENTITY_SEED = 271828

# Threshold table, percent: rows Qx = Q/2, Q, 2Q; columns equal, fwd-half,
# rev-half.  Tolerance 0.05 percentage points.
THRESHOLD_TABLE = {
    0.5: {"equal": 5.92, "fwd-half": 6.98, "rev-half": 8.96},
    1.0: {"equal": 5.34, "fwd-half": 6.16, "rev-half": 7.79},
    2.0: {"equal": 4.51, "fwd-half": 5.05, "rev-half": 6.25},
}


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_threshold_table():
    start = time.perf_counter()
    worst = 0.0
    for ratio, row in THRESHOLD_TABLE.items():
        for scenario, expected_pct in row.items():
            got = 100.0 * keyrate.noise_threshold(scenario, ratio)
            worst = max(worst, abs(got - expected_pct))
    elapsed = time.perf_counter() - start
    report(1, worst <= 0.05 and elapsed < 10.0,
           f"worst deviation {worst:.4f} pp, {elapsed:.2f}s")


def test_criterion_2_noiseless_rate():
    rate = keyrate.key_rate_bound(
        keyrate.symmetric_stats(keyrate.ScenarioParams(0.0, 0.0, 0.0))).rate
    report(2, abs(rate - 1.0) <= 1e-12, f"rate {rate!r}")


def test_criterion_3_soundness(attack_pool):
    # The pool's ancilla dimensions cycle 1, 2, 4; the audit that validate
    # runs checks every attack, and a run that checks none cannot pass.
    start = time.perf_counter()
    checked, _, worst_slack, failures = attack.audit(one_member_stacks(attack_pool))
    elapsed = time.perf_counter() - start
    ok = checked == len(attack_pool) and not failures and np.isfinite(worst_slack)
    report(3, ok and elapsed < 60.0,
           f"{checked} attacks, 0 violations expected, got "
           f"{len(failures)}; min slack {worst_slack:.3e}; {elapsed:.1f}s")


def test_criterion_4_block_entropy_equivalence(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        dims = rng.integers(1, 9, size=n)
        weights = rng.random(n)
        weights /= weights.sum()
        blocks = [random_density(int(d), rng) for d in dims]
        full = np.zeros((dims.sum(), dims.sum()), dtype=complex)
        stack = np.zeros((n, dims.max(), dims.max()), dtype=complex)
        at = 0
        for j, (w, blk, d) in enumerate(zip(weights, blocks, dims)):
            full[at:at + d, at:at + d] = w * blk
            stack[j, :d, :d] = w * blk
            at += d
        diff = abs(linalg.von_neumann_entropy(stack)
                   - linalg.von_neumann_entropy(full))
        worst = max(worst, diff)
    report(4, worst <= 1e-9, f"1000 instances, worst deviation {worst:.3e}")


def test_criterion_5_sigma1_closed_form(attack_pool):
    worst = 0.0
    for atk in attack_pool[:200]:
        e000, e131 = atk.records[0, 0, 0], atk.records[1, 1, 1]
        sigma1 = np.outer(e000, e000.conj()) + np.outer(e131, e131.conj())
        t1 = np.trace(sigma1).real
        numeric = linalg.hermitian_eigenvalues(sigma1 / t1)
        numeric = np.concatenate([numeric, [0.0, 0.0]])[:2]
        p000 = float(np.vdot(e000, e000).real)
        p111 = float(np.vdot(e131, e131).real)
        overlap_sq = abs(np.vdot(e000, e131)) ** 2
        lam_plus = keyrate.lambda_tilde(p000, p111, overlap_sq)
        worst = max(worst, abs(numeric[0] - lam_plus),
                    abs(numeric[1] - (1.0 - lam_plus)))
    report(5, worst <= 1e-9, f"200 attacks, worst deviation {worst:.3e}")


def test_criterion_6_x_bound_soundness(attack_pool):
    worst = np.inf
    for atk in attack_pool:
        b = keyrate.key_rate_bound(attack.statistics(atk)).b
        overlap = np.vdot(atk.records[0, 0, 0], atk.records[1, 1, 1])
        worst = min(worst, overlap.real - b)
    report(6, worst >= -1e-9,
           f"{len(attack_pool)} attacks, min Re(overlap) - B = {worst:.3e}")


def test_criterion_7_monte_carlo_convergence(tmp_path):
    atk = attack.symmetric_realizing_attack(0.05, 0.05)
    out1, out2 = tmp_path / "mc1.txt", tmp_path / "mc2.txt"
    for out in (out1, out2):
        code = cli.main(["simulate", "--attack", "symmetric:0.05,0.05",
                         "--iterations", "1000000", "--seed", str(MC_SEED),
                         "--workers", "2", "--out", str(out)])
        assert code == 0
    identical = out1.read_bytes() == out2.read_bytes()

    tally = simulate.run_protocol(
        attack.statistics(atk), simulate.ProtocolConfig(iterations=1_000_000, seed=MC_SEED))
    stats, _ = simulate.estimate_statistics(tally)
    file_stats = cli.parse_stats_file(str(out1))
    assert np.array_equal(stats.p, file_stats.p)

    analytic = attack.statistics(atk)
    n_z = tally.z_counts.reshape(2, 4).sum(axis=1)
    n_x = tally.x_reflect_counts.sum(axis=1)
    worst_z = 0.0
    within = True
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                p = analytic.p[i, j, k]
                se = np.sqrt(p * (1.0 - p) / n_z[i])
                diff = abs(stats.p[i, j, k] - p)
                within &= diff <= 3.0 * se if se > 0 else diff == 0.0
                if se > 0:
                    worst_z = max(worst_z, diff / se)
    for emp, ana, n in ((stats.p_pm, analytic.p_pm, n_x[0]),
                        (stats.p_mp, analytic.p_mp, n_x[1])):
        se = np.sqrt(ana * (1.0 - ana) / n)
        diff = abs(emp - ana)
        within &= diff <= 3.0 * se if se > 0 else diff == 0.0
    report(7, identical and within,
           f"seed {MC_SEED}: byte-identical={identical}, worst |z|={worst_z:.2f}")


# The 13 chunks of a 200000-iteration run are pulled by one thread or two;
# the digests must not move.
WORKERS = (1, 2)


def test_criterion_7_stats_file_matches_recorded_digest(tmp_path, monkeypatch):
    # Criterion 7 compares two runs of the same code, so a change to a
    # draw's dtype or order would pass it; this digest was recorded once and
    # changes only when the sampled stream does.
    out = tmp_path / "mc.txt"
    for workers in WORKERS:
        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        assert cli.main(["simulate", "--attack", "symmetric:0.05,0.05",
                         "--iterations", "200000", "--seed", str(MC_SEED),
                         "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        report(7, digest == STATS_DIGEST_200K,
               f"seed {MC_SEED}, 200000 iterations, {workers} worker(s): "
               f"stats file sha256 {digest}")


def test_criterion_7_stdout_matches_recorded_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = {}   # workers -> (exit code, stdout sha256), read before report prints
    for workers in WORKERS:
        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        code = cli.main(["simulate", "--attack", "symmetric:0.05,0.05",
                         "--iterations", "200000", "--seed", str(MC_SEED),
                         "--out", "stats.txt"])
        runs[workers] = code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    report(7, set(runs.values()) == {(0, STDOUT_DIGEST_200K)},
           f"seed {MC_SEED}, 200000 iterations: exit and stdout sha256 by workers {runs}")


@pytest.mark.parametrize("spec", sorted(STATS_DIGESTS_200K))
def test_criterion_7_more_streams_match_recorded_digests(tmp_path, monkeypatch, spec):
    out = tmp_path / "mc.txt"
    for workers in WORKERS:
        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        assert cli.main(["simulate", "--attack", spec, "--iterations", "200000",
                         "--seed", str(MC_SEED), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        report(7, digest == STATS_DIGESTS_200K[spec],
               f"{spec}, seed {MC_SEED}, 200000 iterations, {workers} worker(s): "
               f"stats file sha256 {digest}")


@pytest.mark.parametrize("spec", sorted(STDOUT_DIGESTS_200K))
def test_criterion_7_more_stdouts_match_recorded_digests(tmp_path, monkeypatch, capsys,
                                                         spec):
    monkeypatch.chdir(tmp_path)
    runs = {}   # workers -> (exit code, stdout sha256), read before report prints
    for workers in WORKERS:
        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        code = cli.main(["simulate", "--attack", spec, "--iterations", "200000",
                         "--seed", str(MC_SEED), "--out", "stats.txt"])
        runs[workers] = code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    report(7, set(runs.values()) == {(0, STDOUT_DIGESTS_200K[spec])},
           f"{spec}, seed {MC_SEED}, 200000 iterations: exit and stdout sha256 by "
           f"workers {runs}")


def test_criterion_8_unitarity_and_state_hygiene(attack_pool):
    worst_residual = 0.0
    worst_eig = 0.0
    worst_trace = 0.0
    for atk in attack_pool:
        worst_residual = max(worst_residual,
                             max(attack.unitarity_residuals(atk).values()))
        d = atk.ancilla_dim
        for rho in (rho_be(atk), rho_bec(atk).reshape(8, d, d)):
            lam = linalg.hermitian_eigenvalues(rho)
            worst_eig = min(worst_eig, float(lam.min()))
            worst_trace = max(worst_trace, abs(float(lam.sum()) - 1.0))
    ok = worst_residual <= 1e-9 and worst_eig >= -1e-10 and worst_trace <= 1e-10
    report(8, ok, f"{len(attack_pool)} attacks: max identity residual "
                  f"{worst_residual:.2e}, min eigenvalue {worst_eig:.2e}, "
                  f"max trace deviation {worst_trace:.2e}")


def test_criterion_9_figure_curves(tmp_path):
    grid_step = 0.001
    steps = 101  # covers [0, 0.1] with the grid step above
    ok = True
    details = []
    for ratio in (0.5, 1.0, 2.0):
        out = tmp_path / f"curve_{ratio}.csv"
        code = cli.main(["sweep", "--scenario", "equal",
                         "--qx-ratio", str(ratio), "--qmax", "0.1",
                         "--steps", str(steps), "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        qs = [float(q) for q, _ in rows]
        rates = [float(r) for _, r in rows]
        threshold = THRESHOLD_TABLE[ratio]["equal"] / 100.0
        pre = [r for q, r in zip(qs, rates) if q <= threshold]
        monotone = all(a >= b - 1e-12 for a, b in zip(pre, pre[1:]))
        crossings = [qs[i] for i in range(len(rates) - 1)
                     if rates[i] > 0 >= rates[i + 1]]
        bracket_ok = (len(crossings) == 1
                      and abs(crossings[0] - threshold) <= grid_step)
        ok &= monotone and bracket_ok
        details.append(f"ratio {ratio}: crossing {crossings[0]:.3f} "
                       f"vs {threshold:.4f}, monotone={monotone}")
    report(9, ok, "; ".join(details))


def near_identity_unitary(dim, eps, rng):
    """exp(i eps H) for a random Hermitian H of unit operator norm."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    lam, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    lam /= np.abs(lam).max()
    return (v * np.exp(1j * eps * lam)) @ v.conj().T


def test_criterion_10_soundness_where_bound_is_positive():
    # Haar attacks almost never give a positive bound; attacks close to the
    # identity do, and there the bound must still stay below the exact rate.
    start = time.perf_counter()
    attacks = []
    for e_idx, eps in enumerate((0.02, 0.05)):
        for d in (1, 2, 4, 32):
            for idx in range(50):
                rng = np.random.default_rng([NEAR_IDENTITY_SEED, e_idx, d, idx])
                attacks.append(attack.validate_attack(near_identity_unitary(2 * d, eps, rng),
                                                      near_identity_unitary(2 * d, eps, rng), d))
    checked, _, worst_slack, failures = attack.audit(one_member_stacks(attacks))
    count = len(attacks)
    stats, _ = soundness_inputs(attacks)
    positive = int(np.count_nonzero(keyrate.key_rate_bound(stats).rate > 0.0))
    elapsed = time.perf_counter() - start
    ok = checked == count and not failures and np.isfinite(worst_slack)
    report(10, ok and positive == count,
           f"{count} near-identity attacks (eps 0.02, 0.05; d = 1, 2, 4, 32): "
           f"{positive} positive bounds, {len(failures)} violations, "
           f"min slack {worst_slack:.3e}; {elapsed:.1f}s")
