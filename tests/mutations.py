"""Mutation checks: each listed test still fails on a known-bad program.

    python3 tests/mutations.py [NAME ...]

Every entry below is one text replacement in one source file, whose old
text must occur exactly once there.  For each entry (or each one named on
the command line) the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a fresh temporary directory, applies the
replacement to the copy and runs ``pytest -x`` on the entry's test files.
The mutation is caught when those tests fail and the entry's expected test
is among the failures (run alone if ``-x`` stopped at another one).  Exit
status 1 if any mutation is not caught, 2 if an entry no longer applies.

The file name keeps it out of the test suite, which only checks that each
old text occurs once and that each expected test is defined
(``test_mutations.py``); all entries take about 100 s on two CPUs.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    path: str           # source file, relative to the repository root
    old: str            # text that occurs exactly once in it
    new: str
    tests: tuple        # test files pytest -x runs
    expect: str         # test id that must fail


MUTATIONS = [
    Mutation("thresholds-floor", "src/sqkd/simulate.py",
             "np.ceil(np.ldexp(", "np.floor(np.ldexp(",
             ("tests/test_properties.py",),
             "tests/test_properties.py::test_word_threshold_decides_as_the_uniform"),
    Mutation("bob-reflect-column-nonzero", "src/sqkd/simulate.py",
             "    bob[:2, 1] = p[:, 1]",
             "    bob[:, 0] = 2.0 ** -4\n    bob[:2, 1] = p[:, 1]",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::"
             "test_chunks_match_born_rule_oracle[identity]"),
    Mutation("half-threshold-2-62", "src/sqkd/simulate.py",
             "_HALF = _thresholds(0.5) << 11", "_HALF = _thresholds(0.5) << 10",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::"
             "test_chunks_match_born_rule_oracle[identity]"),
    Mutation("alice-where-dropped", "src/sqkd/simulate.py",
             "out=alice[:2, 1:], where=branch > 0.0)", "out=alice[:2, 1:])",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::"
             "test_unreachable_collapse_is_finite_and_silent"),
    Mutation("alice-collapses-swapped", "src/sqkd/simulate.py",
             "out=alice[:2, 1:], where", "out=alice[:2, :0:-1], where",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::"
             "test_chunks_match_born_rule_oracle[haar-d1]"),
    Mutation("bob-lookup-one-cell-right", "src/sqkd/simulate.py",
             "bob_t = bob.take(cell, ", "bob_t = bob.take(cell + 1, ",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::"
             "test_unused_cells_never_reach_an_output[haar-d1]"),
    Mutation("pulled-chunks-all-full", "src/sqkd/simulate.py",
             "min(CHUNK_SIZE, iterations - c * CHUNK_SIZE)", "CHUNK_SIZE",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::"
             "test_tallies_independent_of_cpu_count[13-chunks]"),
    Mutation("run-protocol-takes-bools", "src/sqkd/simulate.py",
             "if isinstance(v, bool) or not", "if not",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::"
             "test_config_rejects_non_integers_by_name[iterations-True]"),
    Mutation("x-tallies-wrong-branch", "src/sqkd/simulate.py",
             "z, x = counts[:2, 1:], counts[2:, 0]", "z, x = counts[:2, 1:], counts[2:, 1]",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::test_identity_attack_has_no_errors"),
    Mutation("qber-counts-agreement", "src/sqkd/simulate.py",
             "(z[:, 0, 1].sum() + z[:, 1, 0].sum())", "(z[:, 0, 0].sum() + z[:, 1, 1].sum())",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestQber::test_identical_and_complementary"),
    Mutation("qber-drops-cell-1-0", "src/sqkd/simulate.py",
             "(z[:, 0, 1].sum() + z[:, 1, 0].sum())", "z[:, 0, 1].sum()",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestQber::test_identical_and_complementary"),
    Mutation("pull-without-stop-check", "src/sqkd/simulate.py",
             "        while not stop.is_set():\n", "        while True:\n",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::"
             "test_error_in_a_chunk_ends_the_run[2-caller]"),
    Mutation("failing-pool-thread-sets-no-stop", "src/sqkd/simulate.py",
             "        except BaseException:\n            stop.set()\n",
             "        except BaseException:\n",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::"
             "test_error_in_a_chunk_ends_the_run[2-pool]"),
    Mutation("caller-sets-no-stop", "src/sqkd/simulate.py",
             "        finally:\n            stop.set()\n", "        finally:\n            pass\n",
             ("tests/test_simulate.py",),
             "tests/test_simulate.py::TestRunProtocol::test_interrupt_ends_the_pool_threads"),
    Mutation("hermitian-check-passes-nan", "src/sqkd/linalg.py",
             "if not np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= HERMITIAN_TOL:",
             "if np.max(np.abs(m - m.conj().swapaxes(-1, -2))) > HERMITIAN_TOL:",
             ("tests/test_linalg.py",),
             "tests/test_linalg.py::TestHermitianEigenvalues::test_rejects_non_hermitian"),
    Mutation("unitaries-writable", "src/sqkd/attack.py",
             "            u.setflags(write=False)\n", "",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestConstruction::"
             "test_unitaries_are_read_only_complex_copies"),
    Mutation("unitary-shape-unchecked", "src/sqkd/attack.py",
             "            if u.shape[-2:] != (2 * d, 2 * d):\n"
             "                raise ValueError(f\"{name} must have shape "
             "({2 * d}, {2 * d}), got {u.shape}\")\n", "",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestConstruction::"
             "test_structural_faults_raise_validate_attacks_messages[shape]"),
    Mutation("vector-fields-writable", "src/sqkd/attack.py",
             "            arr.setflags(write=False)\n", "",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestExtractVectors::test_vector_fields_are_read_only"),
    Mutation("kraus-trace-unchecked", "src/sqkd/attack.py",
             "    if not defect <= UNITARY_TOL:       # NaN fails too\n"
             "        raise ValueError(f\"{name} is not trace preserving: "
             "residual {defect}\")\n", "",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestChannelAttack::"
             "test_rejects_bad_kraus_list_by_name[kraus_fwd-not-trace-preserving]"),
    Mutation("kraus-ragged-list-unnamed", "src/sqkd/attack.py",
             "except ValueError as exc:           # a ragged list",
             "except () as exc:           # a ragged list",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestChannelAttack::"
             "test_rejects_bad_kraus_list_by_name[kraus_fwd-ragged]"),
    Mutation("kraus-transposed", "src/sqkd/attack.py",
             "k.transpose(1, 0, 2)", "k.transpose(2, 0, 1)",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestChannelAttack::test_amplitude_damping_statistics"),
    Mutation("return-pass-on-forward-register", "src/sqkd/attack.py",
             '"sabtac->asbtc"', '"sbatca->asbtc"',
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestChannelAttack::test_amplitude_damping_statistics"),
    Mutation("e-ijk-i-and-k-swapped", "src/sqkd/attack.py",
             '"...kaib,...jb->...ijka"', '"...kaib,...jb->...kjia"',
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestExtractVectors::"
             "test_identity_groups_hold_for_random_attacks"),
    Mutation("haar-seeds-reversed", "src/sqkd/attack.py",
             "for m, seed in enumerate(seeds):", "for m, seed in enumerate(seeds[::-1]):",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestStacks::test_stack_equals_members_built_alone[1]"),
    Mutation("haar-scale-sqrt-half", "src/sqkd/attack.py",
             "scale = 1.0 / np.sqrt(2.0)", "scale = np.sqrt(0.5)",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestStacks::test_unitaries_match_recorded_digest[1]"),
    Mutation("entropy-of-e-as-one-operator", "src/sqkd/attack.py",
             "linalg.von_neumann_entropy(g[..., None, :, :])",
             "linalg.von_neumann_entropy(g)",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestValidateCommand::test_small_suite_passes"),
    Mutation("symmetric-q-up-to-one", "src/sqkd/keyrate.py",
             "(v <= 0.5)", "(v <= 1.0)",
             ("tests/test_keyrate.py",),
             "tests/test_keyrate.py::TestSymmetricStats::test_rejects_out_of_range"),
    Mutation("cross-term-dropped", "src/sqkd/keyrate.py",
             "        - np.sqrt(p[..., 0, 0, 0] * p[..., 1, 0, 1])\n", "",
             ("tests/test_keyrate.py",),
             "tests/test_keyrate.py::TestCrossOverlapLowerBound::test_symmetric_hand_evaluation"),
    Mutation("lambda-tilde-2-cal-b", "src/sqkd/keyrate.py",
             "+ 4.0 * cal_b)", "+ 2.0 * cal_b)",
             ("tests/test_keyrate.py",),
             "tests/test_keyrate.py::TestEntropyPieces::test_s_ec_upper_noiseless"),
    Mutation("s-ec-dominant-block-1", "src/sqkd/keyrate.py",
             "0.5 * t[..., 0] * binary_entropy(lam)", "0.5 * t[..., 1] * binary_entropy(lam)",
             ("tests/test_keyrate.py",),
             "tests/test_keyrate.py::TestEntropyPieces::test_s_ec_upper_unit_blocks"),
    Mutation("rate-h-b-given-a-added", "src/sqkd/keyrate.py",
             "entropy_bec - entropy_ec + h_a - h_ab", "entropy_bec - entropy_ec - h_a + h_ab",
             ("tests/test_keyrate.py",),
             "tests/test_keyrate.py::TestEntropyPieces::test_s_bec_uniform"),
    Mutation("stacked-rate-writable", "src/sqkd/keyrate.py",
             "rate=_floats(rate))", "rate=rate)",
             ("tests/test_keyrate.py",),
             "tests/test_keyrate.py::TestStacks::test_report_arrays_are_read_only"),
    Mutation("renormalize-swaps-block-sums", "src/sqkd/keyrate.py",
             "p = p / sums[..., None, None]", "p = p / sums[..., ::-1, None, None]",
             ("tests/test_keyrate.py",),
             "tests/test_keyrate.py::TestKeyRateBound::"
             "test_renormalize_equals_rescaling_by_hand[half-blocks]"),
    Mutation("validate-budget-4-mib", "src/sqkd/attack.py",
             "STACK_BYTES = 1 << 19", "STACK_BYTES = 1 << 22",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestStacks::"
             "test_validate_stacks_cover_every_attack_once[1,2,4,32]"),
    Mutation("validate-stacks-end-short", "src/sqkd/cli.py",
             "range(r + 2, attacks + 2, len(dims))", "range(r + 2, attacks + 1, len(dims))",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestStacks::"
             "test_validate_stacks_cover_every_attack_once[1,2,1,32]"),
    Mutation("validate-stacks-ignore-gram", "src/sqkd/cli.py",
             "max(2 * 16 * (2 * d_e) ** 2, 16 * 8 * 8)", "(2 * 16 * (2 * d_e) ** 2)",
             ("tests/test_attack.py",),
             "tests/test_attack.py::TestStacks::"
             "test_validate_stacks_fit_gram_matrices_in_the_budget"),
    Mutation("validate-soundness-off", "src/sqkd/attack.py",
             "~(report.rate <= exact + SOUNDNESS_TOL)", "~(report.rate <= exact + 1e9)",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestValidateCommand::test_bound_above_exact_rate_detected"),
    Mutation("validate-nan-rate-passes", "src/sqkd/attack.py",
             "~(report.rate <= exact + SOUNDNESS_TOL)", "report.rate > exact + SOUNDNESS_TOL",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestValidateCommand::test_nan_rate_fails_every_attack[bound]"),
    Mutation("validate-s-bec-check-off", "src/sqkd/attack.py",
             "~(mismatch <= SOUNDNESS_TOL)", "~(mismatch <= 1e9)",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestValidateCommand::test_s_bec_mismatch_detected"),
    Mutation("validate-worst-slack-drops-nan", "src/sqkd/attack.py",
             "float(np.min(slacks))", "float(min(slacks))",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestValidateCommand::test_nan_rate_fails_every_attack[bound]"),
    Mutation("validate-failures-unsorted", "src/sqkd/attack.py",
             "sorted(failures, key=lambda failure: failure[0])", "failures",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestValidateCommand::test_s_bec_mismatch_detected"),
    Mutation("validate-batch-budget-per-cpu", "src/sqkd/attack.py",
             ">= STACK_BYTES:", ">= STACK_BYTES // simulate._workers():",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestValidateCommand::test_batches_independent_of_cpu_count"),
    Mutation("audit-leftover-rows-unchecked", "src/sqkd/attack.py",
             "    if kept:\n        slacks +=", "    if False:\n        slacks +=",
             ("tests/test_acceptance.py",),
             "tests/test_acceptance.py::test_criterion_3_soundness"),
    Mutation("run-protocol-takes-huge-iterations", "src/sqkd/simulate.py",
             "if iterations >= 2 ** 63:", "if False:",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestErrorsReachMain::test_huge_count_named[simulate-iterations]"),
    Mutation("validate-takes-huge-attacks", "src/sqkd/cli.py",
             "if args.attacks > 2 ** 62:", "if False:",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestErrorsReachMain::test_huge_count_named[validate-attacks]"),
    Mutation("heap-memory-returned", "src/sqkd/cli.py",
             "    mallopt(_M_MMAP_THRESHOLD, 32 << 20)\n    mallopt(_M_TRIM_THRESHOLD, 64 << 20)\n",
             "",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestHeapMemoryKept::test_freed_memory_is_reused_after_main"),
    Mutation("simulate-negative-seed-to-numpy", "src/sqkd/cli.py",
             "    if args.seed < 0:\n        raise ValueError(\"seed must fit in 64 unsigned bits\")\n",
             "",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestSimulateCommand::test_negative_seed_named[random:4]"),
    Mutation("validate-random-name-shifted", "src/sqkd/cli.py",
             "[args.seed, pos - 2]", "[args.seed, pos - 1]",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestValidateCommand::test_bound_above_exact_rate_detected"),
    Mutation("memory-error-uncaught", "src/sqkd/cli.py",
             "except MemoryError as exc:", "except () as exc:",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestErrorsReachMain::test_failed_allocation[no-message]"),
    Mutation("stats-file-decode-error-uncaught", "src/sqkd/cli.py",
             "except UnicodeDecodeError:", "except UnicodeEncodeError:",
             ("tests/test_cli.py",),
             "tests/test_cli.py::TestStatsFile::test_text_not_utf8_named"),
]


def pytest(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *args], cwd=cwd, capture_output=True, text=True)


def failed_ids(output: str) -> list[str]:
    return [line[len("FAILED "):].split(" - ")[0] for line in output.splitlines()
            if line.startswith("FAILED ")]


def check(mutation: Mutation) -> bool:
    """Apply one mutation to a fresh copy and report whether it is caught."""
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="sqkd-mutation-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        target = copy / mutation.path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutation.old, mutation.new), encoding="utf-8")
        run = pytest(copy, "-x", *mutation.tests)
        failed = failed_ids(run.stdout)
        expected = mutation.expect in failed or (
            run.returncode == 1 and pytest(copy, mutation.expect).returncode == 1)
    caught = run.returncode == 1 and expected
    verdict = "caught" if caught else "NOT CAUGHT"
    first = failed[0] if failed else f"pytest exit {run.returncode}"
    print(f"{verdict:10} {mutation.name:34} {time.monotonic() - started:5.1f} s  "
          f"first failure: {first}", flush=True)
    if not caught and run.returncode not in (0, 1):
        print(run.stdout[-2000:] + run.stderr[-2000:])
    return caught


def main(names: list[str]) -> int:
    chosen = [m for m in MUTATIONS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"unknown mutations: {', '.join(sorted(unknown))}")
        return 2
    for m in chosen:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"{m.name}: its old text occurs {count} times in {m.path}, not once")
            return 2
    missed = [m.name for m in chosen if not check(m)]
    print(f"{len(chosen) - len(missed)} of {len(chosen)} mutations caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
