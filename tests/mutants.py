"""Standing mutation check: each mutant plants one known fault in a copy of
the checkout, and the tests it names must catch it.

Usage: python tests/mutants.py [NAME ...]

The checkout is copied to a temporary directory once.  There, the named
tests must first pass as they are; then each mutant (all, or the ones
named) replaces its exact snippet in its ``src/igkeywords`` file, its
tests run with ``pytest -x``, and the file is restored.  A mutant is killed
when a test fails.  The check fails if a snippet does not occur exactly
once (the code moved, so the mutant must move with it) or a mutant
survives, unless it is marked as a known gap, which is reported instead.
Pytest does not collect this file.  The technique is mutation analysis
(DeMillo, Lipton & Sayward, "Hints on Test Data Selection", IEEE Computer,
1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/igkeywords
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids under tests/; one of them must fail
    known_gap: bool = False  # no test kills it yet


MUTANTS = (
    Mutant("adam-eps-unscaled", "model.py",
           "scratch += ADAM_EPS / c\n", "scratch += ADAM_EPS\n",
           ("test_batched_training.py::test_adam_matches_the_textbook_update",)),
    Mutant("filter-sort-reversed", "pipeline.py",
           "np.lexsort((-table.mean_score[rows], class_rank))",
           "np.lexsort((table.mean_score[rows], class_rank))",
           ("test_pipeline.py::TestFilterKeywords",)),
    Mutant("rounds-selected-counts-instances", "pipeline.py",
           "self.rounds_selected += counts > 0",
           "self.rounds_selected += counts",
           ("test_pipeline.py::TestAggregate",)),
    Mutant("sf-threshold-not-strict", "pipeline.py",
           "(table.selection_frequency > config.sf_threshold)",
           "(table.selection_frequency >= config.sf_threshold)",
           ("test_pipeline.py::TestFilterKeywords::test_strict_threshold_grid",)),
    Mutant("fold-classes-in-label-order", "pipeline.py",
           "by_name = np.argsort(np.array(classes, dtype=object))",
           "by_name = np.arange(len(classes))",
           ("test_pipeline.py::TestAggregate::test_fold_equals_reference_aggregate",)),
    Mutant("zero-norm-unguarded", "attribution.py",
           "    norms[norms == 0.0] = 1.0\n", "",
           ("test_batched_explain.py::test_all_zero_attributions_score_zero",)),
    Mutant("ranking-across-pairs", "attribution.py",
           "ranked = np.argsort(pair_first * n_ranks + dense",
           "ranked = np.argsort(dense",
           ("test_batched_explain.py::test_words_tied_by_a_shared_piece_rank_by_word",)),
    Mutant("no-pair-ranks-nothing-unguarded", "attribution.py",
           "int(dense.max(initial=-1))", "int(dense.max())",
           ("test_batched_explain.py::test_round_without_an_attributed_pair_selects_nothing",)),
    Mutant("split-ties-broken-by-index", "corpus.py",
           "left = [(rows.size, classes[lab], lab)",
           "left = [(rows.size, lab, lab)",
           ("test_corpus.py::TestSplitMatchesOracle",)),
    Mutant("aggregates-without-temporary-files", "rundir.py",
           '''    with atomic_write(os.path.join(out_dir, "aggregates.npz"),
                      binary=True) as npz, \\
            atomic_write(os.path.join(out_dir, "aggregates.json")) as js, \\
            atomic_write(os.path.join(out_dir, "aggregates.tsv")) as fh:''',
           '''    with open(os.path.join(out_dir, "aggregates.npz"), "wb") as npz, \\
            open(os.path.join(out_dir, "aggregates.json"), "w",
                 encoding="utf-8") as js, \\
            open(os.path.join(out_dir, "aggregates.tsv"), "w",
                 encoding="utf-8") as fh:''',
           ("test_pipeline.py::TestRunPipeline::test_failed_aggregate_write_keeps_the_previous_files",)),
    Mutant("aggregate-strings-unescaped", "rundir.py",
           "json_classes, json_words = (list(map(encode_basestring_ascii, strings))",
           "json_classes, json_words = ([f'\"{t}\"' for t in strings]",
           ("test_batched_explain.py::test_aggregate_files_escape_names_and_words",)),
    Mutant("aggregate-json-non-finite-as-repr", "rundir.py",
           """f'"mean_score": {_JSON_NON_FINITE.get(m, m)}, '""",
           """f'"mean_score": {m}, '""",
           ("test_batched_explain.py::test_aggregate_files_spell_non_finite_scores_like_json",)),
    Mutant("aggregate-separator-before-the-first-slice", "rundir.py",
           """js.write((", " if start else "") + ", ".join(""",
           """js.write(", " + ", ".join(""",
           ("test_batched_explain.py::test_dumps_are_byte_identical_to_json_dump",)),
    Mutant("report-skips-the-format-check", "rundir.py",
           "if type(found) is not int or found != FORMAT:", "if False:",
           ("test_cli.py::TestReport::test_report_refuses_another_format",)),
    Mutant("clearing-keeps-reports", "rundir.py",
           "or target in _AGGREGATE_FILES + REPORT_FILES",
           "or target in _AGGREGATE_FILES",
           ("test_pipeline.py::TestRunPipeline::test_a_run_removes_an_earlier_runs_files",)),
    Mutant("clearing-keeps-temporary-files", "rundir.py",
           'temporary = name.startswith(".") and name.endswith(".tmp")',
           "temporary = False",
           ("test_pipeline.py::TestRunPipeline::test_a_run_removes_an_earlier_runs_files",)),
    Mutant("round-reader-takes-any-round-index", "rundir.py",
           "if rr.round_index != round_index:", "if False:",
           ("test_cli.py::TestReport::test_malformed_run_artifact_exit_code",)),
    Mutant("typed-field-rule-takes-a-bool-for-an-int", "rundir.py",
           "if type(value) is not saved and",
           "if not isinstance(value, saved) and",
           ("test_cli.py::TestReport::test_wrongly_typed_field_exit_code",)),
    Mutant("pool-not-capped-at-the-rounds", "pipeline.py",
           "workers = min(config.workers, config.rounds)",
           "workers = config.workers",
           ("test_pipeline.py::TestRunPipeline::test_the_pool_has_no_more_workers_than_rounds",)),
    Mutant("empty-class-name-accepted", "corpus.py",
           "if not name or not {", "if not {",
           ("test_cli.py::TestRun::test_class_name_that_breaks_a_tsv_row_exit_code",)),
    # A known gap: it changes only the rounding of the pooled vectors,
    # which no test pins.
    Mutant("pooling-by-reduceat", "model.py",
           "    pooled = np.matmul(bag, embedding[used], out=out)\n",
           """    pooled = np.add.reduceat(embedding[model_rows],
                             np.cumsum(counts) - counts, axis=0)
    if out is not None:
        out[...], pooled = pooled, out
""",
           ("test_batched_training.py", "test_model.py::TestPoolDocuments"),
           known_gap=True),
    Mutant("adam-divides-before-alpha", "model.py",
           """                np.multiply(m_scaled, alpha, out=update)
                update /= scratch
""",
           """                np.divide(m_scaled, scratch, out=update)
                update *= alpha
""",
           ("test_model.py::TestTrain::test_overflowing_last_update_raises",)),
    Mutant("lowercased-word-by-word", "corpus.py",
           "found = _WORD_RE.findall(text.lower())",
           "found = [w.lower() for w in _WORD_RE.findall(text)]",
           ("test_corpus.py::TestTokenize::test_text_is_lowercased_whole",)),
    Mutant("split-demand-not-updated", "corpus.py",
           "            demand[lab][split] -= 1\n", "            pass\n",
           ("test_corpus.py::TestSplitMatchesOracle",)),
    Mutant("path-mean-gradient-class-mix-up", "model.py",
           "slopes *= params.output_weights.T[class_index]",
           "slopes *= params.output_weights.T[np.asarray(class_index).flat[0]]",
           ("test_model.py::TestPathMean",)),
    Mutant("embedding-dim-option-not-renamed", "cli.py",
           '_RENAMED = {"d": "--embedding-dim", "h": "--hidden-dim"}',
           '_RENAMED = {"h": "--hidden-dim"}',
           ("test_cli.py::TestParse::test_options_are_the_scalar_fields",)),
    Mutant("run-directory-before-document-check", "rundir.py",
           "    model._positions(corpus, np.arange(len(corpus)))\n", "",
           ("test_cli.py::TestRun::test_document_without_subwords_leaves_no_run_directory",)),
    Mutant("directory-path-is-a-runtime-failure", "cli.py",
           "            IsADirectoryError, NotADirectoryError) as exc:",
           "            NotADirectoryError) as exc:",
           ("test_cli.py::TestUsageErrors::test_path_that_is_a_directory_exit_code",)),
    Mutant("markers-of-any-class-accepted", "corpus.py",
           "if not markers.keys() <= set(classes):", "if False:",
           ("test_cli.py::TestRun::test_markers_of_an_unknown_class_leave_no_run_directory",
            "test_cli.py::TestReport::test_wrongly_typed_field_exit_code")),
    Mutant("run-directory-before-marker-check", "rundir.py",
           "        marker_sets(saved[\"markers\"], classes)", "        pass",
           ("test_pipeline.py::TestRunPipeline::test_markers_of_an_unknown_class_make_no_run_directory",)),
    Mutant("config-file-sets-a-required-option", "cli.py",
           "                if not action.required} & vars(args).keys()",
           "                } & vars(args).keys()",
           ("test_cli.py::TestRun::test_config_key_for_the_corpus_exit_code",
            "test_cli.py::TestSynth::test_config_key_for_the_output_exit_code")),
    Mutant("directory-refused-only-when-replaced", "fileio.py",
           "    if os.path.isdir(path):\n", "    if False:\n",
           ("test_cli.py::TestSynth::test_directory_destination_writes_neither_file",)),
)


def pytest(copy: str, tests) -> subprocess.CompletedProcess:
    """The named tests, run in ``copy`` against its ``src/``; no bytecode is
    written, so a restored file is never read from a stale cache."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(os.path.join("tests", test) for test in tests)], cwd=copy,
        env=env, capture_output=True, text=True, check=False)


def check(copy: str, mutant: Mutant) -> str | None:
    """Apply ``mutant`` in ``copy``, run its tests and restore the file;
    the problem, or None if the mutant was killed or is a known gap."""
    path = os.path.join(copy, "src", "igkeywords", mutant.file)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    if original.count(mutant.snippet) != 1:
        return (f"its snippet occurs {original.count(mutant.snippet)} times "
                f"in {mutant.file}, not once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original.replace(mutant.snippet, mutant.replacement))
    try:
        done = pytest(copy, mutant.tests)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)
    if done.returncode == 1 and not mutant.known_gap:
        return None
    if done.returncode == 0 and mutant.known_gap:
        print(f"{mutant.name}: survived (known gap)")
        return None
    if done.returncode in (0, 1):
        return ("survived" if done.returncode == 0 else
                "killed: drop its known_gap mark and its FOUND line")
    return f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}"


def main(argv) -> int:
    mutants = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        copy = os.path.join(scratch, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_work", "__pycache__", ".pytest_cache",
            ".hypothesis", ".benchmarks", "*.egg-info"))
        tests = sorted({t for m in mutants for t in m.tests})
        done = pytest(copy, tests)
        if done.returncode != 0:
            print(f"the named tests do not pass unmutated:\n{done.stdout}"
                  f"{done.stderr}", file=sys.stderr)
            return 1
        failed = 0
        for mutant in mutants:
            problem = check(copy, mutant)
            if problem:
                failed += 1
                print(f"{mutant.name}: {problem}", file=sys.stderr)
            elif not mutant.known_gap:
                print(f"{mutant.name}: killed")
    print(f"{len(mutants) - failed} of {len(mutants)} mutants as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
