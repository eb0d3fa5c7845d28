"""Repeated-round keyword extraction.

Each round: stratified split -> train a fresh model -> predict on the
validation set -> attribute target (document, class) pairs with IG ->
keep the top-n words per document.  Rounds are aggregated into per-
(class, word) mean scores and selection frequencies, then filtered by
selection frequency and corpus document frequency.

The corpus is piece and word ids over sorted tables (``corpus.Corpus``).
A round works on rows of it and on ``model.piece_rows``, the model row of
every corpus piece.  Its explain half is array code over the validation
rows, and its selections are columns of indices into the corpus's tables.
``run_pipeline`` takes the rounds in round order and, as each finishes,
folds it into an ``AggregateFold``, writes its ``round_NNNN.json`` and
drops its selections: the ``RoundResult``s it returns carry metrics, not
selections.  Before round 0 it removes an earlier run's round artifacts,
aggregates and reports, so a run that stops part way leaves only its own
finished rounds.  The fold's ``Aggregates`` table holds class and word ids
into the corpus's tables; the filter keeps a subset of its rows, classes by
name and each by mean score.  ``PipelineConfig`` holds every setting of a
run, ``top_m``, the report tables' rows per class, among them.
``write_aggregates`` stores the columns in ``aggregates.npz``, which
``load_aggregates`` reads back for ``report``, and exports them as
``aggregates.json``/``.tsv``, which nothing in the program reads.  Every
file of a run directory is written atomically (``fileio.atomic_write``).
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import attribution, model, report
from .corpus import (Corpus, ValidationError, _is_string_list,
                     stratified_split)
from .fileio import atomic_write, malformed

SELECTION_TARGETS = ("true-positive", "false-positive", "false-negative")

#: rows per slice when writing the aggregate exports, so that neither
#: file's whole text is held in memory at once
DUMP_ROWS = 1024


@dataclass(frozen=True)
class PipelineConfig:
    ratio: float = 0.67          # train fraction r
    top_n: int = 20              # words kept per document
    top_m: int = 15              # keywords per class in the report tables
    rounds: int = 100            # repetitions N
    sf_threshold: float = 0.6    # selection-frequency threshold t (strict >)
    min_doc_frequency: int = 5   # document-frequency cutoff k (keep if df > k)
    selection_target: str = "true-positive"
    master_seed: int = 0
    train_config: model.TrainConfig = field(default_factory=model.TrainConfig)
    workers: int = 1
    dump_scores: bool = False

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValidationError("ratio must lie in (0, 1)")
        if min(self.top_n, self.top_m, self.rounds) < 1:
            raise ValidationError("top_n, top_m and rounds must be >= 1")
        if not 0.0 <= self.sf_threshold <= 1.0:
            raise ValidationError("sf_threshold must lie in [0, 1]")
        if self.min_doc_frequency < 0:
            raise ValidationError("min_doc_frequency must be >= 0")
        if self.selection_target not in SELECTION_TARGETS:
            raise ValidationError(
                f"selection_target must be one of {SELECTION_TARGETS}")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


@dataclass(eq=False)
class Selections:
    """A round's selected words as columns, in validation-document, class,
    rank order: indices into the label space, the run's word table and the
    corpus documents, with each word's score."""

    class_idx: np.ndarray
    word_idx: np.ndarray
    doc_idx: np.ndarray
    score: np.ndarray

    @classmethod
    def empty(cls) -> Selections:
        none = np.empty(0, dtype=np.intp)
        return cls(none, none, none, np.empty(0))

    def __len__(self) -> int:
        return self.score.size

    def dumped(self, corpus: Corpus) -> list[list]:
        """``[class, word, doc_id, score]`` per selection, as dumped."""
        classes, words, doc_ids = (corpus.label_space.classes, corpus.words,
                                   corpus.doc_ids)
        return [[classes[c], words[w], doc_ids[d], s]
                for c, w, d, s in zip(self.class_idx.tolist(),
                                      self.word_idx.tolist(),
                                      self.doc_idx.tolist(),
                                      self.score.tolist())]


@dataclass
class RoundResult:
    round_index: int
    # Empty once run_pipeline has folded the round, and in rounds read
    # back by load_round_artifacts.
    selections: Selections
    per_class: dict[str, dict[str, float]]  # precision/recall/f1/support
    micro_f1: float
    val_doc_count: int
    failed: bool = False


#: The numeric columns of Aggregates, by their dtype kind in aggregates.npz
_NUMERIC_KINDS = {"mean_score": "f", "selection_frequency": "f",
                  "rounds_selected": "i", "instance_count": "i",
                  "doc_frequency": "i"}


@dataclass(eq=False)
class Aggregates:
    """Per-(class, word) aggregates as columns, one row per pair in
    (class name, word) order: ids into the ``classes`` and ``words``
    tables (a run's label space and corpus words), float mean scores and
    selection frequencies, and integer counts."""

    class_idx: np.ndarray
    word_idx: np.ndarray
    mean_score: np.ndarray
    rounds_selected: np.ndarray
    selection_frequency: np.ndarray
    instance_count: np.ndarray
    doc_frequency: np.ndarray
    classes: Sequence[str]
    words: Sequence[str]

    def __len__(self) -> int:
        return self.mean_score.size

    def pairs(self) -> list[tuple[str, str]]:
        """The (class name, word) of each row."""
        return [(self.classes[c], self.words[w]) for c, w in
                zip(self.class_idx.tolist(), self.word_idx.tolist())]


def round_seeds(master_seed: int, round_index: int) -> tuple[int, int]:
    """Stable (split_seed, train_seed) derivation for one round."""
    ss = np.random.SeedSequence([master_seed & (2**64 - 1), round_index])
    split_seed, train_seed = ss.generate_state(2, dtype=np.uint64)
    return int(split_seed), int(train_seed)


def _f1_metrics(counts):
    tp, fp, fn = counts
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def run_round(corpus: Corpus, config: PipelineConfig,
              round_index: int) -> RoundResult:
    """One split/train/attribute/select round on rows of ``corpus``;
    failures are recorded, not raised."""
    if round_index >= config.rounds:
        raise ValidationError("round_index must be below the configured rounds")
    split_seed, train_seed = round_seeds(config.master_seed, round_index)
    train_rows, val_rows = stratified_split(corpus, config.ratio, split_seed)

    vocab = model.build_vocab(corpus, train_rows)
    train_cfg = replace(config.train_config, seed=train_seed)
    params = model.init_model(vocab, len(corpus.label_space), train_cfg)
    try:
        params = model.train(params, corpus, train_rows, train_cfg)
        selections, counts = _explain(params, corpus, val_rows, config)
    except (model.TrainingDivergedError, attribution.AttributionError) as exc:
        warnings.warn(f"round {round_index} failed: {exc}", stacklevel=2)
        return RoundResult(round_index=round_index,
                           selections=Selections.empty(), per_class={},
                           micro_f1=0.0, val_doc_count=len(val_rows),
                           failed=True)

    per_class = {}
    for c, (tp, fp, fn) in zip(corpus.label_space.classes, counts.T.tolist()):
        precision, recall, f1 = _f1_metrics((tp, fp, fn))
        per_class[c] = {"precision": precision, "recall": recall, "f1": f1,
                        "support": float(tp + fn)}  # tp + fn = gold count
    _, _, micro_f1 = _f1_metrics(counts.sum(axis=1).tolist())
    return RoundResult(round_index=round_index, selections=selections,
                       per_class=per_class, micro_f1=micro_f1,
                       val_doc_count=len(val_rows))


def _explain(params: model.ModelParams, corpus: Corpus,
             val_rows: np.ndarray, config: PipelineConfig):
    """Predict the validation documents, attribute the target pairs and
    keep each pair's top-n words; returns the selections and the [3, C]
    true-positive, false-positive and false-negative counts."""
    pieces = model.piece_rows(params, corpus)
    pooled = model.pool_documents(params, pieces, corpus, val_rows)
    predicted = model.predict_pooled(
        params, pooled, config.train_config.decision_threshold)
    gold = corpus.labels[val_rows].astype(bool)
    outcomes = {"true-positive": predicted & gold,
                "false-positive": predicted & ~gold,
                "false-negative": gold & ~predicted}
    counts = np.array([outcomes[t].sum(axis=0) for t in SELECTION_TARGETS])
    pair_docs, pair_classes = np.nonzero(outcomes[config.selection_target])
    pair, word, score = attribution.top_word_scores(
        params, pieces, corpus, val_rows[pair_docs], pooled[pair_docs],
        pair_classes, config.top_n)
    return Selections(class_idx=pair_classes[pair], word_idx=word,
                      doc_idx=val_rows[pair_docs[pair]], score=score), counts


class AggregateFold:
    """The aggregate table of rounds added one at a time, in round order.

    Dense [classes, words] accumulators (flattened) hold each cell's score
    sum, instance count and rounds selected.  Each selection's score is
    added in order onto its cell's running sum, as a grouped
    ``np.bincount`` over all rounds would add them, so a cell's mean pools
    its scores across documents and rounds.  Failed (empty) rounds count
    against stability, as the selection frequency divides by the
    configured round count.
    """

    def __init__(self, corpus: Corpus, config: PipelineConfig):
        self.corpus, self.config = corpus, config
        cells = len(corpus.label_space) * len(corpus.words)
        self.score_sum = np.zeros(cells)
        self.instances, self.rounds_selected = np.zeros((2, cells), np.intp)

    def add(self, selections: Selections) -> None:
        """Fold in the next round's selections."""
        cells = selections.class_idx * len(self.corpus.words) \
            + selections.word_idx
        counts = np.bincount(cells, minlength=self.instances.size)
        self.instances += counts
        self.rounds_selected += counts > 0
        np.add.at(self.score_sum, cells, selections.score)

    def table(self) -> Aggregates:
        """The cells selected at least once, in (class name, word) order."""
        classes, words = self.corpus.label_space.classes, self.corpus.words
        by_name = np.argsort(np.array(classes, dtype=object))
        cells = (by_name[:, None] * len(words) + np.arange(len(words))).ravel()
        cells = cells[self.instances[cells] > 0]
        class_idx, word_idx = np.divmod(cells, len(words))
        instances, rounds_selected = (self.instances[cells],
                                      self.rounds_selected[cells])
        return Aggregates(
            class_idx=class_idx, word_idx=word_idx,
            mean_score=self.score_sum[cells] / instances,
            rounds_selected=rounds_selected,
            selection_frequency=rounds_selected / self.config.rounds,
            instance_count=instances,
            doc_frequency=self.corpus.doc_frequency()[word_idx],
            classes=classes, words=words)


def filter_keywords(table: Aggregates, config: PipelineConfig) -> Aggregates:
    """Keep the rows with SF strictly above t and df strictly above k,
    classes by name, each sorted by mean score descending.

    The sort is stable over the table's (class name, word) row order, so
    the word breaks ties.
    """
    rows = np.flatnonzero((table.selection_frequency > config.sf_threshold)
                          & (table.doc_frequency > config.min_doc_frequency))
    rank = {c: i for i, c in enumerate(sorted(table.classes))}
    class_rank = np.array([rank[c] for c in table.classes],
                          dtype=np.intp)[table.class_idx[rows]]
    kept = rows[np.lexsort((-table.mean_score[rows], class_rank))]
    return replace(table, **{f: getattr(table, f)[kept] for f in
                             ("class_idx", "word_idx", *_NUMERIC_KINDS)})


@dataclass
class PipelineResult:
    rounds: list[RoundResult]  # their metrics; the selections are folded
    aggregates: Aggregates
    keywords: Aggregates  # the rows filter_keywords keeps, in its order
    config: PipelineConfig


# A pool worker's corpus, handed over once by the pool's initializer
# rather than pickled into every round's task.
_worker_corpus: Corpus | None = None


def _init_worker(corpus: Corpus) -> None:
    global _worker_corpus
    _worker_corpus = corpus


def _round_task(args):
    config, round_index = args
    return run_round(_worker_corpus, config, round_index)


def run_pipeline(corpus: Corpus, config: PipelineConfig,
                 out_dir=None) -> PipelineResult:
    """Run all rounds (optionally across processes), aggregate, and filter.

    Each round is folded, written to ``out_dir`` and its selections dropped
    as it finishes, in round order, so results are identical for any
    worker count (rounds are seeded individually).
    """
    if out_dir is not None:
        _remove_run_files(out_dir)
    fold, rounds = AggregateFold(corpus, config), []
    indices = range(config.rounds)
    with contextlib.ExitStack() as stack:
        finished = (run_round(corpus, config, i) for i in indices)
        if config.workers > 1:
            # imported here, so that a run without a pool never loads it
            from concurrent.futures import ProcessPoolExecutor
            # Rounds never read the document texts, so workers get none.
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=config.workers, initializer=_init_worker,
                initargs=(replace(corpus, texts=()),)))
            finished = pool.map(_round_task, [(config, i) for i in indices])
        for rr in finished:
            fold.add(rr.selections)
            if out_dir is not None:
                _write_round(rr, corpus, config.dump_scores, out_dir)
            rr.selections = Selections.empty()
            rounds.append(rr)
    aggregates = fold.table()
    keywords = filter_keywords(aggregates, config)
    if out_dir is not None:
        write_aggregates(aggregates, out_dir)
    return PipelineResult(rounds=rounds, aggregates=aggregates,
                          keywords=keywords, config=config)


def _round_file(round_index: int) -> str:
    return f"round_{round_index:04d}.json"


def _remove_run_files(out_dir) -> None:
    """Remove the round artifacts, aggregates and reports left in
    ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        if (name.startswith("round_") and name.endswith(".json")
                or name in _AGGREGATE_FILES or name in report.REPORT_FILES):
            os.remove(os.path.join(out_dir, name))


def _write_round(rr: RoundResult, corpus: Corpus, dump_scores: bool,
                 out_dir) -> None:
    """Write a round's artifact, with its selections if ``dump_scores``."""
    payload = {f: getattr(rr, f) for f in ("round_index", "failed", "micro_f1",
                                           "per_class", "val_doc_count")}
    if dump_scores:
        payload["selections"] = rr.selections.dumped(corpus)
    with atomic_write(os.path.join(out_dir,
                                   _round_file(rr.round_index))) as fh:
        fh.write(json.dumps(payload))


def load_round_artifacts(out_dir, rounds: int,
                         classes) -> list[RoundResult]:
    """Read the metrics in the artifacts of rounds 0..rounds-1; other
    files are ignored, and so are dumped selections.  A file that is
    not JSON, lacks a field, holds a field of the wrong type (a boolean is
    not a number), describes another round than its name, or is of a
    successful round whose ``per_class`` does not hold exactly ``classes``
    raises ``ValidationError`` naming it.
    """
    results = []
    for round_index in range(rounds):
        path = os.path.join(out_dir, _round_file(round_index))
        with open(path, encoding="utf-8") as fh, \
                malformed(path, "round artifact", ValidationError):
            payload = json.load(fh)
            per_class, micro_f1 = payload["per_class"], payload["micro_f1"]
            if not (isinstance(per_class, dict) and all(
                    isinstance(stats, dict)
                    and type(stats["f1"]) in (int, float)
                    and type(stats["support"]) in (int, float)
                    for stats in per_class.values())):
                raise TypeError("per_class is not an object of objects with "
                                "numeric f1 and support")
            if type(micro_f1) not in (int, float):
                raise TypeError("micro_f1 is not a number")
            if not isinstance(payload["failed"], bool):
                raise TypeError("failed is not a boolean")
            if type(payload["val_doc_count"]) is not int:
                raise TypeError("val_doc_count is not an integer")
            if not (type(payload["round_index"]) is int
                    and payload["round_index"] == round_index):
                raise ValueError(f"round_index is {payload['round_index']!r}"
                                 f", not {round_index}")
            if not payload["failed"] and set(per_class) != set(classes):
                raise ValueError(f"per_class holds {sorted(per_class)}, "
                                 f"not the run's classes {sorted(classes)}")
            results.append(RoundResult(
                round_index=round_index,
                selections=Selections.empty(),
                per_class=per_class, micro_f1=micro_f1,
                val_doc_count=payload["val_doc_count"],
                failed=payload["failed"]))
    return results


#: The files write_aggregates writes
_AGGREGATE_FILES = ("aggregates.npz", "aggregates.json", "aggregates.tsv")
#: The columns of aggregates.json/.tsv
_AGG_COLUMNS = ("class", "word", "mean_score", "selection_frequency",
                "rounds_selected", "instance_count", "doc_frequency")
#: Each id column of Aggregates, its string table and its aggregates.npz key
_ID_COLUMNS = (("class_idx", "classes", "class_name"),
               ("word_idx", "words", "word"))
# One row's text with None where each value goes: a row dict as json.dumps
# writes it, opened by the end of the row before, and a TSV line.
_JSON_ROW = [text for c in _AGG_COLUMNS for text in (f', "{c}": ', None)]
_JSON_ROW[0] = "}, {" + _JSON_ROW[0][len(", "):]
_TSV_ROW = [text for _ in _AGG_COLUMNS for text in (None, "\t")]
_TSV_ROW[-1] = "\n"
# json.dumps's spelling of the floats that have no JSON number
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _value_texts(column, text=repr) -> tuple[list[str], np.ndarray]:
    """The ``text`` of each distinct value of ``column``, in value order,
    and, per row, the index of its value's text."""
    values, codes = np.unique(column, return_inverse=True)
    return list(map(text, values.tolist())), codes


def _aggregate_lines(table: Aggregates, part: slice,
                     lookups) -> tuple[str, str]:
    """The ``aggregates.json`` rows (joined by ", ") and ``aggregates.tsv``
    lines of the rows in ``part``, which holds at least one row.

    ``lookups`` holds each other column's value texts in JSON and in TSV
    and each row's index into them.  JSON spells strings with the
    ``ensure_ascii`` encoder of json.dumps and numbers by ``repr``, as
    json.dumps does a finite float and an int.  Selection frequencies are
    round counts over the configured rounds, so they are finite; a mean
    score that is not is spelt as json.dumps spells it.
    """
    scores = table.mean_score[part]
    means = list(map(float.__repr__, scores.tolist()))
    json_means = means if np.isfinite(scores).all() else [
        _JSON_NON_FINITE.get(m, m) for m in means]
    columns = []
    for json_texts, tsv_texts, codes in lookups:
        rows = codes[part].tolist()
        tsv_column = list(map(tsv_texts.__getitem__, rows))
        columns.append((tsv_column if json_texts is tsv_texts
                        else list(map(json_texts.__getitem__, rows)),
                        tsv_column))
    columns.insert(2, (json_means, means))
    # Each value goes into its slots of the repeated row texts.
    json_parts, tsv_parts = _JSON_ROW * len(means), _TSV_ROW * len(means)
    width = len(_JSON_ROW)
    for j, (json_column, tsv_column) in enumerate(columns):
        json_parts[2 * j + 1::width] = json_column
        tsv_parts[2 * j::width] = tsv_column
    json_parts[0] = json_parts[0][len("}, "):]  # no row before the first
    return "".join(json_parts) + "}", "".join(tsv_parts)


def write_aggregates(table: Aggregates, out_dir) -> None:
    """Write the columns to ``aggregates.npz``, each id column as int32
    codes into the bytes of an ``ensure_ascii`` JSON list of the entries
    of its table that rows use (numpy's string arrays drop trailing NULs),
    and export them as ``aggregates.json`` (the bytes of ``json.dumps`` of
    the rows as dicts) and ``aggregates.tsv``, DUMP_ROWS rows at a time."""
    os.makedirs(out_dir, exist_ok=True)
    arrays = {f: getattr(table, f) for f in _NUMERIC_KINDS}
    lookups = []
    for ids, strings, key in _ID_COLUMNS:
        texts, codes = _value_texts(getattr(table, ids),
                                    getattr(table, strings).__getitem__)
        arrays[key] = codes.astype(np.int32)
        arrays[key + "_values"] = np.frombuffer(
            json.dumps(texts).encode("ascii"), dtype=np.uint8)
        lookups.append((list(map(encode_basestring_ascii, texts)), texts,
                        codes))
    for f in list(_NUMERIC_KINDS)[1:]:  # the columns after the mean score
        texts, codes = _value_texts(getattr(table, f))
        lookups.append((texts, texts, codes))
    with atomic_write(os.path.join(out_dir, "aggregates.npz"),
                      binary=True) as npz, \
            atomic_write(os.path.join(out_dir, "aggregates.json")) as js, \
            atomic_write(os.path.join(out_dir, "aggregates.tsv")) as fh:
        np.savez(npz, **arrays)
        js.write("[")
        fh.write("\t".join(_AGG_COLUMNS) + "\n")
        for start in range(0, len(table), DUMP_ROWS):
            json_text, tsv_text = _aggregate_lines(
                table, slice(start, start + DUMP_ROWS), lookups)
            js.write((", " if start else "") + json_text)
            fh.write(tsv_text)
        js.write("]")


def _column(archive, name: str, kind: str) -> np.ndarray:
    column = archive[name]
    if column.ndim != 1 or column.dtype.kind != kind:
        raise TypeError(f"{name} is {column.dtype} of shape {column.shape}, "
                        f"not a 1-D column of dtype kind {kind!r}")
    return column


def load_aggregates(out_dir, classes=None) -> Aggregates:
    """The table that ``write_aggregates`` wrote to ``aggregates.npz``,
    over the archive's string tables, in whatever order they are.

    A file that is not such an archive, lacks a column, holds a column of
    the wrong dtype kind or length, a code out of range, values that are
    not a JSON list of strings or, if ``classes`` is given, a class not
    among them raises ``ValidationError`` naming it.
    """
    path = os.path.join(out_dir, "aggregates.npz")
    # np.load leaves a file it opened itself open if the archive is damaged
    with open(path, "rb") as fh, \
            malformed(path, "aggregates", ValidationError), \
            np.load(fh, allow_pickle=False) as archive:
        columns = {f: _column(archive, f, kind)
                   for f, kind in _NUMERIC_KINDS.items()}
        tables = {}
        for ids, strings, key in _ID_COLUMNS:
            codes = _column(archive, key, "i")
            values = json.loads(_column(archive, key + "_values",
                                        "u").tobytes())
            if not _is_string_list(values):
                raise TypeError(f"{key}_values is not a JSON list of strings")
            if codes.size and not (0 <= codes.min()
                                   and codes.max() < len(values)):
                raise ValueError(f"{key} holds a code out of range")
            columns[ids], tables[strings] = codes, values
        if len({column.size for column in columns.values()}) > 1:
            raise ValueError("columns of unequal length")
        if classes is not None and set(tables["classes"]) - set(classes):
            raise ValueError(f"class_name_values holds classes not in "
                             f"{sorted(classes)}")
        return Aggregates(**columns, **tables)
