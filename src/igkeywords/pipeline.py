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
folds it into an ``AggregateFold``, hands it to its ``on_round`` callback
and drops its selections: the ``RoundResult``s it returns carry metrics,
not selections.  The fold's ``Aggregates`` table holds class and word ids
into the corpus's tables; the filter keeps a subset of its rows, classes by
name and each by mean score.  ``PipelineConfig`` holds every setting of a
run, ``top_m``, the report tables' rows per class, among them.  This
module writes no file: ``rundir`` keeps a run's files.
"""

from __future__ import annotations

import contextlib
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import attribution, model
from .corpus import Corpus, ValidationError, stratified_split

SELECTION_TARGETS = ("true-positive", "false-positive", "false-negative")


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


@dataclass(kw_only=True)
class RoundResult:
    """A round's record; its ``round_NNNN.json`` holds every field, in order,
    but ``selections``, which are empty once folded and in rounds read back."""

    round_index: int
    failed: bool = False
    micro_f1: float
    per_class: dict[str, dict[str, float]]  # precision/recall/f1/support
    val_doc_count: int
    selections: Selections = field(default_factory=Selections.empty)


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
    params = model.init_model(vocab, len(corpus.label_space),
                              config.train_config, train_seed)
    try:
        params = model.train(params, corpus, train_rows, config.train_config,
                             train_seed)
        selections, counts = _explain(params, corpus, val_rows, config)
    except (model.TrainingDivergedError, attribution.AttributionError) as exc:
        warnings.warn(f"round {round_index} failed: {exc}", stacklevel=2)
        return RoundResult(round_index=round_index, failed=True,
                           micro_f1=0.0, per_class={},
                           val_doc_count=len(val_rows))

    per_class = {}
    for c, (tp, fp, fn) in zip(corpus.label_space.classes, counts.T.tolist()):
        precision, recall, f1 = _f1_metrics((tp, fp, fn))
        per_class[c] = {"precision": precision, "recall": recall, "f1": f1,
                        "support": float(tp + fn)}  # tp + fn = gold count
    _, _, micro_f1 = _f1_metrics(counts.sum(axis=1).tolist())
    return RoundResult(round_index=round_index, micro_f1=micro_f1,
                       per_class=per_class, val_doc_count=len(val_rows),
                       selections=selections)


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
    return replace(table, **{f.name: getattr(table, f.name)[kept]
                             for f in fields(table)
                             if f.name not in ("classes", "words")})


@dataclass
class PipelineResult:
    rounds: list[RoundResult]  # their metrics; the selections are folded
    aggregates: Aggregates
    keywords: Aggregates  # the rows filter_keywords keeps, in its order


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
                 on_round=None) -> PipelineResult:
    """Run all rounds (optionally across processes), aggregate, and filter.

    Each round is folded, handed to ``on_round`` if given and its
    selections dropped as it finishes, in round order, so results are
    identical for any worker count (rounds are seeded individually).
    """
    fold, rounds = AggregateFold(corpus, config), []
    indices = range(config.rounds)
    workers = min(config.workers, config.rounds)  # a pool starts all at once
    with contextlib.ExitStack() as stack:
        finished = (run_round(corpus, config, i) for i in indices)
        if workers > 1:
            # imported here, so that a run without a pool never loads it
            from concurrent.futures import ProcessPoolExecutor
            # Rounds never read the document texts, so workers get none.
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(replace(corpus, texts=()),)))
            finished = pool.map(_round_task, [(config, i) for i in indices])
        for rr in finished:
            fold.add(rr.selections)
            if on_round is not None:
                on_round(rr)
            rr.selections = Selections.empty()
            rounds.append(rr)
    aggregates = fold.table()
    keywords = filter_keywords(aggregates, config)
    return PipelineResult(rounds=rounds, aggregates=aggregates,
                          keywords=keywords)
