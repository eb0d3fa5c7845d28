"""Repeated-round keyword extraction.

Each round: stratified split -> train a fresh model -> predict on the
validation set -> attribute target (document, class) pairs with IG ->
keep the top-n words per document.  Rounds are aggregated into per-
(class, word) mean scores and selection frequencies, then filtered by
selection frequency and corpus document frequency.
"""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import attribution, model
from .corpus import Corpus, SplitSpec, ValidationError, stratified_split

SELECTION_TARGETS = ("true-positive", "false-positive", "false-negative")


@dataclass(frozen=True)
class PipelineConfig:
    ratio: float = 0.67          # train fraction r
    top_n: int = 20              # words kept per document
    rounds: int = 100            # repetitions N
    sf_threshold: float = 0.6    # selection-frequency threshold t (strict >)
    min_doc_frequency: int = 5   # document-frequency cutoff k (keep if df > k)
    ig_steps: int = 50
    selection_target: str = "true-positive"
    master_seed: int = 0
    train_config: model.TrainConfig = field(default_factory=model.TrainConfig)
    mean_mode: str = "pooled"    # "pooled" or "round-mean"
    workers: int = 1
    dump_scores: bool = False

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValidationError("ratio must lie in (0, 1)")
        if self.top_n < 1 or self.rounds < 1:
            raise ValidationError("top_n and rounds must be >= 1")
        if not 0.0 <= self.sf_threshold <= 1.0:
            raise ValidationError("sf_threshold must lie in [0, 1]")
        if self.min_doc_frequency < 0:
            raise ValidationError("min_doc_frequency must be >= 0")
        if self.selection_target not in SELECTION_TARGETS:
            raise ValidationError(
                f"selection_target must be one of {SELECTION_TARGETS}")
        if self.mean_mode not in ("pooled", "round-mean"):
            raise ValidationError("mean_mode must be 'pooled' or 'round-mean'")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


@dataclass
class RoundResult:
    round_index: int
    selections: list[attribution.WordScoreRecord]
    per_class: dict[str, dict[str, float]]  # precision/recall/f1/support
    micro_f1: float
    val_doc_count: int
    failed: bool = False


@dataclass
class AggregateRecord:
    class_name: str
    word: str
    mean_score: float
    rounds_selected: int
    selection_frequency: float
    instance_count: int
    doc_frequency: int


def round_seeds(master_seed: int, round_index: int) -> tuple[int, int]:
    """Stable (split_seed, train_seed) derivation for one round."""
    ss = np.random.SeedSequence([master_seed & (2**64 - 1), round_index])
    split_seed, train_seed = ss.generate_state(2, dtype=np.uint64)
    return int(split_seed), int(train_seed)


def _matches_target(target: str, predicted: bool, gold: bool) -> bool:
    if target == "true-positive":
        return predicted and gold
    if target == "false-positive":
        return predicted and not gold
    return gold and not predicted  # false-negative


def top_n_words(records, n: int):
    """The n highest-scoring records; ties broken by word order."""
    return sorted(records, key=lambda r: (-r.score, r.word))[:n]


def _f1_metrics(counts):
    tp, fp, fn = counts
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def run_round(corpus: Corpus, config: PipelineConfig,
              round_index: int) -> RoundResult:
    """One split/train/attribute/select round; failures are recorded, not raised."""
    if round_index >= config.rounds:
        raise ValidationError("round_index must be below the configured rounds")
    split_seed, train_seed = round_seeds(config.master_seed, round_index)
    train_corpus, val_corpus = stratified_split(
        corpus, SplitSpec(ratio=config.ratio, seed=split_seed))

    vocab = model.build_vocab(train_corpus)
    train_cfg = replace(config.train_config, seed=train_seed)
    params = model.init_model(vocab, len(corpus.label_space), train_cfg)
    try:
        params = model.train(params, train_corpus, train_cfg)
    except model.TrainingDivergedError as exc:
        warnings.warn(f"round {round_index} failed: {exc}", stacklevel=2)
        return RoundResult(round_index=round_index, selections=[],
                           per_class={}, micro_f1=0.0,
                           val_doc_count=len(val_corpus.documents), failed=True)

    classes = corpus.label_space.classes
    threshold = train_cfg.decision_threshold
    class_counts = {c: [0, 0, 0] for c in classes}  # tp, fp, fn
    micro = [0, 0, 0]
    selections: list[attribution.WordScoreRecord] = []

    for doc in val_corpus.documents:
        predicted = model.predict(params, doc, corpus.label_space, threshold)
        for ci, c in enumerate(classes):
            pred, gold = c in predicted, c in doc.labels
            if pred and gold:
                slot = 0
            elif pred:
                slot = 1
            elif gold:
                slot = 2
            else:
                slot = None
            if slot is not None:
                class_counts[c][slot] += 1
                micro[slot] += 1
            if _matches_target(config.selection_target, pred, gold):
                attr = attribution.integrated_gradients(
                    params, doc, ci, steps=config.ig_steps)
                normalized = attribution.normalize_document(
                    attribution.token_scores(attr))
                records = attribution.word_scores(normalized, doc, c)
                selections.extend(top_n_words(records, config.top_n))

    per_class = {}
    for c in classes:
        precision, recall, f1 = _f1_metrics(class_counts[c])
        support = class_counts[c][0] + class_counts[c][2]  # tp + fn = gold count
        per_class[c] = {"precision": precision, "recall": recall, "f1": f1,
                        "support": float(support)}
    _, _, micro_f1 = _f1_metrics(micro)
    return RoundResult(round_index=round_index, selections=selections,
                       per_class=per_class, micro_f1=micro_f1,
                       val_doc_count=len(val_corpus.documents))


def aggregate(rounds, corpus: Corpus, config: PipelineConfig):
    """Merge round selections into per-(class, word) aggregate records.

    The selection-frequency denominator is the configured round count, so
    failed rounds count against stability.
    """
    if not rounds:
        raise ValidationError("aggregate requires at least one round")
    rounds = sorted(rounds, key=lambda r: r.round_index)
    scores: dict[tuple[str, str], list[list[float]]] = {}
    round_hits: dict[tuple[str, str], set[int]] = {}
    for rr in rounds:
        per_round: dict[tuple[str, str], list[float]] = {}
        for rec in rr.selections:
            key = (rec.class_name, rec.word)
            per_round.setdefault(key, []).append(rec.score)
            round_hits.setdefault(key, set()).add(rr.round_index)
        for key, vals in per_round.items():
            scores.setdefault(key, []).append(vals)

    out = []
    for (class_name, word) in sorted(scores):
        per_round_scores = scores[(class_name, word)]
        if config.mean_mode == "pooled":
            pooled = [s for vals in per_round_scores for s in vals]
            mean_score = sum(pooled) / len(pooled)
        else:
            round_means = [sum(v) / len(v) for v in per_round_scores]
            mean_score = sum(round_means) / len(round_means)
        n_selected = len(round_hits[(class_name, word)])
        out.append(AggregateRecord(
            class_name=class_name,
            word=word,
            mean_score=mean_score,
            rounds_selected=n_selected,
            selection_frequency=n_selected / config.rounds,
            instance_count=sum(len(v) for v in per_round_scores),
            doc_frequency=corpus.doc_frequency.get(word, 0),
        ))
    return out


def filter_keywords(records, config: PipelineConfig, class_order=None):
    """Keep records with SF strictly above t and df strictly above k,
    sorted per class by mean score descending (word breaks ties)."""
    kept = [r for r in records
            if r.selection_frequency > config.sf_threshold
            and r.doc_frequency > config.min_doc_frequency]
    if class_order is None:
        rank = {}
    else:
        rank = {c: i for i, c in enumerate(class_order)}
    kept.sort(key=lambda r: (rank.get(r.class_name, len(rank)), r.class_name,
                             -r.mean_score, r.word))
    return kept


@dataclass
class PipelineResult:
    rounds: list[RoundResult]
    aggregates: list[AggregateRecord]
    keywords: list[AggregateRecord]
    config: PipelineConfig


def _round_task(args):
    corpus, config, round_index = args
    return run_round(corpus, config, round_index)


def run_pipeline(corpus: Corpus, config: PipelineConfig,
                 out_dir=None) -> PipelineResult:
    """Run all rounds (optionally across processes), aggregate, and filter.

    Results are identical for any worker count: rounds are seeded
    individually and merged in round order.
    """
    indices = list(range(config.rounds))
    if config.workers == 1:
        rounds = [run_round(corpus, config, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rounds = list(pool.map(_round_task,
                                   [(corpus, config, i) for i in indices]))
    rounds.sort(key=lambda r: r.round_index)
    aggregates = aggregate(rounds, corpus, config)
    keywords = filter_keywords(aggregates, config,
                               class_order=corpus.label_space.classes)
    result = PipelineResult(rounds=rounds, aggregates=aggregates,
                            keywords=keywords, config=config)
    if out_dir is not None:
        write_round_artifacts(result, out_dir)
        write_aggregates(aggregates, out_dir)
    return result


def _round_file(round_index: int) -> str:
    return f"round_{round_index:04d}.json"


def write_round_artifacts(result: PipelineResult, out_dir) -> None:
    """Write one artifact per round and delete round artifacts left in
    ``out_dir`` by an earlier run that are not part of this one."""
    os.makedirs(out_dir, exist_ok=True)
    written = {_round_file(rr.round_index) for rr in result.rounds}
    for name in os.listdir(out_dir):
        if (name.startswith("round_") and name.endswith(".json")
                and name not in written):
            os.remove(os.path.join(out_dir, name))
    for rr in result.rounds:
        payload = {
            "round_index": rr.round_index,
            "failed": rr.failed,
            "micro_f1": rr.micro_f1,
            "per_class": rr.per_class,
            "val_doc_count": rr.val_doc_count,
        }
        if result.config.dump_scores:
            payload["selections"] = [
                [r.class_name, r.word, r.doc_id, r.score]
                for r in rr.selections]
        path = os.path.join(out_dir, _round_file(rr.round_index))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def load_round_artifacts(out_dir, rounds: int) -> list[RoundResult]:
    """Read the artifacts of rounds 0..rounds-1; other files are ignored."""
    results = []
    for round_index in range(rounds):
        path = os.path.join(out_dir, _round_file(round_index))
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        selections = [
            attribution.WordScoreRecord(word=w, doc_id=d, class_name=c, score=s)
            for c, w, d, s in payload.get("selections", [])]
        results.append(RoundResult(
            round_index=payload["round_index"], selections=selections,
            per_class=payload["per_class"], micro_f1=payload["micro_f1"],
            val_doc_count=payload["val_doc_count"],
            failed=payload["failed"]))
    return results


_AGG_COLUMNS = ("class", "word", "mean_score", "selection_frequency",
                "rounds_selected", "instance_count", "doc_frequency")


def write_aggregates(records, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rows = [{
        "class": r.class_name, "word": r.word, "mean_score": r.mean_score,
        "selection_frequency": r.selection_frequency,
        "rounds_selected": r.rounds_selected,
        "instance_count": r.instance_count,
        "doc_frequency": r.doc_frequency,
    } for r in records]
    with open(os.path.join(out_dir, "aggregates.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rows, fh)
    with open(os.path.join(out_dir, "aggregates.tsv"), "w",
              encoding="utf-8") as fh:
        fh.write("\t".join(_AGG_COLUMNS) + "\n")
        for row in rows:
            fh.write("\t".join(repr(row[c]) if isinstance(row[c], float)
                               else str(row[c]) for c in _AGG_COLUMNS) + "\n")


def load_aggregates(out_dir) -> list[AggregateRecord]:
    with open(os.path.join(out_dir, "aggregates.json"), encoding="utf-8") as fh:
        rows = json.load(fh)
    return [AggregateRecord(
        class_name=row["class"], word=row["word"],
        mean_score=row["mean_score"],
        rounds_selected=row["rounds_selected"],
        selection_frequency=row["selection_frequency"],
        instance_count=row["instance_count"],
        doc_frequency=row["doc_frequency"]) for row in rows]
