"""Test-only copies of the per-token input gradient that
``model.pooled_logit_gradients`` replaced; of the per-document round loop,
the dict aggregate and the per-document document-frequency count that the
batched explain pass, the round-by-round ``AggregateFold`` and
``Corpus.doc_frequency`` replaced; of the midpoint-rule integrated
gradients that the closed-form path integral replaced; of the
``aggregates.json`` reader that ``aggregates.npz`` replaced; and of the
``aggregates.npz`` string tables in order of first row, as they were
written before they held the entries of the run's tables in table order.
``AggregateRecord``, one aggregate row with its class name and word
spelt out, is the row type of the dict aggregate and of the tests;
``fold_rounds`` folds a list of rounds the way ``run_pipeline`` does;
``gamma`` is the rounding constant of the bounds on sums that the
bag-of-pieces kernel adds in another order than its references.

The loop works on the corpus as ``Document`` objects tokenized one by one
(``reference_corpus.documents_of``), splits them with the set-based
``reference_stratified_split``, predicts each document with ``predict``
and attributes it with ``integrated_gradients``, the closed-form path
integral written out directly and applied token by token, then the
word-score chain ``normalize_document`` and ``word_scores``.  They are the
reference for the differential tests in ``test_batched_explain.py`` and
``test_attribution.py``, and the per-token gradient also for
``test_model.py``.  ``integrated_gradients`` with a step count is the
midpoint rule, the oracle the closed form is shown to be the limit of.
"""

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from igkeywords import model
from igkeywords.corpus import SplitSpec, ValidationError
from igkeywords.pipeline import (AggregateFold, Aggregates, _f1_metrics,
                                 round_seeds)
from reference_corpus import documents_of, reference_stratified_split


@dataclass
class AggregateRecord:
    class_name: str
    word: str
    mean_score: float
    rounds_selected: int
    selection_frequency: float
    instance_count: int
    doc_frequency: int


#: AggregateRecord's numeric fields, columns of the aggregate table
NUMERIC_FIELDS = ("mean_score", "rounds_selected", "selection_frequency",
                  "instance_count", "doc_frequency")


@dataclass(frozen=True)
class WordScoreRecord:
    word: str
    doc_id: str
    class_name: str
    score: float


def gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``, u = 2**-53: a float64 sum or
    dot product of n terms, in any order, with or without fused
    multiply-adds, lies within ``gamma_n * sum|terms|`` of the exact one
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1)."""
    u = 2.0 ** -53
    return n * u / (1 - n * u)


def token_ids(params, corpus, doc) -> np.ndarray:
    """The model row of each piece of ``doc``, a document of ``corpus``,
    looked up by the piece's string; unknown pieces to ``unk``."""
    vocab = {corpus.pieces[g]: row
             for row, g in enumerate(params.vocab.tolist())}
    unk = params.unk_index
    return np.array([vocab.get(p, unk) for p, _ in doc.subwords],
                    dtype=np.intp)


def document_inputs(params, corpus, doc) -> np.ndarray:
    """The [T, d] input embeddings of ``doc``; it must have a piece."""
    if not doc.subwords:
        raise ValidationError(f"document {doc.id!r} has no subwords")
    return params.embedding[token_ids(params, corpus, doc)].astype(float)


def predict(params, corpus, doc, threshold) -> set[str]:
    """Classes whose sigmoid probability is >= threshold."""
    out, _ = model.logits(params,
                          document_inputs(params, corpus, doc).mean(axis=0))
    probs = 1.0 / (1.0 + np.exp(-out))
    return {corpus.label_space.classes[i]
            for i in np.flatnonzero(probs >= threshold)}


def input_gradients_from_embeddings(params, inputs: np.ndarray,
                                    class_index: int) -> np.ndarray:
    """Exact d(logit_c)/d(inputs) of [T, d] token embeddings, mean pooled:
    the pooled gradient over T, tiled over the tokens."""
    n_tokens = inputs.shape[0]
    d_pooled = model.pooled_logit_gradients(
        params, inputs.mean(axis=0)[None, :], class_index)[0]
    return np.tile(d_pooled / n_tokens, (n_tokens, 1))


def exact_path_gradient(params, pooled: np.ndarray,
                        class_index: int) -> np.ndarray:
    """The mean of d(logit_c)/d(pooled) over the path from the zero vector
    to ``pooled``, from the path mean of tanh' written directly:
    ``sinh(a) / (a cosh(a + b) cosh(b))``, and ``1 / cosh(b)^2`` at
    ``a = 0`` (it overflows past |a| of about 710, which no model here
    reaches)."""
    a = pooled @ params.hidden_weights
    b = params.hidden_bias
    if params.activation == "tanh":
        nonzero = np.where(a == 0.0, 1.0, a)
        slopes = np.where(a == 0.0, 1.0 / np.cosh(b) ** 2,
                          np.sinh(a) / (nonzero * np.cosh(a + b) * np.cosh(b)))
    else:
        slopes = np.ones_like(a)
    return params.hidden_weights @ (params.output_weights[:, class_index]
                                    * slopes)


def midpoint_path_gradient(params, pooled: np.ndarray, class_index: int,
                           steps: int) -> np.ndarray:
    """The same mean by the midpoint rule with ``steps`` steps, operation
    for operation as integrated gradients took it before the closed
    form."""
    alphas = (np.arange(1, steps + 1) - 0.5) / steps
    pooled_path = alphas[:, None] * pooled
    hidden_post = model._activate(
        params, pooled_path @ params.hidden_weights + params.hidden_bias)
    d_pre = (model._activation_grad(params, hidden_post)
             * params.output_weights[:, class_index])
    grads = d_pre @ params.hidden_weights.T
    assert np.isfinite(grads).all()
    return grads.mean(axis=0)


def integrated_gradients(params, corpus, doc, class_index,
                         steps=None) -> np.ndarray:
    """IG with a zero baseline of one (document, class) pair: the [T, d]
    attributions, token by token, each the token's embedding times the
    path-mean gradient over T.  The path mean is exact, or by the midpoint
    rule with ``steps`` steps."""
    inputs = document_inputs(params, corpus, doc)
    pooled = inputs.mean(axis=0)
    if steps is None:
        mean_grad = exact_path_gradient(params, pooled, class_index)
    else:
        mean_grad = midpoint_path_gradient(params, pooled, class_index, steps)
    weights = mean_grad / inputs.shape[0]
    return np.array([token * weights for token in inputs])


def normalize_document(scores: np.ndarray) -> np.ndarray:
    """Divide by the L2 norm, the root of the squares added one by one in
    order; an all-zero vector is returned unchanged."""
    scores = np.asarray(scores, dtype=float)
    total = 0.0
    for score in scores.tolist():
        total += score * score
    norm = math.sqrt(total)
    if norm == 0.0:
        return scores.copy()
    return scores / norm


def word_scores(normalized: np.ndarray, doc,
                class_name: str) -> list[WordScoreRecord]:
    """One record per distinct word: max over all its subword token scores,
    pooled across every occurrence of the word in the document.
    """
    if len(normalized) != len(doc.subwords):
        raise ValidationError(
            f"score vector length {len(normalized)} does not match "
            f"{len(doc.subwords)} subwords in document {doc.id!r}")
    best: dict[str, float] = {}
    for score, (_, wi) in zip(normalized, doc.subwords):
        word = doc.words[wi]
        score = float(score)
        if word not in best or score > best[word]:
            best[word] = score
    return [WordScoreRecord(word=w, doc_id=doc.id, class_name=class_name,
                            score=s)
            for w, s in sorted(best.items())]


def top_n_words(records, n: int):
    """The n highest-scoring records; ties broken by word order."""
    return sorted(records, key=lambda r: (-r.score, r.word))[:n]


def _matches_target(target: str, predicted: bool, gold: bool) -> bool:
    if target == "true-positive":
        return predicted and gold
    if target == "false-positive":
        return predicted and not gold
    return gold and not predicted  # false-negative


def reference_run_round(corpus, config, round_index):
    """(selections as WordScoreRecords, per_class, micro_f1) of one round,
    document by document and pair by pair."""
    if round_index >= config.rounds:
        raise ValidationError("round_index must be below the configured rounds")
    split_seed, train_seed = round_seeds(config.master_seed, round_index)
    documents = documents_of(corpus)
    classes = corpus.label_space.classes
    train_idx, val_idx = reference_stratified_split(
        documents, classes, SplitSpec(ratio=config.ratio, seed=split_seed))

    piece_id = {p: i for i, p in enumerate(corpus.pieces)}
    vocab = np.array(sorted({piece_id[p] for i in train_idx
                             for p, _ in documents[i].subwords}))
    train_cfg = replace(config.train_config, seed=train_seed)
    params = model.init_model(vocab, len(corpus.label_space), train_cfg)
    params = model.train(params, corpus, np.array(train_idx), train_cfg)

    threshold = train_cfg.decision_threshold
    class_counts = {c: [0, 0, 0] for c in classes}  # tp, fp, fn
    micro = [0, 0, 0]
    selections = []

    for doc in (documents[i] for i in val_idx):
        predicted = predict(params, corpus, doc, threshold)
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
                scores = integrated_gradients(params, corpus, doc,
                                              ci).sum(axis=1)
                records = word_scores(normalize_document(scores), doc, c)
                selections.extend(top_n_words(records, config.top_n))

    per_class = {}
    for c in classes:
        precision, recall, f1 = _f1_metrics(class_counts[c])
        support = class_counts[c][0] + class_counts[c][2]
        per_class[c] = {"precision": precision, "recall": recall, "f1": f1,
                        "support": float(support)}
    _, _, micro_f1 = _f1_metrics(micro)
    return selections, per_class, micro_f1


def compute_doc_frequency(documents) -> dict[str, int]:
    """The number of documents that contain each word."""
    df: dict[str, int] = {}
    for doc in documents:
        for word in set(doc.words):
            df[word] = df.get(word, 0) + 1
    return df


def table_of(records) -> Aggregates:
    """The aggregate table whose rows are ``records``, over tables of their
    class names and words in order of first row."""
    classes = {c: i for i, c in enumerate(dict.fromkeys(
        r.class_name for r in records))}
    words = {w: i for i, w in enumerate(dict.fromkeys(
        r.word for r in records))}
    floats = ("mean_score", "selection_frequency")
    return Aggregates(
        class_idx=np.array([classes[r.class_name] for r in records],
                           dtype=np.intp),
        word_idx=np.array([words[r.word] for r in records], dtype=np.intp),
        classes=list(classes), words=list(words),
        **{f: np.array([getattr(r, f) for r in records],
                       dtype=float if f in floats else np.intp)
           for f in NUMERIC_FIELDS})


def aggregate_records(table: Aggregates) -> list[AggregateRecord]:
    """The rows of an aggregate table as records."""
    return [AggregateRecord(class_name, word, *values)
            for (class_name, word), *values in zip(
                table.pairs(), *(getattr(table, f).tolist()
                                 for f in NUMERIC_FIELDS))]


def first_row_archive(table: Aggregates) -> dict[str, np.ndarray]:
    """The arrays of an ``aggregates.npz`` of ``table`` whose string
    tables hold each column's distinct values in order of first row."""
    arrays = {f: getattr(table, f) for f in NUMERIC_FIELDS}
    pairs = table.pairs()
    for key, column in (("class_name", [c for c, _ in pairs]),
                        ("word", [w for _, w in pairs])):
        index = {}
        arrays[key] = np.array([index.setdefault(v, len(index))
                                for v in column], dtype=np.int32)
        arrays[key + "_values"] = np.frombuffer(
            json.dumps(list(index)).encode("ascii"), dtype=np.uint8)
    return arrays


def table_from_json(run_dir) -> Aggregates:
    """The aggregate table that ``aggregates.json`` of ``run_dir`` spells."""
    with open(os.path.join(run_dir, "aggregates.json"),
              encoding="utf-8") as fh:
        rows = json.load(fh)
    return table_of([AggregateRecord(
        class_name=r["class"], word=r["word"], mean_score=r["mean_score"],
        rounds_selected=r["rounds_selected"],
        selection_frequency=r["selection_frequency"],
        instance_count=r["instance_count"], doc_frequency=r["doc_frequency"])
        for r in rows])


def fold_rounds(rounds, corpus, config) -> Aggregates:
    """The aggregate table of ``rounds`` (``RoundResult``s in any order),
    folded in round order as ``run_pipeline`` folds them."""
    fold = AggregateFold(corpus, config)
    for rr in sorted(rounds, key=lambda r: r.round_index):
        fold.add(rr.selections)
    return fold.table()


def running_sum(values) -> float:
    """The values added one by one from 0.0, as the program's sums add
    them; ``sum()`` of floats is compensated on Python >= 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def reference_aggregate(rounds, corpus, config):
    """``rounds`` is a list of (round_index, [WordScoreRecord])."""
    rounds = sorted(rounds, key=lambda r: r[0])
    doc_frequency = compute_doc_frequency(documents_of(corpus))
    scores = {}
    round_hits = {}
    for round_index, records in rounds:
        for rec in records:
            key = (rec.class_name, rec.word)
            scores.setdefault(key, []).append(rec.score)
            round_hits.setdefault(key, set()).add(round_index)

    out = []
    for (class_name, word) in sorted(scores):
        pooled = scores[(class_name, word)]  # in round, then record, order
        n_selected = len(round_hits[(class_name, word)])
        out.append(AggregateRecord(
            class_name=class_name,
            word=word,
            mean_score=running_sum(pooled) / len(pooled),
            rounds_selected=n_selected,
            selection_frequency=n_selected / config.rounds,
            instance_count=len(pooled),
            doc_frequency=doc_frequency.get(word, 0),
        ))
    return out
