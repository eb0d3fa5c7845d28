"""Integrated Gradients over input token embeddings, plus the reduction
chain to word-level scores: sum embedding dims per token, L2-normalize
per document, take the max over a word's subword pieces.

``top_word_scores`` runs the whole chain, and the top-n pick, for every
attributed (document, class) pair of a round at once, reading each
document's pieces and words straight from the corpus by its row, with the
same floating-point operations as the per-document functions below, which
stay as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document, ValidationError
from .model import (ModelParams, forward_from_embeddings, pooled_logit_gradients,
                    token_ids)

#: IG path rows (pairs x steps) per chunk of ``top_word_scores``.  It bounds
#: the chunk's temporaries at a few MB whatever the number of pairs: at
#: 16384 rows a train-bound run peaked about 7 MB higher, and no faster.
PATH_ROWS = 4096


class AttributionError(RuntimeError):
    """Non-finite values encountered during attribution."""


@dataclass
class AttributionMatrix:
    values: np.ndarray  # [T, d]
    class_index: int
    doc_id: str
    baseline_kind: str
    steps: int


@dataclass(frozen=True)
class WordScoreRecord:
    word: str
    doc_id: str
    class_name: str
    score: float


def _baseline_matrix(inputs: np.ndarray, baseline) -> tuple[np.ndarray, str]:
    if isinstance(baseline, str):
        if baseline != "zero":
            raise ValidationError(f"unknown baseline kind {baseline!r}")
        return np.zeros_like(inputs), "zero"
    vec = np.asarray(baseline, dtype=float)
    if vec.shape != (inputs.shape[1],):
        raise ValidationError("custom baseline must be a length-d vector")
    return np.tile(vec, (inputs.shape[0], 1)), "custom"


def integrated_gradients(params: ModelParams, doc: Document, class_index: int,
                         baseline="zero", *, steps: int) -> AttributionMatrix:
    """Midpoint-rule IG for one (document, class) pair.

    Mean pooling lets the m gradient evaluations collapse into one batched
    pass over interpolated pooled vectors; the result is identical to
    evaluating the full input gradient at each interpolation point.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if not 0 <= class_index < params.num_classes:
        raise ValidationError(f"class index {class_index} out of range")
    if not doc.subwords:
        raise ValidationError(f"document {doc.id!r} has no subwords")

    inputs = params.embedding[token_ids(params, doc)].astype(float)
    base, kind = _baseline_matrix(inputs, baseline)
    pooled_base = base.mean(axis=0)
    # d(logit)/d(inputs[i]) = d(logit)/d(pooled) / T at every path point
    avg_grad = _mean_path_gradients(
        params, pooled_base, (inputs.mean(axis=0) - pooled_base)[None],
        np.array([class_index]), steps)[0] / inputs.shape[0]
    values = (inputs - base) * avg_grad
    return AttributionMatrix(values=values, class_index=class_index,
                             doc_id=doc.id, baseline_kind=kind, steps=steps)


def logit_value(params: ModelParams, inputs: np.ndarray,
                class_index: int) -> float:
    logits, _ = forward_from_embeddings(params, inputs)
    return float(logits[class_index])


def completeness_residual(attr: AttributionMatrix, f_x: float,
                          f_baseline: float) -> float:
    """|sum of attributions - (F(x) - F(baseline))|."""
    if not np.isfinite(attr.values).all():
        raise AttributionError("attribution matrix contains non-finite values")
    return abs(float(attr.values.sum()) - (f_x - f_baseline))


def token_scores(attr: AttributionMatrix) -> np.ndarray:
    """Per-token score: sum over embedding dimensions."""
    return attr.values.sum(axis=1)


def normalize_document(scores: np.ndarray) -> np.ndarray:
    """Divide by the L2 norm; an all-zero vector is returned unchanged."""
    scores = np.asarray(scores, dtype=float)
    norm = np.linalg.norm(scores)
    if norm == 0.0:
        return scores.copy()
    return scores / norm


def word_scores(normalized: np.ndarray, doc: Document,
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


def _mean_path_gradients(params: ModelParams, start, delta: np.ndarray,
                         classes: np.ndarray, steps: int) -> np.ndarray:
    """Mean of d(logit)/d(pooled) over the midpoint path from the pooled
    baseline ``start`` to ``start + delta``, one row per row of ``delta``
    and ``classes``."""
    alphas = (np.arange(1, steps + 1) - 0.5) / steps
    path = alphas[None, :, None] * delta[:, None, :]  # [rows, m, d]
    path += start
    grads = pooled_logit_gradients(params, path, classes[:, None])
    finite = np.isfinite(grads).all(axis=2)
    if not finite.all():
        _, bad = np.argwhere(~finite)[0]
        raise AttributionError(f"non-finite gradient at IG step {bad + 1}")
    return grads.mean(axis=1)


def top_word_scores(params: ModelParams, pieces: np.ndarray, corpus: Corpus,
                    pair_rows: np.ndarray, pooled: np.ndarray,
                    pair_classes: np.ndarray, steps: int, top_n: int):
    """The top ``top_n`` word scores of every (document, class) pair.

    Bit for bit what ``integrated_gradients`` (zero baseline),
    ``token_scores``, ``normalize_document``, ``word_scores`` and a sort by
    (-score, word) give pair by pair.  Pair ``p`` attributes class
    ``pair_classes[p]`` of document ``pair_rows[p]`` of ``corpus``, whose
    ``model.pool_documents`` row is ``pooled[p]``; ``pieces`` is the
    corpus's ``model.piece_rows``.  Returns ``(pair, word, score)``
    columns, pair after pair, each pair's words best first, with words as
    ids into ``corpus.words``.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    n_words = len(corpus.words)
    per_chunk = max(1, PATH_ROWS // steps)
    columns = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                np.empty(0))]
    for first in range(0, len(pair_rows), per_chunk):
        chunk = slice(first, first + per_chunk)
        tokens, counts = corpus.positions(pair_rows[chunk])
        n_pairs = counts.size
        # Token scores: x . mean gradient / T, summed over embedding columns.
        avg_grads = (_mean_path_gradients(params, 0.0, pooled[chunk],
                                          pair_classes[chunk], steps)
                     / counts[:, None])
        ends = np.cumsum(counts)
        token_pair = np.repeat(np.arange(n_pairs), counts)
        values = np.take(params.embedding, pieces[tokens], axis=0)
        values *= avg_grads[token_pair]
        scores = values.sum(axis=1)
        # L2 norm per pair, one BLAS dot each as normalize_document takes it.
        norms = np.array([np.linalg.norm(scores[end - count:end])
                          for end, count in zip(ends.tolist(),
                                                counts.tolist())])
        norms[norms == 0.0] = 1.0
        scores /= norms[token_pair]
        # Max per (pair, word), then the top n of each pair by (-score, word).
        keys = token_pair * n_words + corpus.word_ids[tokens]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        best = np.maximum.reduceat(scores[order], starts)
        group_pair, group_word = np.divmod(keys[starts], n_words)
        ranked = np.lexsort((group_word, -best, group_pair))
        per_pair = np.bincount(group_pair, minlength=n_pairs)
        rank = (np.arange(ranked.size)
                - np.repeat(np.cumsum(per_pair) - per_pair, per_pair))
        kept = ranked[rank < top_n]
        columns.append((first + group_pair[kept], group_word[kept],
                        best[kept]))
    pair, word, score = (np.concatenate(c) for c in zip(*columns))
    return pair, word, score
