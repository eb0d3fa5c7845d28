"""Integrated Gradients over input token embeddings, plus the reduction
chain to word-level scores: sum embedding dims per token, L2-normalize
per document, take the max over a word's subword pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Document, ValidationError
from .model import (ModelParams, forward_from_embeddings, pooled_logit_gradients,
                    token_ids)


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
                         baseline="zero", steps: int = 50) -> AttributionMatrix:
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
    n_tokens = inputs.shape[0]

    alphas = (np.arange(1, steps + 1) - 0.5) / steps
    pooled_base = base.mean(axis=0)
    pooled_delta = inputs.mean(axis=0) - pooled_base
    pooled_path = pooled_base + alphas[:, None] * pooled_delta  # [m, d]
    grads = pooled_logit_gradients(params, pooled_path, class_index)
    finite = np.isfinite(grads).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise AttributionError(f"non-finite gradient at IG step {bad + 1}")

    # d(logit)/d(inputs[i]) = d(logit)/d(pooled) / T at every path point
    avg_grad = grads.mean(axis=0) / n_tokens
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
