"""Integrated Gradients over input token embeddings, plus the reduction
chain to word-level scores: sum embedding dims per token, L2-normalize
per pair, take the max over a word's subword pieces.

``pair_attributions`` is the one IG: the midpoint rule from a zero
baseline for any number of (corpus row, class) pairs at once.
``top_word_scores`` runs it, the reduction chain and the top-n pick for
every attributed pair of a round, a chunk of pairs at a time.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus, ValidationError
from .model import ModelParams, pooled_logit_gradients

#: IG path rows (pairs x steps) per chunk of ``top_word_scores``.  It bounds
#: the chunk's temporaries at a few MB whatever the number of pairs: at
#: 16384 rows a train-bound run peaked about 7 MB higher, and no faster.
PATH_ROWS = 4096


class AttributionError(RuntimeError):
    """Non-finite values encountered during attribution."""


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


def pair_attributions(params: ModelParams, pieces: np.ndarray, corpus: Corpus,
                      pair_rows: np.ndarray, pooled: np.ndarray,
                      pair_classes: np.ndarray, steps: int):
    """Midpoint-rule IG with a zero baseline for every (document, class)
    pair.

    Pair ``p`` attributes class ``pair_classes[p]`` of document
    ``pair_rows[p]`` of ``corpus``, whose ``model.pool_documents`` row is
    ``pooled[p]``; ``pieces`` is the corpus's ``model.piece_rows``.  Mean
    pooling makes d(logit)/d(token) the pooled gradient over T at every
    point of the path, so each pair's ``steps`` gradient evaluations are
    one batched pass over interpolated pooled vectors.  Returns the
    [tokens, d] IG values, pair after pair, the positions of those tokens
    in ``corpus.piece_ids``/``word_ids`` and each pair's token count.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    tokens, counts = corpus.positions(pair_rows)
    avg_grads = (_mean_path_gradients(params, 0.0, pooled, pair_classes,
                                      steps) / counts[:, None])
    values = np.take(params.embedding, pieces[tokens], axis=0)
    values *= avg_grads[np.repeat(np.arange(counts.size), counts)]
    return values, tokens, counts


def top_word_scores(params: ModelParams, pieces: np.ndarray, corpus: Corpus,
                    pair_rows: np.ndarray, pooled: np.ndarray,
                    pair_classes: np.ndarray, steps: int, top_n: int):
    """The top ``top_n`` word scores of every (document, class) pair.

    The pairs and ``pieces`` are those of ``pair_attributions``.  A pair's
    token scores are its IG values summed over the embedding dimensions,
    divided by their L2 norm (an all-zero vector stays zero); a word's
    score is the max over its pieces, and the words are ranked by
    (-score, word).  Returns ``(pair, word, score)`` columns, pair after
    pair, each pair's words best first, with words as ids into
    ``corpus.words``.
    """
    n_words = len(corpus.words)
    per_chunk = max(1, PATH_ROWS // steps)
    columns = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                np.empty(0))]
    for first in range(0, len(pair_rows), per_chunk):
        chunk = slice(first, first + per_chunk)
        values, tokens, counts = pair_attributions(
            params, pieces, corpus, pair_rows[chunk], pooled[chunk],
            pair_classes[chunk], steps)
        n_pairs = counts.size
        token_pair = np.repeat(np.arange(n_pairs), counts)
        scores = values.sum(axis=1)
        # L2 norm per pair, one BLAS dot each, as np.linalg.norm of the
        # pair's token scores takes it.
        ends = np.cumsum(counts)
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
