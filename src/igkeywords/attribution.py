"""Integrated Gradients over input token embeddings, plus the reduction
chain to word-level scores: sum embedding dims per token, L2-normalize
per pair, take the max over a word's subword pieces.

``pair_attributions`` is the one IG: the midpoint rule from a zero
baseline for any number of (corpus row, class) pairs at once.
``top_word_scores`` runs it, the reduction chain and the top-n pick for
every attributed pair of a round, a chunk of pairs at a time.  No chunk
sorts its tokens: ``Corpus.word_order``, computed once per corpus, holds
each document's pieces in word order and the first piece of each word,
so a pair's subword max is one ``np.maximum.reduceat`` over its tokens
gathered in that order.  The top n of each pair come from one sort of a
unique integer key per (pair, word) group, built from the pair, the
dense rank of the group's score and the group's place in word order.
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


def _mean_path_gradients(params: ModelParams, delta: np.ndarray,
                         classes: np.ndarray, steps: int) -> np.ndarray:
    """Mean of d(logit)/d(pooled) over the midpoint path from the zero
    baseline to ``delta``, one row per row of ``delta`` and ``classes``.

    Any non-finite gradient makes its row's mean non-finite, so only the
    [rows, d] mean is checked; the [rows, m, d] gradients are scanned only
    to name the first bad step.
    """
    alphas = (np.arange(1, steps + 1) - 0.5) / steps
    path = alphas[None, :, None] * delta[:, None, :]  # [rows, m, d]
    grads = pooled_logit_gradients(params, path, classes[:, None])
    mean = grads.mean(axis=1)
    if not np.isfinite(mean).all():
        finite = np.isfinite(grads).all(axis=2)
        if not finite.all():
            _, bad = np.argwhere(~finite)[0]
            raise AttributionError(f"non-finite gradient at IG step {bad + 1}")
    return mean


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
    avg_grads = (_mean_path_gradients(params, pooled, pair_classes, steps)
                 / counts[:, None])
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
    word_order, first_of_word = corpus.word_order
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
        # Max per (pair, word).  A pair's tokens are its document's pieces
        # in place, so the document's cached word order, shifted from the
        # document's place in the corpus to the pair's in the chunk, sorts
        # them, and the cached flags start its word groups.
        in_order = word_order[tokens]
        starts = np.flatnonzero(first_of_word[tokens])
        best = np.maximum.reduceat(
            scores[in_order - tokens + np.arange(tokens.size)], starts)
        group_pair = token_pair[starts]
        group_word = corpus.word_ids[in_order[starts]]
        # The top n of each pair by (-score, word), from one sort of a
        # unique key per group that orders (pair, dense rank of -score,
        # group); a pair's groups already come in word order.  The pair
        # whose groups start at group f owns keys f * n_ranks on: its i-th
        # group, of rank r, gets f * n_ranks + r * (its group count) + i.
        _, dense = np.unique(-best, return_inverse=True)
        n_groups, n_ranks = best.size, int(dense.max()) + 1
        if n_groups * n_ranks > np.iinfo(np.int64).max:
            raise OverflowError("too many word groups in one chunk to rank")
        per_pair = np.bincount(group_pair, minlength=n_pairs)
        pair_first = np.repeat(np.cumsum(per_pair) - per_pair, per_pair)
        in_pair = np.arange(n_groups) - pair_first
        ranked = np.argsort(pair_first * n_ranks + dense * per_pair[group_pair]
                            + in_pair)
        # The sort keeps each pair's block of groups in place, so in_pair
        # is also the rank of ranked's entries within their pair.
        kept = ranked[in_pair < top_n]
        columns.append((first + group_pair[kept], group_word[kept],
                        best[kept]))
    pair, word, score = (np.concatenate(c) for c in zip(*columns))
    return pair, word, score
