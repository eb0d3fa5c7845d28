"""Integrated Gradients over input token embeddings, plus the reduction
chain to word-level scores: sum embedding dims per token, L2-normalize
per pair, take the max over a word's subword pieces.

The model pools by the mean, so d(logit)/d(token) is the pooled gradient
over the token count T at every point of the path, and IG from a zero
baseline gives token t the values ``embedding[t] * g / T``, where ``g`` is
the pooled gradient's mean over the path.  ``model.path_mean_gradients``
integrates that path exactly; ``pair_weights`` is ``g / T`` for any number
of (corpus row, class) pairs at once, and it is the one IG.

``token_scores`` sums each token's values over the embedding dimensions,
``embedding[t] @ (g / T)``, without forming them: per chunk of pairs, one
table of every model row's dot with every pair's weights, from which each
token takes its own.  ``top_word_scores`` adds the normalization, the
subword max and the top-n pick.  No chunk sorts its tokens:
``Corpus.word_order``, computed once per corpus, holds each document's
pieces in word order and the first piece of each word, so a pair's
subword max is one ``np.maximum.reduceat`` over its tokens gathered in
that order.  The top n of each pair come from one sort of a unique
integer key per (pair, word) group, built from the pair, the dense rank
of the group's score and the group's place in word order.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus, budget_chunks
from .model import ModelParams, path_mean_gradients

#: Score-table cells plus tokens per chunk of ``token_scores``: a pair
#: takes a table cell for every model row (vocab+1) and one per token.  It
#: bounds a chunk's temporaries at 0.5 MB each, whatever the number of
#: pairs; a chunk holds at least one pair.  On an explain-bound round (473
#: pairs) budgets from 2**15 to 2**17 took the same time, and one chunk of
#: every pair raised the run's peak RSS by 6 MB.
CHUNK_CELLS = 2**16


class AttributionError(RuntimeError):
    """Non-finite values encountered during attribution."""


def pair_weights(params: ModelParams, corpus: Corpus, pair_rows: np.ndarray,
                 pooled: np.ndarray, pair_classes: np.ndarray) -> np.ndarray:
    """IG with a zero baseline of every (document, class) pair, as one
    [pairs, d] row of weights per pair: ``g / T``, the path-mean pooled
    gradient over the document's token count.

    Pair ``p`` attributes class ``pair_classes[p]`` of document
    ``pair_rows[p]`` of ``corpus``, whose ``model.pool_documents`` row is
    ``pooled[p]``.  Each token of the pair has the IG values
    ``embedding[token] * weights[p]``.  A non-finite gradient raises
    ``AttributionError`` naming the first such pair's document and class.
    """
    weights = path_mean_gradients(params, pooled, pair_classes)
    bad = np.flatnonzero(~np.isfinite(weights).all(axis=1))
    if bad.size:
        p = bad[0]
        raise AttributionError(
            f"non-finite IG gradient for document "
            f"{corpus.doc_ids[pair_rows[p]]!r}, class "
            f"{corpus.label_space.classes[pair_classes[p]]!r}")
    counts = corpus.offsets[pair_rows + 1] - corpus.offsets[pair_rows]
    weights /= counts[:, None]
    return weights


def token_scores(params: ModelParams, pieces: np.ndarray, corpus: Corpus,
                 pair_rows: np.ndarray, weights: np.ndarray):
    """Each pair's token scores, its IG values summed over the embedding
    dimensions, a chunk of pairs at a time.

    ``weights`` are the ``pair_weights`` of the pairs and ``pieces`` the
    corpus's ``model.piece_rows``.  A chunk's scores come from one
    [pairs, vocab+1] table of every pair's weights dotted with every model
    row; a chunk holds at most CHUNK_CELLS table cells plus tokens.
    Yields, per chunk: its first pair, the positions of its tokens in
    ``corpus.piece_ids``/``word_ids`` pair after pair, each of its pairs'
    token counts, the chunk's pair of each token, and the tokens' scores.
    """
    counts = corpus.offsets[pair_rows + 1] - corpus.offsets[pair_rows]
    costs = np.cumsum(counts + params.embedding.shape[0])
    for first, stop in budget_chunks(costs, CHUNK_CELLS):
        tokens, chunk_counts = corpus.positions(pair_rows[first:stop])
        table = weights[first:stop] @ params.embedding.T
        token_pair = np.repeat(np.arange(stop - first), chunk_counts)
        yield (first, tokens, chunk_counts, token_pair,
               table[token_pair, pieces[tokens]])


def top_word_scores(params: ModelParams, pieces: np.ndarray, corpus: Corpus,
                    pair_rows: np.ndarray, pooled: np.ndarray,
                    pair_classes: np.ndarray, top_n: int):
    """The top ``top_n`` word scores of every (document, class) pair.

    The pairs are those of ``pair_weights`` and ``pieces`` the corpus's
    ``model.piece_rows``.  A pair's token scores (``token_scores``) are
    divided by their L2 norm (an all-zero vector stays zero); a word's
    score is the max over its pieces, and the words are ranked by
    (-score, word).  Returns ``(pair, word, score)`` columns, pair after
    pair, each pair's words best first, with words as ids into
    ``corpus.words``.
    """
    word_order, first_of_word = corpus.word_order
    weights = pair_weights(params, corpus, pair_rows, pooled, pair_classes)
    columns = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                np.empty(0))]
    for first, tokens, counts, token_pair, scores in token_scores(
            params, pieces, corpus, pair_rows, weights):
        n_pairs = counts.size
        # L2 norm per pair, its squares added in token order
        norms = np.sqrt(np.bincount(token_pair, weights=scores * scores,
                                    minlength=n_pairs))
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
