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
``embedding[t] @ (g / T)``, without forming them: per batch of
``model.DOC_BATCH`` pairs, one table of every pair's weights dotted with
every model row the batch uses (``model.used_rows``), from which each
token takes its own.  ``top_word_scores`` adds the normalization, the
subword max and the top-n pick.  No batch sorts its tokens:
``Corpus.word_order``, computed once per corpus, holds each document's
pieces in word order and the first piece of each word, so a pair's
subword max is one ``np.maximum.reduceat`` over its tokens gathered in
that order.  The top n of each pair come from one sort of a unique
integer key per (pair, word) group, built from the pair, the dense rank
of the group's score and the group's place in word order.
"""

from __future__ import annotations

import numpy as np

from . import model
from .corpus import Corpus
from .model import ModelParams, path_mean_gradients


class AttributionError(RuntimeError):
    """Non-finite values encountered during attribution."""


def _pair_error(what: str, corpus: Corpus, pair_rows: np.ndarray,
                pair_classes: np.ndarray, p: int) -> AttributionError:
    """An ``AttributionError`` for a non-finite ``what`` of pair ``p``,
    naming its document and class."""
    return AttributionError(
        f"non-finite {what} for document {corpus.doc_ids[pair_rows[p]]!r}, "
        f"class {corpus.label_space.classes[pair_classes[p]]!r}")


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
        raise _pair_error("IG gradient", corpus, pair_rows, pair_classes,
                          bad[0])
    counts = corpus.offsets[pair_rows + 1] - corpus.offsets[pair_rows]
    weights /= counts[:, None]
    return weights


def token_scores(params: ModelParams, pieces: np.ndarray, corpus: Corpus,
                 pair_rows: np.ndarray, weights: np.ndarray):
    """Each pair's token scores, its IG values summed over the embedding
    dimensions, ``model.DOC_BATCH`` pairs at a time.

    ``weights`` are the ``pair_weights`` of the pairs and ``pieces`` the
    corpus's ``model.piece_rows``.  A batch's scores come from one
    [pairs, k] table of every pair's weights dotted with each of the k
    model rows the batch uses.  Yields, per batch: its first pair, the
    positions of its tokens in ``corpus.piece_ids``/``word_ids`` pair after
    pair, each of its pairs' token counts, the batch's pair of each token,
    and the tokens' scores.
    """
    for first in range(0, pair_rows.size, model.DOC_BATCH):
        batch = slice(first, first + model.DOC_BATCH)
        tokens, counts = corpus.positions(pair_rows[batch])
        used, columns = model.used_rows(pieces[tokens],
                                        params.embedding.shape[0])
        table = weights[batch] @ params.embedding[used].T
        token_pair = np.repeat(np.arange(counts.size), counts)
        yield first, tokens, counts, token_pair, table[token_pair, columns]


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
    ``corpus.words``.  A non-finite norm (scores past about 1.3e154
    overflow their squares) raises ``AttributionError`` naming the pair.
    """
    word_order, first_of_word = corpus.word_order
    weights = pair_weights(params, corpus, pair_rows, pooled, pair_classes)
    columns = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                np.empty(0))]
    for first, tokens, counts, token_pair, scores in token_scores(
            params, pieces, corpus, pair_rows, weights):
        n_pairs = counts.size
        # L2 norm per pair, its squares added in token order
        with np.errstate(over="ignore"):  # a non-finite norm raises below
            norms = np.sqrt(np.bincount(token_pair, weights=scores * scores,
                                        minlength=n_pairs))
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise _pair_error("token-score norm", corpus, pair_rows,
                              pair_classes, first + bad[0])
        norms[norms == 0.0] = 1.0
        scores /= norms[token_pair]
        # Max per (pair, word).  A pair's tokens are its document's pieces
        # in place, so the document's cached word order, shifted from the
        # document's place in the corpus to the pair's in the batch, sorts
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
            raise OverflowError("too many word groups in one batch to rank")
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
