"""Small differentiable multilabel text classifier in plain numpy.

Architecture: subword embedding lookup -> mean pooling -> one hidden
layer (tanh by default) -> per-class logits (``logits``).  The backward
pass is written out by hand so that gradients with respect to the input
token embeddings are exact and cheap.

Training works a batch at a time with no per-document Python: the mean
pooling and the embedding-gradient scatter are each one ``np.bincount``
over the batch's pieces, and the parameters, gradients and Adam moments
each sit in one flat buffer, so an optimizer step is one elementwise
update.  One kernel, ``_pool_sums``, pools for both training and
``pool_documents``: its bincount bins are gathered from a precomputed
table of bin numbers into reused buffers, and the gradient scatter
gathers its bins from a second table the shape of the embedding.
Documents reach the model as rows of the corpus: ``piece_rows``
maps every corpus piece to its model row once, and ``Corpus.positions``
picks a set of documents' pieces out of that array.  ``pool_documents``
with ``predict_pooled`` predict a whole validation set at once.  Mean
pooling makes the model a function of the pooled vector alone, so
``logits`` is the one forward pass, for any batch of pooled vectors, and
``path_mean_gradients`` integrates its input gradient along the straight
path from the zero vector in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, ValidationError, budget_chunks


#: Piece cells (pieces x d) per chunk of ``pool_documents``: it bounds
#: each of the chunk's three [pieces, d]-sized buffers at 0.5 MB, whatever
#: the number of documents; a chunk holds at least one document.  On an
#: explain-bound validation set (500 documents, 110k pieces, d=16) budgets
#: of 2**15 and 2**16 were fastest, 2**14 and 2**17 took 15-40% longer,
#: and one chunk of every document 2.5 times as long.
POOL_CELLS = 2**16


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.01
    batch_size: int = 32
    d: int = 16
    h: int = 32
    weight_init_scale: float = 0.1
    optimizer: str = "adam"  # "sgd" or "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    decision_threshold: float = 0.5
    activation: str = "tanh"  # "tanh" or "identity"
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.d, self.h) <= 0:
            raise ValidationError("epochs, batch_size, d, h must be positive")
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be >= 0")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValidationError("decision_threshold must lie in (0, 1)")
        if self.optimizer not in ("sgd", "adam"):
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")
        if self.activation not in ("tanh", "identity"):
            raise ValidationError(f"unknown activation {self.activation!r}")


@dataclass
class ModelParams:
    embedding: np.ndarray       # [vocab+1, d]; last row is the unknown piece
    hidden_weights: np.ndarray  # [d, h]
    hidden_bias: np.ndarray     # [h]
    output_weights: np.ndarray  # [h, C]
    output_bias: np.ndarray     # [C]
    vocab: dict[str, int]
    activation: str = "tanh"

    @property
    def unk_index(self) -> int:
        return len(self.vocab)

    @property
    def num_classes(self) -> int:
        return self.output_bias.shape[0]


def build_vocab(corpus: Corpus, rows: np.ndarray) -> dict[str, int]:
    """Map each subword piece of the documents ``rows`` of ``corpus`` to a
    contiguous index, in sorted piece order."""
    positions, _ = corpus.positions(rows)
    present = np.bincount(corpus.piece_ids[positions],
                          minlength=len(corpus.pieces))
    return {corpus.pieces[g]: i
            for i, g in enumerate(np.flatnonzero(present).tolist())}


def init_model(vocab: dict[str, int], num_classes: int,
               config: TrainConfig) -> ModelParams:
    """Uniform weights in [-scale, scale], zero biases; seeded."""
    if not vocab:
        raise ValidationError("vocabulary must be non-empty")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed & (2**64 - 1)))
    s = config.weight_init_scale
    def uniform(*shape):
        return rng.uniform(-s, s, size=shape)
    return ModelParams(
        embedding=uniform(len(vocab) + 1, config.d),
        hidden_weights=uniform(config.d, config.h),
        hidden_bias=np.zeros(config.h),
        output_weights=uniform(config.h, num_classes),
        output_bias=np.zeros(num_classes),
        vocab=dict(vocab),
        activation=config.activation,
    )


def _activate(params: ModelParams, pre: np.ndarray, out=None) -> np.ndarray:
    """The hidden activation of ``pre``, written into ``out`` if given."""
    if params.activation == "tanh":
        return np.tanh(pre, out=out)
    return np.positive(pre, out=out)  # the identity


def _activation_grad(params: ModelParams, post: np.ndarray, out=None):
    """The activation's derivative from its output ``post``, into ``out``."""
    if out is None:
        out = np.empty_like(post)
    if params.activation == "tanh":
        np.square(post, out=out)
        np.subtract(1.0, out, out=out)
    else:  # the identity's derivative
        out.fill(1.0)
    return out


def logits(params: ModelParams, pooled: np.ndarray):
    """The hidden and output layers: [..., C] logits of [..., d] pooled
    vectors, and the [..., h] hidden activations they come from."""
    hidden = _activate(params, pooled @ params.hidden_weights
                       + params.hidden_bias)
    return hidden @ params.output_weights + params.output_bias, hidden


def _through_hidden(params: ModelParams, slopes: np.ndarray,
                    class_index) -> np.ndarray:
    """d(logit_c)/d(pooled) from [..., h] activation slopes, which it
    overwrites: ``W_h (w_c * slopes)``."""
    slopes *= params.output_weights.T[class_index]
    return slopes @ params.hidden_weights.T


def pooled_logit_gradients(params: ModelParams, pooled_batch: np.ndarray,
                           class_index) -> np.ndarray:
    """d(logit_c)/d(pooled) for a [..., d] batch of pooled vectors, the
    model's input gradient.

    ``class_index`` is one class for the whole batch, or an integer array
    that broadcasts against the batch's leading axes.  The activation and
    its derivative are taken in place, in one buffer.
    """
    d_pre = pooled_batch @ params.hidden_weights
    d_pre += params.hidden_bias
    _activate(params, d_pre, out=d_pre)
    _activation_grad(params, d_pre, out=d_pre)
    return _through_hidden(params, d_pre, class_index)


def path_mean_slopes(params: ModelParams, a: np.ndarray) -> np.ndarray:
    """The mean of the activation's derivative at ``alpha * a + b`` over
    alpha in [0, 1], for [..., h] changes ``a`` of the hidden
    pre-activation from the hidden bias ``b``.

    The identity's is 1.  Tanh's is ``(tanh(a + b) - tanh(b)) / a``, which
    equals ``sinh(a) / (a cosh(a + b) cosh(b))``; with ``c = a + b`` that
    is ``2 (1 - exp(-2|a|)) / |a| * exp(|a| - |c| - |b|)`` over
    ``(1 + exp(-2|c|)) (1 + exp(-2|b|))``.  The exponent is
    ``-2 min(|c|, |b|)`` when c and b share a sign and 0 otherwise, never
    positive, so the form neither cancels nor overflows: it stays finite
    and >= 0 for any finite ``a``, and at ``a = 0`` it is ``1 / cosh(b)^2``.
    """
    if params.activation != "tanh":
        return np.ones_like(a)
    abs_a = np.abs(a)
    abs_b = np.abs(params.hidden_bias)
    c = a + params.hidden_bias
    abs_c = np.abs(c)
    # 2 (1 - exp(-2|a|)) / |a|, whose limit at a = 0 is 4
    slopes = np.full_like(abs_a, 4.0)
    np.divide(-2.0 * np.expm1(-2.0 * abs_a), abs_a, out=slopes,
              where=abs_a > 0.0)
    same_sign = np.sign(c) == np.sign(params.hidden_bias)
    slopes *= np.exp(-2.0 * np.minimum(abs_c, abs_b) * same_sign)
    slopes /= (1.0 + np.exp(-2.0 * abs_c)) * (1.0 + np.exp(-2.0 * abs_b))
    return slopes


def path_mean_gradients(params: ModelParams, pooled: np.ndarray,
                        class_index) -> np.ndarray:
    """The mean of d(logit_c)/d(pooled) over the straight path from the
    zero vector to each [..., d] pooled vector: the path integral of
    integrated gradients, exactly, from one [..., h] pass.

    Along the path the hidden pre-activation is ``alpha * a + b`` with
    ``a = pooled @ W_h``, so the mean gradient is ``W_h`` times
    ``w_c * path_mean_slopes``.  ``class_index`` is as for
    ``pooled_logit_gradients``.
    """
    return _through_hidden(
        params, path_mean_slopes(params, pooled @ params.hidden_weights),
        class_index)


def _bce_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    # stable: max(z,0) - z*y + log(1 + exp(-|z|))
    per_cell = (np.maximum(logits, 0.0) - logits * targets
                + np.log1p(np.exp(-np.abs(logits))))
    return float(per_cell.mean())


def piece_rows(params: ModelParams, corpus: Corpus) -> np.ndarray:
    """The model row of every piece of ``corpus``, aligned with
    ``corpus.piece_ids``: one remap array from the corpus's piece table to
    the model's rows, unknown pieces to ``unk``."""
    remap = np.full(len(corpus.pieces), params.unk_index, dtype=np.intp)
    index = corpus.piece_index
    for piece, row in params.vocab.items():
        if piece in index:
            remap[index[piece]] = row
    return remap[corpus.piece_ids]


def _positions(corpus: Corpus, rows: np.ndarray):
    """``corpus.positions(rows)``; every document must have a piece."""
    positions, counts = corpus.positions(rows)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        doc_id = corpus.doc_ids[rows[empty[0]]]
        raise ValidationError(f"document {doc_id!r} has no subwords")
    return positions, counts


def _pool_sums(embedding: np.ndarray, model_rows: np.ndarray,
               counts: np.ndarray, cells, slots: np.ndarray):
    """[docs, d] sums of the embedding rows ``model_rows``, document after
    document, ``counts[i]`` rows for document i, and the document of each
    of those rows.

    ``cells`` is an (int, float) pair of [rows, d] buffers with a row for
    each of the pieces, which take the bins and values of one
    ``np.bincount``; ``slots`` is a [docs, d] table of bin numbers,
    ``arange(docs * d)``, with a row for each of the documents.  Both are
    gathered, not computed, and bincount adds each bin's cells in input
    order, so a row's sum is the sequential sum of ``mean(axis=0)``.
    """
    n_docs, n_cells = counts.size, model_rows.size
    doc_of_piece = np.repeat(np.arange(n_docs), counts)
    bins, values = cells[0][:n_cells], cells[1][:n_cells]
    np.take(slots, doc_of_piece, axis=0, out=bins, mode="clip")
    np.take(embedding, model_rows, axis=0, out=values, mode="clip")
    sums = np.bincount(bins.ravel(), weights=values.ravel(),
                       minlength=n_docs * embedding.shape[1])
    return sums.reshape(n_docs, embedding.shape[1]), doc_of_piece


def _pool_tables(pieces: int, docs: int, d: int):
    """The buffers of ``_pool_sums`` for up to ``pieces`` pieces of up to
    ``docs`` documents: (int, float) [pieces, d] cells and [docs, d]
    slots."""
    cells = np.empty((pieces, d), dtype=np.intp), np.empty((pieces, d))
    return cells, np.arange(docs * d).reshape(docs, d)


def pool_documents(params: ModelParams, pieces: np.ndarray, corpus: Corpus,
                   rows: np.ndarray) -> np.ndarray:
    """Mean piece embedding of each document ``rows`` of ``corpus``,
    [docs, d]; ``pieces`` is the corpus's ``piece_rows``.

    The documents are pooled by ``_pool_sums`` a chunk at a time, a chunk
    holding whole documents and at most POOL_CELLS piece cells (a longer
    document is a chunk of its own), so its [pieces, d] buffers are
    allocated once and stay small.  Every row equals that document's
    ``mean(axis=0)`` bit for bit.
    """
    d = params.embedding.shape[1]
    budget = POOL_CELLS // d  # pieces per chunk
    positions, counts = _positions(corpus, rows)
    ends = np.cumsum(counts)
    # Every document has a piece, so a chunk has no more documents than
    # pieces, and the same bound sizes the cells and the slots.
    most = min(positions.size, max(budget, int(counts.max(initial=0))))
    cells, slots = _pool_tables(most, most, d)
    pooled = np.empty((rows.size, d))
    for first, stop in budget_chunks(ends, budget):
        chunk = positions[ends[first] - counts[first]:ends[stop - 1]]
        pooled[first:stop] = _pool_sums(params.embedding, pieces[chunk],
                                        counts[first:stop], cells, slots)[0]
    pooled /= counts[:, None]
    return pooled


def predict_pooled(params: ModelParams, pooled: np.ndarray,
                   threshold: float) -> np.ndarray:
    """[docs, C] mask of sigmoid probabilities >= threshold, from the pooled
    vectors of ``pool_documents``."""
    out, _ = logits(params, pooled)
    return 1.0 / (1.0 + np.exp(-out)) >= threshold


def _step_tables(embedding: np.ndarray, counts: np.ndarray,
                 batch_size: int):
    """The buffers of ``batch_loss_and_grads`` for any batch of at most
    ``batch_size`` documents with the piece counts ``counts``: the
    ``_pool_tables`` of the largest such batch, and the embedding's
    slots, a table of its cells' bin numbers."""
    most = int(np.sort(counts)[-batch_size:].sum())
    cells, slots = _pool_tables(most, batch_size, embedding.shape[1])
    return cells, slots, np.arange(embedding.size).reshape(embedding.shape)


def batch_loss_and_grads(params: ModelParams, pieces: np.ndarray,
                         corpus: Corpus, batch: np.ndarray, tables=None):
    """Mean BCE over the documents ``batch`` (rows of ``corpus``) plus
    gradients for every weight; ``pieces`` is the corpus's ``piece_rows``.

    Pooling (``_pool_sums``) and the embedding-gradient scatter are each
    one ``np.bincount`` over the batch's pieces, whose bins are gathered
    from tables of bin numbers.  ``bincount`` adds in input order, so both
    perform the same sequential sums as a per-document ``mean(axis=0)`` and
    ``np.add.at``, bit for bit; the gradients come keyed by parameter name.
    ``tables`` are the ``_step_tables`` of a batch size at least the
    batch's, which ``train`` makes once and passes to every step, so no
    step allocates [pieces, d] arrays; without them the step makes its
    own.
    """
    embedding = params.embedding
    positions, counts = corpus.positions(batch)
    batch_pieces = pieces[positions]
    if tables is None:
        tables = _step_tables(embedding, counts, batch.size)
    cells, pool_slots, embedding_slots = tables
    pooled, row_of_piece = _pool_sums(embedding, batch_pieces, counts, cells,
                                      pool_slots)
    pooled /= counts[:, None]

    z, hidden = logits(params, pooled)
    y = corpus.labels[batch]
    loss = _bce_from_logits(z, y)

    probs = 1.0 / (1.0 + np.exp(-z))
    d_logits = (probs - y) / z.size
    d_w_out = hidden.T @ d_logits
    d_b_out = d_logits.sum(axis=0)
    d_post = d_logits @ params.output_weights.T
    d_pre = d_post * _activation_grad(params, hidden)
    d_w_hid = pooled.T @ d_pre
    d_b_hid = d_pre.sum(axis=0)
    d_pooled = d_pre @ params.hidden_weights.T

    # each piece's gradient, binned by its (piece, column) cell of embedding
    bins, values = cells[0][:positions.size], cells[1][:positions.size]
    np.take(d_pooled / counts[:, None], row_of_piece, axis=0, out=values,
            mode="clip")
    np.take(embedding_slots, batch_pieces, axis=0, out=bins, mode="clip")
    d_emb = np.bincount(bins.ravel(), weights=values.ravel(),
                        minlength=embedding.size).reshape(embedding.shape)

    return loss, {"embedding": d_emb, "hidden_weights": d_w_hid,
                  "hidden_bias": d_b_hid, "output_weights": d_w_out,
                  "output_bias": d_b_out}


_PARAM_NAMES = ("embedding", "hidden_weights", "hidden_bias",
                "output_weights", "output_bias")


def train(params: ModelParams, corpus: Corpus, rows: np.ndarray,
          config: TrainConfig) -> ModelParams:
    """Minimize mean per-class BCE over the documents ``rows`` of ``corpus``
    with seeded shuffling; returns new params.

    The five parameters, their gradients and the Adam moments each live in
    one flat buffer (the returned fields are views into it), so every
    optimizer step is one elementwise update over all weights.
    """
    if not len(rows):
        raise ValidationError("training corpus is empty")
    arrays = [getattr(params, k) for k in _PARAM_NAMES]
    flat = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays]).tolist()
    params = replace(params, vocab=dict(params.vocab), **{
        k: flat[end - a.size:end].reshape(a.shape)
        for k, a, end in zip(_PARAM_NAMES, arrays, ends)})
    grad = np.zeros_like(flat)
    m_state, v_state = np.zeros_like(flat), np.zeros_like(flat)
    pieces = piece_rows(params, corpus)
    counts = _positions(corpus, rows)[1]
    n_docs = len(rows)
    # Buffers for the largest batch, reused by every step: fresh
    # [pieces, d] arrays per step get returned to the OS by the allocator
    # and faulted in again on the next step.
    tables = _step_tables(params.embedding, counts, config.batch_size)
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed & (2**64 - 1), 1]))
    step = 0

    for epoch in range(config.epochs):
        order = rng.permutation(n_docs)
        for start in range(0, n_docs, config.batch_size):
            batch = rows[order[start:start + config.batch_size]]
            loss, grads = batch_loss_and_grads(params, pieces, corpus, batch,
                                               tables=tables)
            np.concatenate([grads[k].ravel() for k in _PARAM_NAMES], out=grad)
            del grads  # not held while the next step builds its own
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch + 1} "
                    f"(learning_rate={config.learning_rate})")
            if config.optimizer == "sgd":
                flat -= config.learning_rate * grad
            else:
                step += 1
                b1, b2 = config.adam_beta1, config.adam_beta2
                m_state = b1 * m_state + (1 - b1) * grad
                v_state = b2 * v_state + (1 - b2) * grad ** 2
                m_hat = m_state / (1 - b1 ** step)
                v_hat = v_state / (1 - b2 ** step)
                flat -= (config.learning_rate * m_hat
                         / (np.sqrt(v_hat) + config.adam_eps))
    return params

