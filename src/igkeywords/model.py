"""Small differentiable multilabel text classifier in plain numpy.

Architecture: subword embedding lookup -> mean pooling -> one hidden
layer (tanh by default) -> per-class logits (``logits``).  The backward
pass is written out by hand so that gradients with respect to the input
token embeddings are exact and cheap.  ``init_model`` and ``train`` take
their seed as an argument, so each round of a run passes its own.

Mean pooling makes the model a linear function of a bag-of-pieces
matrix.  Every batch of documents works over the distinct model rows it
uses (``used_rows``): ``_pool`` counts each document's pieces over those
rows with one ``np.bincount``, so the pooled vectors are one matrix
product with those embedding rows, and the embedding gradient one product
with its transpose.  That product pools for both training
(``batch_loss_and_grads``) and ``pool_documents``, which walks its
documents in batches of DOC_BATCH; ``attribution.token_scores`` takes its
score tables over the same columns.  ``train`` minimizes the loss with
Adam; the parameters, gradients and Adam moments each sit in one flat
buffer, so a step is one elementwise update, done in place.  The moments
are kept scaled by ``1 / (1 - beta)``, which moves Adam's bias
corrections into two scalars, in the order Kingma & Ba give after their
Algorithm 1: a step makes one division over the weights, not three.

A model's vocabulary is the ascending corpus piece ids its embedding
rows stand for, so it means something only next to that corpus.
Documents reach the model as rows of the corpus: ``piece_rows`` maps
every corpus piece to its model row with one scatter, and
``Corpus.positions`` picks a set of documents' pieces out of that array.
``pool_documents`` with ``predict_pooled`` predict a whole validation set
at once.  Mean pooling makes the model a function of the pooled vector
alone, so ``logits`` is the one forward pass, for any batch of pooled
vectors, and ``path_mean_gradients``, the model's one input gradient,
integrates d(logit)/d(pooled) along the straight path from the zero
vector in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, ValidationError


#: Documents per batch of ``pool_documents`` and attributed pairs per
#: batch of ``attribution.token_scores``.  A batch's bag and score table
#: span only the model rows the batch uses, never the model's width.  On
#: the benchmark corpora (about 1,100 rows) the explain half of a round
#: took the same time at 32 and 64 (medians of 9: 22.2 and 22.5 ms on
#: explain-bound, 7.9 and 7.7 ms on train-bound) and 9-11% longer at 16.
#: On a random-word corpus (39,046 rows), where a batch's documents share
#: few rows and its bag grows with the square of its size, 64 took 1.15 to
#: 1.2 times as long as 16-32, and pooling alone twice as long.
DOC_BATCH = 32

#: Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    """The loss or, after the last update, a parameter is not finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.01
    batch_size: int = 32
    d: int = 16
    h: int = 32
    weight_init_scale: float = 0.1
    decision_threshold: float = 0.5
    activation: str = "tanh"  # "tanh" or "identity"

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.d, self.h) <= 0:
            raise ValidationError("epochs, batch_size, d, h must be positive")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValidationError("learning_rate must be finite and >= 0")
        if not (np.isfinite(self.weight_init_scale)
                and self.weight_init_scale >= 0):
            raise ValidationError("weight_init_scale must be finite and >= 0")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValidationError("decision_threshold must lie in (0, 1)")
        if self.activation not in ("tanh", "identity"):
            raise ValidationError(f"unknown activation {self.activation!r}")


@dataclass
class ModelParams:
    """Weights over the pieces of the corpus the model was built from, the
    only corpus its ascending piece ids ``vocab`` mean something next to."""

    embedding: np.ndarray       # [vocab+1, d]; last row is the unknown piece
    hidden_weights: np.ndarray  # [d, h]
    hidden_bias: np.ndarray     # [h]
    output_weights: np.ndarray  # [h, C]
    output_bias: np.ndarray     # [C]
    vocab: np.ndarray           # [vocab]; row i is corpus piece vocab[i]
    activation: str = "tanh"

    @property
    def unk_index(self) -> int:
        return len(self.vocab)

    @property
    def num_classes(self) -> int:
        return self.output_bias.shape[0]


def build_vocab(corpus: Corpus, rows: np.ndarray) -> np.ndarray:
    """The ascending ids of the pieces that the documents ``rows`` of
    ``corpus`` hold, in sorted piece order: a vocabulary that means
    something only next to ``corpus``."""
    positions, _ = corpus.positions(rows)
    present = np.bincount(corpus.piece_ids[positions],
                          minlength=len(corpus.pieces))
    return np.flatnonzero(present)


def init_model(vocab: np.ndarray, num_classes: int, config: TrainConfig,
               seed: int = 0) -> ModelParams:
    """A model with an embedding row per corpus piece id of ``vocab`` and
    one for the unknown piece: uniform weights in [-scale, scale], zero
    biases; drawn from ``seed``."""
    if not len(vocab):
        raise ValidationError("vocabulary must be non-empty")
    rng = np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1)))
    s = config.weight_init_scale
    def uniform(*shape):
        return rng.uniform(-s, s, size=shape)
    return ModelParams(
        embedding=uniform(len(vocab) + 1, config.d),
        hidden_weights=uniform(config.d, config.h),
        hidden_bias=np.zeros(config.h),
        output_weights=uniform(config.h, num_classes),
        output_bias=np.zeros(num_classes),
        vocab=vocab,
        activation=config.activation,
    )


def _activate(params: ModelParams, pre: np.ndarray) -> np.ndarray:
    """The hidden activation of ``pre``."""
    if params.activation == "tanh":
        return np.tanh(pre)
    return pre  # the identity


def _activation_grad(params: ModelParams, post: np.ndarray) -> np.ndarray:
    """The activation's derivative from its output ``post``."""
    if params.activation == "tanh":
        return 1.0 - np.square(post)
    return np.ones_like(post)  # the identity's derivative


def logits(params: ModelParams, pooled: np.ndarray):
    """The hidden and output layers: [..., C] logits of [..., d] pooled
    vectors, and the [..., h] hidden activations they come from."""
    hidden = _activate(params, pooled @ params.hidden_weights
                       + params.hidden_bias)
    return hidden @ params.output_weights + params.output_bias, hidden


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
    # Past about 9e307, -2|x| overflows to -inf, whose exp is the 0 wanted.
    with np.errstate(over="ignore"):
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
    integrated gradients, exactly, from one [..., h] pass.  It is the
    model's one input gradient.

    Along the path the hidden pre-activation is ``alpha * a + b`` with
    ``a = pooled @ W_h``, so the mean gradient is ``W_h`` times
    ``w_c * path_mean_slopes``.  ``class_index`` is one class for every
    vector, or an integer array that broadcasts against their leading
    axes.
    """
    slopes = path_mean_slopes(params, pooled @ params.hidden_weights)
    slopes *= params.output_weights.T[class_index]
    return slopes @ params.hidden_weights.T


def _bce_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    # stable: max(z,0) - z*y + log(1 + exp(-|z|))
    per_cell = (np.maximum(logits, 0.0) - logits * targets
                + np.log1p(np.exp(-np.abs(logits))))
    # the reduction ``mean`` runs, without its Python wrapper
    return float(np.add.reduce(per_cell, axis=None) / per_cell.size)


def piece_rows(params: ModelParams, corpus: Corpus) -> np.ndarray:
    """The model row of every piece of ``corpus``, the corpus the model was
    built from, aligned with ``corpus.piece_ids``: one scatter of the rows
    over the piece table, pieces outside the vocabulary to ``unk``.  A
    vocabulary id beyond the corpus's piece table raises
    ``ValidationError``: the model was built from another corpus."""
    if params.vocab[-1] >= len(corpus.pieces):
        raise ValidationError(
            f"the model's largest piece id, {params.vocab[-1]}, is not below "
            f"the corpus's {len(corpus.pieces)} pieces: the model was built "
            f"from another corpus")
    remap = np.full(len(corpus.pieces), params.unk_index, dtype=np.intp)
    remap[params.vocab] = np.arange(len(params.vocab))
    return remap[corpus.piece_ids]


def _positions(corpus: Corpus, rows: np.ndarray):
    """``corpus.positions(rows)``; every document must have a piece."""
    positions, counts = corpus.positions(rows)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        doc_id = corpus.doc_ids[rows[empty[0]]]
        raise ValidationError(f"document {doc_id!r} has no subwords")
    return positions, counts


def used_rows(model_rows: np.ndarray, width: int):
    """The distinct rows ``used`` (ascending) among ``model_rows``, rows of
    a model ``width`` rows wide, and the column in ``used`` of each entry
    of ``model_rows``: the one column space of a batch's bag-of-pieces
    matrix and score table."""
    mark = np.zeros(width, dtype=bool)
    mark[model_rows] = True
    used = mark.nonzero()[0]
    column = np.empty(width, dtype=np.intp)  # the column of each row used
    column[used] = np.arange(used.size)
    return used, column[model_rows]


def _pool(embedding: np.ndarray, model_rows: np.ndarray, counts: np.ndarray,
          out=None):
    """The mean-pooled vectors of a batch of documents whose pieces have
    the model rows ``model_rows``, document after document, ``counts[i]``
    of them for document i, written into ``out`` if given:
    ``(pooled, bag, used)``.

    ``bag`` is the batch's [docs, k] float bag-of-pieces matrix, its piece
    counts over the k distinct rows ``used`` (``used_rows``).  Mean pooling
    is the linear map ``bag @ embedding[used] / counts``, and its gradient
    reaches the rows ``used`` of the embedding as
    ``bag.T @ (d_pooled / counts)``.
    """
    used, cells = used_rows(model_rows, embedding.shape[0])
    cells += np.repeat(np.arange(counts.size) * used.size, counts)
    bag = np.bincount(cells, weights=np.ones(cells.size),
                      minlength=counts.size * used.size)
    bag = bag.reshape(counts.size, used.size)
    pooled = np.matmul(bag, embedding[used], out=out)
    pooled /= counts[:, None]
    return pooled, bag, used


def pool_documents(params: ModelParams, pieces: np.ndarray, corpus: Corpus,
                   rows: np.ndarray) -> np.ndarray:
    """Mean piece embedding of each document ``rows`` of ``corpus``,
    [docs, d]; ``pieces`` is the corpus's ``piece_rows``.

    The documents are pooled DOC_BATCH at a time, each batch one ``_pool``
    product over the model rows it uses.
    """
    pooled = np.empty((rows.size, params.embedding.shape[1]))
    for first in range(0, rows.size, DOC_BATCH):
        batch = slice(first, first + DOC_BATCH)
        positions, counts = _positions(corpus, rows[batch])
        _pool(params.embedding, pieces[positions], counts, out=pooled[batch])
    return pooled


def predict_pooled(params: ModelParams, pooled: np.ndarray,
                   threshold: float) -> np.ndarray:
    """[docs, C] mask of sigmoid probabilities >= threshold, from the pooled
    vectors of ``pool_documents``."""
    out, _ = logits(params, pooled)
    with np.errstate(over="ignore"):  # a logit below -709 gives 0
        return 1.0 / (1.0 + np.exp(-out)) >= threshold


_PARAM_NAMES = ("embedding", "hidden_weights", "hidden_bias",
                "output_weights", "output_bias")


def batch_loss_and_grads(params: ModelParams, pieces: np.ndarray,
                         counts: np.ndarray, labels: np.ndarray, grads):
    """Mean BCE over a batch of documents plus the gradient of every
    weight: ``(loss, grads)``, the gradients keyed by parameter name.

    The batch's documents have the model rows ``pieces``, document after
    document, ``counts[i]`` of them for document i, and the [docs, C] 0/1
    ``labels``.  Pooling and the embedding gradient are products with the
    batch's bag-of-pieces matrix (``_pool``): ``bag @ embedding[used]``
    divided by the counts, and ``bag.T @ (d_pooled / counts)`` for the rows
    ``used``; every other embedding row's gradient is zero.  The gradients
    are written into ``grads``, arrays of the parameters' shapes keyed by
    name, which ``train`` makes once as views of its flat gradient buffer.
    """
    pooled, bag, used = _pool(params.embedding, pieces, counts)

    z, hidden = logits(params, pooled)
    loss = _bce_from_logits(z, labels)

    with np.errstate(over="ignore"):  # a logit below -709 gives 0
        probs = 1.0 / (1.0 + np.exp(-z))
    d_logits = (probs - labels) / z.size
    np.matmul(hidden.T, d_logits, out=grads["output_weights"])
    np.add.reduce(d_logits, axis=0, out=grads["output_bias"])
    d_pre = d_logits @ params.output_weights.T
    d_pre *= _activation_grad(params, hidden)
    np.matmul(pooled.T, d_pre, out=grads["hidden_weights"])
    np.add.reduce(d_pre, axis=0, out=grads["hidden_bias"])
    d_pooled = d_pre @ params.hidden_weights.T
    d_pooled /= counts[:, None]
    grads["embedding"].fill(0.0)
    grads["embedding"][used] = bag.T @ d_pooled
    return loss, grads


def train(params: ModelParams, corpus: Corpus, rows: np.ndarray,
          config: TrainConfig, seed: int = 0) -> ModelParams:
    """Minimize mean per-class BCE over the documents ``rows`` of ``corpus``
    with Adam, shuffling each epoch from ``seed``; returns new params.

    The five parameters, their gradients and the Adam moments each live in
    one flat buffer (the returned fields and the step's gradients are views
    into them), so every Adam step is one elementwise update over all
    weights, done in place.  The moments are stored scaled, as
    ``M = m / (1 - b1)`` and ``V = v / (1 - b2)``, so that step t updates
    ``M = b1 M + g``, ``V = b2 V + g^2`` and
    ``theta -= alpha_t M / (sqrt(V) + eps / c_t)``, with
    ``c_t = sqrt((1 - b2) / (1 - b2^t))`` and
    ``alpha_t = lr (1 - b1) / ((1 - b1^t) c_t)``: the textbook update
    ``lr m_hat / (sqrt(v_hat) + eps)`` in algebra, with one division
    instead of three; only its rounding differs.  Raises
    TrainingDivergedError when the loss or, after the last update, a
    parameter is not finite; the overflows on the way there raise no
    warning.
    """
    if not len(rows):
        raise ValidationError("training corpus is empty")
    _positions(corpus, rows)  # every document has a piece
    arrays = [getattr(params, k) for k in _PARAM_NAMES]
    ends = np.cumsum([a.size for a in arrays]).tolist()

    def views(buffer):
        return {k: buffer[end - a.size:end].reshape(a.shape)
                for k, a, end in zip(_PARAM_NAMES, arrays, ends)}
    flat = np.concatenate([a.ravel() for a in arrays])
    params = replace(params, **views(flat))
    grad = np.empty_like(flat)
    grads = views(grad)
    # the scaled Adam moments, and two scratch buffers for the update
    m_scaled, v_scaled, scratch, update = np.zeros((4, flat.size))
    pieces = piece_rows(params, corpus)
    lr, b1, b2 = config.learning_rate, ADAM_BETA1, ADAM_BETA2
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & (2**64 - 1), 1]))
    step = 0

    # A diverging run overflows silently; the loss and parameter checks
    # fail it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rows[rng.permutation(len(rows))]
            positions, counts = corpus.positions(order)
            epoch_pieces, labels = pieces[positions], corpus.labels[order]
            offsets = np.concatenate([[0], np.cumsum(counts)]).tolist()
            for start in range(0, len(rows), config.batch_size):
                stop = min(start + config.batch_size, len(rows))
                loss, _ = batch_loss_and_grads(
                    params, epoch_pieces[offsets[start]:offsets[stop]],
                    counts[start:stop], labels[start:stop], grads)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch + 1} "
                        f"(learning_rate={lr})")
                # the scaled-moment step of the docstring; alpha scales M
                # before the division, so that an update that overflows
                # still overflows
                step += 1
                c = math.sqrt((1 - b2) / (1 - b2 ** step))
                alpha = lr * (1 - b1) / ((1 - b1 ** step) * c)
                m_scaled *= b1
                m_scaled += grad
                np.square(grad, out=scratch)
                v_scaled *= b2
                v_scaled += scratch
                np.sqrt(v_scaled, out=scratch)
                scratch += ADAM_EPS / c
                np.multiply(m_scaled, alpha, out=update)
                update /= scratch
                flat -= update
    if not np.isfinite(flat).all():
        raise TrainingDivergedError(
            f"non-finite parameter after epoch {config.epochs} "
            f"(learning_rate={lr})")
    return params
