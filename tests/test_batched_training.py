"""Differential tests: the bag-of-pieces training step against the
per-document loop it replaced, and the flat in-place Adam step against the
per-parameter Adam loop.

The bag product adds a document's pieces in another order than the
per-document ``mean(axis=0)`` and ``np.add.at`` do, so the embedding
gradient is compared within the rounding bound ``2 * gamma(n) * sum|terms|``
(``reference_round.gamma``).  Embeddings of small dyadic values make every
pooled sum exact in any order, so the loss and the other gradients are
compared exactly (``==``).  Trained parameters are compared exactly too:
``reference_train`` takes its gradients from the production step.
"""

import dataclasses

import numpy as np
import pytest

from igkeywords.corpus import build_corpus
from igkeywords.model import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainConfig,
                              _activate, _activation_grad,
                              _bce_from_logits, batch_loss_and_grads,
                              build_vocab, init_model, piece_rows, train)
from reference_round import gamma

PARAM_NAMES = ("embedding", "hidden_weights", "hidden_bias",
               "output_weights", "output_bias")


def step(params, pieces, corpus, batch):
    """``batch_loss_and_grads`` of the documents ``batch`` of ``corpus``,
    into gradient arrays of its own."""
    positions, counts = corpus.positions(batch)
    grads = {k: np.empty_like(getattr(params, k)) for k in PARAM_NAMES}
    return batch_loss_and_grads(params, pieces[positions], counts,
                                corpus.labels[batch], grads)


def reference_batch_loss_and_grads(params, pieces, corpus, batch):
    """Per-document pooling and one ``np.add.at`` scatter per document;
    also the sum of the sizes of the terms of each embedding gradient."""
    n_batch = batch.size
    pooled = np.empty((n_batch, params.embedding.shape[1]))
    spans = []
    for row, b in enumerate(batch):
        span = pieces[corpus.offsets[b]:corpus.offsets[b + 1]]
        spans.append(span)
        pooled[row] = params.embedding[span].mean(axis=0)

    hidden_pre = pooled @ params.hidden_weights + params.hidden_bias
    hidden_post = _activate(params, hidden_pre)
    logits = hidden_post @ params.output_weights + params.output_bias
    y = corpus.labels[batch]
    loss = _bce_from_logits(logits, y)

    n_cells = logits.size
    probs = 1.0 / (1.0 + np.exp(-logits))
    d_logits = (probs - y) / n_cells
    d_w_out = hidden_post.T @ d_logits
    d_b_out = d_logits.sum(axis=0)
    d_post = d_logits @ params.output_weights.T
    d_pre = d_post * _activation_grad(params, hidden_post)
    d_w_hid = pooled.T @ d_pre
    d_b_hid = d_pre.sum(axis=0)
    d_pooled = d_pre @ params.hidden_weights.T

    d_emb = np.zeros_like(params.embedding)
    d_emb_terms = np.zeros_like(params.embedding)
    for row, span in enumerate(spans):
        np.add.at(d_emb, span, d_pooled[row] / span.size)
        np.add.at(d_emb_terms, span, np.abs(d_pooled[row] / span.size))

    grads = {"embedding": d_emb, "hidden_weights": d_w_hid,
             "hidden_bias": d_b_hid, "output_weights": d_w_out,
             "output_bias": d_b_out}
    return loss, grads, d_emb_terms


def reference_train(params, corpus, rows, config):
    """Training with the production step and one Adam update per parameter
    array."""
    params = dataclasses.replace(
        params, **{k: getattr(params, k).copy() for k in PARAM_NAMES})
    pieces = piece_rows(params, corpus)
    n_docs = len(rows)
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed & (2**64 - 1), 1]))

    m_state = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}
    v_state = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}
    step_count = 0
    b1, b2 = ADAM_BETA1, ADAM_BETA2

    for _ in range(config.epochs):
        order = rng.permutation(n_docs)
        for start in range(0, n_docs, config.batch_size):
            batch = rows[order[start:start + config.batch_size]]
            _, grads = step(params, pieces, corpus, batch)
            step_count += 1
            for k in PARAM_NAMES:
                m_state[k] = b1 * m_state[k] + (1 - b1) * grads[k]
                v_state[k] = b2 * v_state[k] + (1 - b2) * grads[k] ** 2
                m_hat = m_state[k] / (1 - b1 ** step_count)
                v_hat = v_state[k] / (1 - b2 ** step_count)
                getattr(params, k)[...] -= (
                    config.learning_rate * m_hat
                    / (np.sqrt(v_hat) + ADAM_EPS))
    return params


@pytest.fixture
def mixed_corpus(label_space):
    """Repeated pieces, a one-piece document and pieces outside the vocab."""
    texts = ["alpha alpha alpha beta", "z", "gamma delta alpha gamma",
             "unseenword alpha", "beta beta", "delta unknowable zz gamma",
             "alpha", "epsilon beta gamma delta alpha beta"]
    return build_corpus([(f"d{i}", text, {label_space.classes[i % 4]})
                         for i, text in enumerate(texts)], label_space)


def _vocab_without_unknowns(corpus):
    known = [i for i, text in enumerate(corpus.texts)
             if "unseenword" not in text and "unknowable" not in text]
    return build_vocab(corpus, np.array(known))


@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_batch_loss_and_grads_match_per_document_loop(mixed_corpus,
                                                      activation):
    cfg = TrainConfig(d=4, h=5, seed=3, activation=activation)
    params = init_model(_vocab_without_unknowns(mixed_corpus), 4, cfg)
    # Multiples of 1/64 in [-1, 1], rows of comparable size: every sum of
    # a document's pieces is exact, in any order.
    rng = np.random.default_rng(5)
    params.embedding = rng.integers(-64, 65, params.embedding.shape) / 64
    prep = piece_rows(params, mixed_corpus), mixed_corpus
    assert (prep[0] == params.unk_index).any()
    for batch in (np.arange(len(mixed_corpus)),
                  np.array([1]), np.array([6, 0, 0, 3, 1])):
        ref_loss, ref_grads, terms = reference_batch_loss_and_grads(
            params, *prep, batch)
        loss, grads = step(params, *prep, batch)
        assert loss == ref_loss
        for name in PARAM_NAMES[1:]:
            assert np.array_equal(grads[name], ref_grads[name]), name
        # A row's gradient adds at most n terms, n the batch's piece count,
        # in either order: each side is within gamma(n) * sum|terms| of the
        # exact sum, and rows no document uses are exactly zero.
        n = int(np.diff(mixed_corpus.offsets)[batch].sum())
        error = np.abs(grads["embedding"] - ref_grads["embedding"])
        assert (error <= 2 * gamma(n) * terms).all()
        assert (grads["embedding"][terms == 0] == 0).all()


@pytest.mark.parametrize("learning_rate", [0.01, 2.0],
                         ids=lambda rate: f"adam-{rate}")
@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_trained_parameters_match_per_parameter_loop(small_synth,
                                                     learning_rate,
                                                     activation):
    corpus, _ = small_synth
    rows = np.arange(len(corpus))
    cfg = TrainConfig(epochs=3, d=8, h=8, seed=11,
                      learning_rate=learning_rate, batch_size=16,
                      activation=activation)
    # vocabulary from half the corpus, so the other half has unknown pieces
    params = init_model(build_vocab(corpus, rows[::2]), 4, cfg)
    trained = train(params, corpus, rows, cfg)
    expected = reference_train(params, corpus, rows, cfg)
    for name in PARAM_NAMES:
        assert np.array_equal(getattr(trained, name),
                              getattr(expected, name)), name
