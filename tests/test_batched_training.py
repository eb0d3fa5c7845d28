"""Differential tests: the batched training step against the per-document
loop and the per-parameter optimizer loop it replaced.

The batched step performs the same floating-point operations in the same
order, so every comparison here is exact (``np.array_equal``).
"""

import dataclasses

import numpy as np
import pytest

from igkeywords.corpus import build_corpus
from igkeywords.model import (TrainConfig, _activate, _activation_grad,
                              _bce_from_logits, _step_tables,
                              batch_loss_and_grads, build_vocab, init_model,
                              piece_rows, train)

PARAM_NAMES = ("embedding", "hidden_weights", "hidden_bias",
               "output_weights", "output_bias")


def reference_batch_loss_and_grads(params, pieces, corpus, batch):
    """Per-document pooling and one ``np.add.at`` scatter per document."""
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
    for row, span in enumerate(spans):
        np.add.at(d_emb, span, d_pooled[row] / span.size)

    grads = {"embedding": d_emb, "hidden_weights": d_w_hid,
             "hidden_bias": d_b_hid, "output_weights": d_w_out,
             "output_bias": d_b_out}
    return loss, grads


def reference_train(params, corpus, rows, config):
    """Training with one optimizer update per parameter array."""
    params = dataclasses.replace(
        params, vocab=dict(params.vocab),
        **{k: getattr(params, k).copy() for k in PARAM_NAMES})
    pieces = piece_rows(params, corpus)
    n_docs = len(rows)
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed & (2**64 - 1), 1]))

    if config.optimizer == "adam":
        m_state = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}
        v_state = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}
        step = 0

    for _ in range(config.epochs):
        order = rng.permutation(n_docs)
        for start in range(0, n_docs, config.batch_size):
            batch = rows[order[start:start + config.batch_size]]
            _, grads = reference_batch_loss_and_grads(params, pieces, corpus,
                                                      batch)
            if config.optimizer == "sgd":
                for k in PARAM_NAMES:
                    getattr(params, k)[...] -= config.learning_rate * grads[k]
            else:
                step += 1
                b1, b2 = config.adam_beta1, config.adam_beta2
                for k in PARAM_NAMES:
                    m_state[k] = b1 * m_state[k] + (1 - b1) * grads[k]
                    v_state[k] = b2 * v_state[k] + (1 - b2) * grads[k] ** 2
                    m_hat = m_state[k] / (1 - b1 ** step)
                    v_hat = v_state[k] / (1 - b2 ** step)
                    getattr(params, k)[...] -= (
                        config.learning_rate * m_hat
                        / (np.sqrt(v_hat) + config.adam_eps))
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
    prep = piece_rows(params, mixed_corpus), mixed_corpus
    assert (prep[0] == params.unk_index).any()
    # The buffers train makes once for batches of up to 8 documents and
    # passes to every step; the later batches are smaller, as an epoch's
    # last batch is, and find the earlier batches' cells in the buffers.
    counts = np.diff(mixed_corpus.offsets)
    tables = _step_tables(params.embedding, counts, batch_size=8)
    for batch in (np.arange(len(mixed_corpus)),
                  np.array([1]), np.array([6, 0, 0, 3, 1])):
        ref_loss, ref_grads = reference_batch_loss_and_grads(
            params, *prep, batch)
        for kwargs in ({}, {"tables": tables}):
            loss, grads = batch_loss_and_grads(params, *prep, batch, **kwargs)
            assert loss == ref_loss
            for name in PARAM_NAMES:
                assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("optimizer,learning_rate",
                         [("adam", 0.01), ("sgd", 2.0)])
@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_trained_parameters_match_per_parameter_loop(small_synth, optimizer,
                                                     learning_rate,
                                                     activation):
    corpus, _ = small_synth
    rows = np.arange(len(corpus))
    cfg = TrainConfig(epochs=3, d=8, h=8, seed=11, optimizer=optimizer,
                      learning_rate=learning_rate, batch_size=16,
                      activation=activation)
    # vocabulary from half the corpus, so the other half has unknown pieces
    params = init_model(build_vocab(corpus, rows[::2]), 4, cfg)
    trained = train(params, corpus, rows, cfg)
    expected = reference_train(params, corpus, rows, cfg)
    for name in PARAM_NAMES:
        assert np.array_equal(getattr(trained, name),
                              getattr(expected, name)), name
