import dataclasses
import warnings

import numpy as np
import pytest

from igkeywords import checks, model
from igkeywords.corpus import LabelSpace, ValidationError, build_corpus
from igkeywords.model import (ModelParams, TrainConfig, TrainingDivergedError,
                              batch_loss_and_grads, build_vocab, init_model,
                              logits, path_mean_gradients, path_mean_slopes,
                              piece_rows, pool_documents, predict_pooled,
                              train)
from reference_round import (gamma, input_gradients_from_embeddings,
                             pooled_logit_gradients)


def input_gradients(params, corpus, class_index):
    """Exact d(logit_c)/d(inputs) of document 0 of ``corpus``, shape
    [T, d]."""
    if not 0 <= class_index < params.num_classes:
        raise ValidationError(f"class index {class_index} out of range")
    positions, _ = corpus.positions(np.array([0]))
    inputs = params.embedding[piece_rows(params, corpus)[positions]]
    return input_gradients_from_embeddings(params, inputs, class_index)


def step(params, corpus, batch):
    """``batch_loss_and_grads`` of the documents ``batch`` of ``corpus``,
    into gradient arrays of its own."""
    positions, counts = corpus.positions(batch)
    grads = {k: np.empty_like(getattr(params, k)) for k in model._PARAM_NAMES}
    return batch_loss_and_grads(params, piece_rows(params, corpus)[positions],
                                counts, corpus.labels[batch], grads)


def corpus_loss(params, corpus) -> float:
    """Mean BCE over a whole corpus."""
    return step(params, corpus, np.arange(len(corpus)))[0]


def all_rows(corpus):
    return np.arange(len(corpus))


def tiny_params(w_emb=0.3, w_hid=1.0, w_out=2.0, activation="tanh"):
    """Scalar d = h = C = 1 model for hand-checkable arithmetic."""
    return ModelParams(
        embedding=np.array([[w_emb], [0.0]]),
        hidden_weights=np.array([[w_hid]]),
        hidden_bias=np.zeros(1),
        output_weights=np.array([[w_out]]),
        output_bias=np.zeros(1),
        vocab=np.arange(1),
        activation=activation,
    )


def corpus_of(texts, label_space):
    """A corpus of one document per text, each of the first class."""
    return build_corpus([(f"d{i}", text, {label_space.classes[0]})
                         for i, text in enumerate(texts)], label_space)


def one_token_corpus(label_space):
    return corpus_of(["tok"], label_space)


def pooled(params, corpus):
    """The pooled vector of every document of ``corpus``."""
    return pool_documents(params, piece_rows(params, corpus), corpus,
                          all_rows(corpus))


def random_model(rng, vocab_size=12, d=4, h=4, n_classes=3):
    return init_model(np.arange(vocab_size), n_classes, TrainConfig(d=d, h=h),
                      seed=int(rng.integers(2**31)))


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", -0.1), ("weight_init_scale", float("nan")),
        ("weight_init_scale", float("inf")),
        ("weight_init_scale", -float("inf")), ("weight_init_scale", -0.1)])
    def test_rejects_non_finite_or_negative(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})


class TestInitModel:
    def test_deterministic(self):
        cfg, vocab = TrainConfig(), np.arange(2)
        p1, p2 = (init_model(vocab, 3, cfg, seed=5),
                  init_model(vocab, 3, cfg, seed=5))
        assert np.array_equal(p1.embedding, p2.embedding)
        assert np.array_equal(p1.output_weights, p2.output_weights)

    def test_shapes(self):
        cfg = TrainConfig(d=16, h=32)
        params = init_model(np.arange(5000), 4, cfg)
        assert params.embedding.shape == (5001, 16)
        assert params.hidden_weights.shape == (16, 32)
        assert params.output_weights.shape == (32, 4)
        assert np.all(params.hidden_bias == 0)
        assert np.all(params.output_bias == 0)

    def test_zero_scale_gives_zero_logits(self, label_space):
        cfg = TrainConfig(weight_init_scale=0.0)
        params = init_model(np.arange(1), 4, cfg)
        out, _ = logits(params, pooled(params, one_token_corpus(label_space)))
        assert np.all(out == 0)


class TestForward:
    def test_hand_computed_logit(self, label_space):
        params = tiny_params()
        vectors = pooled(params, one_token_corpus(label_space))
        out, _ = logits(params, vectors)
        assert out[0, 0] == pytest.approx(2 * np.tanh(0.3), abs=1e-12)
        assert vectors[0, 0] == pytest.approx(0.3)

    def test_zero_weights_give_half_probability(self, label_space):
        params = init_model(np.arange(1), 4, TrainConfig(weight_init_scale=0.0))
        vectors = pooled(params, one_token_corpus(label_space))
        assert predict_pooled(params, vectors, 0.5).all()
        assert not predict_pooled(params, vectors, np.nextafter(0.5, 1)).any()

    def test_pooling_linearity(self, label_space):
        rng = np.random.default_rng(0)
        corpus = corpus_of(["p1 p2 p3 p4 p5"], label_space)
        params = random_model(rng, vocab_size=len(corpus.pieces))
        doubled = dataclasses.replace(params, embedding=2 * params.embedding)
        assert np.allclose(pooled(doubled, corpus), 2 * pooled(params, corpus))

    def test_permutation_invariance(self, label_space):
        rng = np.random.default_rng(1)
        corpus = corpus_of(["p1 p2 p3 p4 p5 p6 p7", "p7 p6 p5 p4 p3 p2 p1"],
                           label_space)
        params = random_model(rng, vocab_size=len(corpus.pieces))
        out, _ = logits(params, pooled(params, corpus))
        assert np.allclose(out[0], out[1], atol=1e-12)

    def test_empty_document_rejected(self, label_space):
        params = tiny_params()
        with pytest.raises(ValidationError, match="has no subwords"):
            pooled(params, corpus_of(["tok", ""], label_space))


class TestPoolDocuments:
    TEXTS = ["alpha alpha alpha beta", "z", "gamma delta alpha gamma",
             "unseenword alpha", "beta beta", "delta unknowable zz gamma",
             "alpha", "epsilon beta gamma delta alpha beta"]

    @pytest.mark.parametrize("batch", [1, 2, 27, 10_000])
    def test_chunks_match_per_document_mean(self, label_space, monkeypatch,
                                            batch):
        # The rows below have 10, 7, 1, 8, 5, 2, 8, 2 and 1 pieces, and the
        # model has 10 rows.  A batch of 1 takes one document at a time, 2
        # split the nine documents 2 + 2 + 2 + 2 + 1, and 27 and up take
        # every document in one batch.
        corpus = corpus_of(self.TEXTS, label_space)
        rows = np.array([7, 0, 1, 2, 3, 4, 5, 6, 1])
        params = init_model(build_vocab(corpus, np.arange(5)), 4,
                            TrainConfig(d=3, h=2), seed=7)
        assert params.embedding.shape[0] == 10
        pieces = piece_rows(params, corpus)
        assert (pieces == params.unk_index).any()
        monkeypatch.setattr(model, "DOC_BATCH", batch)
        sizes, pool = [], model._pool

        def recorded(embedding, model_rows, counts, out=None):
            sizes.append(counts.size)
            return pool(embedding, model_rows, counts, out)
        monkeypatch.setattr(model, "_pool", recorded)
        got = pool_documents(params, pieces, corpus, rows)
        spans = [params.embedding[pieces[corpus.offsets[r]:
                                         corpus.offsets[r + 1]]]
                 for r in rows]
        # The bag product adds a document's p pieces in another order than
        # mean(axis=0); with the division, each side is within
        # gamma(p + 1) * mean|pieces| of the exact mean.  The embedding's
        # rows are of comparable size, so no row's error hides another's.
        for vector, span in zip(got, spans):
            bound = 2 * gamma(len(span) + 1) * np.abs(span).mean(axis=0)
            assert (np.abs(vector - span.mean(axis=0)) <= bound).all()
        assert sizes == {1: [1] * 9, 2: [2, 2, 2, 2, 1]}.get(batch, [9])

    def test_no_rows_pool_to_an_empty_array(self, label_space):
        corpus = corpus_of(self.TEXTS, label_space)
        params = init_model(build_vocab(corpus, all_rows(corpus)), 4,
                            TrainConfig(d=16, h=2))
        got = pool_documents(params, piece_rows(params, corpus), corpus,
                             np.array([], dtype=np.intp))
        assert got.shape == (0, 16)

    def test_a_model_of_another_corpus_is_rejected(self):
        # a model over ten piece ids, pooling a corpus of five pieces
        corpus = build_corpus([("lin", "p1 p2 p3 p4 p5", {"a"})],
                              LabelSpace(("a", "b")))
        params = init_model(np.arange(10), 2, TrainConfig(d=6, h=4))
        with pytest.raises(ValidationError,
                           match=r"largest piece id, 9, .* 5 pieces"):
            pooled(params, corpus)


class TestInputGradients:
    def test_zero_output_weights_zero_gradient(self, label_space):
        params = tiny_params(w_out=0.0)
        grads = input_gradients(params, one_token_corpus(label_space), 0)
        assert np.all(grads == 0)

    def test_pooling_halves_gradient(self):
        rng = np.random.default_rng(3)
        params = random_model(rng)
        one = rng.normal(size=(1, 4))
        two = np.vstack([one, one])
        g1 = input_gradients_from_embeddings(params, one, 0)
        g2 = input_gradients_from_embeddings(params, two, 0)
        assert np.allclose(g2[0], g1[0] / 2, atol=1e-12)

    def test_invalid_class_index(self, label_space):
        params = tiny_params()
        with pytest.raises(ValidationError):
            input_gradients(params, one_token_corpus(label_space), 5)


class TestPathMean:
    def test_slopes_match_quadrature(self):
        # 100 random models of either activation, |a| from 0 to 100
        # against Gauss-Legendre quadrature of 1 / cosh^2, and finite,
        # non-negative slopes out to |a| of about 1e8
        error, bounded = checks.path_mean_error()
        assert error <= checks.PATH_MEAN_BOUND and bounded

    def test_slopes_at_the_ends_of_their_range(self):
        params = tiny_params()
        b = np.array([-800.0, -30.0, -2.0, 0.0, 0.5, 30.0, 800.0])
        params.hidden_bias = b
        # a = 0: tanh'(b), also where cosh(b) overflows
        with np.errstate(over="ignore"):
            at_zero = 1.0 / np.cosh(b) ** 2
        assert np.allclose(path_mean_slopes(params, np.zeros(b.size)),
                           at_zero, rtol=1e-15, atol=0.0)
        # |a| past 710, where sinh and cosh overflow.  Where the path
        # crosses 0, tanh(a + b) - tanh(b) does not cancel, so the plain
        # difference form is a reference there.
        # Past about 9e307, -2|a| overflows to -inf, silently.
        for a in (-1e3, 1e3, -1e300, 1e300, -1e308, 1e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                slopes = path_mean_slopes(params, np.full(b.size, a))
            assert np.all(np.isfinite(slopes)) and np.all(slopes >= 0.0)
            crosses = np.sign(a + b) != np.sign(b)
            assert np.allclose(slopes[crosses],
                               (np.tanh(a + b) - np.tanh(b))[crosses] / a,
                               rtol=1e-12, atol=0.0)
        identity = dataclasses.replace(params, activation="identity")
        assert np.all(path_mean_slopes(identity, np.full(3, 1e9)) == 1.0)

    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    def test_gradients_are_the_path_mean_of_the_input_gradient(self,
                                                               activation):
        # A class per row, against Gauss-Legendre quadrature of
        # pooled_logit_gradients along the path; |a| stays small, where
        # 1 - tanh^2 has not lost its digits.
        rng = np.random.default_rng(12)
        params = dataclasses.replace(random_model(rng), activation=activation)
        params.hidden_bias = rng.normal(size=params.hidden_bias.size)
        pooled = rng.normal(size=(5, params.embedding.shape[1]))
        classes = rng.integers(params.num_classes, size=5)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        path = ((nodes + 1) / 2)[None, :, None] * pooled[:, None, :]
        reference = np.einsum("m,rmd->rd", weights / 2, pooled_logit_gradients(
            params, path, classes[:, None]))
        assert np.allclose(path_mean_gradients(params, pooled, classes),
                           reference, rtol=1e-12, atol=1e-15)


class TestParameterGradients:
    def test_match_finite_differences(self, label_space):
        rng = np.random.default_rng(9)
        corpus = build_corpus(
            [(f"d{i}", " ".join(f"p{rng.integers(8)}" for _ in range(5)),
              {label_space.classes[int(rng.integers(4))]}) for i in range(6)],
            label_space)
        batch = all_rows(corpus)
        params = init_model(build_vocab(corpus, batch), 4,
                            TrainConfig(d=4, h=4), seed=2)
        _, grads = step(params, corpus, batch)
        h = 1e-5
        for name in ("hidden_weights", "output_weights", "hidden_bias",
                     "output_bias", "embedding"):
            arr = getattr(params, name)
            flat = arr.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[idx]
                flat[idx] = orig + h
                hi, _ = step(params, corpus, batch)
                flat[idx] = orig - h
                lo, _ = step(params, corpus, batch)
                flat[idx] = orig
                fd = (hi - lo) / (2 * h)
                assert grads[name].reshape(-1)[idx] == pytest.approx(
                    fd, rel=1e-4, abs=1e-9)


class TestTrain:
    def test_zero_learning_rate_no_change(self, label_space):
        corpus = build_corpus([("a", "tok tok", {"HI"})], label_space)
        rows = all_rows(corpus)
        cfg = TrainConfig(learning_rate=0.0, epochs=3)
        params = init_model(build_vocab(corpus, rows), 4, cfg)
        trained = train(params, corpus, rows, cfg)
        assert np.array_equal(trained.embedding, params.embedding)
        assert np.array_equal(trained.output_weights, params.output_weights)

    def test_overfits_single_document(self, label_space):
        corpus = build_corpus([("a", "alpha beta gamma", {"HI"})],
                              label_space)
        rows = all_rows(corpus)
        cfg = TrainConfig(epochs=200, learning_rate=0.05, d=8, h=8)
        params = train(init_model(build_vocab(corpus, rows), 4, cfg, seed=1),
                       corpus, rows, cfg, seed=1)
        out, _ = logits(params, pooled(params, corpus))
        assert out[0, label_space.classes.index("HI")] > np.log(9)  # sigmoid > 0.9

    def test_loss_decreases_on_separable_data(self, small_synth):
        corpus, _ = small_synth
        rows = all_rows(corpus)
        cfg = TrainConfig(epochs=1, d=8, h=8)
        vocab = build_vocab(corpus, rows)
        params0 = init_model(vocab, len(corpus.label_space), cfg, seed=4)
        after_one = train(params0, corpus, rows, cfg, seed=4)
        cfg_full = TrainConfig(epochs=15, d=8, h=8)
        after_full = train(params0, corpus, rows, cfg_full, seed=4)
        assert corpus_loss(after_full, corpus) <= corpus_loss(after_one, corpus)

    def test_deterministic(self, small_synth):
        corpus, _ = small_synth
        rows = all_rows(corpus)
        cfg = TrainConfig(epochs=3, d=8, h=8)
        vocab = build_vocab(corpus, rows)
        a = train(init_model(vocab, 4, cfg, seed=7), corpus, rows, cfg, seed=7)
        b = train(init_model(vocab, 4, cfg, seed=7), corpus, rows, cfg, seed=7)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.output_weights, b.output_weights)

    def test_non_finite_loss_names_its_epoch(self, small_synth,
                                             monkeypatch):
        corpus, _ = small_synth
        rows = all_rows(corpus)  # 160 documents: 5 steps an epoch
        cfg = TrainConfig(epochs=4, d=8, h=8)
        params = init_model(build_vocab(corpus, rows), 4, cfg, seed=4)
        bce, calls = model._bce_from_logits, []

        def diverging(z, targets):  # NaN at the third step of epoch 3
            calls.append(1)
            return float("nan") if len(calls) == 13 else bce(z, targets)
        monkeypatch.setattr(model, "_bce_from_logits", diverging)
        with pytest.raises(TrainingDivergedError,
                           match="non-finite loss at epoch 3 "):
            train(params, corpus, rows, cfg, seed=4)
        assert len(calls) == 13

    def test_overflowing_last_update_raises(self, small_synth):
        # One step whose loss is finite and whose update overflows; tanh
        # would saturate at these weights and flatten the gradient.
        corpus, _ = small_synth
        rows = all_rows(corpus)
        cfg = TrainConfig(epochs=1, batch_size=len(rows),
                          learning_rate=1e308, weight_init_scale=10.0,
                          d=8, h=8, activation="identity")
        params = init_model(build_vocab(corpus, rows), 4, cfg, seed=4)
        assert np.isfinite(corpus_loss(params, corpus))
        # the update overflows silently, under warnings as errors
        with pytest.raises(TrainingDivergedError,
                           match="non-finite parameter after epoch 1 "):
            train(params, corpus, rows, cfg, seed=4)

    def test_diverging_run_raises_without_warnings(self, small_synth):
        # The pooling product and the logits overflow to inf and NaN on
        # the way; with warnings as errors (pyproject.toml) only the
        # divergence itself may surface.
        corpus, _ = small_synth
        rows = all_rows(corpus)
        cfg = TrainConfig(epochs=3, learning_rate=1e308,
                          weight_init_scale=10.0, d=8, h=8)
        params = init_model(build_vocab(corpus, rows), 4, cfg, seed=4)
        with pytest.raises(TrainingDivergedError, match="non-finite loss"):
            train(params, corpus, rows, cfg, seed=4)


class TestPredict:
    def test_boundary_is_inclusive(self, label_space):
        params = init_model(np.arange(1), 4, TrainConfig(weight_init_scale=0.0))
        vectors = pooled(params, one_token_corpus(label_space))
        assert predict_pooled(params, vectors, 0.5).all()

    def test_sign_split(self):
        params = tiny_params()
        # logit = 2*tanh(0.3) > 0 -> probability > 0.5
        vectors = pooled(params, one_token_corpus(LabelSpace(("only",))))
        assert predict_pooled(params, vectors, 0.5).tolist() == [[True]]
        assert predict_pooled(params, vectors, 0.99).tolist() == [[False]]

    def test_logit_below_exp_range_is_probability_zero(self):
        # exp(-logit) overflows for a logit below about -709; the sigmoid
        # is 0 there, in prediction and in the training step, silently.
        params = tiny_params()
        params.output_bias[:] = -1000.0
        corpus = one_token_corpus(LabelSpace(("only",)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vectors = pooled(params, corpus)
            assert not predict_pooled(params, vectors,
                                      np.nextafter(0.0, 1.0)).any()
            _, grads = step(params, corpus, np.array([0]))
        # d(loss)/d(logit) = probability - label = 0 - 1
        assert grads["output_bias"].tolist() == [-1.0]

    def test_bias_monotonicity(self):
        rng = np.random.default_rng(11)
        corpus = corpus_of(["p1 p2 p3"], LabelSpace(("a", "b", "c")))
        params = random_model(rng, vocab_size=len(corpus.pieces))
        vectors = pooled(params, corpus)
        before = predict_pooled(params, vectors, 0.5)[0]
        params.output_bias[0] += 5.0
        after = predict_pooled(params, vectors, 0.5)[0]
        assert after[0] or not before[0]
        assert (after >= before)[1:].all()
