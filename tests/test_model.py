import numpy as np
import pytest

from igkeywords.corpus import LabelSpace, ValidationError, build_corpus
from igkeywords.model import (ModelParams, TrainConfig, batch_loss_and_grads,
                              build_vocab, forward, forward_from_embeddings,
                              init_model, input_gradients_from_embeddings,
                              piece_rows, predict, probabilities, token_ids,
                              train)
from reference_corpus import make_document


def input_gradients(params, doc, class_index):
    """Exact d(logit_c)/d(inputs) of one document, shape [T, d]."""
    if not 0 <= class_index < params.num_classes:
        raise ValidationError(f"class index {class_index} out of range")
    if not doc.subwords:
        raise ValidationError(f"document {doc.id!r} has no subwords")
    inputs = params.embedding[token_ids(params, doc)]
    return input_gradients_from_embeddings(params, inputs, class_index)


def corpus_loss(params, corpus) -> float:
    """Mean BCE over a whole corpus."""
    return batch_loss_and_grads(params, piece_rows(params, corpus), corpus,
                                np.arange(len(corpus)))[0]


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
        vocab={"tok": 0},
        activation=activation,
    )


def one_token_doc(label_space):
    return make_document("t", "tok", {label_space.classes[0]}, label_space)


def random_model(rng, vocab_size=12, d=4, h=4, n_classes=3):
    cfg = TrainConfig(d=d, h=h, seed=int(rng.integers(2**31)))
    vocab = {f"p{i}": i for i in range(vocab_size)}
    return init_model(vocab, n_classes, cfg)


class TestInitModel:
    def test_deterministic(self):
        cfg = TrainConfig(seed=5)
        vocab = {"a": 0, "b": 1}
        p1, p2 = init_model(vocab, 3, cfg), init_model(vocab, 3, cfg)
        assert np.array_equal(p1.embedding, p2.embedding)
        assert np.array_equal(p1.output_weights, p2.output_weights)

    def test_shapes(self):
        cfg = TrainConfig(d=16, h=32)
        vocab = {f"p{i}": i for i in range(5000)}
        params = init_model(vocab, 4, cfg)
        assert params.embedding.shape == (5001, 16)
        assert params.hidden_weights.shape == (16, 32)
        assert params.output_weights.shape == (32, 4)
        assert np.all(params.hidden_bias == 0)
        assert np.all(params.output_bias == 0)

    def test_zero_scale_gives_zero_logits(self, label_space):
        cfg = TrainConfig(weight_init_scale=0.0)
        params = init_model({"tok": 0}, 4, cfg)
        logits, _ = forward(params, one_token_doc(label_space))
        assert np.all(logits == 0)


class TestForward:
    def test_hand_computed_logit(self, label_space):
        params = tiny_params()
        logits, trace = forward(params, one_token_doc(label_space))
        assert logits[0] == pytest.approx(2 * np.tanh(0.3), abs=1e-12)
        assert trace.pooled[0] == pytest.approx(0.3)

    def test_zero_weights_give_half_probability(self, label_space):
        params = init_model({"tok": 0}, 4, TrainConfig(weight_init_scale=0.0))
        probs = probabilities(params, one_token_doc(label_space))
        assert np.allclose(probs, 0.5)

    def test_pooling_linearity(self):
        rng = np.random.default_rng(0)
        params = random_model(rng)
        inputs = rng.normal(size=(5, 4))
        _, trace1 = forward_from_embeddings(params, inputs)
        _, trace2 = forward_from_embeddings(params, 2 * inputs)
        assert np.allclose(trace2.pooled, 2 * trace1.pooled)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        params = random_model(rng)
        inputs = rng.normal(size=(7, 4))
        logits1, _ = forward_from_embeddings(params, inputs)
        logits2, _ = forward_from_embeddings(params, inputs[::-1].copy())
        assert np.allclose(logits1, logits2, atol=1e-12)

    def test_empty_document_rejected(self, label_space):
        params = tiny_params()
        doc = make_document("e", "", set(), label_space)
        with pytest.raises(ValidationError):
            forward(params, doc)


class TestInputGradients:
    def test_zero_output_weights_zero_gradient(self, label_space):
        params = tiny_params(w_out=0.0)
        grads = input_gradients(params, one_token_doc(label_space), 0)
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
            input_gradients(params, one_token_doc(label_space), 5)


class TestParameterGradients:
    def test_match_finite_differences(self, label_space):
        rng = np.random.default_rng(9)
        corpus = build_corpus(
            [(f"d{i}", " ".join(f"p{rng.integers(8)}" for _ in range(5)),
              {label_space.classes[int(rng.integers(4))]}) for i in range(6)],
            label_space)
        batch = all_rows(corpus)
        params = init_model(build_vocab(corpus, batch), 4,
                            TrainConfig(d=4, h=4, seed=2))
        prep = piece_rows(params, corpus), corpus
        _, grads = batch_loss_and_grads(params, *prep, batch)
        step = 1e-5
        for name in ("hidden_weights", "output_weights", "hidden_bias",
                     "output_bias", "embedding"):
            arr = getattr(params, name)
            flat = arr.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[idx]
                flat[idx] = orig + step
                hi, _ = batch_loss_and_grads(params, *prep, batch)
                flat[idx] = orig - step
                lo, _ = batch_loss_and_grads(params, *prep, batch)
                flat[idx] = orig
                fd = (hi - lo) / (2 * step)
                assert grads[name].reshape(-1)[idx] == pytest.approx(
                    fd, rel=1e-4, abs=1e-9)


class TestTrain:
    def test_zero_learning_rate_no_change(self, label_space):
        corpus = build_corpus([("a", "tok tok", {"HI"})], label_space)
        rows = all_rows(corpus)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, optimizer="sgd")
        params = init_model(build_vocab(corpus, rows), 4, cfg)
        trained = train(params, corpus, rows, cfg)
        assert np.array_equal(trained.embedding, params.embedding)
        assert np.array_equal(trained.output_weights, params.output_weights)

    def test_overfits_single_document(self, label_space):
        corpus = build_corpus([("a", "alpha beta gamma", {"HI"})],
                              label_space)
        rows = all_rows(corpus)
        cfg = TrainConfig(epochs=200, learning_rate=0.05, d=8, h=8, seed=1)
        params = train(init_model(build_vocab(corpus, rows), 4, cfg), corpus,
                       rows, cfg)
        probs = probabilities(params, corpus.document(0))
        assert probs[label_space.index("HI")] > 0.9

    def test_loss_decreases_on_separable_data(self, small_synth):
        corpus, _ = small_synth
        rows = all_rows(corpus)
        cfg = TrainConfig(epochs=1, d=8, h=8, seed=4)
        vocab = build_vocab(corpus, rows)
        params0 = init_model(vocab, len(corpus.label_space), cfg)
        after_one = train(params0, corpus, rows, cfg)
        cfg_full = TrainConfig(epochs=15, d=8, h=8, seed=4)
        after_full = train(params0, corpus, rows, cfg_full)
        assert corpus_loss(after_full, corpus) <= corpus_loss(after_one, corpus)

    def test_deterministic(self, small_synth):
        corpus, _ = small_synth
        rows = all_rows(corpus)
        cfg = TrainConfig(epochs=3, d=8, h=8, seed=7)
        vocab = build_vocab(corpus, rows)
        a = train(init_model(vocab, 4, cfg), corpus, rows, cfg)
        b = train(init_model(vocab, 4, cfg), corpus, rows, cfg)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.output_weights, b.output_weights)

    def test_sgd_also_learns(self, small_synth):
        corpus, _ = small_synth
        cfg = TrainConfig(epochs=10, learning_rate=5.0, optimizer="sgd",
                          d=8, h=8, seed=0)
        rows = all_rows(corpus)
        params0 = init_model(build_vocab(corpus, rows), 4, cfg)
        trained = train(params0, corpus, rows, cfg)
        assert corpus_loss(trained, corpus) < corpus_loss(params0, corpus)


class TestPredict:
    def test_boundary_is_inclusive(self, label_space):
        params = init_model({"tok": 0}, 4, TrainConfig(weight_init_scale=0.0))
        doc = one_token_doc(label_space)
        assert predict(params, doc, label_space, 0.5) == set(label_space.classes)

    def test_sign_split(self, label_space):
        params = tiny_params()
        # logit = 2*tanh(0.3) > 0 -> probability > 0.5
        doc = one_token_doc(label_space)
        assert predict(params, doc, LabelSpace(("only",)), 0.5) == {"only"}
        assert predict(params, doc, LabelSpace(("only",)), 0.99) == set()

    def test_bias_monotonicity(self):
        rng = np.random.default_rng(11)
        params = random_model(rng)
        label_space = LabelSpace(("a", "b", "c"))
        doc = make_document("d", "p1 p2 p3", {"a"}, label_space)
        before = predict(params, doc, label_space, 0.5)
        params.output_bias[0] += 5.0
        after = predict(params, doc, label_space, 0.5)
        assert "a" in after or "a" not in before
        assert before - {"a"} <= after
