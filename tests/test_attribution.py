import numpy as np
import pytest

from igkeywords.attribution import (AttributionMatrix, completeness_residual,
                                    integrated_gradients, logit_value,
                                    normalize_document, token_scores,
                                    word_scores)
from igkeywords.corpus import LabelSpace, ValidationError
from igkeywords.model import (ModelParams, TrainConfig, build_vocab,
                              init_model, token_ids, train)
from reference_corpus import make_document


def ig_from_gradient_fn(gradient_fn, inputs: np.ndarray, baseline: np.ndarray,
                        steps: int) -> np.ndarray:
    """Generic midpoint-rule IG given any gradient callable on [T, d] inputs:
    an architecture-independent reference for ``integrated_gradients``."""
    total = np.zeros_like(inputs, dtype=float)
    delta = inputs - baseline
    for s in range(1, steps + 1):
        alpha = (s - 0.5) / steps
        total += gradient_fn(baseline + alpha * delta)
    return delta * (total / steps)


def linear_model(rng, vocab_size=10, d=4, h=3, n_classes=2):
    """Identity activation makes the logit linear in the inputs."""
    cfg = TrainConfig(d=d, h=h, activation="identity",
                      seed=int(rng.integers(2**31)))
    vocab = {f"p{i}": i for i in range(vocab_size)}
    return init_model(vocab, n_classes, cfg)


def trained_on_all(corpus, cfg):
    rows = np.arange(len(corpus))
    return train(init_model(build_vocab(corpus, rows), 4, cfg), corpus, rows,
                 cfg)


def effective_weights(params, class_index):
    """Per-dimension input weight of a linear (identity-activation) model."""
    return params.hidden_weights @ params.output_weights[:, class_index]


@pytest.fixture
def piece_space():
    return LabelSpace(("a", "b"))


def doc_from_pieces(piece_space, text="p1 p2 p3 p4"):
    return make_document("doc", text, {"a"}, piece_space)


class TestIntegratedGradients:
    def test_linear_exactness(self, piece_space):
        rng = np.random.default_rng(0)
        params = linear_model(rng)
        doc = doc_from_pieces(piece_space)
        inputs = params.embedding[token_ids(params, doc)]
        w = effective_weights(params, 0) / inputs.shape[0]
        for m in (1, 5, 50):
            attr = integrated_gradients(params, doc, 0, steps=m)
            assert np.allclose(attr.values, inputs * w, atol=1e-12)

    def test_input_equal_to_baseline_gives_zero(self, piece_space):
        rng = np.random.default_rng(1)
        params = linear_model(rng)
        params.embedding[:] = 0.0
        doc = doc_from_pieces(piece_space)
        attr = integrated_gradients(params, doc, 0, steps=10)
        assert np.all(attr.values == 0)

    def test_matches_generic_path_integral(self, small_synth):
        from igkeywords.model import input_gradients_from_embeddings

        corpus, _ = small_synth
        cfg = TrainConfig(epochs=5, d=8, h=8, seed=3)
        params = trained_on_all(corpus, cfg)
        doc = corpus.document(3)
        inputs = params.embedding[token_ids(params, doc)]
        reference = ig_from_gradient_fn(
            lambda x: input_gradients_from_embeddings(params, x, 1),
            inputs, np.zeros_like(inputs), steps=25)
        attr = integrated_gradients(params, doc, 1, steps=25)
        assert np.allclose(attr.values, reference, atol=1e-12)

    def test_custom_baseline_vector(self, piece_space):
        rng = np.random.default_rng(4)
        params = linear_model(rng)
        doc = doc_from_pieces(piece_space)
        inputs = params.embedding[token_ids(params, doc)]
        base_vec = rng.normal(size=4)
        attr = integrated_gradients(params, doc, 0, baseline=base_vec, steps=7)
        w = effective_weights(params, 0) / inputs.shape[0]
        assert np.allclose(attr.values, (inputs - base_vec) * w, atol=1e-12)
        assert attr.baseline_kind == "custom"

    def test_bad_steps_rejected(self, piece_space):
        rng = np.random.default_rng(5)
        params = linear_model(rng)
        with pytest.raises(ValidationError):
            integrated_gradients(params, doc_from_pieces(piece_space), 0, steps=0)


class TestCompletenessResidual:
    def test_linear_model_residual_is_rounding_level(self, piece_space):
        rng = np.random.default_rng(6)
        params = linear_model(rng)
        doc = doc_from_pieces(piece_space)
        inputs = params.embedding[token_ids(params, doc)]
        attr = integrated_gradients(params, doc, 0, steps=5)
        f_x = logit_value(params, inputs, 0)
        f_0 = logit_value(params, np.zeros_like(inputs), 0)
        assert completeness_residual(attr, f_x, f_0) < 1e-12

    def test_zero_case(self):
        attr = AttributionMatrix(values=np.zeros((2, 2)), class_index=0,
                                 doc_id="d", baseline_kind="zero", steps=1)
        assert completeness_residual(attr, 0.0, 0.0) == 0.0


class TestTokenScores:
    def test_row_sums(self):
        attr = AttributionMatrix(values=np.array([[1.0, -2.0], [3.0, 4.0]]),
                                 class_index=0, doc_id="d",
                                 baseline_kind="zero", steps=1)
        assert np.array_equal(token_scores(attr), [-1.0, 7.0])

    def test_total_preserved(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(5, 3))
        attr = AttributionMatrix(values=values, class_index=0, doc_id="d",
                                 baseline_kind="zero", steps=1)
        assert token_scores(attr).sum() == pytest.approx(values.sum())


class TestNormalizeDocument:
    def test_three_four_five(self):
        assert np.allclose(normalize_document(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_vector_unchanged(self):
        assert np.array_equal(normalize_document(np.zeros(3)), np.zeros(3))

    def test_unit_norm(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=11)
        assert np.linalg.norm(normalize_document(v)) == pytest.approx(1.0)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=6)
        for lam in (0.25, 3.0, 1e4):
            assert np.allclose(normalize_document(lam * v),
                               normalize_document(v), atol=1e-12)


class TestWordScores:
    def test_subword_max(self, piece_space):
        doc = make_document("d", "recipes!", {"a"}, piece_space, max_piece_len=4)
        assert [p for p, _ in doc.subwords] == ["reci", "##pes"]
        records = word_scores(np.array([0.2, 0.5]), doc, "a")
        assert len(records) == 1
        assert records[0].score == pytest.approx(0.5)
        assert records[0].word == "recipes"

    def test_single_token_word_direct(self, piece_space):
        doc = make_document("d", "to", {"a"}, piece_space)
        records = word_scores(np.array([0.31]), doc, "a")
        assert records[0].score == pytest.approx(0.31)

    def test_repeated_word_takes_occurrence_max(self, piece_space):
        doc = make_document("d", "spam ham spam", {"a"}, piece_space)
        records = word_scores(np.array([0.1, 0.9, 0.4]), doc, "a")
        by_word = {r.word: r.score for r in records}
        assert by_word["spam"] == pytest.approx(0.4)
        assert by_word["ham"] == pytest.approx(0.9)

    def test_brute_force_equivalence(self, piece_space):
        rng = np.random.default_rng(10)
        doc = make_document("d", "abcdefgh xy abcdefgh zq xy", {"a"},
                            piece_space, max_piece_len=3)
        scores = rng.normal(size=len(doc.subwords))
        records = word_scores(scores, doc, "a")
        for rec in records:
            expected = max(scores[i] for i, (_, wi) in enumerate(doc.subwords)
                           if doc.words[wi] == rec.word)
            assert rec.score == pytest.approx(expected)

    def test_length_mismatch_rejected(self, piece_space):
        doc = make_document("d", "one two", {"a"}, piece_space)
        with pytest.raises(ValidationError):
            word_scores(np.zeros(5), doc, "a")
