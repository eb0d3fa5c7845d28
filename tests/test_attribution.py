import numpy as np
import pytest

from igkeywords import checks
from igkeywords.attribution import pair_weights
from igkeywords.corpus import LabelSpace, ValidationError, build_corpus
from igkeywords.model import (TrainConfig, build_vocab, init_model,
                              path_mean_gradients, piece_rows,
                              pool_documents, train)
from reference_corpus import make_document
from reference_round import (input_gradients_from_embeddings,
                             midpoint_path_gradient, normalize_document,
                             word_scores)


def ig_from_gradient_fn(gradient_fn, inputs: np.ndarray, baseline: np.ndarray,
                        nodes: int) -> np.ndarray:
    """Generic IG given any gradient callable on [T, d] inputs, its path
    integral by Gauss-Legendre quadrature with ``nodes`` nodes: an
    architecture-independent reference for ``pair_weights``."""
    alphas, weights = np.polynomial.legendre.leggauss(nodes)
    total = np.zeros_like(inputs, dtype=float)
    delta = inputs - baseline
    for alpha, weight in zip((alphas + 1) / 2, weights / 2):
        total += weight * gradient_fn(baseline + alpha * delta)
    return delta * total


def linear_model(rng, vocab_size, d=4, h=3, n_classes=2):
    """Identity activation makes the logit linear in the inputs."""
    cfg = TrainConfig(d=d, h=h, activation="identity")
    return init_model(np.arange(vocab_size), n_classes, cfg,
                      seed=int(rng.integers(2**31)))


def trained_on_all(corpus, cfg, seed):
    rows = np.arange(len(corpus))
    return train(init_model(build_vocab(corpus, rows), 4, cfg, seed), corpus,
                 rows, cfg, seed)


def effective_weights(params, class_index):
    """Per-dimension input weight of a linear (identity-activation) model."""
    return params.hidden_weights @ params.output_weights[:, class_index]


@pytest.fixture
def piece_space():
    return LabelSpace(("a", "b"))


def attribute_row(params, corpus, row, class_index):
    """The IG values ``pair_weights`` gives the tokens of one (row, class)
    pair, [T, d], and the [T, d] input embeddings they attribute."""
    pieces = piece_rows(params, corpus)
    rows = np.array([row])
    weights = pair_weights(params, corpus, rows,
                           pool_documents(params, pieces, corpus, rows),
                           np.array([class_index]))
    inputs = params.embedding[pieces[corpus.positions(rows)[0]]]
    return inputs * weights[0], inputs


def pieces_corpus(piece_space, text="p1 p2 p3 p4"):
    return build_corpus([("doc", text, {"a"})], piece_space)


class TestIntegratedGradients:
    def test_linear_exactness(self, piece_space):
        rng = np.random.default_rng(0)
        corpus = pieces_corpus(piece_space)
        params = linear_model(rng, vocab_size=len(corpus.pieces))
        values, inputs = attribute_row(params, corpus, 0, 0)
        w = effective_weights(params, 0) / inputs.shape[0]
        assert np.allclose(values, inputs * w, atol=1e-12)

    def test_input_equal_to_baseline_gives_zero(self, piece_space):
        rng = np.random.default_rng(1)
        corpus = pieces_corpus(piece_space)
        params = linear_model(rng, vocab_size=len(corpus.pieces))
        params.embedding[:] = 0.0
        values, _ = attribute_row(params, corpus, 0, 0)
        assert np.all(values == 0)

    def test_matches_generic_path_integral(self, small_synth):
        corpus, _ = small_synth
        cfg = TrainConfig(epochs=5, d=8, h=8)
        params = trained_on_all(corpus, cfg, seed=3)
        values, inputs = attribute_row(params, corpus, 3, 1)
        reference = ig_from_gradient_fn(
            lambda x: input_gradients_from_embeddings(params, x, 1),
            inputs, np.zeros_like(inputs), nodes=40)
        assert np.allclose(values, reference, atol=1e-12)

    def test_midpoint_rule_converges_to_it_at_second_order(self):
        # The midpoint rule's error is -(f'(1) - f'(0)) / (24 m^2) +
        # O(1/m^4), so quadrupling m divides it by 16, and m = 1000 after
        # m = 200 by 25.
        params, corpus, val_rows = checks.completeness_model()
        pooled = pool_documents(params, piece_rows(params, corpus), corpus,
                                val_rows)
        classes = np.arange(len(val_rows)) % params.num_classes
        exact = path_mean_gradients(params, pooled, classes)
        errors = []
        for m in (50, 200, 1000):
            midpoint = np.array([
                midpoint_path_gradient(params, row, c, m)
                for row, c in zip(pooled, classes.tolist())])
            errors.append(np.max(np.abs(midpoint - exact))
                          / np.max(np.abs(exact)))
        assert 1e-7 < errors[0] < 1e-4
        assert errors[0] / errors[1] == pytest.approx(16, rel=0.05)
        assert errors[1] / errors[2] == pytest.approx(25, rel=0.05)


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
