import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igkeywords.corpus import (CONTINUATION, Corpus, CorpusParseError,
                               LabelSpace, SplitSpec, SynthConfig,
                               ValidationError, encode_corpus,
                               generate_synthetic, load_corpus, make_document,
                               save_corpus, stratified_split, tokenize)
from reference_round import compute_doc_frequency


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def doc_frequency(corpus) -> dict[str, int]:
    """``CorpusEncoding.doc_frequency`` by word."""
    encoding = encode_corpus(corpus)
    return dict(zip(encoding.words, encoding.doc_frequency().tolist()))


class TestTokenize:
    def test_chunking(self):
        words, subwords = tokenize("Recipes!", 4)
        assert words == ["recipes"]
        assert subwords == [("reci", 0), ("##pes", 0)]

    def test_short_words_stay_whole(self):
        words, subwords = tokenize("to be", 4)
        assert words == ["to", "be"]
        assert subwords == [("to", 0), ("be", 1)]

    def test_empty(self):
        assert tokenize("", 4) == ([], [])

    def test_punctuation_stripped_and_lowercased(self):
        words, _ = tokenize("Try this recipe!", 4)
        assert words == ["try", "this", "recipe"]

    def test_underscore_is_a_separator(self):
        words, _ = tokenize("a_b", 4)
        assert words == ["a", "b"]

    @given(st.text(max_size=60), st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_alignment_totality(self, text, piece_len):
        words, subwords = tokenize(text, piece_len)
        rebuilt = {}
        for piece, wi in subwords:
            assert 0 <= wi < len(words)
            rebuilt[wi] = rebuilt.get(wi, "") + piece.removeprefix(CONTINUATION)
        for wi, word in enumerate(words):
            assert rebuilt[wi] == word
            assert word and word == word.lower()

    def test_subword_indices_contiguous(self):
        _, subwords = tokenize("abcdefgh xy abcdefgh", 3)
        indices = [wi for _, wi in subwords]
        assert indices == sorted(indices)


class TestLoadCorpus:
    def test_basic_load(self, tmp_path, label_space):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "Try this recipe!", "labels": ["HI"]},
            {"id": "b", "text": "A recipe thread", "labels": ["ID", "HI"]},
        ])
        corpus = load_corpus(path, label_space)
        assert corpus.documents[0].words == ("try", "this", "recipe")
        assert doc_frequency(corpus)["recipe"] == 2
        assert doc_frequency(corpus)["try"] == 1

    def test_unknown_label_rejected(self, tmp_path, label_space):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "text": "x", "labels": ["XX"]}])
        with pytest.raises(ValidationError, match="XX"):
            load_corpus(path, label_space)

    def test_malformed_line_names_line_number(self, tmp_path, label_space):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            fh.write('{"id": "a", "text": "x", "labels": []}\n')
            fh.write("not json\n")
        with pytest.raises(CorpusParseError, match="line 2"):
            load_corpus(path, label_space)

    def test_empty_corpus_rejected(self, tmp_path, label_space):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_corpus(path, label_space)

    def test_duplicate_ids_rejected(self, tmp_path, label_space):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "text": "x", "labels": []},
                           {"id": "a", "text": "y", "labels": []}])
        with pytest.raises(ValidationError):
            load_corpus(path, label_space)

    def test_round_trip(self, tmp_path, label_space):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "Try this recipe!", "labels": ["HI"]},
            {"id": "b", "text": "forum thread reply", "labels": ["ID"]},
        ])
        corpus = load_corpus(path, label_space)
        out = tmp_path / "out.jsonl"
        save_corpus(corpus, out)
        reloaded = load_corpus(out, label_space)
        assert reloaded.documents == corpus.documents
        assert doc_frequency(reloaded) == doc_frequency(corpus)


class TestDocFrequency:
    def test_counts_documents_not_occurrences(self, label_space):
        docs = [make_document("a", "spam spam spam", {"HI"}, label_space),
                make_document("b", "spam once", {"ID"}, label_space)]
        corpus = Corpus(label_space=label_space, documents=docs)
        assert doc_frequency(corpus)["spam"] == 2

    def test_df_monotonicity(self, label_space):
        docs = [make_document("a", "alpha beta", {"HI"}, label_space)]
        base = Corpus(label_space=label_space, documents=list(docs))
        docs.append(make_document("b", "alpha gamma", {"ID"}, label_space))
        bigger = Corpus(label_space=label_space, documents=docs)
        assert (doc_frequency(bigger)["alpha"]
                == doc_frequency(base)["alpha"] + 1)

    @pytest.mark.parametrize("shape", ["small", "explain-bound"])
    def test_equals_per_document_count(self, small_synth, shape):
        if shape == "small":
            corpus, _ = small_synth
        else:  # the benchmark's explain-bound corpus: long documents
            corpus, _ = generate_synthetic(SynthConfig(
                num_classes=4, docs_per_class=250,
                background_vocab_size=20000, markers_per_class=5,
                doc_length=(120, 240)), seed=1)
        empty = make_document("empty", "?!", {"c0"}, corpus.label_space)
        corpus = Corpus(corpus.label_space, [empty] + corpus.documents)
        assert doc_frequency(corpus) == compute_doc_frequency(
            corpus.documents)


def single_class_corpus(label_space, n=100):
    docs = [make_document(f"d{i}", f"word{i} filler", {"HI"}, label_space)
            for i in range(n)]
    return Corpus(label_space=label_space, documents=docs)


class TestStratifiedSplit:
    def test_single_class_plain_split(self, label_space):
        corpus = single_class_corpus(label_space, 100)
        train, val = stratified_split(corpus, SplitSpec(ratio=0.67, seed=0))
        assert len(train.documents) == 67
        assert len(val.documents) == 33

    def test_partition(self, label_space):
        corpus = single_class_corpus(label_space, 50)
        for seed in range(5):
            train, val = stratified_split(corpus, SplitSpec(ratio=0.6, seed=seed))
            train_ids = {d.id for d in train.documents}
            val_ids = {d.id for d in val.documents}
            assert train_ids.isdisjoint(val_ids)
            assert train_ids | val_ids == {d.id for d in corpus.documents}

    def test_determinism(self, small_synth):
        corpus, _ = small_synth
        spec = SplitSpec(ratio=0.67, seed=99)
        a = stratified_split(corpus, spec)
        b = stratified_split(corpus, spec)
        assert [d.id for d in a[0].documents] == [d.id for d in b[0].documents]
        assert [d.id for d in a[1].documents] == [d.id for d in b[1].documents]

    def test_per_class_fractions(self, label_space):
        # class proportions 0.5 / 0.3 / 0.2 over 200 single-label docs
        sizes = {"HI": 100, "ID": 60, "IN": 40}
        docs = []
        for cls, n in sizes.items():
            for i in range(n):
                docs.append(make_document(f"{cls}{i}", f"tok{i} pad", {cls},
                                          label_space))
        corpus = Corpus(label_space=label_space, documents=docs)
        train, _ = stratified_split(corpus, SplitSpec(ratio=0.67, seed=3))
        for cls, n in sizes.items():
            in_train = sum(1 for d in train.documents if cls in d.labels)
            assert 0.62 <= in_train / n <= 0.72

    def test_rare_class_warning(self, label_space):
        docs = [make_document("a", "x y", {"HI"}, label_space)]
        docs += [make_document(f"b{i}", "z w", {"ID"}, label_space)
                 for i in range(10)]
        corpus = Corpus(label_space=label_space, documents=docs)
        with pytest.warns(UserWarning, match="fewer than 2"):
            stratified_split(corpus, SplitSpec(ratio=0.5, seed=0))


class TestGenerateSynthetic:
    def test_marker_construction(self):
        config = SynthConfig(num_classes=4, docs_per_class=5,
                             background_vocab_size=100, markers_per_class=3,
                             doc_length=(5, 10))
        _, markers = generate_synthetic(config, seed=0)
        assert len(markers) == 4
        assert all(len(ws) == 3 for ws in markers.values())
        all_markers = [w for ws in markers.values() for w in ws]
        assert len(set(all_markers)) == 12

    def test_certain_injection(self):
        config = SynthConfig(num_classes=2, docs_per_class=20,
                             background_vocab_size=50, markers_per_class=2,
                             marker_injection_prob=1.0, doc_length=(5, 8),
                             multilabel_prob=0.0)
        corpus, markers = generate_synthetic(config, seed=1)
        for doc in corpus.documents:
            (cls,) = doc.labels
            assert markers[cls] <= set(doc.words)

    def test_injection_rate_concentrates(self):
        config = SynthConfig(num_classes=2, docs_per_class=500,
                             background_vocab_size=300, markers_per_class=3,
                             marker_injection_prob=0.8, doc_length=(10, 20),
                             multilabel_prob=0.0)
        corpus, markers = generate_synthetic(config, seed=2)
        for cls, ws in markers.items():
            members = [d for d in corpus.documents if cls in d.labels]
            for w in ws:
                rate = sum(w in d.words for d in members) / len(members)
                assert 0.75 <= rate <= 0.85

    def test_markers_disjoint_from_background(self):
        config = SynthConfig(num_classes=3, docs_per_class=30,
                             background_vocab_size=200, markers_per_class=2,
                             doc_length=(5, 10))
        corpus, markers = generate_synthetic(config, seed=3)
        marker_set = {w for ws in markers.values() for w in ws}
        background = {w for d in corpus.documents for w in d.words} - marker_set
        assert marker_set.isdisjoint(background)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_classes=4, markers_per_class=3,
                        background_vocab_size=12)
        with pytest.raises(ValidationError):
            SynthConfig(marker_injection_prob=1.5)
        with pytest.raises(ValidationError):
            SynthConfig(doc_length=(10, 5))
