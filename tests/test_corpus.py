import json
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igkeywords import corpus as corpus_module
from igkeywords.corpus import (CONTINUATION, CorpusParseError, LabelSpace,
                               SynthConfig, ValidationError,
                               build_corpus, generate_synthetic, load_corpus,
                               save_corpus, stratified_split)
from reference_corpus import (document_view, documents_of, encode_documents,
                              records_of, reference_load_corpus,
                              reference_stratified_split, tokenize)
from reference_round import compute_doc_frequency

#: the synthetic corpora of the two benchmark workloads (bench/run.py)
BENCHMARK_SYNTH = {
    "train-bound": SynthConfig(num_classes=4, docs_per_class=500,
                               background_vocab_size=5000,
                               markers_per_class=3, doc_length=(30, 80)),
    "explain-bound": SynthConfig(num_classes=4, docs_per_class=250,
                                 background_vocab_size=20000,
                                 markers_per_class=5, doc_length=(120, 240)),
}


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def doc_frequency(corpus) -> dict[str, int]:
    """``Corpus.doc_frequency`` by word."""
    return dict(zip(corpus.words, corpus.doc_frequency().tolist()))


def documents(corpus):
    return [document_view(corpus, i) for i in range(len(corpus))]


@contextmanager
def piece_length(n):
    """Corpora built inside cut words into pieces of at most ``n``
    characters."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "MAX_PIECE_LEN", n)
        yield


def tokens(text, max_piece_len=4):
    """The words and (piece, word index) pairs of ``text`` as the corpus
    holds them, cut into pieces of at most ``max_piece_len``."""
    with piece_length(max_piece_len):
        doc = document_view(build_corpus([("d", text, [])],
                                         LabelSpace(("a",))), 0)
    return list(doc.words), list(doc.subwords)


class TestTokenize:
    def test_chunking(self):
        words, subwords = tokens("Recipes!", 4)
        assert words == ["recipes"]
        assert subwords == [("reci", 0), ("##pes", 0)]

    def test_short_words_stay_whole(self):
        words, subwords = tokens("to be", 4)
        assert words == ["to", "be"]
        assert subwords == [("to", 0), ("be", 1)]

    def test_empty(self):
        assert tokens("", 4) == ([], [])

    def test_punctuation_stripped_and_lowercased(self):
        words, _ = tokens("Try this recipe!", 4)
        assert words == ["try", "this", "recipe"]

    def test_underscore_is_a_separator(self):
        words, _ = tokens("a_b", 4)
        assert words == ["a", "b"]

    @given(st.text(max_size=60), st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_alignment_totality(self, text, piece_len):
        words, subwords = tokens(text, piece_len)
        rebuilt = {}
        for piece, wi in subwords:
            assert 0 <= wi < len(words)
            rebuilt[wi] = rebuilt.get(wi, "") + piece.removeprefix(CONTINUATION)
        for wi, word in enumerate(words):
            assert rebuilt[wi] == word
            assert word and word == word.lower()
        assert (words, subwords) == tokenize(text, piece_len)

    def test_subword_indices_contiguous(self):
        _, subwords = tokens("abcdefgh xy abcdefgh", 3)
        indices = [wi for _, wi in subwords]
        assert indices == sorted(indices)

    def test_text_is_lowercased_whole(self):
        # "İ".lower() is "i" plus a combining dot, which is not a word
        # character: lowercased word by word, "İx" would stay one word.
        assert tokens("İx", 4)[0] == tokenize("İx", 4)[0] == ["i", "x"]


class TestLoadCorpus:
    def test_basic_load(self, tmp_path, label_space):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "Try this recipe!", "labels": ["HI"]},
            {"id": "b", "text": "A recipe thread", "labels": ["ID", "HI"]},
        ])
        corpus = load_corpus(path, label_space)
        assert document_view(corpus, 0).words == ("try", "this", "recipe")
        assert doc_frequency(corpus)["recipe"] == 2
        assert doc_frequency(corpus)["try"] == 1

    def test_classes_default_to_the_labels_seen(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "text": "x", "labels": ["b", "b"]},
                           {"id": "b", "text": "y", "labels": []},
                           {"id": "c", "text": "z", "labels": ["a", "c"]}])
        corpus = load_corpus(path)
        assert corpus.label_space.classes == ("a", "b", "c")
        assert corpus.labels.tolist() == [[0, 1, 0], [0, 0, 0], [1, 0, 1]]

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

    def test_non_utf8_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "a", "text": "x", "labels": ["p"]}\n'
                         b'{"id": "b", "text": "caf\xe9", "labels": ["p"]}\n')
        with pytest.raises(CorpusParseError, match="line 2 is not UTF-8"):
            load_corpus(path)

    def test_empty_corpus_rejected(self, tmp_path, label_space):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_corpus(path, label_space)
        with pytest.raises(ValidationError, match="corpus is empty"):
            load_corpus(path)

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
        assert documents(reloaded) == documents(corpus)
        assert doc_frequency(reloaded) == doc_frequency(corpus)
        save_corpus(reloaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == out.read_bytes()


def assert_matches_oracle(corpus, docs):
    """``corpus`` holds what the per-document path gives for ``docs``."""
    want = encode_documents(docs, corpus.label_space.classes)
    for name, value in want.items():
        got = getattr(corpus, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype, name
            assert np.array_equal(got, value), name
        else:
            assert got == value, name
    assert doc_frequency(corpus) == compute_doc_frequency(docs)
    assert documents(corpus) == docs


label_names = st.sampled_from(["a", "b", "c"])
texts = st.lists(st.one_of(st.sampled_from(["İ", "İstanbul", "_", "a_b", "7",
                                            "x9", "", " ", "ß", "Ǆ", "##"]),
                           st.text(max_size=12)),
                 max_size=8).map(" ".join)


class TestIngestMatchesOracle:
    @given(st.lists(st.tuples(texts, st.lists(label_names, max_size=4)),
                    min_size=1, max_size=8),
           st.integers(min_value=1, max_value=5), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_records(self, tmp_path_factory, records, piece_len,
                     with_classes):
        path = tmp_path_factory.mktemp("ingest") / "c.jsonl"
        write_jsonl(path, [{"id": f"d{i}", "text": text, "labels": labels}
                           for i, (text, labels) in enumerate(records)])
        space = LabelSpace(("c", "b", "a", "z"))
        if not with_classes:
            seen = sorted({label for _, labels in records for label in labels})
            if not seen:
                with pytest.raises(ValidationError):
                    load_corpus(path)
                return
            space = LabelSpace(tuple(seen))
        with piece_length(piece_len):
            corpus = load_corpus(path, space if with_classes else None)
        assert corpus.label_space == space
        assert_matches_oracle(corpus, reference_load_corpus(path, space,
                                                            piece_len))

    @pytest.mark.parametrize("workload", sorted(BENCHMARK_SYNTH))
    def test_benchmark_corpora(self, tmp_path, workload):
        generated, _ = generate_synthetic(BENCHMARK_SYNTH[workload], seed=1)
        path = tmp_path / "corpus.jsonl"
        save_corpus(generated, path)
        corpus = load_corpus(path)
        docs = reference_load_corpus(path, corpus.label_space)
        assert_matches_oracle(corpus, docs)
        assert_matches_oracle(generated, docs)


#: texts of a few words that share pieces and repeat within a document
repeated_words = st.lists(st.sampled_from(["abcdx", "abcdy", "abcd", "ab",
                                           "x", "zyxwvuts"]),
                          max_size=12).map(" ".join)


class TestWordOrder:
    @given(st.lists(st.one_of(repeated_words, texts), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_sorts_each_document_stably_by_word(self, doc_texts, piece_len):
        with piece_length(piece_len):
            corpus = build_corpus([(f"d{i}", text, [])
                                   for i, text in enumerate(doc_texts)],
                                  LabelSpace(("a",)))
        order, first = corpus.word_order
        assert order.shape == first.shape == corpus.word_ids.shape
        bounds = corpus.offsets.tolist()
        for start, end in zip(bounds[:-1], bounds[1:]):
            word_ids = corpus.word_ids[start:end].tolist()
            want = sorted(range(end - start), key=lambda i: (word_ids[i], i))
            assert (order[start:end] - start).tolist() == want
            words = [word_ids[i] for i in want]
            assert first[start:end].tolist() == [
                i == 0 or words[i] != words[i - 1] for i in range(len(words))]


class TestDocFrequency:
    def test_counts_documents_not_occurrences(self, label_space):
        corpus = build_corpus([("a", "spam spam spam", {"HI"}),
                               ("b", "spam once", {"ID"})], label_space)
        assert doc_frequency(corpus)["spam"] == 2

    def test_df_monotonicity(self, label_space):
        records = [("a", "alpha beta", {"HI"})]
        base = build_corpus(records, label_space)
        bigger = build_corpus(records + [("b", "alpha gamma", {"ID"})],
                              label_space)
        assert (doc_frequency(bigger)["alpha"]
                == doc_frequency(base)["alpha"] + 1)

    @pytest.mark.parametrize("shape", ["small", "explain-bound"])
    def test_equals_per_document_count(self, small_synth, shape):
        if shape == "small":
            corpus, _ = small_synth
        else:  # the benchmark's explain-bound corpus: long documents
            corpus, _ = generate_synthetic(BENCHMARK_SYNTH[shape], seed=1)
        corpus = build_corpus([("empty", "?!", {"c0"})] + records_of(corpus),
                              corpus.label_space)
        assert doc_frequency(corpus) == compute_doc_frequency(
            documents_of(corpus))


def single_class_corpus(label_space, n=100):
    return build_corpus([(f"d{i}", f"word{i} filler", {"HI"})
                         for i in range(n)], label_space)


class TestStratifiedSplit:
    def test_single_class_plain_split(self, label_space):
        corpus = single_class_corpus(label_space, 100)
        train, val = stratified_split(corpus, 0.67, 0)
        assert len(train) == 67
        assert len(val) == 33

    def test_partition(self, label_space):
        corpus = single_class_corpus(label_space, 50)
        for seed in range(5):
            train, val = stratified_split(corpus, 0.6, seed)
            assert set(train).isdisjoint(val)
            assert set(train) | set(val) == set(range(len(corpus)))

    def test_determinism(self, small_synth):
        corpus, _ = small_synth
        a = stratified_split(corpus, 0.67, 99)
        b = stratified_split(corpus, 0.67, 99)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_per_class_fractions(self, label_space):
        # class proportions 0.5 / 0.3 / 0.2 over 200 single-label docs
        sizes = {"HI": 100, "ID": 60, "IN": 40}
        corpus = build_corpus([(f"{cls}{i}", f"tok{i} pad", {cls})
                               for cls, n in sizes.items() for i in range(n)],
                              label_space)
        train, _ = stratified_split(corpus, 0.67, 3)
        for cls, n in sizes.items():
            in_train = corpus.labels[train, label_space.classes.index(cls)].sum()
            assert 0.62 <= in_train / n <= 0.72

    @pytest.mark.parametrize("ratio", [0.0, 1.0, float("nan")])
    def test_ratio_outside_the_open_unit_interval(self, label_space, ratio):
        with pytest.raises(ValidationError, match="split ratio"):
            stratified_split(single_class_corpus(label_space, 10), ratio, 0)

    def test_rare_class_warning(self, label_space):
        corpus = build_corpus([("a", "x y", {"HI"})]
                              + [(f"b{i}", "z w", {"ID"}) for i in range(10)],
                              label_space)
        with pytest.warns(UserWarning, match="fewer than 2"):
            stratified_split(corpus, 0.5, 0)


def split_both_ways(label_sets, classes, ratio, seed):
    """The row split and the set-based oracle's split of documents with
    ``label_sets``, each with the warnings it gave."""
    space = LabelSpace(classes)
    corpus = build_corpus([(f"d{i}", "x", labels)
                           for i, labels in enumerate(label_sets)], space)
    results = []
    for split in (lambda: stratified_split(corpus, ratio, seed),
                  lambda: reference_stratified_split(documents_of(corpus),
                                                     classes, ratio, seed)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train, val = split()
        results.append((list(train), list(val),
                        [str(w.message) for w in caught]))
    return results


class TestSplitMatchesOracle:
    # Class names out of index order, so the name tie-break is not the
    # index order.
    CLASSES = ("m", "b", "z", "a")

    @given(st.lists(st.sets(st.sampled_from(CLASSES)), min_size=2,
                    max_size=40),
           st.floats(min_value=0.05, max_value=0.95),
           st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_random_label_matrices(self, label_sets, ratio, seed):
        got, want = split_both_ways(label_sets, self.CLASSES, ratio, seed)
        assert got == want

    @pytest.mark.parametrize("label_sets, n_warnings", [
        ([set(), set(), set(), set(), set()], 0),               # label-free
        ([{"a"}, {"b"}, {"z"}, set(), {"m", "a"}], 3),          # singletons
        ([{"a"}, {"a"}, {"b"}, {"b"}, {"z"}, {"z"}, set()], 0),  # equal sizes
        ([{"m", "b", "z", "a"}] * 3 + [{"b"}, set()], 0),       # all labels
    ], ids=["label-free", "singletons", "ties", "all-labels"])
    @pytest.mark.parametrize("seed", range(4))
    def test_edge_cases(self, label_sets, n_warnings, seed):
        got, want = split_both_ways(label_sets, self.CLASSES, 0.5, seed)
        assert got == want
        assert len(got[2]) == n_warnings


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
        for doc in documents(corpus):
            (cls,) = doc.labels
            assert markers[cls] <= set(doc.words)

    def test_injection_rate_concentrates(self):
        config = SynthConfig(num_classes=2, docs_per_class=500,
                             background_vocab_size=300, markers_per_class=3,
                             marker_injection_prob=0.8, doc_length=(10, 20),
                             multilabel_prob=0.0)
        corpus, markers = generate_synthetic(config, seed=2)
        for cls, ws in markers.items():
            members = [d for d in documents(corpus) if cls in d.labels]
            for w in ws:
                rate = sum(w in d.words for d in members) / len(members)
                assert 0.75 <= rate <= 0.85

    def test_markers_disjoint_from_background(self):
        config = SynthConfig(num_classes=3, docs_per_class=30,
                             background_vocab_size=200, markers_per_class=2,
                             doc_length=(5, 10))
        corpus, markers = generate_synthetic(config, seed=3)
        marker_set = {w for ws in markers.values() for w in ws}
        background = {w for d in documents(corpus) for w in d.words} - marker_set
        assert marker_set.isdisjoint(background)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_classes=4, markers_per_class=3,
                        background_vocab_size=12)
        with pytest.raises(ValidationError):
            SynthConfig(marker_injection_prob=1.5)
        with pytest.raises(ValidationError):
            SynthConfig(doc_length=(10, 5))

