"""Differential tests: the batched explain pass and the grouped-sum
aggregate against the per-document round loop and the dict aggregate they
replaced (``reference_round.py``).

Selected words, ranks, counts, F1 and aggregates compare exactly
(``np.array_equal``, ``same_table`` or ``==``).  IG values and word scores
compare within a tolerance: the batched pass takes a token's score as one
cell of a matrix product, the reference as the sum of its per-dimension
values, and the two round differently.
"""

import dataclasses
import hashlib
import io
import json
import re

import numpy as np
import pytest

from igkeywords import attribution, checks, cli, model, rundir
from igkeywords.corpus import (LabelSpace, ValidationError,
                               build_corpus, generate_synthetic, load_corpus,
                               save_corpus, stratified_split)
from igkeywords.model import TrainConfig
from igkeywords.pipeline import (PipelineConfig, RoundResult, Selections,
                                 round_seeds, run_pipeline, run_round)
from igkeywords.rundir import load_aggregates, write_aggregates
from reference_corpus import documents_of, records_of
from reference_round import (AggregateRecord, WordScoreRecord,
                             aggregate_records, fold_rounds,
                             integrated_gradients,
                             normalize_document, predict, reference_aggregate,
                             reference_run_round, same_selections, same_table,
                             table_from_json, table_of, token_ids, top_n_words,
                             word_scores)

#: largest |difference| of a normalized word score (at most 1 in size)
#: from the reference's: a few roundings of a d-term dot product
SCORE_TOLERANCE = 1e-13
#: largest |difference| of an IG value from the reference's, relative to
#: the size of the value's terms: |token| * (|W_h| @ |w_c|) / T
VALUE_TOLERANCE = 1e-12


def assert_scores_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= SCORE_TOLERANCE


@pytest.fixture(scope="module")
def criterion_4_corpus():
    """The corpus of acceptance criterion 4."""
    return generate_synthetic(checks.ORACLE_SYNTH, seed=404)[0]


def train_config(activation="tanh"):
    """Trains far enough on both corpora that every selection target has
    pairs to attribute."""
    return TrainConfig(epochs=20, learning_rate=0.05, d=8, h=8,
                       activation=activation)


def small_config(**overrides):
    defaults = dict(ratio=0.6, top_n=5, rounds=3, master_seed=77,
                    train_config=train_config())
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def criterion_4_config(**overrides):
    overrides.setdefault("train_config", train_config())
    return dataclasses.replace(checks.ORACLE_CONFIG, rounds=3,
                               dump_scores=False, **overrides)


def as_columns(records, corpus):
    """Reference WordScoreRecords as (class, word, doc, score) columns."""
    word_of = {w: i for i, w in enumerate(corpus.words)}
    doc_of = {d: i for i, d in enumerate(corpus.doc_ids)}
    return (np.array([corpus.label_space.classes.index(r.class_name)
                      for r in records], dtype=np.intp),
            np.array([word_of[r.word] for r in records], dtype=np.intp),
            np.array([doc_of[r.doc_id] for r in records], dtype=np.intp),
            np.array([r.score for r in records], dtype=float))


def as_records(selections, corpus):
    return [WordScoreRecord(word=w, doc_id=d, class_name=c, score=s)
            for c, w, d, s in rundir.dumped(selections, corpus)]


def assert_round_matches_reference(corpus, config, round_index):
    batched, got = run_round(corpus, config, round_index)
    records, per_class, micro_f1 = reference_run_round(corpus, config,
                                                       round_index)
    *want, want_score = as_columns(records, corpus)
    for name, column in zip(("class_idx", "word_idx", "doc_idx"), want):
        assert np.array_equal(getattr(got, name), column), name
    assert_scores_close(got.score, want_score)
    assert batched.per_class == per_class
    assert batched.micro_f1 == micro_f1
    return len(records)


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("target", ["true-positive", "false-positive",
                                    "false-negative"])
def test_small_synth_rounds_match_per_document_loop(small_synth, target,
                                                    activation):
    corpus, _ = small_synth
    config = small_config(selection_target=target,
                          train_config=train_config(activation))
    selected = sum(assert_round_matches_reference(corpus, config, i)
                   for i in range(config.rounds))
    assert selected > 0


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("target", ["true-positive", "false-positive",
                                    "false-negative"])
def test_criterion_4_rounds_match_per_document_loop(criterion_4_corpus,
                                                    target, activation):
    config = criterion_4_config(selection_target=target,
                                train_config=train_config(activation))
    selected = sum(assert_round_matches_reference(criterion_4_corpus, config, i)
                   for i in range(config.rounds))
    assert selected > 0


def batch_pair_counts(monkeypatch):
    """A list that gets the pair count of each score table ``token_scores``
    fills from now on: the rows of each product of the pairs' weights."""
    sizes, token_scores = [], attribution.token_scores

    class Weights(np.ndarray):
        def __matmul__(self, other):
            table = np.asarray(self) @ other
            sizes.append(table.shape[0])
            return table

    def recorded(params, pieces, corpus, pair_rows, weights):
        return token_scores(params, pieces, corpus, pair_rows,
                            weights.view(Weights))
    monkeypatch.setattr(attribution, "token_scores", recorded)
    return sizes


@pytest.mark.parametrize("batch", [1, 4, 25, 1000, 10_000])
def test_chunk_size_does_not_change_selections(small_synth, monkeypatch,
                                               batch):
    # Six pairs: a batch of 1 takes one pair at a time, 4 split them 4 + 2,
    # and 25 and up take all six in one batch.
    corpus, _ = small_synth
    config = small_config(selection_target="false-negative")
    monkeypatch.setattr(model, "DOC_BATCH", batch)
    sizes = batch_pair_counts(monkeypatch)
    assert assert_round_matches_reference(corpus, config, 0) > 0
    assert sizes == {1: [1] * 6, 4: [4, 2]}.get(batch, [6])


def test_batched_predictions_match_predict(small_synth):
    corpus, _ = small_synth
    train_rows, val_rows = stratified_split(corpus, 0.6, 5)
    cfg = train_config()
    params = model.init_model(model.build_vocab(corpus, train_rows), 4, cfg,
                              seed=3)
    params = model.train(params, corpus, train_rows, cfg, seed=3)
    pieces = model.piece_rows(params, corpus)
    predicted = model.predict_pooled(
        params, model.pool_documents(params, pieces, corpus, val_rows), 0.5)
    classes = corpus.label_space.classes
    docs = documents_of(corpus)
    for doc, mask in zip((docs[i] for i in val_rows), predicted):
        assert {classes[i] for i in np.flatnonzero(mask)} == \
            predict(params, corpus, doc, 0.5)
    assert predicted.any()


def test_piece_rows_match_vocabulary_lookup(small_synth):
    corpus, _ = small_synth
    docs = documents_of(corpus)
    rows = np.arange(len(corpus))
    # vocabulary from half the corpus, so the other half has unknown pieces
    vocab = model.build_vocab(corpus, rows[::2])
    assert vocab.dtype.kind == "i" and (np.diff(vocab) > 0).all()
    assert [corpus.pieces[g] for g in vocab] == sorted(
        {p for doc in docs[::2] for p, _ in doc.subwords})
    params = model.init_model(vocab, 4, TrainConfig(d=4, h=4))
    pieces = model.piece_rows(params, corpus)
    assert pieces.shape == corpus.piece_ids.shape
    assert (pieces[corpus.positions(rows[1::2])[0]] == params.unk_index).any()
    for row in rows:
        doc = docs[row]
        span = slice(corpus.offsets[row], corpus.offsets[row + 1])
        assert np.array_equal(pieces[span], token_ids(params, corpus, doc))
        assert [corpus.words[w] for w in corpus.word_ids[span]] == \
            [doc.words[wi] for _, wi in doc.subwords]


def assert_pair_weights_match(params, corpus, rows, classes, per_call,
                              steps=None):
    """The IG values ``pair_weights`` gives the tokens of the (row, class)
    pairs, ``per_call`` pairs at a time, match the per-document closed form
    of each pair within VALUE_TOLERANCE.  With ``steps``, the midpoint rule
    of that many steps is also within its error bound of them: its error
    in the mean of tanh' along alpha * a + b is at most a^2 / (12 m^2), as
    the third derivative of tanh is at most 2 in size, and 0 for the
    identity."""
    pieces = model.piece_rows(params, corpus)
    pooled = model.pool_documents(params, pieces, corpus, rows)
    docs = documents_of(corpus)
    w_h = np.abs(params.hidden_weights)
    for first in range(0, len(rows), per_call):
        part = slice(first, first + per_call)
        weights = attribution.pair_weights(params, corpus, rows[part],
                                           pooled[part], classes[part])
        for row, ci, w, pooled_row in zip(rows[part], classes[part], weights,
                                          pooled[part]):
            tokens, _ = corpus.positions(np.array([row]))
            inputs = params.embedding[pieces[tokens]]
            values = inputs * w
            w_c = np.abs(params.output_weights[:, ci])
            size = np.abs(inputs) * (w_h @ w_c) / len(tokens)
            want = integrated_gradients(params, corpus, docs[row], ci)
            assert np.all(np.abs(values - want) <= VALUE_TOLERANCE * size)
            if steps is None:
                continue
            a = pooled_row @ params.hidden_weights
            slope_error = (a * a / (12 * steps**2)
                           if params.activation == "tanh" else 0 * a)
            bound = (np.abs(inputs) * (w_h @ (w_c * slope_error))
                     / len(tokens) + VALUE_TOLERANCE * size)
            midpoint = integrated_gradients(params, corpus, docs[row], ci,
                                            steps)
            assert np.all(np.abs(midpoint - values) <= bound)


def test_oracle_gradients_unchanged(small_synth):
    # Every class of ten documents, 7 pairs per call: calls split the
    # pairs of a document, as the score tables of token_scores do.
    corpus, _ = small_synth
    for activation in ("tanh", "identity"):
        cfg = TrainConfig(epochs=5, d=8, h=8, activation=activation)
        rows = np.arange(len(corpus))
        params = model.train(model.init_model(model.build_vocab(corpus, rows),
                                              4, cfg), corpus, rows, cfg)
        pair_rows, pair_classes = np.divmod(np.arange(40), 4)
        assert_pair_weights_match(params, corpus, pair_rows, pair_classes,
                                  per_call=7)


@pytest.fixture(scope="module")
def completeness_model():
    return checks.completeness_model()


@pytest.mark.parametrize("steps", [1, 10, 50, 300])
@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_pair_attributions_match_per_document_ig(completeness_model,
                                                 activation, steps):
    # The closed form against the per-document one, and the midpoint rule
    # of ``steps`` steps within its error bound of it.
    params, corpus, val_rows = completeness_model
    params = dataclasses.replace(params, activation=activation)
    assert_pair_weights_match(params, corpus, val_rows,
                              np.zeros(len(val_rows), dtype=np.intp),
                              per_call=len(val_rows), steps=steps)


def test_all_zero_attributions_score_zero(small_synth, monkeypatch):
    # A zero output-weight column makes every attribution of class 1 zero:
    # its pairs' L2 norm is zero, and their word scores stay 0.0.
    trained = model.train

    def class_1_silenced(*args):
        params = trained(*args)
        params.output_weights[:, 1] = 0.0
        return params

    monkeypatch.setattr(model, "train", class_1_silenced)
    corpus, _ = small_synth
    config = small_config(selection_target="false-negative")
    assert assert_round_matches_reference(corpus, config, 0) > 0
    _, selections = run_round(corpus, config, 0)
    silenced = selections.class_idx == 1
    assert silenced.any() and (selections.score[silenced] == 0.0).all()


def reference_top_words(params, corpus, rows, classes, top_n):
    """The (pair, word, score) columns of the per-document word-score
    chain, pair after pair."""
    docs = documents_of(corpus)
    word_of = {w: i for i, w in enumerate(corpus.words)}
    columns = []
    for pair, (row, ci) in enumerate(zip(rows.tolist(), classes.tolist())):
        scores = integrated_gradients(params, corpus, docs[row],
                                      ci).sum(axis=1)
        records = word_scores(normalize_document(scores), docs[row], str(ci))
        columns += [(pair, word_of[r.word], r.score)
                    for r in top_n_words(records, top_n)]
    pair, word, score = zip(*columns)
    return (np.array(pair, dtype=np.intp), np.array(word, dtype=np.intp),
            np.array(score))


def assert_top_words_match_reference(params, corpus, rows, classes, top_n):
    """``top_word_scores`` of the (row, class) pairs picks the reference's
    words in the reference's order, with scores within SCORE_TOLERANCE."""
    pieces = model.piece_rows(params, corpus)
    pooled = model.pool_documents(params, pieces, corpus, rows)
    got = attribution.top_word_scores(params, pieces, corpus, rows, pooled,
                                      classes, top_n)
    want = reference_top_words(params, corpus, rows, classes, top_n)
    for name, g, w in zip(("pair", "word"), got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert_scores_close(got[2], want[2])
    return got


def untrained_model(corpus, d):
    vocab = model.build_vocab(corpus, np.arange(len(corpus)))
    return model.init_model(vocab, len(corpus.label_space),
                            TrainConfig(d=d, h=4, activation="identity"))


@pytest.mark.parametrize("batch", [1, 4, 15, 40, 10_000])
def test_words_tied_by_a_shared_piece_rank_by_word(monkeypatch, batch):
    # abcdx, abcdy and abcdz have their best piece, abcd, in common, so
    # they tie; top 2 cuts the tie after abcdy.  Of the six pairs, a batch
    # of 1 takes one at a time, 4 split them 4 + 2, with the documents'
    # pairs across batches, and 15 and up take all six in one batch.
    monkeypatch.setattr(model, "DOC_BATCH", batch)
    sizes = batch_pair_counts(monkeypatch)
    corpus = build_corpus(
        [("t0", "abcdz qq abcdy abcdx qq abcdy", {"a"}),
         ("t1", "ww abcdx abcdz abcdy", {"b"}),
         ("t2", "abcdy qq", {"a", "b"})], LabelSpace(("a", "b")))
    params = untrained_model(corpus, d=3)
    # Identity activation: d(logit_0)/d(pooled) is the same vector g at
    # every point of the path, and a piece's token score for class 0 is
    # its row . g.
    g = params.hidden_weights @ params.output_weights[:, 0]
    row = np.searchsorted(params.vocab, corpus.pieces.index("abcd"))
    params.embedding[row] = 10 * g / np.linalg.norm(g)
    rows = np.repeat(np.arange(3), 2)
    classes = np.tile(np.arange(2), 3)
    pair, word, score = assert_top_words_match_reference(
        params, corpus, rows, classes, top_n=2)
    first = [corpus.words[w] for w in word[pair == 0]]
    assert first == ["abcdx", "abcdy"]
    assert score[pair == 0][0] == score[pair == 0][1]
    assert sizes == {1: [1] * 6, 4: [4, 2]}.get(batch, [6])


def test_batches_span_only_the_model_rows_they_use(monkeypatch):
    # A model over some 4,000 pieces pools and scores three short
    # documents, two to a batch: each bag and score table spans the few
    # rows its batch uses, never the model's width.
    monkeypatch.setattr(model, "DOC_BATCH", 2)
    corpus = build_corpus(
        [("wide", " ".join(f"{i:04x}" for i in range(4000)), {"a"}),
         ("t0", "w1 w2 w1 w3", {"a"}), ("t1", "w2 w5", {"b"}),
         ("t2", "w7 zz", {"b"})], LabelSpace(("a", "b")))
    params = untrained_model(corpus, d=3)
    pieces = model.piece_rows(params, corpus)
    widths, pool = [], model._pool

    def recorded(embedding, model_rows, counts, out=None):
        got = pool(embedding, model_rows, counts, out)
        widths.append((got[1].shape[1], np.unique(model_rows).size))
        return got
    monkeypatch.setattr(model, "_pool", recorded)
    derived = []

    class Watched(np.ndarray):
        """Notes the shape of every array computed from it."""

        def __array_finalize__(self, obj):
            derived.append(self.shape)
    embedding = params.embedding
    params = dataclasses.replace(params, embedding=embedding.view(Watched))
    pair_rows, classes = np.repeat([1, 2, 3], 2), np.tile(np.arange(2), 3)
    pooled = model.pool_documents(params, pieces, corpus, pair_rows)
    assert widths == [(3, 3), (2, 2), (2, 2)]
    weights = attribution.pair_weights(params, corpus, pair_rows, pooled,
                                       classes)
    tokens, token_pair, scores = attribution.token_scores(
        params, pieces, corpus, pair_rows, weights)
    want = np.einsum("td,td->t", embedding[pieces[tokens]],
                     weights[token_pair])
    assert np.allclose(scores, want, rtol=1e-13, atol=0.0)
    # The view itself aside, every array computed from the embedding is
    # one batch's: a [2, 3] or [2, 2] table, the rows it spans, or its
    # scores, of which t0's two pairs have the most, 8.
    assert len(params.embedding) > 4000
    assert max(side for shape in derived[1:] for side in shape) <= 8


@pytest.mark.parametrize("batch", [1, 15, 10_000])
def test_all_zero_class_matches_reference(small_synth, monkeypatch, batch):
    # The silenced class of test_all_zero_attributions_score_zero: its
    # IG values are all zero, its word scores 0.0, and its words all tie,
    # so the top 5 are its first 5 words.  Of the 48 pairs, a batch of 1
    # takes one at a time, 15 split them 15 + 15 + 15 + 3, and 10,000 take
    # all in one batch.
    monkeypatch.setattr(model, "DOC_BATCH", batch)
    sizes = batch_pair_counts(monkeypatch)
    corpus, _ = small_synth
    params = untrained_model(corpus, d=2)
    params.output_weights[:, 1] = 0.0
    rows = np.repeat(np.arange(12), 4)
    classes = np.tile(np.arange(4), 12)
    pair, _, score = assert_top_words_match_reference(
        params, corpus, rows, classes, top_n=5)
    silenced = classes[pair] == 1
    assert {repr(s) for s in score[silenced].tolist()} == {"0.0"}
    assert (score[~silenced] != 0.0).all()
    assert sizes == {1: [1] * 48, 15: [15, 15, 15, 3]}.get(batch, [48])


def test_round_without_an_attributed_pair_selects_nothing(small_synth,
                                                          monkeypatch):
    # A model that predicts no class has no true-positive pair: no score
    # table is filled, and the word-score columns are empty, of the dtypes
    # that pairs give them.
    corpus, _ = small_synth
    params = untrained_model(corpus, d=2)
    pieces = model.piece_rows(params, corpus)
    rows = np.arange(4)
    pooled = model.pool_documents(params, pieces, corpus, rows)
    some = attribution.top_word_scores(params, pieces, corpus, rows, pooled,
                                       rows % 2, 3)
    sizes = batch_pair_counts(monkeypatch)
    none = attribution.top_word_scores(params, pieces, corpus, rows[:0],
                                       pooled[:0], rows[:0], 3)
    assert [column.size for column in none] == [0, 0, 0]
    assert [column.dtype for column in none] == \
        [column.dtype for column in some] == [np.intp, np.intp, float]
    monkeypatch.setattr(model, "predict_pooled",
                        lambda params, pooled, threshold: np.zeros(
                            (len(pooled), params.num_classes), dtype=bool))
    rr, selections = run_round(corpus, small_config(), 0)
    assert not rr.failed and len(selections) == 0
    assert sizes == []


def test_grouped_aggregate_equals_dict_aggregate(small_synth):
    corpus, _ = small_synth
    config = small_config(rounds=4, selection_target="false-negative")
    rounds = [run_round(corpus, config, i) for i in range(3)]
    rounds.append((RoundResult(round_index=3, per_class={}, micro_f1=0.0,
                               val_doc_count=64, failed=True),
                   Selections.empty()))
    rounds = [rounds[2], rounds[3], rounds[0], rounds[1]]  # any order
    assert all(len(s) for r, s in rounds if not r.failed)
    want = reference_aggregate(
        [(r.round_index, as_records(s, corpus)) for r, s in rounds],
        corpus, config)
    assert aggregate_records(fold_rounds(rounds, corpus, config)) == want
    assert any(r.rounds_selected < 3 for r in want)
    assert any(r.instance_count > r.rounds_selected for r in want)


@pytest.mark.parametrize(
    ("dump_rows", "dump_scores"),
    [(7, True), (4096, True), (7, False), (4096, False)],
    ids=["7", "4096", "7-without-dump", "4096-without-dump"])
def test_dumps_are_byte_identical_to_json_dump(small_synth, tmp_path,
                                               monkeypatch, dump_rows,
                                               dump_scores):
    corpus, _ = small_synth
    config = small_config(rounds=2, dump_scores=dump_scores)
    monkeypatch.setattr(rundir, "DUMP_ROWS", dump_rows)
    result = rundir.write_run(corpus, config, tmp_path)
    selections = [run_round(corpus, config, rr.round_index)[1]
                  for rr in result.rounds]
    # 7 rows per slice splits both files into several slices
    assert min(len(selections[0]), len(result.aggregates)) > 7
    for rr, selected in zip(result.rounds, selections):
        record = {"round_index": rr.round_index, "failed": rr.failed,
                  "micro_f1": rr.micro_f1, "per_class": rr.per_class,
                  "val_doc_count": rr.val_doc_count}
        written = (tmp_path / f"round_{rr.round_index:04d}.json").read_text(
            encoding="utf-8")
        if not dump_scores:
            # the record's fields, spelt out in their order
            assert written == json.dumps(record)
            continue
        dumped = [[r.class_name, r.word, r.doc_id, r.score]
                  for r in as_records(selected, corpus)]
        text = json.dumps(dumped)
        record["selections_sha256"] = hashlib.sha256(
            text.encode("ascii")).hexdigest()
        # the record line of json.dumps, open, then the selections' text
        expected = (json.dumps(record)[:-1] + ',\n"selections": ' + text
                    + "}")
        assert written == expected
        # the whole file is the JSON object of the record and selections
        assert json.loads(written) == dict(record, selections=dumped)
    assert_aggregate_files(tmp_path, aggregate_records(result.aggregates))


def assert_aggregate_files(run_dir, records):
    """``aggregates.json`` is ``json.dump`` of the records as row dicts, and
    ``aggregates.tsv`` what the row-by-row writer wrote for them."""
    rows = [{"class": r.class_name, "word": r.word,
             "mean_score": r.mean_score,
             "selection_frequency": r.selection_frequency,
             "rounds_selected": r.rounds_selected,
             "instance_count": r.instance_count,
             "doc_frequency": r.doc_frequency} for r in records]
    expected = io.StringIO()
    json.dump(rows, expected)
    assert (run_dir / "aggregates.json").read_text(encoding="utf-8") \
        == expected.getvalue()
    columns = ("class", "word", "mean_score", "selection_frequency",
               "rounds_selected", "instance_count", "doc_frequency")
    tsv = "\t".join(columns) + "\n" + "".join(
        "\t".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                  for c in columns) + "\n" for row in rows)
    assert (run_dir / "aggregates.tsv").read_text(encoding="utf-8") == tsv


def test_aggregate_files_escape_names_and_words(small_synth, tmp_path,
                                                monkeypatch):
    corpus, _ = small_synth
    names = dict(zip(corpus.label_space.classes,
                     ('say "hi"', "back\\slash", "café", "naïve ☃")))
    # Background words w<i> become Unicode words the tokenizer keeps whole.
    prefixes = ("ω", "日本", "wö", "w")

    def unicode_words(text):
        return re.sub(r"\bw(\d+)",
                      lambda m: prefixes[int(m[1]) % 4] + m[1], text)

    renamed = build_corpus(
        [(doc_id, unicode_words(text), {names[c] for c in labels})
         for doc_id, text, labels in records_of(corpus)],
        LabelSpace(tuple(names.values())))
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(renamed, corpus_path)
    monkeypatch.setattr(rundir, "DUMP_ROWS", 7)
    argv = ["--rounds", "2", "--epochs", "20",
            "--learning-rate", "0.05", "--embedding-dim", "8",
            "--hidden-dim", "8", "--top-n", "5", "--min-doc-frequency", "1"]
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--corpus", str(corpus_path),
                     "--out-dir", str(run_dir), *argv]) == 0

    config = cli.pipeline_config(cli.parse_args(
        ["run", "--corpus", str(corpus_path), *argv]))
    result = run_pipeline(load_corpus(corpus_path, LabelSpace(
        tuple(sorted(names.values())))), config)
    records = aggregate_records(result.aggregates)
    assert {r.class_name for r in records} == set(names.values())
    assert {r.word.rstrip("0123456789") for r in records} >= set(prefixes)
    assert_aggregate_files(run_dir, records)
    assert same_table(load_aggregates(run_dir, sorted(names.values())),
                      table_from_json(run_dir))
    keywords = (run_dir / "keywords.tsv").read_text(encoding="utf-8")
    assert '"hi"' in keywords and "日本" in keywords
    assert cli.main(["report", "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "keywords.tsv").read_text(encoding="utf-8") == keywords


def test_aggregate_files_spell_non_finite_scores_like_json(tmp_path):
    records = [AggregateRecord("a", f"w{i}", score, 1, 0.5, 2, 3)
               for i, score in enumerate(
                   (float("nan"), float("inf"), -float("inf"), 0.25, 1e-7))]
    write_aggregates(table_of(records), tmp_path)
    assert_aggregate_files(tmp_path, records)


def test_non_finite_gradient_fails_the_round(small_synth, monkeypatch,
                                             tmp_path):
    corpus, _ = small_synth
    calls = []

    def poisoned(params, pooled, class_index):
        grads = model.path_mean_gradients(params, pooled, class_index)
        if not calls:
            grads[..., 0] = np.nan
        calls.append(1)
        return grads

    monkeypatch.setattr(attribution, "path_mean_gradients", poisoned)
    with pytest.warns(UserWarning, match="round 0 failed: non-finite"):
        result = rundir.write_run(corpus, small_config(rounds=2,
                                                       dump_scores=True),
                                  tmp_path)
    assert [r.failed for r in result.rounds] == [True, False]
    dumped = [json.loads((tmp_path / f"round_{i:04d}.json").read_text(
        encoding="utf-8"))["selections"] for i in range(2)]
    assert len(dumped[0]) == 0
    assert len(dumped[1]) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_names_its_pair(small_synth, monkeypatch, bad):
    # One cell of the third pair and one of the fifth: the error names
    # the third pair's document and class, not those of another pair.
    corpus, _ = small_synth
    pairs = []
    top_word_scores = attribution.top_word_scores

    def recorded(*args):
        pairs.append((args[3], args[5]))  # pair_rows, pair_classes
        return top_word_scores(*args)

    def poisoned(params, pooled, class_index):
        grads = model.path_mean_gradients(params, pooled, class_index)
        assert grads.shape[0] > 4
        grads[2, 5] = grads[4, 0] = bad
        return grads

    monkeypatch.setattr(attribution, "top_word_scores", recorded)
    monkeypatch.setattr(attribution, "path_mean_gradients", poisoned)
    with pytest.warns(UserWarning) as warned:
        result, _ = run_round(corpus, small_config(), 0)
    assert result.failed
    pair_rows, pair_classes = pairs[0]
    assert [str(w.message) for w in warned
            if "failed" in str(w.message)] == [
        f"round 0 failed: non-finite IG gradient for document "
        f"{corpus.doc_ids[pair_rows[2]]!r}, class "
        f"{corpus.label_space.classes[pair_classes[2]]!r}"]


def test_overflowing_norm_names_its_pair(small_synth):
    # With the identity, a pair's weights g / T do not depend on the
    # embedding, so scaling it by 1e160 takes the token scores of a class
    # with output weights past 1e155, where their squares overflow.  The
    # pairs of class 0, which has none, fill the first batch and open the
    # second, whose second pair is the first to overflow.
    corpus, _ = small_synth
    first = model.DOC_BATCH + 1
    rows = np.arange(first + 1)
    params = model.init_model(model.build_vocab(corpus, rows), 4,
                              TrainConfig(d=8, h=8, activation="identity"))
    params.embedding *= 1e160
    params.output_weights[:, 0] = 0.0
    pieces = model.piece_rows(params, corpus)
    pooled = model.pool_documents(params, pieces, corpus, rows)
    classes = np.repeat([0, 1], [first, 1])
    with pytest.raises(attribution.AttributionError) as got:
        attribution.top_word_scores(params, pieces, corpus, rows, pooled,
                                    classes, top_n=5)
    assert str(got.value) == (
        f"non-finite token-score norm for document "
        f"{corpus.doc_ids[first]!r}, class {corpus.label_space.classes[1]!r}")


def assert_document_without_subwords_fails(corpus, side):
    """A round whose split puts a document with no pieces on ``side`` (0 for
    train, 1 for validation) raises the error the reference raises."""
    corpus = build_corpus(records_of(corpus) + [("empty", "?!", {"c0"})],
                          corpus.label_space)
    empty = len(corpus) - 1
    config = small_config(rounds=20)
    round_index = next(
        i for i in range(config.rounds)
        if empty in stratified_split(
            corpus, config.ratio, round_seeds(config.master_seed, i)[0])[side])
    with pytest.raises(ValidationError, match="'empty' has no subwords") as got:
        run_round(corpus, config, round_index)
    with pytest.raises(ValidationError) as want:
        reference_run_round(corpus, config, round_index)
    assert str(got.value) == str(want.value)


def test_validation_document_without_subwords(small_synth):
    assert_document_without_subwords_fails(small_synth[0], 1)


def test_training_document_without_subwords(small_synth):
    assert_document_without_subwords_fails(small_synth[0], 0)


def test_selections_len_and_equality():
    a = Selections(np.array([0, 1]), np.array([3, 4]), np.array([5, 6]),
                   np.array([0.5, 0.25]))
    b = dataclasses.replace(a, score=np.array([0.5, 0.125]))
    assert len(a) == 2 and len(Selections.empty()) == 0
    assert same_selections(a, dataclasses.replace(a))
    assert not same_selections(a, b)
