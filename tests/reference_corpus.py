"""Test-only copies of the per-document corpus path that ``build_corpus``
and the row-based ``stratified_split`` replaced.

A corpus here is a list of ``Document`` objects, tokenized one word at a
time by ``tokenize``; ``encode_documents`` turns such a list into the id
arrays through dicts, and ``reference_stratified_split`` splits it with
the original set-based loop.  They are the reference for the
differential tests in ``test_corpus.py`` and for the per-document round
of ``reference_round.py``.  ``document_view`` reads one document of a
``Corpus`` back as a ``Document``.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from igkeywords.corpus import (CONTINUATION, MAX_PIECE_LEN, _WORD_RE,
                               ValidationError, parse_record)


@dataclass(frozen=True)
class Document:
    """One document as words and ``(piece, word_index)`` pairs."""

    id: str
    text: str
    words: tuple[str, ...]
    subwords: tuple[tuple[str, int], ...]  # (piece, word_index)
    labels: frozenset[str]


def document_view(corpus, i) -> Document:
    """Document ``i`` of ``corpus`` as words and aligned pieces.  A piece
    without the ``##`` prefix starts a word: no word starts with ``#``."""
    span = slice(corpus.offsets[i], corpus.offsets[i + 1])
    words, subwords = [], []
    for p, w in zip(corpus.piece_ids[span].tolist(),
                    corpus.word_ids[span].tolist()):
        piece = corpus.pieces[p]
        if not piece.startswith(CONTINUATION):
            words.append(corpus.words[w])
        subwords.append((piece, len(words) - 1))
    classes = corpus.label_space.classes
    return Document(id=corpus.doc_ids[i], text=corpus.texts[i],
                    words=tuple(words), subwords=tuple(subwords),
                    labels=frozenset(classes[c] for c in
                                     np.flatnonzero(corpus.labels[i])))


def tokenize(text: str, max_piece_len: int = MAX_PIECE_LEN):
    """Split text into lowercase words and fixed-length character pieces.

    Words are maximal alphanumeric runs.  Each word is chopped into
    consecutive chunks of at most ``max_piece_len`` characters; chunks
    after the first carry the ``##`` continuation prefix.

    Returns (words, subwords) where subwords is a list of
    (piece, word_index) pairs.
    """
    if max_piece_len < 1:
        raise ValidationError("max_piece_len must be >= 1")
    words: list[str] = []
    subwords: list[tuple[str, int]] = []
    for match in _WORD_RE.finditer(text.lower()):
        word = match.group(0)
        wi = len(words)
        words.append(word)
        for start in range(0, len(word), max_piece_len):
            piece = word[start:start + max_piece_len]
            if start > 0:
                piece = CONTINUATION + piece
            subwords.append((piece, wi))
    return words, subwords


def make_document(doc_id, text, labels, label_space,
                  max_piece_len: int = MAX_PIECE_LEN) -> Document:
    unknown = set(labels) - set(label_space.classes)
    if unknown:
        raise ValidationError(
            f"document {doc_id!r} has labels outside the label space: "
            f"{sorted(unknown)}")
    words, subwords = tokenize(text, max_piece_len)
    return Document(id=str(doc_id), text=text, words=tuple(words),
                    subwords=tuple(subwords), labels=frozenset(labels))


def records_of(corpus, rows=None):
    """The ``(id, text, labels)`` record of each document (of ``rows``)."""
    classes = corpus.label_space.classes
    rows = range(len(corpus)) if rows is None else rows
    return [(corpus.doc_ids[i], corpus.texts[i],
             {classes[c] for c in np.flatnonzero(corpus.labels[i])})
            for i in rows]


def documents_of(corpus):
    """The documents of a corpus, tokenized one by one from their texts."""
    return [make_document(*record, corpus.label_space)
            for record in records_of(corpus)]


def reference_load_corpus(path, label_space,
                          max_piece_len: int = MAX_PIECE_LEN):
    """The documents of a JSONL corpus, tokenized one by one."""
    documents = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            documents.append(make_document(*parse_record(line, path, lineno),
                                           label_space, max_piece_len))
    if not documents:
        raise ValidationError(f"{path}: corpus is empty")
    ids = [d.id for d in documents]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate document ids")
    return documents


def encode_documents(docs, classes) -> dict:
    """The id arrays, tables and label matrix of a list of documents."""
    pieces = sorted({p for doc in docs for p, _ in doc.subwords})
    words = sorted({w for doc in docs for w in doc.words})
    piece_index = {p: i for i, p in enumerate(pieces)}
    word_index = {w: i for i, w in enumerate(words)}
    counts = [len(doc.subwords) for doc in docs]
    return dict(
        doc_ids=tuple(doc.id for doc in docs),
        pieces=tuple(pieces),
        words=tuple(words),
        piece_ids=np.fromiter(
            (piece_index[p] for doc in docs for p, _ in doc.subwords),
            dtype=np.int32, count=sum(counts)),
        word_ids=np.fromiter(
            (word_index[doc.words[wi]] for doc in docs
             for _, wi in doc.subwords), dtype=np.int32, count=sum(counts)),
        offsets=np.concatenate(([0], np.cumsum(counts, dtype=np.intp))),
        labels=np.array([[1.0 if c in doc.labels else 0.0 for c in classes]
                         for doc in docs]).reshape(len(docs), len(classes)))


def reference_stratified_split(documents, classes, ratio, seed):
    """The original set-based iterative stratified split; returns the
    train and validation document indices."""
    rng = np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1)))
    n_docs = len(documents)
    n_train = int(round(ratio * n_docs))
    n_train = min(max(n_train, 1), n_docs - 1)
    capacity = [n_train, n_docs - n_train]

    label_members: dict[str, list[int]] = {c: [] for c in classes}
    for i, doc in enumerate(documents):
        for lab in doc.labels:
            label_members[lab].append(i)
    for lab, members in label_members.items():
        if 0 < len(members) < 2:
            warnings.warn(
                f"class {lab!r} has fewer than 2 member documents; "
                "stratification is best-effort", stacklevel=2)

    # remaining per-(split, label) demand
    demand = {lab: [ratio * len(m), (1 - ratio) * len(m)]
              for lab, m in label_members.items()}
    assignment = np.full(n_docs, -1, dtype=int)
    unassigned = set(range(n_docs))

    def place(doc_index: int, split: int) -> None:
        assignment[doc_index] = split
        capacity[split] -= 1
        unassigned.discard(doc_index)
        for lab in documents[doc_index].labels:
            demand[lab][split] -= 1

    while True:
        pending = {lab: [i for i in members if i in unassigned]
                   for lab, members in label_members.items()}
        pending = {lab: m for lab, m in pending.items() if m}
        if not pending:
            break
        # rarest label first; name breaks ties deterministically
        lab = min(pending, key=lambda c: (len(pending[c]), c))
        for i in rng.permutation(pending[lab]):
            open_splits = [s for s in (0, 1) if capacity[s] > 0]
            if len(open_splits) == 1:
                place(i, open_splits[0])
            else:
                split = 0 if demand[lab][0] >= demand[lab][1] else 1
                place(i, split)

    # label-free documents fill remaining capacity
    for i in rng.permutation(sorted(unassigned)):
        place(i, 0 if capacity[0] >= capacity[1] else 1)

    train_idx = [i for i in range(n_docs) if assignment[i] == 0]
    val_idx = [i for i in range(n_docs) if assignment[i] == 1]
    return train_idx, val_idx
