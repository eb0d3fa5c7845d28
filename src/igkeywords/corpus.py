"""Corpus loading, tokenization, stratified splitting, and synthetic data.

Documents carry both word tokens and aligned subword pieces so that
word-level attribution scores can be reduced from per-piece scores.
"""

from __future__ import annotations

import json
import re
import string
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

#: prefix marking a non-initial piece of a word
CONTINUATION = "##"

DEFAULT_MAX_PIECE_LEN = 4


class ValidationError(ValueError):
    """Input violates a documented contract (bad label, bad config, ...)."""


class CorpusParseError(ValueError):
    """A corpus file line could not be parsed."""


@dataclass(frozen=True)
class LabelSpace:
    """Ordered set of class names; order defines class indices."""

    classes: tuple[str, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValidationError("label space must be non-empty")
        if len(set(self.classes)) != len(self.classes):
            raise ValidationError("duplicate class names in label space")
        object.__setattr__(self, "classes", tuple(self.classes))

    def __len__(self) -> int:
        return len(self.classes)

    def index(self, name: str) -> int:
        return self.classes.index(name)


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    words: tuple[str, ...]
    subwords: tuple[tuple[str, int], ...]  # (piece, word_index)
    labels: frozenset[str]


@dataclass
class Corpus:
    label_space: LabelSpace
    documents: list[Document]

    def __post_init__(self):
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate document ids")

    def __len__(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class SplitSpec:
    ratio: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValidationError("split ratio must lie in (0, 1)")


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 4
    docs_per_class: int = 500
    background_vocab_size: int = 5000
    markers_per_class: int = 3
    marker_injection_prob: float = 0.8
    doc_length: tuple[int, int] = (30, 80)
    multilabel_prob: float = 0.1
    zipf_exponent: float = 1.1

    def __post_init__(self):
        if min(self.num_classes, self.docs_per_class,
               self.background_vocab_size, self.markers_per_class) <= 0:
            raise ValidationError("all synthetic counts must be positive")
        if not (0.0 <= self.marker_injection_prob <= 1.0
                and 0.0 <= self.multilabel_prob <= 1.0):
            raise ValidationError("probabilities must lie in [0, 1]")
        lo, hi = self.doc_length
        if lo <= 0 or lo > hi:
            raise ValidationError("doc_length must satisfy 0 < min <= max")
        if self.background_vocab_size <= self.markers_per_class * self.num_classes:
            raise ValidationError(
                "background vocabulary must exceed total marker count")


def tokenize(text: str, max_piece_len: int = DEFAULT_MAX_PIECE_LEN):
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


def make_document(doc_id: str, text: str, labels, label_space: LabelSpace,
                  max_piece_len: int = DEFAULT_MAX_PIECE_LEN) -> Document:
    unknown = set(labels) - set(label_space.classes)
    if unknown:
        raise ValidationError(
            f"document {doc_id!r} has labels outside the label space: "
            f"{sorted(unknown)}")
    words, subwords = tokenize(text, max_piece_len)
    return Document(id=str(doc_id), text=text, words=tuple(words),
                    subwords=tuple(subwords), labels=frozenset(labels))


@dataclass(frozen=True, eq=False)
class CorpusEncoding:
    """A corpus as integer arrays over sorted tables, built once per run.

    Document ``i`` holds pieces ``offsets[i]:offsets[i + 1]`` of
    ``piece_ids`` (ids into ``pieces``); ``word_ids`` gives the word of each
    piece (ids into ``words``).  Both tables are sorted, so ids order like
    the strings they stand for.  ``labels`` is the [docs, classes] 0/1
    matrix in label-space order.
    """

    classes: tuple[str, ...]
    doc_ids: tuple[str, ...]
    pieces: tuple[str, ...]
    words: tuple[str, ...]
    piece_ids: np.ndarray
    word_ids: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray

    @cached_property
    def piece_index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.pieces)}

    @cached_property
    def _row_of(self) -> dict[str, int]:
        return {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

    def rows(self, corpus: Corpus) -> np.ndarray:
        """Position in the encoded corpus of each document of ``corpus``
        (the whole corpus or a split half of it)."""
        return np.array([self._row_of[doc.id] for doc in corpus.documents],
                        dtype=np.intp)

    def doc_frequency(self) -> np.ndarray:
        """The number of documents that contain each word of ``words``."""
        n_words = len(self.words)
        # A (document, word) key per piece; the distinct keys, found by a
        # sort and a neighbour mask (np.unique hashes integer keys and is
        # far slower here), are the (document, word) pairs.  In place, so
        # that only one key array is alive at a time.
        keys = np.repeat(np.arange(len(self.doc_ids)) * n_words,
                         np.diff(self.offsets))
        keys += self.word_ids
        keys.sort()
        distinct = np.ones(keys.size, dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        keys = keys[distinct]
        keys %= n_words
        return np.bincount(keys, minlength=n_words)

    def positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices into ``piece_ids``/``word_ids`` of the pieces of ``rows``,
        document after document, and each document's piece count."""
        starts = self.offsets[rows]
        counts = self.offsets[rows + 1] - starts
        ends = np.cumsum(counts)
        return (np.arange(ends[-1] if ends.size else 0)
                + np.repeat(starts - (ends - counts), counts), counts)


def encode_corpus(corpus: Corpus) -> CorpusEncoding:
    """Encode every document's pieces and words as ids; see CorpusEncoding."""
    docs = corpus.documents
    pieces = sorted({p for doc in docs for p, _ in doc.subwords})
    words = sorted({w for doc in docs for w in doc.words})
    piece_index = {p: i for i, p in enumerate(pieces)}
    word_index = {w: i for i, w in enumerate(words)}
    counts = [len(doc.subwords) for doc in docs]
    classes = corpus.label_space.classes
    return CorpusEncoding(
        classes=classes,
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


def parse_record(line: str, path, lineno: int) -> tuple:
    """The id, text and labels of one corpus line, which must be a JSON
    object with a string ``text`` and a list of strings as ``labels``."""
    try:
        record = json.loads(line)
        doc_id, text, labels = record["id"], record["text"], record["labels"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CorpusParseError(
            f"{path}: malformed record on line {lineno}: {exc}") from exc
    if not isinstance(text, str):
        raise CorpusParseError(f"{path}: malformed record on line {lineno}: "
                               f"text is {type(text).__name__}, not a string")
    if not (isinstance(labels, list)
            and all(isinstance(label, str) for label in labels)):
        raise CorpusParseError(f"{path}: malformed record on line {lineno}: "
                               "labels must be a list of strings")
    return doc_id, text, labels


def load_corpus(path, label_space: LabelSpace,
                max_piece_len: int = DEFAULT_MAX_PIECE_LEN) -> Corpus:
    """Load a JSONL corpus (fields: id, text, labels) and tokenize it."""
    documents = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            documents.append(make_document(*parse_record(line, path, lineno),
                                           label_space, max_piece_len))
    if not documents:
        raise ValidationError(f"{path}: corpus is empty")
    return Corpus(label_space=label_space, documents=documents)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            record = {"id": doc.id, "text": doc.text,
                      "labels": sorted(doc.labels)}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _subcorpus(corpus: Corpus, indices) -> Corpus:
    docs = [corpus.documents[i] for i in indices]
    return Corpus(label_space=corpus.label_space, documents=docs)


def stratified_split(corpus: Corpus, spec: SplitSpec):
    """Deterministic iterative multilabel stratified split.

    Documents are assigned label by label, rarest label first, each going
    to the split whose remaining demand for that label is largest.  Global
    split sizes are capped so |train| = round(ratio * |corpus|).
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed & (2**64 - 1)))
    n_docs = len(corpus.documents)
    n_train = int(round(spec.ratio * n_docs))
    n_train = min(max(n_train, 1), n_docs - 1)
    capacity = [n_train, n_docs - n_train]

    label_members: dict[str, list[int]] = {c: [] for c in corpus.label_space.classes}
    for i, doc in enumerate(corpus.documents):
        for lab in doc.labels:
            label_members[lab].append(i)
    for lab, members in label_members.items():
        if 0 < len(members) < 2:
            warnings.warn(
                f"class {lab!r} has fewer than 2 member documents; "
                "stratification is best-effort", stacklevel=2)

    # remaining per-(split, label) demand
    demand = {lab: [spec.ratio * len(m), (1 - spec.ratio) * len(m)]
              for lab, m in label_members.items()}
    assignment = np.full(n_docs, -1, dtype=int)
    unassigned = set(range(n_docs))

    def place(doc_index: int, split: int) -> None:
        assignment[doc_index] = split
        capacity[split] -= 1
        unassigned.discard(doc_index)
        for lab in corpus.documents[doc_index].labels:
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
    return _subcorpus(corpus, train_idx), _subcorpus(corpus, val_idx)


def _encode_letters(value: int) -> str:
    letters = string.ascii_lowercase
    out = letters[value % 26]
    while value >= 26:
        value = value // 26 - 1
        out = letters[value % 26] + out
    return out


def marker_word(class_index: int, marker_index: int) -> str:
    """Short alphabetic marker token, unique per (class, marker)."""
    return "q" + _encode_letters(class_index) + _encode_letters(marker_index)


def generate_synthetic(config: SynthConfig, seed: int):
    """Build a synthetic corpus with class-specific planted marker words.

    Background words follow a Zipf distribution over an artificial
    vocabulary; each document of class c additionally contains each of
    c's markers with probability ``marker_injection_prob``.

    Returns (corpus, markers) where markers maps class name -> set of words.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1)))
    classes = tuple(f"c{ci}" for ci in range(config.num_classes))
    label_space = LabelSpace(classes)

    markers = {
        classes[ci]: {marker_word(ci, mi) for mi in range(config.markers_per_class)}
        for ci in range(config.num_classes)
    }

    background = [f"w{i}" for i in range(config.background_vocab_size)]
    ranks = np.arange(1, config.background_vocab_size + 1, dtype=float)
    probs = ranks ** -config.zipf_exponent
    probs /= probs.sum()

    lo, hi = config.doc_length
    documents = []
    doc_id = 0
    for ci in range(config.num_classes):
        for _ in range(config.docs_per_class):
            labels = {classes[ci]}
            if config.num_classes > 1 and rng.random() < config.multilabel_prob:
                other = int(rng.integers(config.num_classes - 1))
                labels.add(classes[other if other < ci else other + 1])
            length = int(rng.integers(lo, hi + 1))
            words = [background[j]
                     for j in rng.choice(config.background_vocab_size,
                                         size=length, p=probs)]
            for lab in sorted(labels):
                for m in sorted(markers[lab]):
                    if rng.random() < config.marker_injection_prob:
                        pos = int(rng.integers(len(words) + 1))
                        words.insert(pos, m)
            text = " ".join(words)
            documents.append(make_document(f"d{doc_id:05d}", text, labels,
                                           label_space))
            doc_id += 1
    return Corpus(label_space=label_space, documents=documents), markers


def save_markers(markers: dict[str, set[str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({c: sorted(ws) for c, ws in markers.items()}, fh, indent=2)


def load_markers(path) -> dict[str, set[str]]:
    with open(path, encoding="utf-8") as fh:
        return {c: set(ws) for c, ws in json.load(fh).items()}
