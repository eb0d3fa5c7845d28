"""The corpus as subword-piece and word ids, loaded in one pass; iterative
stratified splitting over its label matrix; synthetic data.

A word is a maximal alphanumeric run of the lowercased text, cut into
pieces of at most MAX_PIECE_LEN characters; every piece after a word's
first carries the ``##`` prefix.  A word's attribution score is the max
over its pieces, so the corpus keeps the word of every piece.  Subsets of
the corpus, such as the halves of a split, are rows: arrays of document
indices, and ``Corpus.positions`` gives the pieces of any rows.
"""

from __future__ import annotations

import json
import re
import string
import warnings
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fileio import atomic_write, malformed, utf8_lines

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

#: prefix marking a non-initial piece of a word
CONTINUATION = "##"

#: the longest piece of a word, in characters
MAX_PIECE_LEN = 4


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
        for name in self.classes:  # each is a field of the TSV reports
            if not name or not {"\t", "\n", "\r"}.isdisjoint(name):
                raise ValidationError(f"class name {name!r} is empty or "
                                      f"holds a tab or a line break")
        object.__setattr__(self, "classes", tuple(self.classes))

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True, eq=False)
class Corpus:
    """Documents as integer arrays over sorted tables.

    Document ``i`` has id ``doc_ids[i]`` and text ``texts[i]``, and holds
    pieces ``offsets[i]:offsets[i + 1]`` of ``piece_ids`` (ids into
    ``pieces``); ``word_ids`` gives the word of each piece (ids into
    ``words``).  Both tables are sorted, so ids order like the strings they
    stand for.  ``labels`` is the [docs, classes] 0/1 matrix in label-space
    order.
    """

    label_space: LabelSpace
    doc_ids: tuple[str, ...]
    texts: tuple[str, ...]
    pieces: tuple[str, ...]
    words: tuple[str, ...]
    piece_ids: np.ndarray
    word_ids: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def word_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Each document's pieces ordered stably by word: the positions in
        ``piece_ids``/``word_ids`` in that order, and a flag on the first
        piece of each (document, word) group of it.

        The order keeps documents in place, so the pieces of document ``i``
        in word order are ``order[offsets[i]:offsets[i + 1]]``.
        """
        keys = np.repeat(np.arange(len(self.doc_ids)) * len(self.words),
                         np.diff(self.offsets))
        keys += self.word_ids
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return order, first

    def doc_frequency(self) -> np.ndarray:
        """The number of documents that contain each word of ``words``:
        the words of the (document, word) groups of ``word_order``."""
        order, first = self.word_order
        return np.bincount(self.word_ids[order[first]],
                           minlength=len(self.words))

    def positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices into ``piece_ids``/``word_ids`` of the pieces of ``rows``,
        document after document, and each document's piece count."""
        starts = self.offsets[rows]
        counts = self.offsets[rows + 1] - starts
        ends = np.cumsum(counts)
        return (np.arange(ends[-1] if ends.size else 0)
                + np.repeat(starts - (ends - counts), counts), counts)


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


def _first_seen() -> defaultdict:
    """A dict that numbers each new key by the keys before it."""
    index = defaultdict()
    index.default_factory = index.__len__
    return index


def _sorted_table(index: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The keys of ``index`` in sorted order, and the place in that order
    of the key numbered ``i``, for every ``i``."""
    table = sorted(index)
    rank = np.empty(len(table), dtype=np.int32)
    rank[np.fromiter(map(index.__getitem__, table), dtype=np.intp,
                     count=len(table))] = np.arange(len(table))
    return tuple(table), rank


def build_corpus(records, label_space: LabelSpace | None = None) -> Corpus:
    """The corpus of ``(id, text, labels)`` records, in one pass over them.

    Each text is lowercased whole and split into words, numbered in order
    of first sight; each distinct word is cut into pieces once, at the end.
    Sorting the word and piece tables then renumbers the ids through rank
    arrays.  Without ``label_space`` the classes are the sorted labels of
    the records.
    """
    known = None if label_space is None else set(label_space.classes)
    word_index = _first_seen()
    doc_ids, texts, doc_labels = [], [], []
    word_seq, word_counts = array("i"), array("q")
    for doc_id, text, labels in records:
        labels = frozenset(labels)
        if known is not None and not labels <= known:
            raise ValidationError(
                f"document {doc_id!r} has labels outside the label space: "
                f"{sorted(labels - known)}")
        found = _WORD_RE.findall(text.lower())
        word_seq.extend(map(word_index.__getitem__, found))
        word_counts.append(len(found))
        doc_ids.append(str(doc_id))
        texts.append(text)
        doc_labels.append(labels)
    if len(set(doc_ids)) != len(doc_ids):
        raise ValidationError("duplicate document ids")
    if label_space is None:
        label_space = LabelSpace(tuple(sorted(set().union(*doc_labels))))

    # The pieces of every distinct word, one word after another.
    piece_index = _first_seen()
    word_pieces, piece_counts = array("i"), array("q")
    for word in word_index:
        cuts = range(0, len(word), MAX_PIECE_LEN)
        word_pieces.extend(piece_index[CONTINUATION + word[s:s + MAX_PIECE_LEN]
                                       if s else word[:MAX_PIECE_LEN]]
                           for s in cuts)
        piece_counts.append(len(cuts))
    words, word_rank = _sorted_table(word_index)
    pieces, piece_rank = _sorted_table(piece_index)

    # Every word occurrence expands to its word's run of word_pieces.
    seq = np.frombuffer(word_seq, dtype=np.int32)
    per_word = np.frombuffer(piece_counts, dtype=np.int64)
    counts = per_word[seq]
    ends = np.cumsum(counts)
    at = (np.arange(ends[-1] if ends.size else 0)
          + np.repeat((np.cumsum(per_word) - per_word)[seq] - (ends - counts),
                      counts))
    # A document's pieces end where its last word's pieces end.
    doc_ends = np.r_[0, ends][np.cumsum(np.frombuffer(word_counts,
                                                      dtype=np.int64))]
    column = {c: j for j, c in enumerate(label_space.classes)}
    label_matrix = np.zeros((len(doc_ids), len(column)))
    for row, names in zip(label_matrix, doc_labels):
        row[[column[c] for c in names]] = 1.0
    return Corpus(
        label_space=label_space, doc_ids=tuple(doc_ids), texts=tuple(texts),
        pieces=pieces, words=words,
        piece_ids=piece_rank[np.frombuffer(word_pieces, dtype=np.int32)[at]],
        word_ids=np.repeat(word_rank[seq], counts),
        offsets=np.r_[0, doc_ends], labels=label_matrix)


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


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
    if not _is_string_list(labels):
        raise CorpusParseError(f"{path}: malformed record on line {lineno}: "
                               "labels must be a list of strings")
    return doc_id, text, labels


def _read_records(path):
    """The records of a JSONL corpus file, line by line."""
    empty = True
    for lineno, line in utf8_lines(path, CorpusParseError):
        if line.strip():
            empty = False
            yield parse_record(line, path, lineno)
    if empty:
        raise ValidationError(f"{path}: corpus is empty")


def load_corpus(path, label_space: LabelSpace | None = None) -> Corpus:
    """Load a JSONL corpus (fields: id, text, labels) in one pass; without
    ``label_space`` the classes are the sorted labels it holds."""
    return build_corpus(_read_records(path), label_space)


def save_corpus(corpus: Corpus, path) -> None:
    with atomic_write(path) as fh:
        write_corpus(corpus, fh)


def write_corpus(corpus: Corpus, fh) -> None:
    """Write ``corpus`` to the text file ``fh``, a JSON object a line."""
    classes = corpus.label_space.classes
    for doc_id, text, row in zip(corpus.doc_ids, corpus.texts,
                                 corpus.labels):
        labels = sorted(classes[c] for c in np.flatnonzero(row))
        record = {"id": doc_id, "text": text, "labels": labels}
        fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def stratified_split(corpus: Corpus, ratio: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic iterative multilabel stratified split; returns the
    train and validation rows.

    Documents are assigned label by label, rarest label first, each going
    to the split whose remaining demand for that label is largest.  Global
    split sizes are capped so |train| = round(ratio * |corpus|).
    """
    if not 0.0 < ratio < 1.0:
        raise ValidationError("split ratio must lie in (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1)))
    n_docs = len(corpus)
    n_train = int(round(ratio * n_docs))
    n_train = min(max(n_train, 1), n_docs - 1)
    capacity = [n_train, n_docs - n_train]

    classes = corpus.label_space.classes
    members = [np.flatnonzero(column) for column in corpus.labels.T]
    for lab, rows in zip(classes, members):
        if 0 < rows.size < 2:
            warnings.warn(
                f"class {lab!r} has fewer than 2 member documents; "
                "stratification is best-effort", stacklevel=2)

    # remaining per-(label, split) demand
    demand = [[ratio * rows.size, (1 - ratio) * rows.size]
              for rows in members]
    labels_of = [[] for _ in range(n_docs)]
    for i, lab in zip(*(a.tolist() for a in np.nonzero(corpus.labels))):
        labels_of[i].append(lab)
    assignment = np.full(n_docs, -1, dtype=int)

    def place(doc_index: int, split: int) -> None:
        assignment[doc_index] = split
        capacity[split] -= 1
        for lab in labels_of[doc_index]:
            demand[lab][split] -= 1

    while True:
        pending = [rows[assignment[rows] < 0] for rows in members]
        # rarest label first; name breaks ties deterministically
        left = [(rows.size, classes[lab], lab)
                for lab, rows in enumerate(pending) if rows.size]
        if not left:
            break
        lab = min(left)[2]
        for i in rng.permutation(pending[lab]).tolist():
            open_splits = [s for s in (0, 1) if capacity[s] > 0]
            if len(open_splits) == 1:
                place(i, open_splits[0])
            else:
                place(i, 0 if demand[lab][0] >= demand[lab][1] else 1)

    # label-free documents fill remaining capacity
    for i in rng.permutation(np.flatnonzero(assignment < 0)).tolist():
        place(i, 0 if capacity[0] >= capacity[1] else 1)
    return np.flatnonzero(assignment == 0), np.flatnonzero(assignment == 1)


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
    with np.errstate(over="ignore", invalid="ignore"):
        probs = ranks ** -config.zipf_exponent
        total = probs.sum()
    if not np.isfinite(total):  # a sum of weights >= 0, finite if they are
        raise ValidationError(f"zipf_exponent {config.zipf_exponent!r} "
                              "gives Zipf weights without a finite sum")
    probs /= total

    lo, hi = config.doc_length
    records = []
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
            records.append((f"d{len(records):05d}", " ".join(words), labels))
    return build_corpus(records, label_space), markers


def save_markers(markers: dict[str, set[str]], path) -> None:
    with atomic_write(path) as fh:
        json.dump({c: sorted(ws) for c, ws in markers.items()}, fh, indent=2)


def load_markers(path, classes) -> dict[str, set[str]]:
    """The planted words per class of a markers file: a JSON object of
    string lists, each under one of the ``classes``."""
    with open(path, "rb") as fh, \
            malformed(path, "markers file", ValidationError):
        return marker_sets(json.loads(fh.read().decode("utf-8")), classes)


def marker_sets(markers, classes) -> dict[str, set[str]]:
    """The planted words per class of a parsed JSON object of string
    lists; any other value raises ``TypeError``, and a class not among
    ``classes`` ``ValidationError``."""
    if not (isinstance(markers, dict)
            and all(map(_is_string_list, markers.values()))):
        raise TypeError("not an object of string lists")
    if not markers.keys() <= set(classes):
        raise ValidationError(f"markers of classes the run does not have: "
                              f"{sorted(markers.keys() - set(classes))}")
    return {c: set(words) for c, words in markers.items()}
