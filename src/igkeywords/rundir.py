"""The run directory: every file a run writes and ``report`` reads.

``config.json`` holds ``"format": FORMAT`` first, then every
``PipelineConfig`` field (``TrainConfig`` under ``train_config``), the
``classes`` and any planted ``markers``; each round's split and training
seeds come from ``master_seed`` and its index (``pipeline.round_seeds``).
Its ``classes`` are the run's one class table, and rows of other files
come in their order.  A ``round_NNNN.json`` holds a round's
``RoundResult`` on its first line; with ``dump_scores`` that line also
holds the SHA-256 of the round's selections, which follow it, so
``report`` checks them without parsing them.  ``_from_fields`` reads
both files' fields by type.  ``aggregates.npz`` holds the table
``report`` reads, its class column as ids into ``classes``, exported as
``aggregates.json``/``.tsv``; then come the ``REPORT_FILES``.  Every file
is written atomically (``fileio.atomic_write``).  A directory of another
format, or of none, is refused rather than read, so a new layout raises
``FORMAT`` instead of adding a reader of the old one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import typing
from json.encoder import encode_basestring_ascii

import numpy as np

from . import model, pipeline, report
from .corpus import (Corpus, LabelSpace, ValidationError, _is_string_list,
                     marker_sets)
from .fileio import atomic_write, malformed
from .pipeline import Aggregates, PipelineConfig, PipelineResult, RoundResult

#: the layout of the directories this module writes, the one it reads
FORMAT = 4
REPORT_FILES = ("keywords.tsv", "keywords.json", "keywords.md",
                "f1_summary.tsv", "uniqueness.json", "recovery.json")
_AGGREGATE_FILES = ("aggregates.npz", "aggregates.json", "aggregates.tsv")
#: what precedes the dumped selections' text on a round file's second line
_SELECTIONS = b'"selections": '

#: rows per slice when writing the aggregate exports, so that neither
#: file's whole text is held in memory at once
DUMP_ROWS = 1024

#: each dataclass's field types, evaluated once (not per file: that is slow)
_field_types = functools.cache(typing.get_type_hints)


def round_file(round_index: int) -> str:
    return f"round_{round_index:04d}.json"


def write_run(corpus: Corpus, config: PipelineConfig, run_dir,
              planted=None) -> PipelineResult:
    """Run the pipeline into ``run_dir``: ``config.json``, the removal of
    an earlier run's files, each round as it finishes, in round order, then
    the aggregates and the reports (``recovery.json`` only if ``planted``),
    so a run that stops part way leaves only its own finished rounds.  A
    document without a piece, or markers of a class the corpus's label
    space lacks, raise ``ValidationError`` before ``run_dir`` is made."""
    model._positions(corpus, np.arange(len(corpus)))
    classes = corpus.label_space.classes
    saved = {"format": FORMAT, **dataclasses.asdict(config),
             "classes": list(classes)}
    if planted is not None:
        saved["markers"] = {c: sorted(words) for c, words in planted.items()}
        marker_sets(saved["markers"], classes)  # as load_config reads them
    try:
        os.makedirs(run_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValidationError(f"{run_dir}: not a directory") from exc
    with atomic_write(os.path.join(run_dir, "config.json")) as fh:
        json.dump(saved, fh, indent=2)
    _clear(run_dir)
    result = pipeline.run_pipeline(
        corpus, config, on_round=lambda rr, selections: _write_round(
            rr, selections, corpus, config.dump_scores, run_dir))
    write_aggregates(result.aggregates, run_dir)
    _write_reports(run_dir, config, result.rounds, result.keywords, classes,
                   planted)
    return result


def rewrite_reports(run_dir) -> None:
    """Write the reports of ``run_dir`` again from its config, rounds and
    aggregates."""
    config, classes, planted = load_config(run_dir)
    rounds = load_rounds(run_dir, config.rounds, classes)
    keywords = pipeline.filter_keywords(load_aggregates(run_dir, classes),
                                        config)
    _write_reports(run_dir, config, rounds, keywords, classes, planted)


def _clear(run_dir) -> None:
    """Remove the rounds, aggregates and reports left in ``run_dir``, and
    the temporary files (``.<name>.<pid>.tmp``) of those and of
    ``config.json`` that a killed run left."""
    for name in os.listdir(run_dir):
        temporary = name.startswith(".") and name.endswith(".tmp")
        target = name[1:].rsplit(".", 2)[0] if temporary else name
        if (target.startswith("round_") and target.endswith(".json")
                or target in _AGGREGATE_FILES + REPORT_FILES
                or temporary and target == "config.json"):
            os.remove(os.path.join(run_dir, name))


def _write_reports(run_dir, config: PipelineConfig, rounds, keywords,
                   class_names, planted) -> None:
    """Every report file, classes in the order ``class_names``; every text
    is built first, so a report that cannot be built writes no file."""
    top_m = config.top_m
    table = report.build_keyword_table(keywords, class_names, top_m)
    texts = {
        "keywords.tsv": report.render_keyword_table(table, "tsv"),
        "keywords.json": report.render_keyword_table(table, "json"),
        "keywords.md": report.render_keyword_table(table, "markdown"),
        "f1_summary.tsv": report.render_f1_summary(
            report.f1_summary(rounds)),
        "uniqueness.json": json.dumps(
            dict(report.uniqueness(table), top_m=top_m), indent=2,
            sort_keys=True),
    }
    if planted is not None:
        texts["recovery.json"] = json.dumps(
            report.marker_recovery(keywords, planted), indent=2,
            sort_keys=True)
    for name, text in texts.items():
        with atomic_write(os.path.join(run_dir, name)) as fh:
            fh.write(text)
    if planted is None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(run_dir, "recovery.json"))


def _from_fields(cls, values):
    """``cls`` read from a JSON object's ``values``, which name every field
    of ``cls`` and no other key.  Each value is of its field's type: an int
    will do for a float, and only a bool for a bool; the object of a
    dataclass field is read by this same rule."""
    types = _field_types(cls)
    read = {name: values[name] for name in types}
    if values.keys() - read:
        raise TypeError(f"unknown fields {sorted(values.keys() - read)}")
    for name, value in read.items():
        kind = types[name]
        nested = dataclasses.is_dataclass(kind)
        saved = dict if nested else typing.get_origin(kind) or kind
        if type(value) is not saved and (saved, type(value)) != (float, int):
            raise TypeError(f"{name} is {value!r}, not a {saved.__name__}")
        if nested:
            read[name] = _from_fields(kind, value)
    return cls(**read)


def load_config(run_dir):
    """The ``PipelineConfig``, class order and planted markers (None if
    the run had none) saved in ``config.json``.  A file of another format
    than ``FORMAT``, or of none, raises ``ValidationError`` naming the
    format it holds."""
    if not os.path.isdir(run_dir):
        raise ValidationError(f"{run_dir}: not a directory")
    path = os.path.join(run_dir, "config.json")
    with open(path, "rb") as fh, \
            malformed(path, "run config", ValidationError):
        saved = json.loads(fh.read().decode("utf-8"))
        found = saved.pop("format", None)
    if type(found) is not int or found != FORMAT:
        raise ValidationError(f"{path}: format {found!r}, not {FORMAT}: "
                              f"another version wrote it; run the pipeline "
                              f"again")
    with malformed(path, "run config", ValidationError):
        classes = saved.pop("classes")
        if not _is_string_list(classes):
            raise TypeError("classes is not a list of strings")
        LabelSpace(tuple(classes))  # rejects no, repeated and bad names
        markers = saved.pop("markers", None)
        if markers is not None:
            markers = marker_sets(markers, classes)
        return _from_fields(PipelineConfig, saved), classes, markers


def _write_round(rr: RoundResult, selections: pipeline.Selections,
                 corpus: Corpus, dump_scores: bool, out_dir) -> None:
    """Write a round's artifact: ``json.dumps`` of its record,
    ``dataclasses.asdict(rr)``.  With ``dump_scores`` the record also holds
    ``selections_sha256``, the hex SHA-256 of the text of ``json.dumps`` of
    the ``dumped`` ``selections``, and its line ends in ``,``; the next
    line is ``"selections": ``, that text and ``}``.  The file stays one
    JSON object, and ``load_rounds`` reads the record without parsing the
    selections."""
    record = dataclasses.asdict(rr)
    with atomic_write(os.path.join(out_dir,
                                   round_file(rr.round_index))) as fh:
        if not dump_scores:
            fh.write(json.dumps(record))
            return
        text = json.dumps(dumped(selections, corpus))
        record["selections_sha256"] = hashlib.sha256(
            text.encode("ascii")).hexdigest()
        fh.write(json.dumps(record)[:-1] + ",\n")
        fh.write(_SELECTIONS.decode("ascii") + text + "}")


def dumped(selections: pipeline.Selections, corpus: Corpus) -> list[list]:
    """``[class, word, doc_id, score]`` per selection, as dumped."""
    classes, words, doc_ids = (corpus.label_space.classes, corpus.words,
                               corpus.doc_ids)
    return [[classes[c], words[w], doc_ids[d], s]
            for c, w, d, s in zip(selections.class_idx.tolist(),
                                  selections.word_idx.tolist(),
                                  selections.doc_idx.tolist(),
                                  selections.score.tolist())]


def load_rounds(out_dir, rounds: int, classes) -> list[RoundResult]:
    """The ``RoundResult`` of each of rounds 0..rounds-1, read by
    ``_from_fields`` from its artifact's record, the first line.  A file
    with more after that line holds dumped selections: its record must end in
    ``,`` and the rest of the file be ``"selections": ``, a text whose
    SHA-256 is the record's ``selections_sha256``, and ``}``; the text
    itself is not parsed.  A file that breaks that layout, whose record is
    not UTF-8 JSON, breaks the rule of ``_from_fields`` (a record holding
    ``selections`` names a field ``RoundResult`` lacks), holds a
    non-numeric ``f1`` or ``support``, describes another round than its
    name, or is of a successful round whose ``per_class`` does not hold
    exactly ``classes`` in their order raises ``ValidationError`` naming
    it; other files are ignored."""
    results = []
    for round_index in range(rounds):
        path = os.path.join(out_dir, round_file(round_index))
        with open(path, "rb") as fh, \
                malformed(path, "round artifact", ValidationError):
            record, _, tail = fh.read().partition(b"\n")
            if tail:
                if not (record.endswith(b",") and tail.startswith(_SELECTIONS)
                        and tail.endswith(b"}")):
                    raise ValueError('not a record line ending in "," and a '
                                     'line of "selections": ... "}"')
                record = record[:-1] + b"}"
            values = json.loads(record.decode("utf-8"))
            if tail:
                digest = values.pop("selections_sha256", None)
                if digest != hashlib.sha256(
                        tail[len(_SELECTIONS):-1]).hexdigest():
                    raise ValueError("the dumped selections do not match "
                                     "their selections_sha256")
            rr = _from_fields(RoundResult, values)
            if not all(type(stats[key]) in (int, float)
                       for stats in rr.per_class.values()
                       for key in ("f1", "support")):
                raise TypeError("per_class holds a non-numeric f1 or support")
            if rr.round_index != round_index:
                raise ValueError(f"round_index is {rr.round_index}, not "
                                 f"{round_index}")
            if not rr.failed and list(rr.per_class) != list(classes):
                raise ValueError(f"per_class holds {list(rr.per_class)}, "
                                 f"not the run's classes {list(classes)}")
            results.append(rr)
    return results


#: The numeric columns of Aggregates, by their dtype kind in aggregates.npz
_NUMERIC_KINDS = {"mean_score": "f", "selection_frequency": "f",
                  "rounds_selected": "i", "instance_count": "i",
                  "doc_frequency": "i"}
#: The columns of aggregates.json/.tsv
_AGG_COLUMNS = ("class", "word", "mean_score", "selection_frequency",
                "rounds_selected", "instance_count", "doc_frequency")
# json.dumps's spelling of the floats that have no JSON number
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _value_texts(column, text=repr) -> tuple[list[str], np.ndarray]:
    """The ``text`` of each distinct value of ``column``, in value order,
    and, per row, the index of its value's text."""
    values, codes = np.unique(column, return_inverse=True)
    return list(map(text, values.tolist())), codes


def write_aggregates(table: Aggregates, out_dir) -> None:
    """Write the columns to ``aggregates.npz``, the class column as int32
    ids into the table's ``classes`` (the run's, which ``config.json``
    holds) and the word column as int32 codes into the bytes of an
    ``ensure_ascii`` JSON list of the words that rows use (numpy's string
    arrays drop trailing NULs), and export them as ``aggregates.json``
    (the bytes of ``json.dumps`` of the rows as dicts) and
    ``aggregates.tsv``, DUMP_ROWS rows at a time.

    Each exported row is one f-string that looks its values up in the
    run's class names and the texts of each other column's distinct
    values, so each class name, word and count is spelt once.  JSON
    spells strings with the ``ensure_ascii`` encoder of json.dumps and
    numbers by ``repr``, as json.dumps does a finite float and an int.
    Selection frequencies are round counts over the configured rounds, so
    they are finite; a mean score that is not is spelt as json.dumps
    spells it.
    """
    os.makedirs(out_dir, exist_ok=True)
    classes = table.classes
    words, word_codes = _value_texts(table.word_idx, table.words.__getitem__)
    arrays = {f: getattr(table, f) for f in _NUMERIC_KINDS}
    arrays["class_id"] = table.class_idx.astype(np.int32)
    arrays["word"] = word_codes.astype(np.int32)
    arrays["word_values"] = np.frombuffer(json.dumps(words).encode("ascii"),
                                          dtype=np.uint8)
    (frequencies, rounds, instances, docs), codes = zip(
        *(_value_texts(getattr(table, f))  # after the mean score
          for f in list(_NUMERIC_KINDS)[1:]))
    json_classes, json_words = (list(map(encode_basestring_ascii, strings))
                                for strings in (classes, words))
    with atomic_write(os.path.join(out_dir, "aggregates.npz"),
                      binary=True) as npz, \
            atomic_write(os.path.join(out_dir, "aggregates.json")) as js, \
            atomic_write(os.path.join(out_dir, "aggregates.tsv")) as fh:
        np.savez(npz, **arrays)
        js.write("[")
        fh.write("\t".join(_AGG_COLUMNS) + "\n")
        for start in range(0, len(table), DUMP_ROWS):
            part = slice(start, start + DUMP_ROWS)
            rows = list(zip(map(float.__repr__,
                                table.mean_score[part].tolist()),
                            *(column[part].tolist() for column in
                              (table.class_idx, word_codes, *codes))))
            js.write((", " if start else "") + ", ".join(
                f'{{"class": {json_classes[c]}, "word": {json_words[w]}, '
                f'"mean_score": {_JSON_NON_FINITE.get(m, m)}, '
                f'"selection_frequency": {frequencies[s]}, '
                f'"rounds_selected": {rounds[r]}, '
                f'"instance_count": {instances[i]}, '
                f'"doc_frequency": {docs[d]}}}'
                for m, c, w, s, r, i, d in rows))
            fh.write("".join(
                f"{classes[c]}\t{words[w]}\t{m}\t{frequencies[s]}\t"
                f"{rounds[r]}\t{instances[i]}\t{docs[d]}\n"
                for m, c, w, s, r, i, d in rows))
        js.write("]")


def _column(archive, name: str, kind: str, count=None) -> np.ndarray:
    """The 1-D column ``name`` of dtype kind ``kind``; given ``count``,
    each of its values lies in ``range(count)``."""
    column = archive[name]
    if column.ndim != 1 or column.dtype.kind != kind:
        raise TypeError(f"{name} is {column.dtype} of shape {column.shape}, "
                        f"not a 1-D column of dtype kind {kind!r}")
    if count is not None and column.size and not (
            0 <= column.min() and column.max() < count):
        raise ValueError(f"{name} holds an id outside range({count})")
    return column


def load_aggregates(out_dir, classes) -> Aggregates:
    """The table that ``write_aggregates`` wrote to ``aggregates.npz``,
    over ``classes`` (the run's, from ``config.json``) and the archive's
    words, in whatever order they are.

    A file that is not such an archive, lacks a column, holds a column of
    the wrong dtype kind or length, a class id that does not index
    ``classes``, a word code out of range or words that are not a JSON
    list of strings raises ``ValidationError`` naming it.
    """
    path = os.path.join(out_dir, "aggregates.npz")
    # np.load leaves a file it opened itself open if the archive is damaged
    with open(path, "rb") as fh, \
            malformed(path, "aggregates", ValidationError), \
            np.load(fh, allow_pickle=False) as archive:
        words = json.loads(_column(archive, "word_values", "u").tobytes())
        if not _is_string_list(words):
            raise TypeError("word_values is not a JSON list of strings")
        columns = {f: _column(archive, f, kind)
                   for f, kind in _NUMERIC_KINDS.items()}
        columns["class_idx"] = _column(archive, "class_id", "i", len(classes))
        columns["word_idx"] = _column(archive, "word", "i", len(words))
        if len({column.size for column in columns.values()}) > 1:
            raise ValueError("columns of unequal length")
        return Aggregates(**columns, classes=tuple(classes), words=words)
