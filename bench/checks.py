"""Output checks for one benchmark cycle, written independently of the
program: the keyword rows are re-derived from `aggregates.json` with the
strict SF > t and df > k rule, and, when per-document selections are
dumped, the aggregates are recomputed naively from them.
"""

from __future__ import annotations

import json
import os

EMPTY_CLASS_MARKER = "- no stable keywords -"
REPORT_FILES = ("keywords.tsv", "f1_summary.tsv")  # `report` must reproduce these


def read_rounds(run_dir) -> list[dict]:
    names = sorted(n for n in os.listdir(run_dir)
                   if n.startswith("round_") and n.endswith(".json"))
    rounds = []
    for name in names:
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            rounds.append(json.load(fh))
    return rounds


def read_aggregates(run_dir) -> list[dict]:
    with open(os.path.join(run_dir, "aggregates.json"), encoding="utf-8") as fh:
        return json.load(fh)


def expected_keyword_lines(aggregates, classes, sf_threshold, min_df, top_m):
    """keywords.tsv as the filter rule defines it, one line per row."""
    kept = {c: [] for c in classes}
    for row in aggregates:
        if (row["selection_frequency"] > sf_threshold
                and row["doc_frequency"] > min_df):
            kept[row["class"]].append(row)
    lines = []
    for c in classes:
        rows = sorted(kept[c], key=lambda r: (-r["mean_score"], r["word"]))[:top_m]
        if not rows:
            lines.append(f"{c}\t{EMPTY_CLASS_MARKER}\t\t")
        for r in rows:
            percent = int(round(r["selection_frequency"] * 100))
            lines.append(f"{c}\t{r['word']}\t{r['mean_score']:.4f}\t{percent}")
    return lines


def naive_aggregate_errors(rounds, aggregates, n_rounds) -> list[str]:
    """Compare aggregates with a recomputation from the dumped selections:
    pooled mean within 1e-12, exact instance and round counts."""
    scores: dict[tuple[str, str], list[float]] = {}
    hits: dict[tuple[str, str], set[int]] = {}
    for rr in rounds:
        for class_name, word, _doc, score in rr["selections"]:
            scores.setdefault((class_name, word), []).append(score)
            hits.setdefault((class_name, word), set()).add(rr["round_index"])
    errors = []
    seen = set()
    for row in aggregates:
        key = (row["class"], row["word"])
        seen.add(key)
        if key not in scores:
            errors.append(f"aggregate {key} has no dumped selections")
            continue
        pooled = scores[key]
        if abs(sum(pooled) / len(pooled) - row["mean_score"]) > 1e-12:
            errors.append(f"mean score of {key} differs from the pooled mean")
        if len(pooled) != row["instance_count"]:
            errors.append(f"instance count of {key} differs")
        if (len(hits[key]) != row["rounds_selected"]
                or row["selection_frequency"] != len(hits[key]) / n_rounds):
            errors.append(f"round count of {key} differs")
    missing = set(scores) - seen
    if missing:
        errors.append(f"{len(missing)} selected (class, word) pairs have no aggregate")
    if len(errors) > 5:
        errors[5:] = [f"... and {len(errors) - 5} more aggregate mismatches"]
    return errors


def parse_keyword_rows(lines) -> dict[tuple[str, str], tuple[float, int]]:
    """(class, word) -> (score, rank within class) from keywords.tsv lines."""
    out, rank = {}, {}
    for line in lines:
        c, word, score, _sf = line.split("\t")
        if word == EMPTY_CLASS_MARKER:
            continue
        rank[c] = rank.get(c, 0) + 1
        out[(c, word)] = (float(score), rank[c])
    return out


def keyword_diff(reference_lines, lines) -> list[str]:
    """The largest score change and every rank change between two tables."""
    ref, new = parse_keyword_rows(reference_lines), parse_keyword_rows(lines)
    common = ref.keys() & new.keys()
    notes = []
    if common:
        key = max(common, key=lambda k: abs(new[k][0] - ref[k][0]))
        notes.append(f"largest score change {abs(new[key][0] - ref[key][0]):.4f} "
                     f"at {key[0]}/{key[1]}")
    for key in sorted(common):
        if ref[key][1] != new[key][1]:
            notes.append(f"rank of {key[0]}/{key[1]}: {ref[key][1]} -> {new[key][1]}")
    for key in sorted(ref.keys() - new.keys()):
        notes.append(f"{key[0]}/{key[1]} left the table")
    for key in sorted(new.keys() - ref.keys()):
        notes.append(f"{key[0]}/{key[1]} entered the table at rank {new[key][1]}")
    return notes
