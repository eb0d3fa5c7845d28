"""Keyword tables, F1 summaries, uniqueness statistics, and synthetic
marker recovery scoring.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .corpus import ValidationError
from .fileio import atomic_write

EMPTY_CLASS_MARKER = "- no stable keywords -"
#: The files write_reports writes into a run directory
REPORT_FILES = ("keywords.tsv", "keywords.json", "keywords.md",
                "f1_summary.tsv", "uniqueness.json", "recovery.json")


@dataclass
class KeywordTable:
    """Per-class top-M rows of (word, mean_score, sf_percent)."""

    rows: dict[str, list[tuple[str, float, int]]]
    top_m: int


@dataclass
class F1Summary:
    per_class: dict[str, dict[str, float]]  # mean_f1, sd_f1, mean_support
    micro_mean: float
    micro_sd: float
    rounds: int  # successful rounds included


@dataclass
class UniquenessStat:
    top_m: int
    per_class: dict[str, int]
    mean: float
    sd: float


def build_keyword_table(keywords, class_names, top_m: int) -> KeywordTable:
    """Truncate the filtered aggregate rows to the top M per class.

    Every listed class appears, even with no surviving keywords.
    """
    rows: dict[str, list[tuple[str, float, int]]] = {c: [] for c in class_names}
    for (c, w), score, sf in zip(keywords.pairs(),
                                 keywords.mean_score.tolist(),
                                 keywords.selection_frequency.tolist()):
        bucket = rows.setdefault(c, [])
        if len(bucket) < top_m:
            bucket.append((w, score, int(round(sf * 100))))
    return KeywordTable(rows=rows, top_m=top_m)


def render_keyword_table(table: KeywordTable, fmt: str = "tsv") -> str:
    """Serialize a keyword table; scores to 4 decimals, SF as integer percent."""
    if fmt == "json":
        payload = {c: [{"word": w, "score": round(s, 4), "sf_percent": p}
                       for w, s, p in rows]
                   for c, rows in table.rows.items()}
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []
    for c in table.rows:
        rows = table.rows[c]
        if fmt == "markdown":
            lines.append(f"### {c}")
            lines.append("| Word | Score | SF(%) |")
            lines.append("|---|---|---|")
            if not rows:
                lines.append(f"| {EMPTY_CLASS_MARKER} | | |")
            for w, s, p in rows:
                lines.append(f"| {w} | {s:.4f} | {p} |")
            lines.append("")
        else:  # tsv
            if not rows:
                lines.append(f"{c}\t{EMPTY_CLASS_MARKER}\t\t")
            for w, s, p in rows:
                lines.append(f"{c}\t{w}\t{s:.4f}\t{p}")
    return "\n".join(lines) + "\n"


def _mean_sd(values):
    n = len(values)
    mean = sum(values) / n
    sd = (sum((v - mean) ** 2 for v in values) / n) ** 0.5  # population SD
    return mean, sd


def f1_summary(rounds) -> F1Summary:
    """Per-class and micro mean/SD of F1 over successful rounds."""
    ok = [r for r in rounds if not r.failed]
    if not ok:
        raise ValidationError("no successful rounds to summarize")
    classes = list(ok[0].per_class)
    per_class = {}
    for c in classes:
        f1s = [r.per_class[c]["f1"] for r in ok]
        supports = [r.per_class[c]["support"] for r in ok]
        mean, sd = _mean_sd(f1s)
        per_class[c] = {"mean_f1": mean, "sd_f1": sd,
                        "mean_support": sum(supports) / len(supports)}
    micro_mean, micro_sd = _mean_sd([r.micro_f1 for r in ok])
    return F1Summary(per_class=per_class, micro_mean=micro_mean,
                     micro_sd=micro_sd, rounds=len(ok))


def render_f1_summary(summary: F1Summary) -> str:
    lines = ["Class\tF1(M)\tSD\tSupport(M)"]
    for c, stats in summary.per_class.items():
        lines.append(f"{c}\t{stats['mean_f1']:.4f}\t{stats['sd_f1']:.4f}"
                     f"\t{stats['mean_support']:.1f}")
    lines.append(f"Micro AVG\t{summary.micro_mean:.4f}"
                 f"\t{summary.micro_sd:.4f}\t-")
    lines.append(f"# rounds: {summary.rounds}")
    return "\n".join(lines) + "\n"


def uniqueness(table: KeywordTable, top_m: int | None = None) -> UniquenessStat:
    """Count, per class, top-M keywords found in no other class's top-M."""
    top_m = table.top_m if top_m is None else top_m
    if top_m < 1:
        raise ValidationError("top_m must be >= 1")
    tops = {c: {w for w, _, _ in rows[:top_m]} for c, rows in table.rows.items()}
    per_class = {}
    for c, words in tops.items():
        others = set().union(*(tops[o] for o in tops if o != c)) if len(tops) > 1 else set()
        per_class[c] = len(words - others)
    mean, sd = _mean_sd(list(per_class.values())) if per_class else (0.0, 0.0)
    return UniquenessStat(top_m=top_m, per_class=per_class, mean=mean, sd=sd)


def marker_recovery(keywords, planted: dict[str, set[str]]):
    """Score the filtered aggregate rows against planted synthetic markers.

    Returns per-class {"recall", "precision"}.  With an empty keyword
    list, precision is 1.0 (the list claims nothing false).
    """
    kept = keywords.pairs()
    out = {}
    for c, markers in planted.items():
        found = {word for name, word in kept if name == c}
        hit = markers & found
        recall = len(hit) / len(markers) if markers else 1.0
        precision = len(hit) / len(found) if found else 1.0
        out[c] = {"recall": recall, "precision": precision}
    return out


def write_reports(result, out_dir, top_m: int, class_names,
                  planted=None) -> None:
    """Emit the standard report files into a run directory, the keyword
    tables' classes in the order ``class_names``, and no ``recovery.json``
    without ``planted``.  Every text is built before the first file is
    written, so a report that cannot be built writes no file."""
    table = build_keyword_table(result.keywords, class_names, top_m)
    stat = uniqueness(table)
    texts = {
        "keywords.tsv": render_keyword_table(table, "tsv"),
        "keywords.json": render_keyword_table(table, "json"),
        "keywords.md": render_keyword_table(table, "markdown"),
        "f1_summary.tsv": render_f1_summary(f1_summary(result.rounds)),
        "uniqueness.json": json.dumps(
            {"top_m": stat.top_m, "per_class": stat.per_class,
             "mean": stat.mean, "sd": stat.sd}, indent=2, sort_keys=True),
    }
    if planted is not None:
        texts["recovery.json"] = json.dumps(
            marker_recovery(result.keywords, planted), indent=2,
            sort_keys=True)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in texts.items():
        with atomic_write(os.path.join(out_dir, name)) as fh:
            fh.write(text)
    if planted is None and os.path.exists(
            stale := os.path.join(out_dir, "recovery.json")):
        os.remove(stale)
