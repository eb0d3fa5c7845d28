"""Keyword tables, F1 summaries, uniqueness statistics, and synthetic
marker recovery scoring, as plain dicts and lists, and their texts.

A keyword table is ``{class: [(word, mean score, SF percent)]}``, at most
``top_m`` rows a class.  ``rundir`` writes the texts into a run
directory.
"""

from __future__ import annotations

import json

from .corpus import ValidationError

EMPTY_CLASS_MARKER = "- no stable keywords -"


def build_keyword_table(keywords, class_names, top_m: int) -> dict:
    """The first ``top_m`` filtered aggregate rows of each class as
    ``(word, mean score, SF percent)``, classes in the order
    ``class_names``.

    Every listed class appears, even with no surviving keywords.
    """
    rows: dict[str, list[tuple[str, float, int]]] = {c: [] for c in class_names}
    for (c, w), score, sf in zip(keywords.pairs(),
                                 keywords.mean_score.tolist(),
                                 keywords.selection_frequency.tolist()):
        bucket = rows.setdefault(c, [])
        if len(bucket) < top_m:
            bucket.append((w, score, int(round(sf * 100))))
    return rows


def render_keyword_table(table, fmt: str = "tsv") -> str:
    """Serialize a keyword table; scores to 4 decimals, SF as integer percent."""
    if fmt == "json":
        payload = {c: [{"word": w, "score": round(s, 4), "sf_percent": p}
                       for w, s, p in rows]
                   for c, rows in table.items()}
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []
    for c, rows in table.items():
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


def f1_summary(rounds) -> dict:
    """Per-class and micro mean/SD of F1 over successful rounds: a dict of
    ``per_class`` (``mean_f1``, ``sd_f1`` and ``mean_support`` a class),
    ``micro_mean``, ``micro_sd`` and ``rounds``, the successful rounds."""
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
    return {"per_class": per_class, "micro_mean": micro_mean,
            "micro_sd": micro_sd, "rounds": len(ok)}


def render_f1_summary(summary: dict) -> str:
    lines = ["Class\tF1(M)\tSD\tSupport(M)"]
    for c, stats in summary["per_class"].items():
        lines.append(f"{c}\t{stats['mean_f1']:.4f}\t{stats['sd_f1']:.4f}"
                     f"\t{stats['mean_support']:.1f}")
    lines.append(f"Micro AVG\t{summary['micro_mean']:.4f}"
                 f"\t{summary['micro_sd']:.4f}\t-")
    lines.append(f"# rounds: {summary['rounds']}")
    return "\n".join(lines) + "\n"


def uniqueness(table) -> dict:
    """``per_class``, the number of each class's keywords in a keyword
    table that no other class lists, and its ``mean`` and ``sd`` over the
    classes."""
    tops = {c: {w for w, _, _ in rows} for c, rows in table.items()}
    per_class = {}
    for c, words in tops.items():
        others = set().union(*(tops[o] for o in tops if o != c)) if len(tops) > 1 else set()
        per_class[c] = len(words - others)
    mean, sd = _mean_sd(list(per_class.values())) if per_class else (0.0, 0.0)
    return {"per_class": per_class, "mean": mean, "sd": sd}


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
