"""Numerical self-checks: the hand-written input gradient
(``model.pooled_logit_gradients``, as integrated gradients calls it)
against finite differences, the integrated gradients that score keywords
(``attribution.pair_attributions``) against the completeness axiom, and
the pipeline's aggregates against a naive recomputation from dumped rounds.

Each check function returns what it measures.  ``run_checks`` holds the
measurements against their bounds for ``igkeywords check``; acceptance
criteria 1, 3 and 4 call the same functions with the same bounds.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter

import numpy as np

from . import attribution, model, pipeline
from .corpus import (_WORD_RE, SplitSpec, SynthConfig, generate_synthetic,
                     stratified_split)

#: largest relative error |analytic - fd| / max(|fd|, 1e-8) of a gradient
GRADIENT_BOUND = 1e-4
#: at m=RESIDUAL_STEPS, the share of documents whose residual ratio must be
#: within RESIDUAL_BOUND; the median ratio must not rise (beyond 1e-12)
#: along CONVERGENCE_STEPS
RESIDUAL_BOUND, RESIDUAL_SHARE, RESIDUAL_STEPS = 1e-3, 0.95, 300
CONVERGENCE_STEPS = (10, 20, 40, 80, 160, 320, 640)
#: largest |difference| of an aggregate mean score from its recomputation
ORACLE_BOUND = 1e-12

#: the corpus and the run whose dumped rounds the oracle check reads
ORACLE_SYNTH = SynthConfig(num_classes=4, docs_per_class=12,
                           background_vocab_size=150, markers_per_class=2,
                           doc_length=(8, 15))
ORACLE_CONFIG = pipeline.PipelineConfig(
    ratio=0.6, top_n=5, rounds=5, ig_steps=10, min_doc_frequency=1,
    master_seed=11, dump_scores=True,
    train_config=model.TrainConfig(epochs=10, d=8, h=8))


class CheckFailure(AssertionError):
    """A difference that no measured value describes."""


def gradient_error() -> float:
    """The largest relative error of ``model.pooled_logit_gradients``, on
    a [rows, m, d] batch with a class per row as IG calls it, against
    central differences (step 1e-4) of ``model.logits``, over 100 random
    models (d, h in 2..8, 2-4 classes) and batches (1-4 rows, 1-4 points)."""
    rng = np.random.default_rng(101)
    step, worst = 1e-4, 0.0
    for _ in range(100):
        d, h = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        n_classes = int(rng.integers(2, 5))
        cfg = model.TrainConfig(d=d, h=h, weight_init_scale=0.5,
                                seed=int(rng.integers(2**31)))
        params = model.init_model({f"p{i}": i for i in range(20)},
                                  n_classes, cfg)
        n_rows, n_points = (int(n) for n in rng.integers(1, 5, size=2))
        path = rng.normal(size=(n_rows, n_points, d))
        classes = rng.integers(n_classes, size=n_rows)
        analytic = model.pooled_logit_gradients(params, path, classes[:, None])
        # each point moved by +-step along each axis, for its row's class
        hi, lo = (model.logits(params, path[:, :, None, :] + move)[0]
                  [np.arange(n_rows), ..., classes]
                  for move in (step * np.eye(d), -step * np.eye(d)))
        fd = (hi - lo) / (2 * step)
        worst = max(worst, float(np.max(np.abs(analytic - fd)
                                        / np.maximum(np.abs(fd), 1e-8))))
    return worst


def completeness_model():
    """The model trained on 3 classes of 60 synthetic documents whose
    validation rows the completeness check attributes: ``(params, corpus,
    validation rows)``."""
    synth = SynthConfig(num_classes=3, docs_per_class=60,
                        background_vocab_size=500, markers_per_class=3,
                        doc_length=(15, 30))
    corpus, _ = generate_synthetic(synth, seed=303)
    train_rows, val_rows = stratified_split(corpus,
                                            SplitSpec(ratio=0.67, seed=1))
    cfg = model.TrainConfig(epochs=20, d=12, h=16, seed=5)
    params = model.train(
        model.init_model(model.build_vocab(corpus, train_rows), 3, cfg),
        corpus, train_rows, cfg)
    return params, corpus, val_rows


def completeness_ratios(steps) -> np.ndarray:
    """[len(steps), documents] residual ratios |sum of attributions -
    (F(x) - F(0))| / max(1, |F(x) - F(0)|) at each step count, for each
    validation document of ``completeness_model`` and one class per
    document, cycling through the classes.  The attributions are
    ``pair_attributions``, the IG that scores keywords."""
    params, corpus, val_rows = completeness_model()
    pieces = model.piece_rows(params, corpus)
    pooled = model.pool_documents(params, pieces, corpus, val_rows)
    classes = np.arange(len(val_rows)) % params.num_classes
    f_x = model.logits(params, pooled)[0]
    f_0 = model.logits(params, np.zeros(pooled.shape[1]))[0]
    deltas = f_x[np.arange(len(val_rows)), classes] - f_0[classes]
    ratios = np.empty((len(steps), len(val_rows)))
    for i, m in enumerate(steps):
        values, _, counts = attribution.pair_attributions(
            params, pieces, corpus, val_rows, pooled, classes, m)
        ends = np.cumsum(counts)
        totals = np.array([values[end - count:end].sum() for end, count
                           in zip(ends.tolist(), counts.tolist())])
        ratios[i] = np.abs(totals - deltas) / np.maximum(1.0, np.abs(deltas))
    return ratios


def oracle_error() -> float:
    """The largest |difference| between an aggregate mean score and the mean
    of its scores in the dumped ``round_*.json`` files of a run of
    ORACLE_CONFIG on ORACLE_SYNTH.  Raises ``CheckFailure`` if the
    aggregates' keys, instance counts, rounds selected, selection
    frequencies or document frequencies (recounted from the texts)
    differ.
    """
    corpus, _ = generate_synthetic(ORACLE_SYNTH, seed=404)
    rounds = ORACLE_CONFIG.rounds
    scores, hits = {}, {}  # the scores and the rounds of each (class, word)
    with tempfile.TemporaryDirectory() as out_dir:
        result = pipeline.run_pipeline(corpus, ORACLE_CONFIG, out_dir=out_dir)
        for i in range(rounds):
            path = os.path.join(out_dir, f"round_{i:04d}.json")
            with open(path, encoding="utf-8") as fh:
                for class_name, word, _, score in json.load(fh)["selections"]:
                    scores.setdefault((class_name, word), []).append(score)
                    hits.setdefault((class_name, word), set()).add(i)
    df = Counter(w for text in corpus.texts
                 for w in set(_WORD_RE.findall(text.lower())))

    records = result.aggregates.records()
    keys = {(r.class_name, r.word) for r in records}
    if keys != set(scores):
        raise CheckFailure(f"aggregate keys differ from the dumps: "
                           f"{sorted(keys ^ set(scores))[:5]}")
    worst = 0.0
    for rec in records:
        key = rec.class_name, rec.word
        pooled, n_hits = scores[key], len(hits[key])
        want = (len(pooled), n_hits, n_hits / rounds, df[rec.word])
        got = (rec.instance_count, rec.rounds_selected,
               rec.selection_frequency, rec.doc_frequency)
        if got != want:
            raise CheckFailure(f"{key}: (instances, rounds, SF, df) {got}, "
                               f"recomputed {want}")
        worst = max(worst, abs(rec.mean_score - sum(pooled) / len(pooled)))
    return worst


def run_checks():
    """``(passed, line)`` for each check in turn; the line gives what the
    check measured and its bound."""
    error = gradient_error()
    yield (error <= GRADIENT_BOUND, f"finite-difference gradients: largest "
           f"relative error {error:.2e} (bound {GRADIENT_BOUND:.0e})")

    ratios = completeness_ratios((RESIDUAL_STEPS, *CONVERGENCE_STEPS))
    share = float(np.mean(ratios[0] <= RESIDUAL_BOUND))
    medians = np.median(ratios[1:], axis=1)
    falling = bool(np.all(medians[1:] <= medians[:-1] + 1e-12))
    yield (share >= RESIDUAL_SHARE and falling, f"IG completeness: {share:.1%}"
           f" of documents within {RESIDUAL_BOUND:.0e} at m={RESIDUAL_STEPS} "
           f"(bound {RESIDUAL_SHARE:.0%}), largest ratio {ratios[0].max():.2e}"
           f"; median ratio {', '.join(f'{m:.1e}' for m in medians)} at m = "
           f"{CONVERGENCE_STEPS} ({'never rises' if falling else 'rises'})")

    try:
        delta = oracle_error()
    except CheckFailure as exc:
        yield False, f"pipeline oracle: {exc}"
    else:
        yield (delta <= ORACLE_BOUND, f"pipeline oracle: largest |mean score "
               f"difference| {delta:.2e} (bound {ORACLE_BOUND:.0e})")
