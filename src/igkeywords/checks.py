"""Numerical self-checks: the model's one input gradient, the path mean
that integrated gradients takes (``model.path_mean_gradients``), against
finite differences of the path-averaged logit, the integrated gradients
that score keywords (``attribution.pair_weights`` and ``token_scores``)
against the completeness axiom, the pipeline's aggregates against a naive
recomputation from the rounds' dumped rows, and the closed-form path mean
of the activation slope (``model.path_mean_slopes``) against quadrature.
Both path integrals are taken with the nodes of ``path_nodes``.

Each check function returns what it measures.  ``run_checks`` holds the
measurements against their bounds for ``igkeywords check``; acceptance
criteria 1, 3 and 4 call the same functions with the same bounds.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import attribution, model, pipeline, rundir
from .corpus import (_WORD_RE, SynthConfig, generate_synthetic,
                     stratified_split)

#: largest relative error |analytic - fd| / max(|fd|, 1e-8) of a gradient
GRADIENT_BOUND = 1e-4
#: largest residual ratio of any document (see ``completeness_ratios``)
RESIDUAL_BOUND = 1e-10
#: largest |difference| of an aggregate mean score from its recomputation
ORACLE_BOUND = 1e-12

#: largest relative error of a path-mean slope against quadrature, for
#: pre-activation changes |a| up to QUADRATURE_REACH, which the nodes of
#: ``path_nodes`` resolve to far below it; beyond, up to 1e8, the slopes
#: must stay finite and >= 0
PATH_MEAN_BOUND, QUADRATURE_REACH = 1e-12, 100.0

#: the corpus and the run whose rounds the oracle check recomputes
ORACLE_SYNTH = SynthConfig(num_classes=4, docs_per_class=12,
                           background_vocab_size=150, markers_per_class=2,
                           doc_length=(8, 15))
ORACLE_CONFIG = pipeline.PipelineConfig(
    ratio=0.6, top_n=5, rounds=5, min_doc_frequency=1, master_seed=11,
    train_config=model.TrainConfig(epochs=10, d=8, h=8))


class CheckFailure(AssertionError):
    """A difference that no measured value describes."""


def path_nodes():
    """Composite Gauss-Legendre quadrature on [0, 1], 64 panels of 20 nodes:
    ``(alphas, weights)``, panel after panel."""
    nodes, node_weights = np.polynomial.legendre.leggauss(20)
    panels = 64
    alphas = ((np.arange(panels)[:, None] + (nodes + 1) / 2) / panels).ravel()
    return alphas, np.tile(node_weights / (2 * panels), panels)


def gradient_error() -> float:
    """The largest relative error of ``model.path_mean_gradients``, on
    [rows, d] pooled vectors x with a class c per row, against central
    differences (step 1e-4) of the path-averaged logit
    ``H(y) = integral over alpha in [0, 1] of logit_c(alpha x + y)`` at
    y = 0, whose gradient is exactly the path mean; H by the quadrature of
    ``path_nodes``.  Over 100 random models of either activation (d, h in
    2..8, 2-4 classes) and batches of 1-4 rows."""
    rng = np.random.default_rng(101)
    alphas, alpha_weights = path_nodes()
    step, worst = 1e-4, 0.0
    for i in range(100):
        d, h = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        n_classes = int(rng.integers(2, 5))
        cfg = model.TrainConfig(d=d, h=h, weight_init_scale=0.5,
                                activation=("tanh", "identity")[i % 2])
        params = model.init_model(np.arange(20), n_classes, cfg,
                                  int(rng.integers(2**31)))
        n_rows = int(rng.integers(1, 5))
        pooled = rng.normal(size=(n_rows, d))
        classes = rng.integers(n_classes, size=n_rows)
        analytic = model.path_mean_gradients(params, pooled, classes)
        # [rows, nodes, d] path points, each moved by +-step along each
        # axis, for its row's class: H of [rows, d] moves
        path = alphas[:, None] * pooled[:, None, :]
        hi, lo = (model.logits(params, path[:, None] + move[:, None])[0]
                  [np.arange(n_rows), ..., classes] @ alpha_weights
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
    train_rows, val_rows = stratified_split(corpus, 0.67, 1)
    cfg = model.TrainConfig(epochs=20, d=12, h=16)
    params = model.train(
        model.init_model(model.build_vocab(corpus, train_rows), 3, cfg, 5),
        corpus, train_rows, cfg, 5)
    return params, corpus, val_rows


def completeness_ratios() -> np.ndarray:
    """The residual ratio |sum of token scores - (F(x) - F(0))| /
    max(1, |F(x) - F(0)|) of each validation document of
    ``completeness_model``, for one class per document, cycling through
    the classes.  The token scores are those of ``token_scores``, the IG
    that scores keywords."""
    params, corpus, val_rows = completeness_model()
    pieces = model.piece_rows(params, corpus)
    pooled = model.pool_documents(params, pieces, corpus, val_rows)
    classes = np.arange(len(val_rows)) % params.num_classes
    f_x = model.logits(params, pooled)[0]
    f_0 = model.logits(params, np.zeros(pooled.shape[1]))[0]
    deltas = f_x[np.arange(len(val_rows)), classes] - f_0[classes]
    weights = attribution.pair_weights(params, corpus, val_rows, pooled,
                                       classes)
    _, token_pair, scores = attribution.token_scores(params, pieces, corpus,
                                                     val_rows, weights)
    totals = np.bincount(token_pair, weights=scores, minlength=len(val_rows))
    return np.abs(totals - deltas) / np.maximum(1.0, np.abs(deltas))


def path_mean_error() -> tuple[float, bool]:
    """The largest relative error of ``model.path_mean_slopes`` against the
    quadrature of ``path_nodes`` of the activation's derivative along the
    path, written ``1 / cosh^2`` for tanh so that it does not cancel where
    tanh saturates, over 100 random models of either activation (d, h in
    2..8, hidden biases of scale 4) and pre-activation changes |a| from 0
    to QUADRATURE_REACH; and whether every slope is finite and >= 0 for |a|
    beyond, up to about 1e8."""
    rng = np.random.default_rng(707)
    alphas, alpha_weights = path_nodes()
    worst, bounded = 0.0, True
    for i in range(100):
        d, h = (int(n) for n in rng.integers(2, 9, size=2))
        cfg = model.TrainConfig(d=d, h=h, weight_init_scale=0.5,
                                activation=("tanh", "identity")[i % 2])
        params = model.init_model(np.arange(1), 2, cfg,
                                  int(rng.integers(2**31)))
        params.hidden_bias = 4.0 * rng.normal(size=h)
        # pooled vectors from 0 out to |a| of about 1e8
        pooled = (rng.normal(size=(12, d))
                  * 10.0 ** rng.uniform(-8, 8, size=(12, 1)))
        pooled[0] = 0.0
        a = pooled @ params.hidden_weights
        slopes = model.path_mean_slopes(params, a)
        resolved = np.abs(a) <= QUADRATURE_REACH
        beyond = slopes[~resolved]
        bounded &= bool(np.all((beyond >= 0.0) & (beyond < np.inf)))
        a_in, b_in = a[resolved], np.broadcast_to(params.hidden_bias,
                                                  a.shape)[resolved]
        if params.activation == "tanh":
            pre = alphas[:, None] * a_in + b_in
            integrand = np.cosh(pre) ** -2.0
        else:
            integrand = np.ones((alphas.size, a_in.size))
        reference = alpha_weights @ integrand
        worst = max(worst, float(np.max(np.abs(slopes[resolved] - reference)
                                        / reference)))
    return worst, bounded


def oracle_error() -> float:
    """The largest |difference| between an aggregate mean score and the mean
    of its scores in the dumped rows (``rundir.dumped``) of the selections
    that ``run_pipeline`` hands to ``on_round`` beside each round's record,
    in a run of ORACLE_CONFIG on ORACLE_SYNTH.  Raises ``CheckFailure`` if
    the aggregates' keys, instance counts, rounds selected, selection
    frequencies or document frequencies (recounted from the texts) differ.
    """
    corpus, _ = generate_synthetic(ORACLE_SYNTH, seed=404)
    rounds = ORACLE_CONFIG.rounds
    scores, hits = {}, {}  # the scores and the rounds of each (class, word)

    def dump(rr, selections):
        for class_name, word, _, score in rundir.dumped(selections, corpus):
            scores.setdefault((class_name, word), []).append(score)
            hits.setdefault((class_name, word), set()).add(rr.round_index)
    result = pipeline.run_pipeline(corpus, ORACLE_CONFIG, on_round=dump)
    df = Counter(w for text in corpus.texts
                 for w in set(_WORD_RE.findall(text.lower())))

    table = result.aggregates
    keys = table.pairs()
    if set(keys) != set(scores):
        raise CheckFailure(f"aggregate keys differ from the dumps: "
                           f"{sorted(set(keys) ^ set(scores))[:5]}")
    worst = 0.0
    for key, mean, *got in zip(keys, *(getattr(table, f).tolist() for f in (
            "mean_score", "instance_count", "rounds_selected",
            "selection_frequency", "doc_frequency"))):
        pooled, n_hits = scores[key], len(hits[key])
        want = [len(pooled), n_hits, n_hits / rounds, df[key[1]]]
        if got != want:
            raise CheckFailure(f"{key}: (instances, rounds, SF, df) "
                               f"{tuple(got)}, recomputed {tuple(want)}")
        worst = max(worst, abs(mean - sum(pooled) / len(pooled)))
    return worst


def run_checks():
    """``(passed, line)`` for each check in turn; the line gives what the
    check measured and its bound."""
    error = gradient_error()
    yield (error <= GRADIENT_BOUND, f"finite-difference gradients: largest "
           f"relative error {error:.2e} (bound {GRADIENT_BOUND:.0e})")

    ratios = completeness_ratios()
    yield (bool(np.all(ratios <= RESIDUAL_BOUND)), f"IG completeness: "
           f"{np.mean(ratios <= RESIDUAL_BOUND):.1%} of documents within "
           f"{RESIDUAL_BOUND:.0e} (bound 100%), largest ratio "
           f"{ratios.max():.2e}")

    try:
        delta = oracle_error()
    except CheckFailure as exc:
        yield False, f"pipeline oracle: {exc}"
    else:
        yield (delta <= ORACLE_BOUND, f"pipeline oracle: largest |mean score "
               f"difference| {delta:.2e} (bound {ORACLE_BOUND:.0e})")

    error, bounded = path_mean_error()
    yield (error <= PATH_MEAN_BOUND and bounded, f"closed-form IG path mean: "
           f"largest relative error {error:.2e} against quadrature for |a| <= "
           f"{QUADRATURE_REACH:.0f} (bound {PATH_MEAN_BOUND:.0e}); "
           f"{'finite and >= 0' if bounded else 'NOT finite and >= 0'} "
           f"beyond")
