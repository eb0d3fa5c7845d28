"""Walkthrough: integrated gradients on a single document.

Trains a small classifier, attributes one validation document against
its gold class, and walks the reduction chain from per-(token, dim)
IG values to per-word scores.  Also demonstrates the completeness
check: attributions sum to F(x) - F(baseline) as the step count grows.

Documents are rows of the corpus, so one document is a one-row array;
``pair_attributions`` is the same IG that scores keywords in a run.
"""

import numpy as np

from igkeywords.attribution import pair_attributions
from igkeywords.corpus import (CONTINUATION, SplitSpec, SynthConfig,
                               generate_synthetic, stratified_split)
from igkeywords.model import (TrainConfig, build_vocab, init_model, logits,
                              piece_rows, pool_documents, predict_pooled,
                              train)

synth = SynthConfig(num_classes=3, docs_per_class=80,
                    background_vocab_size=600, markers_per_class=2,
                    doc_length=(12, 25))
corpus, markers = generate_synthetic(synth, seed=7)
# The split gives rows: indices of the documents of each half.
train_rows, val_rows = stratified_split(corpus, SplitSpec(ratio=0.67, seed=0))

cfg = TrainConfig(epochs=25, d=12, h=16, seed=3)
params = train(init_model(build_vocab(corpus, train_rows), 3, cfg), corpus,
               train_rows, cfg)

# One document as a row; its pieces and their words are positions in the
# corpus's piece_ids and word_ids, and its model input is the pooled vector.
rows = val_rows[:1]
classes = corpus.label_space.classes
gold = {classes[c] for c in np.flatnonzero(corpus.labels[rows[0]])}
pieces = piece_rows(params, corpus)
pooled = pool_documents(params, pieces, corpus, rows)
positions, _ = corpus.positions(rows)
n_words = sum(not corpus.pieces[p].startswith(CONTINUATION)
              for p in corpus.piece_ids[positions])
print(f"document {corpus.doc_ids[rows[0]]}: {n_words} words, "
      f"gold labels {gold}")
predicted = predict_pooled(params, pooled, cfg.decision_threshold)[0]
print(f"predicted: {({classes[c] for c in np.flatnonzero(predicted)})}\n")

# IG values are [tokens x embedding dims]; sum dims, L2-normalize the
# token vector, then take each word's max over its subword pieces.
(target,) = sorted(gold)[:1]
class_index = corpus.label_space.index(target)
values, tokens, _ = pair_attributions(params, pieces, corpus, rows, pooled,
                                      np.array([class_index]), steps=50)
per_token = values.sum(axis=1)
normalized = per_token / np.linalg.norm(per_token)
best = {}
for word_id, score in zip(corpus.word_ids[tokens].tolist(),
                          normalized.tolist()):
    word = corpus.words[word_id]
    best[word] = max(score, best.get(word, score))
print(f"top words for class {target!r}:")
for word, score in sorted(best.items(), key=lambda ws: (-ws[1], ws[0]))[:8]:
    marker = " <-- planted marker" if word in markers[target] else ""
    print(f"  {word:12s} {score:+.4f}{marker}")

# completeness: residual shrinks roughly like 1/m^2 with the midpoint rule
f_x = logits(params, pooled[0])[0][class_index]
f_0 = logits(params, np.zeros_like(pooled[0]))[0][class_index]
print(f"\nF(x) - F(baseline) = {f_x - f_0:+.6f}")
for m in (10, 40, 160, 640):
    values_m, _, _ = pair_attributions(params, pieces, corpus, rows, pooled,
                                       np.array([class_index]), steps=m)
    print(f"  m={m:4d}  completeness residual = "
          f"{abs(values_m.sum() - (f_x - f_0)):.2e}")
