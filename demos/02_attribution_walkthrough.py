"""Walkthrough: integrated gradients on a single document.

Trains a small classifier, attributes one validation document against
its gold class, and walks the reduction chain from per-(token, dim)
IG values to per-word scores.  Also demonstrates the completeness
axiom: the attributions sum to F(x) - F(baseline), to rounding, because
the path integral is taken exactly rather than by a step rule.

Documents are rows of the corpus, so one document is a one-row array;
``pair_weights`` is the same IG that scores keywords in a run.
"""

import numpy as np

from igkeywords.attribution import pair_weights
from igkeywords.corpus import (CONTINUATION, SynthConfig, generate_synthetic,
                               stratified_split)
from igkeywords.model import (TrainConfig, build_vocab, init_model, logits,
                              piece_rows, pool_documents, predict_pooled,
                              train)

synth = SynthConfig(num_classes=3, docs_per_class=80,
                    background_vocab_size=600, markers_per_class=2,
                    doc_length=(12, 25))
corpus, markers = generate_synthetic(synth, seed=7)
# The split (train ratio 0.67, seed 0) gives rows: indices of the documents
# of each half.
train_rows, val_rows = stratified_split(corpus, 0.67, 0)

# The model's initial weights and each epoch's shuffle are drawn from seed 3.
cfg = TrainConfig(epochs=25, d=12, h=16)
params = train(init_model(build_vocab(corpus, train_rows), 3, cfg, seed=3),
               corpus, train_rows, cfg, seed=3)

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

# IG gives token t the [d] values embedding[t] * w, where w is the mean
# gradient along the path from the zero baseline over the token count.
# Sum dims, L2-normalize the token vector, then take each word's max over
# its subword pieces.
(target,) = sorted(gold)[:1]
class_index = classes.index(target)
(w,) = pair_weights(params, corpus, rows, pooled, np.array([class_index]))
tokens = positions
values = params.embedding[pieces[tokens]] * w   # [tokens, d]
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

# completeness: the attributions sum to F(x) - F(baseline)
f_x = logits(params, pooled[0])[0][class_index]
f_0 = logits(params, np.zeros_like(pooled[0]))[0][class_index]
print(f"\nF(x) - F(baseline)  = {f_x - f_0:+.15f}")
print(f"sum of attributions = {values.sum():+.15f}")
print(f"completeness residual = {abs(values.sum() - (f_x - f_0)):.2e}")
