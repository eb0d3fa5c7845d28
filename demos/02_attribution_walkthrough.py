"""Walkthrough: integrated gradients on a single document.

Trains a small classifier, attributes one validation document against
its gold class, and walks the reduction chain from per-(token, dim)
IG values to per-word scores.  Also demonstrates the completeness
check: attributions sum to F(x) - F(baseline) as the step count grows.
"""

import numpy as np

from igkeywords.attribution import (completeness_residual,
                                    integrated_gradients, logit_value,
                                    normalize_document, token_scores,
                                    word_scores)
from igkeywords.corpus import SplitSpec, SynthConfig, generate_synthetic, \
    stratified_split
from igkeywords.model import TrainConfig, build_vocab, init_model, \
    predict, token_ids, train

synth = SynthConfig(num_classes=3, docs_per_class=80,
                    background_vocab_size=600, markers_per_class=2,
                    doc_length=(12, 25))
corpus, markers = generate_synthetic(synth, seed=7)
# The split gives rows: indices of the documents of each half.
train_rows, val_rows = stratified_split(corpus, SplitSpec(ratio=0.67, seed=0))

cfg = TrainConfig(epochs=25, d=12, h=16, seed=3)
params = train(init_model(build_vocab(corpus, train_rows), 3, cfg), corpus,
               train_rows, cfg)

# One document as words and the (piece, word index) pairs aligned to them.
doc = corpus.document(val_rows[0])
(gold,) = sorted(doc.labels)[:1]
class_index = corpus.label_space.index(gold)
print(f"document {doc.id}: {len(doc.words)} words, gold labels {set(doc.labels)}")
print(f"predicted: "
      f"{predict(params, doc, corpus.label_space, cfg.decision_threshold)}\n")

# IG values are [tokens x embedding dims]; sum dims, L2-normalize the
# token vector, then take each word's max over its subword pieces.
attr = integrated_gradients(params, doc, class_index, steps=50)
per_token = token_scores(attr)
normalized = normalize_document(per_token)
records = word_scores(normalized, doc, gold)
print(f"top words for class {gold!r}:")
for rec in sorted(records, key=lambda r: -r.score)[:8]:
    marker = " <-- planted marker" if rec.word in markers[gold] else ""
    print(f"  {rec.word:12s} {rec.score:+.4f}{marker}")

# completeness: residual shrinks roughly like 1/m^2 with the midpoint rule
inputs = params.embedding[token_ids(params, doc)]
f_x = logit_value(params, inputs, class_index)
f_0 = logit_value(params, np.zeros_like(inputs), class_index)
print(f"\nF(x) - F(baseline) = {f_x - f_0:+.6f}")
for m in (10, 40, 160, 640):
    attr_m = integrated_gradients(params, doc, class_index, steps=m)
    print(f"  m={m:4d}  completeness residual = "
          f"{completeness_residual(attr_m, f_x, f_0):.2e}")
