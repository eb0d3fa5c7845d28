"""Walkthrough: extract class keywords from a synthetic corpus.

Generates a corpus with planted class markers, runs the repeated
train/attribute/select pipeline, and shows that the filtered keyword
table recovers the markers with high selection frequency.
"""

from igkeywords.corpus import SynthConfig, generate_synthetic
from igkeywords.model import TrainConfig
from igkeywords.pipeline import PipelineConfig, run_pipeline
from igkeywords.report import (build_keyword_table, f1_summary,
                               marker_recovery, render_f1_summary,
                               render_keyword_table, uniqueness)

# A corpus of 4 classes x 200 documents. Each class has 3 marker words
# injected into 80% of its documents; everything else is Zipfian noise.
synth = SynthConfig(num_classes=4, docs_per_class=200,
                    background_vocab_size=2000, markers_per_class=3,
                    marker_injection_prob=0.8, doc_length=(30, 60),
                    multilabel_prob=0.1)
corpus, markers = generate_synthetic(synth, seed=1)
print(f"corpus: {len(corpus)} documents, "
      f"classes {corpus.label_space.classes}")
print(f"planted markers: { {c: sorted(ws) for c, ws in markers.items()} }\n")

# 10 rounds of: stratified 67/33 split -> train from scratch -> IG on
# true-positive validation predictions -> keep top-20 words per document.
config = PipelineConfig(ratio=0.67, top_n=20, rounds=10, sf_threshold=0.6,
                        min_doc_frequency=5, master_seed=42,
                        train_config=TrainConfig(epochs=20, d=16, h=32))
result = run_pipeline(corpus, config)

print(render_f1_summary(f1_summary(result.rounds)))

table = build_keyword_table(result.keywords, corpus.label_space.classes,
                            top_m=8)
print("top keywords per class (word / mean score / SF%):")
print(render_keyword_table(table, "tsv"))

print("marker recovery:", marker_recovery(result.keywords, markers))
print("top-8 uniqueness:", uniqueness(table)["per_class"])
