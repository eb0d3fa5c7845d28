"""Class-level keyword extraction via repeated integrated-gradients runs."""

from .corpus import (Corpus, LabelSpace, SynthConfig, build_corpus,
                     generate_synthetic, load_corpus, save_corpus,
                     stratified_split)
from .model import (ModelParams, TrainConfig, init_model, logits, piece_rows,
                    pool_documents, predict_pooled, train)
from .attribution import pair_weights, token_scores, top_word_scores
from .pipeline import (AggregateFold, Aggregates, PipelineConfig,
                       PipelineResult, RoundResult, Selections,
                       filter_keywords, run_pipeline, run_round)
from .report import (build_keyword_table, f1_summary, marker_recovery,
                     render_keyword_table, uniqueness)

__version__ = "0.1.0"
