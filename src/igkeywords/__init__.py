"""Class-level keyword extraction via repeated integrated-gradients runs."""

from .corpus import (Corpus, Document, LabelSpace, SplitSpec, SynthConfig,
                     build_corpus, generate_synthetic, load_corpus,
                     save_corpus, stratified_split)
from .model import ModelParams, TrainConfig, forward, init_model, predict, train
from .attribution import (AttributionMatrix, WordScoreRecord,
                          completeness_residual, integrated_gradients,
                          normalize_document, token_scores, word_scores)
from .pipeline import (AggregateRecord, Aggregates, PipelineConfig,
                       PipelineResult, RoundResult, Selections, aggregate,
                       filter_keywords, run_pipeline, run_round)
from .report import (F1Summary, KeywordTable, UniquenessStat,
                     build_keyword_table, f1_summary, marker_recovery,
                     render_keyword_table, uniqueness)

__version__ = "0.1.0"
