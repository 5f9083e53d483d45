"""Ontology-guided extractive summarization of disaster tweets."""

__version__ = "0.1.0"

from .corpus import (
    DisasterDataset,
    PosLexicon,
    Tweet,
    extract_keywords,
    load_tweets,
    preprocess_text,
)
from .ontology import Category, Ontology, load_ontology
from .embeddings import EmbeddingTable, load_word2vec_text
from .categorizer import classify, classify_corpus
from .disaster_sim import build_profile, cat_ic, cat_p, dis_sim, most_similar
from .importance import (
    ImportanceVector,
    build_training_pairs,
    fit,
    predict_importance,
)
from .selector import dmmr_select, sim1, sim2, summarize
from .rouge import rouge_l, rouge_n, score_summary
from .pipeline import PipelineConfig, load_config, run_pipeline

__all__ = [
    "DisasterDataset", "PosLexicon", "Tweet", "extract_keywords",
    "load_tweets", "preprocess_text",
    "Category", "Ontology", "load_ontology",
    "EmbeddingTable", "load_word2vec_text",
    "classify", "classify_corpus",
    "build_profile", "cat_ic", "cat_p", "dis_sim", "most_similar",
    "ImportanceVector", "build_training_pairs", "fit", "predict_importance",
    "dmmr_select", "sim1", "sim2", "summarize",
    "rouge_l", "rouge_n", "score_summary",
    "PipelineConfig", "load_config", "run_pipeline",
]
