"""Snapshot of the driver contract in __ray_entry__.py: the 50 driver query
names in their order, the 77 extra names, and which of them carry oracle
SQL. The driver scores exactly the first 50 queries() entries, so a rename,
a reorder or a lost oracle is a contract change, not a refactor."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

DRIVER = [
    "extract_spans", "extract_plain_text", "extract_paginated_text", "extract_tables",
    "extract_dictionary", "text_stats", "gopher_quality", "pii_scrub", "normalize_text",
    "winnow_fingerprints", "top_ngrams", "ranked_retrieval", "decontaminate",
    "domain_counts", "sketch_counts", "quantiles", "graph_pagerank", "pca_top_component",
    "dedup_exact_prefix", "incremental_family", "dedup_minhash", "dedup_simhash",
    "ngram_jaccard", "embedding_dup_pairs", "dedup_clusters", "dedup_keepbest",
    "semantic_dedup", "streaming_dedup", "kmeans_clusters", "cluster_balanced",
    "similarity_topk_many", "similarity_ivf_recall", "similarity_pq", "pricing_rollup",
    "events_hourly", "events_props_summary", "events_sessions", "events_topk_per_type",
    "join_orders_customer", "join_lineitem_orders", "events_asof", "events_range_join",
    "events_semi_anti", "hash_sampling", "weighted_sample", "shuffle_rank",
    "pack_sequences", "clean_extracted", "training_mixture", "media_pipeline",
]

EXTRAS = {
    "extract_spans_exploded", "extract_spans_skew_aware", "token_count", "quality_score",
    "lang_id", "fingerprint", "bpe_token_count", "tfidf_topk", "bm25_topk",
    "approx_distinct_events", "cms_heavy_users", "length_percentiles",
    "length_percentiles_by_lang", "sample_quantiles", "dedup_exact", "dedup_prefix",
    "substring_dedup", "incremental_dedup", "incremental_minhash", "incremental_embedding",
    "incremental_cc", "paragraph_dedup", "main_content", "embedding_pairs",
    "dedup_embedding", "similarity_topk", "similarity_ivf", "similarity_ivf_exact",
    "similarity_pq_recall", "similarity_sq8", "similarity_sq8_recall", "pricing_summary",
    "distinct_event_types", "filter_project", "top_users", "events_semi_join",
    "events_anti_join", "clean_corpus", "sample_10pct", "train_val_split",
    "temperature_sample", "stratified_sample", "domain_cap", "media_features",
    "url_canonicalize", "url_dedup", "line_dedup", "quality_classifier", "events_sliding",
    "zscore_chars", "pricing_cube", "ngram_repetition", "bloom_semi_events",
    "lm_perplexity", "salted_join", "sort_rank", "chunk_documents", "left_outer_join",
    "pmi_collocations", "grouped_hll", "funnel_conversion", "extract_matches",
    "media_resize", "retention_cohorts", "upsert_latest", "streaming_window",
    "describe_table", "pivot_hourly", "bpe_train", "audio_features", "video_frame_stats",
    "top_orders_q3", "user_journeys", "histogram_buckets", "exact_corr",
    "events_window_funcs", "interp_percentiles",
}


def test_driver_queries_names_and_order():
    import __ray_entry__ as entry

    assert len(DRIVER) == 50
    assert list(entry.queries()) == DRIVER


def test_extra_queries_names():
    import __ray_entry__ as entry

    assert len(EXTRAS) == 77
    assert set(entry.extra_queries()) == EXTRAS
    assert not set(entry.queries()) & set(entry.extra_queries())


def test_every_driver_query_has_an_oracle():
    import __ray_entry__ as entry

    assert set(entry.oracle_sql()) == set(entry.queries())


def test_extras_oracles_all_but_rows_only_ivf():
    import __ray_entry__ as entry

    assert set(entry.extra_oracle_sql()) == set(entry.extra_queries()) - {"similarity_ivf"}
