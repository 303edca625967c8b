"""Composed training-mixture pipeline — the full LM data-prep flow:

    documents → quality/lang gates (vectorized, no shuffle)
              → exact dedup (hash groupby keeps min doc_id)
              → temperature source rebalancing (count^alpha per language;
                one tiny grouped count + a deterministic hash gate)
              → sequence packing (distributed prefix-sum placement)

Every stage is an already-gate-verified operator composed into one lazy
Dataset graph: the only all-to-all exchanges are the dedup hash groupby
(over (hash, id, lang, stats) survivors — never text) and packing's P-key
range shuffle of 16-byte count pairs. Thresholds are explicit arguments
mirrored exactly by the single CTE-chain DuckDB oracle in __ray_entry__.py
— the composition, not just the pieces, is value-checked.
"""

from __future__ import annotations

import functools

import ray.data

from pdftext_ray.pipelines.clean import quality_gate_batch


def training_mixture(
    ds: ray.data.Dataset,
    budget: int = 512,
    alpha: float = 0.5,
    min_tokens: int = 20,
    min_alpha_ratio: float = 0.5,
    min_stop_ratio: float = 0.02,
    lang_col: str = "lang",
    id_col: str = "doc_id",
    text_col: str = "text",
    seed: int = 17,
) -> ray.data.Dataset:
    """Clean → dedup → rebalance → pack, returning each surviving doc's
    packed position: (doc_id, lang, n_tokens, start_offset, seq_id,
    seq_pos, n_seqs), deterministic and layout-independent end to end.
    """
    gated = ds.map_batches(
        functools.partial(
            quality_gate_batch,
            min_tokens=min_tokens,
            min_alpha_ratio=min_alpha_ratio,
            min_stop_ratio=min_stop_ratio,
            id_col=id_col,
            text_col=text_col,
            keep_cols=(lang_col,),
        ),
        batch_format="pyarrow",
    )
    return mixture_from_gated(
        gated, budget=budget, alpha=alpha,
        lang_col=lang_col, id_col=id_col, seed=seed,
    )


def mixture_from_gated(
    gated: ray.data.Dataset,
    budget: int = 512,
    alpha: float = 0.5,
    lang_col: str = "lang",
    id_col: str = "doc_id",
    seed: int = 17,
) -> ray.data.Dataset:
    """Dedup → rebalance → pack over an already-gated survivors table
    (columns: id, lang, n_tokens, text_hash). Split out so the resumable
    runner (pipelines.checkpoint.run_mixture_checkpointed) can feed
    checkpointed phase-1 output into the identical global phase."""
    from pdftext_ray.ops.exchange import by_key
    from pdftext_ray.ops.pack import pack_from_counts
    from pdftext_ray.ops.sampling import temperature_sample

    # ARG-min dedup: keep the min-id row WHOLE per content hash, so the
    # survivor carries its OWN lang (a column-wise min(lang) could borrow a
    # duplicate's label and skew the rebalance). text_hash cardinality ≈
    # corpus size, so this is a few-partition hash shuffle + vectorized
    # keep-first per partition (CLAUDE.md rule 9), not a per-key aggregate.
    def keep_first(g):
        first = (
            g.sort_values(id_col, kind="mergesort")
            .drop_duplicates("text_hash", keep="first")
        )
        return first[[id_col, lang_col, "n_tokens"]].reset_index(drop=True)

    survivors = by_key(
        (gated.select_columns([id_col, lang_col, "n_tokens", "text_hash"]), "text_hash"), keep_first)
    sampled = temperature_sample(
        survivors, group_col=lang_col, key_col=id_col, alpha=alpha, seed=seed
    )
    return pack_from_counts(
        sampled.select_columns([id_col, "n_tokens", lang_col]),
        budget=budget,
        extra_cols=(lang_col,),
    )
