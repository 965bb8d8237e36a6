"""End-to-end corpus curation: the flagship training-data pipeline.

Composes the curation operators into the standard document-processing
chain a 100-TB pretraining pass runs:

    analyze (tokens/quality/repetition, one fused text pass)
    -> rule filters (quality floor, repetition ceiling)
    -> benchmark decontamination (broadcast eval shingle set)
    -> deterministic hash sampling (resumable, layout-independent)
    -> exact content dedup (one task exchange on the content md5,
       min-key survivor, run on block refs)
    -> optional MinHash near-dedup on the same refs
       (stages/components.near_dedup_refs)
    -> write partitioned Parquet (one directory per stratum — a
       consumption layout, not a resume unit; the checkpointed,
       kill-and-resume variant of this chain is
       pipelines/curate_resumable.curate_resumable, which shares these
       kernels per input shard with per-shard lineage)
    -> optional sequence packing (stages/scan.pack_shards) over the
       survivors' narrow (group, order, weight) projection.

Scale notes: the only corpus-wide shuffle is the dedup exchange,
hash-partitioned on the content md5 itself, so it spreads over any
exchange width (never one Ray group per distinct md5 — see BASELINE.md's
dedup ledger); every filter is fused into one ``map_batches`` pass over
the text so bytes are read once.  The exchange and the near-dedup tail
hand block refs on (``util.exchange_refs``): the read chain runs as one
Ray Data execution, and the caller's consumption of ``survivors`` is
the second.

ExactSubstr span cutting (``substring_k``, stages/substring_dedup.py)
opts in ahead of the whole chain so every downstream stat sees
boilerplate-free text.  Near-dedup (``near_dedup_threshold``)
composes with BOTH chains: here
it runs inline after the exact pass; in ``curate_resumable`` it rides
phase 2's recompute-on-resume model — pairs, clustering and the
min-key survivor rule are deterministic functions of the committed
phase-1 partials, so the pairs are never checkpointed (the same
rationale as not checkpointing the dedup shuffle), and a resumed run
reproduces the identical drop set.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from tilecloud_chain_ray.stages.curation import (
    decontaminate,
    hash_sample,
    repetition_fraction_batch,
)
from tilecloud_chain_ray.stages.dedup import add_md5
from tilecloud_chain_ray.stages.text import quality_score_batch, token_count_batch
from tilecloud_chain_ray.util import block_refs, exchange_refs, read_parquet_clean


# Dedup-bucket count.  The bucket id is COMMITTED in curate_resumable's
# partials, so it is a constant, never cluster-sized.  No exchange
# partitions on it any more (256 values cap an exchange at 256 non-empty
# partitions); it stays in the partials so existing job directories
# still resume.
DEDUP_BUCKETS = 256


@dataclasses.dataclass
class CurateResult:
    survivors: ray.data.Dataset  # (key, group, n_tokens, quality, text)
    shards: ray.data.Dataset | None  # (key, group, n_tokens, shard)
    out_dir: str | None


def make_analyze_filter(
    key_col: str, text_col: str, group_col: str, quality_min: float, rep_max: float | None
):
    """The fused analyze+filter batch kernel (tokens/quality[/repetition]
    in one text pass).  Module-level so the streaming pipeline and the
    checkpointed per-shard path (curate_resumable) share one kernel."""

    def analyze_and_filter(batch: pa.Table) -> pa.Table:
        batch = quality_score_batch(token_count_batch(batch, text_col), text_col)
        keep = batch["quality"].to_numpy(zero_copy_only=False) >= quality_min
        if rep_max is not None:
            batch = repetition_fraction_batch(batch, text_col)
            keep &= batch["rep_frac"].to_numpy(zero_copy_only=False) <= rep_max
        batch = batch.select([key_col, group_col, "n_tokens", "quality", text_col])
        return batch.filter(pa.array(keep))

    return analyze_and_filter


def make_md5_bucket(text_col: str):
    """Batch kernel appending ``content_md5`` (hex, as
    ``stages.dedup.add_md5``) and ``_bucket`` (the digest's first 8
    bytes mod ``DEDUP_BUCKETS``) — one md5 pass emits both.
    curate_resumable's per-shard commit tags with it, so its partials
    keep the ``_bucket`` column that older job directories hold;
    nothing reads the column."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        digests = [hashlib.md5(t.encode("utf-8")).digest() for t in texts]
        hexes = [d.hex() for d in digests]
        if digests:
            raw = np.frombuffer(b"".join(digests), dtype=np.uint64)[::2]
            bucket = (raw % np.uint64(DEDUP_BUCKETS)).astype(np.int64)
        else:
            bucket = np.empty(0, dtype=np.int64)
        out = batch.append_column("content_md5", pa.array(hexes, pa.string()))
        return out.append_column("_bucket", pa.array(bucket, pa.int64()))

    return add_bucket


def make_dedup_partition(key_col: str):
    """Exact-dedup kernel for the task exchange: min-key survivor per
    content md5 over one hash partition (deterministic no matter the
    block layout).  md5 groups never straddle partitions (the partition
    key IS the md5), so keeping the first row of each md5 run after an
    (md5, key) sort is exact no matter how many md5s co-locate in a
    partition."""

    def dedup_partition(batch: pa.Table) -> pa.Table:
        tags = [c for c in ("content_md5", "_bucket") if c in batch.column_names]
        if batch.num_rows == 0:
            return batch.drop_columns(tags)  # tolerate the schema-less probe
        batch = batch.sort_by([("content_md5", "ascending"), (key_col, "ascending")])
        md5 = batch["content_md5"].combine_chunks()
        first = pa.concat_arrays([pa.array([True]), pc.not_equal(md5[1:], md5[:-1])])
        return batch.filter(first).drop_columns(tags)

    return dedup_partition


def exact_dedup_refs(tagged: ray.data.Dataset, key_col: str) -> tuple[list, list[int]]:
    """Exact content dedup of md5-tagged rows (``content_md5``)
    as ``(refs, rows)`` of the survivor blocks: ``tagged`` materializes
    once and one task exchange hash-partitioned on ``content_md5`` keeps
    the min key per md5 (:func:`make_dedup_partition`).  Shared by
    curate_corpus and curate_resumable's phase 2."""
    refs, _, nbytes = block_refs(tagged.materialize())
    return exchange_refs(refs, ["content_md5"], make_dedup_partition(key_col), nbytes)


def curate_corpus(
    ds: ray.data.Dataset,
    out_dir: str | None = None,
    key_col: str = "doc_id",
    text_col: str = "text",
    group_col: str = "lang",
    quality_min: float = 0.5,
    rep_max: float | None = None,
    bench_shingles: frozenset[str] | None = None,
    sample_rates: dict[str, float] | float | None = None,
    shard_budget: int | None = None,
    shard_bucket_size: int = 1 << 20,
    near_dedup_threshold: float | None = None,
    lm_max_ppl: float | None = None,
    lm_sample_max_docs: int = 50_000,
    substring_k: int | None = None,
    substring_winnow: int | None = 4,
    embeddings: ray.data.Dataset | None = None,
    semantic_threshold: float = 0.95,
    semantic_clusters: int = 16,
    embedding_key_col: str = "vec_id",
    embedding_vec_col: str = "embedding",
    bpe_merges: int | None = None,
    bpe_sample_max_docs: int = 50_000,
    bpe_distributed: bool = False,
) -> CurateResult:
    """Run the curation chain; see module docstring.

    Returns the surviving rows (and, when ``shard_budget`` is set, the
    packed shard assignment table).  With ``out_dir`` the survivors are
    written as Parquet partitioned by ``group_col``.

    ``near_dedup_threshold`` (opt-in) additionally drops NEAR
    duplicates after the exact pass: MinHash+LSH pairs at the given
    Jaccard threshold -> connected components -> keep the min key per
    cluster (stages/components.py).  Off by default because it adds a
    pair-expansion pass over the survivors.

    ``lm_max_ppl`` (opt-in) adds the CCNet-style perplexity cut: a
    byte-trigram LM trains on a hash sample of ``lm_sample_max_docs``
    rows (every row when there are no more) of the RULE-FILTERED stream
    (the trusted slice) and rows above the perplexity ceiling are
    dropped before dedup (stages/lm.py).

    ``substring_k`` (opt-in) runs the Lee-et-al ExactSubstr pass FIRST
    — duplicated word runs (every ``substring_k``-gram occurring
    twice+ across 2+ docs; ``substring_winnow`` anchors at scale) are
    cut from the RAW text before analysis, so token counts, quality
    scores and the content dedup all see boilerplate-free documents
    (stages/substring_dedup.py).

    ``bpe_merges`` (opt-in) weights the shard packing by a LEARNED-BPE
    token count (stages/bpe.py: sample-trained merge table, broadcast,
    distributed encode) instead of whitespace tokens; the written
    corpus schema is unchanged.

    ``embeddings`` (opt-in) adds SemDeDup after the exact pass: the
    embedding table's verdicts (stages/semdedup.py, keyed by
    ``embedding_key_col`` = this chain's ``key_col`` values) mark
    semantic duplicates, and the survivors anti-join the drop set
    through the Bloom anti-join (stages/bloom.py), whose exact residue
    check runs on the driver only while it fits ``util.fits_driver``.
    """

    if substring_k is not None:
        from tilecloud_chain_ray.stages.substring_dedup import (
            cut_duplicate_spans,
            dedup_substring_spans,
        )

        ds = ds.materialize()  # span detection + the cut share one input pass
        spans = dedup_substring_spans(
            ds, key_col=key_col, text_col=text_col, k=substring_k, winnow=substring_winnow
        )
        ds = cut_duplicate_spans(ds, spans, key_col=key_col, text_col=text_col)

    filtered = ds.map_batches(
        make_analyze_filter(key_col, text_col, group_col, quality_min, rep_max),
        batch_format="pyarrow",
    )

    if bench_shingles is not None:
        flagged = decontaminate(filtered, bench_shingles, key_col, text_col)
        filtered = flagged.map_batches(
            lambda b: b.drop_columns(["contaminated"]).filter(
                pa.compute.invert(b["contaminated"])
            ),
            batch_format="pyarrow",
        )

    if sample_rates is not None:
        filtered = hash_sample(filtered, sample_rates, key_col=key_col, strat_col=group_col)

    if lm_max_ppl is not None:
        from tilecloud_chain_ray.stages.lm import perplexity_filter, train_char_lm

        filtered = filtered.materialize()  # train + score share one pass
        model = train_char_lm(filtered, text_col=text_col, sample_max_docs=lm_sample_max_docs)
        filtered = perplexity_filter(
            filtered, model, max_ppl=lm_max_ppl, text_col=text_col
        ).map_batches(
            # keep the survivor schema identical with or without the cut
            # (empty blocks pass through unscored — drop only present cols)
            lambda b: b.drop_columns(
                [c for c in ("lm_logprob", "lm_ppl") if c in b.schema.names]
            ),
            batch_format="pyarrow",
        )

    # exact content dedup: one task exchange of the surviving rows on
    # their content md5; survivor per md5 = min key (deterministic,
    # layout-free).  Its output stays block refs, which the near-dedup
    # tail starts from with no Dataset in between.
    refs, rows = exact_dedup_refs(
        filtered.map_batches(add_md5, fn_kwargs={"text_col": text_col}, batch_format="pyarrow"),
        key_col,
    )

    if embeddings is not None:
        from tilecloud_chain_ray.stages.bloom import bloom_anti_join
        from tilecloud_chain_ray.stages.semdedup import semdedup_verdicts

        verdicts = semdedup_verdicts(
            embeddings,
            key_col=embedding_key_col,
            vec_col=embedding_vec_col,
            threshold=semantic_threshold,
            n_clusters=semantic_clusters,
        )
        drops = verdicts.map_batches(
            lambda b: b.filter(pa.compute.invert(b["keep"])).select([embedding_key_col]),
            batch_format="pyarrow",
        )
        survivors = bloom_anti_join(
            ray.data.from_arrow_refs(refs), drops, on=key_col, right_key_col=embedding_key_col
        )
        refs, rows, _ = block_refs(survivors.materialize())

    if near_dedup_threshold is not None:
        from tilecloud_chain_ray.stages.components import near_dedup_refs

        survivors = near_dedup_refs(refs, sum(rows), key_col, text_col, near_dedup_threshold)
    else:
        survivors = ray.data.from_arrow_refs(refs)

    if out_dir is not None:
        survivors.write_parquet(out_dir, partition_cols=[group_col])
        # read the committed partitions back so downstream stages (and
        # the shard packer) don't re-run the whole chain
        survivors = read_parquet_clean(out_dir)
    elif shard_budget is not None:
        # no write target: pin the survivor blocks once so the shard
        # packer and the caller's consumption don't each re-execute the
        # full chain (incl. the dedup shuffle)
        survivors = survivors.materialize()

    shards = None
    if shard_budget is not None:
        from tilecloud_chain_ray.stages.scan import pack_shards

        pack_input, weight_col = survivors, "n_tokens"
        if bpe_merges is not None:
            # token-exact packing: weight shards by LEARNED-BPE counts
            # (stages/bpe.py — sample-trained, broadcast, distributed
            # encode).  The count column feeds only the packer; the
            # written corpus schema stays identical with or without it.
            from tilecloud_chain_ray.stages.bpe import (
                bpe_encode_counts,
                train_bpe,
                train_bpe_distributed,
            )

            if bpe_distributed:
                # exact corpus-wide merge table (no sample cap): one
                # word-frequency groupby + a bounded-key pair groupby
                # per merge round — see stages/bpe.py + BASELINE.md
                tok = train_bpe_distributed(
                    survivors, num_merges=bpe_merges, text_col=text_col
                )
            else:
                tok = train_bpe(
                    survivors,
                    num_merges=bpe_merges,
                    text_col=text_col,
                    sample_max_docs=bpe_sample_max_docs,
                )
            pack_input = bpe_encode_counts(survivors, tok, text_col=text_col)
            weight_col = "n_bpe_learned"
        shards = pack_shards(
            pack_input,
            group_col,
            key_col,
            weight_col,
            budget=shard_budget,
            bucket_size=shard_bucket_size,
            pin_input=False,  # survivors are already a parquet read or materialized
        )
    return CurateResult(survivors=survivors, shards=shards, out_dir=out_dir)
