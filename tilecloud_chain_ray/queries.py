"""Driver-contract query implementations (SURVEY.md §2 coverage).

Each function takes ``sf_dir`` and returns a Dataset / pyarrow Table.
Constants and arithmetic are chosen so the matching DuckDB oracle SQL
(``__ray_entry__.oracle_sql``) reproduces results exactly:

* geocoding uses integer micro coords (``functions.hashing``),
* tile/cell assignment is integer multiply-shift (no float floors),
* aggregates avoid order-dependent float sums (counts, integer sums,
  min/max only); float outputs appear only where a single expression
  is evaluated identically on both sides.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count, Max, Min, Sum

from tilecloud_chain_ray.functions.hashing import micro_from_ids, micro_tile
from tilecloud_chain_ray.geom import box
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.stages.geocode import make_geocoder
from tilecloud_chain_ray.stages.pip_join import pip_join_tasks
from tilecloud_chain_ray.stages import dedup as dedup_mod
from tilecloud_chain_ray.stages import knn as knn_mod
from tilecloud_chain_ray.stages.text import (
    lang_id_batch,
    quality_score_batch,
    token_count_batch,
)
from tilecloud_chain_ray.util import read_parquet_clean
BBOX = SWISSGRID_5.bbox  # (420000, 30000, 900000, 350000)
MID_X = 660000.0  # = bbox x at ux = 2^31 (exact)
NORTH_Y = 190000.0  # = bbox y at uy = 2^31 (exact)

# zoom -> swissgrid_5 matrix dims (w, h); ceil(480000/span), ceil(320000/span)
ZOOM_DIMS = {z: SWISSGRID_5.matrix_dims(z) for z in range(5)}

# PIP layers in priority order (first match wins in 'left' mode); the
# same order drives the oracle's CASE chain.
PIP_LAYERS = [
    ("north", box(BBOX[0], NORTH_Y, BBOX[2], BBOX[3])),
    ("west", box(BBOX[0], BBOX[1], MID_X, BBOX[3])),
    ("east", box(MID_X, BBOX[1], BBOX[2], BBOX[3])),
]


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    return read_parquet_clean(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _docs_micro(batch: pa.Table) -> pa.Table:
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ux, uy = micro_from_ids(ids)
    out = batch.append_column("ux", pa.array(ux.astype(np.int64), pa.int64()))
    return out.append_column("uy", pa.array(uy.astype(np.int64), pa.int64()))


# ---------------------------------------------------------------------------
# geocode / tiles / cells
# ---------------------------------------------------------------------------


def q_tile_assign_z3(sf_dir: str) -> ray.data.Dataset:
    """Per-document tile assignment at zoom 3 (S1/M12 composition)."""
    w, h = ZOOM_DIMS[3]

    def assign(batch: pa.Table) -> pa.Table:
        batch = _docs_micro(batch)
        ux = batch["ux"].to_numpy(zero_copy_only=False).astype(np.uint64)
        uy = batch["uy"].to_numpy(zero_copy_only=False).astype(np.uint64)
        tx, ty = micro_tile(ux, uy, w, h)
        out = batch.select(["doc_id"])
        out = out.append_column("tx", pa.array(tx, pa.int64()))
        return out.append_column("ty", pa.array(ty, pa.int64()))

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(assign, batch_format="pyarrow")


def q_tile_counts_per_zoom(sf_dir: str) -> pa.Table:
    """Distinct-tile and doc counts per zoom 0..4 (G2 analog)."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    def assign_all(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ux, uy = micro_from_ids(ids)
        zs, txs, tys = [], [], []
        for z, (w, h) in ZOOM_DIMS.items():
            tx, ty = micro_tile(ux, uy, w, h)
            zs.append(np.full(len(ids), z, dtype=np.int64))
            txs.append(tx)
            tys.append(ty)
        return pa.Table.from_pydict(
            {
                "z": pa.array(np.concatenate(zs), pa.int64()),
                "tx": pa.array(np.concatenate(txs), pa.int64()),
                "ty": pa.array(np.concatenate(tys), pa.int64()),
            }
        )

    assigned = docs.map_batches(assign_all, batch_format="pyarrow")

    def per_zoom_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby(["z", "tx", "ty"]).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    from tilecloud_chain_ray.util import hash_group_blocks

    def sum_tiles(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["z", "tx", "ty"]).aggregate([("n", "sum")])
        return t.rename_columns(["z", "tx", "ty", "n"])

    tile_counts = hash_group_blocks(
        assigned.map_batches(per_zoom_partial, batch_format="pyarrow"),
        ["z", "tx", "ty"],
        sum_tiles,
    )

    # second aggregation stays a pure vectorized aggregate: a z-14 zoom
    # has ~10^8 distinct tiles — never materialize one zoom as a group.
    # Combiner per block, then a 15-key exchange.
    def zoom_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "z": batch["z"],
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64), pa.int64()),
                "docs": batch["n"],
            }
        )
        g = t.group_by(["z"]).aggregate([("one", "sum"), ("docs", "sum")])
        return g.rename_columns(["z", "n_tiles", "n_docs"])

    def sum_zoom(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["z"]).aggregate([("n_tiles", "sum"), ("n_docs", "sum")])
        return g.rename_columns(["z", "n_tiles", "n_docs"])

    return hash_group_blocks(
        tile_counts.map_batches(zoom_partial, batch_format="pyarrow"), ["z"], sum_zoom
    )


def q_tile_counts_z14(sf_dir: str) -> ray.data.Dataset:
    """Occupied-tile counts for the FULL zoom 0-14 webmerc pyramid
    (north rule's zoom range): tile at zoom z = top bits of the micro
    coords — 15 zooms of assignment in one vectorized pass, combiner
    per batch, one aggregate.  SQL-exact via integer division."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    from tilecloud_chain_ray.stages.distinct import grouped_distinct_counts

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ux, uy = micro_from_ids(ids)
        zs, keys = [], []
        for z in range(15):
            shift = np.uint64(32 - z)
            tx = (ux >> shift).astype(np.int64)
            ty = (uy >> shift).astype(np.int64)
            zs.append(np.full(len(ids), z, dtype=np.int64))
            keys.append((tx << np.int64(32)) | ty)
        return pa.Table.from_pydict(
            {
                "z": pa.array(np.concatenate(zs), pa.int64()),
                "tkey": pa.array(np.concatenate(keys), pa.int64()),
            }
        )

    assigned = docs.map_batches(assign, batch_format="pyarrow")
    return grouped_distinct_counts(
        assigned, "z", "tkey", count_col="n_tiles", rows_col="n_docs"
    )


def q_cell_counts_r8(sf_dir: str) -> ray.data.Dataset:
    """Per-cell doc counts at resolution 8 (the pre-aggregated cell
    rollup; G1/cell_agg)."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ux, uy = micro_from_ids(ids)
        cx = (ux >> np.uint64(24)).astype(np.int64)
        cy = (uy >> np.uint64(24)).astype(np.int64)
        df = pd.DataFrame({"cell_x": cx, "cell_y": cy})
        g = df.groupby(["cell_x", "cell_y"]).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    from tilecloud_chain_ray.util import exchange_aggregate

    partials = docs.map_batches(cells, batch_format="pyarrow")
    return exchange_aggregate(
        partials, ["cell_x", "cell_y"], [("n", "sum")], ["cell_x", "cell_y", "n"]
    )


# ---------------------------------------------------------------------------
# PIP joins
# ---------------------------------------------------------------------------


def _geocoded_docs(sf_dir: str) -> ray.data.Dataset:
    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        make_geocoder(BBOX, "doc_id", cell_res=10), batch_format="pyarrow"
    )


def q_pip_layer_counts(sf_dir: str) -> ray.data.Dataset:
    # task-based: 3 boxes of broadcast state — actor pools only pay off
    # for heavy polygon payloads (see stages/pip_join.pip_join_tasks)
    joined = pip_join_tasks(_geocoded_docs(sf_dir), PIP_LAYERS, mode="left", cache_key="pip3")
    return joined.groupby("layer").aggregate(Count(alias_name="n"))


def q_pip_join_rows(sf_dir: str) -> ray.data.Dataset:
    """Both PIP join modes in one entry (the driver caps capture at 50
    queries, so the left-join rows and the inner-join pairs share one
    result tagged by ``mode`` — both code paths still run)."""
    geocoded = _geocoded_docs(sf_dir)
    left = pip_join_tasks(geocoded, PIP_LAYERS, mode="left", cache_key="pip3")
    inner = pip_join_tasks(geocoded, PIP_LAYERS, mode="inner", cache_key="pip3i")

    def tag(mode: str):
        def fn(b: pa.Table) -> pa.Table:
            out = b.select(["doc_id", "layer"])
            return out.append_column(
                "mode", pa.array(np.full(b.num_rows, mode, dtype=object), pa.string())
            )

        return fn

    return left.map_batches(tag("left"), batch_format="pyarrow").union(
        inner.map_batches(tag("inner"), batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------


def q_knn_cosine(sf_dir: str) -> ray.data.Dataset:
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # query extraction: take(5) early-stops the stream once the five
    # ids (vec_id < 5) are found instead of scanning the whole table
    qrows = sorted(
        (
            (r["vec_id"], r["embedding"])
            for r in emb.map_batches(
                lambda b: b.filter(pc.less(b["vec_id"], 5)), batch_format="pyarrow"
            ).take(5)
        )
    )
    qids = np.array([r[0] for r in qrows])
    qvecs = np.stack([np.asarray(r[1], dtype=np.float64) for r in qrows])
    out = knn_mod.knn_brute(emb, qvecs, k=5, key_col="vec_id", query_ids=qids)
    return out.select_columns(["query_id", "vec_id", "rank"])


# ---------------------------------------------------------------------------
# dedup / text
# ---------------------------------------------------------------------------


def q_dedup_exact(sf_dir: str) -> ray.data.Dataset:
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dedup_mod.exact_dedup(docs, key_col="doc_id", text_col="text")


def q_lang_stats(sf_dir: str) -> ray.data.Dataset:
    docs = _read(sf_dir, "documents", ["lang", "n_chars"])
    return docs.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars")
    )


def q_lang_pred_counts(sf_dir: str) -> ray.data.Dataset:
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pred = docs.map_batches(
        lambda b: lang_id_batch(b).select(["lang_pred"]), batch_format="pyarrow"
    )
    return pred.groupby("lang_pred").aggregate(Count(alias_name="n"))


def q_token_stats(sf_dir: str) -> ray.data.Dataset:
    """Whitespace AND BPE-ish token counts in one pass (merged entry:
    the driver caps capture at 50 queries; one text read feeds both
    tokenizers, which is also the cheaper shape at scale)."""
    from tilecloud_chain_ray.stages.text import bpe_token_count_batch

    docs = _read(sf_dir, "documents", ["lang", "text"])
    counted = docs.map_batches(
        lambda b: bpe_token_count_batch(token_count_batch(b)).select(
            ["lang", "n_tokens", "n_bpe_tokens"]
        ),
        batch_format="pyarrow",
    )
    return counted.groupby("lang").aggregate(
        Sum("n_tokens", alias_name="sum_tokens"),
        Sum("n_bpe_tokens", alias_name="sum_bpe_tokens"),
    )


def q_quality_hist(sf_dir: str) -> ray.data.Dataset:
    docs = _read(sf_dir, "documents", ["text"])

    def bucketize(batch: pa.Table) -> pa.Table:
        # per-block combiner: ship (bucket, partial count), not one row
        # per doc, into the (<=11)-key exchange
        scored = quality_score_batch(batch)
        q = scored["quality"].to_numpy(zero_copy_only=False)
        bucket = np.floor(q * 10.0).astype(np.int64)
        u, c = np.unique(bucket, return_counts=True)
        return pa.Table.from_pydict(
            {"bucket": pa.array(u, pa.int64()), "n": pa.array(c, pa.int64())}
        )

    from tilecloud_chain_ray.util import hash_group_blocks

    def sum_buckets(batch: pa.Table) -> pa.Table:
        return batch.group_by(["bucket"]).aggregate([("n", "sum")]).rename_columns(
            ["bucket", "n"]
        )

    return hash_group_blocks(
        docs.map_batches(bucketize, batch_format="pyarrow"), ["bucket"], sum_buckets
    )


# ---------------------------------------------------------------------------
# relational / streaming-shaped
# ---------------------------------------------------------------------------


def q_events_tumbling(sf_dir: str) -> ray.data.Dataset:
    events = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def windowed(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = us // 3_600_000_000
        out = batch.select(["event_type", "value"])
        return out.append_column("window", pa.array(win, pa.int64()))

    return (
        events.map_batches(windowed, batch_format="pyarrow")
        .groupby(["event_type", "window"])
        .aggregate(
            Count(alias_name="n"),
            Min("value", alias_name="vmin"),
            Max("value", alias_name="vmax"),
        )
    )


def q_asof_purchase_click(sf_dir: str) -> ray.data.Dataset:
    """As-of join: for each purchase event, the most recent STRICTLY
    earlier click of the same user (SURVEY custom operator: as-of)."""
    from tilecloud_chain_ray.stages.join import asof_join

    events = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    purchases = events.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    def clicks_fn(b: pa.Table) -> pa.Table:
        f = b.filter(pc.equal(b["event_type"], "click")).select(["user_id", "ts"])
        return f.append_column("click_us", f["ts"].cast(pa.int64()))

    clicks = events.map_batches(clicks_fn, batch_format="pyarrow")
    joined = asof_join(
        purchases, clicks, key="user_id", ts="ts", right_cols=["click_us"], strict=True
    )

    def finish(batch: pa.Table) -> pa.Table:
        out = batch.select(["event_id"])
        return out.append_column("prev_click_us", batch["r_click_us"].cast(pa.int64()))

    return joined.map_batches(finish, batch_format="pyarrow")


# fixed week-ish intervals over the events ts range (us since epoch,
# [lo, hi) half-open) — mirrored literally in the oracle SQL
RANGE_WEEK_US = 7 * 24 * 3_600_000_000
RANGE_BASE_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
RANGES = [
    (RANGE_BASE_US + i * RANGE_WEEK_US, RANGE_BASE_US + (i + 1) * RANGE_WEEK_US, f"week{i}")
    for i in range(5)
]


def q_substring_dedup(sf_dir: str) -> ray.data.Dataset:
    """Exact substring dedup (Lee et al. ExactSubstr semantics,
    arXiv:2107.06499): maximal per-doc word spans whose every 8-gram
    occurs >= 2 times across >= 2 documents.  Exact mode (winnow=None)
    so the DuckDB oracle reproduces the whole chain by gram-string
    equality; ``winnow`` is the at-scale variant (tested in
    tests/test_substring_dedup.py)."""
    from tilecloud_chain_ray.stages.substring_dedup import dedup_substring_spans

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dedup_substring_spans(docs, k=8)


def q_quality_filter_counts(sf_dir: str) -> ray.data.Dataset:
    """Curation-filter composition: per-lang counts of documents whose
    quality score clears 0.5 (the filter step of a training-data
    pipeline, SQL-exact on the shared expression)."""
    docs = _read(sf_dir, "documents", ["lang", "text"])

    def passing(batch: pa.Table) -> pa.Table:
        scored = quality_score_batch(batch)
        q = scored["quality"].to_numpy(zero_copy_only=False)
        return batch.select(["lang"]).filter(pa.array(q >= 0.5))

    return (
        docs.map_batches(passing, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Count(alias_name="n_passing"))
    )


def q_events_range_join(sf_dir: str) -> ray.data.Dataset:
    """Range join (broadcast interval table + searchsorted): events
    tagged with their week band, counted per (band, event_type)."""
    from tilecloud_chain_ray.stages.join import range_join

    events = _read(sf_dir, "events", ["event_type", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        return batch.append_column("ts_us", batch["ts"].cast(pa.int64()))

    tagged = range_join(
        events.map_batches(to_us, batch_format="pyarrow"),
        RANGES,
        value_col="ts_us",
        out_col="week",
    )
    return tagged.groupby(["week", "event_type"]).aggregate(Count(alias_name="n"))


def q_events_sliding(sf_dir: str) -> ray.data.Dataset:
    """Sliding windows (2 h wide, 1 h hop): each event lands in two
    windows — windowing by fanout + one aggregate (§2.9 pattern)."""
    events = _read(sf_dir, "events", ["event_type", "ts"])

    def windowed(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = us // 3_600_000_000
        types = batch["event_type"]
        out_types = pa.concat_arrays(
            [types.combine_chunks(), types.combine_chunks()]
        )
        win = np.concatenate([hour, hour - 1])  # window id = its start hour
        return pa.Table.from_pydict(
            {"event_type": out_types, "window_start": pa.array(win, pa.int64())}
        )

    return (
        events.map_batches(windowed, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n"))
    )


def q_lineitem_pricing(sf_dir: str) -> ray.data.Dataset:
    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])
    return li.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Count(alias_name="n"), Sum("l_quantity", alias_name="sum_qty")
    )


def q_orders_topk(sf_dir: str) -> ray.data.Dataset:
    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        # per-batch combiner: each group seen by the shuffle holds at
        # most 5 rows per input block, not the whole priority class
        df = batch.to_pandas()
        g = (
            df.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
            .groupby("o_orderpriority", as_index=False)
            .head(5)
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(5)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["o_orderpriority", "o_orderkey", "rnk"]]

    partials = orders.map_batches(partial_topk, batch_format="pyarrow")
    return partials.groupby("o_orderpriority").map_groups(topk, batch_format="pandas")


def q_orders_lineitem_join(sf_dir: str) -> ray.data.Dataset:
    """Large x large partitioned hash join (orders ⋈ lineitem on
    orderkey), then aggregate: per order-priority line counts and
    quantity sums — the explicit bucketed-join scale pattern."""
    from tilecloud_chain_ray.stages.join import hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda b: b.rename_columns(["okey", "o_orderpriority"]), batch_format="pyarrow"
    )
    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        lambda b: b.rename_columns(["okey", "l_quantity"]), batch_format="pyarrow"
    )
    joined = hash_join(orders, lineitem, on="okey", how="inner")
    return joined.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_lines"), Sum("l_quantity", alias_name="sum_qty")
    )


def q_region_customers(sf_dir: str) -> ray.data.Dataset:
    """Broadcast join: customer ⋈ nation ⋈ region without a shuffle
    (small dims via ray.put, lookup inside map_batches — J-pattern)."""
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    nation_to_region = dict(zip(nation["n_nationkey"], nation["n_regionkey"]))
    region_name = dict(zip(region["r_regionkey"], region["r_name"]))
    lookup_ref = ray.put((nation_to_region, region_name))

    def tag(batch: pa.Table) -> pa.Table:
        n2r, rname = ray.get(lookup_ref)
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        names = [rname[n2r[int(k)]] for k in nk]
        return pa.Table.from_pydict({"r_name": pa.array(names, pa.string())})

    customers = _read(sf_dir, "customer", ["c_nationkey"])
    return (
        customers.map_batches(tag, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(Count(alias_name="n_customers"))
    )


def q_anti_join_tiles(sf_dir: str) -> ray.data.Dataset:
    """Docs whose z3 tile is NOT among the tiles of doc_id < 20
    (tile ⋈ cache anti-join, J2)."""
    w, h = ZOOM_DIMS[3]
    cached_ids = np.arange(0, 20, dtype=np.int64)
    cux, cuy = micro_from_ids(cached_ids)
    ctx, cty = micro_tile(cux, cuy, w, h)
    cached = set((ctx * 1000 + cty).tolist())
    cached_ref = ray.put(cached)

    def anti(batch: pa.Table) -> pa.Table:
        cset = ray.get(cached_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ux, uy = micro_from_ids(ids)
        tx, ty = micro_tile(ux, uy, w, h)
        key = tx * 1000 + ty
        keep = ~np.isin(key, list(cset))
        return batch.filter(pa.array(keep))

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(anti, batch_format="pyarrow")


def q_dimension_cross(sf_dir: str) -> ray.data.Dataset:
    """Dimension cross-product (M1): every doc's z2 tile x DATE values."""
    w, h = ZOOM_DIMS[2]
    dates = ("2005", "2010", "2012")

    def cross(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ux, uy = micro_from_ids(ids)
        tx, ty = micro_tile(ux, uy, w, h)
        df = pd.DataFrame({"tx": np.repeat(tx, 3), "ty": np.repeat(ty, 3), "date": list(dates) * len(ids)})
        g = df.groupby("date").size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    partials = _read(sf_dir, "documents", ["doc_id"]).map_batches(cross, batch_format="pyarrow")
    return partials.groupby("date").aggregate(Sum("n", alias_name="n"))


def q_tile_union_area_z2(sf_dir: str) -> pa.Table:
    """Area of the union of occupied z2 tile extents (G4 expire-union).

    Tiles are disjoint axis-aligned boxes; the engine still computes a
    real union via coordinate-compression sweep (pipelines.expire)."""
    from tilecloud_chain_ray.pipelines.expire import union_area_of_boxes

    w, h = ZOOM_DIMS[2]
    docs = _read(sf_dir, "documents", ["doc_id"])

    def tiles(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ux, uy = micro_from_ids(ids)
        tx, ty = micro_tile(ux, uy, w, h)
        df = pd.DataFrame({"tx": tx, "ty": ty}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    distinct = (
        docs.map_batches(tiles, batch_format="pyarrow")
        .groupby(["tx", "ty"])
        .aggregate(Count(alias_name="n"))
    )
    rows = distinct.take_all()  # distinct z2 tiles: small
    span = SWISSGRID_5.span(2)
    boxes = np.array(
        [
            (
                BBOX[0] + r["tx"] * span,
                BBOX[3] - (r["ty"] + 1) * span,
                BBOX[0] + (r["tx"] + 1) * span,
                BBOX[3] - r["ty"] * span,
            )
            for r in rows
        ]
    ).reshape(-1, 4)
    area = union_area_of_boxes(boxes)
    n_tiles = len(rows)
    return pa.Table.from_pydict(
        {"n_tiles": pa.array([n_tiles], pa.int64()), "total_area": pa.array([area], pa.float64())}
    )


def q_sessionize(sf_dir: str) -> ray.data.Dataset:
    """Per-user session counts (gap > 600 s starts a new session) —
    the streaming-shaped windowed aggregate (§2.9), via the salted
    sessionize stage (bounded bucket groupby, not one Ray group per
    user — row-scale key cardinality at clickstream scale)."""
    from tilecloud_chain_ray.stages.sessionize import session_counts

    events = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return session_counts(
        events, key="user_id", ts="ts", gap=600_000_000, tie="event_id"
    )


# ---------------------------------------------------------------------------
# rows-only checked (non-SQL-expressible)
# ---------------------------------------------------------------------------


def q_dedup_minhash(sf_dir: str) -> ray.data.Dataset:
    """MinHash+LSH near-dup pairs, SQL-exact: the oracle reproduces the
    whole chain in DuckDB (crc32 via list_reduce over the standard
    table, wraparound multiply-xor shingles, the 64 seeded
    permutations, band folds, bucket pairs, exact-Jaccard verify)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = dedup_mod.minhash_dedup_pairs(docs, threshold=0.8)
    return pairs.select_columns(["key_a", "key_b"])


def q_dedup_simhash(sf_dir: str) -> ray.data.Dataset:
    """SimHash candidates, SQL-exact: the oracle reproduces the seeded
    crc32 word hashes, per-bit majority votes, quarter blocking and
    bit_count hamming in DuckDB."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dedup_mod.simhash_candidates(docs, max_hamming=3).select_columns(
        ["key_a", "key_b", "hamming"]
    )


def q_embed_near_dup(sf_dir: str) -> ray.data.Dataset:
    """Hyperplane-LSH bucket -> exact cosine within bucket.  The
    synthetic embeddings carry no real near-dups (max pairwise cosine
    ~0.51), so the driver entry runs at threshold 0.35 / 4 planes to
    exercise a NON-EMPTY bucketed result; the SQL oracle inlines the
    same seeded planes (sign of the dot product is scale-invariant,
    so bucketing needs no normalization in SQL)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = dedup_mod.embedding_near_dup(emb, threshold=0.35, n_planes=4)
    return out.select_columns(["key_a", "key_b"])


def q_knn_ann(sf_dir: str) -> ray.data.Dataset:
    """Both approximate ANN paths in one entry tagged by ``method``
    (the driver caps capture at 50 queries): LSH multi-probe and the
    FAISS-style IVF coarse quantizer — knn_ivf_exact separately anchors
    the IVF path to the brute-force oracle."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # query extraction: take(5) early-stops the stream once the five
    # ids (vec_id < 5) are found instead of scanning the whole table
    qrows = sorted(
        (
            (r["vec_id"], r["embedding"])
            for r in emb.map_batches(
                lambda b: b.filter(pc.less(b["vec_id"], 5)), batch_format="pyarrow"
            ).take(5)
        )
    )
    qids = np.array([r[0] for r in qrows])
    qvecs = np.stack([np.asarray(r[1], dtype=np.float64) for r in qrows])
    lsh = knn_mod.knn_lsh(emb, qvecs, k=5, key_col="vec_id", query_ids=qids)
    ivf = knn_mod.knn_ivf(
        emb, qvecs, k=5, key_col="vec_id", query_ids=qids, n_lists=16, nprobe=4
    )

    def tag(method: str):
        def fn(b: pa.Table) -> pa.Table:
            out = b.select(["query_id", "vec_id", "rank"])
            return out.append_column(
                "method", pa.array(np.full(b.num_rows, method, dtype=object), pa.string())
            )

        return fn

    return lsh.map_batches(tag("lsh"), batch_format="pyarrow").union(
        ivf.map_batches(tag("ivf"), batch_format="pyarrow")
    )


def q_knn_cell_spatial(sf_dir: str) -> ray.data.Dataset:
    """Spatial kNN via cell-ring candidates, SQL-exact: coarse cells
    (res 5: 32x32 over the bbox), integer micro-coordinate distances
    (dx^2 + dy^2 in int64 — candidates sit within ring 2, so squares
    fit), query cells = the 3 first distinct (cx, cy) among doc_id <
    10.  Output (qcx, qcy, doc_id, rnk) avoids Morton codes so the
    DuckDB mirror is plain integer division."""
    res = 5
    shift = 32 - res
    geocoded = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        make_geocoder(BBOX, "doc_id", cell_res=res), batch_format="pyarrow"
    )
    qdocs = geocoded.map_batches(
        lambda b: b.filter(pc.less(b["doc_id"], 10)), batch_format="pyarrow"
    ).take_all()
    from tilecloud_chain_ray.functions.cells import cell_decode, cell_id

    qcells_np = np.array([r["cell"] for r in qdocs], dtype=np.uint64)
    _, qcx, qcy = cell_decode(qcells_np)
    qxy = sorted(set(zip(qcx.tolist(), qcy.tolist())))[:3]
    query_cells = [
        int(cell_id(np.array([x], np.uint64), np.array([y], np.uint64), res)[0])
        for x, y in qxy
    ]
    out = knn_mod.knn_cell(
        geocoded,
        query_cells,
        BBOX,
        k=5,
        ring=2,
        cell_col="cell",
        x_col="ux",
        y_col="uy",
        micro_res=res,
    )

    def finish(b: pa.Table) -> pa.Table:
        _, cx, cy = cell_decode(b["query_cell"].to_numpy(zero_copy_only=False).astype(np.uint64))
        t = pa.Table.from_pydict(
            {
                "qcx": pa.array(cx, pa.int64()),
                "qcy": pa.array(cy, pa.int64()),
                "doc_id": b["doc_id"].cast(pa.int64()),
                "rnk": b["rank"].cast(pa.int64()),
            }
        )
        return t

    return out.map_batches(finish, batch_format="pyarrow")


def q_density_render(sf_dir: str) -> ray.data.Dataset:
    """Density pyramid over documents (webmerc z0-4); rendered tile
    table rows — the flagship entry() pipeline (PNG bytes are not
    SQL-expressible; the point-count leg is oracled by
    q_density_tiles)."""
    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.grid import WEBMERC
    from tilecloud_chain_ray.pipelines.density import density_pyramid

    docs = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        make_geocoder(WEBMERC.bbox, "doc_id", cell_res=12), batch_format="pyarrow"
    )
    layer = Layer(name="doc_density", grid=WEBMERC, meta=False)
    result = density_pyramid(docs, layer, zooms=[0, 1, 2, 3, 4], with_summary=False)
    return result.tiles.select_columns(["z", "x", "y", "status", "size"])


def q_density_tiles(sf_dir: str) -> ray.data.Dataset:
    """Per-tile point counts of the density pyramid (z0-4), SQL-exact:
    the assembly aggregate behind q_density_render, via the same
    micro-coordinate geocoder — tile = micro >> (32 - z - 8) >> 8
    (pixel then tile), n_points = docs per tile."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ux, uy = micro_from_ids(ids)
        parts = []
        for z in range(5):
            shift = np.uint64(32 - z - 8)
            tx = ((ux >> shift) >> np.uint64(8)).astype(np.int64)
            ty = ((uy >> shift) >> np.uint64(8)).astype(np.int64)
            df = pd.DataFrame({"z": np.full(len(tx), z, dtype=np.int64), "x": tx, "y": ty})
            parts.append(
                pa.Table.from_pandas(
                    df.groupby(["z", "x", "y"]).size().reset_index(name="n"),
                    preserve_index=False,
                ).replace_schema_metadata(None)
            )
        return pa.concat_tables(parts)

    partials = docs.map_batches(assign, batch_format="pyarrow")
    from tilecloud_chain_ray.util import exchange_aggregate

    return exchange_aggregate(
        partials, ["z", "x", "y"], [("n", "sum")], ["z", "x", "y", "n_points"]
    )


def q_vectorize_pixels(sf_dir: str) -> ray.data.Dataset:
    """Raster -> vector round-trip, SQL-exact: render the density
    pyramid (z0-4) to real PNG tiles, decode the rasters back to
    pixel rows (pipelines/vectorize.py), and count non-background
    pixels per tile.  The oracle computes the same per-tile counts
    directly from the micro-coordinates, so the driver hash-verifies
    the full render+decode raster<->vector cycle — encoder, decoder,
    pixel/cell alignment and polygon-ready pixel extraction."""
    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.grid import WEBMERC
    from tilecloud_chain_ray.pipelines.density import density_pyramid
    from tilecloud_chain_ray.pipelines.vectorize import vectorize_tiles

    docs = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        make_geocoder(WEBMERC.bbox, "doc_id", cell_res=12), batch_format="pyarrow"
    )
    layer = Layer(name="doc_density", grid=WEBMERC, meta=False)
    result = density_pyramid(docs, layer, zooms=[0, 1, 2, 3, 4], with_summary=False)
    pixels = vectorize_tiles(result.tiles, with_cells=False)
    from tilecloud_chain_ray.util import exchange_aggregate

    # count_all: pixel rows carry no dedicated count column to count
    return exchange_aggregate(
        pixels.select_columns(["z", "x", "y"]),
        ["z", "x", "y"],
        [([], "count_all")],
        ["z", "x", "y", "n_pixels"],
    )


def q_generate_point_hash(sf_dir: str) -> pa.Table:
    """The reference-parity flagship, now SQL-checkable: the stored
    tile coordinate set (reference tests/test_generate.py point_hash
    golden — 8 tiles survive hash-drop) plus the summary counters as
    extra rows keyed by name.  The oracle is the golden VALUES table,
    so the driver hash-verifies the full generate chain output."""
    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.geom import MultiPoint, Point
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    layer = Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(MultiPoint((Point(600000, 200000), Point(530000, 150000))),),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )
    # ONE pipeline execution: pull the (tiny) tile table once and
    # derive both the counters and the stored-coordinate set from it
    # (with_summary=True would consume the lazy dataset a second time)
    result = generate_tiles(layer, concurrency=(1, 2), with_summary=False)
    tbl = pa.concat_tables(
        b.select(["z", "x", "y", "status"])
        for b in result.tiles.iter_batches(batch_format="pyarrow")
    )
    statuses = tbl["status"].to_pylist()
    meta_dropped = statuses.count("meta_dropped")
    n_dropped = statuses.count("dropped")
    n_stored = statuses.count("stored")
    generated = n_dropped + n_stored
    s = {
        "metatiles_generated": meta_dropped + generated // (layer.meta_size**2),
        "metatiles_dropped": meta_dropped,
        "tiles_generated": generated,
        "tiles_dropped": n_dropped,
        "tiles_stored": n_stored,
    }
    stored = sorted(
        (int(r["z"]), int(r["x"]), int(r["y"]))
        for r in tbl.to_pylist()
        if r["status"] == "stored"
    )
    kinds = [f"stored:{z}" for z, _, _ in stored] + [
        "metatiles_generated",
        "metatiles_dropped",
        "tiles_generated",
        "tiles_dropped",
        "tiles_stored",
    ]
    xs = [x for _, x, _ in stored] + [
        s["metatiles_generated"],
        s["metatiles_dropped"],
        s["tiles_generated"],
        s["tiles_dropped"],
        s["tiles_stored"],
    ]
    ys = [y for _, _, y in stored] + [0, 0, 0, 0, 0]
    return pa.Table.from_pydict(
        {
            "kind": pa.array(kinds, pa.string()),
            "x": pa.array(xs, pa.int64()),
            "y": pa.array(ys, pa.int64()),
        }
    )


def _point_hash_layer(meta: bool):
    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.geom import MultiPoint, Point

    return Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(MultiPoint((Point(600000, 200000), Point(530000, 150000))),),
        meta=meta,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )


def q_sparse_metatile_counts(sf_dir: str) -> ray.data.Dataset:
    """S2 oracle: sparse metatile enumeration (unbuffered geometry
    intersection) per zoom over the point_hash fixture — the master-role
    seed set (reference master/slave test: 6 metatile jobs)."""
    from ray.data.aggregate import Count

    from tilecloud_chain_ray.sources.enumerate import sparse_coord_dataset

    layer = _point_hash_layer(meta=True)
    coords = sparse_coord_dataset(layer, concurrency=(1, 2))
    return coords.groupby("z").aggregate(Count(alias_name="n_metatiles"))


def q_geom_filter_counts(sf_dir: str) -> ray.data.Dataset:
    """M2 oracle: dense enumeration + buffered geometry filter per zoom
    (the local-role seed set; 128 px meta_buffer quirk included)."""
    from ray.data.aggregate import Count

    from tilecloud_chain_ray.sources.enumerate import dense_coord_dataset
    from tilecloud_chain_ray.stages.geom_filter import add_geom_filter

    layer = _point_hash_layer(meta=True)
    coords = dense_coord_dataset(layer)
    coords = add_geom_filter(coords, layer, concurrency=(1, 2))
    return coords.groupby("z").aggregate(Count(alias_name="n_metatiles"))


def q_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """Document fingerprint histogram: rolling 8-gram min-hash per doc,
    grouped.  SQL-exact for ASCII text >= 8 bytes: the polynomial
    window hash (sum byte[j]*31^j mod 2^32) is plain BIGINT arithmetic
    over unicode(char) byte values in DuckDB (see __ray_entry__)."""
    from ray.data.aggregate import Count

    from tilecloud_chain_ray.stages.text import fingerprint_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    fps = docs.map_batches(
        lambda b: fingerprint_batch(b).select(["doc_id", "fingerprint"]),
        batch_format="pyarrow",
    )
    from tilecloud_chain_ray.util import exchange_aggregate

    # fingerprint keys are ~one per distinct doc content — the worst
    # key space for a sort; count rides the task exchange
    return exchange_aggregate(
        fps.select_columns(["fingerprint"]),
        ["fingerprint"],
        [([], "count_all")],
        ["fingerprint", "n_docs"],
    )


def q_approx_distinct(sf_dir: str) -> pa.Table:
    """HyperLogLog approximate distinct, global AND grouped in one
    entry (the driver caps capture at 50 queries): scope 'doc_id' =
    global distinct docs; scope 'users:<event_type>' = grouped
    mergeable per-type user sketches.  Approximate vs the TRUE
    distinct count (accuracy pinned in tests/test_extras), but
    deterministic — the SQL oracle reproduces the whole sketch
    (splitmix64 + registers + estimate) bit-for-bit in DuckDB."""
    from tilecloud_chain_ray.stages.sketch import approx_distinct, grouped_approx_distinct

    docs = _read(sf_dir, "documents", ["doc_id"])
    est = approx_distinct(docs, "doc_id", p=12)
    events = _read(sf_dir, "events", ["event_type", "user_id"])
    grouped = grouped_approx_distinct(events, "event_type", "user_id").take_all()
    scopes = ["doc_id"] + [f"users:{r['event_type']}" for r in grouped]
    vals = [int(round(est))] + [int(r["approx_distinct"]) for r in grouped]
    order = np.argsort(np.array(scopes, dtype=object), kind="stable")
    return pa.Table.from_pydict(
        {
            "scope": pa.array([scopes[i] for i in order], pa.string()),
            "approx_distinct": pa.array([vals[i] for i in order], pa.int64()),
        }
    )


def q_media_pipeline(sf_dir: str) -> pa.Table:
    """Multimodal leg: REAL PNG and baseline-JPEG payloads (both
    codecs from scratch) -> bilinear resize -> decode -> feature
    aggregate, one row per codec (deterministic synthesis;
    rows-only)."""
    from tilecloud_chain_ray.stages.multimodal import (
        MediaDecoder,
        MediaResizer,
        synthesize_media,
    )

    rows: dict[str, list] = {"codec": [], "n_media": [], "all_resized_16": [],
                             "mean_intensity_rounded": []}
    for codec in ("png", "jpeg"):
        media = ray.data.from_arrow(synthesize_media(64, codec=codec))
        resized = media.map_batches(
            MediaResizer, fn_constructor_kwargs={"target": 16, "codec": codec},
            batch_format="pyarrow", batch_size=16, concurrency=(1, 2),
        )
        decoded = resized.map_batches(
            MediaDecoder, fn_constructor_kwargs={"codec": codec},
            batch_format="pyarrow", batch_size=16, concurrency=(1, 2),
        )
        tbl = pa.concat_tables(decoded.iter_batches(batch_size=None, batch_format="pyarrow"))
        rows["codec"].append(codec)
        rows["n_media"].append(tbl.num_rows)
        rows["all_resized_16"].append(
            bool((np.array(tbl["decoded_h"]) == 16).all()
                 and (np.array(tbl["decoded_w"]) == 16).all())
        )
        rows["mean_intensity_rounded"].append(
            round(float(np.array(tbl["mean_intensity"]).mean()), 2)
        )
    # audio/video demux legs (functions/mp3.py, mp4.py): metadata decode
    # + frame-accurate sampling of REAL container payloads
    from tilecloud_chain_ray.stages.multimodal import FrameSampler

    for codec, kind in (("mp3", "audio"), ("mp4", "video")):
        media = ray.data.from_arrow(synthesize_media(64, kind=kind, codec=codec))
        decoded = media.map_batches(
            MediaDecoder, fn_constructor_kwargs={"codec": codec},
            batch_format="pyarrow", batch_size=16, concurrency=(1, 2),
        )
        tbl = pa.concat_tables(decoded.iter_batches(batch_size=None, batch_format="pyarrow"))
        sampled = media.map_batches(
            FrameSampler, fn_constructor_kwargs={"n_frames": 4, "container": codec},
            batch_format="pyarrow", batch_size=16, concurrency=(1, 2),
        )
        n_sampled = sampled.count()
        rows["codec"].append(codec)
        rows["n_media"].append(tbl.num_rows)
        # demux duration matches the synthesized metadata on every row
        rows["all_resized_16"].append(
            bool(
                (
                    np.array(tbl["duration_ms"])
                    == np.array(tbl["meta_duration_ms"], dtype=np.int64)
                ).all()
                and n_sampled == 64 * 4
            )
        )
        rows["mean_intensity_rounded"].append(
            round(float(np.array(tbl["duration_ms"]).mean()), 2)
        )
    # image near-dup leg (stages/image_dedup.py): perceptual-hash 32
    # synthesized PNGs + 32 planted resize variants, pair via the shared
    # quarter-blocked machinery; the invariant asserts the pair set is
    # EXACTLY the planted set (no misses, no false pairs)
    from tilecloud_chain_ray.stages.image_dedup import _resize_gray, image_near_dup_pairs
    from tilecloud_chain_ray.stages.multimodal import _resize_bilinear
    from tilecloud_chain_ray.functions.png import encode_png

    n_img = 32
    payloads, ids = [], []
    for i in range(n_img):
        rng = np.random.default_rng(100 + i)
        lum = _resize_gray(rng.uniform(30, 225, (6, 6)), 48, 48)
        rgb = np.stack(
            [lum, np.clip(lum * 0.8 + 20, 0, 255), np.clip(255 - lum, 0, 255)], axis=-1
        )
        img = np.clip(rgb, 0, 255).astype(np.uint8)
        variant = _resize_bilinear(img, 64)
        for key, im in ((i, img), (1000 + i, variant)):
            rgba = np.concatenate([im, np.full((im.shape[0], im.shape[1], 1), 255, np.uint8)], axis=2)
            payloads.append(encode_png(rgba))
            ids.append(key)
    media = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"media_id": pa.array(ids, pa.int64()), "payload": pa.array(payloads, pa.binary())}
        )
    )
    for method in ("dhash", "phash"):
        pairs = image_near_dup_pairs(
            media, codec="png", method=method, max_hamming=3, concurrency=(1, 2)
        ).to_pandas()
        got = {(a, b) for a, b in zip(pairs["key_a"], pairs["key_b"])}
        want = {(i, 1000 + i) for i in range(n_img)}
        rows["codec"].append(f"img_{method}")
        rows["n_media"].append(2 * n_img)
        rows["all_resized_16"].append(got == want)
        rows["mean_intensity_rounded"].append(round(float(pairs["hamming"].mean()), 2))

    # audio near-dup leg (stages/audio_dedup.py): spectral fingerprints
    # over decoded WAV PCM, planted gain+noise variants, same blocked
    # pairing — the pair set must be EXACTLY the planted set
    from tilecloud_chain_ray.functions.wav import encode_wav
    from tilecloud_chain_ray.stages.audio_dedup import _BAND_EDGES_HZ, audio_near_dup_pairs

    n_clip, rate, sec = 16, 16000, 2.0
    payloads, ids = [], []
    for i in range(n_clip):
        rng = np.random.default_rng(500 + i)
        t = np.arange(int(rate * sec)) / rate
        x = np.zeros_like(t)
        for b in range(8):
            for _ in range(2):
                f = rng.uniform(_BAND_EDGES_HZ[b], min(_BAND_EDGES_HZ[b + 1], rate / 2 * 0.95))
                env = np.interp(t, np.linspace(0, sec, 6), rng.uniform(0.05, 1.0, 6))
                x += rng.uniform(0.3, 1.0) * env * np.sin(2 * np.pi * f * t + rng.uniform(0, 6.28))
        s = (x / np.max(np.abs(x)) * 20000).astype(np.int16)
        variant = (s * 0.5).astype(np.int16) + (
            150 * np.random.default_rng(i).standard_normal(len(s))
        ).astype(np.int16)
        payloads += [encode_wav(s, rate), encode_wav(variant, rate)]
        ids += [i, 1000 + i]
    clips = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"media_id": pa.array(ids, pa.int64()), "payload": pa.array(payloads, pa.binary())}
        )
    )
    pairs = audio_near_dup_pairs(clips, max_hamming=3, concurrency=(1, 2)).to_pandas()
    got = {(a, b) for a, b in zip(pairs["key_a"], pairs["key_b"])}
    rows["codec"].append("audio_fp")
    rows["n_media"].append(2 * n_clip)
    rows["all_resized_16"].append(got == {(i, 1000 + i) for i in range(n_clip)})
    rows["mean_intensity_rounded"].append(round(float(pairs["hamming"].mean()), 2))

    return pa.Table.from_pydict(
        {
            "codec": pa.array(rows["codec"], pa.string()),
            "n_media": pa.array(rows["n_media"], pa.int64()),
            "invariant_ok": pa.array(rows["all_resized_16"], pa.bool_()),
            "feature_mean": pa.array(rows["mean_intensity_rounded"], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# corpus curation (stages/curation.py) — all with exact DuckDB oracles
# ---------------------------------------------------------------------------


def q_vocab_topk(sf_dir: str) -> ray.data.Dataset:
    """Top-50 whitespace tokens globally (vocabulary statistics)."""
    from tilecloud_chain_ray.stages.curation import vocab_topk

    docs = _read(sf_dir, "documents", ["text"])
    return vocab_topk(docs, k=50)


# per-stratum deterministic sampling rates (mirrored in the oracle SQL)
SAMPLE_RATES = {"en": 0.5, "de": 0.25, "fr": 0.125, "it": 0.0625}


def q_stratified_sample(sf_dir: str) -> ray.data.Dataset:
    """Deterministic per-lang hash sample: the kept (doc_id, lang) rows."""
    from tilecloud_chain_ray.stages.curation import hash_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return hash_sample(docs, SAMPLE_RATES, key_col="doc_id", strat_col="lang")


def q_token_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact per-lang p50/p90/p99 of token counts via count-compressed
    histograms (quantile_disc semantics)."""
    from tilecloud_chain_ray.stages.curation import grouped_quantiles

    docs = _read(sf_dir, "documents", ["lang", "text"])
    counted = docs.map_batches(
        lambda b: token_count_batch(b).select(["lang", "n_tokens"]),
        batch_format="pyarrow",
    )
    return grouped_quantiles(counted, "lang", "n_tokens", qs=(0.5, 0.9, 0.99))


def q_ngram_jaccard_pairs(sf_dir: str) -> pa.Table:
    """Exact word-3-gram Jaccard for the 50 adjacent even/odd doc pairs
    under doc_id 100 (the n-gram verify operator with a SQL oracle)."""
    from tilecloud_chain_ray.stages.curation import ngram_jaccard_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = [(a, a + 1) for a in range(0, 100, 2)]
    return ngram_jaccard_pairs(docs, pairs, n=3)


def q_decontam_counts(sf_dir: str) -> ray.data.Dataset:
    """Benchmark decontamination: per-lang count of corpus docs
    (doc_id >= 5) sharing any word-3-gram with the doc_id < 5 'eval
    set'."""
    from ray.data.aggregate import Count

    from tilecloud_chain_ray.stages.curation import benchmark_shingles, decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    bench = benchmark_shingles(docs, max_key=5, n=3)
    flagged = decontaminate(docs, bench, n=3)

    def corpus_hits(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(batch["doc_id"], 5), batch["contaminated"]
        )
        return batch.select(["lang"]).filter(mask)

    return (
        flagged.map_batches(corpus_hits, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Count(alias_name="n_contaminated"))
    )


def q_redaction_stats(sf_dir: str) -> ray.data.Dataset:
    """Number-scrubbing pass: per-lang total redactions + docs touched."""
    from ray.data.aggregate import Count, Sum

    from tilecloud_chain_ray.stages.text import redact_batch

    docs = _read(sf_dir, "documents", ["lang", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        red = redact_batch(batch)
        touched = pc.greater(red["n_redactions"], 0).cast(pa.int64())
        out = red.select(["lang", "n_redactions"])
        return out.append_column("touched", touched)

    return (
        docs.map_batches(stats, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_redactions", alias_name="sum_redactions"),
            Sum("touched", alias_name="n_docs_touched"),
        )
    )


def q_knn_ivf_exact(sf_dir: str) -> ray.data.Dataset:
    """IVF with nprobe = n_lists: every list probed -> exact top-k, so
    the ANN index path shares the brute-force oracle."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # query extraction: take(5) early-stops the stream once the five
    # ids (vec_id < 5) are found instead of scanning the whole table
    qrows = sorted(
        (
            (r["vec_id"], r["embedding"])
            for r in emb.map_batches(
                lambda b: b.filter(pc.less(b["vec_id"], 5)), batch_format="pyarrow"
            ).take(5)
        )
    )
    qids = np.array([r[0] for r in qrows])
    qvecs = np.stack([np.asarray(r[1], dtype=np.float64) for r in qrows])
    out = knn_mod.knn_ivf(
        emb, qvecs, k=5, key_col="vec_id", query_ids=qids, n_lists=16, nprobe=16
    )
    return out.select_columns(["query_id", "vec_id", "rank"])


def q_repetition_counts(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style repetition rule: per-lang count of docs whose
    duplicate word-3-gram fraction exceeds 0.01."""
    from tilecloud_chain_ray.stages.curation import repetition_fraction_batch

    docs = _read(sf_dir, "documents", ["lang", "text"])

    def repetitive(batch: pa.Table) -> pa.Table:
        scored = repetition_fraction_batch(batch)
        frac = scored["rep_frac"].to_numpy(zero_copy_only=False)
        return batch.select(["lang"]).filter(pa.array(frac > 0.01))

    return (
        docs.map_batches(repetitive, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Count(alias_name="n_repetitive"))
    )


def q_pack_shards(sf_dir: str) -> ray.data.Dataset:
    """Sequence packing: contiguous 2000-token training shards per lang
    (distributed two-phase prefix scan; bucket_size 256 exercises the
    cross-bucket offsets even at sf0.001)."""
    from tilecloud_chain_ray.stages.scan import pack_shards

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    counted = docs.map_batches(
        lambda b: token_count_batch(b).select(["doc_id", "lang", "n_tokens"]),
        batch_format="pyarrow",
    )
    return pack_shards(
        counted, "lang", "doc_id", "n_tokens", budget=2000, bucket_size=256
    )


def q_curate_counts(sf_dir: str) -> ray.data.Dataset:
    """The full curation chain (quality floor -> decontaminate ->
    stratified sample -> exact dedup) as one composite oracle query:
    per-lang survivor count + token sum."""
    from tilecloud_chain_ray.pipelines.curate import curate_corpus
    from tilecloud_chain_ray.stages.curation import benchmark_shingles

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    bench = benchmark_shingles(docs, max_key=5, n=3)
    result = curate_corpus(
        docs,
        quality_min=0.5,
        bench_shingles=bench,
        sample_rates=SAMPLE_RATES,
    )
    # per-block combiner -> tiny bounded-key task exchange: the direct
    # Count/Sum groupby pays a full-width sort exchange over survivor
    # rows (measured 2.5-3.0 s vs 2.05 s at sf0.1/32 cpus); partial
    # rows are (blocks x langs)-scale
    from tilecloud_chain_ray.util import hash_group_blocks

    def rollup_partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by("lang").aggregate([("n_tokens", "count"), ("n_tokens", "sum")])
        return t.rename_columns(["lang", "n_survivors", "sum_tokens"])

    parts = result.survivors.select_columns(["lang", "n_tokens"]).map_batches(
        rollup_partial, batch_format="pyarrow"
    )

    def sum_langs(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang"]).aggregate(
            [("n_survivors", "sum"), ("sum_tokens", "sum")]
        )
        return g.rename_columns(["lang", "n_survivors", "sum_tokens"])

    return hash_group_blocks(parts, ["lang"], sum_langs)


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_user_event_pivot(sf_dir: str) -> ray.data.Dataset:
    """Pivot: per-user event counts as one column per event type.

    Scale shape: per-batch crosstab combiner (wide partial rows), one
    groupby over user_id summing the count columns — the pivot never
    becomes a row explosion."""
    events = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial_pivot(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ct = pd.crosstab(df["user_id"], df["event_type"])
        for t in EVENT_TYPES:
            if t not in ct.columns:
                ct[t] = 0
        ct = ct[list(EVENT_TYPES)].astype(np.int64)
        ct.columns = [f"n_{t}" for t in EVENT_TYPES]
        return pa.Table.from_pandas(ct.reset_index(), preserve_index=False).replace_schema_metadata(None)

    from tilecloud_chain_ray.util import exchange_aggregate

    # user_id is the corpus-sized key — task exchange, not a sort
    return exchange_aggregate(
        events.map_batches(partial_pivot, batch_format="pyarrow"),
        ["user_id"],
        [(f"n_{t}", "sum") for t in EVENT_TYPES],
        ["user_id"] + [f"n_{t}" for t in EVENT_TYPES],
    )


def q_lang_source_rollup(sf_dir: str) -> ray.data.Dataset:
    """Grouping sets: doc counts at (lang, source), (lang) and ()
    levels — GROUP BY ROLLUP re-expressed as one pre-aggregated fine
    groupby whose small result re-aggregates locally (coarser levels
    never re-scan the input)."""
    docs = _read(sf_dir, "documents", ["lang", "source"])
    fine = docs.groupby(["lang", "source"]).aggregate(Count(alias_name="n"))

    def widen_levels(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        lvl1 = df.groupby("lang", as_index=False, dropna=False)["n"].sum()
        lvl1["source"] = None
        lvl2 = pd.DataFrame({"lang": [None], "source": [None], "n": [df["n"].sum()]})
        out = pd.concat([df, lvl1[["lang", "source", "n"]], lvl2])
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    # the fine table is (langs x sources) rows — tiny by construction;
    # coalesce to one block so the rollup levels are computed once
    return fine.repartition(1).map_batches(widen_levels, batch_format="pyarrow")


def q_approx_users_per_type(sf_dir: str) -> ray.data.Dataset:
    """Approximate distinct users per event type (grouped mergeable HLL
    sketches — rows-only: approximate by design, accuracy pinned by
    tests/test_extras vs the exact count)."""
    from tilecloud_chain_ray.stages.sketch import grouped_approx_distinct

    events = _read(sf_dir, "events", ["event_type", "user_id"])
    return grouped_approx_distinct(events, "event_type", "user_id")


def q_bloom_anti_join(sf_dir: str) -> ray.data.Dataset:
    """Exact anti-join via Bloom prefilter + residue verification —
    same semantics (and oracle) as anti_join_tiles' broadcast key set,
    through the scale path for large key universes."""
    from tilecloud_chain_ray.stages.bloom import bloom_anti_join

    w, h = ZOOM_DIMS[3]

    def tkey(batch: pa.Table) -> pa.Table:
        batch = _docs_micro(batch)
        ux = batch["ux"].to_numpy(zero_copy_only=False).astype(np.uint64)
        uy = batch["uy"].to_numpy(zero_copy_only=False).astype(np.uint64)
        tx, ty = micro_tile(ux, uy, w, h)
        out = batch.select(["doc_id"])
        return out.append_column("tkey", pa.array(tx * 1000 + ty, pa.int64()))

    docs = _read(sf_dir, "documents", ["doc_id"]).map_batches(tkey, batch_format="pyarrow")
    cached = docs.map_batches(
        lambda b: b.select(["tkey"]).filter(pc.less(b["doc_id"], 20)),
        batch_format="pyarrow",
    )
    out = bloom_anti_join(docs, cached, on="tkey", n_keys_hint=64)
    return out.select_columns(["doc_id"])
