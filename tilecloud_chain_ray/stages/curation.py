"""Corpus-curation operators for training-data pipelines.

Beyond-the-reference operators (SURVEY.md §2 additions, same family as
stages/text.py): vocabulary statistics, deterministic stratified
sampling, exact grouped quantiles, word-n-gram Jaccard scoring and
benchmark decontamination.  Each has an exact DuckDB oracle in
``__ray_entry__.oracle_sql`` — the shingling here deliberately uses the
*string* form of word n-grams (not the crc shingle hashes of
stages/dedup.py) so SQL can reproduce it with a list_transform lambda.

Scale notes per operator are in the docstrings; the shared principles:
partial-aggregate inside ``map_batches`` before any ``groupby``,
broadcast small sides once with ``ray.put``, and never materialize a
corpus-proportional table on the driver.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from tilecloud_chain_ray.functions.hashing import MICRO, UX_MULT

TOKEN_SPLIT = r"\s+"


def _tokens(batch_text: pa.ChunkedArray | pa.Array) -> pa.ListArray:
    """Whitespace token lists of trimmed text — identical to DuckDB's
    ``regexp_split_to_array(trim(text), '\\s+')`` (empty text -> [''])."""
    return pc.split_pattern_regex(pc.utf8_trim_whitespace(batch_text), TOKEN_SPLIT)


# ---------------------------------------------------------------------------
# vocabulary statistics
# ---------------------------------------------------------------------------


def vocab_topk(
    ds: ray.data.Dataset, k: int = 50, text_col: str = "text"
) -> ray.data.Dataset:
    """Global top-k most frequent whitespace tokens: (token, n), ties
    broken by ascending token.

    Scale shape: per-batch ``value_counts`` combiner (the only stage
    that sees full text), then ONE vocab-keyed task exchange whose
    kernel both sums each co-located token and emits the partition's
    top-k (valid because a token's counts never straddle hash
    partitions, so partition counts are final), then one driver-side
    cut over the <= k-per-partition candidates (a global kernel cannot
    ride the exchange, which may widen past any requested width).
    """
    from tilecloud_chain_ray.util import hash_group_blocks

    def partial_counts(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(_tokens(batch[text_col]))
        vc = pc.value_counts(toks)
        return pa.Table.from_pydict(
            {
                "token": vc.field("values"),
                "n": vc.field("counts").cast(pa.int64()),
            }
        )

    def sum_topk_partition(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({})  # dropped driver-side by count
        g = t.group_by("token").aggregate([("n", "sum")]).rename_columns(["token", "n"])
        df = g.to_pandas().sort_values(["n", "token"], ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    def final_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        df = t.to_pandas().sort_values(["n", "token"], ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    partials = ds.map_batches(partial_counts, batch_format="pyarrow")
    cands = hash_group_blocks(partials, ["token"], sum_topk_partition)
    return ray.data.from_arrow(final_topk(pa.concat_tables(ray.get(cands.to_arrow_refs()))))


# ---------------------------------------------------------------------------
# deterministic stratified sampling
# ---------------------------------------------------------------------------


def hash_sample_mask(
    ids: np.ndarray, strat: list | None, rates: dict[str, float] | float
) -> np.ndarray:
    """The pure keep-mask of ``hash_sample`` (shared with the
    checkpointed per-shard curation path so the two cannot diverge):
    keep iff ``(key * 2654435761) mod 2^32 < rate * 2^32``."""
    h = (ids.astype(np.int64) * UX_MULT) % MICRO
    if isinstance(rates, dict):
        thresholds = {s: int(r * MICRO) for s, r in rates.items()}
        thr = np.fromiter(
            (thresholds.get(s, 0) for s in strat), dtype=np.int64, count=len(strat)
        )
    else:
        thr = int(rates * MICRO)
    return h < thr


def hash_sample(
    ds: ray.data.Dataset,
    rates: dict[str, float] | float,
    key_col: str = "doc_id",
    strat_col: str = "lang",
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Deterministic (resumable, cluster-size-independent) downsampling:
    keep a row iff ``(key * 2654435761) mod 2^32 < rate * 2^32``, with
    ``rate`` per stratum when ``rates`` is a dict.

    Pure vectorized filter — no shuffle, no state; the exact property a
    100-TB sampling pass needs (same keep-set regardless of block
    layout or retries).  SQL-reproducible in integer arithmetic.
    """

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[key_col].to_numpy(zero_copy_only=False)
        strat = batch[strat_col].to_pylist() if isinstance(rates, dict) else None
        mask = hash_sample_mask(ids, strat, rates)
        out = batch if keep_cols is None else batch.select(keep_cols)
        return out.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def hash_sample_rows(
    ds: ray.data.Dataset,
    n: int,
    key_col: str,
    cols: list[str] | None = None,
    oversample: float = 4.0,
) -> pa.Table:
    """Bounded driver-side sample for train-small/apply-wide stages
    (IVF/PQ k-means, SemDeDup centroids, BPE merges): the ``n`` rows
    with the SMALLEST multiplicative hash of ``key_col``.

    ``ds.limit(n)`` takes the *first* n rows — i.e. the first input
    files — so on a corpus sorted by crawl date or source the trained
    centroids/merges see one biased slice and quality degrades
    silently at scale.  A bottom-n-by-hash sample is a uniform
    pseudo-random subset that is DETERMINISTIC and independent of
    block layout, execution order and cluster size (same keep-set on
    1 node or 256), the same property ``hash_sample`` gives the
    streaming sampler.

    Cost: one count + one filtered scan that ships ~``oversample * n``
    rows to the driver (re-scanned with a doubled threshold in the
    unlikely tail where the hash undershoots).  Returns a pyarrow
    Table of ``cols`` (default: all columns).
    """
    total = ds.count()
    want_cols = cols
    if total <= n:
        tbl = pa.Table.from_pylist(ds.take_all())
        if want_cols:
            tbl = tbl.select(want_cols)
        return tbl

    def filtered(thr: int) -> pa.Table:
        def keep(batch: pa.Table) -> pa.Table:
            ids = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
            h = (ids * UX_MULT) % MICRO
            out = batch if want_cols is None else batch.select(
                list(dict.fromkeys([key_col, *want_cols]))
            )
            return out.filter(pa.array(h < thr)).append_column(
                "__h", pa.array(h[h < thr], pa.int64())
            )

        parts = [
            t
            for t in ds.map_batches(keep, batch_format="pyarrow").to_arrow_refs()
        ]
        tbls = [t for t in ray.get(parts) if "__h" in t.schema.names]
        return (
            pa.concat_tables(tbls)
            if tbls
            else pa.table({"__h": pa.array([], pa.int64())})
        )

    thr = int(min(1.0, oversample * n / total) * MICRO)
    got = filtered(thr)
    while got.num_rows < n and thr < MICRO:
        thr = min(MICRO, thr * 2)
        got = filtered(thr)
    order = pc.sort_indices(
        got, sort_keys=[("__h", "ascending"), (key_col, "ascending")]
    )
    out = got.take(order[:n]).drop_columns(["__h"])
    return out.select(want_cols) if want_cols else out


# ---------------------------------------------------------------------------
# exact grouped quantiles via count compression
# ---------------------------------------------------------------------------


def grouped_quantiles(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
    out_names: tuple[str, ...] | None = None,
) -> ray.data.Dataset:
    """Exact discrete quantiles per group (DuckDB ``quantile_disc``
    semantics: the element at sorted index ``ceil(q*n) - 1``).

    Scale shape: the full data collapses to a (group, value) -> count
    table inside ``map_batches`` (distinct-value-bounded, e.g. token
    counts have ~10^3 distinct values no matter the corpus size), the
    groupby sums those partials, and each group's quantile walk runs on
    its compressed histogram in ``map_groups`` — no sort of the raw
    data, no driver materialization.
    """
    if out_names is None:
        out_names = tuple(f"p{int(q * 100)}" for q in qs)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, value_col]).to_pandas()
        g = df.groupby([group_col, value_col], sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    def quantiles_partition(t: pa.Table) -> pa.Table:
        """Task-exchange kernel replacing BOTH former shuffles (the
        (group, value) histogram sum and the per-group quantile pass):
        keyed on group alone, every (group, value) partial of a group
        co-locates, so one pandas pass finishes the histogram and reads
        the quantiles off the cumulative counts."""
        if t.num_rows == 0:
            return pa.table({})  # dropped driver-side by count
        df = t.to_pandas()
        h = df.groupby([group_col, value_col], sort=False)["n"].sum().reset_index()
        rows = []
        for gv, sub in h.groupby(group_col, sort=True):
            g = sub.sort_values(value_col)
            vals = g[value_col].to_numpy()
            cum = g["n"].to_numpy().cumsum()
            n = int(cum[-1])
            row = {group_col: gv}
            for q, name in zip(qs, out_names):
                idx = max(int(np.ceil(q * n)) - 1, 0)
                row[name] = vals[np.searchsorted(cum, idx + 1)]
            rows.append(row)
        return pa.Table.from_pandas(
            pd.DataFrame(rows), preserve_index=False
        ).replace_schema_metadata(None)

    from tilecloud_chain_ray.util import hash_group_blocks

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return hash_group_blocks(partials, [group_col], quantiles_partition)


# ---------------------------------------------------------------------------
# word-n-gram shingle helpers (string form, SQL-reproducible)
# ---------------------------------------------------------------------------

# DuckDB's ``regexp_split_to_array(trim(text), '\s+')`` exactly: trim()
# strips SPACES only, and RE2's \s is the ASCII class [\t\n\f\r ] — NOT
# Python str.split()'s Unicode whitespace (U+00A0 etc. stay inside
# tokens on the SQL side, so they must here too).
_WS_RE = re.compile(r"[\t\n\f\r ]+")


def _oracle_words(text: str) -> list[str]:
    return _WS_RE.split(text.strip(" "))


def word_ngrams(text: str, n: int = 3) -> set[str]:
    """Distinct word n-gram strings of space-trimmed ``text``; texts
    shorter than ``n`` words yield their single joined form (mirrors
    the oracle's list_transform lambda exactly, incl. its ASCII-only
    whitespace semantics — see ``_WS_RE``)."""
    ws = _oracle_words(text)
    if len(ws) < n:
        return {" ".join(ws)}
    return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    pairs: list[tuple[int, int]],
    key_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
) -> pa.Table:
    """Exact word-n-gram Jaccard for an explicit (small) pair list:
    (a, b, jaccard).

    Contract: ``pairs`` is the small side (an upstream candidate
    generator's output — cf. stages/dedup.minhash_dedup_pairs, whose
    verify moves to bucketed shuffles when the candidate universe
    outgrows the driver).  Only rows whose key appears in a pair are pulled
    (vectorized semi-join filter), so driver memory is O(|pairs|).
    """
    needed = sorted({k for p in pairs for k in p})
    needed_arr = pa.array(needed, pa.int64())

    def only_needed(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch[key_col], value_set=needed_arr)
        return batch.select([key_col, text_col]).filter(mask)

    rows = ds.map_batches(only_needed, batch_format="pyarrow").take_all()
    sets = {r[key_col]: word_ngrams(r[text_col], n) for r in rows}
    a_out, b_out, jac = [], [], []
    for a, b in pairs:
        if a not in sets or b not in sets:
            continue  # inner-join semantics: absent keys produce no row
        sa, sb = sets[a], sets[b]
        inter = len(sa & sb)
        union = len(sa) + len(sb) - inter
        a_out.append(a)
        b_out.append(b)
        jac.append(inter * 1.0 / union if union else 0.0)
    return pa.Table.from_pydict(
        {
            "a": pa.array(a_out, pa.int64()),
            "b": pa.array(b_out, pa.int64()),
            "jaccard": pa.array(jac, pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# benchmark decontamination
# ---------------------------------------------------------------------------


def decontaminate(
    ds: ray.data.Dataset,
    bench_shingles: frozenset[str] | set[str],
    key_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    flag_col: str = "contaminated",
) -> ray.data.Dataset:
    """Flag documents sharing any word-n-gram with a benchmark set —
    the standard eval-decontamination pass of an LLM data pipeline.

    The benchmark shingle set is broadcast once (``ray.put``) and
    deserialized once per worker process (``process_cached`` — a plain
    frozenset has no zero-copy path, so a per-batch ``ray.get`` would
    re-unpickle the whole set every call); per-doc shingling is the
    same string form the oracle reproduces.  Short-circuits on first
    hit per document.
    """
    from tilecloud_chain_ray.util import process_cached

    bench_ref = ray.put(frozenset(bench_shingles))
    cache_key = ("decontaminate", bench_ref.hex())

    def flag(batch: pa.Table) -> pa.Table:
        bench = process_cached(cache_key, lambda: ray.get(bench_ref))
        out = contaminated_mask(batch[text_col].to_pylist(), bench, n)
        return batch.append_column(flag_col, pa.array(out))

    return ds.map_batches(flag, batch_format="pyarrow")


def contaminated_mask(texts: list[str], bench: frozenset[str], n: int = 3) -> np.ndarray:
    """The pure per-doc contamination test of ``decontaminate`` (shared
    with the checkpointed per-shard curation path).  Short-circuits on
    first hit per document."""
    out = np.zeros(len(texts), dtype=bool)
    for i, t in enumerate(texts):
        ws = _oracle_words(t)
        if len(ws) < n:
            out[i] = " ".join(ws) in bench
            continue
        out[i] = any(" ".join(ws[j : j + n]) in bench for j in range(len(ws) - n + 1))
    return out


def benchmark_shingles(
    ds: ray.data.Dataset,
    key_col: str = "doc_id",
    text_col: str = "text",
    max_key: int = 5,
    n: int = 3,
) -> frozenset[str]:
    """Benchmark shingle set from the (small, bounded) doc prefix
    ``key < max_key`` — the 'eval set' side of decontamination."""
    rows = ds.map_batches(
        lambda b: b.select([key_col, text_col]).filter(pc.less(b[key_col], max_key)),
        batch_format="pyarrow",
    ).take_all()  # bounded by max_key rows by construction
    out: set[str] = set()
    for r in rows:
        out |= word_ngrams(r[text_col], n)
    return frozenset(out)


# ---------------------------------------------------------------------------
# intra-document repetition (Gopher-style quality rule)
# ---------------------------------------------------------------------------


def repetition_fraction_batch(
    batch: pa.Table, text_col: str = "text", n: int = 3, out_col: str = "rep_frac"
) -> pa.Table:
    """Append the duplicate word-n-gram fraction per document:
    ``1 - distinct_ngrams / total_ngrams`` — the repetition signal of
    the Gopher quality rules.  Shingle strings match the oracle's
    list_transform lambda; the division is the same two-int expression
    on both sides, so the float compares exactly."""
    texts = batch[text_col].to_pylist()
    frac = np.empty(len(texts), dtype=np.float64)
    for i, t in enumerate(texts):
        ws = _oracle_words(t)
        if len(ws) < n:
            frac[i] = 0.0
            continue
        total = len(ws) - n + 1
        grams = {" ".join(ws[j : j + n]) for j in range(total)}
        frac[i] = 1.0 - len(grams) * 1.0 / total
    return batch.append_column(out_col, pa.array(frac, pa.float64()))


def weighted_sample(
    ds: ray.data.Dataset,
    k: int,
    key_col: str = "doc_id",
    weight_col: str = "n_tokens",
    partials_max_bytes: int = 64 << 20,
) -> pa.Table:
    """Deterministic weighted sampling WITHOUT replacement: the k rows
    with the highest priority ``u^(1/w)``, ``u = splitmix64(key)/2^64``
    (Efraimidis-Spirakis exponential-sort / priority sampling, public
    algorithm).  Inclusion probability is proportional to weight, the
    sample is identical under any block layout / retry / cluster size
    (same property as ``hash_sample``), and — because u is a pure
    function of the key — the exact same k rows are computable in SQL.

    Each block contributes only its local top-k (keys + priorities);
    the driver merges ``k x n_blocks`` candidate rows (byte-bounded by
    ``partials_max_bytes``; raise k-aware salting upstream if a corpus
    ever exceeds it).  Returns an Arrow table (key, weight, priority)
    sorted by priority descending — a driver-sized result, like any
    top-k.
    """
    from tilecloud_chain_ray.functions.hashing import mix64

    def local_topk(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        u = (mix64(keys.astype(np.uint64)).astype(np.float64) + 1.0) / 2.0**64
        pri = np.where(w > 0, u ** (1.0 / np.maximum(w, 1e-300)), -1.0)
        kk = min(k, len(keys))
        idx = np.argpartition(-pri, kk - 1)[:kk] if kk < len(keys) else np.arange(len(keys))
        return pa.table(
            {
                key_col: pa.array(keys[idx], pa.int64()),
                weight_col: pa.array(w[idx], pa.float64()),
                "priority": pa.array(pri[idx], pa.float64()),
            }
        )

    refs = ds.map_batches(local_topk, batch_format="pyarrow").to_arrow_refs()
    empty = pa.table(
        {
            key_col: pa.array([], pa.int64()),
            weight_col: pa.array([], pa.float64()),
            "priority": pa.array([], pa.float64()),
        }
    )
    # Ray passes empty input blocks through without running the UDF,
    # so filter to blocks that carry the sketch schema
    tables = [t for t in ray.get(refs) if "priority" in t.schema.names]
    if not tables:
        return empty
    parts = pa.concat_tables(tables)
    if parts.nbytes > partials_max_bytes:  # pragma: no cover - safety rail
        raise ValueError(
            f"weighted_sample partials {parts.nbytes}B exceed the gate; "
            "reduce k or pre-aggregate"
        )
    pri = parts["priority"].to_numpy(zero_copy_only=False)
    keys = parts[key_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((keys, -pri))[: min(k, len(pri))]
    return parts.take(pa.array(order))
