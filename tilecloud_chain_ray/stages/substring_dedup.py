"""Exact substring deduplication: find (and optionally cut) word
spans that occur verbatim more than once across a corpus.

The operator family of Lee et al., "Deduplicating Training Data Makes
Language Models Better" (arXiv:2107.06499): their ExactSubstr pass
builds a corpus-wide suffix array and removes every duplicated token
run >= a threshold length.  A suffix array is a single shared index —
the wrong shape for a 100-TB Ray pipeline — so this module expresses
the same semantics as fingerprint shuffles:

1. ``window_fingerprints`` — one rolling 64-bit hash per k-word
   window of every document (one Arrow regex split + one hash_array
   call + a vectorized Horner per batch — no per-row Python).  For
   scale, ``winnow=w`` keeps only the winnowing anchors of Schleimer
   et al. (SIGMOD 2003): the minimum fingerprint of each w-window of
   consecutive positions.  Guarantee: any shared run of at least
   ``k + w - 1`` words shares an anchor, so no long duplicate is
   missed while the shuffled row count drops ~w-fold.
2. ``duplicated_window_positions`` — a task exchange partitioned on
   the fingerprint (util.hash_group_blocks) marks every (doc, pos)
   whose fingerprint occurs >= ``min_count`` times (optionally across
   >= 2 distinct docs).  Tasks are bounded by the exchange width,
   never by fingerprint cardinality; the per-partition kernel is one
   lexsort + reduceat pass over every fingerprint in the partition.
3. ``merge_duplicate_spans`` — flagged positions merge into maximal
   per-doc intervals (vectorized gaps-and-islands: a key-offset trick
   makes one global ``np.maximum.accumulate`` serve every doc in the
   partition at once).
4. ``cut_duplicate_spans`` — drop the flagged words from the text.
   Default is remove-all (duplicated boilerplate vanishes from every
   occurrence, the RefinedWeb reading of ExactSubstr);
   ``keep_first=True`` elects the min-(key, pos) occurrence per
   duplicated window as canonical so exactly one copy of the content
   survives intact.

Fingerprint equality stands in for string equality: a false merge
needs a 64-bit collision between two k-grams that also survives
span-level review — negligible at any practical corpus size, and the
small-scale oracle (`queries.q_substring_dedup`) verifies the whole
chain against DuckDB string equality exactly.

Partitioning assumptions: one fingerprint's occurrence list fits in
one partition, and so do one doc's flagged positions.  A wider
exchange never splits one key's rows: a fingerprint duplicated across
half the corpus is stop-boilerplate, so pre-filter such grams.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

# Horner base for the rolling window hash (FNV-1a's 64-bit prime);
# uint64 arithmetic wraps mod 2^64.
_B = np.uint64(0x100000001B3)


def _batch_window_hashes(
    texts: "list[str] | pa.Array | pa.ChunkedArray", k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_index, pos_in_doc, fp) for every k-word window of every
    text, vectorized across the whole batch: the split is ONE Arrow
    ``split_pattern_regex`` kernel (byte-equal to
    ``curation._WS_RE.split`` of ``strip(" ")``, 2x the Python re
    loop), per-word hashes one
    ``pd.util.hash_array`` call over the flattened words, window
    hashes k shifted multiply-adds over the concat array, windows
    crossing document boundaries masked out."""
    import pyarrow.compute as pc

    arr = texts if isinstance(texts, (pa.Array, pa.ChunkedArray)) else pa.array(
        texts, pa.string()
    )
    words = pc.split_pattern_regex(pc.utf8_trim(arr, " "), pattern=r"[\t\n\f\r ]+")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    counts = np.diff(words.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
    total = int(counts.sum())
    if total < k:
        z = np.empty(0, np.int64)
        return z, z, np.empty(0, np.uint64)
    flat = np.asarray(words.values.to_pandas(), dtype=object)
    wh = pd.util.hash_array(flat)  # uint64, one C pass
    m = total - k + 1
    fp = np.zeros(m, np.uint64)
    for j in range(k):
        fp = fp * _B + wh[j : j + m]
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    valid = doc_idx[:m] == doc_idx[k - 1 :]
    starts = np.flatnonzero(valid)
    docs = doc_idx[starts]
    pos = starts - offsets[docs]
    return docs, pos, fp[starts]


def _winnow_anchors(
    docs: np.ndarray, pos: np.ndarray, fp: np.ndarray, w: int
) -> np.ndarray:
    """Indices of winnowing anchors: per doc, the argmin fingerprint of
    each window of ``w`` consecutive positions (deduplicated).  Docs
    with fewer than ``w`` positions keep their single minimum so short
    documents still participate."""
    n = len(fp)
    if n == 0:
        return np.empty(0, np.int64)
    keep: list[np.ndarray] = []
    if n >= w:
        sw = np.lib.stride_tricks.sliding_window_view(fp, w)
        cand = np.arange(n - w + 1, dtype=np.int64) + np.argmin(sw, axis=1)
        in_doc = docs[: n - w + 1] == docs[w - 1 :]
        keep.append(cand[in_doc])
    # per-doc minimum for docs shorter than w positions
    doc_starts = np.flatnonzero(np.concatenate(([True], docs[1:] != docs[:-1])))
    doc_lens = np.diff(np.concatenate((doc_starts, [n])))
    short = doc_lens < w
    if short.any():
        for s, ln in zip(doc_starts[short], doc_lens[short]):
            keep.append(np.array([s + int(np.argmin(fp[s : s + ln]))], np.int64))
    return np.unique(np.concatenate(keep)) if keep else np.empty(0, np.int64)


def window_fingerprints(
    docs: ray.data.Dataset,
    key_col: str = "doc_id",
    text_col: str = "text",
    k: int = 20,
    winnow: int | None = None,
) -> ray.data.Dataset:
    """Dataset of ``(key, pos, fp)``: the rolling 64-bit fingerprint of
    each k-word window (``winnow=w`` keeps only winnowing anchors —
    every shared run of >= k+w-1 words still shares one)."""

    def fn(batch: pa.Table) -> pa.Table:
        docs_i, pos, fp = _batch_window_hashes(batch[text_col], k)
        if winnow is not None and winnow > 1 and len(fp):
            sel = _winnow_anchors(docs_i, pos, fp, winnow)
            docs_i, pos, fp = docs_i[sel], pos[sel], fp[sel]
        keys = batch[key_col].take(pa.array(docs_i, pa.int64()))
        return pa.Table.from_pydict(
            {
                key_col: keys,
                "pos": pa.array(pos, pa.int64()),
                "fp": pa.array(fp, pa.uint64()),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow")


def duplicated_window_positions(
    fps: ray.data.Dataset,
    key_col: str = "doc_id",
    min_count: int = 2,
    cross_doc: bool = True,
    keep_first: bool = False,
) -> ray.data.Dataset:
    """Keep the ``(key, pos)`` of every window whose fingerprint occurs
    >= ``min_count`` times (``cross_doc``: and in >= 2 distinct docs).
    One task exchange on the fingerprint; the kernel is a single
    lexsort + run-length pass per partition.

    ``keep_first`` elects the lexicographically-min ``(key, pos)``
    occurrence of each duplicated fingerprint as CANONICAL and does
    not flag it, so downstream span cutting leaves one copy of the
    content standing.  Because the election is per-window by the same
    (key, pos) order, a run shared across documents stays fully intact
    in the min-key document (every one of its windows elects that doc)
    — the canonical copy is never shredded.  All occurrences of a
    fingerprint share one partition, so the election needs no extra
    shuffle."""

    def bucket_dups(batch: pa.Table) -> pa.Table:
        """All fingerprint groups co-located in one hash partition
        (util.hash_group_blocks partitions on ``fp`` directly — the
        same co-location the old salt tag bought, minus the tag column
        and the sort path's zero-schema empty bundles)."""
        if batch.num_rows == 0:
            return pa.table(
                {key_col: pa.array([], pa.int64()), "pos": pa.array([], pa.int64())}
            )
        fp = batch["fp"].to_numpy(zero_copy_only=False)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        pos = batch["pos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, keys, fp))
        fp, keys, pos = fp[order], keys[order], pos[order]
        n = len(fp)
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        new_run[1:] = fp[1:] != fp[:-1]
        run_starts = np.flatnonzero(new_run)
        run_len = np.diff(np.concatenate((run_starts, [n])))
        ok = run_len >= min_count
        if cross_doc:
            new_doc = new_run.copy()
            new_doc[1:] |= keys[1:] != keys[:-1]
            ok &= np.add.reduceat(new_doc.astype(np.int64), run_starts) >= 2
        keep = np.repeat(ok, run_len)
        if keep_first:
            # sorted by (fp, key, pos): the run's first row IS the
            # min-(key, pos) occurrence — unflag it
            keep &= ~new_run
        return pa.table(
            {
                key_col: pa.array(keys[keep].astype(np.int64), pa.int64()),
                "pos": pa.array(pos[keep].astype(np.int64), pa.int64()),
            }
        )

    from tilecloud_chain_ray.util import hash_group_blocks

    return hash_group_blocks(fps, ["fp"], bucket_dups)




def merge_duplicate_spans(
    dups: ray.data.Dataset,
    k: int,
    key_col: str = "doc_id",
) -> ray.data.Dataset:
    """Merge flagged window positions into maximal per-doc word spans:
    ``(key, span_start, span_end)`` with ``span_end`` exclusive.  A
    position p covers [p, p+k); overlapping / touching covers fuse."""

    def bucket_spans(batch: pa.Table) -> pa.Table:
        """Every doc co-located in one hash partition on ``key_col``
        (util.hash_group_blocks); the offset trick below already made
        the kernel multi-doc, so merging partitions costs nothing."""
        if batch.num_rows == 0:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "span_start": pa.array([], pa.int64()),
                    "span_end": pa.array([], pa.int64()),
                }
            )
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        pos = batch["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((pos, keys))
        keys, pos = keys[order], pos[order]
        n = len(keys)
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = keys[1:] != keys[:-1]
        rank = np.cumsum(new_key) - 1
        # offset each key's positions into a disjoint range so ONE
        # global maximum.accumulate serves every doc in the bucket;
        # sized from the data (max end + 1), not a fixed power of two —
        # rank * off stays < n_keys * (longest doc) << 2^63
        off = np.int64(int(pos.max()) + k + 1)
        p_off = pos + rank * off
        run_max = np.maximum.accumulate(p_off + np.int64(k))
        new_island = np.empty(n, dtype=bool)
        new_island[0] = True
        # a new key always opens an island: its first offset position
        # exceeds every earlier key's offset range by construction
        new_island[1:] = p_off[1:] > run_max[:-1]
        isl_starts = np.flatnonzero(new_island)
        isl_last = np.concatenate((isl_starts[1:], [n])) - 1
        return pa.table(
            {
                key_col: pa.array(keys[isl_starts].astype(np.int64), pa.int64()),
                "span_start": pa.array(pos[isl_starts], pa.int64()),
                "span_end": pa.array(
                    run_max[isl_last] - rank[isl_starts] * off, pa.int64()
                ),
            }
        )

    from tilecloud_chain_ray.util import hash_group_blocks

    return hash_group_blocks(dups, [key_col], bucket_spans)


def dedup_substring_spans(
    docs: ray.data.Dataset,
    key_col: str = "doc_id",
    text_col: str = "text",
    k: int = 20,
    winnow: int | None = None,
    min_count: int = 2,
    cross_doc: bool = True,
    keep_first: bool = False,
) -> ray.data.Dataset:
    """The composed operator: duplicated word spans per document.
    ``winnow=None`` fingerprints every position (exact: a span is
    flagged iff each of its windows occurs >= min_count times);
    ``winnow=w`` is the at-scale mode (anchors only — complete for
    runs >= k+w-1 words); ``keep_first`` leaves the min-(key, pos)
    occurrence of each duplicated window unflagged so one copy of the
    content survives the cut."""
    fps = window_fingerprints(docs, key_col, text_col, k=k, winnow=winnow)
    dups = duplicated_window_positions(
        fps, key_col, min_count=min_count, cross_doc=cross_doc, keep_first=keep_first
    )
    return merge_duplicate_spans(dups, k, key_col)


def cut_duplicate_spans(
    docs: ray.data.Dataset,
    spans: ray.data.Dataset,
    key_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Remove every flagged span's words from ``text_col`` (remove-all
    semantics).  Spans pack to one compact string row per key (a
    bounded-width join payload — no Arrow list columns through the
    shuffle), left-join onto the docs by partitioned hash join, then one
    splice pass per batch."""
    from tilecloud_chain_ray.stages.join import hash_join

    def pack(batch: pa.Table) -> pa.Table:
        # explicit Arrow types: an empty pandas object column would
        # leave an un-unifiable `object` schema in the block stream
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {key_col: pa.array([], pa.int64()), "__spans": pa.array([], pa.string())}
            )
        g = batch.to_pandas().sort_values([key_col, "span_start"], kind="mergesort")
        packed = (
            g.assign(__s=g["span_start"].astype(str) + ":" + g["span_end"].astype(str))
            .groupby(key_col, sort=False)["__s"]
            .agg(",".join)
        )
        return pa.Table.from_pydict(
            {
                key_col: pa.array(packed.index.to_numpy(), pa.int64()),
                "__spans": pa.array(packed.to_numpy(), pa.string()),
            }
        )

    from tilecloud_chain_ray.util import hash_group_blocks

    # hash_group_blocks returns a TYPED empty dataset when the corpus
    # has zero duplicated spans (kernel runs once on a typed empty), so
    # the old empty-seed union — whose 0-row block turned into a
    # schema-less RefBundle inside the join's map stages — is gone
    packed = hash_group_blocks(spans, [key_col], pack)
    joined = hash_join(docs, packed, on=key_col, how="left")
    return joined.map_batches(
        lambda b: splice_packed_spans(b, text_col), batch_format="pyarrow"
    )


# whitespace byte values of the fingerprint split class [\t\n\f\r ]
# (all ASCII, so byte-level scanning is UTF-8-safe: multibyte code
# points never contain bytes < 0x80)
_WS_BYTES = np.array([9, 10, 12, 13, 32], dtype=np.uint8)


def _cut_spans_bytes(raw: bytes, spans: list[tuple[int, int]]) -> bytes:
    """Cut word spans out of one document's raw UTF-8 bytes, keeping
    every OTHER byte identical (the reference ExactSubstr removes only
    the duplicated byte range; a split+rejoin would normalize all
    whitespace).  Word indexing reproduces the fingerprint split
    exactly — ``trim(" ")`` then split on ``[\\t\\n\\f\\r ]+`` — so
    index j here is index j there, including the empty edge tokens a
    doc with leading/trailing non-space whitespace produces.

    Cut rule per merged span ``[s, e)``: remove ``[start(s), start(e))``
    (the span's words plus the separator run before the next kept
    word); a span reaching the last word removes its PRECEDING
    separator run instead, so no dangling whitespace survives at
    either side of a cut."""
    b = np.frombuffer(raw, dtype=np.uint8)
    n = len(b)
    # trim(" ") bounds — spaces only, exactly like the fingerprint pass
    nonspace = np.flatnonzero(b != 32)
    if len(nonspace) == 0:
        lo, hi = 0, 0
    else:
        lo, hi = int(nonspace[0]), int(nonspace[-1]) + 1
    ws = np.isin(b[lo:hi], _WS_BYTES)
    # whitespace-run bounds inside [lo, hi)
    d = np.diff(ws.astype(np.int8))
    run_s = np.flatnonzero(d == 1) + 1 + lo
    run_e = np.flatnonzero(d == -1) + 1 + lo
    if len(ws) and ws[0]:
        run_s = np.concatenate(([lo], run_s))
    if len(ws) and ws[-1]:
        run_e = np.concatenate((run_e, [hi]))
    # token j = [tok_s[j], tok_e[j]); p ws runs -> p+1 tokens, with
    # empty edge tokens when the trimmed text starts/ends in ws
    tok_s = np.concatenate(([lo], run_e)).astype(np.int64)
    tok_e = np.concatenate((run_s, [hi])).astype(np.int64)
    n_tok = len(tok_s)
    cuts: list[tuple[int, int]] = []
    for s, e in spans:
        s = min(s, n_tok - 1)
        e = min(e, n_tok)
        if e < n_tok:
            cuts.append((int(tok_s[s]), int(tok_s[e])))
        else:
            c0 = int(tok_e[s - 1]) if s > 0 else lo
            cuts.append((c0, int(tok_e[e - 1])))
    out, prev = [], 0
    for c0, c1 in cuts:  # spans arrive sorted and non-touching
        out.append(raw[prev:c0])
        prev = max(prev, c1)
    out.append(raw[prev:])
    return b"".join(out)


def splice_packed_spans(batch: pa.Table, text_col: str) -> pa.Table:
    """Span cut over a batch carrying a packed ``__spans`` column
    ("s:e,s:e" word ranges per row, null = no spans).  Rows WITHOUT
    spans pass through BYTE-IDENTICAL (no work at all); rows WITH
    spans lose exactly the flagged words plus one adjoining separator
    run per span (:func:`_cut_spans_bytes`) — all other bytes,
    including newlines/tabs/paragraph whitespace, survive verbatim,
    matching the reference ExactSubstr's remove-only-the-duplicate
    semantics.  Cost is O(bytes of spanned rows) numpy scans; spanned
    rows are the rare side of the corpus by construction.  Shared by
    the streaming cut (:func:`cut_duplicate_spans`) and the
    checkpointed chain's phase-1 shard tasks
    (pipelines/curate_resumable.py)."""
    import pyarrow.compute as pc

    spans_col = batch["__spans"]
    if isinstance(spans_col, pa.ChunkedArray):
        spans_col = spans_col.combine_chunks()
    t2 = batch.remove_column(batch.schema.get_field_index("__spans"))
    has = pc.and_(spans_col.is_valid(), batch[text_col].is_valid())
    if not pc.any(has).as_py():
        return t2
    sel = np.flatnonzero(has.to_numpy(zero_copy_only=False))
    sel_arr = pa.array(sel, pa.int64())
    blobs = batch[text_col].take(sel_arr).cast(pa.binary()).to_pylist()
    out = batch[text_col].to_pylist()
    for j, raw, sp in zip(sel, blobs, spans_col.take(sel_arr).to_pylist()):
        spans = [
            (int(s), int(e))
            for s, e in (part.split(":") for part in sp.split(","))
        ]
        out[j] = _cut_spans_bytes(raw, spans).decode()
    return t2.set_column(
        t2.schema.get_field_index(text_col), text_col, pa.array(out, pa.string())
    )


def pack_spans_by_key(spans: pa.Table, key_col: str = "doc_id") -> dict[int, str]:
    """Driver/worker-side helper: a spans table → {key: "s:e,s:e"}
    packed map (sorted by span_start per key).  Used by the
    checkpointed chain to apply a COMMITTED span table inside phase-1
    shard tasks; the map is dup-span-sized, not corpus-sized —
    partition the span table by key hash if it ever outgrows a
    worker's heap."""
    keys = spans[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ss = spans["span_start"].to_numpy(zero_copy_only=False).astype(np.int64)
    ee = spans["span_end"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ss, keys))
    keys, ss, ee = keys[order], ss[order], ee[order]
    out: dict[int, str] = {}
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    ends = np.concatenate((starts[1:], [len(keys)]))
    for a, b in zip(starts, ends):
        out[int(keys[a])] = ",".join(
            f"{s}:{e}" for s, e in zip(ss[a:b], ee[a:b])
        )
    return out
