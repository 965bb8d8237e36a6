"""Deduplication family: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

All shapes follow the scalable patterns: content hash computed
vectorized inside ``map_batches``; the only shuffles are hash /
band-bucket task exchanges (util.exchange_refs) over *small
derived columns* (never the payload).  MinHash candidate pairs are
built by one path, task exchanges only (``_candidate_pairs``);
where an operator can also run on the driver (the MinHash verify, the
hamming pairs), the size of what the driver would hold picks the
placement through ``util.fits_driver`` — never a caller's option.

MinHash runs on whole batches, never one document at a time:
``shingle_table`` turns a batch of texts into one flat array of word
k-gram hashes plus per-document offsets (the flat-plus-offsets layout
of an Arrow ``list`` column), ``MinHasher.signatures`` signs it with one
pass per permutation, and Jaccard verification intersects the sorted
shingle sets of all candidate pairs in one lexsort.  SimHash still
walks its documents one by one; batching it measured slower (ROADMAP).

The MinHash chain runs on block refs (``_verified_pairs``): banding,
both candidate exchanges and the driver verify hand plain-task outputs
on, with no Dataset and no Ray Data execution between them.
``minhash_dedup_pairs`` wraps it for a Dataset; the curate chains call
it straight from their exact-dedup refs (stages/components.py).
"""

from __future__ import annotations

import functools
import hashlib
import logging
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from tilecloud_chain_ray.util import vecs_from_arrow

logger = logging.getLogger(__name__)

MERSENNE = (1 << 61) - 1


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def add_md5(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """md5 hex of utf8 text — matches DuckDB ``md5(text)`` exactly."""
    texts = batch[text_col].to_pylist()
    digests = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
    return batch.append_column("content_md5", pa.array(digests, pa.string()))


def exact_dedup(
    ds: ray.data.Dataset, key_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Keep the min-key row per identical text (hash-partitioned).

    Shuffle moves only (content_md5, key) after a projection — the
    payload never moves; survivors are re-joined by key upstream if
    needed.  Returns (content_md5, keep_key, dup_count).
    """
    from tilecloud_chain_ray.util import exchange_aggregate

    hashed = ds.map_batches(
        lambda b: add_md5(b, text_col).select([key_col, "content_md5"]),
        batch_format="pyarrow",
    )
    # pure vectorized hash aggregation — never a per-group Python call;
    # md5 keys are ~all-distinct so there is nothing to pre-combine,
    # but the task exchange still beats the sort-groupby (no ordering
    # of the ~one-row groups, no zero-schema empty bundles)
    return exchange_aggregate(
        hashed,
        ["content_md5"],
        [(key_col, "min"), ([], "count_all")],
        ["content_md5", "keep_key", "dup_count"],
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


_SHINGLE_MULTS = (
    np.uint64(0x9E3779B97F4A7C15),
    np.uint64(0xC2B2AE3D27D4EB4F),
    np.uint64(0x165667B19E3779F9),
)


# per-permutation temporary of MinHasher.signatures: at most 32 MiB of
# uint64 per pass, whatever the batch's shingle count
_SIG_CHUNK = (32 << 20) // 8


def _text_array(batch: pa.Table, text_col: str) -> pa.ChunkedArray:
    """The text column, refused when it holds a null: a null page has
    no shingles, and a silent cast would invent some."""
    col = batch[text_col]
    if col.null_count:
        raise ValueError(
            f"column {text_col!r} has {col.null_count} null value(s); "
            "near-duplicate detection needs a text in every row"
        )
    return col


def shingle_table(texts: pa.Array, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Word k-gram shingle hashes of a whole batch of texts, flat.

    Returns ``(offsets, hashes)``: document ``i``'s shingles are
    ``hashes[offsets[i]:offsets[i + 1]]``, in word order.  Words are
    ``str.split()`` words (Arrow's whitespace is Python's: bidi WS/B/S
    or category Zs; the trim matters, untrimmed ``" a "`` splits into
    ``['', 'a', '']``).  Each DISTINCT word of the batch is crc32'd once
    via ``dictionary_encode``; shingle ``p`` is the position-salted
    multiply-xor of the crcs of words ``p..p+k-1``, computed over the
    flat word array and kept where the whole k-gram lies inside one
    document.  A document with fewer than ``k`` words has the single
    shingle ``crc32(" ".join(words))``, so every document has one.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if texts.null_count:
        raise ValueError(f"shingle_table: {texts.null_count} null text(s)")
    trimmed = pc.utf8_trim_whitespace(texts)
    # an all-whitespace text would split into one '' word: make it null
    # so it has no words at all, as in str.split()
    trimmed = pc.if_else(pc.greater(pc.binary_length(trimmed), 0), trimmed, None)
    words = pc.utf8_split_whitespace(trimmed)
    n_words = pc.list_value_length(words).fill_null(0).to_numpy().astype(np.int64)
    flat = pc.list_flatten(words).dictionary_encode()
    crcs = np.fromiter(
        (zlib.crc32(w) for w in flat.dictionary.cast(pa.large_binary()).to_pylist()),
        dtype=np.uint64,
        count=len(flat.dictionary),
    )
    w = crcs[flat.indices.to_numpy()]
    counts = np.maximum(n_words - k + 1, 1)
    offsets = np.zeros(len(n_words) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    hashes = np.empty(int(offsets[-1]), dtype=np.uint64)

    long_doc = n_words >= k
    n = len(w) - k + 1
    if n > 0 and long_doc.any():
        with np.errstate(over="ignore"):
            h = w[:n] * _SHINGLE_MULTS[0]
            for j in range(1, k):
                h ^= w[j : j + n] * _SHINGLE_MULTS[min(j, 2)]
        # start p is kept iff its k-gram ends inside p's document
        doc_end = np.repeat(np.cumsum(n_words), n_words)
        inside = (doc_end - np.arange(len(w)) >= k)[:n]
        hashes[np.repeat(long_doc, counts)] = h[inside]
    short = np.flatnonzero(~long_doc)
    if len(short):
        sep = pa.scalar(" ", texts.type)
        joined = pc.binary_join(words.take(pa.array(short)), sep).cast(pa.large_binary())
        hashes[offsets[short]] = [zlib.crc32(t or b"") for t in joined.to_pylist()]
    return offsets, hashes


def _unique_shingles(offsets: np.ndarray, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each document's shingles as a sorted set: one lexsort over the
    whole flat table instead of one ``np.unique`` per document."""
    n = len(offsets) - 1
    doc = np.repeat(np.arange(n), np.diff(offsets))
    order = np.lexsort((hashes, doc))
    doc, hashes = doc[order], hashes[order]
    keep = np.ones(len(doc), dtype=bool)
    keep[1:] = (doc[1:] != doc[:-1]) | (hashes[1:] != hashes[:-1])
    out = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(doc[keep], minlength=n), out=out[1:])
    return out, hashes[keep]


def _intersection_counts(pid: np.ndarray, values: np.ndarray, n_pairs: int) -> np.ndarray:
    """|A & B| of every pair at once.  ``values`` holds both sides of
    every pair, tagged with the pair ordinal ``pid``; each side is a
    set, so a (pair, value) seen twice is one value of each side."""
    order = np.lexsort((values, pid))
    pv, vv = pid[order], values[order]
    dup = (pv[1:] == pv[:-1]) & (vv[1:] == vv[:-1])
    return np.bincount(pv[1:][dup], minlength=n_pairs).astype(np.int64)


def _shingle_index(tbl: pa.Table, key_col: str, text_col: str, k: int = 3):
    """(sorted keys, row of each key, set offsets, set values): the
    shingle set of every row of ``tbl``, looked up by key.  A repeated
    key keeps its last row, as a key -> row dict would."""
    keys = tbl[key_col].to_numpy(zero_copy_only=False)
    offsets, values = _unique_shingles(*shingle_table(_text_array(tbl, text_col), k))
    ukeys, first = np.unique(keys[::-1], return_index=True)
    return ukeys, len(keys) - 1 - first, offsets, values


def _rows_with_keys(tbl: pa.Table, key_col: str, text_col: str, keys: np.ndarray) -> pa.Table:
    """The ``(key, text)`` rows of one block whose key is in ``keys``."""
    return tbl.filter(pc.is_in(tbl[key_col], value_set=pa.array(keys))).select([key_col, text_col])


def _pair_jaccard_refs(refs: list, key_col: str, text_col: str, key_a, key_b) -> np.ndarray:
    """:func:`_pair_jaccard` of every ``(key_a[i], key_b[i])`` pair, with
    the shingle sets of only the pairs' rows: one ``is_in`` task per
    document block ``refs``, one ``ray.get`` of their output, and the
    index built on the driver."""
    from tilecloud_chain_ray.util import map_refs

    keys = np.unique(np.concatenate([key_a, key_b]))
    tables = [t for t in ray.get(map_refs(refs, _rows_with_keys, key_col, text_col, keys)) if t.num_rows]
    if not tables:
        tables = [
            pa.table({key_col: pa.array([], pa.int64()), text_col: pa.array([], pa.string())})
        ]
    return _pair_jaccard(_shingle_index(pa.concat_tables(tables), key_col, text_col), key_a, key_b)


def _pair_jaccard(index, key_a: np.ndarray, key_b: np.ndarray) -> np.ndarray:
    """Exact shingle-set Jaccard of every (key_a[i], key_b[i]) pair
    against a ``_shingle_index``, in one sorted pass over the pairs'
    concatenated sets.  A key missing from the index has the empty set;
    two empty sets have Jaccard 0."""
    ukeys, rows, offsets, values = index
    n_pairs = len(key_a)
    q = np.concatenate([key_a, key_b])
    pos = np.minimum(np.searchsorted(ukeys, q), max(len(ukeys) - 1, 0))
    found = (ukeys[pos] == q) if len(ukeys) else np.zeros(len(q), dtype=bool)
    doc = rows[pos[found]]
    lens = np.zeros(len(q), dtype=np.int64)
    lens[found] = offsets[doc + 1] - offsets[doc]
    starts = np.zeros(len(q), dtype=np.int64)
    starts[found] = offsets[doc]
    total = int(lens.sum())
    # ragged gather: the set of every pair side, back to back
    gather = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(total)
    pid = np.repeat(np.tile(np.arange(n_pairs), 2), lens)
    inter = _intersection_counts(pid, values[gather], n_pairs)
    union = lens[:n_pairs] + lens[n_pairs:] - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


class MinHasher:
    """num_perm seeded universal-hash permutations over shingle hashes."""

    def __init__(self, num_perm: int = 64, seed: int = 7, shingle_k: int = 3) -> None:
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, MERSENNE, num_perm, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, MERSENNE, num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_k = shingle_k

    def signatures(self, offsets: np.ndarray, hashes: np.ndarray) -> np.ndarray:
        """(n_docs, num_perm) MinHash signatures of a ``shingle_table``.

        One pass per permutation over every shingle of the batch
        (multiply-shift ``a*h + b`` mod 2^64, odd ``a``), then
        ``np.minimum.reduceat`` at the document offsets.  Passes cover at
        most ``_SIG_CHUNK`` shingles; a document cut by a chunk edge
        takes the min of its pieces.  Every document must have at least
        one shingle (``shingle_table`` guarantees it).
        """
        n = len(offsets) - 1
        out = np.full((self.num_perm, n), np.iinfo(np.uint64).max, dtype=np.uint64)
        for s in range(0, len(hashes), _SIG_CHUNK):
            e = min(s + _SIG_CHUNK, len(hashes))
            d0 = int(np.searchsorted(offsets, s, side="right")) - 1
            d1 = int(np.searchsorted(offsets, e, side="left"))
            seg = np.maximum(offsets[d0:d1], s) - s
            chunk = hashes[s:e]
            v = np.empty_like(chunk)
            with np.errstate(over="ignore"):
                for p in range(self.num_perm):
                    np.multiply(chunk, self.a[p], out=v)
                    v += self.b[p]
                    row = out[p, d0:d1]
                    np.minimum(row, np.minimum.reduceat(v, seg), out=row)
        return np.ascontiguousarray(out.T)


class MinHashStage:
    """Emits (key, band, band_hash) rows, one per LSH band per document.

    The whole batch is shingled by one ``shingle_table`` call and signed
    by one ``MinHasher.signatures`` call: no per-document Python.  A
    null text raises ``ValueError``.
    """

    def __init__(self, key_col="doc_id", text_col="text", num_perm=64, bands=16, seed=7):
        assert num_perm % bands == 0
        self.mh = MinHasher(num_perm, seed)
        self.key_col, self.text_col = key_col, text_col
        self.bands = bands
        self.rows_per_band = num_perm // bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)
        texts = _text_array(batch, self.text_col)
        sigs = self.mh.signatures(*shingle_table(texts, self.mh.shingle_k))
        n = len(sigs)
        r = self.rows_per_band
        # band hash: multiply-xor fold of each band's rows — fully
        # vectorized over (docs x bands), no per-band Python
        chunks = sigs.reshape(n, self.bands, r)
        with np.errstate(over="ignore"):
            folded = np.zeros((n, self.bands), dtype=np.uint64)
            for j in range(r):
                folded ^= chunks[:, :, j] * _SHINGLE_MULTS[j % 3] + np.uint64(j)
        band_hash = (folded >> np.uint64(1)).astype(np.int64)  # keep positive int64
        return pa.Table.from_pydict(
            {
                "key": pa.array(np.repeat(keys, self.bands), pa.int64()),
                "band": pa.array(
                    np.tile(np.arange(self.bands, dtype=np.int32), n), pa.int32()
                ),
                "band_hash": pa.array(band_hash.ravel(), pa.int64()),
            }
        )


_PAIR_SCHEMA = pa.schema([("key_a", pa.int64()), ("key_b", pa.int64())])
_JACCARD_SCHEMA = _PAIR_SCHEMA.append(pa.field("jaccard", pa.float64()))


def _distinct_pairs(pairs: pa.Table) -> pa.Table:
    """Each (key_a, key_b) once: one Acero empty-aggregate group_by."""
    if pairs.num_rows == 0:  # also the exchange's zero-column probe
        return _PAIR_SCHEMA.empty_table()
    return pairs.select(["key_a", "key_b"]).group_by(["key_a", "key_b"]).aggregate([])


def _bucket_run_pairs(batch: pa.Table, max_bucket: int) -> pa.Table:
    """All candidate pairs of every (band, band_hash) run in ``batch``,
    in one vectorized pass — the only definition of the MinHash
    candidate rules:

    * a pair is ``(key_a, key_b)`` with ``key_a < key_b``;
    * a key repeated inside a run never pairs with itself;
    * a pair found by several runs of the batch is reported once;
    * a run of more than ``max_bucket`` rows (repeated keys count
      once per row) is skipped with a warning: degenerate
      near-identical content is better handled by exact dedup first.

    Runs are keyed on (band, band_hash), the partition key of the
    exchange that calls this, so every run is whole in its batch."""
    n = batch.num_rows
    if n < 2:  # also the exchange's zero-column probe of an empty input
        return _PAIR_SCHEMA.empty_table()
    band = batch["band"].to_numpy(zero_copy_only=False).astype(np.int64)
    bhash = batch["band_hash"].to_numpy(zero_copy_only=False).astype(np.int64)
    key = batch["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((key, bhash, band))
    band, bhash, key = band[order], bhash[order], key[order]
    boundary = (band[1:] != band[:-1]) | (bhash[1:] != bhash[:-1])
    starts = np.flatnonzero(np.r_[True, boundary])
    lengths = np.diff(np.r_[starts, n])
    run_of = np.repeat(np.arange(len(starts)), lengths)
    pos = np.arange(n) - starts[run_of]  # position within the run
    # keys within a run are sorted, so each row pairs with the `pos`
    # rows before it in its run
    npairs = pos.copy()
    oversized = lengths > max_bucket
    if oversized.any():
        logger.warning(
            "skipping %d LSH bucket(s) larger than max_bucket=%d "
            "(largest: %d members); their pairs are NOT reported",
            int(oversized.sum()),
            max_bucket,
            int(lengths.max()),
        )
        npairs[oversized[run_of]] = 0
    total = int(npairs.sum())
    if total == 0:
        return _PAIR_SCHEMA.empty_table()
    right = np.repeat(np.arange(n), npairs)
    cum = np.concatenate([[0], np.cumsum(npairs)])
    k = np.arange(total) - cum[right]
    left = right - pos[right] + k  # run start + k-th earlier member
    ka, kb = key[left], key[right]
    real = ka != kb  # a repeated key: no (k, k) self-pair
    return _distinct_pairs(
        pa.table({"key_a": pa.array(ka[real], pa.int64()), "key_b": pa.array(kb[real], pa.int64())})
    )


def _candidate_pairs(banded: list, in_bytes: int, max_bucket: int) -> tuple[list, list[int]]:
    """Distinct candidate pairs (:func:`_bucket_run_pairs`) of the
    (key, band, band_hash) blocks ``banded`` (``in_bytes`` in all), as
    ``(refs, rows)``: one task exchange hash-partitioned on
    (band, band_hash) expands every run's pairs, and when it yields more
    than one partition, a second one, partitioned on the pair, drops the
    pairs found in several (``util.exchange_refs``).  A pre-aggregate
    "hot bucket" detection pass was measured strictly slower on Ray (its
    groupby shuffles the same rows without reducing them — 2.7M
    near-unique keys — and one Ray group per key costs ~1 ms of
    map_groups overhead)."""
    from tilecloud_chain_ray.util import exchange_refs

    cand, rows = exchange_refs(
        banded, ["band", "band_hash"], functools.partial(_bucket_run_pairs, max_bucket=max_bucket), in_bytes
    )
    if len(cand) <= 1:  # one partition held every run
        return cand, rows
    # global pair dedup, partitioned on the pair: a direct two-column
    # sort groupby-aggregate over the raw pairs measured ~60 s where
    # this takes ~2 s — Ray's sort-based groupby pays per distinct key,
    # so dedup vectorized inside each exchange partition instead
    return exchange_refs(cand, ["key_a", "key_b"], _distinct_pairs, sum(rows) * _PAIR_BYTES)


def _expand_hot_bucket_pairs(
    banded: ray.data.Dataset, max_bucket: int = 10_000
) -> ray.data.Dataset:
    """:func:`_candidate_pairs` of a (key, band, band_hash) Dataset, as
    a Dataset."""
    from tilecloud_chain_ray.util import block_refs

    refs, _, nbytes = block_refs(banded.materialize())
    return ray.data.from_arrow_refs(_candidate_pairs(refs, nbytes, max_bucket)[0])


# rows banded per ``_band_cached`` call: bounds one MinHashStage pass
_BAND_BATCH = 2048
# bytes of a banded row (int64 key, int32 band, int64 band_hash) and of
# a pair row (two int64 keys): exchange inputs sized without a fetch
_BAND_ROW_BYTES = 20
_PAIR_BYTES = 16


def _band_block(tbl: pa.Table, key_col: str, text_col: str, num_perm: int, bands: int) -> pa.Table:
    """The (key, band, band_hash) rows of one document block,
    ``_BAND_BATCH`` rows per ``_band_cached`` call."""
    return pa.concat_tables(
        [
            _band_cached(tbl.slice(s, _BAND_BATCH), key_col, text_col, num_perm, bands)
            for s in range(0, max(tbl.num_rows, 1), _BAND_BATCH)
        ]
    )


def _verified_pairs(
    refs: list,
    n_rows: int,
    key_col: str,
    text_col: str,
    threshold: float,
    num_perm: int = 64,
    bands: int = 16,
    max_bucket: int = 10_000,
):
    """Near-dup pairs (key_a < key_b, jaccard >= ``threshold``) of the
    document blocks ``refs`` (``n_rows`` rows in all), on block refs
    from end to end: one banding task per block, the candidate
    exchanges (:func:`_candidate_pairs`), then the verify.

    The verify is placed by the candidate universe, the shingle sets it
    needs (~4 KiB a document, two a pair — a generous web-text
    estimate).  When they fit :func:`~tilecloud_chain_ray.util.fits_driver`
    the candidate table is fetched with one ``ray.get``, only the
    candidate keys' rows follow (:func:`_pair_jaccard_refs`), and the
    pairs come back as a driver ``pa.Table``.  Otherwise a bucketed join
    of the candidates against the (key, shingle set) table
    (:func:`_verify_pairs_distributed`) returns a Dataset, and nothing
    proportional to the duplicate universe lands on the driver."""
    from tilecloud_chain_ray.util import fits_driver, map_refs

    banded = map_refs(refs, _band_block, key_col, text_col, num_perm, bands)
    cand, rows = _candidate_pairs(banded, n_rows * bands * _BAND_ROW_BYTES, max_bucket)
    del banded
    n_cand = sum(rows)
    if n_cand == 0:
        return _JACCARD_SCHEMA.empty_table()
    if not fits_driver(n_cand * 2 * 4096):
        sigs = shingle_sig_table(ray.data.from_arrow_refs(refs), key_col, text_col)
        return _verify_pairs_distributed(ray.data.from_arrow_refs(cand), sigs, threshold)
    pairs = pa.concat_tables(ray.get(cand))
    del cand
    ka = pairs["key_a"].to_numpy(zero_copy_only=False)
    kb = pairs["key_b"].to_numpy(zero_copy_only=False)
    jac = _pair_jaccard_refs(refs, key_col, text_col, ka, kb)
    keep = jac >= threshold
    return pa.table(
        {
            "key_a": pa.array(ka[keep], pa.int64()),
            "key_b": pa.array(kb[keep], pa.int64()),
            "jaccard": pa.array(jac[keep], pa.float64()),
        }
    )


def minhash_dedup_pairs(
    ds: ray.data.Dataset,
    key_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    max_bucket: int = 10_000,
) -> ray.data.Dataset:
    """End-to-end near-dup pairs: band signatures -> candidate pairs ->
    exact shingle Jaccard >= ``threshold``; output (key_a < key_b,
    jaccard).

    ``ds`` is materialized and its blocks go through
    :func:`_verified_pairs`: candidates always come from task exchanges
    (nothing on the driver), and the verify runs on the driver when the
    candidates' shingle sets fit :func:`~tilecloud_chain_ray.util.fits_driver`
    (measured faster than the cluster path at small inputs), else as a
    bucketed join on the cluster (:func:`_verify_pairs_distributed`).
    """
    from tilecloud_chain_ray.util import block_refs

    refs, rows, _ = block_refs(ds.materialize())
    pairs = _verified_pairs(
        refs, sum(rows), key_col, text_col, threshold, num_perm, bands, max_bucket
    )
    return ray.data.from_arrow(pairs) if isinstance(pairs, pa.Table) else pairs


def _band_cached(batch, key_col, text_col, num_perm, bands):
    from tilecloud_chain_ray.util import process_cached

    stage = process_cached(
        ("minhash_band", key_col, text_col, num_perm, bands),
        lambda: MinHashStage(key_col=key_col, text_col=text_col, num_perm=num_perm, bands=bands),
    )
    return stage(batch)


def shingle_sig_table(
    ds: ray.data.Dataset,
    key_col: str = "doc_id",
    text_col: str = "text",
    shingle_k: int = 3,
) -> ray.data.Dataset:
    """(key, sig) table: per-doc sorted-unique shingle hashes as a
    ``list<uint64>`` column — the distributed-join side of Jaccard
    verification (the payload text never enters the shuffle)."""

    def fn(batch: pa.Table) -> pa.Table:
        offsets, values = _unique_shingles(
            *shingle_table(_text_array(batch, text_col), shingle_k)
        )
        sig_col = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(values, pa.uint64())
        )
        return pa.Table.from_pydict({"key": batch[key_col], "sig": sig_col})

    return ds.map_batches(fn, batch_format="pyarrow")


def _verify_pairs_distributed(
    candidate_pairs: ray.data.Dataset,
    sigs: ray.data.Dataset,
    threshold: float,
) -> ray.data.Dataset:
    """Exact Jaccard over candidate pairs with NO driver materialization.

    Two task exchanges (util.hash_group_blocks — NEVER one Ray group
    per key/pair, which costs ~1 ms per tiny group): (1) partitioned on the doc key, each
    partition maps its pair-halves against its sig rows via one
    partition-local dict, attaching each doc's shingle sig to every
    half referencing it; (2) partitioned on the pair, each partition
    re-unites the halves and computes exact Jaccard per pair on the
    sorted uint64 arrays.  Only int64 keys + the candidate universe's
    sig arrays move.
    """

    def halves(batch: pa.Table) -> pa.Table:
        a = batch["key_a"].combine_chunks()
        b = batch["key_b"].combine_chunks()
        n = batch.num_rows
        return pa.Table.from_pydict(
            {
                "jkey": pa.concat_arrays([a, b]),
                "key_a": pa.concat_arrays([a, a]),
                "key_b": pa.concat_arrays([b, b]),
                "side": pa.array([0] * n + [1] * n, pa.int8()),
                "sig": pa.array([None] * (2 * n), pa.list_(pa.uint64())),
            }
        )

    def sig_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.Table.from_pydict(
            {
                "jkey": batch["key"],
                "key_a": pa.nulls(n, pa.int64()),
                "key_b": pa.nulls(n, pa.int64()),
                "side": pa.array(np.full(n, 2, dtype=np.int8), pa.int8()),
                "sig": batch["sig"],
            }
        )

    tagged = candidate_pairs.map_batches(halves, batch_format="pyarrow").union(
        sigs.map_batches(sig_rows, batch_format="pyarrow")
    )

    def attach_bucket(batch: pa.Table) -> pd.DataFrame:
        # sig_map lookups are by jkey, the partition key: every half and
        # the sig row of one doc are in this partition
        group = batch.to_pandas()
        is_sig = group["side"] == 2
        pair_halves = group[~is_sig]
        if pair_halves.empty:
            # typed arrow empty: a pandas object column would land as
            # arrow null type and break schema unification downstream
            return pa.table(
                {"key_a": pa.array([], pa.int64()),
                 "key_b": pa.array([], pa.int64()),
                 "side": pa.array([], pa.int8()),
                 "sig": pa.array([], pa.list_(pa.uint64()))}
            )
        sig_map = dict(zip(group.loc[is_sig, "jkey"], group.loc[is_sig, "sig"]))
        empty = np.array([], dtype=np.uint64)
        sigs_out = [sig_map.get(jk, empty) for jk in pair_halves["jkey"]]
        ka = pair_halves["key_a"].to_numpy(dtype=np.int64)
        kb = pair_halves["key_b"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "key_a": ka,
                "key_b": kb,
                "side": pair_halves["side"].to_numpy(dtype=np.int8),
                "sig": sigs_out,
            }
        )

    from tilecloud_chain_ray.util import hash_group_blocks

    attached = hash_group_blocks(tagged, ["jkey"], attach_bucket)

    def combine_bucket(batch: pa.Table) -> pd.DataFrame:
        group = batch.to_pandas()
        # One vectorized pass over ALL pairs in the bucket: the sigs of
        # every half concatenate into one flat uint64 buffer tagged with
        # a pair ordinal, and one lexsort finds cross-side duplicates —
        # a (pair, value) appearing twice must be one half per side,
        # since each side's sig is a unique set and pairs are distinct.
        # Replaces a per-pair Python loop (np.intersect1d per pair) that
        # dominated on dup-heavy corpora.
        empty = pd.DataFrame(
            {
                "key_a": pd.Series([], dtype=np.int64),
                "key_b": pd.Series([], dtype=np.int64),
                "jaccard": pd.Series([], dtype=np.float64),
            }
        )
        if group.empty:
            return empty
        ka = group["key_a"].to_numpy(dtype=np.int64)
        kb = group["key_b"].to_numpy(dtype=np.int64)
        side = group["side"].to_numpy(dtype=np.int8)
        order = np.lexsort((side, kb, ka))
        ka, kb, side = ka[order], kb[order], side[order]
        sig_rows = group["sig"].to_numpy()[order]
        n = len(ka)
        new_pair = np.empty(n, dtype=bool)
        new_pair[0] = True
        new_pair[1:] = (ka[1:] != ka[:-1]) | (kb[1:] != kb[:-1])
        pid_row = np.cumsum(new_pair) - 1
        n_pairs = int(pid_row[-1]) + 1
        lens = np.fromiter((len(a) for a in sig_rows), dtype=np.int64, count=n)
        sa = np.bincount(
            pid_row[side == 0], weights=lens[side == 0], minlength=n_pairs
        ).astype(np.int64)
        sb = np.bincount(
            pid_row[side == 1], weights=lens[side == 1], minlength=n_pairs
        ).astype(np.int64)
        if lens.sum():
            flat = np.concatenate(
                [np.asarray(a, dtype=np.uint64) for a in sig_rows if len(a)]
            )
            inter = _intersection_counts(np.repeat(pid_row, lens), flat, n_pairs)
        else:
            inter = np.zeros(n_pairs, dtype=np.int64)
        union = sa + sb - inter
        j = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        keep = j >= threshold
        if not keep.any():
            return empty
        starts = np.flatnonzero(new_pair)
        return pd.DataFrame(
            {
                "key_a": ka[starts][keep],
                "key_b": kb[starts][keep],
                "jaccard": j[keep],
            }
        )

    # both halves of a pair share (key_a, key_b): partition on the pair
    return hash_group_blocks(attached, ["key_a", "key_b"], combine_bucket)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_WORD_H64_CACHE: dict[str, int] = {}


def _word_h64(word: str) -> int:
    """64-bit word hash: crc32 low half | salted crc32 high half, cached
    per worker process (natural text repeats words heavily)."""
    h = _WORD_H64_CACHE.get(word)
    if h is None:
        if len(_WORD_H64_CACHE) > 1_000_000:
            _WORD_H64_CACHE.clear()
        enc = word.encode()
        h = (zlib.crc32(enc, 0xABCD) << 32) | zlib.crc32(enc)
        _WORD_H64_CACHE[word] = h
    return h


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit SimHash over word crc32 hashes; appends ``simhash`` plus
    4 16-bit block columns for hamming-distance blocking.

    Per doc: one cached hash lookup per word occurrence, then
    ``np.unpackbits`` -> column sum -> ``np.packbits`` — cache-friendly
    small arrays, no per-bit Python and no bit-string round-trips
    (measured ~2.2x the naive per-word crc/bit-matrix version even on
    cache-hostile synthetic text; more on repetitive real text).
    """
    texts = batch[text_col].to_pylist()
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    for i, t in enumerate(texts):
        ws = t.split()
        if not ws:
            continue
        h64 = np.fromiter((_word_h64(w) for w in ws), dtype=np.uint64, count=len(ws))
        bits = np.unpackbits(
            h64.view(np.uint8).reshape(len(ws), 8), axis=1, bitorder="little"
        )
        ones = bits.sum(axis=0, dtype=np.int32)
        # votes > 0  <=>  2*ones - n_words > 0
        sign = (2 * ones > len(ws)).astype(np.uint8)
        out[i] = np.packbits(sign, bitorder="little").view(np.uint64)[0]
    table = batch.append_column("simhash", pa.array(out.astype(np.int64), pa.int64()))
    for blk in range(4):
        part = ((out >> np.uint64(16 * blk)) & np.uint64(0xFFFF)).astype(np.int64)
        table = table.append_column(f"simhash_b{blk}", pa.array(part, pa.int64()))
    return table


# 64 KiB table: popcount of every 16-bit value (fancy indexing over it
# measured ~7x the old 64-round shift/accumulate loop and ~3x a SWAR
# reduction — numpy uint64 multiplies don't vectorize well)
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (any shape), via four
    16-bit table lookups per word."""
    b = np.ascontiguousarray(x).view(np.uint16)
    return _POP16[b].reshape(x.shape + (4,)).sum(-1, dtype=np.int64)


def _block_run_pairs(
    bv: np.ndarray, ks: np.ndarray, hs: np.ndarray, max_hamming: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs within equal-``bv`` runs: sort by the packed
    (block<<16 | value) id, then all-pairs hamming inside each run.
    Duplicate keys inside a run are collapsed to their first occurrence
    (no self-pairs).  Shared by the driver and cluster placements of
    ``hamming_blocked_pairs`` so the two cannot diverge."""
    order = np.argsort(bv, kind="stable")
    sbv, sk, sh = bv[order], ks[order], hs[order]
    starts = np.flatnonzero(np.r_[True, sbv[1:] != sbv[:-1]])
    ends = np.r_[starts[1:], len(sbv)]
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    out_h: list[np.ndarray] = []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        kk, hh = sk[s:e], sh[s:e]
        o2 = np.argsort(kk, kind="stable")
        kk, hh = kk[o2], hh[o2]
        uniq = np.r_[True, kk[1:] != kk[:-1]]
        kk, hh = kk[uniq], hh[uniq]
        m = len(kk)
        if m < 2:
            continue
        # chunked all-pairs: triu_indices on a hot block value (a
        # common quarter across near-identical media) allocates two
        # O(m^2) int64 arrays; row chunks against the run keep the
        # intermediates O(chunk x m) with the identical pair order
        blk = 2048
        for s2 in range(0, m, blk):
            e2 = min(s2 + blk, m)
            ham = _popcount64(hh[s2:e2, None] ^ hh[None, :])
            bi, bj = np.nonzero(ham <= max_hamming)
            up = s2 + bi < bj
            bi, bj = bi[up], bj[up]
            out_a.append(kk[s2 + bi])
            out_b.append(kk[bj])
            out_h.append(ham[bi, bj])
    if not out_a:
        z = np.array([], dtype=np.int64)
        return z, z, z
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_h)


def _fan_block_ids(ks: np.ndarray, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each (key, simhash) row fans out to its 4 packed block ids
    ``bv = blk << 16 | quarter`` (cardinality <= 4 * 65536)."""
    n = len(ks)
    bvs = np.empty(4 * n, dtype=np.int64)
    for blk in range(4):
        part = ((hs >> np.uint64(16 * blk)) & np.uint64(0xFFFF)).astype(np.int64)
        bvs[blk * n : (blk + 1) * n] = (blk << 16) | part
    return bvs, np.tile(ks, 4), np.tile(hs, 4)


def _min_hamming(batch: pa.Table) -> pa.Table:
    """Distinct (key_a, key_b) pairs, each with its least hamming
    distance over the blockings that found it: one Acero pass."""
    if batch.num_rows == 0:  # no pairs anywhere: the schema-less probe
        return pa.table({c: pa.array([], pa.int64()) for c in ("key_a", "key_b", "hamming")})
    t = (
        batch.select(["key_a", "key_b", "hamming"])
        .group_by(["key_a", "key_b"])
        .aggregate([("hamming", "min")])
    )
    return t.rename_columns(["key_a", "key_b", "hamming"])


def _pair_table(a: np.ndarray, b: np.ndarray, h: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "key_a": pa.array(a, pa.int64()),
            "key_b": pa.array(b, pa.int64()),
            "hamming": pa.array(h.astype(np.int64), pa.int64()),
        }
    )


def simhash_candidates(
    ds: ray.data.Dataset,
    key_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
) -> ray.data.Dataset:
    """Near-dup pairs with hamming(simhash) <= max_hamming, blocked on
    any equal 16-bit quarter (exact for max_hamming <= 3 by pigeonhole),
    through :func:`hamming_blocked_pairs`."""
    hashed = ds.map_batches(
        lambda b: simhash_batch(b, text_col).select([key_col, "simhash"]),
        batch_format="pyarrow",
    )
    return hamming_blocked_pairs(
        hashed, key_col=key_col, hash_col="simhash", max_hamming=max_hamming
    )


def hamming_blocked_pairs(
    hashed: ray.data.Dataset,
    key_col: str = "doc_id",
    hash_col: str = "simhash",
    max_hamming: int = 3,
) -> ray.data.Dataset:
    """Pairs with hamming(hash) <= max_hamming over ANY 64-bit hash
    column (text simhash, image pHash/dHash, ...), blocked on equal
    16-bit quarters — exact for max_hamming <= 3 by pigeonhole; for
    4..7 the quarter blocking is a high-recall heuristic.  Shared by
    simhash_candidates (text), stages/image_dedup (pHash/dHash) and
    stages/audio_dedup (spectral fingerprints).

    ONE pass over the hash table: the 4 blockings are packed into a
    single (block, value) id per fanned row.  Two placements with the
    same kernels (``_block_run_pairs`` then ``_min_hamming``), picked
    by :func:`~tilecloud_chain_ray.util.fits_driver` on the table's
    ~16 B/row (key + hash): one driver pass over all 4 blockings, or
    a task exchange on the block id followed by one on the pair.
    Pair order is not defined."""
    from tilecloud_chain_ray.util import fits_driver, hash_group_blocks

    hashed = hashed.materialize()  # reused by the count gate + pair pass
    if fits_driver(hashed.count() * 16):
        tbl = pa.concat_tables(list(hashed.iter_batches(batch_format="pyarrow")))
        ks_all = tbl[key_col].to_numpy(zero_copy_only=False)
        hs_all = tbl[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        pairs = _pair_table(*_block_run_pairs(*_fan_block_ids(ks_all, hs_all), max_hamming))
        return ray.data.from_arrow(_min_hamming(pairs))

    # cluster: fan each row to its 4 packed block ids, partition on
    # the id (one task per partition — never one group per id), detect
    # equal-id runs vectorized inside each partition
    def fan(batch: pa.Table) -> pa.Table:
        ks = batch[key_col].to_numpy(zero_copy_only=False)
        hs = batch[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        bvs, kf, hf = _fan_block_ids(ks, hs)
        return pa.Table.from_pydict(
            {
                "bv": pa.array(bvs, pa.int64()),
                "k": pa.array(kf, pa.int64()),
                "h": pa.array(hf.astype(np.int64), pa.int64()),
            }
        )

    def bucket_pairs(batch: pa.Table) -> pa.Table:
        # runs are keyed on bv, the partition key: every run is whole
        return _pair_table(
            *_block_run_pairs(
                batch["bv"].to_numpy(zero_copy_only=False),
                batch["k"].to_numpy(zero_copy_only=False),
                batch["h"].to_numpy(zero_copy_only=False).astype(np.uint64),
                max_hamming,
            )
        )

    allp = hash_group_blocks(hashed.map_batches(fan, batch_format="pyarrow"), ["bv"], bucket_pairs)
    # pair dedup partitioned on the pair: Ray's two-column sort groupby
    # pays per distinct key, so reduce vectorized inside each partition
    return hash_group_blocks(allp, ["key_a", "key_b"], _min_hamming)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def embedding_near_dup(
    ds: ray.data.Dataset,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 11,
    dim: int | None = None,
) -> ray.data.Dataset:
    """Near-duplicate vectors by cosine >= threshold.

    Random-hyperplane LSH bucket (seeded) -> exact cosine within
    buckets.  Note: LSH recall < 1 by construction for thresholds well
    below 1; for exactness tests use brute force (knn.py).
    """
    # the exchange materializes its input anyway; a lazy take(1) would
    # run the plan twice and cancel its in-flight tasks
    ds = ds.materialize()
    first = ds.take(1)[0]
    d = dim or len(first[vec_col])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((d, n_planes))
    planes_ref = ray.put(planes)

    def bucket(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        vecs = vecs_from_arrow(batch[vec_col], np.float64)
        # out-of-place: vecs_from_arrow returns a read-only zero-copy view
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True).clip(1e-12)
        sig = (vecs @ pl > 0).astype(np.uint64)
        code = (sig << np.arange(n_planes, dtype=np.uint64)[None, :]).sum(axis=1)
        return pa.Table.from_pydict(
            {
                "key": batch[key_col],
                "bucket": pa.array(code.astype(np.int64), pa.int64()),
                # zero-copy emission (one buffer + width), not per-row lists
                "vec": pa.FixedSizeListArray.from_arrays(
                    pa.array(np.ascontiguousarray(vecs).ravel(), pa.float64()),
                    vecs.shape[1],
                ),
            }
        )

    bucketed = ds.map_batches(bucket, batch_format="pyarrow")

    def pairs(batch: pa.Table) -> pa.Table:
        """Exact cosine pairs per LSH code, over every code co-located
        in one hash partition (util.hash_group_blocks).  Unlike the
        runs-keyed kernels, pairing here is *within a bucket by
        definition*, so the kernel sorts by (bucket, key) and pairs
        each bucket run separately — merging partitions must not
        invent cross-bucket candidates."""
        empty = pa.table(
            {
                "key_a": pa.array([], pa.int64()),
                "key_b": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        if batch.num_rows < 2:
            return empty
        bk = batch["bucket"].to_numpy(zero_copy_only=False)
        ks = batch["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ks, bk))
        bk, ks = bk[order], ks[order]
        vecs = vecs_from_arrow(batch["vec"].take(pa.array(order, pa.int64())))
        starts = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]])
        ends = np.r_[starts[1:], len(bk)]
        ka, kb, cs = [], [], []
        # blocked extraction (cf. stages/semdedup._cluster_verdicts):
        # memory O(block x n) instead of an n x n sims + two O(n^2)
        # triu index arrays, so a hot LSH bucket costs CPU, not an OOM
        block = 2048
        for rs, re in zip(starts, ends):
            n = re - rs
            if n < 2:
                continue
            kk, vv = ks[rs:re], vecs[rs:re]
            for s in range(0, n, block):
                e = min(s + block, n)
                sims = vv[s:e] @ vv.T
                bi, bj = np.nonzero(sims >= threshold)
                up = s + bi < bj
                ka.append(kk[(s + bi)[up]])
                kb.append(kk[bj[up]])
                cs.append(sims[bi[up], bj[up]])
        if not ka:
            return empty
        return pa.table(
            {
                "key_a": pa.array(np.concatenate(ka).astype(np.int64), pa.int64()),
                "key_b": pa.array(np.concatenate(kb).astype(np.int64), pa.int64()),
                "cosine": pa.array(np.concatenate(cs), pa.float64()),
            }
        )

    from tilecloud_chain_ray.util import hash_group_blocks

    return hash_group_blocks(bucketed, ["bucket"], pairs)
