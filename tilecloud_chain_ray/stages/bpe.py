"""Learned byte-pair encoding: train a subword vocabulary on a bounded
sample, tokenize the corpus distributed.

The published algorithm (Sennrich, Haddow & Birch, "Neural Machine
Translation of Rare Words with Subword Units", ACL 2016; the GPT-2
variant adds the regex pretokenizer this repo already shares with its
SQL oracle, ``stages/text.BPE_TOKEN_PATTERN``): start from characters,
repeatedly merge the most frequent adjacent symbol pair.

Ray shape — the same train-small / apply-wide split as the IVF index
and the CCNet LM (stages/knn.py, stages/lm.py): training runs on a
bounded driver-side sample over the word-FREQUENCY table (cost is
vocab-sized, not corpus-sized), the learned merge ranks broadcast via
``ray.put`` once, and the encode stage is a ``map_batches`` pass whose
per-batch work is dominated by one Arrow regex pretokenize + a
unique-word encode (Zipf makes unique words per batch a small fraction
of tokens; encoded words cache per worker process across batches)."""

from __future__ import annotations

import dataclasses
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.stages.text import BPE_TOKEN_PATTERN
from tilecloud_chain_ray.util import process_cached

_PRETOK_RE = re.compile(BPE_TOKEN_PATTERN)


@dataclasses.dataclass(frozen=True)
class BPETokenizer:
    """Learned merge table.  ``ranks[(a, b)]`` = merge priority (lower
    merges first); ``vocab`` maps symbol -> id (characters first, then
    merged symbols in rank order)."""

    merges: tuple[tuple[str, str], ...]
    vocab: dict[str, int]

    def __post_init__(self) -> None:
        # precompute once per instance: the @property rebuilt this
        # O(merges) dict on EVERY encode_word call (frozen dataclass,
        # so set via object.__setattr__; excluded from eq/repr)
        object.__setattr__(
            self, "_ranks", {pair: i for i, pair in enumerate(self.merges)}
        )

    @property
    def ranks(self) -> dict[tuple[str, str], int]:
        return self._ranks

    def encode_word(self, word: str) -> list[str]:
        """GPT-2-style greedy-by-rank merge of one pretoken."""
        syms = list(word)
        if len(syms) < 2:
            return syms
        ranks = self.ranks
        while True:
            best, best_rank = None, None
            for pair in zip(syms, syms[1:]):
                r = ranks.get(pair)
                if r is not None and (best_rank is None or r < best_rank):
                    best, best_rank = pair, r
            if best is None:
                return syms
            merged, out, i = best[0] + best[1], [], 0
            while i < len(syms):
                if i < len(syms) - 1 and (syms[i], syms[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
            if len(syms) < 2:
                return syms


def _merge_word_freqs(
    word_freqs: dict[str, int], num_merges: int
) -> list[tuple[str, str]]:
    """Sennrich training over a word-frequency table: symbol sequences
    per word, incremental pair-count maintenance, deterministic ties
    (max count, then lexicographically smallest pair)."""
    seqs = {w: list(w) for w in word_freqs}
    pair_counts: Counter = Counter()
    for w, f in word_freqs.items():
        s = seqs[w]
        for p in zip(s, s[1:]):
            pair_counts[p] += f
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pair_counts[best] <= 0:
            break
        merges.append(best)
        merged = best[0] + best[1]
        for w, f in word_freqs.items():
            s = seqs[w]
            if len(s) < 2 or best[0] not in s:
                continue
            out, i, changed = [], 0, False
            while i < len(s):
                if i < len(s) - 1 and (s[i], s[i + 1]) == best:
                    out.append(merged)
                    i += 2
                    changed = True
                else:
                    out.append(s[i])
                    i += 1
            if changed:
                for p in zip(s, s[1:]):
                    pair_counts[p] -= f
                for p in zip(out, out[1:]):
                    pair_counts[p] += f
                seqs[w] = out
        pair_counts = +pair_counts  # drop zero/negative entries
    return merges


def train_bpe(
    ds: "ray.data.Dataset | list[str]",
    num_merges: int = 256,
    text_col: str = "text",
    sample_max_docs: int = 50_000,
    key_col: str = "doc_id",
) -> BPETokenizer:
    """Train on a bounded driver-side sample (standard subword
    practice: the merge table converges on a sample long before corpus
    scale).  The sample is the layout-independent bottom-n-by-hash set
    (``hash_sample_rows``) of ``key_col`` — ``limit()`` would train the
    vocabulary on the FIRST input files only, which on a source-sorted
    corpus skews the merges.  Without a ``key_col`` column the key is
    derived from the text itself (``curation.text_key``)."""
    if isinstance(ds, list):
        texts = ds
    else:
        from tilecloud_chain_ray.stages.curation import hash_sample_rows, text_key

        # pinned once: the schema comes from the materialized blocks
        # (a lazy schema() runs the plan to its first block and cancels
        # the rest), and the sample's count and filtered scans read
        # the object store instead of re-running the upstream
        ds = ds.materialize()
        schema = ds.schema()  # None for an input with no block
        if schema is None or key_col not in schema.names:
            key_col = "__text_key"
            ds = ds.map_batches(text_key(text_col, key_col), batch_format="pyarrow")
        tbl = hash_sample_rows(ds, sample_max_docs, key_col, cols=[text_col])
        texts = [t for t in tbl[text_col].to_pylist() if t]
    word_freqs = Counter()
    for t in texts:
        word_freqs.update(_PRETOK_RE.findall(t))
    merges = _merge_word_freqs(dict(word_freqs), num_merges)
    chars = sorted({c for w in word_freqs for c in w})
    vocab = {c: i for i, c in enumerate(chars)}
    for a, b in merges:
        vocab[a + b] = len(vocab)
    return BPETokenizer(merges=tuple(merges), vocab=vocab)


def word_freq_table(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    """Distributed word-frequency table ``(word, freq)`` — the input of
    corpus-scale BPE training.  Per-batch combiner (unique words per
    batch, Zipf makes this a small fraction of tokens) then one
    vocab-bounded groupby."""
    from tilecloud_chain_ray.util import exchange_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        words: Counter = Counter()
        for t in batch[text_col].to_pylist():
            if t:
                words.update(_PRETOK_RE.findall(t))
        return pa.Table.from_pydict(
            {
                "word": pa.array(list(words.keys()), pa.string()),
                "freq": pa.array(list(words.values()), pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return exchange_aggregate(partials, ["word"], [("freq", "sum")], ["word", "freq"])


def train_bpe_distributed(
    ds: ray.data.Dataset,
    num_merges: int = 256,
    text_col: str = "text",
) -> BPETokenizer:
    """Corpus-scale BPE training: NO driver-side sample cap — the merge
    table is learned from the exact word-frequency table of the whole
    corpus (VERDICT r4 #3 / NOTES_r4 candidate #6).

    Shape per Sennrich: training cost is VOCAB-sized, not corpus-sized,
    once the word-frequency table exists, so the corpus-wide work is
    one combiner + one word groupby (:func:`word_freq_table`).  Each
    merge round then runs over the distributed word table:

    1. pair partials — one combiner emits each block's (a, b, count)
       sums (pair space is vocab-bounded);
    2. a bounded-key ``groupby(["a","b"]).sum`` + per-block argmin →
       the driver reduces ≤ blocks candidate rows to THE global best
       pair (deterministic ties: max count, then lexicographically
       smallest pair — byte-equal to ``_merge_word_freqs``);
    3. apply — a ``map_batches`` pass rewrites only the rows whose
       symbol sequence contains the pair; the table re-materializes so
       round r+1 doesn't re-execute rounds 0..r.

    Per-round cost is two passes over the WORD table (BASELINE.md
    carries a 200k-doc ledger).  Prefer :func:`train_bpe` (bounded
    hash sample) when sample convergence is acceptable; this is the
    exact-path for vocabulary-sensitive runs.
    """
    from tilecloud_chain_ray.util import hash_group_blocks, strip_meta

    words = word_freq_table(ds, text_col=text_col).materialize()

    # character vocabulary: per-block char-set union, driver merge
    def char_partial(batch: pa.Table) -> pa.Table:
        chars = sorted({c for w in batch["word"].to_pylist() for c in w})
        return pa.Table.from_pydict({"c": pa.array(chars, pa.string())})

    # materialized first: to_arrow_refs() on a lazy dataset runs it a
    # second time, to its first block, for the schema
    chars: set[str] = set()
    for t in ray.get(
        words.map_batches(char_partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ):
        if "c" in t.schema.names:
            chars.update(t["c"].to_pylist())

    # working table: symbol sequences; single-symbol rows can never
    # merge — drop them up front (chars already collected)
    def init_syms(batch: pa.Table) -> pa.Table:
        ws = batch["word"].to_pylist()
        keep = [i for i, w in enumerate(ws) if len(w) >= 2]
        return pa.Table.from_pydict(
            {
                "syms": pa.array([list(ws[i]) for i in keep], pa.list_(pa.string())),
                "freq": batch["freq"].take(pa.array(keep, pa.int64())),
            }
        )

    seqs = words.map_batches(
        lambda b: init_syms(strip_meta(b)), batch_format="pyarrow"
    ).materialize()

    def pair_partials(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        freqs = batch["freq"].to_numpy(zero_copy_only=False)
        for s, f in zip(batch["syms"].to_pylist(), freqs):
            f = int(f)
            for p in zip(s, s[1:]):
                c[p] += f
        a = pa.array([p[0] for p in c], pa.string())
        b = pa.array([p[1] for p in c], pa.string())
        return pa.Table.from_pydict(
            {"a": a, "b": b, "cnt": pa.array(list(c.values()), pa.int64())}
        )

    def best_pair_partition(t: pa.Table) -> pa.Table:
        """Task-exchange kernel fusing the bounded-key (a, b) sum with
        the per-partition argmin: pair groups never straddle hash
        partitions, so the partition's best after summing is a valid
        global candidate — the driver reduces <= partitions rows.  Ties
        byte-equal to ``_merge_word_freqs`` (max count, then
        lexicographically smallest pair)."""
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.Table.from_pydict(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        g = strip_meta(t).group_by(["a", "b"]).aggregate([("cnt", "sum")])
        df = g.to_pandas()
        best = df.sort_values(
            ["cnt_sum", "a", "b"], ascending=[False, True, True]
        ).iloc[0]
        return pa.Table.from_pydict(
            {
                "a": pa.array([best["a"]], pa.string()),
                "b": pa.array([best["b"]], pa.string()),
                "cnt": pa.array([int(best["cnt_sum"])], pa.int64()),
            }
        )

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        partials = seqs.map_batches(pair_partials, batch_format="pyarrow")
        cands = hash_group_blocks(partials, ["a", "b"], best_pair_partition).take_all()
        cands = [r for r in cands if r.get("cnt") is not None]
        if not cands:
            break
        best = min(cands, key=lambda r: (-r["cnt"], r["a"], r["b"]))
        if best["cnt"] <= 0:
            break
        pair = (best["a"], best["b"])
        merges.append(pair)
        merged_sym = pair[0] + pair[1]

        def apply_merge(batch: pa.Table, _pair=pair, _m=merged_sym) -> pa.Table:
            seqs_py = batch["syms"].to_pylist()
            out = []
            for s in seqs_py:
                if _pair[0] in s:
                    new, i = [], 0
                    while i < len(s):
                        if (
                            i < len(s) - 1
                            and s[i] == _pair[0]
                            and s[i + 1] == _pair[1]
                        ):
                            new.append(_m)
                            i += 2
                        else:
                            new.append(s[i])
                            i += 1
                    s = new
                out.append(s)
            return pa.Table.from_pydict(
                {
                    "syms": pa.array(out, pa.list_(pa.string())),
                    "freq": batch["freq"],
                }
            )

        seqs = seqs.map_batches(apply_merge, batch_format="pyarrow").materialize()

    vocab = {c: i for i, c in enumerate(sorted(chars))}
    for a, b in merges:
        vocab[a + b] = len(vocab)
    return BPETokenizer(merges=tuple(merges), vocab=vocab)


def _encode_unique(
    uniq: np.ndarray, tok: BPETokenizer, cache: dict[str, list[str]]
) -> list[list[str]]:
    out = []
    for w in uniq:
        got = cache.get(w)
        if got is None:
            got = tok.encode_word(w)
            cache[w] = got
        out.append(got)
    return out


def bpe_encode_counts(
    ds: ray.data.Dataset,
    tok: BPETokenizer,
    text_col: str = "text",
    out_col: str = "n_bpe_learned",
) -> ray.data.Dataset:
    """Append the LEARNED-BPE token count per row.  One compiled-regex
    pretokenize per doc, then only the batch's UNIQUE pretokens are
    encoded (per-worker-process cache across batches)."""
    tok_ref = ray.put(tok)

    def fn(batch: pa.Table) -> pa.Table:
        # cache the TOKENIZER per worker keyed on the stable ObjectRef
        # hex (ray.get returns a freshly deserialized object per call,
        # so id()-keyed caches rebuilt every batch) — the pattern
        # stages/curation.py uses for its broadcast state
        t = process_cached(("bpe-tok", tok_ref.hex()), lambda: ray.get(tok_ref))
        cache = process_cached(("bpe-cache", tok_ref.hex()), dict)
        texts = batch[text_col].to_pylist()
        words_per_doc = [_PRETOK_RE.findall(x) if x else [] for x in texts]
        counts = np.fromiter(
            (len(w) for w in words_per_doc), np.int64, len(words_per_doc)
        )
        flat = np.array(
            [w for ws in words_per_doc for w in ws], dtype=object
        )
        if len(flat) == 0:
            return batch.append_column(
                out_col, pa.array(np.zeros(len(texts), np.int64), pa.int64())
            )
        uniq, inv = np.unique(flat, return_inverse=True)
        toks_per_uniq = np.fromiter(
            (len(e) for e in _encode_unique(uniq, t, cache)), np.int64, len(uniq)
        )
        per_word = toks_per_uniq[inv]
        # cumsum differencing (not reduceat): docs with zero pretokens
        # would index reduceat past the end of per_word
        csum = np.concatenate(([0], np.cumsum(per_word)))
        ends = np.cumsum(counts)
        n = csum[ends] - csum[ends - counts]
        return batch.append_column(out_col, pa.array(n, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def bpe_encode_ids(
    ds: ray.data.Dataset,
    tok: BPETokenizer,
    text_col: str = "text",
    out_col: str = "token_ids",
) -> ray.data.Dataset:
    """Append the LEARNED-BPE id sequence per row (``list<int32>``) —
    the tokenize-for-training path that feeds sequence packing."""
    tok_ref = ray.put(tok)

    def fn(batch: pa.Table) -> pa.Table:
        t = process_cached(("bpe-tok", tok_ref.hex()), lambda: ray.get(tok_ref))
        cache = process_cached(("bpe-ids-cache", tok_ref.hex()), dict)
        vocab = t.vocab
        out = []
        for x in batch[text_col].to_pylist():
            ids: list[int] = []
            for w in _PRETOK_RE.findall(x) if x else []:
                got = cache.get(w)
                if got is None:
                    got = [vocab[s] for s in t.encode_word(w)]
                    cache[w] = got
                ids.extend(got)
            out.append(ids)
        return batch.append_column(out_col, pa.array(out, pa.list_(pa.int32())))

    return ds.map_batches(fn, batch_format="pyarrow")
