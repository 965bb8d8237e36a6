"""Exact substring dedup (stages/substring_dedup.py): exact-mode span
equality vs a brute-force k-gram reference, within-doc repeats, the
winnowing guarantee (anchors find every shared run >= k+w-1 words),
span cutting, edge cases, and a volume run proving the exchange's
task count is bounded by its width, not by fingerprint cardinality."""

import re
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.stages.substring_dedup import (
    cut_duplicate_spans,
    dedup_substring_spans,
    window_fingerprints,
)

_WS = re.compile(r"[\t\n\f\r ]+")


def _brute_spans(docs, k, min_count=2, cross_doc=True, keep_first=False):
    occ = defaultdict(list)
    for d, t in docs:
        ws = _WS.split(t.strip(" "))
        for p in range(len(ws) - k + 1):
            occ[tuple(ws[p : p + k])].append((d, p))
    flagged = defaultdict(list)
    for lst in occ.values():
        if len(lst) >= min_count and (
            not cross_doc or len({d for d, _ in lst}) >= 2
        ):
            canonical = min(lst) if keep_first else None
            for d, p in lst:
                if (d, p) != canonical:
                    flagged[d].append(p)
    spans = []
    for d, ps in flagged.items():
        ps.sort()
        s, e = ps[0], ps[0] + k
        for p in ps[1:]:
            if p <= e:
                e = max(e, p + k)
            else:
                spans.append((d, s, e))
                s, e = p, p + k
        spans.append((d, s, e))
    return sorted(spans)


def _mk_corpus(seed=7, n=40, planted_every=5, run_len=15):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(50)]

    def mk(m):
        return " ".join(rng.choice(vocab, m))

    shared = mk(run_len)
    docs = []
    for i in range(n):
        t = mk(30)
        if i % planted_every == 0:
            t = t + " " + shared + " " + mk(10)
        docs.append((i, t))
    rep = mk(12)  # within-doc repeat
    docs.append((100, rep + " " + mk(5) + " " + rep))
    return docs, shared


def _ds_of(docs):
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs], pa.string()),
        }
    )
    return ray.data.from_arrow(tbl).repartition(4)


def _take_spans(ds):
    return sorted((r["doc_id"], r["span_start"], r["span_end"]) for r in ds.take_all())


def test_exact_spans_match_bruteforce(at_width):
    docs, _ = _mk_corpus()
    ds = _ds_of(docs)
    with at_width(8):
        for cross in (True, False):
            got = _take_spans(dedup_substring_spans(ds, k=8, cross_doc=cross))
            assert got == _brute_spans(docs, 8, cross_doc=cross)
        # within-doc repeat only shows with cross_doc=False
        within = set(_take_spans(dedup_substring_spans(ds, k=8, cross_doc=False)))
        cross = set(_take_spans(dedup_substring_spans(ds, k=8, cross_doc=True)))
    assert {d for d, _, _ in within - cross} == {100}


def test_keep_first_spares_canonical_copy(at_width):
    """keep_first=True matches the brute reference (min-(key,pos)
    occurrence unflagged per window) and leaves the min-key doc of a
    cross-doc shared run byte-identical through the cut."""
    docs, _ = _mk_corpus()
    ds = _ds_of(docs)
    with at_width(8):
        got = _take_spans(dedup_substring_spans(ds, k=8, keep_first=True))
    assert got == _brute_spans(docs, 8, keep_first=True)
    # planted docs 0,5,10,... share one run; doc 0 is the min key, so
    # its copy is canonical for every window -> no spans, text intact
    flagged_docs = {d for d, _, _ in got}
    assert 0 not in flagged_docs
    planted = {d for d, _ in docs[:40:5]}
    assert planted - {0} <= flagged_docs
    with at_width(8):
        spans = dedup_substring_spans(ds, k=8, keep_first=True)
        cleaned = {r["doc_id"]: r["text"] for r in cut_duplicate_spans(ds, spans).take_all()}
    raw = dict(docs)
    assert cleaned[0] == raw[0]
    assert all(cleaned[d] != raw[d] for d in planted - {0})


def test_winnow_guarantee_and_containment(at_width):
    # planted run of 15 words, k=8, w=4: 15 >= k+w-1=11 -> every
    # planted doc must surface; every winnowed span lies inside an
    # exact-mode span (anchors are a subset of all positions)
    docs, _ = _mk_corpus()
    ds = _ds_of(docs)
    with at_width(8):
        got = _take_spans(dedup_substring_spans(ds, k=8, winnow=4))
    exact = _brute_spans(docs, 8)
    for d, s, e in got:
        assert any(d == d2 and s >= s2 and e <= e2 for d2, s2, e2 in exact)
    planted = {d for d, _ in docs[:40:5]}
    assert planted <= {d for d, _, _ in got}
    # winnowing shrinks the shuffled row count
    n_all = window_fingerprints(ds, k=8).count()
    n_win = window_fingerprints(ds, k=8, winnow=4).count()
    assert 0 < n_win < n_all


def test_cut_removes_flagged_words(at_width):
    docs, _ = _mk_corpus()
    ds = _ds_of(docs)
    with at_width(8):
        spans = dedup_substring_spans(ds, k=8)
        cleaned = {r["doc_id"]: r["text"] for r in cut_duplicate_spans(ds, spans).take_all()}
    bspans = defaultdict(list)
    for d, s, e in _brute_spans(docs, 8):
        bspans[d].append((s, e))
    for d, t in docs:
        ws = _WS.split(t.strip(" "))
        drop = np.zeros(len(ws), bool)
        for s, e in bspans.get(d, ()):
            drop[s:e] = True
        assert cleaned[d] == " ".join(w for w, x in zip(ws, drop) if not x)
    assert set(cleaned) == {d for d, _ in docs}  # left join keeps clean docs


def test_edges_short_docs_and_no_dups(at_width):
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["one two", "a b c d e f g h i", ""], pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    with at_width(4):
        spans = dedup_substring_spans(ds, k=8)
    assert spans.count() == 0
    sch = spans.schema(fetch_if_missing=False)
    if sch is not None:  # fully-empty groupbys legitimately have no schema
        assert set(sch.names) == {"doc_id", "span_start", "span_end"}
    # cut with an empty span set passes text through byte-identically
    with at_width(4):
        out = {r["doc_id"]: r["text"] for r in cut_duplicate_spans(ds, spans).take_all()}
    assert out == {0: "one two", 1: "a b c d e f g h i", 2: ""}


def test_winnow_guarantee_property():
    """Kernel-level winnowing property (Schleimer et al.): for ANY two
    word sequences sharing a contiguous run of >= k+w-1 words, the
    winnowed anchor fingerprint sets intersect on a fingerprint from
    inside the shared run — randomized over run lengths, positions and
    context contents."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from tilecloud_chain_ray.stages.substring_dedup import (
        _batch_window_hashes,
        _winnow_anchors,
    )

    k, w = 5, 3

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        run_len=st.integers(k + w - 1, 25),
        pre_a=st.integers(0, 12),
        pre_b=st.integers(0, 12),
        post_a=st.integers(0, 12),
        post_b=st.integers(0, 12),
    )
    def check(seed, run_len, pre_a, pre_b, post_a, post_b):
        rng = np.random.default_rng(seed)
        vocab = [f"v{i}" for i in range(30)]
        run = list(rng.choice(vocab, run_len))
        doc_a = list(rng.choice(vocab, pre_a)) + run + list(rng.choice(vocab, post_a))
        doc_b = list(rng.choice(vocab, pre_b)) + run + list(rng.choice(vocab, post_b))
        texts = [" ".join(doc_a), " ".join(doc_b)]
        docs, pos, fp = _batch_window_hashes(texts, k)
        sel = _winnow_anchors(docs, pos, fp, w)
        d, p, f = docs[sel], pos[sel], fp[sel]
        # shared-run window fingerprints per doc (positions inside the run)
        in_run_a = (d == 0) & (p >= pre_a) & (p <= pre_a + run_len - k)
        in_run_b = (d == 1) & (p >= pre_b) & (p <= pre_b + run_len - k)
        assert set(f[in_run_a]) & set(f[in_run_b]), (
            seed, run_len, pre_a, pre_b, post_a, post_b
        )

    check()


def test_volume_bucket_bounded(at_width):
    # 30k docs, ~3k distinct boilerplate sentences each duplicated into
    # two docs: distinct-fingerprint cardinality is row-scale, but the
    # exchange's task count stays its width — the run must finish
    # in seconds, not minutes (per-group scheduling at row-scale keys
    # is the ~30x failure mode the salted pattern exists to avoid).
    rng = np.random.default_rng(3)
    vocab = np.array([f"t{i}" for i in range(1000)])
    n_pairs = 3000
    # runs of k+w-1 = 13 words: the winnow guarantee needs w consecutive
    # shared fingerprints so one shared anchor is forced in every copy
    boiler = [" ".join(rng.choice(vocab, 13)) for _ in range(n_pairs)]
    ids, texts = [], []
    for i in range(30000):
        t = " ".join(rng.choice(vocab, 25))
        if i < 2 * n_pairs:
            t = t + " " + boiler[i % n_pairs]
        ids.append(i)
        texts.append(t)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())})
    ).repartition(8)
    t0 = time.perf_counter()
    with at_width(32):
        rows = _take_spans(dedup_substring_spans(ds, k=10, winnow=4))
    wall = time.perf_counter() - t0
    # every planted pair found (13-word runs >= k+w-1 force a shared
    # anchor), plus possibly rare vocab-collision extras
    planted = {i for i in range(2 * n_pairs)}
    found = {d for d, _, _ in rows}
    assert planted <= found
    assert wall < 60, wall
