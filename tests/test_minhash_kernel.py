"""The batched shingle + MinHash kernel against the per-document
reference it replaced: offsets, shingle hashes, signatures and Jaccard
values must be bit-identical, on texts that stress Python's and Arrow's
notions of whitespace."""

import zlib

import numpy as np
import pyarrow as pa
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecloud_chain_ray.stages import dedup as dd


def ref_shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Per-document reference: ``str.split()`` words, crc32 per word,
    position-salted multiply-xor per k-gram; a text with fewer than k
    words has the one shingle crc32 of its words joined by a space."""
    words = text.split()
    if len(words) < k:
        return np.array([zlib.crc32(" ".join(words).encode())], dtype=np.uint64)
    w = np.array([zlib.crc32(wd.encode()) for wd in words], dtype=np.uint64)
    n = len(w) - k + 1
    with np.errstate(over="ignore"):
        h = w[:n] * dd._SHINGLE_MULTS[0]
        for j in range(1, k):
            h = h ^ (w[j : j + n] * dd._SHINGLE_MULTS[min(j, 2)])
    return h


def ref_signature(mh: dd.MinHasher, text: str) -> np.ndarray:
    sh = ref_shingle_hashes(text, mh.shingle_k)
    with np.errstate(over="ignore"):
        v = mh.a[:, None] * sh[None, :] + mh.b[:, None]
    return np.min(v, axis=1)


# ASCII whitespace plus the characters str.split() also splits on that
# an ASCII-only splitter would miss: separators \x1c-\x1f, NEL, NBSP,
# em and narrow no-break spaces, line/paragraph separators, ideographic
# space
WHITESPACE = [" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
              "\x85", "\xa0", "\u2003", "\u2028", "\u2029", "\u202f", "\u3000"]
WORDS = st.one_of(
    st.sampled_from(
        ["a", "the", "cat", "\xe9", "\u65e5\u672c", "\u03a9\u03bc", "x\u200by", "\U0001f600"]
    ),
    st.text(
        st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
        min_size=1,
        max_size=4,
    ),
)
TEXTS = st.lists(
    st.one_of(WORDS, st.lists(st.sampled_from(WHITESPACE), min_size=1, max_size=3).map("".join)),
    max_size=12,
).map("".join)
EDGE_CASES = ["", " ", " a ", "a", "a b", "\xa0a\u3000b\x85", "\x1ca\x1fb c\x1e", "a  b   c d"]


def _check_batch(texts, k):
    offsets, hashes = dd.shingle_table(pa.array(texts, pa.string()), k)
    ref = [ref_shingle_hashes(t, k) for t in texts]
    assert offsets.dtype == np.int64 and hashes.dtype == np.uint64
    assert offsets.tolist() == np.cumsum([0] + [len(r) for r in ref]).tolist()
    want = np.concatenate(ref) if ref else np.array([], np.uint64)
    assert np.array_equal(hashes, want)
    return offsets, hashes


@given(st.lists(TEXTS, max_size=20), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_shingle_table_matches_per_document_reference(texts, k):
    _check_batch(texts, k)


def test_shingle_table_edge_cases():
    for k in (1, 2, 3):
        _check_batch(EDGE_CASES, k)
    # untrimmed Arrow splitting would give " a " the words ['', 'a', '']
    offsets, hashes = dd.shingle_table(pa.array([" a ", "a"]))
    assert hashes[0] == hashes[1] == zlib.crc32(b"a")
    # large_string input and a chunked column give the same table
    chunked = pa.chunked_array([EDGE_CASES[:3], EDGE_CASES[3:]], pa.large_string())
    assert np.array_equal(dd.shingle_table(chunked)[1], _check_batch(EDGE_CASES, 3)[1])


@given(st.lists(TEXTS, min_size=1, max_size=20), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_signatures_match_per_document_reference(texts, chunk):
    mh = dd.MinHasher(num_perm=16)
    offsets, hashes = dd.shingle_table(pa.array(texts, pa.string()))
    want = np.array([ref_signature(mh, t) for t in texts])
    assert np.array_equal(mh.signatures(offsets, hashes), want)
    # passes capped at a few shingles cut documents across passes
    full = dd._SIG_CHUNK
    dd._SIG_CHUNK = chunk
    try:
        assert np.array_equal(mh.signatures(offsets, hashes), want)
    finally:
        dd._SIG_CHUNK = full


def test_minhash_stage_on_empty_batch():
    batch = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    out = dd.MinHashStage()(batch)
    assert out.num_rows == 0


def _set_jaccard(a: str, b: str) -> float:
    sa, sb = set(ref_shingle_hashes(a).tolist()), set(ref_shingle_hashes(b).tolist())
    union = len(sa | sb)
    return len(sa & sb) / union if union else 0.0


@given(
    st.lists(
        st.one_of(TEXTS, st.sampled_from(["a b c d e", "a b c d f", "x y z a b c"])),
        min_size=1,
        max_size=12,
    ),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_pair_jaccard_matches_python_sets(texts, data):
    n = len(texts)
    tbl = pa.table({"doc_id": pa.array(np.arange(n) * 3, pa.int64()), "text": texts})
    index = dd._shingle_index(tbl, "doc_id", "text")
    # pairs may name a key the index lacks (3n): its set is empty
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=20))
    ka = np.array([3 * a for a, _ in pairs], dtype=np.int64)
    kb = np.array([3 * b for _, b in pairs], dtype=np.int64)
    got = dd._pair_jaccard(index, ka, kb)
    padded = texts + [None]
    want = [
        0.0 if padded[a] is None or padded[b] is None else _set_jaccard(padded[a], padded[b])
        for a, b in pairs
    ]
    assert got.tolist() == want


def test_shingle_index_repeated_key_keeps_last_row():
    tbl = pa.table({"doc_id": [1, 2, 1], "text": ["p q r s", "p q r s", "u v w"]})
    index = dd._shingle_index(tbl, "doc_id", "text")
    got = dd._pair_jaccard(index, np.array([1]), np.array([2]))
    assert got.tolist() == [_set_jaccard("u v w", "p q r s")]


def test_null_text_raises_naming_the_column():
    batch = pa.table({"doc_id": [1, 2], "body": ["a b c", None]})
    with pytest.raises(ValueError, match="'body'"):
        dd.MinHashStage(text_col="body")(batch)
    with pytest.raises(ValueError, match="'body'"):
        dd._shingle_index(batch, "doc_id", "body")
    with pytest.raises(ValueError, match="null"):
        dd.shingle_table(batch["body"])


@pytest.mark.usefixtures("ray_session")
def test_null_text_fails_the_near_dedup_paths():
    docs = ray.data.from_arrow(
        pa.table({"doc_id": [0, 1, 2], "text": ["a b c d", "a b c d", None]})
    )
    with pytest.raises(Exception, match="'text'"):
        dd.minhash_dedup_pairs(docs).materialize()
    # both verify placements refuse it too
    with pytest.raises(ValueError, match="'text'"):
        dd._pair_jaccard_refs(
            docs.materialize().to_arrow_refs(), "doc_id", "text", np.array([0]), np.array([2])
        )
    with pytest.raises(Exception, match="'text'"):
        dd.shingle_sig_table(docs).materialize()


def test_every_code_point_splits_as_in_python():
    """Arrow's whitespace (bidi WS/B/S or category Zs) is Python's."""
    texts = [f"a{chr(c)}b" for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    offsets, _ = dd.shingle_table(pa.array(texts, pa.string()), k=1)
    assert np.diff(offsets).tolist() == [len(t.split()) for t in texts]
