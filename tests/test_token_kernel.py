"""The byte-pass token, upper-case and digit counts (stages/text.py)
against the RE2 kernels they replaced: ``split_pattern_regex`` over the
trimmed text for ``n_tokens``, ``count_substring_regex`` for ``n_upper``
and ``n_digit``.  The texts mix every whitespace class Python, Arrow's
trim and RE2's ``\\s`` disagree on, non-ASCII text, empty and
all-whitespace texts and nulls; the arrays come sliced, chunked and as
``large_string``."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecloud_chain_ray.stages.text import quality_score_batch, token_count_batch


def ref_n_tokens(col) -> list:
    """Reference: ``len(regexp_split_to_array(trim(text), '\\s+'))``."""
    trimmed = pc.utf8_trim_whitespace(col)
    return pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+")).to_pylist()


def ref_count(col, pattern: str) -> list:
    return pc.count_substring_regex(col, pattern).to_pylist()


# RE2 \s is [\t\n\f\r ]; \v, the separators \x1c-\x1f, NEL, NBSP and
# the ideographic space are whitespace to Python and to Arrow's trim
# but not to RE2
WHITESPACE = [" ", "\t", "\n", "\x0b", "\x0c", "\r", "\r\n", "\x1c", "\x1d", "\x1e", "\x1f",
              "\x85", "\xa0", "　"]
WORDS = st.one_of(
    st.sampled_from(["a", "The", "CAT", "x9", "\xe9", "日本", "Αμ", "\U0001f600"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
)
TEXTS = st.one_of(
    st.none(),
    st.lists(
        st.one_of(WORDS, st.lists(st.sampled_from(WHITESPACE), min_size=1, max_size=3).map("".join)),
        max_size=10,
    ).map("".join),
)


@st.composite
def text_columns(draw):
    """A text column as a ChunkedArray: ``string`` or ``large_string``,
    cut into chunks, each chunk possibly a slice of a wider array."""
    texts = draw(st.lists(TEXTS, max_size=12))
    typ = draw(st.sampled_from([pa.string(), pa.large_string()]))
    cuts = sorted(draw(st.lists(st.integers(0, len(texts)), max_size=3)))
    chunks = []
    for lo, hi in zip([0, *cuts], [*cuts, len(texts)]):
        pad_l = draw(st.lists(TEXTS, max_size=2))
        pad_r = draw(st.lists(TEXTS, max_size=2))
        wide = pa.array(pad_l + texts[lo:hi] + pad_r, typ)
        chunks.append(wide.slice(len(pad_l), hi - lo))
    return pa.chunked_array(chunks, typ)


@settings(max_examples=300, deadline=None)
@given(text_columns())
def test_counts_equal_regex_reference(col):
    got = quality_score_batch(token_count_batch(pa.table({"text": col})))
    assert got["n_tokens"].type == pa.int64()
    assert got["n_tokens"].to_pylist() == ref_n_tokens(col)
    assert got["n_upper"].to_pylist() == ref_count(col, "[A-Z]")
    assert got["n_digit"].to_pylist() == ref_count(col, "[0-9]")


@pytest.mark.parametrize(
    "text, n_tokens",
    [
        ("", 1),
        ("   \t\n ", 1),
        ("a b", 2),
        ("a\x0bb", 1),  # \v is not RE2 \s
        ("a\x0cb\rc\td\ne", 5),
        ("a\x1cb\x85c\xa0d　e", 1),
        (" 日本  \U0001f600\t", 2),
        (None, None),
    ],
)
def test_token_count_examples(text, n_tokens):
    col = pa.chunked_array([pa.array([text], pa.string())])
    assert ref_n_tokens(col) == [n_tokens]
    assert token_count_batch(pa.table({"text": col}))["n_tokens"].to_pylist() == [n_tokens]


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_empty_batch_and_empty_data_buffer(typ):
    for texts in ([], [""], ["", None, ""], [None]):
        col = pa.chunked_array([pa.array(texts, typ)], typ)
        got = quality_score_batch(token_count_batch(pa.table({"text": col})))
        assert got["n_tokens"].to_pylist() == ref_n_tokens(col)
        assert got["n_upper"].to_pylist() == ref_count(col, "[A-Z]")
    zero_chunks = pa.table({"text": pa.chunked_array([], typ)})
    assert token_count_batch(zero_chunks)["n_tokens"].to_pylist() == []


def test_quality_unchanged_on_large_string():
    rng = np.random.default_rng(3)
    words = np.array(["Alpha", "beta", "GAMMA", "d3lta", "\xe9t\xe9", "x"])
    texts = [" ".join(rng.choice(words, rng.integers(0, 150))) for _ in range(200)]
    a = quality_score_batch(pa.table({"text": pa.array(texts, pa.string())}))
    b = quality_score_batch(pa.table({"text": pa.array(texts, pa.large_string())}))
    assert a.drop_columns(["text"]).equals(b.drop_columns(["text"]))
    nt = np.array(ref_n_tokens(pa.array(texts)), dtype=np.float64)
    nu = np.array(ref_count(pa.array(texts), "[A-Z]"), dtype=np.float64)
    nc = np.array(pc.utf8_length(pa.array(texts)).to_pylist(), dtype=np.float64)
    want = np.minimum(nt, 100.0) / 100.0 * (1.0 - nu / np.maximum(nc, 1.0))
    assert a["quality"].to_pylist() == want.tolist()
