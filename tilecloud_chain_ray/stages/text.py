"""Text-analysis stages over the documents/pages tables.

Large-scale training-data operators (SURVEY.md §2 additions): language
ID (stopword-count heuristic), quality scoring, token counting,
document fingerprinting.  Every per-batch body is vectorized
(pyarrow.compute kernels); formulas are chosen to be exactly
reproducible in the DuckDB oracle (integer counts, fixed float
expressions).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# stopword markers per language, counted as substrings with surrounding
# spaces (exactly `(length(t) - length(replace(t, m, ''))) / length(m)`
# in SQL)
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": (" the ", " and ", " of "),
    "de": (" der ", " und ", " die "),
    "fr": (" le ", " et ", " les "),
    "it": (" il ", " e ", " di "),
}


def _byte_counts(col, mark) -> pa.ChunkedArray:
    """Per-row int64 count of the UTF-8 data bytes that ``mark`` flags.

    ``mark`` maps a row range's ``uint8`` data to a bool flag per byte.
    One numpy pass over each chunk's offsets and data buffers (only the
    bytes the chunk's rows span, so a sliced batch does not rescan its
    parent block); null rows stay null.  An ASCII byte class counts
    exactly this way: every byte of a multibyte UTF-8 character is
    >= 0x80.
    """
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out = []
    for arr in filter(len, chunks):
        # offsets' own width bounds a row's byte length, so its count too
        width = np.dtype(np.int64 if pa.types.is_large_string(arr.type) else np.int32)
        _, offsets, data = arr.buffers()
        offsets = np.frombuffer(offsets, width, len(arr) + 1, arr.offset * width.itemsize)
        first, last = int(offsets[0]), int(offsets[-1])
        data = np.frombuffer(data, np.uint8)[first:last] if last > first else np.empty(0, np.uint8)
        # one False past the end: every offset, the last row's end
        # included, then indexes the flags
        flags = np.append(mark(data), False).view(np.uint8)
        bounds = (offsets - first).astype(np.intp)
        n = np.add.reduceat(flags, bounds, dtype=width)[:-1]
        n[bounds[1:] == bounds[:-1]] = 0  # reduceat gives flags[i] for an empty range
        mask = arr.is_null().to_numpy(zero_copy_only=False) if arr.null_count else None
        out.append(pa.array(n, pa.int64(), mask=mask))
    return pa.chunked_array(out, pa.int64())


def _space_run_starts(data: np.ndarray) -> np.ndarray:
    """First byte of each run of RE2 ``\\s`` bytes: [\\t\\n\\f\\r ], not \\v."""
    space = data == ord(" ")
    tab = data - np.uint8(ord("\t"))  # \t \n \v \f \r are 9..13
    space |= (tab < 5) & (tab != 2)
    starts = space.copy()
    starts[1:] &= ~space[:-1]
    return starts


def _is_upper(data: np.ndarray) -> np.ndarray:
    return data - np.uint8(ord("A")) < 26


def _is_digit(data: np.ndarray) -> np.ndarray:
    return data - np.uint8(ord("0")) < 10


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``n_tokens``: whitespace-separated chunks of trimmed text.

    SQL equivalent: ``len(regexp_split_to_array(trim(text), '\\s+'))``.

    Counted from the UTF-8 bytes, not by building the split: a trimmed
    text never starts or ends with a ``\\s`` byte, so its chunk count is
    the number of ``\\s`` runs inside it plus one (empty text -> [''],
    1 element, in both arrow and duckdb semantics).
    """
    trimmed = pc.utf8_trim_whitespace(batch[text_col])
    return batch.append_column("n_tokens", pc.add(_byte_counts(trimmed, _space_run_starts), 1))


# GPT-2-style pretokenizer shape, ASCII-simplified so python re, Arrow
# RE2 and DuckDB RE2 agree exactly: optional leading space + run of
# letters | digits | other-non-space
BPE_TOKEN_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"


def bpe_token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``n_bpe_tokens``: BPE-ish pretokenizer piece count.

    SQL equivalent: ``len(regexp_extract_all(text, pattern))``.
    """
    n = pc.count_substring_regex(batch[text_col], BPE_TOKEN_PATTERN).cast(pa.int64())
    return batch.append_column("n_bpe_tokens", n)


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append marker-count columns + ``lang_pred`` (argmax, tie -> first
    in en/de/fr/it order — reproducible in SQL with a CASE chain)."""
    text = batch[text_col]
    padded = pc.binary_join_element_wise(
        pa.array([" "] * len(text)), text, pa.array([" "] * len(text)), ""
    )
    scores = {}
    for lang, markers in LANG_MARKERS.items():
        total = None
        for m in markers:
            c = pc.count_substring(padded, m).cast(pa.int64())
            total = c if total is None else pc.add(total, c)
        scores[lang] = total.to_numpy(zero_copy_only=False)
    langs = list(LANG_MARKERS)
    mat = np.stack([scores[l] for l in langs])  # (4, n)
    pred_idx = np.argmax(mat, axis=0)  # first max wins (ties -> en<de<fr<it order)
    pred = np.array(langs, dtype=object)[pred_idx]
    out = batch
    for lang in langs:
        out = out.append_column(f"score_{lang}", pa.array(scores[lang], pa.int64()))
    return out.append_column("lang_pred", pa.array(pred.tolist(), pa.string()))


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``n_chars_text``, ``n_upper``, ``n_digit``, ``quality``.

    quality = token-length factor * (1 - upper_ratio) — a deterministic
    toy of the usual length/punct/case heuristics, with a fixed float
    expression both engines evaluate identically:
    ``least(n_tokens, 100)/100.0 * (1.0 - n_upper*1.0/greatest(n_chars,1))``
    """
    if "n_tokens" not in batch.schema.names:
        batch = token_count_batch(batch, text_col)
    text = batch[text_col]
    n_chars = pc.utf8_length(text).cast(pa.int64())
    n_upper = _byte_counts(text, _is_upper)
    n_digit = _byte_counts(text, _is_digit)
    nt = batch["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
    nc = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
    nu = n_upper.to_numpy(zero_copy_only=False).astype(np.float64)
    quality = np.minimum(nt, 100.0) / 100.0 * (1.0 - nu / np.maximum(nc, 1.0))
    out = batch.append_column("n_chars_text", n_chars)
    out = out.append_column("n_upper", n_upper)
    out = out.append_column("n_digit", n_digit)
    return out.append_column("quality", pa.array(quality, pa.float64()))


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``fingerprint``: min crc32 over rolling byte 8-grams —
    a content-defined document fingerprint (rows-only oracle)."""
    texts = batch[text_col].to_pylist()
    fps = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        b = t.encode("utf-8")
        if len(b) < 8:
            fps[i] = zlib.crc32(b)
            continue
        arr = np.frombuffer(b, dtype=np.uint8)
        # vectorized rolling polynomial hash of 8-grams (mod 2^32)
        windows = np.lib.stride_tricks.sliding_window_view(arr, 8).astype(np.uint64)
        mults = np.uint64(31) ** np.arange(8, dtype=np.uint64)
        h = (windows * mults).sum(axis=1) & np.uint64(0xFFFFFFFF)
        fps[i] = int(h.min())
    return batch.append_column("fingerprint", pa.array(fps, pa.int64()))


def redact_batch(
    batch: pa.Table,
    text_col: str = "text",
    pattern: str = "[0-9]+",
    replacement: str = "<NUM>",
    out_col: str = "redacted",
) -> pa.Table:
    """Append ``n_redactions`` (non-overlapping pattern matches) and the
    redacted text — the PII/number-scrubbing pass of a training-data
    pipeline, pure RE2 kernels.

    SQL equivalents: ``len(regexp_extract_all(text, pattern))`` and
    ``regexp_replace(text, pattern, replacement, 'g')``.
    """
    n = pc.count_substring_regex(batch[text_col], pattern).cast(pa.int64())
    red = pc.replace_substring_regex(batch[text_col], pattern, replacement)
    out = batch.append_column("n_redactions", n)
    return out.append_column(out_col, red)
