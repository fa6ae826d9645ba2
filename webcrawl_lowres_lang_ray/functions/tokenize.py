"""Tokenizers — exact reference semantics (extract.py:35-78).

* ``unigram_words``      — strip punctuation ``[^\\w\\s]`` -> space, split
                           (extract.py:35-41)
* ``bigram_words``       — adjacent pairs.  NOTE the reference has a quirk:
                           ``words.pop()`` seeds ``word1`` with the LAST word
                           (extract.py:52), so the first emitted bigram is
                           ``last_word + " " + first_word`` and the final pair
                           is never emitted.  Reproduced verbatim (documented
                           divergence from "clean" bigram semantics).
* ``filter_words``       — lowercase; drop len<min or containing a digit
                           (extract.py:65-70)
* ``token_frequencies``  — Counter.most_common() ordering (extract.py:72-78)

Plus vectorized numpy/pandas variants for use inside map_batches hot paths:
``tokenize_batch`` operates on a whole string column at once.
"""

from __future__ import annotations

import collections
import re

import numpy as np

_PUNCT_RE = re.compile(r"[^\w\s]")
_HAS_DIGIT_RE = re.compile(r"\d")


def unigram_words(text: str) -> list[str]:
    return _PUNCT_RE.sub(" ", text).split()


def bigram_words(text: str) -> list[str]:
    words = _PUNCT_RE.sub(" ", text).split()
    if not words:
        return []
    bigrams = []
    word1 = words.pop()  # reference quirk: seeds with the LAST word
    for word in words:
        bigrams.append(word1 + " " + word)
        word1 = word
    return bigrams


def _has_digit(w: str) -> bool:
    """Exact reference semantics (any(c.isdigit()), extract.py:68) with a
    compiled-regex fast path for ASCII words (the overwhelming majority)."""
    if w.isascii():
        return _HAS_DIGIT_RE.search(w) is not None
    return any(c.isdigit() for c in w)


_FILTER_MEMO: dict[str, str | None] = {}
_FILTER_MEMO_MAX = 1 << 18
_MISS = object()


def filter_words(words: list[str], min_char_len: int = 3) -> list[str]:
    if min_char_len != 3:  # memo is keyed for the default threshold only
        return [
            w.lower()
            for w in words
            if len(w) >= min_char_len and not _has_digit(w)
        ]
    # per-word memo (Zipf streams -> hit rate ~1); pure per-word function,
    # so results are identical to the uncached comprehension
    memo = _FILTER_MEMO
    out = []
    for w in words:
        r = memo.get(w, _MISS)
        if r is _MISS:
            r = w.lower() if (len(w) >= 3 and not _has_digit(w)) else None
            if len(memo) < _FILTER_MEMO_MAX:
                memo[w] = r
        if r is not None:
            out.append(r)
    return out


def token_frequencies(tokens: list[str]) -> list[tuple[str, int]]:
    return collections.Counter(tokens).most_common()


def tokenize_filtered(text: str, min_char_len: int = 3) -> list[str]:
    """unigram_words + filter_words in one call (the common composition)."""
    return filter_words(unigram_words(text), min_char_len)


# ---------------------------------------------------------------------------
# Vectorized batch kernels
# ---------------------------------------------------------------------------

def tokenize_batch(texts: np.ndarray, min_char_len: int = 3) -> list[list[str]]:
    """Apply tokenize_filtered over a column; returns list-of-token-lists.

    The per-string work is regex + split (C-level); the Python loop is over
    rows only, each row doing vectorized string ops — acceptable for a text
    column.  Used by the lexicon G1 pipeline and the quality stage.
    """
    sub = _PUNCT_RE.sub
    out = []
    for t in texts:
        if t is None:
            out.append([])
            continue
        toks = sub(" ", t).split()
        out.append(
            [w.lower() for w in toks if len(w) >= min_char_len and not _has_digit(w)]
        )
    return out


def token_partial_counts_arrow(col, min_char_len: int = 3):
    """(token, count) partial-count table for one batch — the Arrow-native
    fast path for the G1 lexicon aggregation (reference extract.py:35-78).

    All four steps (punct->space, whitespace split, len/digit filter,
    lower) run as pyarrow.compute kernels over the whole column — no
    Python loop, no Arrow->pandas object conversion.  RE2's ``\\w \\s
    [0-9]`` agree exactly with the Python reference semantics on ASCII
    text (``\\x1c``-class control chars differ in *classification* but
    yield identical token boundaries either way); any batch containing a
    null or non-ASCII row falls back to the per-row reference path
    (``tokenize_batch``), so output parity is exact in ALL cases — pinned
    against tokenize_batch in tests/test_functions.py."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.Table):
        col = col.column(0)
    empty = pa.table(
        {"token": pa.array([], type=pa.string()),
         "count": pa.array([], type=pa.int64())}
    )
    if len(col) == 0:
        return empty
    if col.null_count or not pc.all(pc.string_is_ascii(col)).as_py():
        counter: collections.Counter = collections.Counter()
        for toks in tokenize_batch(col.to_numpy(zero_copy_only=False), min_char_len):
            counter.update(toks)
        if not counter:
            return empty
        return pa.table(
            {"token": pa.array(list(counter.keys()), type=pa.string()),
             "count": pa.array(list(counter.values()), type=pa.int64())}
        )
    cleaned = pc.replace_substring_regex(col, r"[^\w\s]", " ")
    toks = pc.list_flatten(pc.utf8_split_whitespace(cleaned))
    keep = pc.and_(
        pc.greater_equal(pc.utf8_length(toks), min_char_len),
        pc.invert(pc.match_substring_regex(toks, r"[0-9]")),
    )
    toks = pc.utf8_lower(pc.filter(toks, keep))
    if len(toks) == 0:
        return empty
    vc = pc.value_counts(toks)
    return pa.table(
        {"token": vc.field("values"), "count": pc.cast(vc.field("counts"), pa.int64())}
    )
