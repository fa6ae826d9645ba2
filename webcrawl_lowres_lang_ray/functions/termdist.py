"""Term-distribution (lexicon cosine) language scoring.

Scalar functions replicate the reference float-for-float:

* ``freqdict_to_termvec``          — termdistribution.py:5-16
* ``aligned_freqdict_to_termvec``  — termdistribution.py:18-28
* ``calc_cosine_similarity``       — termdistribution.py:31-66 (pure-python
                                     dot/norm loop; 0.0 on length mismatch or
                                     zero vector)

``TermVecModel`` is the vectorized equivalent used inside the scorer actor:
the lexicon becomes a token->index dict + a float64 numpy vector loaded ONCE
per actor; a paragraph's aligned projection is accumulated with np.bincount,
and the cosine is a numpy dot.  The conformance test asserts scalar == numpy
to full float64 precision on the synthetic corpus.
"""

from __future__ import annotations

import math

import numpy as np

from .tokenize import tokenize_filtered, token_frequencies, unigram_words, filter_words


def freqdict_to_termvec(word_dict: dict) -> dict:
    keys = sorted(word_dict.keys())
    return {"term_order": keys, "term_vals": [word_dict[k] for k in keys]}


def aligned_freqdict_to_termvec(ground_truth_termvec_rec: dict, word_dict: dict) -> dict:
    order = ground_truth_termvec_rec["term_order"]
    return {
        "term_order": list(order),
        "term_vals": [word_dict.get(k, 0) for k in order],
    }


def calc_cosine_similarity(termvec_rec1: dict, termvec_rec2: dict) -> float:
    vals1 = termvec_rec1["term_vals"]
    vals2 = termvec_rec2["term_vals"]
    if len(vals1) != len(vals2):
        return 0.0
    dot_prod = 0.0
    mag_squared_vec1 = 0.0
    mag_squared_vec2 = 0.0
    for i in range(len(vals1)):
        v1 = vals1[i]
        v2 = vals2[i]
        dot_prod += v1 * v2
        mag_squared_vec1 += v1 * v1
        mag_squared_vec2 += v2 * v2
    if mag_squared_vec1 == 0.0 or mag_squared_vec2 == 0.0:
        return 0.0
    return dot_prod / (math.sqrt(mag_squared_vec1) * math.sqrt(mag_squared_vec2))


def termdist_confidence_scalar(para: str, lang_termvec_rec: dict) -> float:
    """Reference nlp.py:262-273 composition, scalar path (conformance oracle)."""
    words = unigram_words(para)
    tokens = filter_words(words, min_char_len=3)
    freq = dict(token_frequencies(tokens))
    para_vec = aligned_freqdict_to_termvec(lang_termvec_rec, freq)
    return calc_cosine_similarity(para_vec, lang_termvec_rec)


class TermVecModel:
    """Vectorized lexicon cosine scorer (actor-resident state).

    Built once from a ``{token: count}`` lexicon; ``confidence(text)`` runs
    tokenize -> project -> cosine with numpy.  Equivalent to
    ``termdist_confidence_scalar`` (asserted by tests/test_termdist.py).
    """

    def __init__(self, word_dict: dict):
        self.term_order = sorted(word_dict.keys())
        self.index = {t: i for i, t in enumerate(self.term_order)}
        self.vec = np.array(
            [float(word_dict[t]) for t in self.term_order], dtype=np.float64
        )
        self.norm = float(np.sqrt(np.dot(self.vec, self.vec)))

    def confidence(self, text: str) -> float:
        idx = self.index
        return self.cosine(np.asarray(
            [idx[t] for t in tokenize_filtered(text) if t in idx], dtype=np.int64
        ))

    def word_ids(self, word: str) -> list[int]:
        """Lexicon ids of one whitespace-free word's filtered sub-tokens (a
        text's tokens are the concatenation of its words')."""
        idx = self.index
        return [idx[t] for t in tokenize_filtered(word) if t in idx]

    def cosine(self, hit: np.ndarray) -> float:
        """Cosine of the lexicon ids ``hit`` (one per matching token) with the
        lexicon vector."""
        if not len(hit) or self.norm == 0.0:
            return 0.0
        counts = np.bincount(hit, minlength=len(self.vec)).astype(np.float64)
        pnorm = math.sqrt(float(np.dot(counts, counts)))
        if pnorm == 0.0:
            return 0.0
        return float(np.dot(counts, self.vec)) / (pnorm * self.norm)
