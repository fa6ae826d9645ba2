"""Character-n-gram language identification (the lingua stand-in).

The reference scores full documents and paragraphs with the lingua detector
(nlp.py:44, :316, :407).  lingua is unavailable in this environment, so the
primary detector here is a deterministic Cavnar–Trenkle-style character
trigram profile: cosine similarity between the text's trigram count vector
and a language profile built from the lexicon (trigrams of each word,
weighted by lexicon frequency).  The *semantics around* the detector —
thresholds, verdict strings LANG / NON-LANG / <UNDEFINED>, supported-language
dispatch — replicate nlp.py:391-459 exactly; only the confidence function
differs (documented divergence, forced by the environment).

Confidence is in [0, 1], deterministic, and identical between the oracle and
the distributed engine (both call this module).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def word_trigrams(word: str):
    padded = f" {word} "
    for i in range(len(padded) - 2):
        yield padded[i : i + 3]


# bound on each per-model word memo (Zipf token streams: hit rate ~1)
_WORD_TRIS_MAX = 1 << 18


class NgramLangModel:
    """Trigram profile of a language, built from its lexicon.

    Loaded once per scorer actor (the reference preloads lingua models once
    per process, nlp.py:44 — same pattern, actor ``__init__``).
    """

    def __init__(self, word_dict: dict[str, int]):
        profile: dict[str, float] = {}
        for w, c in word_dict.items():
            for g in word_trigrams(w.lower()):
                profile[g] = profile.get(g, 0.0) + float(c)
        self.grams = sorted(profile.keys())
        self.index = {g: i for i, g in enumerate(self.grams)}
        self.vec = np.array([profile[g] for g in self.grams], dtype=np.float64)
        self.norm = float(np.sqrt(np.dot(self.vec, self.vec)))
        # word -> trigram-ID-list memo.  Trigram STRINGS are interned to int
        # ids once per distinct word (profile trigrams get their profile
        # index; others a growing out-of-profile id), after which a text's
        # count vector is one np.unique over the flat id list — no per-gram
        # Python dict probes in the hot path.  Zipf token streams make the
        # memo hit rate ~1 (bounded; one per worker process / model).
        self._word_ids: dict[str, list[int]] = {}
        # out-of-profile trigrams ALWAYS get a deterministic hashed id (the
        # dict is purely a bounded per-worker cache of that hash) — the id a
        # gram receives is independent of the worker's processing history,
        # so a document scores identically wherever the task lands.  Hashed
        # collisions (32-bit space) merely merge counts of two unknown grams
        # — a deterministic, same-everywhere perturbation of pnorm.
        self._unk_ids: dict[str, int] = {}
        self._unk_cache_cap = 1 << 20

    def _ids_for_word(self, w: str) -> list[int]:
        a = self._word_ids.get(w)
        if a is None:
            a = self.trigram_ids(w)
            if len(self._word_ids) < _WORD_TRIS_MAX:
                self._word_ids[w] = a
        return a

    def word_ids(self, word: str) -> list[int]:
        """The trigram ids of one whitespace-free word, lowered."""
        return self.trigram_ids(word.lower())

    def trigram_ids(self, w: str) -> list[int]:
        """The trigram ids of one (already lowered) word, in order."""
        padded = f" {w} "
        ids = []
        index = self.index
        unk = self._unk_ids
        for i in range(len(padded) - 2):
            g = padded[i : i + 3]
            j = index.get(g)
            if j is None:
                j = unk.get(g)
                if j is None:
                    h = hashlib.blake2b(g.encode(), digest_size=4).digest()
                    j = len(self.grams) + int.from_bytes(h, "little")
                    if len(unk) < self._unk_cache_cap:
                        unk[g] = j
            ids.append(j)
        return ids

    def confidence(self, text: str) -> float:
        if self.norm == 0.0:
            return 0.0
        words = text.lower().split()
        if not words:
            return 0.0
        ids: list[int] = []
        for w in words:
            ids.extend(self._ids_for_word(w))
        return self.cosine(
            *np.unique(np.array(ids, dtype=np.int64), return_counts=True)
        )

    def cosine(self, uids: np.ndarray, counts: np.ndarray) -> float:
        """Cosine of a text's sorted (trigram id, count) arrays with the
        profile — the one expression every caller shares, so confidences are
        bit-equal however the counts were built."""
        if self.norm == 0.0:
            return 0.0
        cf = counts.astype(np.float64)
        pnorm_sq = float(cf @ cf)
        hit = uids < len(self.grams)
        if pnorm_sq == 0.0 or not hit.any():
            return 0.0
        dot = float(cf[hit] @ self.vec[uids[hit]])
        return dot / (math.sqrt(pnorm_sq) * self.norm)
