"""Document language scoring — the reference's core NLP payload (N1–N5).

Replicates ``nlp.detect_language_lingua`` / ``detect_para_language_lingua``
(nlp.py:276-459) with the primary detector swapped for the deterministic
n-gram model (functions/langid.py) and the cosine lexicon scorer
(functions/termdist.py):

* full-doc verdict: ``lang`` if full_conf > min_full_confidence else
  ``NON-<lang>``; ``<UNDEFINED>`` + conf 0.0 when the primary model doesn't
  support the language (nlp.py:405-416).
* paragraph loop: paragraphs with > min word count (threshold choice depends
  on supported-ness, nlp.py:293); per-para primary confidence counted as a
  match at ``>= min_para_confidence`` (nlp.py:344) and termdist cosine at
  ``>= min_termdist_para_confidence`` (nlp.py:336).
* rolled-up fields: para_count, para_count_lrl (primary count if supported
  else termdist count, nlp.py:428), para_perc_lrl rounded 2dp (nlp.py:429,458),
  full_conf rounded 2dp (nlp.py:455).
* rejection policy (N5, lrl-crawler.py:430-468): no text / all-whitespace
  cleaned text / no verdict / para_count_lrl == 0.

Two implementations of one function.  ``score_text_reference`` is the
per-paragraph composition above, a direct transcription of the reference;
the oracle and the corpus goldens call it.  ``score_text`` (the engine's)
visits each word once: it splits each line once, looks every raw word up
once in a bounded memo of per-word id rows (trigram ids, lexicon ids),
gathers the ids with numpy and builds the document and every paragraph's
counts from one id array — batched key probes instead of one dict probe per
word per text (PAPERS: *Analyzing Vectorized Hash Tables Across CPU
Architectures*, VLDB 2023).  Both end in the same cosine expressions over
the same sorted (id, count) arrays, so confidences are bit-equal
(tests/test_properties.py and every oracle-gated crawl pin it).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..config import CrawlConfig
from .langid import _WORD_TRIS_MAX, NgramLangModel
from .termdist import TermVecModel
from .textnorm import clean_text, convert_text_to_paras


@dataclass
class ScoreResult:
    full_lang: str | None
    full_conf: float
    para_count: int
    para_count_lrl: int
    para_perc_lrl: float
    rejected: bool
    reject_reason: str
    # matched paragraphs, for the lexicon-regeneration loop (N6, extract.py:150-184)
    termdist_match_paras: list[str]
    primary_match_paras: list[str]


class _IdRows:
    """Growable CSR table: row r holds the ids ``flat[off[r]:off[r + 1]]``."""

    def __init__(self):
        self.flat = np.empty(1 << 12, dtype=np.int64)
        self.off = np.zeros(1 << 10, dtype=np.int64)
        self.nrows = 0

    def append(self, rows: list[list[int]]) -> None:
        lens = np.fromiter(map(len, rows), np.int64, len(rows))
        start = int(self.off[self.nrows])
        ends = start + np.cumsum(lens)
        end = int(ends[-1])
        self.flat = _fit(self.flat, end)
        self.off = _fit(self.off, self.nrows + 1 + len(rows))
        self.flat[start:end] = np.fromiter(chain.from_iterable(rows), np.int64, end - start)
        self.off[self.nrows + 1 : self.nrows + 1 + len(rows)] = ends
        self.nrows += len(rows)

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(the ids of ``rows`` concatenated in order, each row's length)."""
        starts = self.off[rows]
        lens = self.off[rows + 1] - starts
        ends = np.cumsum(lens)
        total = int(ends[-1]) if len(ends) else 0
        return self.flat[np.arange(total) + np.repeat(starts - ends + lens, lens)], lens


def _fit(a: np.ndarray, n: int) -> np.ndarray:
    if n <= len(a):
        return a
    out = np.empty(max(n, 2 * len(a)), dtype=a.dtype)
    out[: len(a)] = a
    return out


class _WordMemo:
    """Bounded memo from a raw word to its row in one ``_IdRows`` table per
    id function.  When a text's new words would push it past ``cap`` it
    restarts from that text's words alone, so what a text gets never depends
    on what the memo held before."""

    def __init__(self, id_fns, cap: int = _WORD_TRIS_MAX):
        self.id_fns = id_fns
        self.cap = cap
        self._clear()

    def _clear(self) -> None:
        self.row_of: dict[str, int] = {}
        self.tables = [_IdRows() for _ in self.id_fns]

    def rows(self, words: list[str]) -> np.ndarray:
        rows = list(map(self.row_of.get, words))
        if None in rows:
            new = list(dict.fromkeys(w for w, r in zip(words, rows) if r is None))
            if len(self.row_of) + len(new) > self.cap:
                self._clear()
                new = list(dict.fromkeys(words))
            base = len(self.row_of)
            self.row_of.update(zip(new, range(base, base + len(new))))
            for table, fn in zip(self.tables, self.id_fns):
                table.append([fn(w) for w in new])
            rows = list(map(self.row_of.get, words))
        return np.array(rows, dtype=np.int64)


class LangScoringModel:
    """The per-actor scorer state: n-gram model + lexicon termvec, built once."""

    def __init__(self, word_dict: dict[str, int], cfg: CrawlConfig):
        self.cfg = cfg
        self.termvec = TermVecModel(word_dict)
        self.ngram = NgramLangModel(word_dict) if cfg.lang_supported else None
        fns = [self.termvec.word_ids]
        if self.ngram is not None:
            fns.append(self.ngram.word_ids)
            # (paragraph, trigram id) keys: hashed ids stay below 2**32 + #grams
            self._id_bits = (len(self.ngram.grams) + (1 << 32)).bit_length()
        self.memo = _WordMemo(fns)

    def score_text(self, extracted_text: str | None) -> ScoreResult:
        """Full N3+N5 semantics over already-extracted text (one pass)."""
        return self._score(extracted_text, self.confidences)

    def score_text_reference(self, extracted_text: str | None) -> ScoreResult:
        """``score_text`` by the per-paragraph reference composition."""
        return self._score(extracted_text, self.confidences_reference)

    def _supported(self) -> bool:
        return self.cfg.lang_supported and self.ngram is not None

    def _min_para_word_len(self) -> int:
        cfg = self.cfg
        if self._supported():
            return cfg.min_para_word_len
        return cfg.min_termdist_para_word_len

    def confidences_reference(self, cleaned: str):
        """(full-text confidence, paragraphs, their primary confidences, their
        termdist confidences) of cleaned text, one model call per text."""
        supported = self._supported()
        full_conf = self.ngram.confidence(cleaned) if supported else 0.0
        paras = convert_text_to_paras(cleaned, self._min_para_word_len())
        td = [self.termvec.confidence(p) for p in paras]
        primary = [self.ngram.confidence(p) for p in paras] if supported else []
        return full_conf, paras, primary, td

    def confidences(self, cleaned: str):
        """``confidences_reference`` from one split and one memo lookup per
        word: a paragraph is a line of more than the minimum word count, and
        every line boundary is whitespace, so the text's words are its lines'
        words in order."""
        lines = cleaned.splitlines()
        line_words = [ln.split() for ln in lines]
        nwords = np.fromiter(map(len, line_words), np.int64, len(lines))
        para_lines = np.flatnonzero(nwords > max(self._min_para_word_len(), 0))
        paras = [lines[i].strip() for i in para_lines]
        line_para = np.full(len(lines), -1, dtype=np.int64)
        line_para[para_lines] = np.arange(len(paras))
        word_para = np.repeat(line_para, nwords)  # -1: word outside paragraphs
        rows = self.memo.rows(list(chain.from_iterable(line_words)))
        tables = self.memo.tables  # [lexicon ids, trigram ids if supported]

        in_para = word_para >= 0
        lex, lex_lens = tables[0].gather(rows[in_para])
        bounds = np.searchsorted(
            np.repeat(word_para[in_para], lex_lens), np.arange(len(paras) + 1)
        )
        td = [self.termvec.cosine(lex[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        if not self._supported():
            return 0.0, paras, [], td

        ngram = self.ngram
        tris, tri_lens = tables[1].gather(rows)
        full_conf = ngram.cosine(*np.unique(tris, return_counts=True)) if len(tris) else 0.0
        tri_para = np.repeat(word_para, tri_lens)
        keep = tri_para >= 0
        keys, counts = np.unique(
            (tri_para[keep] << self._id_bits) | tris[keep], return_counts=True
        )
        bounds = np.searchsorted(keys >> self._id_bits, np.arange(len(paras) + 1))
        uids = keys & ((1 << self._id_bits) - 1)
        primary = [
            ngram.cosine(uids[a:b], counts[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
        ]
        return full_conf, paras, primary, td

    def _score(self, extracted_text: str | None, confidences) -> ScoreResult:
        cfg = self.cfg
        if extracted_text is None:
            return _rejected("no extracted text")
        cleaned = clean_text(extracted_text)
        # NB: ''.isspace() is False — empty text intentionally falls through to
        # scoring (NON-LANG verdict, 0 paras), exactly as lrl-crawler.py:436.
        if cleaned.isspace():
            return _rejected("text all whitespace")

        supported = self._supported()
        full_conf, paras, primary, td = confidences(cleaned)
        if supported:
            if full_conf > cfg.min_full_confidence:
                full_lang = cfg.lang
            else:
                full_lang = f"NON-{cfg.lang}"
        else:
            full_lang = "<UNDEFINED>"
            full_conf = 0.0

        termdist_matches = [
            p for p, c in zip(paras, td) if c >= cfg.min_termdist_para_confidence
        ]
        primary_matches = [p for p, c in zip(paras, primary) if c >= cfg.min_para_confidence]

        num_paras = len(paras)
        lrl_match_count = len(primary_matches) if supported else len(termdist_matches)
        perc = (lrl_match_count / num_paras) * 100 if num_paras > 0 else 0

        rejected = lrl_match_count == 0
        reason = "no LRL paragraphs" if rejected else ""
        return ScoreResult(
            full_lang=full_lang,
            full_conf=round(full_conf, 2),
            para_count=num_paras,
            para_count_lrl=lrl_match_count,
            para_perc_lrl=round(perc, 2),
            rejected=rejected,
            reject_reason=reason,
            termdist_match_paras=termdist_matches,
            primary_match_paras=primary_matches,
        )


def _rejected(reason: str) -> ScoreResult:
    return ScoreResult(
        full_lang=None,
        full_conf=0.0,
        para_count=0,
        para_count_lrl=0,
        para_perc_lrl=0.0,
        rejected=True,
        reject_reason=reason,
        termdist_match_paras=[],
        primary_match_paras=[],
    )
