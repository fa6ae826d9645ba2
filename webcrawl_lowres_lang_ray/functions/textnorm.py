"""Text cleaning and paragraph splitting.

Replicates the reference's normalization chain exactly (same outputs):

* ``clean_text``                — collapse >=3 newlines to 2 (nlp.py:67-70)
* ``text_to_clean_paras``       — blank-line-run paragraph split + strip
                                  (nlp.py:72-87).  The reference uses three
                                  regexes; ``splitlines`` + ``strip`` + drop
                                  empty lines gives the same list, because
                                  ``re``'s whitespace class and ``str.strip``
                                  share one Unicode whitespace test and every
                                  line boundary is whitespace
                                  (tests/test_properties.py pins old == new)
* ``convert_text_to_paras``     — min-word-count paragraph filter
                                  (nlp.py:117-148, sans the logging globals)
* ``convert_text_to_parachunks``— greedy concatenation variant
                                  (nlp.py:150-181; written but not used in the
                                  reference's live path — kept for parity)
"""

from __future__ import annotations

import re

_CLEAN_RE = re.compile(r"\n{3,}")


def clean_text(text: str, reg_expr=None, replace_str: str = "\n\n") -> str:
    if reg_expr is None:
        # the substitution scans the whole text even when nothing matches
        return _CLEAN_RE.sub(replace_str, text) if "\n\n\n" in text else text
    return re.sub(reg_expr, replace_str, text)


def text_to_clean_paras(text: str) -> list[str]:
    return [s for s in (p.strip() for p in text.splitlines()) if s]


def convert_text_to_paras(text: str, min_para_word_len: int) -> list[str]:
    paras = text_to_clean_paras(text)
    return [p for p in paras if len(p.split()) > min_para_word_len]


def convert_text_to_parachunks(text: str, min_parachunk_word_len: int) -> list[str]:
    paras = text_to_clean_paras(text)
    processed = []
    para_cat = ""
    for para in paras:
        para_cat = para_cat + para + "\n"
        if len(para_cat.split()) > min_parachunk_word_len:
            processed.append(para_cat)
            para_cat = ""
    return processed
