"""Tests for query generation (N9), doc-type dispatch (M5/M9/M10), jsonc IO
(S1/S3/S4) and sentence splitting (N10)."""

from __future__ import annotations

import random

import pytest

from webcrawl_lowres_lang_ray.functions import querygen
from webcrawl_lowres_lang_ray.functions.extract_doc import (
    extract_text_auto,
    sniff_doc_type,
)
from webcrawl_lowres_lang_ray.functions.sentences import split_sentences
from webcrawl_lowres_lang_ray.sources.lexicon_io import (
    load_language_dictionary,
    loads_jsonc,
    save_to_json,
)

LEX = {f"word{i:02d}": (20 if i < 5 else 3) for i in range(30)}


class TestQueryGen:
    def test_types_and_counts(self):
        qs = querygen.generate_all(LEX, seed=1, query_count=5)
        types = {q["type"] for q in qs}
        assert types == {"single", "combined", "phrase", "common_uncommon"}
        assert len(qs) <= 20  # dedup can only shrink

    def test_deterministic(self):
        assert querygen.generate_all(LEX, seed=7) == querygen.generate_all(LEX, seed=7)
        assert querygen.generate_all(LEX, seed=7) != querygen.generate_all(LEX, seed=8)

    def test_dedup_sorted_tuple_last_type_wins(self):
        # queries.py:51-55: key = sorted terms; dict comprehension keeps LAST
        qs = [
            {"query": "b a", "type": "combined"},
            {"query": "a b", "type": "phrase"},
        ]
        out = querygen.order_and_remove_duplicates(qs)
        assert out == [{"query": "a b", "type": "phrase"}]

    def test_common_uncommon_split_at_10(self):
        rng = random.Random(3)
        qs = querygen.common_uncommon_combinations(LEX, rng, word_count=2, query_count=20)
        common = {w for w, f in LEX.items() if f > 10}
        for q in qs:
            w1, w2 = q["query"].split()
            assert w1 in common and w2 not in common

    def test_english_exclusion(self):
        d = dict(LEX)
        querygen.exclude_english_lexicon(d, {"word00": 1, "nothere": 1})
        assert "word00" not in d and len(d) == len(LEX) - 1


class TestDocTypeDispatch:
    def test_sniff(self):
        # lrl-crawler.py:192-206
        assert sniff_doc_type(None) == "html"
        assert sniff_doc_type("text/html; charset=utf-8") == "html"
        assert sniff_doc_type("application/pdf") == "pdf"
        assert sniff_doc_type("application/msword") == "docx"
        assert sniff_doc_type(
            "application/vnd.openxmlformats-officedocument.wordprocessingml.document"
        ) == "docx"
        assert sniff_doc_type("image/png") is None

    def test_html_real_pdf_docx_stdlib_kernels(self):
        assert extract_text_auto(b"<p>hi</p>", "html") == "hi"
        # pdfmini/docxmini kernels: real text for valid payloads, ""
        # (total) for unparseable bytes
        from webcrawl_lowres_lang_ray.functions.docxmini import build_docx
        from webcrawl_lowres_lang_ray.functions.pdfmini import build_pdf

        assert extract_text_auto(build_pdf(["hi pdf"]), "pdf") == "hi pdf"
        assert extract_text_auto(build_docx(["hi docx"]), "docx") == "hi docx"
        assert extract_text_auto(b"%PDF-", "pdf") == ""
        assert extract_text_auto(b"PK", "docx") == ""
        assert extract_text_auto(b"x", "weird") is None


class TestJsonc:
    def test_comments_stripped(self):
        text = '{\n // a comment\n "a": 1, // trailing\n "b": "x//y"\n}'
        assert loads_jsonc(text) == {"a": 1, "b": "x//y"}

    def test_roundtrip(self, tmp_path):
        p = str(tmp_path / "lex.json")
        save_to_json({"kākā": 3}, p)
        assert load_language_dictionary(p) == {"kākā": 3}
        assert load_language_dictionary(str(tmp_path / "missing.json")) is None


class TestSentences:
    def test_basic_split(self):
        assert split_sentences("One. Two! Three? Four") == ["One.", "Two!", "Three?", "Four"]

    def test_no_split_mid_token(self):
        assert split_sentences("v1.2 is out. Yes.") == ["v1.2 is out.", "Yes."]

    def test_empty(self):
        assert split_sentences("") == []
