"""pdfmini / docxmini stdlib document kernels: round-trip, escape handling,
page-tree order, totality on garbage, and dispatch through extract_doc."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from webcrawl_lowres_lang_ray.functions.docxmini import build_docx, extract_docx_text
from webcrawl_lowres_lang_ray.functions.pdfmini import build_pdf, extract_pdf_text


class TestPdfMini:
    def test_roundtrip_compressed_and_raw(self):
        paras = ["plain text", "parens (nested (deep)) here", "back\\slash",
                 "unicode: café ñandú 漢字 🚀", "tab\tand\rcr"]
        for compress in (True, False):
            pdf = build_pdf(paras, compress=compress)
            assert pdf.startswith(b"%PDF-1.4")
            assert pdf.rstrip().endswith(b"%%EOF")
            assert extract_pdf_text(pdf) == "\n".join(paras)

    def test_multipage_kids_order(self):
        # 7 paras at 2/page -> 4 pages; text must come back in /Kids order
        paras = [f"page line {i}" for i in range(7)]
        pdf = build_pdf(paras, paras_per_page=2)
        assert extract_pdf_text(pdf) == "\n".join(paras)

    def test_flate_bytes_containing_keywords_do_not_confuse_parser(self):
        # adversarial: a paragraph whose compressed stream could contain
        # arbitrary byte runs; /Length-based slicing must keep parse exact
        paras = ["endstream endobj stream obj " * 50, "after"]
        assert extract_pdf_text(build_pdf(paras)) == "\n".join(paras)

    def test_total_on_garbage(self):
        assert extract_pdf_text(b"not a pdf") == ""
        assert extract_pdf_text(b"%PDF-1.4\njunk with no objects\n%%EOF") == ""
        assert extract_pdf_text(b"%PDF-1.4\n1 0 obj << /Length 4 >>\nstream\nabcd\nendstream\nendobj") == ""

    def test_uncompressed_literal_pdf_without_pagetree(self):
        # hand-written PDF with a bare text stream (no catalog): the reader
        # degrades to object order and still extracts
        raw = (b"%PDF-1.2\n7 0 obj << /Length 41 >>\nstream\n"
               b"BT /F1 10 Tf (hello) Tj 0 -12 Td (pdf) Tj ET"
               b"\nendstream\nendobj\n%%EOF")
        # /Length slices exactly 41 bytes of the 44-byte stream? keep honest:
        body = b"BT /F1 10 Tf (hello) Tj 0 -12 Td (pdf) Tj ET"
        raw = (b"%PDF-1.2\n7 0 obj << /Length " + str(len(body)).encode()
               + b" >>\nstream\n" + body + b"\nendstream\nendobj\n%%EOF")
        assert extract_pdf_text(raw) == "hello\npdf"

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(max_size=60), min_size=1, max_size=8),
           st.booleans())
    def test_roundtrip_property(self, paras, compress):
        got = extract_pdf_text(build_pdf(paras, compress=compress))
        assert got == "\n".join(paras)


class TestDocxMini:
    def test_roundtrip_and_determinism(self):
        paras = ["first para", "second (with) <angle> & amp", "café 漢字"]
        dx = build_docx(paras)
        assert dx.startswith(b"PK\x03\x04")
        assert extract_docx_text(dx) == " ".join(paras)
        assert build_docx(paras) == dx  # fixed zip timestamps

    def test_total_on_garbage(self):
        assert extract_docx_text(b"PK\x03\x04 not a zip") == ""
        assert extract_docx_text(b"") == ""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=60),
        min_size=1, max_size=8))
    def test_roundtrip_property(self, paras):
        assert extract_docx_text(build_docx(paras)) == " ".join(paras)


class TestDispatchFallback:
    def test_extract_doc_routes_to_stdlib_kernels(self):
        # the dispatch lands on the pdfmini/docxmini kernels and returns
        # real text
        from webcrawl_lowres_lang_ray.functions.extract_doc import extract_text_auto

        assert extract_text_auto(build_pdf(["x y z"]), "pdf") == "x y z"
        assert extract_text_auto(build_docx(["a", "b"]), "docx") == "a b"
        assert extract_text_auto(b"\x00\x01BIN??", "bin") is None

    def test_installed_optional_packages_change_nothing(self, monkeypatch):
        """Importable ``PyPDF2`` and ``docx`` modules are not used: ledger
        text and the corpus goldens must not depend on which optional
        packages a host has."""
        import sys
        import types

        from webcrawl_lowres_lang_ray.functions.extract_doc import extract_text_auto

        def unused(*a, **kw):
            raise AssertionError("optional package used")

        monkeypatch.setitem(sys.modules, "PyPDF2", types.SimpleNamespace(PdfReader=unused))
        monkeypatch.setitem(sys.modules, "docx", types.SimpleNamespace(Document=unused))
        assert extract_text_auto(build_pdf(["x y z"]), "pdf") == "x y z"
        assert extract_text_auto(build_docx(["a", "b"]), "docx") == "a b"
