"""Multi-format document text extraction dispatch (reference M8–M10,
nlp.py:90-115).

* html  — real (functions/html_text.py, the byte-identical invariant path);
* pdf   — the stdlib Flate/literal-string kernel in functions/pdfmini.py
          (the reference's PyPDF2 page loop, nlp.py:100-109, for the PDF
          subset the pipeline produces; documented divergences there);
* docx  — the stdlib OOXML kernel in functions/docxmini.py (python-docx
          paragraphs joined with " ", nlp.py:110-112, via zipfile + etree);
* other — returns None (the reference prints and returns None,
          nlp.py:113-115), which the rejection policy maps to
          "no extracted text" (lrl-crawler.py:431-433).

The kernels are used whether or not PyPDF2 or python-docx is installed:
the crawl's ledger text, the synthetic corpus goldens and every cache keyed
on them must not depend on which optional packages a host has.
"""

from __future__ import annotations

from .docxmini import extract_docx_text
from .html_text import extract_text_from_html_bytes
from .pdfmini import extract_pdf_text


def extract_text_auto(data: bytes, doc_type: str) -> str | None:
    """nlp.extract_text_from_file dispatch on doc_type (nlp.py:90-115)."""
    if doc_type == "html":
        return extract_text_from_html_bytes(data)
    if doc_type == "pdf":
        return extract_pdf_text(data)
    if doc_type == "docx":
        return extract_docx_text(data)
    return None


def sniff_doc_type(content_type: str | None) -> str | None:
    """Content-Type -> doc_type (reference M5, lrl-crawler.py:192-206):
    missing header => html; unknown type => None (dropped)."""
    if content_type is None:
        return "html"
    if "html" in content_type:
        return "html"
    if "pdf" in content_type:
        return "pdf"
    if "msword" in content_type or "vnd.openxmlformats-officedocument" in content_type:
        return "docx"
    return None
