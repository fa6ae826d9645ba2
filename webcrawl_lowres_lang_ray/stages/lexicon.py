"""Lexicon pipelines: token frequency counting, merge, bootstrap and the
iterative regeneration loop (reference N6–N8, extract.py:72-238,
lrl-regenerate-dict.py:43-80).

``token_frequencies_ds`` is the G1 aggregation done the scalable way:
frequencies are pre-aggregated per batch inside ``map_batches`` (one row per
token per batch) before the ``groupby(token).sum`` — the combiner pattern —
so the shuffle moves counts, not tokens.
"""

from __future__ import annotations

import pandas as pd

import ray
import ray.data
from .agg import combiner_agg

from ..config import CrawlConfig
from ..functions.scoring import LangScoringModel
from ..functions.tokenize import token_partial_counts_arrow


def token_frequencies_ds(
    ds: "ray.data.Dataset", text_col: str = "text", min_char_len: int = 3
) -> "ray.data.Dataset":
    """tokenize (reference extract.py:35-70 semantics) -> (token, count).

    The per-batch partial counts run zero-copy Arrow end-to-end
    (``token_partial_counts_arrow``: pyarrow.compute regex/split/filter/
    value_counts kernels, exact-parity Python fallback for null/non-ASCII
    batches) — measured 5.05x over the previous pandas+Counter stage at
    sf0.1x10 (BASELINE.md round-4 Arrow-hot-path note)."""

    def partial_counts(batch):
        return token_partial_counts_arrow(batch.column(text_col), min_char_len)

    partials = ds.select_columns([text_col]).map_batches(
        partial_counts, batch_format="pyarrow"
    )
    # final merge via the combiner operator (stages/agg.py): the partials
    # are already one row per token per batch; ray.data's aggregate would
    # pay per-group dispatch across the whole vocabulary
    return combiner_agg(partials, ["token"], [("count", "count", "sum")])


def merge_lexicons(core: dict[str, int], topup: dict[str, int]) -> dict[str, int]:
    """Reference append_to_language_dictionary (fileutils.py:89-96)."""
    out = dict(core)
    for k, v in topup.items():
        out[k] = out.get(k, 0) + v
    return out


class HarvestParasStage:
    """Actor-pool harvest stage: the scorer (n-gram model + lexicon termvec)
    is built ONCE per actor from the broadcast lexicon ref in ``__init__``;
    each phase of the growth loop spawns a fresh pool against the newly
    grown lexicon — the per-phase actor-state swap."""

    def __init__(self, lex_ref, cfg: CrawlConfig, algorithm: str, text_col: str):
        self.model = LangScoringModel(ray.get(lex_ref), cfg)
        self.algorithm = algorithm
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        paras = []
        for t in batch[self.text_col]:
            sr = self.model.score_text(t)
            matches = (
                sr.termdist_match_paras
                if self.algorithm == "cossim"
                else sr.primary_match_paras
            )
            paras.extend(matches)
        return pd.DataFrame({"para": paras})


def harvest_matching_paras(
    ds: "ray.data.Dataset",
    lexicon: dict[str, int],
    cfg: CrawlConfig,
    algorithm: str = "cossim",
    text_col: str = "text",
    concurrency: int = 2,
) -> "ray.data.Dataset":
    """N6 (extract.py:150-184): re-score docs, keep matching paragraphs.

    algorithm: 'cossim' -> termdist-matching paras; 'primary' -> the
    n-gram-detector-matching paras (the reference's lingua branch,
    enums.py:15-20).  Stateful actor pool: model built once per actor.
    """
    lex_ref = ray.put(lexicon)
    return ds.select_columns([text_col]).map_batches(
        HarvestParasStage,
        fn_constructor_kwargs={
            "lex_ref": lex_ref,
            "cfg": cfg,
            "algorithm": algorithm,
            "text_col": text_col,
        },
        batch_format="pandas",
        concurrency=concurrency,
    )


def regenerate_lexicon(
    ds: "ray.data.Dataset",
    core_lexicon: dict[str, int],
    cfg: CrawlConfig,
    algorithm: str = "cossim",
    output_mode: str = "merge",
    text_col: str = "text",
) -> dict[str, int]:
    """N7 (extract.py:187-238): harvest -> count -> merge-or-replace.

    This is one phase of the reference's iterative lexicon-growth loop
    (DH2025-TONGAN-EXPT-LEXICON-GROWTH.sh:14-28); callers loop, rebuilding
    the scorer from the grown lexicon between phases.
    """
    paras = harvest_matching_paras(ds, core_lexicon, cfg, algorithm, text_col)
    freq = token_frequencies_ds(paras, text_col="para").to_pandas()
    grown = dict(zip(freq["token"], freq["count"].astype(int)))
    if output_mode == "merge":
        return merge_lexicons(core_lexicon, grown)
    return grown


def lexicon_growth_experiment(
    ds: "ray.data.Dataset",
    seed_lexicon: dict[str, int],
    cfg: CrawlConfig,
    phases: int = 3,
    algorithm: str = "cossim",
    text_col: str = "text",
) -> tuple[pd.DataFrame, dict[str, int]]:
    """The full multi-phase iterative lexicon-growth experiment (reference
    DH2025-TONGAN-EXPT-LEXICON-GROWTH.sh:14-28 driving extract.py:187-238
    once per phase): each phase re-scores the corpus with the CURRENT
    lexicon (fresh actor pool per phase -> per-phase scorer-state swap),
    harvests the matching paragraphs distributed, counts token frequencies
    through the combiner aggregation, merges into the lexicon, and records
    the growth curve — the reference's hand-collected "N paras / N terms
    after phase K" table as a first-class output.

    Returns ``(curve, final_lexicon)``; curve has one row per phase:
    (phase, n_matched_paras, n_terms, new_terms, total_count).  Fully
    deterministic given the input corpus and seed lexicon.
    """
    lex = dict(seed_lexicon)
    rows = []
    for phase in range(1, phases + 1):
        paras = harvest_matching_paras(ds, lex, cfg, algorithm, text_col).materialize()
        freq = token_frequencies_ds(paras, text_col="para").to_pandas()
        grown = dict(zip(freq["token"], freq["count"].astype(int)))
        before = set(lex)
        lex = merge_lexicons(lex, grown)
        rows.append(
            {
                "phase": phase,
                "n_matched_paras": int(paras.count()),
                "n_terms": len(lex),
                "new_terms": len(set(lex) - before),
                "total_count": int(sum(lex.values())),
            }
        )
    curve = pd.DataFrame(rows).astype(
        {c: "int64" for c in
         ["phase", "n_matched_paras", "n_terms", "new_terms", "total_count"]}
    )
    return curve, lex


def bootstrap_lexicons_from_text(text: str) -> tuple[dict[str, int], dict[str, int]]:
    """N8, full surface: the reference writes BOTH ``unigram_words_*.json``
    and ``bigram_words_*.json`` (extract.py:113-120) — unigrams and the
    pop()-quirk bigrams (extract.py:44-62), each through
    filter_words(min_char_len=3)."""
    from ..functions.tokenize import (
        bigram_words,
        filter_words,
        token_frequencies,
        unigram_words,
    )

    uni = dict(token_frequencies(filter_words(unigram_words(text), 3)))
    bi = dict(token_frequencies(filter_words(bigram_words(text), 3)))
    return uni, bi


def bootstrap_from_registry(
    languages: dict[str, dict], out_dir: str, only: str = "All"
) -> dict[str, tuple[str, str]]:
    """The reference's multi-language UDHR bootstrap loop (extract_udhr,
    extract.py:83-148): for each configured language — or just ``only`` —
    read its seed document and write both frequency dicts.  Registry shape
    mirrors config.json:66-104: ``{"Maori": {"path": ".../udhr_mi.txt"},
    ...}``.  ``.txt`` seeds are read directly; ``.pdf`` seeds dispatch to
    the stdlib PDF kernel (functions/pdfmini.py; the reference's
    extract.py:17-32 pdfminer path); anything else is the reference's
    unsupported-type error."""
    from ..functions.pdfmini import extract_pdf_text

    outs: dict[str, tuple[str, str]] = {}
    found = False
    for lang, item in languages.items():
        if only != "All" and only != lang:
            continue
        found = True
        path = item["path"]
        if path.endswith(".txt"):
            with open(path, encoding="utf-8") as f:
                text = f.read()
        elif path.endswith(".pdf"):
            with open(path, "rb") as f:
                text = extract_pdf_text(f.read())
        else:
            raise ValueError(
                f"unsupported seed file type for {path}: only pdf and txt"
            )
        outs[lang] = write_bootstrap_lexicons(text, out_dir, lang)
    if not found:
        raise KeyError(f"language {only!r} not in registry")
    return outs


def write_bootstrap_lexicons(text: str, out_dir: str, lang: str) -> tuple[str, str]:
    """Write the two bootstrap dicts with the reference's file naming
    (``dicts/{uni,bi}gram_words_<lang>.json``, extract.py:113-116) and JSON
    style (ensure_ascii=False, indent=4 — fileutils.py:41-50)."""
    import os

    from ..sources.lexicon_io import save_to_json

    uni, bi = bootstrap_lexicons_from_text(text)
    os.makedirs(out_dir, exist_ok=True)
    upath = os.path.join(out_dir, f"unigram_words_{lang.lower()}.json")
    bpath = os.path.join(out_dir, f"bigram_words_{lang.lower()}.json")
    save_to_json(uni, upath)
    save_to_json(bi, bpath)
    return upath, bpath
