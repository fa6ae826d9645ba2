"""Crawl-pipeline queries (rows-only checks: the crawl's inputs are the
synthesized Common-Crawl-style page table mandated by input_hint, which is
not a pre-registered DuckDB view — correctness is instead pinned by the
oracle-conformance pytest suite, tests/test_crawl_conformance.py).

All callables share one cached crawl run per sf_dir (deterministic, so the
cache is safe); the corpus itself is cached under /tmp/wllr_corpus.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..config import CrawlConfig
from ..frontier import accepted_texts, ledger_dataset, run_crawl
from ..sources.synth import corpus_dir_for_sf, load_lexicon

# generous politeness budget so the per-round driver check stays fast while
# still exercising multi-wave admission
QUERY_CFG = CrawlConfig(per_host_per_wave=32)

_RUN_CACHE: dict[str, str] = {}


def crawl_output_dir(sf_dir: str) -> str:
    corpus = corpus_dir_for_sf(sf_dir)
    key = corpus
    out = _RUN_CACHE.get(key)
    if out is None:
        out = os.path.join("/tmp/wllr_runs", os.path.basename(corpus))
        done = os.path.join(out, "DONE")
        if not os.path.exists(done):
            run_crawl(corpus, out, QUERY_CFG)
            with open(done, "w") as f:
                f.write("ok\n")
        _RUN_CACHE[key] = out
    return out


def media_rows_for_sf(sf_dir: str) -> int:
    """Synthetic media-table size derived from the scale factor so the
    multimodal catalog entries measure a workload that grows with sf
    (sf0.001/sf0.01 keep the historical 200-row floor — the planted-pair
    test invariants live there; sf0.1 -> 2,000; sf1 -> 20,000)."""
    base = os.path.basename(sf_dir.rstrip("/"))
    try:
        sf = float(base.replace("sf", "")) if base.startswith("sf") else 0.001
    except ValueError:
        sf = 0.001
    return max(200, min(20_000, int(20_000 * sf)))


def q_crawl_ledger(sf_dir: str):
    """The full crawl-state ledger (the reference urls table, sql.py:47-66)."""
    from ..frontier import LEDGER_META_COLS

    cols = [c for c in LEDGER_META_COLS if c != "text"]
    return ledger_dataset(crawl_output_dir(sf_dir), columns=cols)


def q_crawl_order(sf_dir: str):
    """Crawl ordering: seq -> url -> politeness wave (north-rule invariant)."""
    return ledger_dataset(crawl_output_dir(sf_dir), columns=["seq", "url", "wave"])


def q_crawl_extracted_text(sf_dir: str):
    """Byte-identical extracted text per fetched url (input_hint invariant)."""

    def hash_batch(b: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        b = b.loc[b["downloaded"]]
        return pd.DataFrame(
            {
                "url": b["url"],
                "text_sha256": [
                    hashlib.sha256(t.encode()).hexdigest() for t in b["text"]
                ],
            }
        )

    return ledger_dataset(
        crawl_output_dir(sf_dir),
        columns=["url", "text", "downloaded"],
        include_pending=False,
    ).map_batches(hash_batch, batch_format="pandas")


def q_crawl_seen_membership(sf_dir: str):
    """URL-seen set membership (canonical SHA-1 keys, north-rule invariant)."""
    return ledger_dataset(
        crawl_output_dir(sf_dir), columns=["canon_sha1"]
    ).sort("canon_sha1")


def q_crawl_stats_report(sf_dir: str) -> pd.DataFrame:
    """The display.stats suite (display.py:7-198) over the crawl ledger,
    pending rows included: outcome totals, verdict counts, per-host top-10
    and confidence deciles, each from its ``report.py`` aggregate.  Every
    aggregate runs distributed; only the tiny report rows reach the
    driver."""
    from ..report import (
        confidence_histogram,
        outcome_counts,
        per_domain_counts,
        verdict_counts,
    )

    led = ledger_dataset(
        crawl_output_dir(sf_dir),
        columns=[
            "downloaded", "downloaded_failed", "rejected", "skipped_relative",
            "robots_blocked", "nlp_full_lang", "host", "handled",
            "nlp_full_confidence", "nlp_para_perc_lrl",
        ],
    ).materialize()
    flags = outcome_counts(led).iloc[0].rename({"total": "total_urls"})
    rows = [(k, "", float(n)) for k, n in flags.items()]
    verd = verdict_counts(led)
    rows += [
        ("verdict", v, float(n)) for v, n in zip(verd["nlp_full_lang"], verd["n"]) if v
    ]
    top = per_domain_counts(led).query("which == 'top'")
    rows += [("top_domain", h, float(n)) for h, n in zip(top["host"], top["n"])]
    # the histogram's outer merge with the para-percentage deciles can
    # carry a confidence decile nobody fell in
    dec = confidence_histogram(led)
    rows += [
        ("confidence_decile", str(int(d)), float(n))
        for d, n in zip(dec["decile"], dec["n_conf"]) if n
    ]
    out = pd.DataFrame(rows, columns=["stat", "key", "value"])
    return out.sort_values(["stat", "key"], kind="mergesort").reset_index(drop=True)


def _fetched_text_ds(sf_dir: str, id_col: bool = True) -> "ray.data.Dataset":
    """Nonempty fetched texts as a streaming Dataset (columns pruned at the
    read: seq/text/downloaded only — never the whole ledger row)."""

    def keep_nonempty(b: pd.DataFrame) -> pd.DataFrame:
        m = b["downloaded"] & (b["text"].str.strip() != "")
        cols = ["seq", "text"] if id_col else ["text"]
        return b.loc[m, cols]

    cols = ["seq", "text", "downloaded"] if id_col else ["text", "downloaded"]
    return ledger_dataset(
        crawl_output_dir(sf_dir), columns=cols, include_pending=False
    ).map_batches(keep_nonempty, batch_format="pandas")


def q_minhash_neardup(sf_dir: str):
    """MinHash+LSH near-dup pairs over the crawl's fetched texts (real dups
    exist there by construction: duplicate bodies across urls).

    Empty/whitespace docs all share one degenerate signature (a clique that
    explodes candidate pairs) and are exact-dedup territory — dropped."""
    from ..stages.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(
        _fetched_text_ds(sf_dir), text_col="text", id_col="seq", threshold=0.8
    )


def q_simhash_neardup(sf_dir: str):
    """SimHash near-dup pairs (Hamming <= 3) over the crawl's fetched texts."""
    from ..stages.dedup import simhash_neardup_pairs

    return simhash_neardup_pairs(_fetched_text_ds(sf_dir), text_col="text", id_col="seq")


def q_langid_predict(sf_dir: str):
    """Actor-pool n-gram language ID over the documents table (best-of-two
    profiles: the synthetic LRL lexicon vs an English word profile)."""
    from ..stages.textstats import LangIdStage

    corpus = corpus_dir_for_sf(sf_dir)
    lrl = load_lexicon(corpus)
    en_profile = {
        w: 10
        for w in (
            "the quick brown fox jumps over lazy dog and cat with some words "
            "about nothing because this page mostly contains english text"
        ).split()
    }
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = docs.map_batches(
        LangIdStage,
        fn_constructor_kwargs={"profiles": {"LRL": lrl, "ENGLISH": en_profile}},
        batch_format="pandas",
        batch_size=512,
        concurrency=2,
    )
    return out.select_columns(["doc_id", "pred_lang", "pred_conf"])


def q_ann_lsh_topk(sf_dir: str) -> pd.DataFrame:
    """SRP-LSH approximate top-k (scale path of q_ann_topk)."""
    from ..stages.ann import build_srp_index, srp_lsh_topk
    from .queries import _query_vec

    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    q = _query_vec(sf_dir)
    dim = len(q)
    indexed = build_srp_index(emb, dim, bits=8)
    return srp_lsh_topk(indexed, q, dim, k=10, bits=8, probe_hamming=2)


def q_multimodal_audio_features(sf_dir: str) -> pd.DataFrame:
    """Framewise audio features (RMS, zero-cross, silence, clipping) over
    the WAV rows of the synthetic media table — actor-pool map_batches over
    real stdlib PCM16 decode.  Rows-only gate: determinism + known-signal
    values pinned in tests/test_media.py."""
    from ..stages.multimodal import AudioFeatureStage, synth_media_batch

    media = ray.data.from_pandas(synth_media_batch(media_rows_for_sf(sf_dir)))
    out = media.map_batches(
        AudioFeatureStage,
        batch_format="pandas",
        batch_size=16,
        concurrency=2,
    )
    return out.to_pandas().sort_values("media_id").reset_index(drop=True)


def q_multimodal_image_stats(sf_dir: str) -> pd.DataFrame:
    """Luminance/entropy statistics over the PNG rows of the synthetic
    media table (real stdlib decode).  Rows-only gate: known-image values
    pinned in tests/test_media.py."""
    from ..stages.multimodal import ImageStatStage, synth_media_batch

    media = ray.data.from_pandas(synth_media_batch(media_rows_for_sf(sf_dir)))
    out = media.map_batches(
        ImageStatStage, batch_format="pandas", batch_size=16, concurrency=2
    )
    return out.to_pandas().sort_values("media_id").reset_index(drop=True)


def q_multimodal_decode(sf_dir: str) -> pd.DataFrame:
    """Multimodal decode plumbing (stubbed kernels, real Ray wiring)."""
    from ..stages.multimodal import DecodeStage, synth_media_batch

    media = ray.data.from_pandas(synth_media_batch(media_rows_for_sf(sf_dir)))
    out = media.map_batches(
        DecodeStage,
        fn_constructor_kwargs={"fake": True},
        batch_format="pandas",
        batch_size=16,
        concurrency=2,
    )
    return out.to_pandas().sort_values("media_id").reset_index(drop=True)


def q_multimodal_thumbnail(sf_dir: str) -> pd.DataFrame:
    """Real image pipeline: valid PNG payloads -> stdlib decode ->
    nearest-neighbour thumbnail -> PNG re-encode (actor pool, small
    batches for wide rows)."""
    from ..stages.multimodal import ThumbnailStage, synth_media_batch

    media = ray.data.from_pandas(synth_media_batch(media_rows_for_sf(sf_dir)))
    out = media.map_batches(
        ThumbnailStage,
        fn_constructor_kwargs={"max_side": 12},
        batch_format="pandas",
        batch_size=16,
        concurrency=2,
    ).to_pandas()
    out["thumb_bytes"] = out["thumb"].str.len().astype("int64")
    return (
        out.drop(columns=["thumb"])
        .sort_values("media_id")
        .reset_index(drop=True)
    )


def q_query_generation(sf_dir: str) -> pd.DataFrame:
    """N9 (queries.py:73-106): the 4 query generators + sorted-tuple dedup
    over the corpus lexicon, english_ref excluded, seeded RNG."""
    import pyarrow.parquet as pq

    from ..functions.querygen import generate_all

    corpus = corpus_dir_for_sf(sf_dir)
    lex = load_lexicon(corpus)
    en = {
        t: 1
        for t in pq.read_table(os.path.join(corpus, "english_ref.parquet"))[
            "token"
        ].to_pylist()
    }
    qs = generate_all(lex, seed=42, english_word_dict=en, word_count=3, query_count=10)
    return pd.DataFrame(qs)


def q_sentence_split(sf_dir: str):
    """N10 (tongan-sentence-splitter.py): sentence counts per fetched doc —
    a distributed map_batches over the pruned (seq, text) ledger read."""
    from ..functions.sentences import split_sentences_batch

    def count_batch(b: pd.DataFrame) -> pd.DataFrame:
        b = b.loc[b["downloaded"]]
        sents = split_sentences_batch(b["text"])
        return pd.DataFrame(
            {"seq": b["seq"].to_numpy(np.int64),
             "n_sentences": np.array([len(s) for s in sents], dtype=np.int64)}
        )

    return ledger_dataset(
        crawl_output_dir(sf_dir),
        columns=["seq", "text", "downloaded"],
        include_pending=False,
    ).map_batches(count_batch, batch_format="pandas")


def q_crawl_curate(sf_dir: str):
    """Curation over the crawl's own output: the composed keep/drop decision
    (stages/curation.py:curate_corpus — benchmark exclusion -> prefix-key
    dedup -> decontamination -> repetition gate) applied to the extracted
    ledger text, keyed by crawl seq.  Rows-only gate: the ledger is engine
    output with no DuckDB view; determinism + reason sanity pinned in
    tests/test_curation.py."""
    from ..stages.curation import curate_corpus

    def fetched(b: pd.DataFrame) -> pd.DataFrame:
        b = b.loc[b["downloaded"] & b["text"].notna()]
        return pd.DataFrame(
            {"doc_id": b["seq"].to_numpy(np.int64), "text": b["text"]}
        )

    docs = ledger_dataset(
        crawl_output_dir(sf_dir),
        columns=["seq", "text", "downloaded"],
        include_pending=False,
    ).map_batches(fetched, batch_format="pandas")
    return curate_corpus(docs, n=5, bench_mod=50, k_words=8)


def q_lexicon_regen(sf_dir: str) -> pd.DataFrame:
    """One phase of the iterative lexicon-growth loop (N7) over the crawl's
    accepted texts."""
    from ..stages.lexicon import regenerate_lexicon

    docs = accepted_texts(crawl_output_dir(sf_dir))
    lex = load_lexicon(corpus_dir_for_sf(sf_dir))
    grown = regenerate_lexicon(docs, lex, QUERY_CFG, output_mode="merge")
    out = pd.DataFrame(
        {"token": list(grown.keys()), "count": list(grown.values())}
    ).sort_values("token").reset_index(drop=True)
    return out


def q_lexicon_growth(sf_dir: str) -> pd.DataFrame:
    """The END-TO-END multi-phase lexicon-growth experiment (reference
    DH2025-TONGAN-EXPT-LEXICON-GROWTH.sh:14-28): 3 phases of
    harvest -> count -> merge over the crawl's accepted texts, each phase
    re-scoring through a FRESH actor pool built from the grown lexicon.
    Returns the per-phase growth curve (phase, n_matched_paras, n_terms,
    new_terms, total_count).  Rows-only gate: serial-oracle parity and
    monotone growth pinned in tests/test_stages.py."""
    from ..stages.lexicon import lexicon_growth_experiment

    curve, _ = lexicon_growth_experiment(
        accepted_texts(crawl_output_dir(sf_dir)),
        load_lexicon(corpus_dir_for_sf(sf_dir)),
        QUERY_CFG,
        phases=3,
    )
    return curve


def _corpus_link_edges(corpus: str):
    """Extract the corpus link graph: (src_url, dst_url) edge Dataset from
    <a href> parses of the page HTML, materialized for reuse."""
    from ..functions.html_text import extract_links_batch

    pages = ray.data.read_parquet(
        os.path.join(corpus, "pages"), columns=["url", "html"]
    )

    def edges_batch(b: "pa.Table") -> pd.DataFrame:
        links = extract_links_batch(b.column("html")).to_pylist()
        urls = b.column("url").to_pylist()
        counts = np.array([len(l) for l in links], dtype=np.int64)
        return pd.DataFrame(
            {
                "src_url": np.repeat(np.array(urls, dtype=object), counts),
                "dst_url": np.array(
                    [h for l in links for h in l], dtype=object
                ),
            }
        )

    return pages.map_batches(edges_batch, batch_format="pyarrow").materialize()


def _corpus_link_ranks(corpus: str):
    """Shared PageRank core: extract <a href> edges from the corpus pages,
    run the scale-dispatching ``pagerank_auto`` (vertex-broadcast fast path
    below BROADCAST_PAGERANK_MAX_EDGES edges, fully-exchanged 10^10-safe
    plan above it).  Returns ``(edge_urls, ranks_ds)`` — the materialized
    (src_url, dst_url) Dataset (for url naming) and the (id, rank)
    Dataset (never collected to the driver here)."""
    from ..stages.graph import pagerank_auto, url_ids

    edge_urls = _corpus_link_edges(corpus)

    def to_ids(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": url_ids(list(b["src_url"])),
                "dst": url_ids(list(b["dst_url"])),
            }
        )

    ranks_ds = pagerank_auto(
        edge_urls.map_batches(to_ids, batch_format="pandas"),
        n_edges=edge_urls.count(),
    )
    return edge_urls, ranks_ds


def _host_graph(corpus: str) -> "ray.data.Dataset":
    """The corpus link graph with each URL collapsed to its host: one
    (src, dst, src_host, dst_host) row per link, ids from ``url_ids`` of
    the host names, materialized for the graph operator and the name join
    that both read it."""
    from urllib.parse import urlparse

    from ..stages.graph import url_ids

    def host_edges(b: pd.DataFrame) -> pd.DataFrame:
        src = [urlparse(u).netloc for u in b["src_url"]]
        dst = [urlparse(u).netloc for u in b["dst_url"]]
        return pd.DataFrame(
            {
                "src": url_ids(src),
                "dst": url_ids(dst),
                "src_host": np.array(src, dtype=object),
                "dst_host": np.array(dst, dtype=object),
            }
        )

    edges = _corpus_link_edges(corpus)
    return edges.map_batches(host_edges, batch_format="pandas").materialize()


def _host_names(hedges: "ray.data.Dataset") -> pd.DataFrame:
    """The (id, host) frame of every host on either end of a
    ``_host_graph`` edge, built by the combiner pattern (first-wins:
    md5-derived ids are 1:1 with hosts) — as large as the host-level
    output it names, never the edge list."""
    from ..stages.agg import combiner_agg

    def vocab(b: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [
                pd.DataFrame({"id": b["src"], "host": b["src_host"]}),
                pd.DataFrame({"id": b["dst"], "host": b["dst_host"]}),
            ]
        ).drop_duplicates("id")

    return (
        combiner_agg(
            hedges.map_batches(vocab, batch_format="pandas"),
            ["id", "host"],
            [("n", None, "count")],
            parts=16,
        )
        .to_pandas()[["id", "host"]]
        .drop_duplicates("id")
    )


def q_crawl_pagerank(sf_dir: str) -> pd.DataFrame:
    """Link-graph PageRank over the corpus pages (stages/graph.py): extract
    <a href> edges from the page HTML, run 5 sweeps through the
    scale-dispatching ``pagerank_auto`` (broadcast fast path small-N,
    fully-exchanged 10^10-safe plan large-N; both oracle-pinned), take the
    top-50 (url, rank) via a distributed sort+limit — the full rank table
    never visits the driver.  Rows-only gate: numpy-oracle parity,
    determinism and mass bounds pinned in tests/test_graph.py."""
    import ray as _ray

    from ..stages.graph import url_ids

    corpus = corpus_dir_for_sf(sf_dir)
    edge_urls, ranks_ds = _corpus_link_ranks(corpus)

    # (rank DESC, id ASC) matches pandas nlargest's stable tie behavior on
    # the id-ascending rank frame, so both dispatch paths pick the same set
    top = (
        ranks_ds.sort(["rank", "id"], descending=[True, False])
        .limit(50)
        .to_pandas()
    )
    top_ref = _ray.put(set(int(i) for i in top["id"]))

    def name_batch(b: pd.DataFrame) -> pa.Table:
        want = _ray.get(top_ref)
        ids = np.concatenate(
            [url_ids(list(b["src_url"])), url_ids(list(b["dst_url"]))]
        )
        urls = np.concatenate(
            [b["src_url"].to_numpy(object), b["dst_url"].to_numpy(object)]
        )
        keep = np.fromiter((int(i) in want for i in ids), dtype=bool, count=len(ids))
        kept = pd.DataFrame({"id": ids[keep], "url": urls[keep]}).drop_duplicates("id")
        # typed even when empty: an empty object column makes Ray's block
        # size estimator log an error
        return pa.table(
            {"id": pa.array(kept["id"].to_numpy(np.int64)),
             "url": pa.array(kept["url"].to_numpy(object), type=pa.string())}
        )

    names = (
        edge_urls.map_batches(name_batch, batch_format="pandas")
        .to_pandas()
        .drop_duplicates("id")
        .set_index("id")["url"]
    )
    out = pd.DataFrame(
        {
            "url": names.reindex(top["id"]).to_numpy(object),
            "rank": top["rank"].to_numpy(np.float64),
        }
    )
    return (
        out.sort_values(["rank", "url"], ascending=[False, True], kind="mergesort")
        .head(50)
        .reset_index(drop=True)
    )


def q_crawl_priority_pagerank(sf_dir: str) -> pd.DataFrame:
    """Composition: PageRank drives a FOCUSED RE-CRAWL.  The corpus link
    graph's ranks become seed priorities (denser rank -> higher priority
    int), a second crawl runs with those seeds under a tight per-host
    politeness budget, and the output shows the observable effect of the
    priority-frontier hook: per host, higher-priority seeds are admitted in
    earlier waves ((priority DESC, seq) admission — frontier.py:108-110).

    Output: one row per seed ``(url, priority, wave)`` — ``wave`` is the
    politeness wave the seed was fetched in (-1 if still pending under the
    ``max_waves`` cap).  Deterministic: PageRank, the priority assignment
    (rank DESC, seq tiebreak) and the crawl are all seeded/ordered.  Cached
    per corpus like crawl_output_dir.  Rows-only gate: admission-order
    invariants pinned in tests/test_graph.py."""
    import shutil

    import pyarrow.parquet as pq

    from ..stages.graph import url_ids

    corpus = corpus_dir_for_sf(sf_dir)
    out = os.path.join("/tmp/wllr_runs", "prio_" + os.path.basename(corpus))
    prio_corpus = out + "_corpus"
    done = os.path.join(out, "DONE")
    if not os.path.exists(done):
        import ray as _ray

        _, ranks_ds = _corpus_link_ranks(corpus)
        seeds = pq.read_table(os.path.join(corpus, "seeds.parquet")).to_pandas()
        ids = url_ids(list(seeds["url"]))
        # seed-filtered semi-join against the rank Dataset: broadcast the
        # (small) seed-id set, collect only the matching rows — the full
        # rank table stays distributed on the exchanged dispatch path too
        want_ref = _ray.put(set(int(i) for i in ids))

        def seed_ranks(b: pd.DataFrame) -> pd.DataFrame:
            want = _ray.get(want_ref)
            keep = np.fromiter(
                (int(i) in want for i in b["id"]), dtype=bool, count=len(b)
            )
            return b.loc[keep]

        sub = ranks_ds.map_batches(seed_ranks, batch_format="pandas").to_pandas()
        rank_by_id = dict(
            zip(sub["id"].to_numpy(np.int64).tolist(), sub["rank"].to_numpy())
        )
        rank_vals = np.array([rank_by_id.get(int(i), 0.0) for i in ids])
        # priority ints: best-ranked seed gets N, worst gets 1 (ties broken
        # by seq so the assignment is total and deterministic)
        order = np.lexsort((seeds["seq"].to_numpy(np.int64), -rank_vals))
        prio = np.empty(len(seeds), dtype=np.int64)
        prio[order] = np.arange(len(seeds), 0, -1, dtype=np.int64)
        seeds["priority"] = prio

        # corpus clone: pages/lexicon/robots shared via symlink, seeds with
        # the priority column written fresh
        shutil.rmtree(prio_corpus, ignore_errors=True)
        os.makedirs(prio_corpus, exist_ok=True)
        for name in ("pages", "lexicon.parquet", "english_ref.parquet", "robots.parquet"):
            src = os.path.join(corpus, name)
            if os.path.exists(src):
                os.symlink(src, os.path.join(prio_corpus, name))
        pq.write_table(
            pa.Table.from_pandas(seeds, preserve_index=False),
            os.path.join(prio_corpus, "seeds.parquet"),
        )
        run_crawl(
            prio_corpus, out, CrawlConfig(per_host_per_wave=4, max_waves=3)
        )
        with open(done, "w") as f:
            f.write("ok\n")
        _PRIO_SEEDS_CACHE[corpus] = seeds
    seeds = _PRIO_SEEDS_CACHE.get(corpus)
    if seeds is None:
        seeds = pq.read_table(os.path.join(prio_corpus, "seeds.parquet")).to_pandas()
        _PRIO_SEEDS_CACHE[corpus] = seeds

    led = (
        ledger_dataset(out, columns=["url", "wave"])
        .to_pandas()
        .drop_duplicates("url")
    )
    outdf = seeds[["url", "priority"]].merge(led, on="url", how="left")
    outdf["wave"] = outdf["wave"].fillna(-1).astype(np.int64)
    return outdf.sort_values("url", kind="mergesort").reset_index(drop=True)


_PRIO_SEEDS_CACHE: dict[str, pd.DataFrame] = {}


def q_crawl_host_degrees(sf_dir: str) -> pd.DataFrame:
    """Host-level link-graph degree statistics: per host, outbound links,
    inbound links, and distinct peer hosts linked to — the connectivity
    report a crawl operator reads before re-budgeting politeness.  Edges
    come from the shared host graph (`_host_graph`); host pairs
    pre-aggregate per batch (combiner) so the exchange carries
    (src_host, dst_host, n) partials, never raw edges.  Rows-only gate:
    pandas ground truth over the URL edges + determinism in
    tests/test_graph.py."""
    from ..stages.agg import combiner_agg

    hedges = _host_graph(corpus_dir_for_sf(sf_dir))
    pairs = combiner_agg(
        hedges.select_columns(["src_host", "dst_host"]),
        ["src_host", "dst_host"],
        [("n", None, "count")],
        parts=16,
    ).to_pandas()
    out_deg = pairs.groupby("src_host")["n"].sum()
    in_deg = pairs.groupby("dst_host")["n"].sum()
    out_peers = pairs.groupby("src_host")["dst_host"].nunique()
    hosts = sorted(set(out_deg.index) | set(in_deg.index))
    res = pd.DataFrame(
        {
            "host": hosts,
            "out_links": [int(out_deg.get(h, 0)) for h in hosts],
            "in_links": [int(in_deg.get(h, 0)) for h in hosts],
            "out_peer_hosts": [int(out_peers.get(h, 0)) for h in hosts],
        }
    )
    return res.astype(
        {"out_links": "int64", "in_links": "int64", "out_peer_hosts": "int64"}
    )


def q_crawl_dedup_clusters(sf_dir: str) -> pd.DataFrame:
    """Transitive near-dup clustering: MinHash+LSH pairs over the crawl's
    fetched texts (q_minhash_neardup's exact settings) -> connected
    components (min-label propagation, stages/graph.py) -> one keeper per
    cluster (smallest seq).  Pair lists alone under-dedup: A~B and B~C must
    collapse into ONE cluster even when A~C was never a candidate pair.
    Rows-only gate: union-find oracle parity + determinism pinned in
    tests/test_graph.py."""
    from ..stages.dedup import minhash_lsh_pairs
    from ..stages.graph import connected_components

    pairs = minhash_lsh_pairs(
        _fetched_text_ds(sf_dir), text_col="text", id_col="seq", threshold=0.8
    ).materialize()
    comps = connected_components(pairs, "id_a", "id_b")
    out = pd.DataFrame(
        {
            "seq": comps["id"].to_numpy(np.int64),
            "cluster": comps["comp"].to_numpy(np.int64),
        }
    )
    out["keep"] = out["seq"] == out["cluster"]
    return out.sort_values("seq", kind="mergesort").reset_index(drop=True)


def q_warc_ingest(sf_dir: str):
    """WARC source ingestion (sources/warc.py): export a deterministic
    2,000-page slice of the synthetic Common-Crawl-style page table as
    4 per-record-gzip'd WARC archives (the Common Crawl layout), then
    stream them back through the Ray datasource — one read task per
    archive, bounded Arrow batches — and project ``(url, warc_ts,
    n_bytes)``.  Rows-only gate; byte-identity of the html payloads vs
    the page table is pinned in tests/test_warc.py."""
    import glob

    import pyarrow.compute as pc

    from ..sources import warc

    corpus = corpus_dir_for_sf(sf_dir)
    cache = os.path.join("/tmp/wllr_warc", os.path.basename(corpus))
    done = os.path.join(cache, "DONE")
    if not os.path.exists(done):
        os.makedirs(cache, exist_ok=True)
        first = sorted(glob.glob(os.path.join(corpus, "pages", "*.parquet")))[0]
        df = (
            pd.read_parquet(first, columns=["url", "warc_ts", "html"])
            .sort_values("url", kind="mergesort")
            .head(2000)
            .reset_index(drop=True)
        )
        for shard in range(4):
            part = df.iloc[shard::4]
            warc.write_warc(
                os.path.join(cache, f"shard-{shard}.warc.gz"),
                part.to_dict("records"),
            )
        with open(done, "w") as f:
            f.write("ok\n")

    paths = sorted(glob.glob(os.path.join(cache, "shard-*.warc.gz")))

    def project(t):
        return t.select(["url", "warc_ts"]).append_column(
            "n_bytes", pc.cast(pc.binary_length(t.column("html")), "int64")
        )

    return warc.read_warc(paths).map_batches(project, batch_format="pyarrow")


def q_crawl_line_dedup(sf_dir: str):
    """CCNet-style corpus-level line dedup over the crawl's extracted
    texts (stages/dedup.py:line_dedup): duplicated lines — the nav/footer
    boilerplate web extraction leaves behind — keep only their first
    (seq, line_idx) occurrence; documents are rebuilt without the later
    copies.  Rows-only gate; serial first-wins oracle parity pinned in
    tests/test_stages.py."""
    from ..stages.dedup import line_dedup

    return line_dedup(_fetched_text_ds(sf_dir), id_col="seq", text_col="text")


def q_crawl_host_triangles(sf_dir: str) -> pd.DataFrame:
    """Host-graph triangle counts — the link-spam / link-farm connectivity
    signal (tightly inter-linked host cliques score high): collapse the
    corpus URL link graph to distinct host-host edges, then run the
    degree-oriented wedge join (`stages/graph.py:triangle_count`, bounded
    exchanges only, nothing broadcast).  Host names are restored by a
    partition join of the (id, host) vocabulary against the per-node
    counts — the vocabulary is the same size as the output table.
    Rows-only gate: brute-force oracle parity + hand-built clique values
    in tests/test_graph.py."""
    from ..stages.graph import triangle_count

    hedges = _host_graph(corpus_dir_for_sf(sf_dir))
    tri = triangle_count(hedges, "src", "dst").to_pandas()
    names = _host_names(hedges)
    out = tri.merge(names, on="id", how="left")[["host", "n_triangles"]]
    out["n_triangles"] = out["n_triangles"].astype(np.int64)
    return out.sort_values(
        ["n_triangles", "host"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)


def q_crawl_host_kcore(sf_dir: str) -> pd.DataFrame:
    """The 3-core of the host link graph (Seidman 1983, iterative peeling
    in `stages/graph.py:kcore` — bounded per-round exchanges, nothing
    broadcast): the cohesion filter separating tightly-knit host
    communities (link farms / genuine hub clusters) from the long tail.
    Output (host, core_deg) name-joined exactly like
    `q_crawl_host_triangles`.  Rows-only gate: serial peeling oracle
    parity + hand-built clique values in tests/test_graph.py."""
    from ..stages.graph import kcore

    hedges = _host_graph(corpus_dir_for_sf(sf_dir))
    core = kcore(hedges, k=3, src_col="src", dst_col="dst").to_pandas()
    names = _host_names(hedges)
    out = core.merge(names, on="id", how="left")[["host", "deg"]].rename(
        columns={"deg": "core_deg"}
    )
    out["core_deg"] = out["core_deg"].astype(np.int64)
    return out.sort_values(
        ["core_deg", "host"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)


def q_crawl_host_distance(sf_dir: str) -> pd.DataFrame:
    """Link-proximity of every host to the crawl's seed list: multi-source
    BFS hop distance over the DIRECTED host link graph
    (stages/graph.py:bfs_distance — the fully-exchanged frontier shape:
    edges partitioned once, distance state node-partitioned and never
    collected, only the per-round frontier moves).  This is the "crawl
    depth by host" report — which hosts are N clicks from the seeds —
    and the reachability pre-check before budgeting a deeper crawl.
    Rows-only gate: serial BFS oracle parity in tests/test_graph.py."""
    from urllib.parse import urlparse

    import pyarrow.parquet as pq

    from ..stages.graph import bfs_distance, url_ids

    corpus = corpus_dir_for_sf(sf_dir)
    hedges = _host_graph(corpus)

    seeds = pq.read_table(
        os.path.join(corpus, "seeds.parquet"), columns=["url"]
    ).to_pandas()
    seed_hosts = sorted({urlparse(u).netloc for u in seeds["url"]})
    seed_ids = url_ids(seed_hosts)

    dist = bfs_distance(
        hedges, seed_ids, col_a="src", col_b="dst", directed=True
    ).to_pandas()
    names = _host_names(hedges)
    out = dist.merge(names, on="id", how="left")
    # seed hosts that emit no links have no vocabulary row; restore
    seed_map = dict(zip(seed_ids.tolist(), seed_hosts))
    miss = out["host"].isna()
    if miss.any():
        out.loc[miss, "host"] = out.loc[miss, "id"].map(seed_map)
    out = out[["host", "dist"]]
    out["dist"] = out["dist"].astype(np.int64)
    return out.sort_values(
        ["dist", "host"], kind="mergesort"
    ).reset_index(drop=True)


def q_crawl_host_hits(sf_dir: str) -> pd.DataFrame:
    """Hub/authority scores of the host link graph (Kleinberg 1999 HITS,
    stages/graph.py:hits — alternating half-sweep power iteration,
    broadcast score vector, per-batch partial sums).  Separates
    directory-style hosts (high hub) from linked-to content hosts
    (high authority) — a signal PageRank's single score conflates.
    Rows-only gate: dense numpy oracle parity + star-graph values in
    tests/test_graph.py."""
    from ..stages.graph import hits

    hedges = _host_graph(corpus_dir_for_sf(sf_dir))
    scores = hits(hedges, "src", "dst")
    names = _host_names(hedges)
    out = scores.merge(names, on="id", how="left")[["host", "hub", "auth"]]
    return out.sort_values(
        ["auth", "hub", "host"], ascending=[False, False, True], kind="mergesort"
    ).reset_index(drop=True)


def q_multimodal_phash_dedup(sf_dir: str) -> pd.DataFrame:
    """Image near-duplicate detection by 64-bit perceptual dHash
    (stages/multimodal.py: actor-pool PNG decode -> block-mean dHash ->
    dedup.banded_hamming_pairs: 8 x 8-bit band partitioning, hamming <= 7
    verified by vectorized popcount — nothing quadratic, nothing
    broadcast).  The
    synthetic corpus plants 2x-upscaled copies of five PNGs; the
    operator must pair each with its original.  Rows-only gate:
    planted-pair recall + determinism in tests/test_media.py."""
    import json as _json

    from ..functions.media import png_encode, resize_nearest
    from ..stages.multimodal import phash_near_pairs, synth_media_batch

    media = synth_media_batch(media_rows_for_sf(sf_dir))
    # plant STRUCTURED images (gradients — dHash is knife-edge on pure
    # noise, by design: no perceptual structure means no stable hash)
    # with a 2x nearest-upscaled near-copy each
    extra = []
    for j in range(5):
        h, w = 24 + 4 * j, 32 + 4 * j
        r = np.arange(h)[:, None] // (j + 2)
        c = np.arange(w)[None, :] // (j + 3)
        img = (255 * ((r + c) % 2)).astype(np.uint8)[..., None].repeat(3, axis=2)
        meta = _json.dumps({"source": "planted"})
        extra.append((2000 + j, "image/png", png_encode(img), meta))
        up = resize_nearest(img, h * 2, w * 2)
        extra.append((3000 + j, "image/png", png_encode(up), meta))
    planted = pd.concat(
        [media, pd.DataFrame(extra, columns=list(media.columns))],
        ignore_index=True,
    )
    return phash_near_pairs(ray.data.from_pandas(planted), max_hamming=7)


def q_multimodal_audio_dedup(sf_dir: str) -> pd.DataFrame:
    """Audio near-duplicate detection by 64-bit envelope fingerprint
    (stages/multimodal.py: gain-normalized framewise RMS+ZCR
    adjacent-compare bits -> the same banded hamming join as the image
    path, dedup.banded_hamming_pairs).  Plants five amplitude-scaled, lightly-noised copies of
    synthetic clips — re-volume/re-encode duplicates the raw-byte hash
    misses.  Rows-only gate: planted-pair recall + no cross-frequency
    false positives in tests/test_media.py."""
    from ..functions.media import wav_decode, wav_encode
    from ..stages.multimodal import audio_near_pairs, synth_media_batch

    media = synth_media_batch(media_rows_for_sf(sf_dir))
    wavs = media[media["media_type"] == "audio/wav"].head(5)
    rng = np.random.RandomState(77)
    extra = []
    for _, r in wavs.iterrows():
        samples, rate = wav_decode(r["payload"])
        scaled = (samples.astype(np.float64) * 0.4).astype(np.int16)
        noise = rng.randint(-8, 9, size=len(scaled)).astype(np.int16)
        extra.append(
            (
                5000 + int(r["media_id"]),
                "audio/wav",
                wav_encode((scaled + noise).astype(np.int16), rate),
                r["meta"],
            )
        )
    planted = pd.concat(
        [media, pd.DataFrame(extra, columns=list(media.columns))],
        ignore_index=True,
    )
    return audio_near_pairs(ray.data.from_pandas(planted), max_hamming=7)
