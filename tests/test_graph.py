"""Tests for stages/graph.py: distributed PageRank (full-shuffle and
vertex-state-broadcast variants) vs the dense numpy oracle."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _random_edges(n_nodes=80, n_edges=400, seed=3) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, size=n_edges)
    dst = rng.integers(0, n_nodes, size=n_edges)
    keep = src != dst
    return pd.DataFrame(
        {"src": src[keep].astype(np.int64), "dst": dst[keep].astype(np.int64)}
    )


def _ds(df: pd.DataFrame):
    import ray.data

    return ray.data.from_pandas(df)


class TestPagerank:
    def test_shuffle_variant_matches_numpy(self):
        from webcrawl_lowres_lang_ray.stages.graph import pagerank, pagerank_numpy

        edges = _random_edges()
        got = (
            pagerank(_ds(edges), iterations=5)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        want = pagerank_numpy(edges, iterations=5).sort_values("id").reset_index(
            drop=True
        )
        assert len(got) == len(want)
        assert (got["id"].to_numpy() == want["id"].to_numpy()).all()
        assert np.allclose(got["rank"], want["rank"], atol=1e-9)

    def test_broadcast_variant_matches_numpy(self):
        from webcrawl_lowres_lang_ray.stages.graph import (
            pagerank_broadcast,
            pagerank_numpy,
        )

        edges = _random_edges(seed=9)
        got = (
            pagerank_broadcast(_ds(edges), iterations=5)
            .sort_values("id")
            .reset_index(drop=True)
        )
        want = pagerank_numpy(edges, iterations=5).sort_values("id").reset_index(
            drop=True
        )
        assert (got["id"].to_numpy() == want["id"].to_numpy()).all()
        assert np.allclose(got["rank"], want["rank"], atol=1e-9)

    def test_rank_properties(self):
        from webcrawl_lowres_lang_ray.stages.graph import pagerank_broadcast

        edges = _random_edges(seed=5)
        r = pagerank_broadcast(_ds(edges), iterations=5)
        assert (r["rank"] > 0).all()
        # mass <= 1 (dangling mass dropped), >= the base term alone
        n = len(r)
        assert 0.15 - 1e-9 <= r["rank"].sum() <= 1.0 + 1e-9
        assert (r["rank"] >= 0.15 / n - 1e-12).all()

    def test_hub_outranks_leaf(self):
        """Every node links to node 0 -> node 0 dominates."""
        from webcrawl_lowres_lang_ray.stages.graph import pagerank_broadcast

        edges = pd.DataFrame(
            {"src": np.arange(1, 30, dtype=np.int64),
             "dst": np.zeros(29, dtype=np.int64)}
        )
        r = pagerank_broadcast(_ds(edges), iterations=5).set_index("id")["rank"]
        assert r.loc[0] == r.max() and r.loc[0] > 5 * r.drop(0).max()

    def test_components_match_unionfind(self):
        from webcrawl_lowres_lang_ray.stages.graph import (
            components_numpy,
            connected_components,
        )

        rng = np.random.default_rng(17)
        # several chains + isolated pairs: transitive closure matters
        pairs = []
        base = 0
        for length in [2, 3, 5, 8, 2, 4]:
            for i in range(length - 1):
                pairs.append((base + i, base + i + 1))
            base += length + 3
        extra = rng.integers(0, base, size=(20, 2))
        pairs += [(int(a), int(b)) for a, b in extra if a != b]
        df = pd.DataFrame(pairs, columns=["id_a", "id_b"]).astype(np.int64)
        got = (
            connected_components(_ds(df))
            .sort_values("id")
            .reset_index(drop=True)
        )
        want = components_numpy(df).sort_values("id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

    def test_chain_collapses_to_one_cluster(self):
        """A~B, B~C, C~D with no direct A~D edge -> one component."""
        from webcrawl_lowres_lang_ray.stages.graph import connected_components

        df = pd.DataFrame(
            {"id_a": [10, 20, 30], "id_b": [20, 30, 40]}, dtype=np.int64
        )
        got = connected_components(_ds(df))
        assert (got["comp"] == 10).all()

    def test_crawl_dedup_clusters(self):
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import (
            q_crawl_dedup_clusters,
        )

        a = q_crawl_dedup_clusters("/root/testdata/sf0.001")
        b = q_crawl_dedup_clusters("/root/testdata/sf0.001")
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0
        # cluster label is the smallest member; exactly one keeper each
        g = a.groupby("cluster")
        assert (g["seq"].min() == g["seq"].min().index).all()
        assert (g["keep"].sum() == 1).all()

    def test_crawl_pagerank_runs_and_is_deterministic(self):
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import q_crawl_pagerank

        a = q_crawl_pagerank("/root/testdata/sf0.001")
        b = q_crawl_pagerank("/root/testdata/sf0.001")
        assert len(a) == 50 and list(a.columns) == ["url", "rank"]
        assert a["url"].notna().all() and a["url"].str.len().gt(0).all()
        assert (a["rank"].to_numpy() == np.sort(a["rank"].to_numpy())[::-1]).all()
        pd.testing.assert_frame_equal(a, b)

    def test_crawl_priority_pagerank_admission_order(self):
        """Composed pipeline: PageRank-derived seed priorities reorder
        admission — per host, every wave-0 seed must outrank every later
        seed of the same host ((priority DESC, seq) admission, tight
        per_host_per_wave budget)."""
        from urllib.parse import urlparse

        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import (
            q_crawl_priority_pagerank,
        )

        a = q_crawl_priority_pagerank("/root/testdata/sf0.001")
        b = q_crawl_priority_pagerank("/root/testdata/sf0.001")
        pd.testing.assert_frame_equal(a, b)  # cached + deterministic
        assert list(a.columns) == ["url", "priority", "wave"]
        assert len(a) > 0
        # priorities are a permutation of 1..N (total, deterministic)
        assert sorted(a["priority"]) == list(range(1, len(a) + 1))
        df = a.copy()
        df["host"] = [urlparse(u).netloc for u in df["url"]]
        admitted = df[df["wave"] >= 0]
        assert (admitted["wave"] == 0).any()
        for _, g in admitted.groupby("host"):
            waves = g["wave"].to_numpy()
            prios = g["priority"].to_numpy()
            for w in np.unique(waves):
                later = prios[waves > w]
                if len(later):
                    # every seed fetched in wave w beats every later one
                    assert prios[waves == w].min() > later.max()

    def test_crawl_host_degrees(self):
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import (
            q_crawl_host_degrees,
        )

        a = q_crawl_host_degrees("/root/testdata/sf0.001")
        b = q_crawl_host_degrees("/root/testdata/sf0.001")
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0
        # conservation: total out-links == total in-links (every edge has
        # one src host and one dst host)
        assert a["out_links"].sum() == a["in_links"].sum()
        assert (a["out_peer_hosts"] <= a["out_links"]).all()

    def test_crawl_host_degrees_match_pandas(self):
        """Per host: out/in link sums and distinct out-peers, recomputed in
        pandas from the URL edge list."""
        from urllib.parse import urlparse

        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import (
            _corpus_link_edges,
            q_crawl_host_degrees,
        )
        from webcrawl_lowres_lang_ray.sources.synth import corpus_dir_for_sf

        sf = "/root/testdata/sf0.001"
        urls = _corpus_link_edges(corpus_dir_for_sf(sf)).to_pandas()
        e = pd.DataFrame(
            {
                "src": [urlparse(u).netloc for u in urls["src_url"]],
                "dst": [urlparse(u).netloc for u in urls["dst_url"]],
            }
        )
        hosts = sorted(set(e["src"]) | set(e["dst"]))
        want = pd.DataFrame(
            {
                "host": hosts,
                "out_links": e.groupby("src").size().reindex(hosts, fill_value=0).to_numpy(np.int64),
                "in_links": e.groupby("dst").size().reindex(hosts, fill_value=0).to_numpy(np.int64),
                "out_peer_hosts": e.groupby("src")["dst"].nunique().reindex(hosts, fill_value=0).to_numpy(np.int64),
            }
        )
        pd.testing.assert_frame_equal(q_crawl_host_degrees(sf), want)

    def test_crawl_host_degrees_runs_no_pagerank(self, monkeypatch):
        """Degrees read the edges alone; no PageRank plan may run."""
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import (
            q_crawl_host_degrees,
        )
        from webcrawl_lowres_lang_ray.stages import graph

        def boom(*a, **k):
            raise AssertionError("q_crawl_host_degrees ran PageRank")

        for name in ("pagerank_auto", "pagerank", "pagerank_broadcast"):
            monkeypatch.setattr(graph, name, boom)
        assert len(q_crawl_host_degrees("/root/testdata/sf0.001")) > 0


class TestPagerankAuto:
    def test_dispatch_paths_agree(self, monkeypatch):
        """pagerank_auto must return the identical (id, rank) table
        whichever variant the edge-count dispatch picks."""
        from webcrawl_lowres_lang_ray.stages import graph

        edges = _random_edges()
        small = (
            graph.pagerank_auto(_ds(edges), iterations=5)
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        monkeypatch.setattr(graph, "BROADCAST_PAGERANK_MAX_EDGES", 0)
        big = (
            graph.pagerank_auto(_ds(edges), iterations=5)
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        assert (small["id"].to_numpy() == big["id"].to_numpy()).all()
        assert np.allclose(small["rank"], big["rank"], atol=1e-9)

    def test_dispatch_selects_exchanged_above_threshold(self, monkeypatch):
        from webcrawl_lowres_lang_ray.stages import graph

        calls = []
        monkeypatch.setattr(
            graph, "pagerank",
            lambda *a, **k: calls.append("exchanged") or _ds(pd.DataFrame({"id": [0], "rank": [1.0]})),
        )
        monkeypatch.setattr(graph, "BROADCAST_PAGERANK_MAX_EDGES", 1)
        graph.pagerank_auto(_ds(_random_edges()), iterations=1)
        assert calls == ["exchanged"]


class TestTriangleCount:
    def test_k4_plus_noise(self):
        from webcrawl_lowres_lang_ray.stages.graph import triangle_count

        edges = [(a, b) for a in range(1, 5) for b in range(1, 5) if a < b]
        edges += [(4, 5), (1, 1), (2, 1)]  # pendant, self-loop, reverse dup
        out = (
            triangle_count(_ds(pd.DataFrame(edges, columns=["src", "dst"])))
            .to_pandas()
            .set_index("id")["n_triangles"]
        )
        # K4: 4 triangles, every member node in 3; pendant node in none
        assert out.to_dict() == {1: 3, 2: 3, 3: 3, 4: 3}
        assert int(out.sum()) // 3 == 4

    def test_random_graph_matches_bruteforce(self):
        from webcrawl_lowres_lang_ray.stages.graph import (
            triangle_count,
            triangles_bruteforce,
        )

        df = _random_edges(n_nodes=60, n_edges=800, seed=11)
        out = triangle_count(_ds(df)).to_pandas()
        counts, total = triangles_bruteforce(
            df.rename(columns={"src": "a", "dst": "b"})
        )
        assert out.set_index("id")["n_triangles"].to_dict() == counts
        assert int(out["n_triangles"].sum()) // 3 == total
        assert total > 0  # non-degenerate

    def test_triangle_free_graph_is_empty(self):
        from webcrawl_lowres_lang_ray.stages.graph import triangle_count

        # bipartite graphs have no triangles
        edges = [(i, 100 + j) for i in range(6) for j in range(6)]
        out = triangle_count(_ds(pd.DataFrame(edges, columns=["src", "dst"]))).to_pandas()
        assert len(out) == 0

    def test_crawl_host_triangles_deterministic(self):
        import __ray_entry__ as e

        a = e.queries()["crawl_host_triangles"]("/root/testdata/sf0.001")
        b = e.queries()["crawl_host_triangles"]("/root/testdata/sf0.001")
        assert a.equals(b)
        assert list(a.columns) == ["host", "n_triangles"]
        assert (a["n_triangles"] >= 1).all()
        assert a["host"].notna().all()


class TestKCore:
    def test_clique_chain_triangle(self):
        from webcrawl_lowres_lang_ray.stages.graph import kcore, kcore_bruteforce

        edges = [(a, b) for a in range(5) for b in range(5) if a < b]  # K5
        edges += [(4, 10), (10, 11), (11, 12)]  # chain peels away
        edges += [(20, 21), (21, 22), (20, 22)]  # triangle stays at k<=2
        df = pd.DataFrame(edges, columns=["src", "dst"])
        out = kcore(_ds(df), k=3).to_pandas()
        oracle = kcore_bruteforce(df.rename(columns={"src": "a", "dst": "b"}), 3)
        assert dict(zip(out["id"], out["deg"])) == oracle
        assert set(out["id"]) == {0, 1, 2, 3, 4}  # only the K5 survives k=3
        out2 = kcore(_ds(df), k=2).to_pandas()
        assert {20, 21, 22} <= set(out2["id"])  # the triangle is a 2-core

    def test_random_graph_matches_peeling_oracle(self):
        from webcrawl_lowres_lang_ray.stages.graph import kcore, kcore_bruteforce

        df = _random_edges(n_nodes=70, n_edges=700, seed=9)
        for k in (4, 8):
            out = kcore(_ds(df), k=k).to_pandas()
            oracle = kcore_bruteforce(df.rename(columns={"src": "a", "dst": "b"}), k)
            assert dict(zip(out["id"], out["deg"])) == oracle

    def test_empty_core(self):
        from webcrawl_lowres_lang_ray.stages.graph import kcore

        df = pd.DataFrame({"src": [1, 2], "dst": [2, 3]})
        out = kcore(_ds(df), k=5).to_pandas()
        assert len(out) == 0

    def test_crawl_host_kcore_deterministic(self):
        import __ray_entry__ as e

        a = e.queries()["crawl_host_kcore"]("/root/testdata/sf0.001")
        b = e.queries()["crawl_host_kcore"]("/root/testdata/sf0.001")
        assert a.equals(b)
        assert list(a.columns) == ["host", "core_deg"]
        # every member of a 3-core has core degree >= 3
        if len(a):
            assert (a["core_deg"] >= 3).all()


class TestBfsDistance:
    def test_chain_graph_known_distances(self):
        from webcrawl_lowres_lang_ray.stages.graph import bfs_distance

        df = pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 3, 4]})
        out = (
            bfs_distance(_ds(df), np.array([0]), col_a="src", col_b="dst",
                         directed=True, parts=4)
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        assert dict(zip(out["id"], out["dist"])) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_unreachable_nodes_excluded_directed(self):
        from webcrawl_lowres_lang_ray.stages.graph import bfs_distance

        # 5 -> 0: 5 unreachable FROM 0 in the directed graph
        df = pd.DataFrame({"src": [0, 5], "dst": [1, 0]})
        out = bfs_distance(
            _ds(df), np.array([0]), col_a="src", col_b="dst",
            directed=True, parts=4
        ).to_pandas()
        assert set(out["id"]) == {0, 1}

    def test_multi_source_takes_nearest_seed(self):
        from webcrawl_lowres_lang_ray.stages.graph import bfs_distance

        df = pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 3, 4]})
        out = (
            bfs_distance(_ds(df), np.array([0, 4]), col_a="src", col_b="dst",
                         parts=4)  # undirected
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        assert dict(zip(out["id"], out["dist"])) == {0: 0, 1: 1, 2: 2, 3: 1, 4: 0}

    def test_node_id_minus_one_is_a_legal_vertex(self):
        """Node ids are signed md5-derived int64s, so -1 is a legal id; the
        frontier marker must be an explicit column, not an in-band dst
        sentinel (a -1 sentinel made -1's out-edges read as frontier rows
        and silently dropped them)."""
        from webcrawl_lowres_lang_ray.stages.graph import bfs_distance

        df = pd.DataFrame({"src": [0, -1], "dst": [-1, 7]})
        out = (
            bfs_distance(_ds(df), np.array([0]), col_a="src", col_b="dst",
                         directed=True, parts=4)
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        assert dict(zip(out["id"], out["dist"])) == {-1: 1, 0: 0, 7: 2}

    def test_random_graphs_match_serial_oracle(self):
        from webcrawl_lowres_lang_ray.stages.graph import bfs_distance, bfs_numpy

        df = _random_edges(n_nodes=60, n_edges=150, seed=11)
        seeds = np.array([0, 7, 13])
        for directed in (False, True):
            got = (
                bfs_distance(_ds(df), seeds, col_a="src", col_b="dst",
                             directed=directed, parts=8)
                .to_pandas().sort_values("id").reset_index(drop=True)
            )
            want = bfs_numpy(df, seeds, col_a="src", col_b="dst",
                             directed=directed)
            assert got.equals(want)

    def test_crawl_host_distance_invariants(self):
        import __ray_entry__ as e

        out = e.queries()["crawl_host_distance"]("/root/testdata/sf0.001")
        assert list(out.columns) == ["host", "dist"]
        assert (out["dist"] >= 0).all()
        assert len(out) > 0 and (out["dist"] == 0).any()
        # deterministic across runs
        out2 = e.queries()["crawl_host_distance"]("/root/testdata/sf0.001")
        assert out.equals(out2)


class TestHits:
    def test_random_graph_matches_dense_oracle(self):
        from webcrawl_lowres_lang_ray.stages.graph import hits, hits_numpy

        df = _random_edges(n_nodes=50, n_edges=200, seed=5)
        got = hits(_ds(df), "src", "dst").sort_values("id").reset_index(drop=True)
        want = hits_numpy(df, "src", "dst")
        assert got.equals(want)

    def test_star_graph_separates_hub_from_authorities(self):
        from webcrawl_lowres_lang_ray.stages.graph import hits

        df = pd.DataFrame({"src": [0] * 5, "dst": [1, 2, 3, 4, 5]})
        out = hits(_ds(df), "src", "dst").set_index("id")
        assert out.loc[0, "hub"] == 1.0 and out.loc[0, "auth"] == 0.0
        assert (out.loc[1:, "auth"] > 0.4).all()
        assert (out.loc[1:, "hub"] == 0.0).all()

    def test_crawl_host_hits_deterministic(self):
        import __ray_entry__ as e

        a = e.queries()["crawl_host_hits"]("/root/testdata/sf0.001")
        b = e.queries()["crawl_host_hits"]("/root/testdata/sf0.001")
        assert a.equals(b)
        assert list(a.columns) == ["host", "hub", "auth"]
        assert len(a) > 0

    def test_long_chain_many_rounds_stays_coalesced(self):
        """A 40-chain forces 40 BFS rounds — exercises the per-round
        block-coalesce guard (without it, union+sort fragmentation
        compounds per round and the driver drowns in tiny blocks)."""
        from webcrawl_lowres_lang_ray.stages.graph import bfs_distance

        n = 40
        df = pd.DataFrame(
            {"src": np.arange(n - 1, dtype=np.int64),
             "dst": np.arange(1, n, dtype=np.int64)}
        )
        out = bfs_distance(
            _ds(df), np.array([0]), col_a="src", col_b="dst",
            directed=True, parts=4, max_rounds=n + 2,
        ).materialize()
        assert out.num_blocks() <= 8  # 2 * parts
        got = out.to_pandas().sort_values("id").reset_index(drop=True)
        assert (got["dist"].to_numpy() == np.arange(n)).all()
