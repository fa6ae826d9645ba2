"""Link-graph analysis: distributed PageRank over (src, dst) edge lists.

PageRank (Brin & Page 1998) is the classic web-scale iterative algorithm —
the operator class (fixed-point iteration over a partitioned edge list) that
a Dataset API has to express with per-iteration exchanges rather than a
single declarative plan.

Implementation shape (designed for 10^10-edge graphs):
* node ids are int64 (callers map URLs via the leading 8 bytes of md5 —
  deterministic, coordination-free; birthday collision odds ~n^2/2^65);
* out-degrees are combiner-aggregated and joined onto the edge list ONCE
  (hash-partition exchange keyed by src); the weighted edge list is then
  materialized and reused every iteration;
* each iteration is two small exchanges carrying (id, float) rows only:
  ranks partition-join onto edges by src -> per-edge contributions
  pre-summed per (partition, dst) batch -> combiner-agg by dst;
* dangling-node mass is dropped (the simplified PageRank variant:
  ``r' = (1-d)/N + d * sum_{u->v} r(u)/outdeg(u)``); the numpy oracle in
  tests/test_graph.py uses the identical formula, so parity is exact.

Ranks never live on the driver: they stay a Dataset of (id, rank) rows and
are re-materialized per iteration to cut lineage.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from .agg import combiner_agg


def url_ids(urls) -> np.ndarray:
    """Deterministic int64 node id: big-endian leading 8 bytes of md5."""
    import hashlib

    md5 = hashlib.md5
    out = np.empty(len(urls), dtype=np.int64)
    for i, u in enumerate(urls):
        out[i] = int.from_bytes(md5(u.encode()).digest()[:8], "big", signed=True)
    return out


def _partition_join_ranks(
    edges: "ray.data.Dataset", ranks: "ray.data.Dataset", damping: float, parts: int
) -> "ray.data.Dataset":
    """One PageRank sweep: (dst, partial contribution sums) rows."""

    def tag_ranks(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": b["id"].to_numpy(np.int64),
                "dst": np.zeros(len(b), dtype=np.int64),
                "outdeg": np.zeros(len(b), dtype=np.int64),
                "rank": b["rank"].to_numpy(np.float64),
                "side": np.ones(len(b), dtype=np.int8),
                "jpart": (b["id"] % parts).to_numpy(np.int64),
            }
        )

    def tag_edges(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rank"] = np.zeros(len(b), dtype=np.float64)
        b["side"] = np.zeros(len(b), dtype=np.int8)
        b["jpart"] = (b["src"] % parts).to_numpy(np.int64)
        return b[["src", "dst", "outdeg", "rank", "side", "jpart"]]

    tagged = edges.map_batches(tag_edges, batch_format="pandas").union(
        ranks.map_batches(tag_ranks, batch_format="pandas")
    )

    def contribs(g: pd.DataFrame) -> pd.DataFrame:
        r = g[g["side"] == 1].set_index("src")["rank"]
        e = g[g["side"] == 0]
        if not len(e):
            return pd.DataFrame(
                {"dst": pd.Series(dtype="int64"), "c": pd.Series(dtype="float64")}
            )
        rv = r.reindex(e["src"]).to_numpy(np.float64)
        c = damping * np.nan_to_num(rv) / np.maximum(e["outdeg"].to_numpy(), 1)
        # pre-sum per dst INSIDE the partition (combiner): the downstream
        # exchange carries one row per (partition, dst), never per edge
        out = (
            pd.DataFrame({"dst": e["dst"].to_numpy(np.int64), "c": c})
            .groupby("dst", sort=False)["c"]
            .sum()
            .reset_index()
        )
        return out

    return tagged.groupby("jpart").map_groups(contribs, batch_format="pandas")


def _weighted_edges(edges_ds: "ray.data.Dataset", parts: int) -> "ray.data.Dataset":
    """(src, dst, outdeg) edges, materialized: out-degrees are
    combiner-counted, then joined onto the edge list by one exchange
    keyed by src.  Both PageRank plans reread it every sweep."""

    def tag_e(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": b["src"].to_numpy(np.int64),
                "dst": b["dst"].to_numpy(np.int64),
                "outdeg": np.zeros(len(b), dtype=np.int64),
                "side": np.zeros(len(b), dtype=np.int8),
                "jpart": (b["src"] % parts).to_numpy(np.int64),
            }
        )

    def tag_d(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": b["src"].to_numpy(np.int64),
                "dst": np.zeros(len(b), dtype=np.int64),
                "outdeg": b["outdeg"].to_numpy(np.int64),
                "side": np.ones(len(b), dtype=np.int8),
                "jpart": (b["src"] % parts).to_numpy(np.int64),
            }
        )

    def attach_deg(g: pd.DataFrame) -> pd.DataFrame:
        d = g[g["side"] == 1].set_index("src")["outdeg"]
        e = g[g["side"] == 0]
        if not len(e):
            return pd.DataFrame(
                {
                    "src": pd.Series(dtype="int64"),
                    "dst": pd.Series(dtype="int64"),
                    "outdeg": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "src": e["src"].to_numpy(np.int64),
                "dst": e["dst"].to_numpy(np.int64),
                "outdeg": d.reindex(e["src"]).to_numpy(np.int64),
            }
        )

    deg = combiner_agg(edges_ds, ["src"], [("outdeg", None, "count")], parts)
    return (
        edges_ds.map_batches(tag_e, batch_format="pandas")
        .union(deg.map_batches(tag_d, batch_format="pandas"))
        .groupby("jpart")
        .map_groups(attach_deg, batch_format="pandas")
        .materialize()
    )


def pagerank(
    edges_ds: "ray.data.Dataset",
    iterations: int = 5,
    damping: float = 0.85,
    parts: int = 32,
    round_dp: int = 8,
) -> "ray.data.Dataset":
    """PageRank over an (src, dst) int64 edge Dataset; returns (id, rank)
    after ``iterations`` sweeps from the uniform start, ranks rounded to
    ``round_dp`` (fixed partitioning -> deterministic sums)."""
    from ..stages.textstats import round_half_away

    # nodes = distinct ids on either edge end (one exchange of id rows)
    def both_ends(b: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(
            np.concatenate(
                [b["src"].to_numpy(np.int64), b["dst"].to_numpy(np.int64)]
            )
        )
        return pd.DataFrame({"id": ids, "part": ids % parts})

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": np.unique(g["id"].to_numpy(np.int64))})

    nodes = (
        edges_ds.map_batches(both_ends, batch_format="pandas")
        .groupby("part")
        .map_groups(distinct, batch_format="pandas")
        .materialize()
    )
    n = nodes.count()

    edges_w = _weighted_edges(edges_ds, parts)

    base = (1.0 - damping) / n

    def init_ranks(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "id": b["id"].to_numpy(np.int64),
                "rank": np.full(len(b), 1.0 / n, dtype=np.float64),
            }
        )

    ranks = nodes.map_batches(init_ranks, batch_format="pandas").materialize()

    def zero_contrib(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "dst": b["id"].to_numpy(np.int64),
                "c": np.zeros(len(b), dtype=np.float64),
            }
        )

    zeros = nodes.map_batches(zero_contrib, batch_format="pandas").materialize()

    for _ in range(iterations):
        contrib = _partition_join_ranks(edges_w, ranks, damping, parts)
        summed = combiner_agg(
            contrib.union(zeros), ["dst"], [("csum", "c", "sum")], parts
        )

        def to_rank(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "id": b["dst"].to_numpy(np.int64),
                    "rank": base + b["csum"].to_numpy(np.float64),
                }
            )

        ranks = summed.map_batches(to_rank, batch_format="pandas").materialize()

    def rounded(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rank"] = round_half_away(b["rank"], round_dp)
        return b

    return ranks.map_batches(rounded, batch_format="pandas")


def pagerank_broadcast(
    edges_ds: "ray.data.Dataset",
    iterations: int = 5,
    damping: float = 0.85,
    parts: int = 32,
    round_dp: int = 8,
) -> pd.DataFrame:
    """Vertex-state-broadcast PageRank: same update rule as ``pagerank()``
    but the rank VECTOR is broadcast per sweep (``ray.put`` of two numpy
    arrays) and edge blocks are never re-shuffled — each sweep is ONE
    map execution emitting per-batch (dst, contribution) partials that the
    driver merges into the next vector.

    Valid while the node table fits one process (~10^8 nodes / a few GB);
    beyond that use ``pagerank()`` (fully-exchanged ranks).  Returns the
    (id, rank) node frame, ids ascending, ranks rounded."""
    import ray

    from ..stages.textstats import round_half_away

    edges_w = _weighted_edges(edges_ds, parts)

    # node vector on the driver (sorted ids -> searchsorted rank lookup)
    ends = edges_w.map_batches(
        lambda b: pd.DataFrame(
            {
                "id": np.unique(
                    np.concatenate(
                        [b["src"].to_numpy(np.int64), b["dst"].to_numpy(np.int64)]
                    )
                )
            }
        ),
        batch_format="pandas",
    ).to_pandas()
    ids = np.unique(ends["id"].to_numpy(np.int64))
    n = len(ids)
    base = (1.0 - damping) / n
    rank = np.full(n, 1.0 / n, dtype=np.float64)

    for _ in range(iterations):
        ref = ray.put((ids, rank))

        def sweep(b: pd.DataFrame) -> pd.DataFrame:
            sids, r = ray.get(ref)
            rv = r[np.searchsorted(sids, b["src"].to_numpy(np.int64))]
            c = damping * rv / np.maximum(b["outdeg"].to_numpy(np.int64), 1)
            out = (
                pd.DataFrame({"dst": b["dst"].to_numpy(np.int64), "c": c})
                .groupby("dst", sort=False)["c"]
                .sum()
                .reset_index()
            )
            return out

        partials = edges_w.map_batches(sweep, batch_format="pandas").to_pandas()
        contrib = np.zeros(n, dtype=np.float64)
        if len(partials):
            pos = np.searchsorted(ids, partials["dst"].to_numpy(np.int64))
            np.add.at(contrib, pos, partials["c"].to_numpy(np.float64))
        rank = base + contrib

    return pd.DataFrame({"id": ids, "rank": round_half_away(rank, round_dp)})


# dispatch threshold for pagerank_auto: below this many edges the node
# vector comfortably fits one process (nodes <= 2 x edges) and the
# broadcast variant's one-map-per-sweep plan wins; above it the rank
# vector itself is the scale risk and the fully-exchanged plan takes over
BROADCAST_PAGERANK_MAX_EDGES = 50_000_000


def pagerank_auto(
    edges_ds: "ray.data.Dataset",
    iterations: int = 5,
    damping: float = 0.85,
    parts: int = 32,
    round_dp: int = 8,
    n_edges: int | None = None,
) -> "ray.data.Dataset":
    """Scale-dispatching PageRank — the SHIPPED entry point: picks the
    vertex-state-broadcast fast path for small graphs and the
    fully-exchanged ``pagerank()`` (rank table never leaves the cluster,
    valid at 10^10 nodes) above ``BROADCAST_PAGERANK_MAX_EDGES`` edges.
    Both variants implement the identical update rule (equality on the test
    corpus pinned in tests/test_graph.py); returns an (id, rank) Dataset
    either way.  Pass ``n_edges`` when the caller already knows the edge
    count (e.g. from a materialized upstream Dataset) to skip the count
    execution."""
    if n_edges is None:
        n_edges = edges_ds.count()
    if n_edges <= BROADCAST_PAGERANK_MAX_EDGES:
        return ray.data.from_pandas(
            pagerank_broadcast(edges_ds, iterations, damping, parts, round_dp)
        )
    return pagerank(edges_ds, iterations, damping, parts, round_dp)


def pagerank_numpy(
    edges: pd.DataFrame, iterations: int = 5, damping: float = 0.85
) -> pd.DataFrame:
    """Dense single-process oracle with the identical update rule (tests)."""
    ids = np.unique(
        np.concatenate([edges["src"].to_numpy(), edges["dst"].to_numpy()])
    )
    idx = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    src = np.array([idx[v] for v in edges["src"]], dtype=np.int64)
    dst = np.array([idx[v] for v in edges["dst"]], dtype=np.int64)
    outdeg = np.bincount(src, minlength=n)
    r = np.full(n, 1.0 / n)
    for _ in range(iterations):
        contrib = np.zeros(n)
        np.add.at(contrib, dst, damping * r[src] / np.maximum(outdeg[src], 1))
        r = (1.0 - damping) / n + contrib
    return pd.DataFrame({"id": ids, "rank": r})


def connected_components(
    pairs_ds: "ray.data.Dataset",
    col_a: str = "id_a",
    col_b: str = "id_b",
    max_iterations: int = 50,
) -> pd.DataFrame:
    """Connected components over an undirected pair list by min-label
    propagation: every node's label converges to the smallest node id in its
    component.  Returns ``(id, comp)``.

    Vertex-state-broadcast shape (like ``pagerank_broadcast``): the label
    vector is ``ray.put`` per sweep and each sweep is ONE map execution over
    the edge blocks emitting per-batch (node, min-neighbor-label) partials;
    iteration stops at the first sweep with no label change (diameter-bound,
    not ``max_iterations``).  Valid while the node vector fits one process —
    the natural regime for dedup clustering, where pair lists cover only the
    duplicated minority of a corpus.  For full-corpus-scale graphs, the
    exchanged-ranks shape of ``pagerank()`` applies identically."""
    import ray

    ends = pairs_ds.map_batches(
        lambda b: pd.DataFrame(
            {
                "id": np.unique(
                    np.concatenate(
                        [b[col_a].to_numpy(np.int64), b[col_b].to_numpy(np.int64)]
                    )
                )
            }
        ),
        batch_format="pandas",
    ).to_pandas()
    ids = np.unique(ends["id"].to_numpy(np.int64))
    n = len(ids)
    label = ids.copy()
    edges = pairs_ds.materialize()

    for _ in range(max_iterations):
        ref = ray.put((ids, label))

        def sweep(b: pd.DataFrame) -> pd.DataFrame:
            sids, lab = ray.get(ref)
            a = np.searchsorted(sids, b[col_a].to_numpy(np.int64))
            bb = np.searchsorted(sids, b[col_b].to_numpy(np.int64))
            # each endpoint proposes its label to the other
            node = np.concatenate([a, bb])
            prop = np.concatenate([lab[bb], lab[a]])
            out = (
                pd.DataFrame({"node": node, "lab": prop})
                .groupby("node", sort=False)["lab"]
                .min()
                .reset_index()
            )
            return out

        partials = edges.map_batches(sweep, batch_format="pandas").to_pandas()
        new_label = label.copy()
        if len(partials):
            node = partials["node"].to_numpy(np.int64)
            lab = partials["lab"].to_numpy(np.int64)
            np.minimum.at(new_label, node, lab)
        if (new_label == label).all():
            break
        label = new_label

    return pd.DataFrame({"id": ids, "comp": label})


def components_numpy(
    pairs: pd.DataFrame, col_a: str = "id_a", col_b: str = "id_b"
) -> pd.DataFrame:
    """Union-find oracle (tests): component label = min id in component."""
    ids = np.unique(
        np.concatenate([pairs[col_a].to_numpy(), pairs[col_b].to_numpy()])
    )
    parent = {int(i): int(i) for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs[col_a], pairs[col_b]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = np.array([find(int(i)) for i in ids], dtype=np.int64)
    return pd.DataFrame({"id": ids, "comp": comp})


# ---------------------------------------------------------------------------
# triangle counting (degree-oriented wedge join)
# ---------------------------------------------------------------------------


def triangle_count(
    edges_ds: "ray.data.Dataset",
    src_col: str = "src",
    dst_col: str = "dst",
    parts: int = 32,
) -> "ray.data.Dataset":
    """Distributed triangle counting over an int64 edge list — the classic
    degree-ordered wedge join (Schank & Wagner 2005 / Suri & Vassilvitskii
    2011 "MapReduce clustering coefficient"): orient every undirected edge
    from its lower-(degree, id) endpoint to the higher one, generate wedges
    only from each node's ORIENTED out-neighborhood (bounded by O(sqrt(m))
    after orientation, so hub nodes cannot explode the pair stage), and
    close them with one hash-partitioned join against the oriented edges.

    Each triangle is counted exactly once at generation and credited to all
    three corners.  Returns a Dataset ``(id, n_triangles)`` over nodes in
    >= 1 triangle; the graph total is ``sum(n_triangles) / 3``.

    Exchanges (all bounded, nothing broadcast): canonical-dedup groupby,
    degree combiner, two degree-attach partition joins, the wedge grouping,
    the closing-edge join, and the final per-node count combiner."""

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].to_numpy(np.int64)
        c = b[dst_col].to_numpy(np.int64)
        lo = np.minimum(a, c)
        hi = np.maximum(a, c)
        m = lo != hi  # drop self-loops
        f = pd.DataFrame({"a": lo[m], "b": hi[m]}).drop_duplicates()
        f["__p"] = ((f["a"].to_numpy() * np.int64(1000003)) ^ f["b"].to_numpy()) % parts
        return f

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["a", "b"])[["a", "b"]]

    ded = (
        edges_ds.map_batches(canon, batch_format="pandas")
        .groupby("__p")
        .map_groups(dedup, batch_format="pandas")
        .materialize()
    )

    def ends(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"id": np.concatenate([b["a"].to_numpy(np.int64), b["b"].to_numpy(np.int64)])}
        )

    deg = combiner_agg(
        ded.map_batches(ends, batch_format="pandas"),
        ["id"],
        [("deg", None, "count")],
        parts,
    )

    def _attach(key: str, out_col: str, edge_cols: list[str]):
        """Tagged-union partition join: attach deg[node] onto edges keyed
        by ``key`` (same shape as pagerank's degree attach).  ``edge_cols``
        is the edge side's full column list — the degree side zero-fills
        the rest so both union arms share one schema."""

        def tag_e(b: pd.DataFrame) -> pd.DataFrame:
            f = b[edge_cols].copy()
            f["__deg"] = np.int64(0)
            f["__side"] = np.int8(0)
            f["__j"] = (b[key].to_numpy(np.int64)) % parts
            return f

        def tag_d(b: pd.DataFrame) -> pd.DataFrame:
            f = pd.DataFrame({key: b["id"].to_numpy(np.int64)})
            for c in edge_cols:
                if c != key:
                    f[c] = np.int64(0)
            f = f[edge_cols]
            f["__deg"] = b["deg"].to_numpy(np.int64)
            f["__side"] = np.int8(1)
            f["__j"] = f[key].to_numpy(np.int64) % parts
            return f

        def join(g: pd.DataFrame) -> pd.DataFrame:
            d = g[g["__side"] == 1].set_index(key)["__deg"]
            e = g[g["__side"] == 0].drop(columns=["__deg", "__side", "__j"])
            if not len(e):
                return e.assign(**{out_col: pd.Series(dtype="int64")})
            e = e.copy()
            e[out_col] = d.reindex(e[key]).fillna(0).to_numpy(np.int64)
            return e

        return tag_e, tag_d, join

    te, td, j1 = _attach("a", "deg_a", ["a", "b"])
    with_da = (
        ded.map_batches(te, batch_format="pandas")
        .union(deg.map_batches(td, batch_format="pandas"))
        .groupby("__j")
        .map_groups(j1, batch_format="pandas")
    )
    te2, td2, j2 = _attach("b", "deg_b", ["a", "b", "deg_a"])
    with_deg = (
        with_da.map_batches(te2, batch_format="pandas")
        .union(deg.map_batches(td2, batch_format="pandas"))
        .groupby("__j")
        .map_groups(j2, batch_format="pandas")
    )

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {c: pd.Series(dtype="int64") for c in ("u", "v", "dv", "__w")}
            )
        a = b["a"].to_numpy(np.int64)
        bb = b["b"].to_numpy(np.int64)
        da = b["deg_a"].to_numpy(np.int64)
        db = b["deg_b"].to_numpy(np.int64)
        swap = (db < da) | ((db == da) & (bb < a))
        u = np.where(swap, bb, a)
        v = np.where(swap, a, bb)
        dv = np.where(swap, da, db)
        return pd.DataFrame({"u": u, "v": v, "dv": dv, "__w": u % parts})

    oriented = with_deg.map_batches(orient, batch_format="pandas").materialize()

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        xs, ys, us = [], [], []
        for u, grp in g.groupby("u", sort=False):
            if len(grp) < 2:
                continue
            nb = grp.sort_values(["dv", "v"], kind="mergesort")["v"].to_numpy(np.int64)
            # all ordered pairs of the oriented out-neighborhood
            i, j = np.triu_indices(len(nb), k=1)
            xs.append(nb[i])
            ys.append(nb[j])
            us.append(np.full(len(i), u, dtype=np.int64))
        if not xs:
            return pd.DataFrame(
                {c: pd.Series(dtype="int64") for c in ("x", "y", "u")}
            )
        return pd.DataFrame(
            {
                "x": np.concatenate(xs),
                "y": np.concatenate(ys),
                "u": np.concatenate(us),
            }
        )

    wedge_ds = oriented.groupby("__w").map_groups(wedges, batch_format="pandas")

    def tag_w(b: pd.DataFrame) -> pd.DataFrame:
        f = b.copy()
        f["__side"] = np.int8(0)
        f["__j"] = ((f["x"].to_numpy() * np.int64(1000003)) ^ f["y"].to_numpy()) % parts
        return f

    def tag_edge(b: pd.DataFrame) -> pd.DataFrame:
        f = pd.DataFrame(
            {
                "x": b["u"].to_numpy(np.int64),
                "y": b["v"].to_numpy(np.int64),
                "u": np.full(len(b), -1, dtype=np.int64),
            }
        )
        f["__side"] = np.int8(1)
        f["__j"] = ((f["x"].to_numpy() * np.int64(1000003)) ^ f["y"].to_numpy()) % parts
        return f

    def close(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["__side"] == 1]
        w = g[g["__side"] == 0]
        if not len(e) or not len(w):
            return pd.DataFrame({"id": pd.Series(dtype="int64")})
        hit = w.merge(e[["x", "y"]].drop_duplicates(), on=["x", "y"], how="inner")
        if not len(hit):
            return pd.DataFrame({"id": pd.Series(dtype="int64")})
        return pd.DataFrame(
            {
                "id": np.concatenate(
                    [
                        hit["u"].to_numpy(np.int64),
                        hit["x"].to_numpy(np.int64),
                        hit["y"].to_numpy(np.int64),
                    ]
                )
            }
        )

    corners = (
        wedge_ds.map_batches(tag_w, batch_format="pandas")
        .union(oriented.map_batches(tag_edge, batch_format="pandas"))
        .groupby("__j")
        .map_groups(close, batch_format="pandas")
    )

    return combiner_agg(corners, ["id"], [("n_triangles", None, "count")], parts)


def triangles_bruteforce(edges: "pd.DataFrame", a_col: str = "a", b_col: str = "b"):
    """O(n_edges * max_deg) serial oracle: per-node triangle counts dict +
    total, over the canonical undirected simple graph."""
    adj: dict[int, set[int]] = {}
    for a, b in zip(edges[a_col], edges[b_col]):
        a, b = int(a), int(b)
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    counts: dict[int, int] = {}
    total = 0
    for a in adj:
        for b in adj[a]:
            if b <= a:
                continue
            common = adj[a] & adj[b]
            for c in common:
                if c > b:
                    total += 1
                    for x in (a, b, c):
                        counts[x] = counts.get(x, 0) + 1
    return counts, total


# ---------------------------------------------------------------------------
# k-core decomposition (iterative peeling)
# ---------------------------------------------------------------------------


def kcore(
    edges_ds: "ray.data.Dataset",
    k: int,
    src_col: str = "src",
    dst_col: str = "dst",
    parts: int = 32,
    max_rounds: int = 100,
) -> "ray.data.Dataset":
    """The k-core of an undirected graph (Seidman 1983): the maximal
    subgraph where every node has degree >= ``k``, computed by iterative
    peeling — drop all nodes with degree < k, recompute degrees on the
    induced subgraph, repeat to fixpoint.  The classic cohesion filter a
    link-graph pipeline runs to separate tightly-knit host communities
    (link farms / genuine hubs) from the long tail.

    Scale shape per round: one degree combiner + one two-sided semi-join
    that keeps edges whose BOTH endpoints survive (tagged-union partition
    join keyed by each endpoint in turn) — bounded exchanges carrying
    (id, deg) rows and the shrinking edge list; nothing broadcast, no
    driver-side graph.  Convergence is detected by the surviving-edge
    count (a cheap Dataset.count of the materialized round result).

    Returns a Dataset ``(id, deg)`` — the k-core members with their
    core-subgraph degrees (empty if the graph has no k-core)."""

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].to_numpy(np.int64)
        c = b[dst_col].to_numpy(np.int64)
        lo = np.minimum(a, c)
        hi = np.maximum(a, c)
        m = lo != hi
        f = pd.DataFrame({"a": lo[m], "b": hi[m]}).drop_duplicates()
        f["__p"] = ((f["a"].to_numpy() * np.int64(1000003)) ^ f["b"].to_numpy()) % parts
        return f

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["a", "b"])[["a", "b"]]

    edges = (
        edges_ds.map_batches(canon, batch_format="pandas")
        .groupby("__p")
        .map_groups(dedup, batch_format="pandas")
        .materialize()
    )
    n_edges = edges.count()

    def ends(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"id": np.concatenate([b["a"].to_numpy(np.int64), b["b"].to_numpy(np.int64)])}
        )

    def degrees(e):
        return combiner_agg(
            e.map_batches(ends, batch_format="pandas"),
            ["id"],
            [("deg", None, "count")],
            parts,
        )

    def _semi(key: str):
        """Keep edges whose ``key`` endpoint appears in the survivor set
        (tagged-union partition join, same pattern as the degree attach)."""

        def tag_e(b: pd.DataFrame) -> pd.DataFrame:
            f = b[["a", "b"]].copy()
            f["__side"] = np.int8(0)
            f["__j"] = b[key].to_numpy(np.int64) % parts
            return f

        def tag_s(b: pd.DataFrame) -> pd.DataFrame:
            f = pd.DataFrame({"a": b["id"].to_numpy(np.int64)})
            f["b"] = np.int64(0)
            if key == "b":
                f["b"] = f["a"]
                f["a"] = np.int64(0)
            f["__side"] = np.int8(1)
            f["__j"] = f[key].to_numpy(np.int64) % parts
            return f

        def join(g: pd.DataFrame) -> pd.DataFrame:
            alive = set(g.loc[g["__side"] == 1, key].to_numpy(np.int64))
            e = g[g["__side"] == 0]
            if not len(e):
                return pd.DataFrame(
                    {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
                )
            m = e[key].isin(alive).to_numpy()
            return e.loc[m, ["a", "b"]]

        return tag_e, tag_s, join

    for _ in range(max_rounds):
        deg = degrees(edges)
        survivors = deg.filter(expr=f"deg >= {int(k)}").materialize()

        te, ts, ja = _semi("a")
        kept_a = (
            edges.map_batches(te, batch_format="pandas")
            .union(survivors.map_batches(ts, batch_format="pandas"))
            .groupby("__j")
            .map_groups(ja, batch_format="pandas")
        )
        te2, ts2, jb = _semi("b")
        edges_next = (
            kept_a.map_batches(te2, batch_format="pandas")
            .union(survivors.map_batches(ts2, batch_format="pandas"))
            .groupby("__j")
            .map_groups(jb, batch_format="pandas")
            .materialize()
        )
        # per-round union+groupby fragments blocks, and each round's output
        # feeds the next round's union, so block counts COMPOUND (the same
        # driver-scheduling collapse bfs_distance hit — see its guard);
        # coalesce whenever fragmentation outruns the partition count
        if edges_next.num_blocks() > 2 * parts:
            edges_next = edges_next.repartition(parts).materialize()
        n_next = edges_next.count()
        if n_next == n_edges:
            edges = edges_next
            break
        edges, n_edges = edges_next, n_next
        if n_edges == 0:
            break

    if n_edges == 0:
        import pyarrow as pa

        return ray.data.from_arrow(
            pa.table({"id": pa.array([], pa.int64()), "deg": pa.array([], pa.int64())})
        )
    return degrees(edges).filter(expr=f"deg >= {int(k)}")


def kcore_bruteforce(edges: "pd.DataFrame", k: int, a_col: str = "a", b_col: str = "b"):
    """Serial peeling oracle -> {node: core_degree} of the k-core."""
    adj: dict[int, set[int]] = {}
    for a, b in zip(edges[a_col], edges[b_col]):
        a, b = int(a), int(b)
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    changed = True
    while changed:
        changed = False
        for n in [n for n, nb in adj.items() if len(nb) < k]:
            for m in adj.pop(n):
                if m in adj:
                    adj[m].discard(n)
            changed = True
    return {n: len(nb) for n, nb in adj.items()}


# ---------------------------------------------------------------------------
# multi-source BFS hop distance (frontier exchange)
# ---------------------------------------------------------------------------


def bfs_distance(
    pairs_ds: "ray.data.Dataset",
    seed_ids: np.ndarray,
    col_a: str = "id_a",
    col_b: str = "id_b",
    directed: bool = False,
    max_rounds: int = 64,
    parts: int = 64,
) -> "ray.data.Dataset":
    """Multi-source BFS: hop distance from the nearest seed, for every
    reachable node.  The crawl-depth / link-proximity primitive (how far
    is each host from the seed list).

    Fully-exchanged shape (the 10^10-node-safe one, unlike the
    vertex-broadcast sweeps of ``connected_components``): edges are
    key-hash partitioned by source ONCE; the distance state lives as a
    node-partitioned Dataset the driver never collects.  Each round the
    frontier (state rows flagged new last round — never the whole state)
    is exchanged into the edge partitions and expanded to neighbor
    proposals with one vectorized isin per partition; proposals then
    min-merge into the state partitions (state wins: an already-reached
    node always has a smaller dist).  The driver sees only the per-round
    new-node COUNT; rounds = graph diameter (small-world web graphs:
    <= ~10).  Returns the (id, dist) Dataset."""
    import ray.data

    def tag_edges(b: pd.DataFrame) -> pd.DataFrame:
        src = b[col_a].to_numpy(np.int64)
        dst = b[col_b].to_numpy(np.int64)
        if not directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        f = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
        f["__ep"] = (
            pd.util.hash_array(f["src"].to_numpy()) % np.uint64(parts)
        ).astype(np.int64)
        # explicit edge/frontier marker for the per-round union (an in-band
        # dst sentinel would misread a genuine node id equal to it — node
        # ids here are signed md5-derived int64s, so every value is legal)
        f["__fr"] = np.int64(0)
        return f

    edges = pairs_ds.map_batches(tag_edges, batch_format="pandas").materialize()

    sp = lambda ids: (pd.util.hash_array(ids) % np.uint64(parts)).astype(np.int64)
    seeds = np.unique(np.asarray(seed_ids, dtype=np.int64))
    state = ray.data.from_pandas(
        pd.DataFrame(
            {
                "id": seeds,
                "dist": np.int64(0),
                "__new": np.int64(1),
                "__sp": sp(seeds),
            }
        )
    ).materialize()

    for r in range(1, max_rounds + 1):

        def front_rows(b: pd.DataFrame) -> pd.DataFrame:
            f = b[b["__new"] == 1]
            ids = f["id"].to_numpy(np.int64)
            return pd.DataFrame(
                {
                    "src": ids,
                    "dst": np.int64(0),  # unused for frontier rows
                    "__ep": (
                        pd.util.hash_array(ids) % np.uint64(parts)
                    ).astype(np.int64),
                    "__fr": np.int64(1),
                }
            )

        fds = state.map_batches(front_rows, batch_format="pandas")

        def expand(g: pd.DataFrame) -> pd.DataFrame:
            is_fr = g["__fr"].to_numpy(np.int64) == 1
            fr = g[is_fr]["src"].to_numpy(np.int64)
            eg = g[~is_fr]
            hit = (
                eg[np.isin(eg["src"].to_numpy(np.int64), fr)]["dst"]
                .drop_duplicates()
                .to_numpy(np.int64)
            )
            return pd.DataFrame(
                {
                    "id": hit,
                    "dist": np.int64(r),
                    "__new": np.int64(1),
                    "__sp": (
                        pd.util.hash_array(hit) % np.uint64(parts)
                    ).astype(np.int64),
                }
            )

        props = edges.union(fds).groupby("__ep").map_groups(
            expand, batch_format="pandas"
        )

        def clear_new(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["__new"] = np.int64(0)
            return b

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            # state rows carry __new == 0 after clear; proposals == 1.
            # sort puts the state row (smaller dist, BFS invariant) first;
            # first-wins keeps it and drops duplicate proposals
            f = g.sort_values(["id", "__new"], kind="mergesort")
            return f.drop_duplicates("id")

        state = (
            state.map_batches(clear_new, batch_format="pandas")
            .union(props)
            .groupby("__sp")
            .map_groups(merge, batch_format="pandas")
            .materialize()
        )
        # the per-round union+sort fragments blocks (each round's output
        # feeds the next union, so block counts COMPOUND — measured: 2k+
        # 41-row blocks by round ~10 on a 50k-node graph, driver
        # scheduling collapse); coalesce before the count grows
        if state.num_blocks() > 2 * parts:
            state = state.repartition(parts).materialize()
        n_new = int(state.sum("__new") or 0)
        if n_new == 0:
            break

    return state.map_batches(
        lambda b: b[["id", "dist"]], batch_format="pandas"
    )


def bfs_numpy(
    pairs: pd.DataFrame,
    seed_ids,
    col_a: str = "id_a",
    col_b: str = "id_b",
    directed: bool = False,
) -> pd.DataFrame:
    """Serial BFS oracle (tests)."""
    from collections import deque

    adj: dict[int, list[int]] = {}
    for a, b in zip(pairs[col_a], pairs[col_b]):
        adj.setdefault(int(a), []).append(int(b))
        if not directed:
            adj.setdefault(int(b), []).append(int(a))
    dist = {int(s): 0 for s in set(int(x) for x in seed_ids)}
    q = deque(dist)
    while q:
        u = q.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    items = sorted(dist.items())
    return pd.DataFrame(
        {
            "id": np.array([k for k, _ in items], dtype=np.int64),
            "dist": np.array([v for _, v in items], dtype=np.int64),
        }
    )


# ---------------------------------------------------------------------------
# HITS hubs & authorities
# ---------------------------------------------------------------------------


def hits(
    pairs_ds: "ray.data.Dataset",
    col_a: str = "src",
    col_b: str = "dst",
    n_iter: int = 20,
    round_dp: int = 6,
) -> pd.DataFrame:
    """HITS (Kleinberg 1999): hub/authority scores by alternating power
    iteration — auth = A^T·hub then hub = A·auth, L2-normalized each
    half-step (the classic formulation).  The link-spam-vs-directory
    separator PageRank can't express (a page can be a great hub and a
    terrible authority at once).

    Vertex-state-broadcast shape like ``connected_components`` (the
    needed score vector ``ray.put`` per half-sweep; each half-sweep is
    ONE map over the edge blocks emitting per-batch partial sums) —
    valid while the node vectors fit one process (~10^8); beyond that
    the exchanged-ranks shape of ``pagerank()`` applies identically.
    Fixed iteration count for cross-run determinism; multi-edges count
    with multiplicity (both here and in the dense oracle)."""
    import ray

    ends = pairs_ds.map_batches(
        lambda b: pd.DataFrame(
            {
                "id": np.unique(
                    np.concatenate(
                        [b[col_a].to_numpy(np.int64), b[col_b].to_numpy(np.int64)]
                    )
                )
            }
        ),
        batch_format="pandas",
    ).to_pandas()
    ids = np.unique(ends["id"].to_numpy(np.int64))
    n = len(ids)
    hub = np.ones(n)
    auth = np.ones(n)
    edges = pairs_ds.materialize()

    def half_sweep(vec: np.ndarray, out_end: str) -> np.ndarray:
        """One A^T·vec (out_end='dst': auth from hubs) or A·vec
        (out_end='src': hub from auths) as per-batch partial sums."""
        ref = ray.put((ids, vec))
        gather_src = out_end == "dst"

        def sweep(b: pd.DataFrame) -> pd.DataFrame:
            sids, v = ray.get(ref)
            s = np.searchsorted(sids, b[col_a].to_numpy(np.int64))
            d = np.searchsorted(sids, b[col_b].to_numpy(np.int64))
            node, val = (d, v[s]) if gather_src else (s, v[d])
            part = (
                pd.DataFrame({"node": node, "v": val})
                .groupby("node", sort=False)["v"]
                .sum()
            )
            return pd.DataFrame({"node": part.index, "v": part.to_numpy()})

        partials = edges.map_batches(sweep, batch_format="pandas").to_pandas()
        out = np.zeros(n)
        if len(partials):
            np.add.at(
                out, partials["node"].to_numpy(np.int64), partials["v"].to_numpy()
            )
        return out / (np.linalg.norm(out) or 1.0)

    for _ in range(n_iter):
        auth = half_sweep(hub, "dst")
        hub = half_sweep(auth, "src")

    return pd.DataFrame(
        {
            "id": ids,
            "hub": np.round(hub, round_dp),
            "auth": np.round(auth, round_dp),
        }
    )


def hits_numpy(
    pairs: pd.DataFrame,
    col_a: str = "src",
    col_b: str = "dst",
    n_iter: int = 20,
    round_dp: int = 6,
) -> pd.DataFrame:
    """Dense HITS oracle (tests)."""
    ids = np.unique(
        np.concatenate([pairs[col_a].to_numpy(), pairs[col_b].to_numpy()])
    ).astype(np.int64)
    n = len(ids)
    s = np.searchsorted(ids, pairs[col_a].to_numpy(np.int64))
    d = np.searchsorted(ids, pairs[col_b].to_numpy(np.int64))
    A = np.zeros((n, n))
    np.add.at(A, (s, d), 1.0)
    hub = np.ones(n)
    auth = np.ones(n)
    for _ in range(n_iter):
        auth = A.T @ hub
        auth /= np.linalg.norm(auth) or 1.0
        hub = A @ auth
        hub /= np.linalg.norm(hub) or 1.0
    return pd.DataFrame(
        {"id": ids, "hub": np.round(hub, round_dp), "auth": np.round(auth, round_dp)}
    )
