"""Link-graph operators over int64 edge lists: PageRank, connected
components, triangle counts, k-core, multi-source BFS distance and HITS.

Node ids are int64 (callers map URLs and hosts through ``url_ids``: the
leading 8 bytes of md5 — deterministic, coordination-free; birthday
collision odds ~n^2/2^65).  The operators come in two shapes:

* fully exchanged (``pagerank``, ``triangle_count``, ``kcore``,
  ``bfs_distance``): graph state stays a Dataset and each round is a few
  bounded exchanges of (id, value) rows, valid at 10^10 nodes.  Every
  equi-join is ``join.hash_join`` (materialized sides), every grouped
  count/sum/min is ``agg.combiner_agg``, the triangle wedges are
  ``dedup._run_pairs`` runs and the undirected edge set is
  ``_undirected_edges``;
* vertex-state broadcast (``pagerank_broadcast``, ``connected_components``,
  ``hits``): the node vector (``_node_ids``) is ``ray.put`` once per sweep
  and each sweep is ONE map over the edge blocks whose per-batch partials
  the driver scatters into the next vector (``_scatter_sweep``); valid
  while the node vector fits one process (~10^8 nodes).

``pagerank_auto`` picks a PageRank plan by edge count.  PageRank drops
dangling-node mass (``r' = (1-d)/N + d * sum_{u->v} r(u)/outdeg(u)``),
like the ``pagerank_numpy`` oracle.  Every operator has a serial oracle
here (``*_numpy`` / ``*_bruteforce``) that tests/test_graph.py checks it
against.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from .agg import combiner_agg
from .dedup import _dedup_pairs, _run_pairs
from .join import hash_join

# exchange partitions of every fully-exchanged operator's joins and counts
GRAPH_PARTITIONS = 32


def url_ids(urls) -> np.ndarray:
    """Deterministic int64 node id: big-endian leading 8 bytes of md5."""
    import hashlib

    md5 = hashlib.md5
    out = np.empty(len(urls), dtype=np.int64)
    for i, u in enumerate(urls):
        out[i] = int.from_bytes(md5(u.encode()).digest()[:8], "big", signed=True)
    return out


def _ends(col_a: str, col_b: str):
    """Batch fn: one ``id`` row per edge end."""

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"id": np.concatenate([b[col_a].to_numpy(np.int64), b[col_b].to_numpy(np.int64)])}
        )

    return fn


def _degrees(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(id, deg) of an ``_undirected_edges`` Dataset."""
    return combiner_agg(
        edges.map_batches(_ends("id_a", "id_b"), batch_format="pandas"),
        ["id"],
        [("deg", None, "count")],
        GRAPH_PARTITIONS,
    )


def _empty(*cols: str) -> "ray.data.Dataset":
    """A zero-row Dataset of int64 ``cols``."""
    import pyarrow as pa

    return ray.data.from_arrow(pa.table({c: pa.array([], pa.int64()) for c in cols}))


def _undirected_edges(
    edges_ds: "ray.data.Dataset", src_col: str, dst_col: str
) -> "ray.data.Dataset":
    """The simple undirected graph of an edge list, materialized: one
    (id_a, id_b) row per edge, id_a < id_b, self-loops dropped."""

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].to_numpy(np.int64)
        c = b[dst_col].to_numpy(np.int64)
        m = a != c
        return pd.DataFrame(
            {"id_a": np.minimum(a, c)[m], "id_b": np.maximum(a, c)[m]}
        ).drop_duplicates()

    return _dedup_pairs(
        edges_ds.map_batches(canon, batch_format="pandas"), ["id_a", "id_b"]
    ).materialize()


def _node_ids(edges: "ray.data.Dataset", col_a: str, col_b: str) -> np.ndarray:
    """Sorted distinct ids on either end of an edge Dataset (per-batch
    unique, then one driver unique)."""
    ends = edges.map_batches(
        lambda b: pd.DataFrame({"id": np.unique(_ends(col_a, col_b)(b)["id"])}),
        batch_format="pandas",
    ).to_pandas()
    return np.unique(ends["id"].to_numpy(np.int64))


def _scatter_sweep(edges, col_a, col_b, ids, vec, emit, how, out) -> np.ndarray:
    """One vertex-state-broadcast sweep: ``ray.put`` (ids, vec) once; each
    edge batch turns its endpoint positions (s, d) in ``ids`` into
    (node position, value) rows via ``emit(b, s, d, vec)``, pre-reduced
    per batch by ``how`` ('sum' or 'min'); the driver scatters the
    partials into ``out`` (np.add.at / np.minimum.at) and returns it."""
    ref = ray.put((ids, vec))

    def sweep(b: pd.DataFrame) -> pd.DataFrame:
        sids, v = ray.get(ref)
        s = np.searchsorted(sids, b[col_a].to_numpy(np.int64))
        d = np.searchsorted(sids, b[col_b].to_numpy(np.int64))
        node, val = emit(b, s, d, v)
        part = pd.DataFrame({"node": node, "v": val}).groupby("node", sort=False)["v"]
        part = part.sum() if how == "sum" else part.min()
        return pd.DataFrame({"node": part.index.to_numpy(np.int64), "v": part.to_numpy()})

    partials = edges.map_batches(sweep, batch_format="pandas").to_pandas()
    if len(partials):
        scatter = np.add.at if how == "sum" else np.minimum.at
        scatter(out, partials["node"].to_numpy(np.int64), partials["v"].to_numpy())
    return out


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------


def _weighted_edges(edges_ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """(src, dst, outdeg) edges, materialized: combiner-counted
    out-degrees joined onto the edge list by src.  Both PageRank plans
    reread it every sweep."""
    deg = combiner_agg(
        edges_ds, ["src"], [("outdeg", None, "count")], GRAPH_PARTITIONS
    ).materialize()
    return hash_join(
        edges_ds.select_columns(["src", "dst"]), deg, "src", parts=GRAPH_PARTITIONS
    ).materialize()


def _partition_join_ranks(
    edges: "ray.data.Dataset", ranks: "ray.data.Dataset", damping: float
) -> "ray.data.Dataset":
    """One PageRank sweep: weighted edges joined with the (id, rank)
    table on src, then (dst, contribution) rows pre-summed per batch."""

    def contribs(b: pd.DataFrame) -> pd.DataFrame:
        c = damping * b["rank"].to_numpy(np.float64) / np.maximum(
            b["outdeg"].to_numpy(np.int64), 1
        )
        # pre-sum per dst (combiner): the downstream exchange carries one
        # row per (batch, dst), never per edge
        return (
            pd.DataFrame({"dst": b["dst"].to_numpy(np.int64), "c": c})
            .groupby("dst", sort=False)["c"]
            .sum()
            .reset_index()
        )

    return hash_join(edges, ranks, "src", "id", parts=GRAPH_PARTITIONS).map_batches(
        contribs, batch_format="pandas"
    )


def pagerank(
    edges_ds: "ray.data.Dataset",
    iterations: int = 5,
    damping: float = 0.85,
    round_dp: int = 8,
) -> "ray.data.Dataset":
    """Fully-exchanged PageRank over an (src, dst) int64 edge Dataset;
    returns (id, rank) after ``iterations`` sweeps from the uniform start,
    ranks rounded to ``round_dp``.  Ranks never visit the driver: each
    sweep is the rank join (``_partition_join_ranks``) and a combiner sum
    by dst, re-materialized to cut lineage."""
    from ..stages.textstats import round_half_away

    nodes = combiner_agg(
        edges_ds.map_batches(_ends("src", "dst"), batch_format="pandas"),
        ["id"],
        [],
        GRAPH_PARTITIONS,
    ).materialize()
    n = nodes.count()
    edges_w = _weighted_edges(edges_ds)
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

    def to_rank(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "id": b["dst"].to_numpy(np.int64),
                "rank": base + b["csum"].to_numpy(np.float64),
            }
        )

    for _ in range(iterations):
        contrib = _partition_join_ranks(edges_w, ranks, damping)
        summed = combiner_agg(
            contrib.union(zeros), ["dst"], [("csum", "c", "sum")], GRAPH_PARTITIONS
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
    round_dp: int = 8,
) -> pd.DataFrame:
    """Vertex-state-broadcast PageRank: same update rule as ``pagerank()``
    but each sweep is one ``_scatter_sweep`` of the rank vector over the
    weighted edges — edge blocks are never re-shuffled.  Valid while the
    node table fits one process (~10^8 nodes / a few GB); beyond that use
    ``pagerank()``.  Returns the (id, rank) node frame, ids ascending,
    ranks rounded."""
    from ..stages.textstats import round_half_away

    edges_w = _weighted_edges(edges_ds)
    ids = _node_ids(edges_w, "src", "dst")
    n = len(ids)
    base = (1.0 - damping) / n
    rank = np.full(n, 1.0 / n, dtype=np.float64)

    def emit(b, s, d, r):
        return d, damping * r[s] / np.maximum(b["outdeg"].to_numpy(np.int64), 1)

    for _ in range(iterations):
        contrib = _scatter_sweep(
            edges_w, "src", "dst", ids, rank, emit, "sum", np.zeros(n, dtype=np.float64)
        )
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
            pagerank_broadcast(edges_ds, iterations, damping, round_dp)
        )
    return pagerank(edges_ds, iterations, damping, round_dp)


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

    Vertex-state-broadcast shape: each sweep is one ``_scatter_sweep`` in
    which every endpoint proposes its label to the other (min per batch,
    then ``np.minimum.at``); iteration stops at the first sweep with no
    label change (diameter-bound, not ``max_iterations``).  Valid while
    the node vector fits one process — the natural regime for dedup
    clustering, where pair lists cover only the duplicated minority of a
    corpus."""
    ids = _node_ids(pairs_ds, col_a, col_b)
    label = ids.copy()
    edges = pairs_ds.materialize()

    def emit(b, s, d, lab):
        return np.concatenate([s, d]), np.concatenate([lab[d], lab[s]])

    for _ in range(max_iterations):
        new_label = _scatter_sweep(
            edges, col_a, col_b, ids, label, emit, "min", label.copy()
        )
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
) -> "ray.data.Dataset":
    """Distributed triangle counting over an int64 edge list — the classic
    degree-ordered wedge join (Schank & Wagner 2005 / Suri & Vassilvitskii
    2011 "MapReduce clustering coefficient"): orient every undirected edge
    from its lower-(degree, id) endpoint to the higher one, generate wedges
    only from each node's ORIENTED out-neighborhood (bounded by O(sqrt(m))
    after orientation, so hub nodes cannot explode the pair stage), and
    close them with one join against the oriented edges.

    Each triangle is counted exactly once at generation and credited to all
    three corners.  Returns a Dataset ``(id, n_triangles)`` over nodes in
    >= 1 triangle; the graph total is ``sum(n_triangles) / 3``.

    Exchanges (all bounded, nothing broadcast): the undirected-edge dedup,
    the degree combiner, two degree joins, the wedge grouping (each
    node's oriented neighbours are one ``_run_pairs`` run), the
    closing-edge join on (x, y), and the per-node count combiner."""
    P = GRAPH_PARTITIONS
    ded = _undirected_edges(edges_ds, src_col, dst_col)
    if ded.count() == 0:
        return _empty("id", "n_triangles")
    deg = _degrees(ded).materialize()

    def deg_a(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id_a": b["id_a"], "id_b": b["id_b"], "deg_a": b["deg"]})

    with_da = (
        hash_join(ded, deg, "id_a", "id", parts=P)
        .map_batches(deg_a, batch_format="pandas")
        .materialize()
    )

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        a = b["id_a"].to_numpy(np.int64)
        bb = b["id_b"].to_numpy(np.int64)
        da = b["deg_a"].to_numpy(np.int64)
        db = b["deg"].to_numpy(np.int64)
        swap = (db < da) | ((db == da) & (bb < a))
        u = np.where(swap, bb, a)
        v = np.where(swap, a, bb)
        dv = np.where(swap, da, db)
        return pd.DataFrame({"u": u, "v": v, "dv": dv, "__w": u % P})

    oriented = (
        hash_join(with_da, deg, "id_b", "id", parts=P)
        .map_batches(orient, batch_format="pandas")
        .materialize()
    )

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # every ordered pair of u's oriented out-neighbours: the rank of
        # (dv, v) is the pair id, so x precedes y in (degree, id) order
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        rank = np.empty(len(g), dtype=np.int64)
        rank[np.lexsort((v, g["dv"].to_numpy(np.int64)))] = np.arange(len(g))
        i, j = _run_pairs(u, rank)
        return pd.DataFrame({"x": v[i], "y": v[j], "u": u[i]})

    wedge_ds = oriented.groupby("__w").map_groups(wedges, batch_format="pandas").materialize()
    closing = oriented.map_batches(
        lambda b: pd.DataFrame({"x": b["u"], "y": b["v"]}), batch_format="pandas"
    )

    def corners(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"id": np.concatenate([b[c].to_numpy(np.int64) for c in ("u", "x", "y")])}
        )

    closed = hash_join(wedge_ds, closing, ["x", "y"], parts=P)
    return combiner_agg(
        closed.map_batches(corners, batch_format="pandas"),
        ["id"],
        [("n_triangles", None, "count")],
        P,
    )


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
    max_rounds: int = 100,
) -> "ray.data.Dataset":
    """The k-core of an undirected graph (Seidman 1983): the maximal
    subgraph where every node has degree >= ``k``, computed by iterative
    peeling — drop all nodes with degree < k, recompute degrees on the
    induced subgraph, repeat to fixpoint.  The classic cohesion filter a
    link-graph pipeline runs to separate tightly-knit host communities
    (link farms / genuine hubs) from the long tail.

    Scale shape per round: one degree combiner + two inner joins of the
    edges with the distinct survivor ids (one per endpoint) — bounded
    exchanges carrying (id, deg) rows and the shrinking edge list;
    nothing broadcast, no driver-side graph.  Convergence is detected by
    the surviving-edge count (free on the materialized round result).

    Returns a Dataset ``(id, deg)`` — the k-core members with their
    core-subgraph degrees (empty if the graph has no k-core)."""
    P = GRAPH_PARTITIONS
    edges = _undirected_edges(edges_ds, src_col, dst_col)
    n_edges = edges.count()

    def keep_alive(e: "ray.data.Dataset", alive, key: str) -> "ray.data.Dataset":
        return (
            hash_join(e, alive, key, "id", parts=P)
            .select_columns(["id_a", "id_b"])
            .materialize()
        )

    for _ in range(max_rounds):
        survivors = (
            _degrees(edges).filter(expr=f"deg >= {int(k)}").select_columns(["id"])
        ).materialize()
        edges_next = keep_alive(keep_alive(edges, survivors, "id_a"), survivors, "id_b")
        # per-round union+groupby fragments blocks, and each round's output
        # feeds the next round's union, so block counts COMPOUND (the same
        # driver-scheduling collapse bfs_distance hit — see its guard);
        # coalesce whenever fragmentation outruns the partition count
        if edges_next.num_blocks() > 2 * P:
            edges_next = edges_next.repartition(P).materialize()
        n_next = edges_next.count()
        if n_next == n_edges:
            edges = edges_next
            break
        edges, n_edges = edges_next, n_next
        if n_edges == 0:
            break

    if n_edges == 0:
        return _empty("id", "deg")
    return _degrees(edges).filter(expr=f"deg >= {int(k)}")


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
) -> "ray.data.Dataset":
    """Multi-source BFS: hop distance from the nearest seed, for every
    reachable node.  The crawl-depth / link-proximity primitive (how far
    is each host from the seed list).

    Fully-exchanged shape (the 10^10-node-safe one, unlike the
    vertex-broadcast sweeps of ``connected_components``): the distance
    state is an (id, dist) Dataset the driver never collects.  Round r
    joins the frontier (the state rows with ``dist == r - 1``) onto the
    edges by src, proposes ``dist = r`` for every neighbour, and folds
    the proposals into the state with one grouped min (an already-reached
    node keeps its smaller dist).  The loop stops at the first round
    that reaches no new node (the state's row count, free on the
    materialized state, did not grow); rounds = graph diameter
    (small-world web graphs: <= ~10).  Returns the (id, dist) Dataset."""
    P = GRAPH_PARTITIONS

    def edge_rows(b: pd.DataFrame) -> pd.DataFrame:
        src = b[col_a].to_numpy(np.int64)
        dst = b[col_b].to_numpy(np.int64)
        if not directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        return pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()

    # every round's frontier join reads the edge list again, one task per
    # block: coalesce it once to the join's partition count
    edges = (
        pairs_ds.map_batches(edge_rows, batch_format="pandas").repartition(P).materialize()
    )
    seeds = np.unique(np.asarray(seed_ids, dtype=np.int64))
    state = ray.data.from_pandas(
        pd.DataFrame({"id": seeds, "dist": np.zeros(len(seeds), dtype=np.int64)})
    ).materialize()
    frontier, n_reached = state, len(seeds)

    for r in range(1, max_rounds + 1):

        def propose(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"id": b["dst"].to_numpy(np.int64), "dist": np.full(len(b), r, np.int64)}
            )

        props = hash_join(edges, frontier, "src", "id", parts=P).map_batches(
            propose, batch_format="pandas"
        )
        state = combiner_agg(
            state.union(props), ["id"], [("dist", "dist", "min")], P
        ).materialize()
        # the per-round union+exchange fragments blocks (each round's
        # output feeds the next union, so block counts COMPOUND —
        # measured: 2k+ 41-row blocks by round ~10 on a 50k-node graph,
        # driver scheduling collapse); coalesce before the count grows
        if state.num_blocks() > 2 * P:
            state = state.repartition(P).materialize()
        # the state grows exactly by the nodes first reached this round:
        # those rows (dist == r) are the next frontier
        n = state.count()
        if n == n_reached:
            break
        frontier, n_reached = state.filter(expr=f"dist == {r}"), n

    return state


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

    Vertex-state-broadcast shape: each half-sweep is one
    ``_scatter_sweep`` of the needed score vector — valid while the node
    vectors fit one process (~10^8).  Fixed iteration count for cross-run
    determinism; multi-edges count with multiplicity (both here and in
    the dense oracle)."""
    ids = _node_ids(pairs_ds, col_a, col_b)
    n = len(ids)
    hub = np.ones(n)
    auth = np.ones(n)
    edges = pairs_ds.materialize()

    def to_dst(b, s, d, v):  # A^T·v: auth from hubs
        return d, v[s]

    def to_src(b, s, d, v):  # A·v: hub from auths
        return s, v[d]

    def half_sweep(vec: np.ndarray, emit) -> np.ndarray:
        out = _scatter_sweep(edges, col_a, col_b, ids, vec, emit, "sum", np.zeros(n))
        return out / (np.linalg.norm(out) or 1.0)

    for _ in range(n_iter):
        auth = half_sweep(hub, to_dst)
        hub = half_sweep(auth, to_src)

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
