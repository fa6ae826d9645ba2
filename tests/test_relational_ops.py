"""Tests for the round-4 relational/data-engineering tail: CDC snapshot
diff, distributed skyline, per-doc token entropy, audience-overlap
INTERSECT counts, and the FastSS deletion-neighborhood lev-1 join."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# SQL-oracle conformance (the same gate the driver runs, at sf0.001)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["snapshot_diff", "doc_token_entropy", "doc_skyline",
     "event_type_user_overlap", "name_fuzzy_pairs"],
)
def test_matches_duckdb_oracle(name):
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    for t in ("documents", "events", "orders", "customer"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    mine = to_pandas(e.queries()[name](SF))
    theirs = con.execute(e.oracle_sql()[name]).df()
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert value_hash(mine) == value_hash(theirs)


# ---------------------------------------------------------------------------
# snapshot_diff
# ---------------------------------------------------------------------------


class TestSnapshotDiff:
    def _diff(self, old_rows, new_rows, **kw):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.cdc import snapshot_diff

        old = ray.data.from_pandas(pd.DataFrame(old_rows))
        new = ray.data.from_pandas(pd.DataFrame(new_rows))
        out = snapshot_diff(old, new, "k", ["v"], parts=4, **kw).to_pandas()
        # an all-unchanged diff is EMPTY and an empty Dataset loses its
        # schema on to_pandas() — callers must guard before column access
        if len(out) == 0:
            return out
        return out.sort_values("k").reset_index(drop=True)

    def test_three_change_classes(self):
        out = self._diff(
            [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 3, "v": "c"}],
            [{"k": 2, "v": "b"}, {"k": 3, "v": "C"}, {"k": 4, "v": "d"}],
        )
        got = dict(zip(out["k"], out["change"]))
        assert got == {1: "removed", 3: "changed", 4: "added"}

    def test_unchanged_rows_die_in_partition(self):
        out = self._diff([{"k": 1, "v": "a"}], [{"k": 1, "v": "a"}])
        assert len(out) == 0

    def test_include_unchanged_flag(self):
        out = self._diff(
            [{"k": 1, "v": "a"}], [{"k": 1, "v": "a"}], include_unchanged=True
        )
        assert list(out["change"]) == ["unchanged"]

    def test_null_semantics_is_distinct_from(self):
        out = self._diff(
            [{"k": 1, "v": None}, {"k": 2, "v": None}],
            [{"k": 1, "v": None}, {"k": 2, "v": "x"}],
        )
        got = dict(zip(out["k"], out["change"]))
        # NULL == NULL (unchanged, dropped); NULL vs value = changed
        assert got == {2: "changed"}

    def test_old_new_values_carried(self):
        out = self._diff([{"k": 1, "v": "a"}], [{"k": 1, "v": "z"}])
        assert out.loc[0, "old_v"] == "a" and out.loc[0, "new_v"] == "z"


# ---------------------------------------------------------------------------
# skyline
# ---------------------------------------------------------------------------


class TestSkyline:
    def test_local_matches_bruteforce_under_ties(self):
        from webcrawl_lowres_lang_ray.stages.skyline import (
            _local_skyline,
            _quadratic_skyline,
        )

        rng = np.random.default_rng(7)
        for _ in range(100):
            m = rng.integers(0, 5, size=(rng.integers(1, 50), 2)).astype(float)
            assert (_local_skyline(m) == _quadratic_skyline(m)).all()

    def test_duplicate_frontier_points_both_survive(self):
        from webcrawl_lowres_lang_ray.stages.skyline import _quadratic_skyline

        m = np.array([[5.0, 5.0], [5.0, 5.0], [1.0, 1.0]])
        assert list(_quadratic_skyline(m)) == [True, True, False]

    def test_distributed_end_to_end(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.skyline import skyline

        rng = np.random.default_rng(3)
        df = pd.DataFrame(
            {"id": np.arange(500), "x": rng.random(500), "y": rng.random(500)}
        )
        ds = ray.data.from_pandas(df).repartition(8)
        got = skyline(ds, dims=["x", "y"], keep_cols=["id"])
        # brute force
        m = df[["x", "y"]].to_numpy()
        keep = []
        for k in range(len(m)):
            ge = (m >= m[k]).all(axis=1)
            gt = (m > m[k]).any(axis=1)
            ge[k] = False
            if not (ge & gt).any():
                keep.append(df["id"][k])
        assert sorted(got["id"]) == sorted(keep)

    def test_candidate_cap_raises(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages import skyline as sk

        df = pd.DataFrame({"x": np.arange(100.0), "y": -np.arange(100.0)})
        ds = ray.data.from_pandas(df)
        old = sk.SKYLINE_CANDIDATE_CAP
        sk.SKYLINE_CANDIDATE_CAP = 10
        try:
            with pytest.raises(ValueError, match="candidate set"):
                sk.skyline(ds, dims=["x", "y"])
        finally:
            sk.SKYLINE_CANDIDATE_CAP = old


# ---------------------------------------------------------------------------
# token entropy
# ---------------------------------------------------------------------------


class TestTokenEntropy:
    def test_known_values(self):
        from webcrawl_lowres_lang_ray.stages.textstats import token_entropy_batch

        b = pd.DataFrame(
            {"doc_id": [1, 2, 3], "text": ["a b a b", "x", "   "]}
        )
        out = token_entropy_batch(b).set_index("doc_id")
        assert out.loc[1, "entropy"] == pytest.approx(np.log(2))
        assert out.loc[2, "entropy"] == 0.0
        assert out.loc[3, "entropy"] == 0.0 and out.loc[3, "n_tokens"] == 0


# ---------------------------------------------------------------------------
# fuzzy lev-1 join
# ---------------------------------------------------------------------------


class TestFuzzyPairs:
    def test_lev1_mask_classes(self):
        from webcrawl_lowres_lang_ray.stages.fuzzy import _lev1_mask

        a = np.array(["abc", "abc", "abc", "abc", "ac", "abc"], dtype=object)
        b = np.array(["abd", "abc", "xyz", "abcd", "abc", "ba"], dtype=object)
        # substitution=1, equal=0, 3 subs, insertion=1, deletion=1, len-diff>1
        assert list(_lev1_mask(a, b)) == [True, False, False, True, True, False]

    def test_deletion_keys_cover_all_lev1_pairs(self, monkeypatch):
        import itertools

        import ray.data

        from webcrawl_lowres_lang_ray.stages import fuzzy
        from webcrawl_lowres_lang_ray.stages.fuzzy import fuzzy_pairs_lev1

        words = ["cat", "cut", "cart", "at", "dog", "dig", "cats", "ca"]

        def lev(s, t):
            dp = list(range(len(t) + 1))
            for i, cs in enumerate(s, 1):
                prev, dp[0] = dp[0], i
                for j, ct in enumerate(t, 1):
                    prev, dp[j] = dp[j], min(
                        dp[j] + 1, dp[j - 1] + 1, prev + (cs != ct)
                    )
            return dp[len(t)]

        want = sorted(
            tuple(sorted(p))
            for p in itertools.combinations(words, 2)
            if lev(*p) == 1
        )
        ds = ray.data.from_pandas(pd.DataFrame({"w": words * 3}))  # with dups
        monkeypatch.setattr(fuzzy, "FUZZY_PARTITIONS", 4)
        got = fuzzy_pairs_lev1(ds, "w").to_pandas()
        assert sorted(zip(got["w_a"], got["w_b"])) == want

    def test_transposition_is_not_lev1(self, monkeypatch):
        import ray.data

        from webcrawl_lowres_lang_ray.stages import fuzzy
        from webcrawl_lowres_lang_ray.stages.fuzzy import fuzzy_pairs_lev1

        ds = ray.data.from_pandas(pd.DataFrame({"w": ["ab", "ba"]}))
        monkeypatch.setattr(fuzzy, "FUZZY_PARTITIONS", 2)
        assert len(fuzzy_pairs_lev1(ds, "w").to_pandas()) == 0


# ---------------------------------------------------------------------------
# batch 2: changelog apply / streaks / hard negatives / BM25
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["changelog_apply", "user_activity_streaks", "ann_hard_negatives",
     "doc_bm25_search"],
)
def test_batch2_matches_duckdb_oracle(name):
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    for t in ("documents", "events", "orders", "embeddings"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    mine = to_pandas(e.queries()[name](SF))
    theirs = con.execute(e.oracle_sql()[name]).df()
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert value_hash(mine) == value_hash(theirs)


class TestChangelogApply:
    def _apply(self, base_rows, change_rows):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.cdc import changelog_apply

        base = ray.data.from_pandas(pd.DataFrame(base_rows))
        ch = ray.data.from_pandas(pd.DataFrame(change_rows))
        out = changelog_apply(base, ch, "k", parts=4).to_pandas()
        return out if len(out) == 0 else out.sort_values("k").reset_index(drop=True)

    def test_upsert_insert_delete(self):
        out = self._apply(
            [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 3, "v": "c"}],
            [
                {"k": 2, "v": "B", "op": "upsert"},   # update
                {"k": 4, "v": "d", "op": "upsert"},   # insert
                {"k": 3, "v": "c", "op": "delete"},   # delete
            ],
        )
        assert dict(zip(out["k"], out["v"])) == {1: "a", 2: "B", 4: "d"}

    def test_duplicate_changelog_key_raises(self):
        with pytest.raises(Exception, match="duplicate keys"):
            self._apply(
                [{"k": 1, "v": "a"}],
                [
                    {"k": 1, "v": "x", "op": "upsert"},
                    {"k": 1, "v": "y", "op": "upsert"},
                ],
            )

    def test_roundtrip_with_snapshot_diff(self):
        """applying the diff of (old -> new) onto old reproduces new."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.cdc import (
            changelog_apply,
            snapshot_diff,
        )

        old = pd.DataFrame({"k": [1, 2, 3], "v": ["a", "b", "c"]})
        new = pd.DataFrame({"k": [2, 3, 4], "v": ["b", "C", "d"]})
        d = snapshot_diff(
            ray.data.from_pandas(old), ray.data.from_pandas(new), "k", ["v"],
            parts=4,
        ).to_pandas()
        ch = pd.DataFrame(
            {
                "k": d["k"],
                "v": d["new_v"],
                "op": np.where(d["change"] == "removed", "delete", "upsert"),
            }
        )
        got = (
            changelog_apply(
                ray.data.from_pandas(old), ray.data.from_pandas(ch), "k", parts=4
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert got.equals(new.sort_values("k").reset_index(drop=True))


class TestStreaks:
    def test_known_streaks(self):
        import __ray_entry__  # noqa: F401  (package import side effects)

        from webcrawl_lowres_lang_ray.pipelines.queries import (
            q_user_activity_streaks,
        )
        # exercised via the oracle conformance test above; here pin the
        # vectorized island labelling on a hand-built frame
        import ray.data

        days = pd.DataFrame(
            {
                "user_id": [1, 1, 1, 1, 2],
                "ts": pd.to_datetime(
                    ["2026-01-01", "2026-01-02", "2026-01-02 13:00",
                     "2026-01-05", "2026-03-01"], format="mixed"
                ),
            }
        )
        import tempfile, os
        with tempfile.TemporaryDirectory() as td:
            days.to_parquet(os.path.join(td, "events.parquet"))
            out = q_user_activity_streaks(td).set_index("user_id")
        assert out.loc[1, "n_days"] == 3          # dup day collapses
        assert out.loc[1, "longest_streak"] == 2  # jan 1-2
        assert out.loc[2, "longest_streak"] == 1


class TestBm25:
    def test_rare_term_outranks_common(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.bm25 import bm25_topk

        rows = [{"doc_id": i, "text": "common word filler"} for i in range(20)]
        rows.append({"doc_id": 99, "text": "rare common word"})
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        out = bm25_topk(ds, ["rare"], k=3)
        assert out.iloc[0]["doc_id"] == 99 and out.iloc[0]["score"] > 0
        # docs without the term score 0
        assert (out["score"].iloc[1:] == 0).all()

    def test_length_normalization(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.bm25 import bm25_topk

        rows = [
            {"doc_id": 1, "text": "term"},
            {"doc_id": 2, "text": "term " + "pad " * 50},
        ]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        out = bm25_topk(ds, ["term"], k=2).set_index("doc_id")
        assert out.loc[1, "score"] > out.loc[2, "score"]


# ---------------------------------------------------------------------------
# batch 3: PMI collocations + HLL pairwise overlap
# ---------------------------------------------------------------------------


def test_token_pmi_matches_duckdb_oracle():
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    mine = to_pandas(e.queries()["token_pmi"](SF))
    theirs = con.execute(e.oracle_sql()["token_pmi"]).df()
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert value_hash(mine) == value_hash(theirs)


class TestTokenPmi:
    def test_planted_collocation_ranks_first(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.textstats import token_pmi

        # "foo bar" always adjacent; filler words shuffle freely
        rows = [{"text": "foo bar " + " ".join(["w%d" % (i % 4)] * 6)}
                for i in range(40)]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        out = token_pmi(ds, min_count=5, k=5)
        assert (out.iloc[0]["w_a"], out.iloc[0]["w_b"]) == ("foo", "bar")

    def test_min_count_filters(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.textstats import token_pmi

        rows = [{"text": "a b c d"}] * 3  # every bigram count = 3 < 5
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        assert len(token_pmi(ds, min_count=5, k=5)) == 0


class TestApproxPairOverlap:
    def test_within_hll_error_of_exact(self):
        import __ray_entry__ as e

        approx = e.queries()["approx_type_overlap"](SF)
        exact = e.queries()["event_type_user_overlap"](SF)
        m = approx.merge(exact, on=["type_a", "type_b"])
        assert len(m) == len(exact)  # same pair set
        rel = (m["approx_overlap"] - m["n_users"]).abs() / m["n_users"]
        assert rel.max() < 0.05

    def test_disjoint_sets_near_zero(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.sketch import approx_pair_overlap

        df = pd.DataFrame(
            {
                "k": list(range(1000)) + list(range(1000, 2000)),
                "g": ["a"] * 1000 + ["b"] * 1000,
            }
        )
        out = approx_pair_overlap(
            ray.data.from_pandas(df), "k", "g"
        )
        # disjoint: estimate must be tiny relative to set size
        assert out.iloc[0]["approx_overlap"] < 50


def test_event_transitions_matches_duckdb_oracle():
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    mine = to_pandas(e.queries()["event_transitions"](SF))
    theirs = con.execute(e.oracle_sql()["event_transitions"]).df()
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert value_hash(mine) == value_hash(theirs)
    # probabilities normalize per from_type
    assert mine.groupby("from_type")["p"].sum().between(0.999, 1.001).all()


# ---------------------------------------------------------------------------
# batch 4: trend / weighted sample / containment
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["user_value_trend", "doc_weighted_sample", "doc_containment"]
)
def test_batch4_matches_duckdb_oracle(name):
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    for t in ("documents", "events"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    mine = to_pandas(e.queries()[name](SF))
    theirs = con.execute(e.oracle_sql()[name]).df()
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert value_hash(mine) == value_hash(theirs)


class TestContainment:
    def test_excerpt_detected_where_jaccard_misses(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import ngram_jaccard_inverted

        long = "w%d " * 50
        long = " ".join(f"w{i}" for i in range(50))
        short = " ".join(f"w{i}" for i in range(10, 16))  # excerpt of long
        ds = ray.data.from_pandas(
            pd.DataFrame({"doc_id": [1, 2], "text": [long, short]})
        )
        cont = ngram_jaccard_inverted(
            ds, threshold=0.9, score="containment"
        ).to_pandas()
        assert len(cont) == 1 and cont.iloc[0]["cont_b"] == 1.0
        jac = ngram_jaccard_inverted(ds, threshold=0.5).to_pandas()
        assert len(jac) == 0  # symmetric jaccard misses the excerpt

    def test_weighted_sample_prefers_heavy_docs(self):
        """Statistical sanity: the ES sample over-represents high-weight
        docs (mean sampled n_chars > corpus mean)."""
        import __ray_entry__ as e
        import pyarrow.parquet as pq_

        out = e.queries()["doc_weighted_sample"](SF)
        all_chars = pq_.read_table(
            f"{SF}/documents.parquet", columns=["n_chars"]
        ).to_pandas()["n_chars"]
        assert out["n_chars"].mean() > all_chars.mean()


@pytest.mark.parametrize("name", ["events_cube", "token_chi2"])
def test_batch5_matches_duckdb_oracle(name):
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    for t in ("documents", "events"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    mine = to_pandas(e.queries()[name](SF))
    theirs = con.execute(e.oracle_sql()[name]).df()
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert value_hash(mine) == value_hash(theirs)


class TestCube:
    def test_levels_are_consistent(self):
        import __ray_entry__ as e

        out = e.queries()["events_cube"](SF)
        grand = out[(out["event_type"] == "ALL") & (out["hr_key"] == "ALL")]
        fine = out[(out["event_type"] != "ALL") & (out["hr_key"] != "ALL")]
        by_type = out[(out["event_type"] != "ALL") & (out["hr_key"] == "ALL")]
        assert len(grand) == 1
        assert grand["n"].iloc[0] == fine["n"].sum() == by_type["n"].sum()


class TestChi2:
    def test_planted_exclusive_token_dominates(self):
        """A token appearing ONLY in one lang's docs must top that lang."""
        import tempfile, os

        from webcrawl_lowres_lang_ray.pipelines.queries import q_token_chi2

        rows = []
        for i in range(40):
            lang = "aa" if i % 2 == 0 else "bb"
            marker = "onlyaa" if lang == "aa" else "onlybb"
            rows.append(
                {"doc_id": i, "lang": lang,
                 "text": f"{marker} common filler words here"}
            )
        with tempfile.TemporaryDirectory() as td:
            pd.DataFrame(rows).to_parquet(os.path.join(td, "documents.parquet"))
            out = q_token_chi2(td)
        top = out.sort_values(["lang", "chi2"], ascending=[True, False]).groupby(
            "lang"
        ).head(1)
        got = dict(zip(top["lang"], top["w"]))
        assert got == {"aa": "onlyaa", "bb": "onlybb"}


def test_events_value_psi_matches_duckdb_oracle():
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    mine = to_pandas(e.queries()["events_value_psi"](SF))
    theirs = con.execute(e.oracle_sql()["events_value_psi"]).df()
    assert len(mine) == len(theirs)
    assert value_hash(mine) == value_hash(theirs)
    assert (mine["psi"] >= 0).all()  # PSI is a divergence


class TestHybridSearch:
    def test_matches_duckdb_oracle(self):
        import duckdb

        import __ray_entry__ as e
        from scripts.check_correctness import to_pandas, value_hash

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        mine = to_pandas(e.queries()["doc_hybrid_search"](SF))
        theirs = con.execute(e.oracle_sql()["doc_hybrid_search"]).df()
        assert len(mine) == len(theirs)
        assert sorted(mine.columns) == sorted(theirs.columns)
        assert value_hash(mine) == value_hash(theirs)

    def test_doc_in_both_lists_outranks_single_list(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.bm25 import hybrid_rrf_topk

        # doc 1 matches lexically AND semantically; doc 2 lexical only
        # (query term present but drowned); doc 3 unrelated
        rows = [
            {"doc_id": 1, "text": "scan merge sort pipeline"},
            {"doc_id": 2, "text": "scan " + "unrelated " * 60},
            {"doc_id": 3, "text": "completely different topic"},
        ]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        out = hybrid_rrf_topk(ds, ["scan", "merge", "sort"], k=3)
        assert out.iloc[0]["doc_id"] == 1
        assert out.iloc[0]["rrf"] > out.iloc[1]["rrf"]


@pytest.mark.parametrize("name", ["event_paths", "value_outliers"])
def test_batch6_matches_duckdb_oracle(name):
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    mine = to_pandas(e.queries()[name](SF))
    theirs = con.execute(e.oracle_sql()[name]).df()
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert value_hash(mine) == value_hash(theirs)


class TestOutliers:
    def test_planted_outlier_counted(self):
        import tempfile, os

        from webcrawl_lowres_lang_ray.pipelines.queries import q_value_outliers

        rows = [{"event_type": "x", "value": float(v)}
                for v in list(range(100)) + [10_000.0]]
        with tempfile.TemporaryDirectory() as td:
            pd.DataFrame(rows).to_parquet(os.path.join(td, "events.parquet"))
            out = q_value_outliers(td)
        assert out.loc[0, "n_outliers"] == 1


@pytest.mark.parametrize("name", ["key_skew_report", "user_recency_features"])
def test_batch7_matches_duckdb_oracle(name):
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    mine = to_pandas(e.queries()[name](SF))
    theirs = con.execute(e.oracle_sql()[name]).df()
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert value_hash(mine) == value_hash(theirs)


class TestSkewReport:
    def test_uniform_keys_have_near_zero_gini(self):
        import tempfile, os

        from webcrawl_lowres_lang_ray.pipelines.queries import q_key_skew_report

        rows = [{"user_id": i % 10, "ts": pd.Timestamp("2026-01-01")}
                for i in range(100)]
        with tempfile.TemporaryDirectory() as td:
            pd.DataFrame(rows).to_parquet(os.path.join(td, "events.parquet"))
            out = q_key_skew_report(td).set_index("stat")["value"]
        assert out["gini"] == 0.0 and out["max_over_mean"] == 1.0

    def test_hot_key_detected(self):
        import tempfile, os

        from webcrawl_lowres_lang_ray.pipelines.queries import q_key_skew_report

        rows = [{"user_id": 7, "ts": pd.Timestamp("2026-01-01")}] * 90
        rows += [{"user_id": i, "ts": pd.Timestamp("2026-01-01")}
                 for i in range(10)]
        with tempfile.TemporaryDirectory() as td:
            pd.DataFrame(rows).to_parquet(os.path.join(td, "events.parquet"))
            out = q_key_skew_report(td).set_index("stat")["value"]
        assert out["top1_key"] == 7.0 and out["gini"] > 0.5


@pytest.mark.parametrize(
    "name", ["monthly_revenue_growth", "customer_linkage"]
)
def test_batch8_matches_duckdb_oracle(name):
    import duckdb

    import __ray_entry__ as e
    from scripts.check_correctness import to_pandas, value_hash

    con = duckdb.connect()
    for t in ("orders", "customer"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    mine = to_pandas(e.queries()[name](SF))
    theirs = con.execute(e.oracle_sql()[name]).df()
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert value_hash(mine) == value_hash(theirs)


class TestLinkage:
    def test_scores_bounded_and_pairs_are_lev1(self):
        import __ray_entry__ as e

        out = e.queries()["customer_linkage"](SF)
        assert ((out["score"] >= 3) & (out["score"] <= 4)).all()
        # every linked pair differs by exactly one character
        for a, b in zip(out["name_a"], out["name_b"]):
            assert len(a) == len(b)
            assert sum(x != y for x, y in zip(a, b)) == 1


class TestDailyActiveUsers:
    def test_matches_duckdb_oracle(self):
        import duckdb

        import __ray_entry__ as e
        from scripts.check_correctness import to_pandas, value_hash

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
        )
        mine = to_pandas(e.queries()["daily_active_users"](SF))
        theirs = con.execute(e.oracle_sql()["daily_active_users"]).df()
        assert len(mine) == len(theirs)
        assert sorted(mine.columns) == sorted(theirs.columns)
        assert value_hash(mine) == value_hash(theirs)

    def test_wau_bounds(self):
        import __ray_entry__ as e

        out = e.queries()["daily_active_users"](SF)
        assert (out["wau"] >= out["dau"]).all()          # window superset
        assert (out["stickiness"] <= 1.0).all()
        # trailing window: wau never exceeds 7x dau max
        assert (out["wau"] <= 7 * out["dau"].max()).all()


class TestAsofGap:
    def test_half_millisecond_tie_rounds_like_duckdb(self):
        """DuckDB's round(epoch(c.ts - v.ts), 3) gives 332352.299 for a
        332,352,299,500 us gap; total_seconds() would round it to .3."""
        from webcrawl_lowres_lang_ray.pipelines.queries import interval_epoch_sec
        from webcrawl_lowres_lang_ray.stages.textstats import round_half_away

        td = pd.Series(pd.to_timedelta([332_352_299_500, 0, 1_500, 86_400_000_000], unit="us"))
        got = round_half_away(interval_epoch_sec(td), 3)
        assert got.tolist() == [332352.299, 0.0, 0.002, 86400.0]
