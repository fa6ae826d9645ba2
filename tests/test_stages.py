"""Tests for the operator stages: dedup sketches, ANN, text stats, lexicon
pipelines, multimodal plumbing."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs_with_dups():
    base = "the quick brown fox jumps over the lazy dog again and again " * 5
    mutated = base.replace("lazy", "sleepy", 1)  # near-dup of base
    other = "completely different content about data processing pipelines " * 5
    rows = [
        (0, base),
        (1, base),          # exact dup of 0
        (2, mutated),       # near dup of 0
        (3, other),
        (4, other + " tail changed slightly here"),  # near dup of 3
        (5, "tiny"),
    ]
    return pd.DataFrame(rows, columns=["doc_id", "text"])


class TestExactDedup:
    def test_stats_and_keep_first(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import (
            exact_dedup_keep_first,
            exact_dedup_stats,
        )

        ds = ray.data.from_pandas(_docs_with_dups())
        stats = exact_dedup_stats(ds).to_pandas()
        dup_groups = stats.loc[stats["n"] > 1]
        assert len(dup_groups) == 1 and dup_groups["keeper"].iloc[0] == 0
        kept = exact_dedup_keep_first(ds).to_pandas()
        assert sorted(kept["doc_id"]) == [0, 2, 3, 4, 5]


class TestMinHash:
    def test_signature_estimates_jaccard(self):
        from webcrawl_lowres_lang_ray.stages.dedup import (
            _perm_params,
            minhash_signature,
            ngram_jaccard,
        )

        a, b = _perm_params()
        d = _docs_with_dups()
        sig0 = minhash_signature(d.text[0], a, b)
        sig2 = minhash_signature(d.text[2], a, b)
        sig3 = minhash_signature(d.text[3], a, b)
        est02 = (sig0 == sig2).mean()
        true02 = ngram_jaccard(d.text[0], d.text[2])
        assert abs(est02 - true02) < 0.25
        assert (sig0 == sig3).mean() < 0.2  # unrelated docs

    def test_lsh_finds_near_dups_not_unrelated(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import minhash_lsh_pairs

        ds = ray.data.from_pandas(_docs_with_dups())
        pairs = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
        found = set(zip(pairs["id_a"], pairs["id_b"]))
        assert (0, 1) in found  # exact dup
        assert (0, 2) in found  # near dup
        assert (3, 4) in found
        assert (0, 3) not in found and (1, 3) not in found

    def test_deterministic_across_runs(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import minhash_lsh_pairs

        ds = ray.data.from_pandas(_docs_with_dups())
        p1 = minhash_lsh_pairs(ds).to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        p2 = minhash_lsh_pairs(ds).to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(p1, p2)

    def test_bucket_verify_plan_matches_attach_plan(self):
        """minhash_lsh_pairs has two verify exchange plans (attach-sig join
        vs bucket-local verify, picked by candidate density under
        verify="auto"); both must emit the identical (id_a, id_b,
        est_jaccard) set — on a mixed corpus AND on a dense template corpus
        where the star-edge cap engages inside each plan."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import minhash_lsh_pairs

        def canon(ds):
            return (
                ds.to_pandas()
                .sort_values(["id_a", "id_b"])
                .reset_index(drop=True)
            )

        mixed = ray.data.from_pandas(_docs_with_dups())
        pd.testing.assert_frame_equal(
            canon(minhash_lsh_pairs(mixed, threshold=0.5, verify="attach")),
            canon(minhash_lsh_pairs(mixed, threshold=0.5, verify="bucket")),
        )

        text = "dense template body repeated across the whole bucket " * 4
        dense = ray.data.from_pandas(
            pd.DataFrame({"doc_id": range(40), "text": [text] * 40})
        )
        att = canon(minhash_lsh_pairs(dense, threshold=0.5, max_bucket=8, verify="attach"))
        buk = canon(minhash_lsh_pairs(dense, threshold=0.5, max_bucket=8, verify="bucket"))
        pd.testing.assert_frame_equal(att, buk)
        # and auto must agree with both (it picks one of them)
        auto = canon(minhash_lsh_pairs(dense, threshold=0.5, max_bucket=8))
        pd.testing.assert_frame_equal(att, auto)

    def test_giant_bucket_emits_star_edges_not_all_pairs(self):
        """Buckets above max_bucket fall back to star edges (everyone <->
        bucket-min): O(c) pairs, connectivity preserved.  30 identical docs
        with max_bucket=8 must yield exactly the 29 star pairs (0, i) at
        est_jaccard 1.0 — not the C(30,2)=435 all-pairs set; with the cap
        above the bucket size the full clique comes back."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import minhash_lsh_pairs

        text = "the same template page body repeated verbatim " * 5
        df = pd.DataFrame({"doc_id": range(30), "text": [text] * 30})
        ds = ray.data.from_pandas(df)

        star = minhash_lsh_pairs(ds, threshold=0.5, max_bucket=8).to_pandas()
        assert set(zip(star["id_a"], star["id_b"])) == {(0, i) for i in range(1, 30)}
        assert (star["est_jaccard"] == 1.0).all()

        full = minhash_lsh_pairs(ds, threshold=0.5, max_bucket=64).to_pandas()
        assert len(full) == 435  # C(30,2): cap above bucket size -> all pairs

    def test_ngram_jaccard_lsh_vs_exact(self):
        """The shipped scale path (LSH candidates + exact shuffle-joined
        Jaccard) must report the exact Jaccard for every pair it emits, emit
        no pair the oracle lacks, and recall >= 0.9 at its operating point
        (32x2 bands ~ threshold 0.5)."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import (
            ngram_jaccard_allpairs,
            ngram_jaccard_lsh,
        )

        rng = np.random.RandomState(17)
        vocab = [f"w{i}" for i in range(300)]
        rows, did = [], 0
        for _c in range(120):
            words = [vocab[i] for i in rng.randint(0, 300, size=25)]
            rows.append((did, " ".join(words))); did += 1
            if rng.random() < 0.5:  # plant a near-dup with a couple of edits
                w = list(words)
                for _ in range(rng.randint(1, 3)):
                    w[rng.randint(0, len(w))] = vocab[rng.randint(0, 300)]
                rows.append((did, " ".join(w))); did += 1
        df = pd.DataFrame(rows, columns=["doc_id", "text"])
        chunks = [df.iloc[i : i + 50].reset_index(drop=True) for i in range(0, len(df), 50)]
        ds = ray.data.from_pandas(chunks)
        exact = ngram_jaccard_allpairs(ds, threshold=0.5).to_pandas()
        got = ngram_jaccard_lsh(ds, threshold=0.5).to_pandas()
        se = dict(zip(zip(exact["id_a"], exact["id_b"]), exact["jaccard"]))
        sg = dict(zip(zip(got["id_a"], got["id_b"]), got["jaccard"]))
        assert len(se) > 30
        assert not (set(sg) - set(se)), "LSH emitted a pair the oracle lacks"
        assert len(set(se) & set(sg)) / len(se) >= 0.9
        for pair, j in sg.items():
            assert abs(j - se[pair]) < 1e-9  # exact, not estimated

    def test_shuffle_join_verify_equals_broadcast(self):
        """The scale-path verify (signatures shuffle-joined onto candidate
        pairs) must produce the same pair set and estimates as the broadcast
        oracle on a 2k-doc fixture with planted near-dup clusters."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import (
            minhash_lsh_pairs,
            minhash_lsh_pairs_broadcast,
        )

        rng = np.random.RandomState(7)
        vocab = [f"w{i}" for i in range(500)]
        rows = []
        doc_id = 0
        for c in range(250):  # 250 clusters x (1 base + 0-2 mutations)
            words = [vocab[i] for i in rng.randint(0, 500, size=30)]
            base = " ".join(words)
            rows.append((doc_id, base)); doc_id += 1
            for _ in range(rng.randint(0, 3)):
                w = list(words)
                for _ in range(rng.randint(1, 4)):
                    w[rng.randint(0, len(w))] = vocab[rng.randint(0, 500)]
                rows.append((doc_id, " ".join(w))); doc_id += 1
        filler = [
            (doc_id + i, " ".join(vocab[j] for j in rng.randint(0, 500, size=30)))
            for i in range(2000 - len(rows))
        ]
        df = pd.DataFrame(rows + filler, columns=["doc_id", "text"])
        assert len(df) == 2000
        chunks = [df.iloc[i : i + 100].reset_index(drop=True) for i in range(0, 2000, 100)]
        ds = ray.data.from_pandas(chunks)
        key = ["id_a", "id_b"]
        got = minhash_lsh_pairs(ds, threshold=0.5).to_pandas().sort_values(key).reset_index(drop=True)
        want = (
            minhash_lsh_pairs_broadcast(ds, threshold=0.5)
            .to_pandas().sort_values(key).reset_index(drop=True)
        )
        assert len(got) > 50  # planted near-dups were found
        pd.testing.assert_frame_equal(got[key + ["est_jaccard"]], want[key + ["est_jaccard"]])


class TestSimHash:
    def test_near_dup_distance_small(self):
        from webcrawl_lowres_lang_ray.stages.dedup import simhash64

        d = _docs_with_dups()
        h0 = simhash64(d.text[0])
        h2 = simhash64(d.text[2])
        h3 = simhash64(d.text[3])
        assert bin(h0 ^ h2).count("1") <= 6
        assert bin(h0 ^ h3).count("1") > 10

    def test_pairs_pipeline(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import simhash_neardup_pairs

        ds = ray.data.from_pandas(_docs_with_dups())
        pairs = simhash_neardup_pairs(ds).to_pandas()
        found = set(zip(pairs["id_a"], pairs["id_b"]))
        assert (0, 1) in found  # identical -> distance 0

    def test_max_hamming_above_three_keeps_recall(self, monkeypatch):
        """Two hashes at distance 4 with one differing bit in each 16-bit
        block share no block: a fixed 4-block split misses them, the
        max_hamming + 1 band split must not."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages import dedup

        far = np.uint64(1 | 1 << 16 | 1 << 32 | 1 << 48)

        def fake_simhash(ds, text_col="text"):
            def fn(b: pd.DataFrame) -> pd.DataFrame:
                ids = b["doc_id"].to_numpy(np.int64)
                return b.assign(simhash=np.where(ids == 0, np.uint64(0), far))

            return ds.map_batches(fn, batch_format="pandas")

        monkeypatch.setattr(dedup, "add_simhash", fake_simhash)
        ds = ray.data.from_pandas(pd.DataFrame({"doc_id": [0, 1], "text": ["a", "b"]}))
        pairs = dedup.simhash_neardup_pairs(ds, max_hamming=4).to_pandas()
        assert pairs[["id_a", "id_b", "hamming"]].values.tolist() == [[0, 1, 4]]
        assert len(dedup.simhash_neardup_pairs(ds, max_hamming=3).to_pandas()) == 0

    def test_max_hamming_out_of_range_raises(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import simhash_neardup_pairs

        ds = ray.data.from_pandas(_docs_with_dups())
        for bad in (64, -1):
            with pytest.raises(ValueError, match="max_hamming"):
                simhash_neardup_pairs(ds, max_hamming=bad)


def _star_or_all_pairs(df: pd.DataFrame, key: str, max_bucket) -> pd.DataFrame:
    """Brute-force shared-key pairs: a pandas self-merge on ``key`` over
    distinct (key, id) rows, except that a key held by more than
    ``max_bucket`` ids pairs only its min id with each other id."""
    d = df[[key, "id"]].drop_duplicates()
    m = d.merge(d, on=key, suffixes=("_a", "_b"))
    m = m[m["id_a"] < m["id_b"]]
    if max_bucket is not None:
        size = d.groupby(key)["id"].transform("size")
        big = d.loc[size > max_bucket].groupby(key)["id"].min()
        hub = m[key].map(big)
        m = m[hub.isna() | (m["id_a"] == hub)]
    return m[[key, "id_a", "id_b"]]


class TestSharedKeyPairs:
    """The one pair kernel (_run_pairs) and shared-key exchange
    (_shared_key_pairs) against a pandas self-merge."""

    @staticmethod
    def _rows(seed: int) -> pd.DataFrame:
        rng = np.random.RandomState(seed)
        n = 400
        df = pd.DataFrame(
            {"id": rng.randint(0, 120, n).astype(np.int64),
             "k": rng.randint(0, 40, n).astype(np.int64)}
        )
        # one hot key held by 60 distinct ids, plus repeated (key, id) rows
        hot = pd.DataFrame({"id": np.arange(200, 260, dtype=np.int64), "k": np.int64(999)})
        df = pd.concat([df, hot, df.iloc[:50], hot.iloc[:10]], ignore_index=True)
        df["s"] = ["w%03d" % k for k in df["k"]]  # the same keys as strings
        return df.sample(frac=1.0, random_state=seed).reset_index(drop=True)

    @pytest.mark.parametrize("key", ["k", "s"])
    @pytest.mark.parametrize("max_bucket", [None, 16])
    def test_run_pairs_matches_self_merge(self, key, max_bucket):
        from webcrawl_lowres_lang_ray.stages.dedup import _run_pairs

        df = self._rows(3)
        ids = df["id"].to_numpy()
        i, j = _run_pairs(df[key].to_numpy(), ids, max_bucket)
        assert (ids[i] < ids[j]).all()
        assert (df[key].to_numpy()[i] == df[key].to_numpy()[j]).all()
        got = sorted(zip(df[key].to_numpy()[i].tolist(), ids[i].tolist(), ids[j].tolist()))
        want = sorted(map(tuple, _star_or_all_pairs(df, key, max_bucket).values.tolist()))
        assert got == want  # no pair twice, none missing
        hot = df.loc[df["k"] == 999, key].iloc[0]
        hot_pairs = [(a, b) for k, a, b in got if k == hot]
        if max_bucket is None:
            assert len(hot_pairs) == 60 * 59 // 2
        else:  # exactly the star pairs to the hot key's min id
            assert hot_pairs == [(200, b) for b in range(201, 260)]

    def test_run_pairs_on_key_columns(self):
        from webcrawl_lowres_lang_ray.stages.dedup import _run_pairs

        df = self._rows(4)
        df["k2"] = df["id"] % 2
        ids = df["id"].to_numpy()
        i, j = _run_pairs([df["s"].to_numpy(), df["k2"].to_numpy()], ids)
        got = sorted(zip(ids[i].tolist(), ids[j].tolist(), df["s"].to_numpy()[i].tolist()))
        d = df.assign(key=df["s"] + "/" + df["k2"].astype(str))
        want = sorted(
            (a, b, key.split("/")[0])
            for key, a, b in _star_or_all_pairs(d, "key", None).values.tolist()
        )
        assert got == want

    @pytest.mark.parametrize("key", ["k", "s"])
    @pytest.mark.parametrize("max_bucket", [None, 16])
    def test_shared_key_pairs_matches_self_merge(self, key, max_bucket):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.dedup import _shared_key_pairs

        df = self._rows(5)
        ds = ray.data.from_pandas([df.iloc[:300], df.iloc[300:]])
        got = (
            _shared_key_pairs(ds, [key], "id", max_bucket)
            .to_pandas()
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        want = (
            _star_or_all_pairs(df, key, max_bucket)
            .groupby(["id_a", "id_b"])
            .size()
            .reset_index(name="n")
        )
        assert len(want) > 1000
        pd.testing.assert_frame_equal(got, want)


class TestRangeJoin:
    def test_overlapping_intervals_multimatch(self):
        """An event inside two overlapping windows joins BOTH (one-to-many
        range join, not bucketization); events outside all windows drop."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.windows import range_join_broadcast

        base = pd.Timestamp("2024-03-01")
        ev = pd.DataFrame(
            {
                "event_id": np.arange(4, dtype=np.int64),
                "ts": [base + pd.Timedelta(hours=h) for h in (1, 7, 9, 40)],
            }
        )
        iv = pd.DataFrame(
            {
                "interval_id": np.array([0, 1], dtype=np.int64),
                "start_ts": [base, base + pd.Timedelta(hours=6)],
                "end_ts": [base + pd.Timedelta(hours=8), base + pd.Timedelta(hours=14)],
            }
        )
        out = (
            range_join_broadcast(
                ray.data.from_pandas(ev), iv, ts_col="ts", carry_cols=("event_id",)
            )
            .to_pandas().sort_values(["event_id", "interval_id"])
        )
        got = list(zip(out["event_id"], out["interval_id"]))
        assert got == [(0, 0), (1, 0), (1, 1), (2, 1)]  # hour 7 in both; 40 dropped


class TestBootstrapLexicons:
    def test_unigram_and_bigram_dicts(self, tmp_path):
        """N8 emits BOTH dicts the reference writes (extract.py:113-120),
        including the words.pop() bigram quirk (extract.py:44-62)."""
        import json

        from webcrawl_lowres_lang_ray.stages.lexicon import (
            bootstrap_lexicons_from_text,
            write_bootstrap_lexicons,
        )

        text = "Kia ora! Kia kaha 123 ab."
        uni, bi = bootstrap_lexicons_from_text(text)
        assert uni == {"kia": 2, "ora": 1, "kaha": 1}
        # words = [Kia, ora, Kia, kaha, 123, ab]; pop() -> first bigram pairs
        # the LAST word with the first: "ab Kia", then the normal chain;
        # digit-containing bigrams filtered, lowercased
        assert bi == {"ab kia": 1, "kia ora": 1, "ora kia": 1, "kia kaha": 1}
        upath, bpath = write_bootstrap_lexicons(text, str(tmp_path / "dicts"), "PUKAPUKA")
        with open(upath) as f:
            assert json.load(f) == uni
        with open(bpath) as f:
            assert json.load(f) == bi


class TestBootstrapRegistry:
    def test_multi_language_loop(self, tmp_path):
        """extract_udhr loop parity: per-language seed docs -> per-language
        dict pairs; 'All' vs one language; unsupported type errors."""
        import json

        import pytest as _pytest

        from webcrawl_lowres_lang_ray.stages.lexicon import bootstrap_from_registry

        (tmp_path / "mi.txt").write_text("Kia ora kia kaha")
        (tmp_path / "to.txt").write_text("Malo e lelei malo")
        reg = {
            "Maori": {"path": str(tmp_path / "mi.txt")},
            "Tongan": {"path": str(tmp_path / "to.txt")},
        }
        outs = bootstrap_from_registry(reg, str(tmp_path / "dicts"))
        assert set(outs) == {"Maori", "Tongan"}
        with open(outs["Maori"][0]) as f:
            assert json.load(f) == {"kia": 2, "ora": 1, "kaha": 1}
        only = bootstrap_from_registry(reg, str(tmp_path / "d2"), only="Tongan")
        assert set(only) == {"Tongan"}
        with _pytest.raises(KeyError):
            bootstrap_from_registry(reg, str(tmp_path / "d3"), only="Klingon")
        (tmp_path / "x.docx").write_text("nope")
        with _pytest.raises(ValueError):
            bootstrap_from_registry(
                {"X": {"path": str(tmp_path / "x.docx")}}, str(tmp_path / "d4")
            )


class TestANN:
    def _emb_ds(self, n=400, dim=32, seed=5):
        import ray.data

        rng = np.random.RandomState(seed)
        mat = rng.normal(size=(n, dim))
        df = pd.DataFrame({"vec_id": np.arange(n), "embedding": list(mat)})
        return ray.data.from_pandas(df), mat

    def test_srp_neardup_recall_vs_exact(self):
        """The shipped SRP-bucketed near-dup must recover >= 0.95 of the
        exact all-pairs result (clustered embeddings like the testdata
        table), with zero false pairs (exact cosine on candidates)."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.ann import (
            cosine_neardup_pairs,
            srp_neardup_pairs,
        )

        rng = np.random.RandomState(11)
        dim, n = 32, 600
        centers = rng.normal(size=(12, dim)) * 1.2
        mat = np.stack([centers[i % 12] + rng.normal(size=dim) for i in range(n)])
        df = pd.DataFrame({"vec_id": np.arange(n), "embedding": list(mat)})
        chunks = [df.iloc[i : i + 100].reset_index(drop=True) for i in range(0, n, 100)]
        ds = ray.data.from_pandas(chunks)
        exact = cosine_neardup_pairs(ds, threshold=0.5).to_pandas()
        got = srp_neardup_pairs(ds, dim=dim, threshold=0.5).to_pandas()
        se = set(zip(exact["id_a"], exact["id_b"]))
        sg = set(zip(got["id_a"], got["id_b"]))
        assert len(se) > 100
        assert not (sg - se), "SRP emitted a pair the exact oracle lacks"
        assert len(se & sg) / len(se) >= 0.95

    def test_srp_bucket_verify_plan_matches_attach_plan(self):
        """srp_neardup_pairs has two verify exchange plans (attach-sig join
        vs bucket-local chunked matmul, picked by measured bucket density
        under verify="auto" — the r5 sf1 querysoak found attach's candidate
        exchange explodes on a cosine continuum); both must emit the
        identical (id_a, id_b, cos_sim) set on a clustered corpus AND on a
        continuum where auto picks the bucket plan."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.ann import srp_neardup_pairs

        def canon(ds):
            return (
                ds.to_pandas()
                .sort_values(["id_a", "id_b"])
                .reset_index(drop=True)
            )

        rng = np.random.RandomState(31)
        dim = 32
        centers = rng.normal(size=(8, dim)) * 1.2
        mat = np.stack([centers[i % 8] + rng.normal(size=dim) for i in range(300)])
        df = pd.DataFrame({"vec_id": np.arange(300), "embedding": list(mat)})
        clustered = ray.data.from_pandas(
            [df.iloc[i : i + 100].reset_index(drop=True) for i in range(0, 300, 100)]
        )
        att = canon(srp_neardup_pairs(clustered, dim=dim, threshold=0.5, verify="attach"))
        buk = canon(srp_neardup_pairs(clustered, dim=dim, threshold=0.5, verify="bucket"))
        pd.testing.assert_frame_equal(att, buk)
        assert len(att) > 50

        # continuum: random vectors at a bulk threshold — dense buckets
        cont_mat = rng.normal(size=(250, dim))
        cdf = pd.DataFrame({"vec_id": np.arange(250), "embedding": list(cont_mat)})
        cont = ray.data.from_pandas(cdf)
        c_att = canon(srp_neardup_pairs(cont, dim=dim, threshold=0.2, verify="attach"))
        c_buk = canon(srp_neardup_pairs(cont, dim=dim, threshold=0.2, verify="bucket"))
        pd.testing.assert_frame_equal(c_att, c_buk)
        c_auto = canon(srp_neardup_pairs(cont, dim=dim, threshold=0.2))
        pd.testing.assert_frame_equal(c_att, c_auto)

    def test_hashing_embed_pipeline_recall(self):
        """Text -> hash-embed -> SRP near-dup end to end: deterministic
        vectors (unit norm, duplicate texts at cosine 1.0) and recall
        >= 0.95 vs the exact all-pairs oracle on the same vectors."""
        import ray.data

        from webcrawl_lowres_lang_ray.functions.embed import (
            HashingEmbedStage,
            hashing_embed,
        )
        from webcrawl_lowres_lang_ray.stages.ann import (
            cosine_neardup_pairs,
            srp_neardup_pairs,
        )

        v1, v2 = hashing_embed("kupu tahi rua"), hashing_embed("kupu tahi rua")
        np.testing.assert_array_equal(v1, v2)
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-12

        rng = np.random.RandomState(23)
        import itertools

        # letter-only vocab: tokenize_filtered drops digit-bearing words
        vocab = ["".join(p) for p in itertools.product("abcdefghij", repeat=3)][:200]
        rows, did = [], 0
        for _ in range(150):
            words = [vocab[i] for i in rng.randint(0, 200, size=40)]
            rows.append((did, " ".join(words))); did += 1
            if rng.random() < 0.4:  # near-dup: a few token edits
                w = list(words)
                for _ in range(rng.randint(1, 4)):
                    w[rng.randint(0, len(w))] = vocab[rng.randint(0, 200)]
                rows.append((did, " ".join(w))); did += 1
        df = pd.DataFrame(rows, columns=["doc_id", "text"])
        ds = ray.data.from_pandas(
            [df.iloc[i : i + 50].reset_index(drop=True) for i in range(0, len(df), 50)]
        )
        emb = ds.map_batches(
            HashingEmbedStage, fn_constructor_kwargs={"dim": 128},
            batch_format="pandas", batch_size=64, concurrency=2,
        ).drop_columns(["text"]).materialize()
        exact = cosine_neardup_pairs(emb, threshold=0.85, id_col="doc_id").to_pandas()
        got = srp_neardup_pairs(emb, dim=128, threshold=0.85, id_col="doc_id").to_pandas()
        se = set(zip(exact["id_a"], exact["id_b"]))
        sg = set(zip(got["id_a"], got["id_b"]))
        assert len(se) > 20
        assert not (sg - se)
        assert len(se & sg) / len(se) >= 0.95

    def test_brute_force_matches_numpy(self):
        from webcrawl_lowres_lang_ray.stages.ann import brute_force_topk

        ds, mat = self._emb_ds()
        q = mat[7]
        got = brute_force_topk(ds, q, k=10)
        sims = (mat @ q) / (np.linalg.norm(mat, axis=1) * np.linalg.norm(q))
        expect = np.argsort(-sims, kind="stable")[:10]
        assert got["vec_id"].iloc[0] == 7  # self-match first
        assert set(got["vec_id"]) == set(expect)

    def test_lsh_recall_vs_brute_force(self):
        from webcrawl_lowres_lang_ray.stages.ann import (
            brute_force_topk,
            build_srp_index,
            srp_lsh_topk,
        )

        ds, mat = self._emb_ds()
        dim = mat.shape[1]
        indexed = build_srp_index(ds, dim, bits=8, n_tables=4).materialize()
        recalls = []
        for qid in [3, 57, 123]:
            bf = set(brute_force_topk(ds, mat[qid], k=10)["vec_id"])
            lsh = set(
                srp_lsh_topk(
                    indexed, mat[qid], dim, k=10, bits=8, n_tables=4, probe_hamming=2
                )["vec_id"]
            )
            recalls.append(len(bf & lsh) / 10)
        assert np.mean(recalls) >= 0.7  # 4 tables x multi-probe radius 2


class TestTextStats:
    def test_quality_metrics(self):
        from webcrawl_lowres_lang_ray.stages.textstats import quality_batch

        b = pd.DataFrame({"text": ["the cat, and a dog!", ""]})
        out = quality_batch(b)
        assert out["n_tokens"].iloc[0] == 5
        assert out["punct_ratio"].iloc[0] == round(2 / 19, 4)
        assert out["stopword_ratio"].iloc[0] == round(3 / 5, 4)
        assert out["n_tokens"].iloc[1] == 0

    def test_round_half_away(self):
        from webcrawl_lowres_lang_ray.stages.textstats import round_half_away

        assert round_half_away(4.40625, 4) == 4.4063  # numpy would give .4062
        assert round_half_away(-4.40625, 4) == -4.4063
        assert round_half_away(1.0, 2) == 1.0

    def test_fingerprint_normalizes(self):
        from webcrawl_lowres_lang_ray.stages.textstats import fingerprint

        assert fingerprint("A  b\tC") == fingerprint("a b c")

    def test_winnow_overlap_for_shared_substrings(self):
        from webcrawl_lowres_lang_ray.stages.textstats import winnow_fingerprints

        a = "x" * 5 + "the common long substring appears here" + "y" * 5
        b = "z" * 9 + "the common long substring appears here" + "w" * 3
        fa, fb = set(winnow_fingerprints(a)), set(winnow_fingerprints(b))
        assert fa & fb

    def test_bpeish_token_count(self):
        from webcrawl_lowres_lang_ray.stages.textstats import token_count_bpeish

        assert token_count_bpeish("don't stop!") == 5  # don ' t stop !


class TestLexicon:
    def test_token_frequencies_matches_counter(self, small_corpus):
        import collections

        import ray.data

        from webcrawl_lowres_lang_ray.functions.tokenize import tokenize_batch
        from webcrawl_lowres_lang_ray.stages.lexicon import token_frequencies_ds

        df = pd.DataFrame({"text": ["Kapa haka kapa", "haka!! x9 ab", "mana mana mana"]})
        out = token_frequencies_ds(ray.data.from_pandas(df)).to_pandas()
        got = dict(zip(out["token"], out["count"]))
        expect = collections.Counter()
        for toks in tokenize_batch(df["text"].to_numpy()):
            expect.update(toks)
        assert got == dict(expect)

    def test_merge_semantics(self):
        from webcrawl_lowres_lang_ray.stages.lexicon import merge_lexicons

        assert merge_lexicons({"a": 1, "b": 2}, {"b": 3, "c": 4}) == {"a": 1, "b": 5, "c": 4}

    def test_regen_grows_lexicon(self, small_corpus):
        import ray.data

        from webcrawl_lowres_lang_ray.config import CrawlConfig
        from webcrawl_lowres_lang_ray.sources.synth import load_lexicon
        from webcrawl_lowres_lang_ray.stages.lexicon import regenerate_lexicon
        import glob
        import pyarrow.parquet as pq

        texts = []
        for f in sorted(glob.glob(small_corpus + "/pages/bucket=*.parquet"))[:4]:
            texts.extend(pq.read_table(f, columns=["text"])["text"].to_pylist())
        ds = ray.data.from_pandas(pd.DataFrame({"text": texts}))
        core = load_lexicon(small_corpus)
        grown = regenerate_lexicon(ds, core, CrawlConfig(), output_mode="merge")
        assert sum(grown.values()) > sum(core.values())  # merge adds counts
        replaced = regenerate_lexicon(ds, core, CrawlConfig(), output_mode="replace")
        assert set(replaced) - set(core) == set()  # paras are lexicon words


class TestMultimodal:
    def test_decode_stage_fake(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.multimodal import DecodeStage, synth_media_batch

        media = ray.data.from_pandas(synth_media_batch(30))
        out = media.map_batches(
            DecodeStage, fn_constructor_kwargs={"fake": True},
            batch_format="pandas", batch_size=8, concurrency=2,
        ).to_pandas()
        assert len(out) == 30 and "features" in out and "payload" not in out

    def test_gated_formats_are_marked_stub(self):
        """PNG/WAV decode real (tests/test_media.py); what's left gated:
        video containers and image formats whose header can't be parsed."""
        from webcrawl_lowres_lang_ray.stages.multimodal import DecodeStage

        stage = DecodeStage(fake=False)
        with pytest.raises(NotImplementedError):
            stage._decode("video/mp4", b"\x00\x00\x00 ftypisom")
        with pytest.raises(NotImplementedError):
            stage._decode("image/webp", b"RIFFxxxxWEBP")
        with pytest.raises(ValueError):
            stage._decode("image/png", b"xx")  # real decoder, real error

    def test_frame_sampling(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.multimodal import FrameSampleStage, synth_media_batch

        media = ray.data.from_pandas(synth_media_batch(12))
        frames = media.map_batches(
            FrameSampleStage, fn_constructor_kwargs={"every_n": 10},
            batch_format="pandas", batch_size=8, concurrency=2,
        ).to_pandas()
        assert len(frames) > 0 and (frames["frame_idx"] % 10 == 0).all()


class TestCosineNearDup:
    def _emb_ds(self, n=60, dim=16, seed=3):
        import ray.data as ray_data
        rng = np.random.RandomState(seed)
        mat = rng.randn(n, dim)
        mat[1] = mat[0] + 0.01 * rng.randn(dim)   # near-dup of 0
        mat[5] = -mat[4]                          # anti-parallel: NOT a dup
        df = pd.DataFrame({"vec_id": np.arange(n), "embedding": [list(r) for r in mat]})
        return ray_data.from_pandas(df), mat

    def test_exact_pairs_match_numpy_oracle(self):
        from webcrawl_lowres_lang_ray.stages.ann import cosine_neardup_pairs

        ds, mat = self._emb_ds()
        got = cosine_neardup_pairs(ds, threshold=0.6, block_rows=16).to_pandas()
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        sims = (mat / norms) @ (mat / norms).T
        iu, ju = np.triu_indices(len(mat), 1)
        want = {(i, j) for i, j in zip(iu[sims[iu, ju] >= 0.6], ju[sims[iu, ju] >= 0.6])}
        assert set(zip(got["id_a"], got["id_b"])) == want
        assert (0, 1) in want  # the planted near-dup was actually planted

    def test_blocked_pairs_equal_broadcast_oracle(self):
        """cosine_pairs_blocked (no-broadcast block all-pairs, the shipped
        low-threshold scale path) must equal cosine_neardup_pairs exactly —
        values included — across block counts, including blocks larger
        than the corpus and the single-block degenerate case."""
        from webcrawl_lowres_lang_ray.stages.ann import (
            cosine_neardup_pairs,
            cosine_pairs_blocked,
        )

        ds, _ = self._emb_ds(n=80)
        want = (
            cosine_neardup_pairs(ds, threshold=0.5)
            .to_pandas()
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        for nb in (1, 5, 100):
            got = (
                cosine_pairs_blocked(ds, threshold=0.5, n_blocks=nb)
                .to_pandas()
                .sort_values(["id_a", "id_b"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want[got.columns])


class TestIvf:
    def test_full_probe_equals_brute_force(self):
        from webcrawl_lowres_lang_ray.stages.ann import (
            brute_force_topk, ivf_topk, ivf_train_centroids,
        )

        rng = np.random.RandomState(11)
        mat = rng.randn(200, 16)
        import ray.data as ray_data

        df = pd.DataFrame({"vec_id": np.arange(200), "embedding": [list(r) for r in mat]})
        ds = ray_data.from_pandas(df)
        cents = ivf_train_centroids(ds, nlist=8)
        exact = brute_force_topk(ds, mat[0], k=10)
        full = ivf_topk(ds, cents, mat[0], k=10, nprobe=8)
        pd.testing.assert_frame_equal(exact, full)

    def test_low_probe_recall(self):
        from webcrawl_lowres_lang_ray.stages.ann import (
            brute_force_topk, ivf_topk, ivf_train_centroids,
        )

        rng = np.random.RandomState(12)
        # clustered data so IVF lists are meaningful
        centers = rng.randn(8, 16) * 4
        mat = np.vstack([c + rng.randn(40, 16) for c in centers])
        import ray.data as ray_data

        df = pd.DataFrame({"vec_id": np.arange(len(mat)), "embedding": [list(r) for r in mat]})
        ds = ray_data.from_pandas(df)
        cents = ivf_train_centroids(ds, nlist=8)
        exact = brute_force_topk(ds, mat[0], k=10)
        approx = ivf_topk(ds, cents, mat[0], k=10, nprobe=3)
        recall = len(set(exact["vec_id"]) & set(approx["vec_id"])) / 10
        assert recall >= 0.7

    def test_centroids_deterministic(self):
        from webcrawl_lowres_lang_ray.stages.ann import ivf_train_centroids

        rng = np.random.RandomState(13)
        mat = rng.randn(100, 8)
        import ray.data as ray_data

        df = pd.DataFrame({"vec_id": np.arange(100), "embedding": [list(r) for r in mat]})
        c1 = ivf_train_centroids(ray_data.from_pandas(df), nlist=4)
        c2 = ivf_train_centroids(ray_data.from_pandas(df), nlist=4)
        np.testing.assert_array_equal(c1, c2)


class TestNgramJaccardAllPairs:
    def test_matches_brute_force(self):
        from webcrawl_lowres_lang_ray.stages.dedup import (
            _string_shingles, ngram_jaccard_allpairs,
        )

        import ray.data as ray_data

        df = _docs_with_dups().rename(columns={})
        ds = ray_data.from_pandas(df)
        got = ngram_jaccard_allpairs(ds, threshold=0.3, block_rows=2).to_pandas()
        # brute force oracle on string shingles
        want = []
        rows = list(zip(df["doc_id"], df["text"]))
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                si, sj = _string_shingles(rows[i][1]), _string_shingles(rows[j][1])
                inter = len(si & sj)
                jac = 1.0 if not si and not sj else (
                    0.0 if not si or not sj else inter / (len(si) + len(sj) - inter)
                )
                if jac >= 0.3:
                    want.append((rows[i][0], rows[j][0], round(jac, 4)))
        got_set = set(zip(got["id_a"], got["id_b"], got["jaccard"]))
        assert got_set == set(want)
        assert any(a == 0 and b == 1 for a, b, _ in want)  # exact dup pair present

    def test_line_dedup_first_wins_oracle(self):
        """line_dedup (CCNet corpus-level line dedup) == a serial
        first-wins pass in (doc, idx) order; whitespace-only lines are
        structural and never deduped; duplicate-within-one-doc drops."""
        import ray.data as ray_data

        from webcrawl_lowres_lang_ray.stages.dedup import line_dedup

        docs = {
            0: "Home\nAbout\nreal content zero\n\nfooter 2024",
            1: "Home\nAbout\nreal content one\nfooter 2024",
            2: "real content two\nreal content two\nHome",
            3: "   \n\nunique only",
            4: "",
        }
        df = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
        got = (
            line_dedup(ray_data.from_pandas(df), id_col="doc_id")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        # serial oracle
        seen: set[str] = set()
        want = {}
        for d in sorted(docs):
            kept, dropped, lines = [], 0, docs[d].split("\n")
            for ln in lines:
                s = ln.strip()
                if not s:
                    kept.append(ln)
                    continue
                if s in seen:
                    dropped += 1
                else:
                    seen.add(s)
                    kept.append(ln)
            want[d] = (len(lines), dropped, "\n".join(kept))
        for _, r in got.iterrows():
            n, dr, txt = want[int(r["doc_id"])]
            assert (int(r["n_lines"]), int(r["n_dropped"])) == (n, dr)
            assert r["text"] == txt
        # the boilerplate actually got removed
        r1 = got[got["doc_id"] == 1].iloc[0]
        assert r1["n_dropped"] == 3 and "Home" not in r1["text"]

    def test_inverted_index_join_equals_allpairs(self):
        """ngram_jaccard_inverted (the exact inverted-index scale path —
        no all-pairs stage, no broadcast) must equal the quadratic oracle
        exactly, INCLUDING the empty-empty jaccard-1.0 edge case, which an
        inverted index only sees via the pseudo-shingle routing."""
        import ray.data as ray_data

        from webcrawl_lowres_lang_ray.stages.dedup import (
            ngram_jaccard_allpairs,
            ngram_jaccard_inverted,
        )

        df = _docs_with_dups()
        extra = pd.DataFrame(
            {"doc_id": [900, 901, 902],
             "text": ["", "", "one two"]}  # two empties + one sub-k doc
        )
        df = pd.concat([df, extra], ignore_index=True)
        ds = ray_data.from_pandas(df)
        for thr in (0.3, 0.5):
            want = (
                ngram_jaccard_allpairs(ds, threshold=thr)
                .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
            )
            got = (
                ngram_jaccard_inverted(ds, threshold=thr)
                .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want[got.columns])
        # the empty-empty pair is present at jaccard 1.0
        assert ((got["id_a"] == 900) & (got["id_b"] == 901)).any()


class TestWindows:
    def _events(self, n=400, seed=5):
        rng = np.random.RandomState(seed)
        ts = pd.Timestamp("2024-01-01") + pd.to_timedelta(
            np.sort(rng.randint(0, 3600 * 72, n)), unit="s"
        )
        return pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "ts": ts,
                "user_id": rng.randint(0, 12, n).astype(np.int64),
                "event_type": rng.choice(["view", "click"], n),
                "value": rng.uniform(0, 10, n).round(2),
            }
        )

    def test_asof_matches_pandas_merge_asof(self):
        import ray.data as ray_data

        from webcrawl_lowres_lang_ray.stages.windows import asof_join_by_key

        df = self._events()
        clicks = df.loc[df.event_type == "click"].drop(columns=["event_type"])
        views = df.loc[df.event_type == "view"].drop(columns=["event_type"])
        got = (
            asof_join_by_key(
                ray_data.from_pandas(clicks.reset_index(drop=True)),
                ray_data.from_pandas(views.reset_index(drop=True)),
                key="user_id", right_cols=("event_id",),
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        want = pd.merge_asof(
            clicks.sort_values("ts"),
            views[["user_id", "ts", "event_id"]].rename(
                columns={"event_id": "event_id_r", "ts": "ts_r"}
            ).sort_values("ts_r"),
            left_on="ts", right_on="ts_r", by="user_id", direction="backward",
        )
        want = want.loc[want["ts_r"].notna()].sort_values("event_id").reset_index(drop=True)
        assert list(got["event_id"]) == list(want["event_id"])
        assert list(got["event_id_r"].astype(int)) == list(want["event_id_r"].astype(int))

    def test_sliding_window_counts(self):
        import ray.data as ray_data

        from webcrawl_lowres_lang_ray.stages.windows import sliding_window_agg

        df = self._events()
        got = sliding_window_agg(
            ray_data.from_pandas(df), "event_type", window_hours=3
        ).to_pandas()
        # oracle: per type, trailing 3-hour count over occupied hours
        for etype, sub in df.groupby("event_type"):
            hrs = sub.set_index(sub["ts"].dt.floor("h"))
            counts = hrs.groupby(level=0).size()
            for hr, _ in counts.items():
                lo = hr - pd.Timedelta(hours=2)
                want = int(counts[(counts.index >= lo) & (counts.index <= hr)].sum())
                row = got.loc[
                    (got["event_type"] == etype)
                    & (got["hour"] == hr.strftime("%Y-%m-%d %H:00"))
                ]
                assert int(row["n_window"].iloc[0]) == want

    def test_salted_sum_equals_plain(self):
        import ray.data as ray_data

        from webcrawl_lowres_lang_ray.stages.windows import salted_sum

        df = self._events()
        # make user 0 hot
        df.loc[: len(df) // 2, "user_id"] = 0
        got = (
            salted_sum(ray_data.from_pandas(df), "user_id", "value", salt_n=8)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        want = df.groupby("user_id")["value"].sum().reset_index()
        np.testing.assert_allclose(
            got["sum_value"].to_numpy(),
            want["value"].to_numpy(),
            rtol=1e-9,
        )


class TestSketches:
    def test_tdigest_quantiles_close_to_exact(self):
        from webcrawl_lowres_lang_ray.stages.sketch import TDigest

        rng = np.random.RandomState(21)
        vals = np.concatenate([rng.randn(20000) * 3 + 10, rng.exponential(5, 20000)])
        d = TDigest(200)
        for chunk in np.array_split(vals, 40):
            d.add(chunk)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99):
            exact = np.quantile(vals, q)
            approx = d.quantile(q)
            spread = np.quantile(vals, 0.99) - np.quantile(vals, 0.01)
            assert abs(approx - exact) <= 0.02 * spread, (q, exact, approx)

    def test_tdigest_merge_matches_single(self):
        from webcrawl_lowres_lang_ray.stages.sketch import TDigest

        rng = np.random.RandomState(22)
        a, b = rng.randn(5000), rng.randn(5000) + 2
        m = TDigest(200).add(a).merge(TDigest(200).add(b))
        allv = np.concatenate([a, b])
        for q in (0.1, 0.5, 0.9):
            assert abs(m.quantile(q) - np.quantile(allv, q)) < 0.1

    def test_approx_grouped_quantiles_ds(self):
        import ray.data as ray_data

        from webcrawl_lowres_lang_ray.stages.sketch import approx_grouped_quantiles

        rng = np.random.RandomState(23)
        df = pd.DataFrame(
            {
                "g": rng.choice(["a", "b"], 30000),
                "v": rng.uniform(0, 100, 30000),
            }
        )
        chunks = [df.iloc[i : i + 2000].reset_index(drop=True) for i in range(0, len(df), 2000)]
        got = approx_grouped_quantiles(
            ray_data.from_pandas(chunks), "g", "v"
        ).to_pandas().set_index("g")
        for g, sub in df.groupby("g"):
            for q, col in ((0.25, "q25"), (0.5, "q50"), (0.9, "q90")):
                exact = np.quantile(sub["v"], q)
                assert abs(got.loc[g, col] - exact) <= 2.0, (g, col, exact, got.loc[g, col])

    def test_cms_heavy_hitters_vs_exact(self):
        """CMS one-sided guarantee (estimate >= true count) and top-k
        recovery on a Zipf stream split across many batches."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.sketch import (
            CountMinSketch,
            approx_heavy_hitters,
        )

        rng = np.random.RandomState(31)
        # zipf over 2000 keys, 60k rows, spread over 30 blocks
        keys = np.array([f"k{int(i)}" for i in rng.zipf(1.3, size=60000) % 2000])
        df = pd.DataFrame({"user_id": keys})
        ds = ray.data.from_pandas(
            [df.iloc[i : i + 2000].reset_index(drop=True) for i in range(0, len(df), 2000)]
        )
        got = approx_heavy_hitters(ds, "user_id", k=10)
        exact = df["user_id"].value_counts()
        # one-sided: approx >= exact for every reported key
        for key, est in zip(got["user_id"], got["approx_count"]):
            assert est >= exact[key]
        # the true top-10 are recovered (candidate union over 30 batches)
        assert set(exact.head(10).index) <= set(got["user_id"])
        # point-estimate sanity on a standalone sketch
        cms = CountMinSketch().add_keys(np.array(["a", "a", "b"], dtype=object))
        est = cms.estimate(np.array(["a", "b", "zz"], dtype=object))
        assert est[0] >= 2 and est[1] >= 1 and est[2] >= 0

    def test_cms_heavy_hitters_int_keys_keep_dtype(self):
        """int64 key columns (events.user_id) come back as int64, ranked
        numerically — candidates ride the exchange as arrow list<int64>,
        never stringified."""
        import ray.data

        from webcrawl_lowres_lang_ray.stages.sketch import approx_heavy_hitters

        rng = np.random.RandomState(7)
        ids = (rng.zipf(1.4, size=40000).astype(np.int64) % 500) + 1
        df = pd.DataFrame({"user_id": ids})
        ds = ray.data.from_pandas(
            [df.iloc[i : i + 4000].reset_index(drop=True) for i in range(0, len(df), 4000)]
        )
        got = approx_heavy_hitters(ds, "user_id", k=10)
        assert got["user_id"].dtype == np.int64
        exact = df["user_id"].value_counts()
        for key, est in zip(got["user_id"], got["approx_count"]):
            assert est >= exact[key]
        assert set(exact.head(10).index) <= set(got["user_id"])

    def test_hll_error_bound(self):
        from webcrawl_lowres_lang_ray.stages.sketch import HyperLogLog

        rng = np.random.RandomState(24)
        true_n = 50000
        h = pd.util.hash_array(np.arange(true_n)).astype(np.uint64)
        hll = HyperLogLog(12)
        for chunk in np.array_split(h, 20):
            hll.add_hashes(chunk)
        est = hll.estimate()
        assert abs(est - true_n) / true_n < 0.05, est

    def test_approx_distinct_ds_grouped(self):
        import ray.data as ray_data

        from webcrawl_lowres_lang_ray.stages.sketch import approx_distinct

        rng = np.random.RandomState(25)
        df = pd.DataFrame(
            {
                "g": rng.choice(["x", "y"], 40000),
                "k": rng.randint(0, 3000, 40000),
            }
        )
        chunks = [df.iloc[i : i + 4000].reset_index(drop=True) for i in range(0, len(df), 4000)]
        got = approx_distinct(ray_data.from_pandas(chunks), "k", "g").set_index("g")
        for g, sub in df.groupby("g"):
            true = sub["k"].nunique()
            est = got.loc[g, "approx_distinct"]
            assert abs(est - true) / true < 0.06, (g, true, est)


class TestSessionizeTopk:
    def test_sessionize_gap_semantics(self):
        import ray.data as ray_data

        from webcrawl_lowres_lang_ray.stages.windows import sessionize

        ts = pd.to_datetime(
            [
                "2024-01-01 00:00", "2024-01-01 00:10", "2024-01-01 01:00",  # u1: s1 s1 s2
                "2024-01-01 00:05", "2024-01-01 00:40", "2024-01-01 00:50",  # u2: s1 s2 s2
            ]
        )
        df = pd.DataFrame(
            {
                "event_id": np.arange(6, dtype=np.int64),
                "user_id": np.array([1, 1, 1, 2, 2, 2], dtype=np.int64),
                "ts": ts,
            }
        )
        got = (
            sessionize(ray_data.from_pandas(df), "user_id", gap_minutes=30)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        assert list(got["session_num"]) == [1, 1, 2, 1, 2, 2]

    def test_grouped_topk_matches_pandas(self):
        import ray.data as ray_data

        from webcrawl_lowres_lang_ray.stages.windows import grouped_topk

        rng = np.random.RandomState(31)
        df = pd.DataFrame(
            {
                "g": rng.choice(["a", "b", "c"], 5000),
                "event_id": np.arange(5000, dtype=np.int64),
                "v": rng.uniform(0, 1, 5000).round(6),
            }
        )
        chunks = [df.iloc[i : i + 500].reset_index(drop=True) for i in range(0, 5000, 500)]
        got = (
            grouped_topk(ray_data.from_pandas(chunks), "g", "v", "event_id", k=4)
            .to_pandas()
            .sort_values(["g", "v", "event_id"], ascending=[True, False, True])
            .reset_index(drop=True)
        )
        want = (
            df.sort_values(["g", "v", "event_id"], ascending=[True, False, True])
            .groupby("g")
            .head(4)
            .reset_index(drop=True)
        )
        assert list(got["event_id"]) == list(want["event_id"])


class TestRepetitionFilter:
    def test_matches_bruteforce(self):
        from collections import Counter

        from webcrawl_lowres_lang_ray.stages.textstats import (
            repetition_batch,
            round_half_away,
        )

        rng = np.random.RandomState(11)
        texts = []
        vocab = ["alpha", "beta", "gamma", "delta", "eps"]
        for _ in range(40):
            n = rng.randint(0, 30)
            texts.append(" ".join(rng.choice(vocab, n)))
        texts += ["", "x x x x x", "a b a b a b"]
        b = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
        out = repetition_batch(b)
        for i, t in enumerate(texts):
            ws = t.split()
            c = Counter(ws)
            bgs = Counter(zip(ws, ws[1:]))
            total = len(ws)
            assert out["total_words"].iloc[i] == total
            exp_dr = round_half_away(len(c) / total, 4) if total else 0.0
            exp_tw = round_half_away(max(c.values()) / total, 4) if total else 0.0
            exp_bg = (
                round_half_away(max(bgs.values()) / (total - 1), 4)
                if total > 1 and bgs
                else 0.0
            )
            assert out["distinct_word_ratio"].iloc[i] == exp_dr
            assert out["top_word_frac"].iloc[i] == exp_tw
            assert out["top_bigram_frac"].iloc[i] == exp_bg


class TestSubstringDedup:
    def test_matches_bruteforce(self, ray_session):
        import ray

        from webcrawl_lowres_lang_ray.stages.dedup import substring_dedup_pairs

        rng = np.random.RandomState(5)
        base = "the quick brown fox jumps over the lazy dog again and again"
        texts = []
        for i in range(30):
            if i % 5 == 0:
                texts.append(base + f" tail{i % 3}")  # shared long prefix
            else:
                texts.append(
                    " ".join(
                        rng.choice(list("abcdefgh"), rng.randint(30, 80))
                    )
                )
        df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
        W, S = 20, 5
        ds = ray.data.from_pandas([df.iloc[:15], df.iloc[15:]])
        got = (
            substring_dedup_pairs(ds, window=W, stride=S)
            .to_pandas()
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        # brute force
        wins = {
            int(r.doc_id): {
                r.text[o : o + W]
                for o in range(0, len(r.text) - W + 1, S)
            }
            for r in df.itertuples()
            if len(r.text) >= W
        }
        exp = []
        ids = sorted(wins)
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                shared = wins[ids[ai]] & wins[ids[bi]]
                if shared:
                    exp.append((ids[ai], ids[bi], len(shared)))
        exp_df = pd.DataFrame(
            exp, columns=["id_a", "id_b", "shared_windows"]
        ).sort_values(["id_a", "id_b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp_df.astype(got.dtypes.to_dict()))
        assert len(exp_df) > 0  # the fixture must actually exercise pairs


# ---------------------------------------------------------------------------
# guardrails: the broadcast verification oracles fail loudly above their caps
# ---------------------------------------------------------------------------


class TestOracleGuardrails:
    def _docs(self, n):
        import ray.data

        return ray.data.from_pandas(
            pd.DataFrame(
                {"doc_id": np.arange(n, dtype=np.int64),
                 "text": [f"alpha beta gamma doc {i} delta" for i in range(n)]}
            )
        )

    def _vecs(self, n):
        import ray.data

        rng = np.random.RandomState(3)
        return ray.data.from_pandas(
            pd.DataFrame(
                {"vec_id": np.arange(n, dtype=np.int64),
                 "embedding": [rng.randn(8).tolist() for _ in range(n)]}
            )
        )

    def test_cosine_oracle_raises_above_cap(self, monkeypatch):
        from webcrawl_lowres_lang_ray.stages import ann

        monkeypatch.setattr(ann, "COSINE_ORACLE_MAX_ROWS", 4)
        with pytest.raises(ValueError, match="srp_neardup_pairs"):
            ann.cosine_neardup_pairs(self._vecs(5))

    def test_ngram_oracle_raises_above_cap(self, monkeypatch):
        from webcrawl_lowres_lang_ray.stages import dedup

        monkeypatch.setattr(dedup, "NGRAM_ORACLE_MAX_ROWS", 4)
        with pytest.raises(ValueError, match="ngram_jaccard_lsh"):
            dedup.ngram_jaccard_allpairs(self._docs(5))

    def test_minhash_broadcast_raises_above_cap(self, monkeypatch):
        from webcrawl_lowres_lang_ray.stages import dedup

        monkeypatch.setattr(dedup, "MINHASH_BROADCAST_MAX_ROWS", 4)
        with pytest.raises(ValueError, match="minhash_lsh_pairs"):
            dedup.minhash_lsh_pairs_broadcast(self._docs(5))

    def test_under_cap_still_works(self):
        from webcrawl_lowres_lang_ray.stages import ann

        out = ann.cosine_neardup_pairs(self._vecs(6), threshold=-1.1).to_pandas()
        assert len(out) == 15  # all C(6,2) pairs at an always-true threshold


# ---------------------------------------------------------------------------
# multi-phase lexicon-growth experiment
# ---------------------------------------------------------------------------


class TestLexiconGrowth:
    def _texts(self, small_corpus, n_files=4):
        import glob

        import pyarrow.parquet as pq

        texts = []
        for f in sorted(glob.glob(small_corpus + "/pages/bucket=*.parquet"))[:n_files]:
            texts.extend(pq.read_table(f, columns=["text"])["text"].to_pylist())
        return texts

    def _serial_curve(self, texts, seed_lex, cfg, phases):
        """Single-process oracle: the same harvest->count->merge loop run
        with plain Python over the rows — no Ray, no partitioning."""
        import collections

        from webcrawl_lowres_lang_ray.functions.scoring import LangScoringModel
        from webcrawl_lowres_lang_ray.functions.tokenize import tokenize_batch
        from webcrawl_lowres_lang_ray.stages.lexicon import merge_lexicons

        lex = dict(seed_lex)
        rows = []
        for phase in range(1, phases + 1):
            model = LangScoringModel(lex, cfg)
            paras = []
            for t in texts:
                paras.extend(model.score_text(t).termdist_match_paras)
            counter = collections.Counter()
            for toks in tokenize_batch(np.array(paras, dtype=object)):
                counter.update(toks)
            before = set(lex)
            lex = merge_lexicons(lex, dict(counter))
            rows.append((phase, len(paras), len(lex),
                         len(set(lex) - before), int(sum(lex.values()))))
        return rows, lex

    def test_matches_serial_oracle_and_grows(self, small_corpus):
        import ray.data

        from webcrawl_lowres_lang_ray.config import CrawlConfig
        from webcrawl_lowres_lang_ray.sources.synth import load_lexicon
        from webcrawl_lowres_lang_ray.stages.lexicon import lexicon_growth_experiment

        texts = self._texts(small_corpus)
        cfg = CrawlConfig()
        seed = load_lexicon(small_corpus)
        ds = ray.data.from_pandas(pd.DataFrame({"text": texts}))
        curve, final_lex = lexicon_growth_experiment(ds, seed, cfg, phases=3)
        want_rows, want_lex = self._serial_curve(texts, seed, cfg, phases=3)
        got_rows = [tuple(int(v) for v in r) for r in curve.to_numpy()]
        assert got_rows == want_rows
        assert final_lex == want_lex
        # growth-curve shape: term count never shrinks under merge mode,
        # and the experiment must actually harvest something
        assert curve["n_terms"].is_monotonic_increasing
        assert int(curve["n_matched_paras"].iloc[0]) > 0

    def test_deterministic(self, small_corpus):
        import ray.data

        from webcrawl_lowres_lang_ray.config import CrawlConfig
        from webcrawl_lowres_lang_ray.sources.synth import load_lexicon
        from webcrawl_lowres_lang_ray.stages.lexicon import lexicon_growth_experiment

        texts = self._texts(small_corpus, n_files=2)
        ds = ray.data.from_pandas(pd.DataFrame({"text": texts}))
        a, la = lexicon_growth_experiment(ds, load_lexicon(small_corpus), CrawlConfig(), phases=2)
        b, lb = lexicon_growth_experiment(ds, load_lexicon(small_corpus), CrawlConfig(), phases=2)
        pd.testing.assert_frame_equal(a, b)
        assert la == lb


class TestNBClassifier:
    def _frame(self):
        rows = []
        vocab = {
            "aa": ["red green blue shiny color paint"] * 1,
            "bb": ["loud quiet sound music note chord"] * 1,
            "cc": ["fast slow speed race track lap"] * 1,
        }
        i = 0
        rng = np.random.RandomState(7)
        for lang, seeds in vocab.items():
            words = seeds[0].split()
            for _ in range(8):
                n = rng.randint(3, 12)
                text = " ".join(words[rng.randint(0, len(words))] for _ in range(n))
                rows.append((i, text, lang))
                i += 1
        rows.append((i, "", "aa"))  # empty doc -> priors-only score
        return pd.DataFrame(rows, columns=["doc_id", "text", "lang"])

    def _serial(self, df, classes):
        """Plain-python NB oracle: same hashing, math.log, micro-units."""
        import math

        from webcrawl_lowres_lang_ray.stages.classify import (
            NB_BUCKETS,
            _unigram_buckets,
        )

        C = len(classes)
        cnt = {c: np.zeros(NB_BUCKETS, dtype=np.int64) for c in classes}
        nd = {c: 0 for c in classes}
        for _, r in df.iterrows():
            nd[r["lang"]] += 1
            for b in _unigram_buckets(r["text"]):
                cnt[r["lang"]][b] += 1
        ndt = float(sum(nd.values()))

        def q(x):
            v = 1e6 * x
            return int(math.floor(abs(v) + 0.5) * (1 if v >= 0 else -1))

        pq = {c: q(math.log(nd[c] / ndt)) for c in classes}
        out = []
        for _, r in df.iterrows():
            scores = {}
            for c in classes:
                den = float(cnt[c].sum()) + NB_BUCKETS
                s = pq[c]
                for b in _unigram_buckets(r["text"]):
                    s += q(math.log((cnt[c][b] + 1.0) / den))
                scores[c] = s
            best = max(classes, key=lambda c: (scores[c], [-ord(x) for x in c]))
            vals = sorted(scores.values(), reverse=True)
            out.append((r["doc_id"], best, round(
                (vals[0] - vals[1]) / 1e6, 4), int(best == r["lang"])))
        return out

    def test_matches_serial_oracle(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.classify import nb_classify, nb_train

        df = self._frame()
        classes = sorted(df["lang"].unique())
        ds = ray.data.from_pandas(df)
        pq_, wq = nb_train(ds, classes)
        got = nb_classify(ds, classes, pq_, wq).to_pandas()
        got = got.sort_values("doc_id").reset_index(drop=True)
        want = self._serial(df, classes)
        for (gid, gpred, gmargin, gok), (_, row) in zip(want, got.iterrows()):
            assert row["doc_id"] == gid
            assert row["pred_lang"] == gpred
            assert abs(row["margin"] - gmargin) < 1e-9
            assert row["is_correct"] == gok
        # the classifier must actually separate the three vocabularies
        trained = got[got["doc_id"] < 24]
        assert trained["is_correct"].mean() == 1.0

    def test_batch_order_invariant(self):
        import ray.data

        from webcrawl_lowres_lang_ray.stages.classify import nb_classify, nb_train

        df = self._frame()
        classes = sorted(df["lang"].unique())
        a_pq, a_w = nb_train(ray.data.from_pandas(df), classes)
        shuf = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
        b_pq, b_w = nb_train(
            ray.data.from_pandas(shuf).repartition(5), classes
        )
        assert np.array_equal(a_pq, b_pq) and np.array_equal(a_w, b_w)


class TestC4Filter:
    def test_flags(self):
        from webcrawl_lowres_lang_ray.stages.classify import c4_flags_batch

        long_ok = " ".join(["word"] * 60)
        b = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3, 4, 5],
                "text": [
                    long_ok,                         # keep
                    "short text",                    # too few words
                    long_ok + " {",                  # brace marker
                    long_ok + " Lorem Ipsum dolor",  # lorem marker (cased)
                    " ".join(["a"] * 60),            # mean word len < 3
                    None,                            # null text
                ],
            }
        )
        out = c4_flags_batch(b)
        assert out["keep_doc"].tolist() == [1, 0, 0, 0, 0, 0]
        assert out["has_marker"].tolist() == [0, 0, 1, 1, 0, 0]
        assert out["n_words"].tolist() == [60, 2, 61, 63, 60, 0]
        assert out["mean_word_len"].iloc[0] == 4.0


class TestAutoJoin:
    def _data(self, skewed=False):
        import ray.data

        n = 2000
        keys = (
            np.where(np.arange(n) % 2 == 0, 7, np.arange(n) % 50)
            if skewed
            else np.arange(n) % 50
        )
        left = pd.DataFrame({"k": keys.astype(np.int64), "lv": np.arange(n, dtype=np.int64)})
        right = pd.DataFrame({"k": np.arange(50, dtype=np.int64), "rv": np.arange(50, dtype=np.int64) * 10})
        return ray.data.from_pandas(left), ray.data.from_pandas(right), left, right

    def _sorted(self, df):
        return (
            df.sort_values(list(df.columns))
            .reset_index(drop=True)
            .astype({c: "int64" for c in df.columns})
        )

    def test_broadcast_path_equals_pandas(self):
        from webcrawl_lowres_lang_ray.stages.join import auto_join

        l, r, ldf, rdf = self._data()
        out, strat = auto_join(l, r, "k", explain=True)
        assert strat == "broadcast"
        expect = ldf.merge(rdf, on="k")
        pd.testing.assert_frame_equal(
            self._sorted(out.to_pandas()), self._sorted(expect)
        )

    def test_hash_path_forced_and_equal(self):
        from webcrawl_lowres_lang_ray.stages.join import auto_join

        l, r, ldf, rdf = self._data()
        out, strat = auto_join(l, r, "k", broadcast_max_rows=0, explain=True)
        assert strat == "hash"
        expect = ldf.merge(rdf, on="k")
        pd.testing.assert_frame_equal(
            self._sorted(out.to_pandas()), self._sorted(expect)
        )

    def test_salted_path_detected_and_equal(self):
        from webcrawl_lowres_lang_ray.stages.join import auto_join

        l, r, ldf, rdf = self._data(skewed=True)
        out, strat = auto_join(l, r, "k", broadcast_max_rows=0, explain=True)
        assert strat == "salted"  # key 7 carries ~half the sampled rows
        expect = ldf.merge(rdf, on="k")
        pd.testing.assert_frame_equal(
            self._sorted(out.to_pandas()), self._sorted(expect)
        )

    def test_outer_never_broadcasts(self):
        from webcrawl_lowres_lang_ray.stages.join import auto_join

        l, r, _, _ = self._data()
        _, strat = auto_join(l, r, "k", how="outer", explain=True)
        assert strat == "hash"


class TestEventFunnel:
    def _ds(self, rows):
        import ray.data

        df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
        df["ts"] = pd.to_datetime(df["ts"])
        return ray.data.from_pandas(df)

    def test_ordered_chaining(self):
        from webcrawl_lowres_lang_ray.stages.windows import event_funnel

        rows = [
            # user 1: full funnel in order
            (1, "2024-01-01 10:00", "view"),
            (1, "2024-01-01 10:05", "click"),
            (1, "2024-01-01 10:10", "purchase"),
            # user 2: purchase BEFORE the view -> only view+click count
            (2, "2024-01-01 09:00", "purchase"),
            (2, "2024-01-01 10:00", "view"),
            (2, "2024-01-01 10:05", "click"),
            # user 3: click before view -> stops at 1 (view only)
            (3, "2024-01-01 09:00", "click"),
            (3, "2024-01-01 10:00", "view"),
            # user 4: no view at all -> 0
            (4, "2024-01-01 10:00", "click"),
            (4, "2024-01-01 11:00", "purchase"),
        ]
        out = (
            event_funnel(self._ds(rows), ["view", "click", "purchase"])
            .to_pandas()
            .set_index("user_id")["steps_completed"]
            .sort_index()
        )
        assert out.to_dict() == {1: 3, 2: 2, 3: 1, 4: 0}

    def test_strictly_later_ties_do_not_count(self):
        from webcrawl_lowres_lang_ray.stages.windows import event_funnel

        rows = [
            (1, "2024-01-01 10:00:00", "view"),
            (1, "2024-01-01 10:00:00", "click"),  # same instant -> NOT later
            (2, "2024-01-01 10:00:00", "view"),
            (2, "2024-01-01 10:00:01", "click"),
        ]
        out = (
            event_funnel(self._ds(rows), ["view", "click"])
            .to_pandas()
            .set_index("user_id")["steps_completed"]
        )
        assert out.to_dict() == {1: 1, 2: 2}

    def test_earliest_valid_occurrence_is_chosen(self):
        from webcrawl_lowres_lang_ray.stages.windows import event_funnel

        # two views; the EARLIER one admits the click between them
        rows = [
            (1, "2024-01-01 09:00", "view"),
            (1, "2024-01-01 09:30", "click"),
            (1, "2024-01-01 10:00", "view"),
        ]
        out = event_funnel(self._ds(rows), ["view", "click"]).to_pandas()
        assert out["steps_completed"].tolist() == [2]


class TestUserRetention:
    def test_multi_cohort_matrix(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        import __ray_entry__ as e

        # cohort A (user 1,2) first active week 0; cohort B (user 3) week 1
        wk = 7 * 86400 * 1_000_000  # us
        rows = [
            (1, 0), (1, 0), (1, wk),             # u1: weeks 0,1
            (2, 0), (2, 2 * wk),                 # u2: weeks 0,2
            (3, wk), (3, wk), (3, 2 * wk),       # u3: weeks 1,2
        ]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = (
            e.queries()["user_retention"](str(tmp_path))
            .set_index(["cohort_week", "week_offset"])["n_users"]
        )
        assert out.to_dict() == {
            (0, 0): 2,  # u1, u2
            (0, 1): 1,  # u1
            (0, 2): 1,  # u2
            (1, 0): 1,  # u3 cohort week 1
            (1, 1): 1,  # u3 active week 2 = offset 1
        }


class TestTableExpectations:
    def _write(self, d, name, table):
        import pyarrow.parquet as pq

        pq.write_table(table, str(d / f"{name}.parquet"))

    def test_planted_violations_detected(self, tmp_path):
        import pyarrow as pa

        import __ray_entry__ as e

        self._write(tmp_path, "customer", pa.table({"c_custkey": pa.array([1, 2, 3], pa.int64())}))
        self._write(
            tmp_path,
            "orders",
            pa.table(
                {
                    # custkey 99 is an orphan; orderkey 7 is a dup PK
                    "o_orderkey": pa.array([7, 7, 8, 9], pa.int64()),
                    "o_custkey": pa.array([1, 2, 99, 3], pa.int64()),
                }
            ),
        )
        self._write(
            tmp_path,
            "lineitem",
            pa.table({"l_orderkey": pa.array([7, 8, 555], pa.int64())}),  # 555 orphan
        )
        self._write(
            tmp_path,
            "events",
            pa.table(
                {
                    "value": pa.array([1.0, -2.0, 3.0, -0.5], pa.float64()),
                    "props": pa.array(["{}", None, "", "{\"k\":1}"], pa.string()),
                }
            ),
        )
        out = (
            e.queries()["table_expectations"](str(tmp_path))
            .set_index("check_name")["violations"]
        )
        assert out.to_dict() == {
            "fk_orders_customer": 1,
            "fk_lineitem_orders": 1,
            "pk_unique_orders": 1,
            "nonneg_events_value": 2,
            "null_events_props": 2,
        }

    def test_clean_tables_pass(self):
        import __ray_entry__ as e

        out = e.queries()["table_expectations"]("/root/testdata/sf0.001")
        # the synthetic warehouse is referentially intact
        fk = out.set_index("check_name")
        assert fk.loc["fk_orders_customer", "violations"] == 0
        assert fk.loc["pk_unique_orders", "violations"] == 0
        assert bool(fk.loc["fk_orders_customer", "passed"])
