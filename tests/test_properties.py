"""Property-based tests (hypothesis) for the engine's core invariants."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webcrawl_lowres_lang_ray.sources.synth import make_lexicon

digests = st.binary(min_size=20, max_size=20)
url_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-._~/?=&"),
    min_size=1, max_size=40,
)


class TestCuckooProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(digests, min_size=1, max_size=300, unique=True))
    def test_no_false_negatives(self, keys):
        from webcrawl_lowres_lang_ray.state.seen import CuckooFilter

        f = CuckooFilter(capacity=1 << 10)
        for k in keys:
            f.add(k)
        assert all(f.might_contain(k) for k in keys)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(digests, min_size=1, max_size=200, unique=True))
    def test_bounded_false_positives(self, members):
        # The FP bound is a *rate*, so probe a large fresh set (>=1000) rather
        # than whatever handful hypothesis drew: with 16-bit fingerprints and
        # 2x4 slots the sparse-table fp probability is ~8/2^16 ~ 1.2e-4, so
        # 0.02 over 1000 probes leaves two orders of magnitude of margin while
        # still catching any decomposition that ignores part of the digest
        # (hypothesis supplies adversarial members; probes share prefixes).
        from webcrawl_lowres_lang_ray.state.seen import CuckooFilter

        f = CuckooFilter(capacity=1 << 12)
        mset = set(members)
        for k in members:
            f.add(k)
        fresh = []
        base = members[0]
        i = 0
        while len(fresh) < 1000:
            # adversarial probes: share the first 14 bytes with a member,
            # differ only in the tail — plus plain hashed probes
            p1 = base[:14] + hashlib.sha1(b"tail%d" % i).digest()[:6]
            p2 = hashlib.sha1(b"probe%d" % i).digest()
            for p in (p1, p2):
                if p not in mset:
                    fresh.append(p)
            i += 1
        fp = sum(f.might_contain(p) for p in fresh)
        assert fp / len(fresh) <= 0.02


class TestSeenShardLogic:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(digests, min_size=1, max_size=60, unique=True),
        st.lists(st.lists(st.integers(0, 59), max_size=30), min_size=1, max_size=8),
        st.sets(st.integers(0, 7)),
    )
    def test_contains_and_add_matches_set(self, pool, batches, snap_before):
        """The real ``SeenShard`` (a plain class; the actor only routes to
        it) under the crawl's protocol — read-only probe, then add of the
        keys it reported new — against a set oracle.  Delta snapshots in
        mid-stream page keys out, so later probes go through the on-disk
        runs; the tiny capacity forces cuckoo regrowth."""
        import os
        import tempfile

        from webcrawl_lowres_lang_ray.state.seen import SeenShard

        shard = SeenShard(0, capacity=16)
        seen: set[bytes] = set()
        with tempfile.TemporaryDirectory() as d:
            for i, idxs in enumerate(batches):
                if i in snap_before:
                    shard.snapshot_delta_to(os.path.join(d, f"delta-{i}.bin"))
                    assert shard.ram_key_count() == 0
                # the crawl dedups within a wave before it probes
                raw = [pool[j % len(pool)] for j in idxs]
                batch = list(dict.fromkeys(raw))
                new = shard.probe_new(b"".join(batch))
                assert list(new) == [k not in seen for k in batch]
                fresh = [k for k, n in zip(batch, new) if n]
                if i % 2:
                    assert shard.add_blob(b"".join(fresh)) == len(fresh)
                else:  # the same keys with their repeats: each counts once
                    assert shard.add_blob(b"".join(k for k in raw if k not in seen)) == len(fresh)
                assert shard.add_blob(b"".join(raw)) == 0  # idempotent
                seen.update(batch)
                assert shard.size() == len(seen)
                assert shard.cuckoo.count == len(seen)

    def test_repeat_in_one_blob_counts_once(self):
        from webcrawl_lowres_lang_ray.state.seen import SeenShard

        k = hashlib.sha1(b"k").digest()
        shard = SeenShard(0)
        assert shard.add_blob(k + k) == 1
        assert shard.size() == 1 and shard.cuckoo.count == 1


def _text_to_clean_paras_regex(text: str) -> list[str]:
    """The reference's regex chain (nlp.py:72-87), kept as the spec the
    regex-free ``textnorm.text_to_clean_paras`` must equal."""
    import re

    simplified = re.sub(r"(\s*\n){2,}", "\n", text)
    return [
        re.sub(r"(^\s+)|(\s+$)", "", p)
        for p in simplified.splitlines()
        if not re.match(r"^\s*$", p)
    ]


class TestTextNormProperties:
    @settings(max_examples=2000, deadline=None)
    @given(st.lists(st.sampled_from([
        "a", "b", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c",
        "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
        "\u2028", "\u2029", "\u3000", "\u200b",
    ]), max_size=40).map("".join))
    def test_paragraph_split_equals_reference_regexes(self, text):
        from webcrawl_lowres_lang_ray.functions.textnorm import text_to_clean_paras

        assert text_to_clean_paras(text) == _text_to_clean_paras_regex(text)

    @settings(max_examples=2000, deadline=None)
    @given(st.lists(st.sampled_from([
        "a", "b", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c",
        "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
        "\u2028", "\u2029", "\u3000", "\u200b",
    ]), max_size=40).map("".join))
    def test_clean_text_equals_reference_regex(self, text):
        import re

        from webcrawl_lowres_lang_ray.functions.textnorm import clean_text

        assert clean_text(text) == re.sub(r"\n{3,}", "\n\n", text)


_LEX = make_lexicon(random.Random(1), 100)
_LEX_WORDS = sorted(_LEX, key=lambda w: (-_LEX[w], w))[:30]  # most frequent
# words the per-word decomposition must get right: case folding that changes
# length or depends on context (İ, final Σ), punctuation and digits inside a
# word (its sub-tokens), sub-3-char pieces, non-ASCII letters
_ODD_WORDS = [
    "don't", "x1y", "a.b.c", "İstanbul", "ΟΔΟΣ", "ΣΑΣ", "όσος", "naïve",
    "e-mail", "1999", "__init__", "ﬁne", "...", "(", "Ω",
] + [w.upper() for w in _LEX_WORDS[:5]] + [
    f"({w})," for w in _LEX_WORDS[5:10]
] + [f"{w}'s" for w in _LEX_WORDS[10:13]] + [f"{a}-{b}" for a, b in zip(_LEX_WORDS[13:16], _LEX_WORDS[16:19])]
_IN_LINE = [" ", "  ", "\t", "\xa0", "\u3000", " \t "]
_LINE_BREAKS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "\n\n", "\n\n\n", "\n\n\n\n", " \n", "\n \n\n\n",
]
# lines of 0-14 words straddle every minimum paragraph length used below
_line = st.tuples(
    st.lists(st.sampled_from(_LEX_WORDS + _ODD_WORDS), max_size=14),
    st.sampled_from(_IN_LINE), st.sampled_from(["", " ", "\t"]),
).map(lambda t: t[2] + t[1].join(t[0]) + t[2])
_scoring_text = st.one_of(
    st.none(),
    st.just(""),
    st.lists(st.sampled_from(_IN_LINE + _LINE_BREAKS), max_size=6).map("".join),
    st.lists(st.tuples(_line, st.sampled_from(_LINE_BREAKS)), max_size=10).map(
        lambda ls: "".join(line + brk for line, brk in ls)
    ),
)
_SCORING_CFGS = {
    "default": {},
    "unsupported": {"lang_supported": False},
    "unsupported_short_paras": {
        "lang_supported": False, "min_termdist_para_word_len": 5,
        "min_termdist_para_confidence": 0.3,
    },
    "short_paras_low_thresholds": {
        "min_para_word_len": 3, "min_para_confidence": 0.2,
        "min_full_confidence": 0.3, "min_termdist_para_confidence": 0.2,
    },
    "every_line": {"min_para_word_len": 0},
    "negative_minimum": {"min_para_word_len": -1},
}
_SCORERS: dict = {}


def _scorers(name: str):
    """(reference model, [cold, warm, 4-entry-memo] engine models) for one
    config; the warm and capped models persist across examples."""
    from webcrawl_lowres_lang_ray.config import CrawlConfig
    from webcrawl_lowres_lang_ray.functions.scoring import LangScoringModel

    cfg = CrawlConfig(**_SCORING_CFGS[name])
    if name not in _SCORERS:
        capped = LangScoringModel(_LEX, cfg)
        capped.memo.cap = 4
        _SCORERS[name] = (LangScoringModel(_LEX, cfg), LangScoringModel(_LEX, cfg), capped)
    ref, warm, capped = _SCORERS[name]
    return ref, [LangScoringModel(_LEX, cfg), warm, capped]


def assert_scorer_equals_reference(ref, models, text) -> None:
    """The engine's ``score_text`` equals the reference's, and so do the
    unrounded confidences behind it, for every model."""
    from webcrawl_lowres_lang_ray.functions.textnorm import clean_text

    want = ref.score_text_reference(text)
    cleaned = None if text is None else clean_text(text)
    want_conf = None if cleaned is None else ref.confidences_reference(cleaned)
    for m in models:
        assert m.score_text(text) == want
        if cleaned is not None:
            full, paras, primary, td = m.confidences(cleaned)
            assert (full, paras, list(primary), list(td)) == want_conf


class TestScorerEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(_SCORING_CFGS)), _scoring_text)
    def test_adversarial_text(self, cfg_name, text):
        ref, models = _scorers(cfg_name)
        assert_scorer_equals_reference(ref, models, text)

    @pytest.mark.parametrize("lang_supported", [True, False])
    def test_every_small_corpus_page(self, small_corpus, lang_supported):
        import glob
        import os

        import pyarrow.parquet as pq

        from webcrawl_lowres_lang_ray.config import CrawlConfig
        from webcrawl_lowres_lang_ray.functions.scoring import LangScoringModel
        from webcrawl_lowres_lang_ray.sources.synth import load_lexicon

        lex = load_lexicon(small_corpus)
        cfg = CrawlConfig(lang_supported=lang_supported)
        ref, warm, capped = (LangScoringModel(lex, cfg) for _ in range(3))
        capped.memo.cap = 4
        texts = [
            t
            for f in sorted(glob.glob(os.path.join(small_corpus, "pages", "*.parquet")))
            for t in pq.read_table(f, columns=["text"])["text"].to_pylist()
        ]
        assert len(texts) == 500
        matched = 0
        for t in texts:
            assert_scorer_equals_reference(ref, [LangScoringModel(lex, cfg), warm, capped], t)
            matched += ref.score_text_reference(t).para_count_lrl > 0
        assert matched > 100


class TestUrlProperties:
    @settings(max_examples=100, deadline=None)
    @given(url_text)
    def test_canonicalize_idempotent(self, tail):
        from webcrawl_lowres_lang_ray.functions.urltools import canonicalize

        url = f"https://Example.ORG:443/{tail}"
        c1 = canonicalize(url)
        assert canonicalize(c1) == c1

    @settings(max_examples=100, deadline=None)
    @given(st.text(min_size=0, max_size=60))
    def test_filter_words_invariants(self, text):
        from webcrawl_lowres_lang_ray.functions.tokenize import (
            filter_words, unigram_words,
        )

        for w in filter_words(unigram_words(text)):
            assert len(w) >= 3
            assert w == w.lower()
            assert not any(ch.isdigit() for ch in w)


class TestShingleProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6), min_size=0, max_size=40))
    def test_shingle_count(self, words):
        from webcrawl_lowres_lang_ray.stages.dedup import _shingle_hashes

        text = " ".join(words)
        n = len(text.split())
        got = len(_shingle_hashes(text, k=3))
        assert got == (0 if n == 0 else max(1, n - 2))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6), min_size=4, max_size=30))
    def test_identical_texts_identical_signatures(self, words):
        from webcrawl_lowres_lang_ray.stages.dedup import _perm_params, minhash_signature

        a, b = _perm_params(32)
        text = " ".join(words)
        s1, s2 = minhash_signature(text, a, b), minhash_signature(text, a, b)
        np.testing.assert_array_equal(s1, s2)


class TestDigestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=500))
    def test_tdigest_quantiles_within_range(self, vals):
        from webcrawl_lowres_lang_ray.stages.sketch import TDigest

        arr = np.asarray(vals, dtype=np.float64)
        d = TDigest(100).add(arr)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            est = d.quantile(q)
            assert arr.min() - 1e-9 <= est <= arr.max() + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=20000))
    def test_hll_monotone_reasonable(self, n):
        from webcrawl_lowres_lang_ray.stages.sketch import HyperLogLog

        import pandas as pd

        h = pd.util.hash_array(np.arange(n)).astype(np.uint64)
        hll = HyperLogLog(11).add_hashes(h)
        est = hll.estimate()
        assert 0.75 * n <= est <= 1.25 * n


class TestCmsProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(alphabet="abcde", min_size=1, max_size=4),
                    min_size=1, max_size=400))
    def test_estimate_never_underestimates(self, keys):
        from webcrawl_lowres_lang_ray.stages.sketch import CountMinSketch

        import collections

        arr = np.array(keys, dtype=object)
        cms = CountMinSketch(width=64, depth=3).add_keys(arr)
        true = collections.Counter(keys)
        uniq = np.array(sorted(true), dtype=object)
        est = cms.estimate(uniq)
        for k, e in zip(uniq, est):
            assert e >= true[k]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40),
                    min_size=1, max_size=400))
    def test_int_keys_never_underestimate(self, keys):
        # int64 keys hash through pd.util.hash_array's int fast path — the
        # dtype the events.user_id column actually has
        from webcrawl_lowres_lang_ray.stages.sketch import CountMinSketch

        import collections

        arr = np.array(keys, dtype=np.int64)
        cms = CountMinSketch(width=64, depth=3).add_keys(arr)
        true = collections.Counter(keys)
        uniq = np.array(sorted(true), dtype=np.int64)
        est = cms.estimate(uniq)
        for k, e in zip(uniq, est):
            assert e >= true[k]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                    min_size=2, max_size=200))
    def test_merge_equals_single_sketch(self, keys):
        from webcrawl_lowres_lang_ray.stages.sketch import CountMinSketch

        arr = np.array(keys, dtype=object)
        half = len(arr) // 2
        a = CountMinSketch(width=32, depth=2).add_keys(arr[:half])
        b = CountMinSketch(width=32, depth=2).add_keys(arr[half:])
        whole = CountMinSketch(width=32, depth=2).add_keys(arr)
        np.testing.assert_array_equal(a.merge(b).table, whole.table)


class TestHashingEmbedProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="abcdefgh ", min_size=0, max_size=120))
    def test_unit_norm_or_zero_and_deterministic(self, text):
        from webcrawl_lowres_lang_ray.functions.embed import hashing_embed

        v1, v2 = hashing_embed(text, 64), hashing_embed(text, 64)
        np.testing.assert_array_equal(v1, v2)
        n = np.linalg.norm(v1)
        assert abs(n - 1.0) < 1e-9 or n == 0.0


class TestRangeJoinProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=60),
           st.lists(st.tuples(st.integers(min_value=0, max_value=200),
                              st.integers(min_value=1, max_value=40)),
                    min_size=1, max_size=8))
    def test_matches_bruteforce_interval_check(self, hours, spans):
        import pandas as pd
        import ray.data

        from webcrawl_lowres_lang_ray.stages.windows import range_join_broadcast

        base = pd.Timestamp("2024-05-01")
        ev = pd.DataFrame(
            {"event_id": np.arange(len(hours), dtype=np.int64),
             "ts": [base + pd.Timedelta(hours=h) for h in hours]}
        )
        iv = pd.DataFrame(
            {"interval_id": np.arange(len(spans), dtype=np.int64),
             "start_ts": [base + pd.Timedelta(hours=s) for s, _ in spans],
             "end_ts": [base + pd.Timedelta(hours=s + w) for s, w in spans]}
        )
        pdf = range_join_broadcast(
            ray.data.from_pandas(ev), iv, ts_col="ts", carry_cols=("event_id",)
        ).to_pandas()
        # an all-empty result loses its pandas columns through to_pandas
        got = set(zip(pdf["event_id"], pdf["interval_id"])) if len(pdf) else set()
        want = {
            (e, i)
            for e, h in zip(ev["event_id"], hours)
            for i, (s, w) in enumerate(spans)
            if s <= h < s + w
        }
        assert got == want


class TestNtileFormula:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=20))
    def test_matches_serial_ntile(self, n, k):
        """The closed-form bucket assignment must equal SQL NTILE's serial
        definition (first n%k buckets get one extra row) for every (n, k)."""
        from webcrawl_lowres_lang_ray.stages.textstats import ntile_bucket

        size, rem = divmod(n, k)
        serial = np.empty(n, dtype=np.int64)
        pos = 0
        for b in range(1, k + 1):
            cnt = size + (1 if b <= rem else 0)
            serial[pos : pos + cnt] = b
            pos += cnt
        got = ntile_bucket(np.arange(n), size, rem)
        assert (got == serial).all()
        # buckets are 1..min(n,k), sizes differ by at most one
        assert got.min() == 1 and got.max() == min(n, k)
        sizes = np.bincount(got)[1:]
        assert sizes.max() - sizes.min() <= 1
