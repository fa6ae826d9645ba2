"""Multimodal columns: opaque binary payloads + typed metadata.

Image/audio/video payloads are treated as opaque ``binary`` columns with a
``media_type`` string and a ``meta`` JSON string — the same shape the crawl
uses for ``html:binary``.  The Ray-side plumbing (schemas, small batch
sizes for wide rows, actor-pool stage signatures, output layout) is real
and tested, and the kernels are real format-by-format
(functions/media.py):

* PNG   — full stdlib decode (zlib + unfilter) -> pixel stats, and a real
          nearest-neighbour thumbnail stage that re-encodes PNG;
* WAV   — full stdlib PCM16 decode -> rms / duration / sample rate;
* JPEG/GIF — header parse is real (dimensions/components from the marker
          stream); pixel decode needs a DCT/LZW stack -> import-gated;
* video — no stdlib container parser exists: deterministic fake metadata
          with ``fake=True`` (pipelines stay testable end-to-end), or a
          NotImplementedError marking exactly where ffmpeg would plug in.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pandas as pd

from ..functions.media import (
    parse_image_header,
    png_decode,
    png_encode,
    resize_nearest,
    wav_decode,
    wav_encode,
)

MEDIA_SCHEMA_COLS = ["media_id", "media_type", "payload", "meta"]


def synth_media_batch(n: int, seed: int = 7) -> pd.DataFrame:
    """Deterministic media rows for tests/benchmarks: VALID PNGs and WAVs
    (the real-kernel paths) plus opaque video payloads (the gated path)."""
    rng = np.random.RandomState(seed)
    rows = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            h, w = int(rng.randint(8, 48)), int(rng.randint(8, 48))
            img = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
            rows.append((i, "image/png", png_encode(img), json.dumps({"source": f"synth-{i % 4}"})))
        elif kind == 1:
            dur = int(rng.randint(400, 4000))  # samples at 16 kHz
            t = np.arange(dur)
            freq = 100 + int(rng.randint(0, 900))
            samples = (3000 * np.sin(2 * np.pi * freq * t / 16000)).astype(np.int16)
            rows.append((i, "audio/wav", wav_encode(samples), json.dumps({"source": f"synth-{i % 4}"})))
        else:
            payload = b"\x00\x00\x00\x20ftypisom" + rng.bytes(256 + (i % 5) * 128)
            rows.append((i, "video/mp4", payload, json.dumps({"source": f"synth-{i % 4}"})))
    return pd.DataFrame(rows, columns=MEDIA_SCHEMA_COLS)


def _fake_video_meta(payload: bytes) -> dict:
    """Deterministic stand-in for a container parser: metadata derived from
    a content digest, stable across processes and runs."""
    h = hashlib.blake2b(payload, digest_size=8).digest()
    return {"frames": 10 + h[4] % 290, "fps": 24}


class DecodeStage:
    """Actor-pool decode/feature-extract stage over wide binary rows.

    Run with a small batch_size (wide rows): e.g.
    ``ds.map_batches(DecodeStage, fn_constructor_kwargs={"fake": True},
    batch_format="pandas", batch_size=16, concurrency=4)``.
    """

    def __init__(self, fake: bool = True):
        self.fake = fake  # governs only the formats with no stdlib decoder

    def _decode(self, media_type: str, payload: bytes) -> dict:
        if media_type == "image/png":
            arr = png_decode(payload)
            gray = arr if arr.ndim == 2 else arr[..., :3].mean(axis=2)
            return {
                "width": int(arr.shape[1]), "height": int(arr.shape[0]),
                "channels": 1 if arr.ndim == 2 else int(arr.shape[2]),
                "mean_luma": round(float(gray.mean()), 2),
                "std_luma": round(float(gray.std()), 2),
            }
        if media_type.startswith("image/"):
            hdr = parse_image_header(payload)
            if hdr is not None:
                return hdr  # real header; pixel decode gated below
            raise NotImplementedError(
                f"pixel decode for {media_type} requires PIL (absent here)"
            )
        if media_type == "audio/wav":
            samples, rate = wav_decode(payload)
            return {
                "sample_rate": int(rate),
                "duration_ms": int(1000 * len(samples) / rate) if rate else 0,
                "rms": round(float(np.sqrt(np.mean(samples.astype(np.float64) ** 2))), 2),
            }
        if self.fake:
            return _fake_video_meta(payload)
        raise NotImplementedError(
            f"decoding {media_type} requires ffmpeg, absent in this container"
        )

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        feats = [
            json.dumps(self._decode(mt, p), sort_keys=True)
            for mt, p in zip(batch["media_type"], batch["payload"])
        ]
        out = batch.drop(columns=["payload"]).copy()  # drop wide bytes early
        out["features"] = feats
        out["payload_bytes"] = np.array(
            [len(p) for p in batch["payload"]], dtype=np.int64
        )
        return out


class ThumbnailStage:
    """Real image resize: PNG in -> nearest-neighbour thumbnail -> PNG out.
    Non-PNG rows pass through unresized (thumb == empty, flagged)."""

    def __init__(self, max_side: int = 16):
        self.max_side = max_side

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        thumbs, ws, hs = [], [], []
        for mt, p in zip(batch["media_type"], batch["payload"]):
            if mt != "image/png":
                thumbs.append(b"")
                ws.append(0)
                hs.append(0)
                continue
            arr = png_decode(p)
            h, w = arr.shape[:2]
            scale = self.max_side / max(h, w)
            oh, ow = max(1, round(h * scale)), max(1, round(w * scale))
            thumbs.append(png_encode(resize_nearest(arr, oh, ow)))
            ws.append(ow)
            hs.append(oh)
        return pd.DataFrame(
            {
                "media_id": batch["media_id"].to_numpy(np.int64),
                "thumb": pd.Series(thumbs, dtype=object),
                "thumb_w": np.array(ws, dtype=np.int64),
                "thumb_h": np.array(hs, dtype=np.int64),
            }
        )


class FrameSampleStage:
    """Video frame-sampling plumbing: emits one row per sampled frame index
    (container parse stubbed — see _fake_video_meta / the ffmpeg gate)."""

    def __init__(self, every_n: int = 10, fake: bool = True):
        self.every_n = every_n
        self.fake = fake

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for mid, mt, p in zip(batch["media_id"], batch["media_type"], batch["payload"]):
            if not mt.startswith("video/"):
                continue
            if not self.fake:
                raise NotImplementedError("real frame sampling needs ffmpeg")
            meta = _fake_video_meta(p)
            for f in range(0, meta["frames"], self.every_n):
                rows.append((int(mid), f))
        return pd.DataFrame(rows, columns=["media_id", "frame_idx"]).astype(
            {"media_id": "int64", "frame_idx": "int64"}
        )


class AudioFeatureStage:
    """Actor-pool audio feature extraction over WAV PCM16 payloads — the
    standard framewise features a speech-data curation pipeline computes
    before filtering/clustering (silence ratio, clipping, energy):

    * ``rms`` — root-mean-square amplitude of the full clip (int16 scale);
    * ``zero_cross_rate`` — fraction of adjacent-sample sign changes;
    * ``silence_ratio`` — fraction of 20 ms frames with RMS < 1% full scale;
    * ``clip_ratio`` — fraction of samples at |32767|;
    * ``duration_ms`` — from the header sample rate.

    All math is vectorized numpy over the decoded sample array; non-audio
    rows pass through with null features (same convention as DecodeStage).
    Deterministic; 4 dp half-away rounding.
    """

    def __init__(self, frame_ms: int = 20):
        self.frame_ms = frame_ms

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from .textstats import round_half_away

        rows = []
        for mid, mt, payload in zip(
            batch["media_id"], batch["media_type"], batch["payload"]
        ):
            if mt != "audio/wav":
                continue
            samples, rate = wav_decode(bytes(payload))
            x = samples.astype(np.float64)
            n = len(x)
            if n == 0:
                rows.append((int(mid), 0, 0.0, 0.0, 1.0, 0.0))
                continue
            rms = float(np.sqrt((x * x).mean()))
            zc = float((np.signbit(x[1:]) != np.signbit(x[:-1])).mean()) if n > 1 else 0.0
            clip = float((np.abs(samples) >= 32767).mean())
            frame = max(1, rate * self.frame_ms // 1000)
            nfr = n // frame
            if nfr:
                fr = x[: nfr * frame].reshape(nfr, frame)
                fr_rms = np.sqrt((fr * fr).mean(axis=1))
                silence = float((fr_rms < 0.01 * 32767).mean())
            else:
                silence = 1.0 if rms < 0.01 * 32767 else 0.0
            rows.append(
                (int(mid), int(n * 1000 // rate), rms, zc, silence, clip)
            )
        out = pd.DataFrame(
            rows,
            columns=["media_id", "duration_ms", "rms", "zero_cross_rate",
                     "silence_ratio", "clip_ratio"],
        ).astype({"media_id": "int64", "duration_ms": "int64"})
        for c in ("rms", "zero_cross_rate", "silence_ratio", "clip_ratio"):
            out[c] = round_half_away(out[c].to_numpy(np.float64), 4)
        return out


class ImageStatStage:
    """Actor-pool image statistics over PNG payloads — the
    brightness/contrast/entropy screen an image-curation pipeline applies
    before training (all-black thumbnails, low-information banners):

    * ``mean_lum`` / ``std_lum`` — luminance (ITU-R BT.601 weights) mean
      and spread, 0-255 scale;
    * ``entropy_bits`` — Shannon entropy of the 256-bin luminance
      histogram (0 for flat images, up to 8 for uniform noise);
    * ``w`` / ``h`` — decoded dimensions.

    Vectorized numpy per image over the real stdlib PNG decode; non-image
    rows are skipped (same convention as AudioFeatureStage)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from .textstats import round_half_away

        rows = []
        for mid, mt, payload in zip(
            batch["media_id"], batch["media_type"], batch["payload"]
        ):
            if mt != "image/png":
                continue
            img = png_decode(bytes(payload)).astype(np.float64)
            lum = img[..., 0] * 0.299 + img[..., 1] * 0.587 + img[..., 2] * 0.114
            hist = np.bincount(
                np.clip(lum, 0, 255).astype(np.int64).ravel(), minlength=256
            )
            p = hist[hist > 0] / hist.sum()
            rows.append(
                (
                    int(mid),
                    int(img.shape[1]),
                    int(img.shape[0]),
                    float(lum.mean()),
                    float(lum.std()),
                    float(-(p * np.log2(p)).sum()),
                )
            )
        out = pd.DataFrame(
            rows, columns=["media_id", "w", "h", "mean_lum", "std_lum", "entropy_bits"]
        ).astype({"media_id": "int64", "w": "int64", "h": "int64"})
        for c in ("mean_lum", "std_lum", "entropy_bits"):
            out[c] = round_half_away(out[c].to_numpy(np.float64), 4)
        return out


def dhash64(arr: "np.ndarray") -> int:
    """64-bit difference hash (dHash): grayscale -> block-mean downscale
    to 9x8 -> adjacent-column compare.  Robust to re-encode, resize and
    mild noise; the standard cheap perceptual image fingerprint."""
    a = arr.astype(np.float64)
    if a.ndim == 3:
        a = a.mean(axis=2)
    h, w = a.shape
    # block-mean resize to 8 rows x 9 cols via bin-edge slicing
    ri = np.linspace(0, h, 9).astype(int)
    ci = np.linspace(0, w, 10).astype(int)
    g = np.empty((8, 9))
    for r in range(8):
        for c in range(9):
            block = a[ri[r]:max(ri[r + 1], ri[r] + 1),
                      ci[c]:max(ci[c + 1], ci[c] + 1)]
            g[r, c] = block.mean()
    bits = (g[:, 1:] > g[:, :-1]).ravel()
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


class PHashStage:
    """Actor-pool perceptual-hash stage: PNG payloads -> 64-bit dHash.
    Non-PNG rows carry ok=False (a sentinel hash value would COLLIDE:
    half of all 64-bit hashes are negative as int64)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        hashes, oks = [], []
        for mt, p in zip(batch["media_type"], batch["payload"]):
            if mt != "image/png":
                hashes.append(np.int64(0))
                oks.append(False)
                continue
            hashes.append(np.uint64(dhash64(png_decode(p))).view(np.int64))
            oks.append(True)
        return pd.DataFrame(
            {
                "media_id": batch["media_id"].to_numpy(np.int64),
                "phash": np.array(hashes, dtype=np.int64),
                "ok": np.array(oks, dtype=bool),
            }
        )


def _near_pairs(hashed: "ray.data.Dataset", max_hamming: int) -> pd.DataFrame:
    """(id_a, id_b, hamming) of the ``ok`` rows' 64-bit ``phash`` values
    within ``max_hamming`` (dedup.banded_hamming_pairs), sorted by pair."""
    from .dedup import banded_hamming_pairs

    ok = hashed.map_batches(lambda b: b[b["ok"]], batch_format="pandas")
    out = banded_hamming_pairs(ok, "media_id", "phash", max_hamming).to_pandas()
    cols = ["id_a", "id_b", "hamming"]
    return (
        out.reindex(columns=cols)
        .astype("int64")
        .sort_values(["id_a", "id_b"], kind="mergesort")
        .reset_index(drop=True)
    )


def phash_near_pairs(ds: "ray.data.Dataset", max_hamming: int = 7) -> pd.DataFrame:
    """Image near-duplicate pairs by dHash hamming distance <= k through
    the banded Hamming join (dedup.banded_hamming_pairs).  A 2x nearest
    resize of a structured image lands at hamming 4-6 (block-bin
    truncation), so 7 is the right default for resize-robust near-dup."""
    hashed = ds.map_batches(
        PHashStage, batch_format="pandas", batch_size=16, concurrency=2
    )
    return _near_pairs(hashed, max_hamming)


def audio_fp64(samples: "np.ndarray") -> int:
    """64-bit audio envelope fingerprint: gain-normalize, split into 32
    equal frames, per-frame RMS and zero-cross rate, adjacent-compare
    each (31 + 31 bits, dHash-style), 2 parity bits from global shape.
    Gain-invariant by construction (monotone transforms preserve
    comparisons); robust to mild noise; shifts/retimings move it far —
    this is the cheap re-encode/re-volume duplicate detector, not a
    Shazam-style landmark matcher."""
    x = samples.astype(np.float64)
    if len(x) < 64:
        x = np.pad(x, (0, 64 - len(x)))
    peak = np.abs(x).max() or 1.0
    x = x / peak
    edges = np.linspace(0, len(x), 33).astype(int)
    rms = np.empty(32)
    zcr = np.empty(32)
    for i in range(32):
        f = x[edges[i]:max(edges[i + 1], edges[i] + 1)]
        rms[i] = np.sqrt((f * f).mean())
        zcr[i] = (np.signbit(f[1:]) != np.signbit(f[:-1])).mean() if len(f) > 1 else 0.0
    bits = np.concatenate(
        [
            rms[1:] > rms[:-1],
            zcr[1:] > zcr[:-1],
            [rms[:16].mean() > rms[16:].mean(), zcr[:16].mean() > zcr[16:].mean()],
        ]
    )
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


class AudioFpStage:
    """Actor-pool audio fingerprint: WAV payloads -> 64-bit envelope fp
    (ok=False on non-WAV rows — same explicit-flag contract as
    PHashStage)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        hashes, oks = [], []
        for mt, p in zip(batch["media_type"], batch["payload"]):
            if mt != "audio/wav":
                hashes.append(np.int64(0))
                oks.append(False)
                continue
            samples, _ = wav_decode(p)
            hashes.append(np.uint64(audio_fp64(samples)).view(np.int64))
            oks.append(True)
        return pd.DataFrame(
            {
                "media_id": batch["media_id"].to_numpy(np.int64),
                "phash": np.array(hashes, dtype=np.int64),
                "ok": np.array(oks, dtype=bool),
            }
        )


def audio_near_pairs(ds: "ray.data.Dataset", max_hamming: int = 7) -> pd.DataFrame:
    """Audio near-duplicate pairs by envelope-fingerprint hamming <= k
    through the banded Hamming join (dedup.banded_hamming_pairs)."""
    hashed = ds.map_batches(
        AudioFpStage, batch_format="pandas", batch_size=16, concurrency=2
    )
    return _near_pairs(hashed, max_hamming)
