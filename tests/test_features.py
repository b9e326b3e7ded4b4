"""Feature file format, manifests, synthetic corpus generator."""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from vttcap.errors import ContractError, DataError, FormatError
from vttcap.features import (DatasetManifest, ManifestEntry, VideoSample, captions_for,
                             load_manifest, read_feature_file, save_manifest, synth_dataset,
                             write_feature_file)


class TestVideoSample:
    def test_video_sample_needs_captions(self):
        with pytest.raises(ContractError):
            VideoSample("v", np.zeros((1, 2), dtype=np.float32), None, [])


class TestFeatureFile:
    def test_roundtrip_bit_exact(self, tmp_path, np_rng):
        m = np_rng.normal(size=(5, 7)).astype(np.float32)
        path = tmp_path / "m.vttf"
        write_feature_file(path, m)
        again = read_feature_file(path)
        assert again.dtype == np.float32 and again.flags.writeable
        assert np.array_equal(m, again)
        write_feature_file(tmp_path / "m2.vttf", m)
        assert path.read_bytes() == (tmp_path / "m2.vttf").read_bytes()

    def test_single_value_file_is_twenty_bytes(self, tmp_path):
        path = tmp_path / "one.vttf"
        write_feature_file(path, np.array([[0.5]], dtype=np.float32))
        blob = path.read_bytes()
        assert len(blob) == 16 + 4
        assert blob[:4] == b"VTTF"
        assert struct.unpack("<III", blob[4:16]) == (1, 1, 1)
        assert struct.unpack("<f", blob[16:])[0] == 0.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vttf"
        path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError, match=r"bad\.vttf: bad magic"):
            read_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.vttf"
        path.write_bytes(b"VTTF" + struct.pack("<III", 1, 2, 3) + b"\x00" * 8)
        with pytest.raises(FormatError, match="length"):
            read_feature_file(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.vttf"
        path.write_bytes(b"VTTF" + struct.pack("<III", 1, 1, 1) +
                         struct.pack("<f", float("nan")))
        with pytest.raises(DataError):
            read_feature_file(path)

    @pytest.mark.parametrize("t, d", [(0, 4), (3, 0), (0, 0)])
    def test_empty_matrix_rejected(self, tmp_path, t, d):
        path = tmp_path / "empty.vttf"
        path.write_bytes(b"VTTF" + struct.pack("<III", 1, t, d))
        with pytest.raises(FormatError, match=f"empty.vttf: empty {t}x{d}"):
            read_feature_file(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.vttf"
        write_feature_file(path, np.ones((2, 3), dtype=np.float32))
        before = path.read_bytes()

        class Exploding:  # the header is written, then the payload fails
            shape = (2, 3)

            def __array__(self, *args, **kwargs):
                raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError):
            write_feature_file(path, Exploding())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.vttf"]

    def test_paper_scale_header(self, tmp_path):
        m = np.zeros((300, 2048), dtype=np.float32)
        path = tmp_path / "big.vttf"
        write_feature_file(path, m)
        with open(path, "rb") as fh:
            head = fh.read(16)
        assert struct.unpack("<III", head[4:]) == (1, 300, 2048)


# md5 of each file of synth_dataset(seed=7, n_videos=10, n_concepts=8,
# d_vision=32, d_audio=8); vid_0005 has no audio.
PINNED_CORPUS = {
    "features/vid_0000_audio.vttf": "04f431ee2f6147815c902095aaec0bc6",
    "features/vid_0000_frames.vttf": "5888ed3bc1757d1a1767ac50a6a55b94",
    "features/vid_0001_audio.vttf": "fe1e8eccfb129bc1f242155c535416dd",
    "features/vid_0001_frames.vttf": "f00f74102a18ed4ab0a812c28c9403eb",
    "features/vid_0002_audio.vttf": "a849cc37b8752d580600990b17c4a8f6",
    "features/vid_0002_frames.vttf": "a7ee019888cfe871978c22164cdc6bf3",
    "features/vid_0003_audio.vttf": "2e380f720864cd480b0165842fed8ae2",
    "features/vid_0003_frames.vttf": "ac15506026644395213949c18b100644",
    "features/vid_0004_audio.vttf": "88eec779158478449cfd20d42825858f",
    "features/vid_0004_frames.vttf": "c55b2d9b9425eebaefc79390d003535b",
    "features/vid_0005_frames.vttf": "00f234de85ba6778677f13cd113c3e9f",
    "features/vid_0006_audio.vttf": "5efe2d82f223bc3f7a3df2af57c163db",
    "features/vid_0006_frames.vttf": "1cf95ddf16692e736fb67925dd7ce7ea",
    "features/vid_0007_audio.vttf": "ed6070985b292ce5316ad73b54e2f207",
    "features/vid_0007_frames.vttf": "9c079178fa4a9db5c7f84f99321f3287",
    "features/vid_0008_audio.vttf": "42e1067613f0105e0e177b85a889363b",
    "features/vid_0008_frames.vttf": "420774a5cf568f476332d4f544746128",
    "features/vid_0009_audio.vttf": "3beb1ae37ad2ad794b8d287d722f9d23",
    "features/vid_0009_frames.vttf": "3152c1df8e3cf6c36161225a25e4f758",
    "train.jsonl": "1a4bb967c6230f33f8b7ddd201a7f3e5",
    "val.jsonl": "f15e6bed73f9c2e6f5fe24a4819ade8a",
}


class TestSynthDataset:
    def test_split_sizes(self, tmp_path):
        train, val = synth_dataset(7, 100, 8, 16, 4, tmp_path)
        assert (len(train), len(val)) == (90, 10)

    def test_deterministic_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synth_dataset(11, 20, 4, 8, 4, d1)
        synth_dataset(11, 20, 4, 8, 4, d2)
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_identical_draw_identical_captions(self, tmp_path):
        train, val = synth_dataset(3, 60, 4, 8, 4, tmp_path)
        by_first = {}
        for e in train.entries + val.entries:
            by_first.setdefault(e.captions[0], []).append(e.captions)
        repeated = [caps for caps in by_first.values() if len(caps) > 1]
        assert repeated, "60 videos over 4 concepts must repeat a draw"
        for caps in repeated:
            assert all(c == caps[0] for c in caps)

    def test_captions_are_templates_over_concepts(self):
        assert captions_for([0]) == captions_for([0])
        assert len(captions_for([1])) >= 2
        assert captions_for([0, 1]) != captions_for([1, 0])

    def test_preconditions(self, tmp_path):
        with pytest.raises(ContractError):
            synth_dataset(1, 5, 4, 8, 4, tmp_path)
        with pytest.raises(ContractError):
            synth_dataset(1, 20, 1, 8, 4, tmp_path)
        for d_vision, d_audio in ((0, 4), (8, 0)):
            with pytest.raises(ContractError, match="widths"):
                synth_dataset(1, 20, 4, d_vision, d_audio, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_default_corpus_is_pinned(self, tmp_path):
        """The md5 of every file of the corpus the ``synth-data`` defaults
        give at 10 videos; a new generator option must leave them as they are."""
        synth_dataset(7, 10, 8, 32, 8, tmp_path)
        digests = {p.relative_to(tmp_path).as_posix(): hashlib.md5(p.read_bytes()).hexdigest()
                   for p in tmp_path.rglob("*") if p.is_file()}
        assert digests == PINNED_CORPUS

    def test_some_videos_lack_audio(self, tmp_path):
        train, val = synth_dataset(5, 40, 4, 8, 4, tmp_path)
        flags = [e.audio_file is None for e in train.entries + val.entries]
        assert any(flags) and not all(flags)

    def test_noise_bounded_and_finite(self, tmp_path):
        train, _ = synth_dataset(9, 12, 3, 8, 4, tmp_path)
        for s in train.load_samples():
            assert np.isfinite(s.frames).all()
            if s.audio is not None:
                assert np.isfinite(s.audio).all()


class TestManifest:
    def test_load_checks_referenced_files(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "v1", "frame_file": "missing.vttf",
                                    "audio_file": None, "captions": ["a cat"]}) + "\n")
        with pytest.raises(FormatError, match="missing.vttf"):
            load_manifest(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        write_feature_file(tmp_path / "f.vttf", np.zeros((1, 2), dtype=np.float32))
        row = json.dumps({"id": "v1", "frame_file": "f.vttf",
                          "audio_file": None, "captions": ["a cat"]})
        (tmp_path / "m.jsonl").write_text(row + "\n" + row + "\n")
        with pytest.raises(FormatError, match=r"m\.jsonl:2: duplicate id 'v1'"):
            load_manifest(tmp_path / "m.jsonl")

    def test_roundtrip_via_synth(self, tmp_path):
        train, val = synth_dataset(2, 12, 3, 8, 4, tmp_path)
        loaded = load_manifest(tmp_path / "train.jsonl")
        assert [e.id for e in loaded.entries] == [e.id for e in train.entries]
        samples = loaded.load_samples()
        assert len(samples) == len(train)
        assert all(s.frames.dtype == np.float32 and len(s.frames) >= 1 for s in samples)

    @pytest.mark.parametrize("line,match", [
        ("[1, 2]", "JSON object"),
        ('"str"', "JSON object"),
        ('{"id": [1], "frame_file": "f.vttf", "audio_file": null, "captions": ["a"]}',
         "strings"),
        ('{"id": "v", "frame_file": 5, "audio_file": null, "captions": ["a"]}', "strings"),
        ('{"id": "v", "frame_file": "f.vttf", "audio_file": 7, "captions": ["a"]}',
         "audio_file"),
        ('{"id": "v", "frame_file": "", "audio_file": null, "captions": ["a"]}',
         "m.jsonl:1: frame_file is an empty path"),
        ('{"id": "v", "frame_file": "f.vttf", "audio_file": "", "captions": ["a"]}',
         "m.jsonl:1: audio_file is an empty path"),
        ('{"id": "v", "frame_file": ".", "audio_file": null, "captions": ["a"]}',
         "m.jsonl:1: referenced file '.' is missing or not a file"),
        ('{"id": "v", "frame_file": "m.jsonl", "audio_file": ".", "captions": ["a"]}',
         "m.jsonl:1: referenced file '.' is missing or not a file"),
        ('{"id": "v", "frame_file": "f.vttf", "audio_file": null, "captions": []}',
         "captions"),
        ('{"id": "v", "frame_file": "f.vttf", "audio_file": null, "captions": "a"}',
         "captions"),
        ('{"id": "v", "frame_file": "f.vttf", "audio_file": null, "captions": ["a", 3]}',
         "captions"),
    ])
    def test_malformed_entries_rejected(self, tmp_path, line, match):
        (tmp_path / "m.jsonl").write_text(line + "\n")
        with pytest.raises(FormatError, match=match):
            load_manifest(tmp_path / "m.jsonl")

    def test_failed_save_keeps_previous_manifest(self, tmp_path):
        path = tmp_path / "m.jsonl"
        good = ManifestEntry("v1", "f.vttf", None, ["a cat"])
        save_manifest(DatasetManifest([good], tmp_path), path)
        before = path.read_bytes()
        bad = ManifestEntry("v2", "g.vttf", None, [object()])  # not JSON-serialisable
        with pytest.raises(TypeError):
            save_manifest(DatasetManifest([good, bad], tmp_path), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.jsonl"]

    def test_missing_fields_rejected(self, tmp_path):
        (tmp_path / "m.jsonl").write_text(json.dumps({"id": "v1"}) + "\n")
        with pytest.raises(FormatError, match="missing fields"):
            load_manifest(tmp_path / "m.jsonl")
