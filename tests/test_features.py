"""Feature file format, manifests, synthetic corpus generator."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from vttcap.errors import ContractError, DataError, FormatError
from vttcap.features import (DatasetManifest, FeatureMatrix, ManifestEntry, VideoSample,
                             captions_for, dummy_audio, load_manifest, read_feature_file,
                             save_manifest, synth_dataset, write_feature_file)


class TestFeatureMatrix:
    def test_validates_shape(self):
        with pytest.raises(ContractError):
            FeatureMatrix(np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(ContractError):
            FeatureMatrix(np.zeros(4, dtype=np.float32))

    def test_rejects_non_finite(self):
        bad = np.full((2, 2), np.nan, dtype=np.float32)
        with pytest.raises(DataError):
            FeatureMatrix(bad)

    def test_video_sample_needs_captions(self):
        m = FeatureMatrix(np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(ContractError):
            VideoSample("v", m, None, [])


class TestFeatureFile:
    def test_roundtrip_bit_exact(self, tmp_path, np_rng):
        m = FeatureMatrix(np_rng.normal(size=(5, 7)).astype(np.float32))
        path = tmp_path / "m.vttf"
        write_feature_file(path, m)
        again = read_feature_file(path)
        assert np.array_equal(m.values, again.values)
        write_feature_file(tmp_path / "m2.vttf", m)
        assert path.read_bytes() == (tmp_path / "m2.vttf").read_bytes()

    def test_single_value_file_is_twenty_bytes(self, tmp_path):
        path = tmp_path / "one.vttf"
        write_feature_file(path, FeatureMatrix(np.array([[0.5]], dtype=np.float32)))
        blob = path.read_bytes()
        assert len(blob) == 16 + 4
        assert blob[:4] == b"VTTF"
        assert struct.unpack("<III", blob[4:16]) == (1, 1, 1)
        assert struct.unpack("<f", blob[16:])[0] == 0.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vttf"
        path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError, match="magic"):
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

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.vttf"
        write_feature_file(path, FeatureMatrix(np.ones((2, 3), dtype=np.float32)))
        before = path.read_bytes()

        class Exploding:  # the header is written, then the payload fails
            t, d = 2, 3

            @property
            def values(self):
                raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError):
            write_feature_file(path, Exploding())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.vttf"]

    def test_paper_scale_header(self, tmp_path):
        m = FeatureMatrix(np.zeros((300, 2048), dtype=np.float32))
        path = tmp_path / "big.vttf"
        write_feature_file(path, m)
        with open(path, "rb") as fh:
            head = fh.read(16)
        assert struct.unpack("<III", head[4:]) == (1, 300, 2048)


class TestDummyAudio:
    def test_all_zeros(self):
        m = dummy_audio(1, 128)
        assert m.values.shape == (1, 128)
        assert m.values.sum() == 0.0

    def test_needs_positive_t(self):
        with pytest.raises(ContractError):
            dummy_audio(0, 8)


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

    def test_some_videos_lack_audio(self, tmp_path):
        train, val = synth_dataset(5, 40, 4, 8, 4, tmp_path)
        flags = [e.audio_file is None for e in train.entries + val.entries]
        assert any(flags) and not all(flags)

    def test_noise_bounded_and_finite(self, tmp_path):
        train, _ = synth_dataset(9, 12, 3, 8, 4, tmp_path)
        for s in train.load_samples():
            assert np.isfinite(s.frames.values).all()
            if s.audio is not None:
                assert np.isfinite(s.audio.values).all()


class TestManifest:
    def test_load_checks_referenced_files(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "v1", "frame_file": "missing.vttf",
                                    "audio_file": None, "captions": ["a cat"]}) + "\n")
        with pytest.raises(FormatError, match="missing.vttf"):
            load_manifest(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        write_feature_file(tmp_path / "f.vttf",
                           FeatureMatrix(np.zeros((1, 2), dtype=np.float32)))
        row = json.dumps({"id": "v1", "frame_file": "f.vttf",
                          "audio_file": None, "captions": ["a cat"]})
        (tmp_path / "m.jsonl").write_text(row + "\n" + row + "\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_manifest(tmp_path / "m.jsonl")

    def test_roundtrip_via_synth(self, tmp_path):
        train, val = synth_dataset(2, 12, 3, 8, 4, tmp_path)
        loaded = load_manifest(tmp_path / "train.jsonl")
        assert [e.id for e in loaded.entries] == [e.id for e in train.entries]
        samples = loaded.load_samples()
        assert len(samples) == len(train)
        assert all(s.frames.t >= 1 for s in samples)

    @pytest.mark.parametrize("line,match", [
        ("[1, 2]", "JSON object"),
        ('"str"', "JSON object"),
        ('{"id": [1], "frame_file": "f.vttf", "audio_file": null, "captions": ["a"]}',
         "strings"),
        ('{"id": "v", "frame_file": 5, "audio_file": null, "captions": ["a"]}', "strings"),
        ('{"id": "v", "frame_file": "f.vttf", "audio_file": 7, "captions": ["a"]}',
         "audio_file"),
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
