"""Feature file format, manifests, synthetic corpus generator."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vttcap.errors import ContractError, FormatError
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
        path = tmp_path / "m.npy"
        write_feature_file(path, m)
        again = read_feature_file(path)
        assert again.dtype == np.float32 and again.flags.writeable
        assert np.array_equal(m, again)
        write_feature_file(tmp_path / "m2.npy", m)
        assert path.read_bytes() == (tmp_path / "m2.npy").read_bytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_file_numpy_wrote_reads_back_bit_exact(self, tmp_path, np_rng, order):
        m = np.asarray(np_rng.normal(size=(3, 5)), dtype="<f4", order=order)
        np.save(tmp_path / "np.npy", m)
        again = read_feature_file(tmp_path / "np.npy")
        assert again.dtype.str == "<f4" and again.shape == (3, 5)
        assert again.tobytes() == m.tobytes(order="C")

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.npy"
        np.save(path, np.zeros((2, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match=r"short\.npy: cannot read as \.npy \(ValueError"):
            read_feature_file(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.npy"
        np.save(path, np.array([[float("nan")]], dtype=np.float32))
        with pytest.raises(FormatError, match=r"nan\.npy: non-finite feature values"):
            read_feature_file(path)

    @pytest.mark.parametrize("t, d", [(0, 4), (3, 0), (0, 0)])
    def test_empty_matrix_rejected(self, tmp_path, t, d):
        path = tmp_path / "empty.npy"
        np.save(path, np.zeros((t, d), dtype=np.float32))
        with pytest.raises(FormatError, match=rf"empty\.npy: <f4 array of shape \({t}, {d}\)"):
            read_feature_file(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.npy"
        write_feature_file(path, np.ones((2, 3), dtype=np.float32))
        before = path.read_bytes()

        class Exploding:  # the temporary file is made, then the values fail
            def __array__(self, *args, **kwargs):
                raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError):
            write_feature_file(path, Exploding())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.npy"]


# md5 of each file of synth_dataset(seed=7, n_videos=10, n_concepts=8,
# d_vision=32, d_audio=8); vid_0005 has no audio.
PINNED_CORPUS = {
    "features/vid_0000_audio.npy": "e5c2074a09ede7844147ec06e45092df",
    "features/vid_0000_frames.npy": "261148cb0dd5e3976469096c40bc77da",
    "features/vid_0001_audio.npy": "c405db7a6638af69d01e21a38512caba",
    "features/vid_0001_frames.npy": "26a0c13f3a93c39b44c0ce21adbe2b71",
    "features/vid_0002_audio.npy": "67348a1a3922683ce3b782cf55034361",
    "features/vid_0002_frames.npy": "2e9d41bc1b31bfd0206e7cf571004ce2",
    "features/vid_0003_audio.npy": "72e6a8c55fe20d50e6688a279ad0bc0d",
    "features/vid_0003_frames.npy": "cd1826a9cf6772e6aee4f1d01cf03dff",
    "features/vid_0004_audio.npy": "9ad397c3fc9ae6a56b0d572b6247dc9d",
    "features/vid_0004_frames.npy": "5c35b3fe05902234345743beb182d22e",
    "features/vid_0005_frames.npy": "c51a7ed18417569da0af73c542ebd555",
    "features/vid_0006_audio.npy": "1808080a62dca7fdf7f282c25f94ee7b",
    "features/vid_0006_frames.npy": "09829c49857358ff498d452f2de86482",
    "features/vid_0007_audio.npy": "3bcae7f63cbea237c7bfcb9f18ac2816",
    "features/vid_0007_frames.npy": "da1169db9e7e67eb8b953c33b282a5b3",
    "features/vid_0008_audio.npy": "26570873c1319462e2211f488630e688",
    "features/vid_0008_frames.npy": "fa4d2f9b075d36850a267a569996739e",
    "features/vid_0009_audio.npy": "1d07c463ca7253d64d70558c9fac3518",
    "features/vid_0009_frames.npy": "132004871d57f2d0eb1cddc0d0f3551e",
    "train.jsonl": "6743b45ae0451a242fea2b537940aa5c",
    "val.jsonl": "621689967c11619005e1223eec959e8d",
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
        path.write_text(json.dumps({"id": "v1", "frame_file": "missing.npy",
                                    "audio_file": None, "captions": ["a cat"]}) + "\n")
        with pytest.raises(FormatError, match="missing.npy"):
            load_manifest(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        write_feature_file(tmp_path / "f.npy", np.zeros((1, 2), dtype=np.float32))
        row = json.dumps({"id": "v1", "frame_file": "f.npy",
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
        ('{"id": [1], "frame_file": "f.npy", "audio_file": null, "captions": ["a"]}',
         "strings"),
        ('{"id": "v", "frame_file": 5, "audio_file": null, "captions": ["a"]}', "strings"),
        ('{"id": "v", "frame_file": "f.npy", "audio_file": 7, "captions": ["a"]}',
         "audio_file"),
        ('{"id": "v", "frame_file": "", "audio_file": null, "captions": ["a"]}',
         "m.jsonl:1: frame_file is an empty path"),
        ('{"id": "v", "frame_file": "f.npy", "audio_file": "", "captions": ["a"]}',
         "m.jsonl:1: audio_file is an empty path"),
        ('{"id": "v", "frame_file": ".", "audio_file": null, "captions": ["a"]}',
         "m.jsonl:1: referenced file '.' is missing or not a file"),
        ('{"id": "v", "frame_file": "m.jsonl", "audio_file": ".", "captions": ["a"]}',
         "m.jsonl:1: referenced file '.' is missing or not a file"),
        ('{"id": "v", "frame_file": "f.npy", "audio_file": null, "captions": []}',
         "captions"),
        ('{"id": "v", "frame_file": "f.npy", "audio_file": null, "captions": "a"}',
         "captions"),
        ('{"id": "v", "frame_file": "f.npy", "audio_file": null, "captions": ["a", 3]}',
         "captions"),
    ])
    def test_malformed_entries_rejected(self, tmp_path, line, match):
        (tmp_path / "m.jsonl").write_text(line + "\n")
        with pytest.raises(FormatError, match=match):
            load_manifest(tmp_path / "m.jsonl")

    def test_failed_save_keeps_previous_manifest(self, tmp_path):
        path = tmp_path / "m.jsonl"
        good = ManifestEntry("v1", "f.npy", None, ["a cat"])
        save_manifest(DatasetManifest([good], tmp_path), path)
        before = path.read_bytes()
        bad = ManifestEntry("v2", "g.npy", None, [object()])  # not JSON-serialisable
        with pytest.raises(TypeError):
            save_manifest(DatasetManifest([good, bad], tmp_path), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.jsonl"]

    def test_missing_fields_rejected(self, tmp_path):
        (tmp_path / "m.jsonl").write_text(json.dumps({"id": "v1"}) + "\n")
        with pytest.raises(FormatError, match="missing fields"):
            load_manifest(tmp_path / "m.jsonl")
