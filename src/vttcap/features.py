"""Feature-matrix file format, dataset manifests and the synthetic corpus.

A feature matrix is a (T, D) float32 array of per-timestep features, T and
D at least 1.  A feature file holds one as NumPy's ``.npy`` (what ``np.save``
writes): dtype exactly ``<f4``, never converted, C or Fortran order, nothing
after the values.  ``read_feature_file`` is the one check of such a file; it
reads the file whole, as a map would cost a page per file.  A manifest is
JSON lines, one video each: id / frame_file / audio_file (null for a clip
without audio) / captions, the paths non-empty and relative to its
directory.  It names no role; the command reading it makes it training,
validation or scoring data.

The synthetic generator replaces real video datasets at desk scale: each
clip mixes one or two latent concepts, frame rows are noisy concept
embeddings, audio rows (when present) come from a concept-linked audio
embedding, and captions are fixed templates over the concept names.
"""

from __future__ import annotations

import json
import tokenize
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, VttError
from .fileio import atomic_path, read_json_lines, write_text
from .tensor import RngState

NOISE_SCALE = 0.1  # noise sigma as a fraction of the concept embedding norm

CONCEPT_NAMES = [
    "dog", "cat", "car", "bird", "boat", "tree", "fish", "horse",
    "train", "kite", "drum", "frog", "lamp", "bell", "ship", "bear",
]

# Caption templates; every video gets all templates for its concept draw,
# so two videos with the same draw share the same caption set.
_ONE_CONCEPT = [
    "a {a} in the video",
    "the {a} is moving around",
    "we can see a {a}",
]
_TWO_CONCEPT = [
    "a {a} and a {b} in the video",
    "the {a} is near the {b}",
    "we can see a {a} with a {b}",
]


@dataclass
class VideoSample:
    """One clip: its frame feature matrix, its audio feature matrix (None
    when the clip has no audio stream) and its reference captions."""

    id: str
    frames: np.ndarray
    audio: np.ndarray | None
    captions: list

    def __post_init__(self):
        if not self.captions:
            raise ContractError(f"video {self.id!r} has no captions")


@dataclass
class ManifestEntry:
    id: str
    frame_file: str
    audio_file: str | None
    captions: list


@dataclass
class DatasetManifest:
    """Entries of one manifest; ``root`` anchors the relative file paths."""

    entries: list
    root: Path

    def __len__(self):
        return len(self.entries)

    def load_samples(self, check=None) -> list:
        """Read every entry's feature files.  ``check(frames, audio)``, when
        given, raises a ``VttError`` for a video its reader cannot take (see
        ``ModelConfig.check_video``); the error is raised again, of the same
        type, naming the video's id and frame file."""
        samples = []
        for e in self.entries:
            frame_path = self.root / e.frame_file
            frames = read_feature_file(frame_path)
            audio = read_feature_file(self.root / e.audio_file) if e.audio_file else None
            if check is not None:
                try:
                    check(frames, audio)
                except VttError as exc:
                    raise type(exc)(f"video {e.id!r} ({frame_path}): {exc}") from exc
            samples.append(VideoSample(e.id, frames, audio, list(e.captions)))
        return samples


def write_feature_file(path, values: np.ndarray) -> None:
    # to an open file, since np.save appends ".npy" to a path
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        np.save(fh, np.ascontiguousarray(values, dtype="<f4"))


def read_feature_file(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # NumPy warns, not fails, on a Python-2 header
            values = np.lib.format.read_array(fh, allow_pickle=False)  # never .npz
            trailing = fh.read(1)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError, MemoryError,
            Warning) as exc:  # what a corrupt header raises
        raise FormatError(f"{path}: cannot read as .npy ({type(exc).__name__}: {exc})") from exc
    if trailing:
        raise FormatError(f"{path}: bytes after the array")
    if values.dtype.str != "<f4" or values.ndim != 2 or 0 in values.shape:
        raise FormatError(f"{path}: {values.dtype.str} array of shape {values.shape}, "
                          "expected a <f4 (T, D) matrix, T and D at least 1")
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite feature values")
    return values


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_text(path, "".join(json.dumps({"id": e.id, "frame_file": e.frame_file,
                                         "audio_file": e.audio_file,
                                         "captions": e.captions}) + "\n"
                             for e in manifest.entries))


def _manifest_entry(obj, where: str) -> ManifestEntry:
    """Check the fields and types of one parsed manifest line."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: entry must be a JSON object, got {type(obj).__name__}")
    missing = {"id", "frame_file", "audio_file", "captions"} - obj.keys()
    if missing:
        raise FormatError(f"{where}: missing fields {sorted(missing)}")
    if not isinstance(obj["id"], str) or not isinstance(obj["frame_file"], str):
        raise FormatError(f"{where}: id and frame_file must be strings")
    if obj["audio_file"] is not None and not isinstance(obj["audio_file"], str):
        raise FormatError(f"{where}: audio_file must be a string or null")
    for key in ("frame_file", "audio_file"):
        if obj[key] == "":  # a clip without audio has audio_file null
            raise FormatError(f"{where}: {key} is an empty path")
    captions = obj["captions"]
    if not isinstance(captions, list) or not captions \
            or not all(isinstance(c, str) for c in captions):
        raise FormatError(f"{where}: captions must be a non-empty list of strings")
    return ManifestEntry(obj["id"], obj["frame_file"], obj["audio_file"], list(captions))


def load_manifest(path) -> DatasetManifest:
    """Parse a JSON-lines manifest of at least one video, each naming existing files."""
    path = Path(path)
    entries = []
    seen = set()
    for where, obj in read_json_lines(path):
        entry = _manifest_entry(obj, where)
        if entry.id in seen:
            raise FormatError(f"{where}: duplicate id {entry.id!r}")
        for rel in (entry.frame_file, entry.audio_file):
            if rel and not (path.parent / rel).is_file():
                raise FormatError(f"{where}: referenced file {rel!r} is missing or not a file")
        seen.add(entry.id)
        entries.append(entry)
    if not entries:
        raise FormatError(f"{path} holds no videos")
    return DatasetManifest(entries, path.parent)


def captions_for(concepts) -> list:
    names = [CONCEPT_NAMES[c] for c in concepts]
    if len(names) == 1:
        return [t.format(a=names[0]) for t in _ONE_CONCEPT]
    return [t.format(a=names[0], b=names[1]) for t in _TWO_CONCEPT]


def synth_dataset(seed: int, n_videos: int, n_concepts: int, d_vision: int,
                  d_audio: int, out_dir) -> tuple:
    """Generate a deterministic synthetic corpus under ``out_dir``.

    Returns (train, val) manifests with a 90/10 split.  Everything --
    concept draws, noise, audio presence, captions -- is a pure function of
    the seed, so two runs produce byte-identical files.
    """
    if n_concepts < 2:
        raise ContractError("need at least 2 concepts")
    if n_concepts > len(CONCEPT_NAMES):
        raise ContractError(f"at most {len(CONCEPT_NAMES)} concepts supported")
    if n_videos < 10:
        raise ContractError("need at least 10 videos for a 90/10 split")
    if d_vision < 1 or d_audio < 1:
        raise ContractError(f"feature widths must be >= 1, got d_vision={d_vision}, "
                            f"d_audio={d_audio}")

    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)

    rng = RngState(seed).derive("synth")
    vision_embed = rng.normal((n_concepts, d_vision), std=1.0)
    audio_embed = rng.normal((n_concepts, d_audio), std=1.0)

    entries = []
    for i in range(n_videos):
        vid = f"vid_{i:04d}"
        k = 1 if rng.random() < 0.5 else 2
        concepts = [int(rng.random() * n_concepts)]
        if k == 2:
            second = int(rng.random() * (n_concepts - 1))
            if second >= concepts[0]:
                second += 1
            concepts.append(second)

        t_v = 4 + int(rng.random() * 5)  # 4..8 frame rows
        rows = []
        for t in range(t_v):
            c = concepts[t % len(concepts)]
            base = vision_embed[c]
            rows.append(base + rng.normal((d_vision,),
                                          std=NOISE_SCALE * float(np.linalg.norm(base))))
        frame_rel = f"features/{vid}_frames.npy"
        write_feature_file(out_dir / frame_rel, np.stack(rows))

        has_audio = rng.random() < 0.7
        audio_rel = None
        if has_audio:
            t_a = 1 + int(rng.random() * 3)  # 1..3 audio rows
            base = audio_embed[concepts[0]]
            arows = [base + rng.normal((d_audio,),
                                       std=NOISE_SCALE * float(np.linalg.norm(base)))
                     for _ in range(t_a)]
            audio_rel = f"features/{vid}_audio.npy"
            write_feature_file(out_dir / audio_rel, np.stack(arows))

        entries.append(ManifestEntry(vid, frame_rel, audio_rel, captions_for(concepts)))

    n_val = max(1, round(n_videos * 0.1))
    train = DatasetManifest(entries[:-n_val], out_dir)
    val = DatasetManifest(entries[-n_val:], out_dir)
    save_manifest(train, out_dir / "train.jsonl")
    save_manifest(val, out_dir / "val.jsonl")
    return train, val
