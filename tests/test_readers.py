"""Every file reader gives a valid object or a ``VttError``, whatever the bytes.

Bounded Hypothesis searches over the files a command reads: a dataset (a
manifest and the ``.npy`` feature files it names), a vocabulary, a
checkpoint (VTTC) with its JSON sidecar, a JSON config (``--config``) and
a JSON-lines caption file (``--hyp``).  Each input replaces one file of
the set, by the valid file with a few bytes set, inserted or deleted and
maybe cut short, or by arbitrary bytes.  The explicit examples are the
valid set itself, which must read, and inputs that once escaped as
``UnicodeDecodeError``, ``JSONDecodeError`` or ``RecursionError`` or once
read as a wrong object, and a feature file for each way NumPy fails or
warns on a corrupt ``.npy`` header, or reads one that is not a feature
matrix.  The searches are derandomized and keep no example
database (the profile ``conftest.py`` loads), so one tree always gets the
same verdict.
"""

import argparse
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from vttcap.cli import SECTIONS, cmd_score, resolve_config
from vttcap.errors import FormatError, VttError
from vttcap.features import load_manifest, read_feature_file, write_feature_file
from vttcap.fileio import read_json
from vttcap.model import TransformerModel, load_checkpoint, save_checkpoint
from vttcap.tokenizer import PAD_TOKEN, load_vocab

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
DEEP_JSON = b"[" * 100_000
# manifest lines that name an empty feature path, which is no file
EMPTY_FRAME_FILE = json.dumps({"id": "v0", "frame_file": "", "audio_file": None,
                               "captions": ["a cat"]}).encode()
EMPTY_AUDIO_FILE = json.dumps({"id": "v0", "frame_file": "f.npy", "audio_file": "",
                               "captions": ["a cat"]}).encode()
# a manifest line whose frame_file names the manifest's own directory
DIRECTORY_FRAME_FILE = json.dumps({"id": "v0", "frame_file": ".", "audio_file": None,
                                   "captions": ["a cat"]}).encode()
# the header of the ``files`` feature file, a (2, 3) <f4 array
NPY_HEADER = "{'descr': '<f4', 'fortran_order': False, 'shape': (2, 3), }"


def npy(header: str = NPY_HEADER, values: bytes = bytes(24)) -> bytes:
    """A version 1.0 ``.npy`` file: ``header``, padded as NumPy pads it, then ``values``."""
    text = header.encode("latin1")
    text += b" " * (-(len(text) + 11) % 64) + b"\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text + values


# a feature file for each failure: (file bytes, part of the error message)
BAD_NPY = {
    "unclosed header": (npy(NPY_HEADER[:-1]), "TokenError"),
    "python-2 header": (npy(NPY_HEADER.replace("(2, 3)", "(2L, 3L)")), "UserWarning"),
    "deprecated dtype": (npy(NPY_HEADER.replace("<f4", "<a4")), "DeprecationWarning"),
    "bytes key": (npy(NPY_HEADER.replace("'shape'", "b'shape'")), "TypeError"),
    "comma dtype": (npy(NPY_HEADER.replace("<f4", "<,f4")), "SyntaxError"),
    # a MemoryError, or a short read where the host lends 3.64 TiB unbacked
    "3.64 TiB": (npy(NPY_HEADER.replace("(2, 3)", "(1000000, 1000000)")), r"as \.npy \("),
    "pickle": (npy(NPY_HEADER.replace("<f4", "|O")), "ValueError"),
    "trailing byte": (npy() + b"\0", "bytes after the array"),
    "<f8": (npy(NPY_HEADER.replace("<f4", "<f8"), bytes(48)), "<f8 array"),
    ">f4": (npy(NPY_HEADER.replace("<f4", ">f4")), ">f4 array"),
    "1-D": (npy(NPY_HEADER.replace("(2, 3)", "(6,)")), r"shape \(6,\)"),
    "3-D": (npy(NPY_HEADER.replace("(2, 3)", "(1, 2, 3)")), r"shape \(1, 2, 3\)"),
    "no rows": (npy(NPY_HEADER.replace("(2, 3)", "(0, 3)"), b""), r"shape \(0, 3\)"),
}
# the sidecar of the ``files`` checkpoint without a key that leaves its
# parameter layout unchanged
PARTIAL_SIDECAR = json.dumps({k: v for k, v in tiny_config().to_dict().items()
                              if k != "l_max"}).encode()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid file of each kind: {kind: (path, bytes)}."""
    d = tmp_path_factory.mktemp("readers")
    write_feature_file(d / "f.npy", np.arange(6, dtype=np.float32).reshape(2, 3))
    (d / "m.jsonl").write_text("".join(json.dumps(
        {"id": f"v{i}", "frame_file": "f.npy", "audio_file": None if i else "f.npy",
         "captions": ["a cat", "the dog runs"]}) + "\n" for i in range(2)), encoding="utf-8")
    (d / "vocab.txt").write_text(f"{PAD_TOKEN}\na\ncat\n##s\nthe\n", encoding="utf-8")
    save_checkpoint(TransformerModel(tiny_config(), seed=0), d / "ckpt.vttc")
    (d / "config.json").write_text(json.dumps(
        {"profile": "desk", "model": {"n_enc": 1, "attention_kind": "x_linear"},
         "run": {"epochs": 2, "seed": 3}}), encoding="utf-8")
    (d / "hyp.jsonl").write_text("".join(json.dumps({"id": f"v{i}", "caption": "a cat"}) + "\n"
                                         for i in range(2)), encoding="utf-8")
    names = {"npy": "f.npy", "manifest": "m.jsonl", "vocab": "vocab.txt",
             "vttc": "ckpt.vttc", "sidecar": "ckpt.vttc.json", "config": "config.json",
             "hyp": "hyp.jsonl"}
    return {kind: (d / name, (d / name).read_bytes()) for kind, name in names.items()}


@st.composite
def mutated(draw, base: bytes) -> bytes:
    """``base`` with one to four bytes set, inserted or deleted, often near
    its start where the headers are, and maybe cut short."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.one_of(st.integers(0, min(64, len(data))), st.integers(0, len(data))))
        kind = draw(st.sampled_from(["set", "insert", "delete"]))
        byte = draw(st.integers(0, 255))
        if kind == "insert":
            data.insert(i, byte)
        elif i < len(data):
            if kind == "set":
                data[i] = byte
            else:
                del data[i]
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


def read_or_vtt_error(files, kinds, data, kind, blob, read):
    """Replace the file of one of ``kinds``, read the set, and restore the
    file; None when the reader raised a ``VttError``.  An example gives
    ``kind`` and ``blob``, or ``kind`` alone to read the valid set, which
    must succeed; else both are drawn: a mutation of the valid file or
    arbitrary bytes."""
    if kind is None:
        kind = data.draw(st.sampled_from(kinds))
        blob = data.draw(st.one_of(mutated(files[kind][1]), st.binary(max_size=256)))
    elif blob is None:
        return read(files)
    path, base = files[kind]
    path.write_bytes(blob)
    try:
        return read(files)
    except VttError:
        return None
    finally:
        path.write_bytes(base)


@FUZZ
@given(data=st.data(), kind=st.none(), blob=st.none())
@example(data=None, kind="manifest", blob=None)
@example(data=None, kind="manifest", blob=b"\xff\xfe")
@example(data=None, kind="manifest", blob=DEEP_JSON)
@example(data=None, kind="manifest", blob=EMPTY_FRAME_FILE)
@example(data=None, kind="manifest", blob=EMPTY_AUDIO_FILE)
@example(data=None, kind="manifest", blob=DIRECTORY_FRAME_FILE)
@example(data=None, kind="npy", blob=BAD_NPY["unclosed header"][0])
@example(data=None, kind="npy", blob=BAD_NPY["python-2 header"][0])
@example(data=None, kind="npy", blob=BAD_NPY["deprecated dtype"][0])
@example(data=None, kind="npy", blob=BAD_NPY["bytes key"][0])
@example(data=None, kind="npy", blob=BAD_NPY["comma dtype"][0])
@example(data=None, kind="npy", blob=BAD_NPY["3.64 TiB"][0])
@example(data=None, kind="npy", blob=BAD_NPY["pickle"][0])
@example(data=None, kind="npy", blob=BAD_NPY["trailing byte"][0])
@example(data=None, kind="npy", blob=BAD_NPY["<f8"][0])
@example(data=None, kind="npy", blob=BAD_NPY[">f4"][0])
@example(data=None, kind="npy", blob=BAD_NPY["1-D"][0])
@example(data=None, kind="npy", blob=BAD_NPY["3-D"][0])
@example(data=None, kind="npy", blob=BAD_NPY["no rows"][0])
def test_dataset(files, data, kind, blob):
    samples = read_or_vtt_error(files, ["manifest", "npy"], data, kind, blob,
                                lambda f: load_manifest(f["manifest"][0]).load_samples())
    assert samples is None or len(samples) >= 1
    for s in samples or []:
        for m in (s.frames, s.audio):
            if m is not None:
                assert m.dtype == np.float32 and m.ndim == 2 and min(m.shape) >= 1
                assert np.isfinite(m).all()


@pytest.mark.parametrize("blob, message", BAD_NPY.values(), ids=BAD_NPY)
def test_each_bad_feature_file_is_a_format_error_naming_it(tmp_path, blob, message):
    path = tmp_path / "f.npy"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=rf"f\.npy: .*{message}"):
        read_feature_file(path)


def test_the_npy_helper_writes_what_numpy_writes(files):
    assert npy(values=np.arange(6, dtype="<f4").tobytes()) == files["npy"][1]


@FUZZ
@given(data=st.data(), kind=st.none(), blob=st.none())
@example(data=None, kind="vocab", blob=None)
@example(data=None, kind="vocab", blob=b"[PAD]\n\xe9t\xe9\n")
def test_vocab(files, data, kind, blob):
    vocab = read_or_vtt_error(files, ["vocab"], data, kind, blob,
                              lambda f: load_vocab(f["vocab"][0]))
    assert vocab is None or vocab.pad_id == 0


@FUZZ
@given(data=st.data(), kind=st.none(), blob=st.none())
@example(data=None, kind="vttc", blob=None)
@example(data=None, kind="sidecar", blob=b"{\xff}")
@example(data=None, kind="sidecar", blob=b'{"d_model": 8,')
@example(data=None, kind="sidecar", blob=DEEP_JSON)
@example(data=None, kind="sidecar", blob=PARTIAL_SIDECAR)
def test_checkpoint(files, data, kind, blob):
    read = read_or_vtt_error(files, ["vttc", "sidecar"], data, kind, blob,
                             lambda f: (load_checkpoint(f["vttc"][0]), read_json(f["sidecar"][0])))
    if read is not None:
        model, sidecar = read
        assert model.cfg.to_dict() == sidecar  # every key as the sidecar names it
        assert model.n_parameters() == TransformerModel(tiny_config(), init="zeros").n_parameters()


@FUZZ
@given(data=st.data(), kind=st.none(), blob=st.none())
@example(data=None, kind="config", blob=None)
@example(data=None, kind="config", blob=b"\xff\xfe{}")
@example(data=None, kind="config", blob=DEEP_JSON)
def test_config(files, data, kind, blob):
    cfg = read_or_vtt_error(files, ["config"], data, kind, blob,
                            lambda f: resolve_config(str(f["config"][0]), None))
    assert cfg is None or list(cfg) == list(SECTIONS)


@FUZZ
@given(data=st.data(), kind=st.none(), blob=st.none())
@example(data=None, kind="hyp", blob=None)
@example(data=None, kind="hyp", blob=b'{"id": "v0", "caption": "\xe9"}\n')
@example(data=None, kind="hyp", blob=DEEP_JSON)
def test_hypotheses(files, data, kind, blob):
    args = argparse.Namespace(hyp=files["hyp"][0], refs=files["manifest"][0], out=None)
    code = read_or_vtt_error(files, ["hyp"], data, kind, blob, lambda f: cmd_score(args))
    assert code in (None, 0)


@pytest.mark.parametrize("kind,read", [
    ("manifest", load_manifest), ("vocab", load_vocab),
    ("sidecar", lambda path: load_checkpoint(str(path)[:-len(".json")])),
])
def test_undecodable_bytes_name_the_file(files, kind, read):
    path, base = files[kind]
    path.write_bytes(b"\xff" + base)
    try:
        with pytest.raises(FormatError, match=path.name):
            read(path)
    finally:
        path.write_bytes(base)
