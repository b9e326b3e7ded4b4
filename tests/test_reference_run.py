"""A reference run, pinned: the pipeline of CI's determinism step, run in
process for both attention kinds and compared with ``reference_run.json``.

Each kind runs ``synth-data`` (24 videos, seed 3), ``build-vocab`` (64),
``train`` (desk profile, 5 XE epochs on the desk benchmark's schedule),
``finetune-scst`` (1 epoch, with a reward trace) and ``caption`` of the
validation and the training manifest.  The pin holds:

- every caption, compared exactly;
- every value of both histories and of the SCST trace, numbers within a
  relative tolerance of ``REL_TOL`` (``ABS_TOL`` near zero), everything
  else exactly;
- the md5 of each checkpoint, for information only: another CPU's BLAS may
  round differently, so a differing md5 is printed, never failed.

A change that means to alter the run regenerates the pin with

    PYTHONPATH=src python tests/test_reference_run.py
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from vttcap.cli import dispatch

PIN = Path(__file__).with_name("reference_run.json")
REL_TOL = 1e-4
ABS_TOL = 1e-9
SCHEDULE = {"warmup": 10, "eta_max": 0.01, "t0": 80}
KINDS = ("memory_scaled_dot", "x_linear")


def run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch([str(a) for a in argv])
    assert code == 0, f"{argv[0]} exited {code}"


def make_corpus(d: Path) -> None:
    run("synth-data", "--seed", 3, "--videos", 24, "--concepts", 4, "--out", d / "data")
    run("build-vocab", "--manifest", d / "data" / "train.jsonl", "--size", 64,
        "--out", d / "vocab.txt")


def json_lines(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def reference_run(d: Path, kind: str) -> dict:
    """Train, finetune and caption one attention kind on the corpus in ``d``;
    returns its captions, histories, trace and checkpoint md5s."""
    out = d / kind
    out.mkdir()
    config = out / "config.json"
    config.write_text(json.dumps({"model": {"attention_kind": kind}, "schedule": SCHEDULE}))
    data, vocab = d / "data", d / "vocab.txt"
    common = ["--profile", "desk", "--seed", 3, "--epochs", 1, "--vocab", vocab,
              "--train", data / "train.jsonl", "--val", data / "val.jsonl", "--config", config]
    run("train", *common, "--epochs", 5, "--out", out / "xe")
    run("finetune-scst", *common, "--init", out / "xe" / "checkpoints" / "best.vttc",
        "--out", out / "scst", "--trace", out / "trace.jsonl")
    captions = {}
    for split in ("val", "train"):
        run("caption", "--checkpoint", out / "scst" / "checkpoints" / "best.vttc",
            "--manifest", data / f"{split}.jsonl", "--vocab", vocab,
            "--out", out / f"{split}-captions.jsonl")
        captions[split] = {row["id"]: row["caption"]
                           for row in json_lines(out / f"{split}-captions.jsonl")}
    return {
        "captions": captions,
        "history": {stage: json_lines(out / stage / "history.jsonl") for stage in ("xe", "scst")},
        "trace": json_lines(out / "trace.jsonl"),
        "md5": {f"{stage}/{p.name}": hashlib.md5(p.read_bytes()).hexdigest()
                for stage in ("xe", "scst")
                for p in sorted((out / stage / "checkpoints").glob("*.vttc"))},
    }


def leaves(value, path=""):
    """(path, value) of every number, string, bool and None in a JSON value."""
    if isinstance(value, dict):
        for key in value:
            yield from leaves(value[key], f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}/{i}")
    else:
        yield path, value


def mismatches(got, pinned) -> list:
    """The paths at which ``got`` departs from ``pinned``: floats beyond the
    tolerance, any other leaf not equal, or a different set of paths."""
    got, pinned = dict(leaves(got)), dict(leaves(pinned))
    bad = sorted(set(got) ^ set(pinned))
    for path in sorted(set(got) & set(pinned)):
        a, b = got[path], pinned[path]
        if isinstance(a, float) and isinstance(b, float):
            ok = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        else:
            ok = type(a) is type(b) and a == b
        if not ok:
            bad.append(f"{path}: {a!r} != pinned {b!r}")
    return bad


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("reference")
    make_corpus(d)
    return d


@pytest.mark.parametrize("kind", KINDS)
def test_reference_run_matches_the_pin(corpus, kind):
    pinned = json.loads(PIN.read_text(encoding="utf-8"))[kind]
    got = reference_run(corpus, kind)
    assert got["captions"] == pinned["captions"]
    bad = mismatches({k: got[k] for k in ("history", "trace")},
                     {k: pinned[k] for k in ("history", "trace")})
    assert not bad, f"{len(bad)} values depart from {PIN.name}:\n" + "\n".join(bad[:20])
    for name, md5 in got["md5"].items():
        if md5 != pinned["md5"].get(name):
            print(f"{kind} {name}: md5 {md5} differs from the pin's (information only)")


def test_mismatches_name_each_departure():
    pinned = {"h": [{"loss": 1.0, "clipped": 0, "grad": None}], "ids": ["a"]}
    assert mismatches(pinned, pinned) == []
    assert mismatches({"h": [{"loss": 1.0 + 1e-6, "clipped": 0, "grad": None}], "ids": ["a"]},
                      pinned) == []
    got = {"h": [{"loss": 1.001, "clipped": 1, "grad": 0.0}], "ids": ["a", "b"]}
    assert mismatches(got, pinned) == ["/ids/1", "/h/0/clipped: 1 != pinned 0",
                                       "/h/0/grad: 0.0 != pinned None",
                                       "/h/0/loss: 1.001 != pinned 1.0"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        make_corpus(Path(tmp))
        pin = {kind: reference_run(Path(tmp), kind) for kind in KINDS}
    PIN.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PIN}", file=sys.stderr)
