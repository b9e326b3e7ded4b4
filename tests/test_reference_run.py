"""A reference run of both attention kinds, built in process and checked.

``build`` makes the whole tree through ``cli.dispatch``: ``synth-data`` (24
videos, seed 3) and ``build-vocab`` (64 tokens); then, for each attention
kind, ``train`` (desk profile, 5 XE epochs on the desk benchmark's schedule,
so that the scores are not all 0), ``finetune-scst`` (1 epoch, with a reward
trace), ``caption`` of the validation and the training manifest, and
``evaluate`` and ``score`` of the validation captions.  One more
memory-attention XE + SCST run reads the vocabulary padded with unused
tokens, as the benchmark pads its paper-scale one, to ``PADDED`` tokens:
enough that ``token_embed`` holds one whole ``training.CHUNK`` block past
the built vocabulary's rows.  No XE step reaches that block, and Adam
skips it.

The checks on that tree:

- the pin, ``reference_run.json``: every caption, compared exactly; every
  value of both histories and of the SCST trace, numbers within a relative
  tolerance of ``REL_TOL`` (``ABS_TOL`` near zero), everything else exactly;
  the md5 of each checkpoint, for information only: another CPU's BLAS may
  round differently, so a differing md5 is printed, never failed;
- determinism across processes: a child interpreter under another
  ``PYTHONHASHSEED`` builds the same tree, and every file must be
  byte-identical.  That holds at one OpenBLAS thread count only (built
  under 1 and under 2 threads, the x_linear SCST checkpoint differs), so
  the child inherits the parent's environment, thread settings included;
- ``score`` of the captions writes the report ``evaluate`` writes, and
  ``python -m vttcap.cli score`` prints it;
- a video's greedy caption does not depend on the chunk it is encoded in;
- each run keeps its best and its last checkpoint, each with its sidecar;
- the padded run reads every token, and its ``token_embed`` holds a whole
  block past the built vocabulary's rows;
- every JSON document is standard JSON: no NaN or Infinity.

A change that means to alter the run regenerates the pin with

    PYTHONPATH=src python tests/test_reference_run.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from test_training import CHECKPOINT_FILES
from vttcap.cli import PROFILES, dispatch
from vttcap.features import load_manifest
from vttcap.model import load_checkpoint_for
from vttcap.tokenizer import load_vocab
from vttcap.training import CHUNK, GREEDY_CHUNK, greedy_texts

PIN = Path(__file__).with_name("reference_run.json")
REL_TOL = 1e-4
ABS_TOL = 1e-9
SCHEDULE = {"warmup": 10, "eta_max": 0.01, "t0": 80}
KINDS = ("memory_scaled_dot", "x_linear")
# token_embed rows spanning two CHUNK blocks: enough for a whole block past
# the built vocabulary's rows at the desk layout, where 4054 is the least
PADDED = 2 * CHUNK // PROFILES["desk"]["model"]["d_model"]
RUNS = [f"{run}/{stage}" for run in (*KINDS, "padded") for stage in ("xe", "scst")]


def run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch([str(a) for a in argv])
    assert code == 0, f"{argv[0]} exited {code}"


def python(*argv, **env) -> subprocess.CompletedProcess:
    """Run a child interpreter with ``argv`` on this process's import path,
    with ``env`` added to this process's environment."""
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env},
                          timeout=300)


def read_json(path: Path):
    """The document of a ``.json`` file, or the documents of a ``.jsonl``
    file, one a line; the NaN and Infinity that standard JSON lacks fail."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not standard JSON")
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return [json.loads(line, parse_constant=reject) for line in text.splitlines()]
    return json.loads(text, parse_constant=reject)


def fit(d: Path, out: Path, vocab: Path, config: Path) -> None:
    """XE for 5 epochs, then SCST for 1 with a reward trace, into ``out``."""
    common = ["--seed", 3, "--epochs", 1, "--vocab", vocab,
              "--train", d / "data" / "train.jsonl", "--val", d / "data" / "val.jsonl",
              "--config", config]
    run("train", *common, "--epochs", 5, "--out", out / "xe")
    run("finetune-scst", *common, "--init", out / "xe" / "checkpoints" / "best.vttc",
        "--out", out / "scst", "--trace", out / "trace.jsonl")


def build(d: Path) -> None:
    """Build the reference tree of the module docstring in ``d``."""
    data, vocab = d / "data", d / "vocab.txt"
    run("synth-data", "--seed", 3, "--videos", 24, "--concepts", 4, "--out", data)
    run("build-vocab", "--manifest", data / "train.jsonl", "--size", 64, "--out", vocab)
    for kind in KINDS:
        out = d / kind
        out.mkdir()
        (out / "config.json").write_text(
            json.dumps({"model": {"attention_kind": kind}, "schedule": SCHEDULE}))
        fit(d, out, vocab, out / "config.json")
        decode = ["--checkpoint", out / "scst" / "checkpoints" / "best.vttc", "--vocab", vocab]
        for split in ("val", "train"):
            run("caption", *decode, "--manifest", data / f"{split}.jsonl",
                "--out", out / f"{split}-captions.jsonl")
        run("evaluate", *decode, "--manifest", data / "val.jsonl", "--out", out / "report.json")
        run("score", "--hyp", out / "val-captions.jsonl", "--refs", data / "val.jsonl",
            "--out", out / "score.json")
    tokens = vocab.read_text(encoding="utf-8").splitlines()
    tokens += [f"[unused{i}]" for i in range(PADDED - len(tokens))]
    padded = d / f"vocab-{PADDED}.txt"
    padded.write_text("".join(t + "\n" for t in tokens), encoding="utf-8")
    fit(d, d / "padded", padded, d / KINDS[0] / "config.json")


def summary(d: Path, kind: str) -> dict:
    """What the pin holds of one attention kind's run in the tree ``d``."""
    out = d / kind
    return {
        "captions": {split: {row["id"]: row["caption"]
                             for row in read_json(out / f"{split}-captions.jsonl")}
                     for split in ("val", "train")},
        "history": {stage: read_json(out / stage / "history.jsonl") for stage in ("xe", "scst")},
        "trace": read_json(out / "trace.jsonl"),
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
def tree(tmp_path_factory):
    """The reference tree, built in this process."""
    here = tmp_path_factory.mktemp("reference")
    build(here)
    return here


@pytest.mark.parametrize("kind", KINDS)
def test_reference_run_matches_the_pin(tree, kind):
    pinned = read_json(PIN)[kind]
    got = summary(tree, kind)
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


@pytest.mark.parametrize("kind", KINDS)
def test_score_of_the_captions_reproduces_evaluate(tree, kind):
    out = tree / kind
    assert (out / "score.json").read_bytes() == (out / "report.json").read_bytes()
    assert any(read_json(out / "report.json").values())


@pytest.mark.parametrize("kind", KINDS)
def test_captions_do_not_depend_on_their_chunk(tree, kind):
    vocab = load_vocab(tree / "vocab.txt")
    model = load_checkpoint_for(tree / kind / "scst" / "checkpoints" / "best.vttc", vocab)
    samples = load_manifest(tree / "data" / "train.jsonl").load_samples(model.cfg.check_video)
    assert len(samples) > GREEDY_CHUNK  # a full chunk and a partial one
    assert greedy_texts(model, samples, vocab) == [greedy_texts(model, [s], vocab)[0]
                                                   for s in samples]


def test_each_run_keeps_its_best_and_last_checkpoint(tree):
    listing = {r: sorted(p.name for p in (tree / r / "checkpoints").iterdir()) for r in RUNS}
    assert listing == {r: CHECKPOINT_FILES for r in RUNS}


def test_the_padded_run_reads_every_token(tree):
    sidecar = tree / "padded" / "scst" / "checkpoints" / "best.vttc.json"
    assert read_json(sidecar)["vocab_size"] == PADDED
    model = load_checkpoint_for(sidecar.with_suffix(""), load_vocab(tree / f"vocab-{PADDED}.txt"))
    (lo, size), = [(lo, size) for name, lo, size in model.arena.table if name == "token_embed"]
    unreached = lo + len(load_vocab(tree / "vocab.txt")) * model.cfg.d_model
    first_block = -(-unreached // CHUNK) * CHUNK
    assert first_block + CHUNK <= lo + size, "no whole token_embed block past the built rows"


def test_every_json_document_is_standard(tree):
    paths = [p for p in sorted(tree.rglob("*")) if p.suffix in (".json", ".jsonl")]
    assert paths
    for path in paths:
        read_json(path)


def test_the_module_entry_point_prints_the_score(tree):
    out = tree / KINDS[0]
    done = python("-m", "vttcap.cli", "score", "--hyp", out / "val-captions.jsonl",
                  "--refs", tree / "data" / "val.jsonl")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (out / "score.json").read_text(encoding="utf-8")


def test_a_child_process_builds_the_same_tree(tree, tmp_path):
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    done = python("-c", "import pathlib, sys, test_reference_run as t; "
                        "t.build(pathlib.Path(sys.argv[1]))", tmp_path, PYTHONHASHSEED=seed)
    assert done.returncode == 0, done.stderr
    files = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
    assert files == sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                           if p.is_file())
    differ = [f for f in files if (tree / f).read_bytes() != (tmp_path / f).read_bytes()]
    assert not differ, f"not byte-identical to the child's build: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        build(Path(tmp))
        pin = {kind: summary(Path(tmp), kind) for kind in KINDS}
    PIN.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PIN}", file=sys.stderr)
