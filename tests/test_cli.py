"""CLI exit codes for numeric failures, corrupt inputs and removed config keys."""

import json

import pytest

from conftest import tiny_config
from vttcap.cli import dispatch
from vttcap.model import TransformerModel, save_checkpoint
from vttcap.tokenizer import load_vocab

TINY_MODEL = {k: v for k, v in tiny_config().to_dict().items() if k != "vocab_size"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A 10-video corpus, its vocab, a tiny-model config and an initial checkpoint."""
    d = tmp_path_factory.mktemp("cli")
    assert dispatch(["synth-data", "--seed", "1", "--videos", "10", "--concepts", "2",
                     "--d-vision", "5", "--d-audio", "3", "--out", str(d / "data")]) == 0
    assert dispatch(["build-vocab", "--manifest", str(d / "data" / "train.jsonl"),
                     "--size", "40", "--out", str(d / "vocab.txt")]) == 0
    (d / "config.json").write_text(json.dumps({"profile": "desk", "model": TINY_MODEL,
                                               "reward": {"n_samples": 2}}))
    vocab = load_vocab(d / "vocab.txt")
    save_checkpoint(TransformerModel(tiny_config(vocab_size=len(vocab)), seed=1),
                    d / "init.vttc")
    return d


def run_args(d, out):
    return ["--config", str(d / "config.json"), "--train", str(d / "data" / "train.jsonl"),
            "--val", str(d / "data" / "val.jsonl"), "--vocab", str(d / "vocab.txt"),
            "--out", str(out), "--epochs", "1"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_scst_loss_exits_3(workdir, tmp_path, monkeypatch, value):
    monkeypatch.setattr("vttcap.scst.mixed_reward", lambda cand, refs, rc: value)
    code = dispatch(["finetune-scst", *run_args(workdir, tmp_path / "run"),
                     "--init", str(workdir / "init.vttc")])
    assert code == 3


def test_evaluate_on_truncated_checkpoint_exits_2(workdir, tmp_path, capsys):
    ckpt = tmp_path / "cut.vttc"
    ckpt.write_bytes((workdir / "init.vttc").read_bytes()[:-3])
    (tmp_path / "cut.vttc.json").write_bytes((workdir / "init.vttc.json").read_bytes())
    code = dispatch(["evaluate", "--checkpoint", str(ckpt),
                     "--manifest", str(workdir / "data" / "val.jsonl"),
                     "--vocab", str(workdir / "vocab.txt")])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


def test_removed_schedule_eta_is_an_unknown_key(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": TINY_MODEL, "schedule": {"eta": 5e-6}}))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["train", *args]) == 1


@pytest.mark.parametrize("line", [
    "[1, 2]",
    '"str"',
    '{"id": [1], "frame_file": "f.vttf", "audio_file": null, "captions": ["a cat"]}',
    '{"id": "v1", "frame_file": 5, "audio_file": null, "captions": ["a cat"]}',
])
def test_malformed_manifest_exits_2(tmp_path, capsys, line):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(line + "\n")
    code = dispatch(["build-vocab", "--manifest", str(manifest), "--size", "40",
                     "--out", str(tmp_path / "vocab.txt")])
    assert code == 2
    assert "m.jsonl:1" in capsys.readouterr().err
    assert not (tmp_path / "vocab.txt").exists()
