"""CLI exit codes for numeric failures, corrupt inputs and removed config keys;
``caption``, ``score`` and atomic CLI outputs."""

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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny model trained until its greedy captions score above zero, with its
    30-video corpus and vocab: (directory, common caption/evaluate arguments)."""
    d = tmp_path_factory.mktemp("trained")
    assert dispatch(["synth-data", "--seed", "1", "--videos", "30", "--concepts", "2",
                     "--d-vision", "5", "--d-audio", "3", "--out", str(d / "data")]) == 0
    assert dispatch(["build-vocab", "--manifest", str(d / "data" / "train.jsonl"),
                     "--size", "40", "--out", str(d / "vocab.txt")]) == 0
    (d / "config.json").write_text(json.dumps({
        "profile": "desk", "model": TINY_MODEL,
        "schedule": {"eta_max": 0.02, "warmup": 5}}))
    assert dispatch(["train", "--config", str(d / "config.json"), "--epochs", "10",
                     "--train", str(d / "data" / "train.jsonl"),
                     "--val", str(d / "data" / "val.jsonl"),
                     "--vocab", str(d / "vocab.txt"), "--out", str(d / "run")]) == 0
    return d, ["--checkpoint", str(d / "run" / "checkpoints" / "best.vttc"),
               "--manifest", str(d / "data" / "val.jsonl"), "--vocab", str(d / "vocab.txt")]


def test_caption_then_score_reproduces_evaluate(trained, tmp_path):
    d, common = trained
    assert dispatch(["evaluate", *common, "--out", str(tmp_path / "eval.json")]) == 0
    assert dispatch(["caption", *common, "--out", str(tmp_path / "caps.jsonl")]) == 0
    assert len((tmp_path / "caps.jsonl").read_text().splitlines()) == 3
    assert dispatch(["score", "--hyp", str(tmp_path / "caps.jsonl"),
                     "--refs", str(d / "data" / "val.jsonl"),
                     "--out", str(tmp_path / "score.json")]) == 0
    evaluated = json.loads((tmp_path / "eval.json").read_text())
    assert json.loads((tmp_path / "score.json").read_text()) == evaluated
    assert set(evaluated) == {"bleu4", "cider", "cider_d"}
    assert all(value > 0 for value in evaluated.values())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["caps.jsonl", "eval.json",
                                                          "score.json"]


def test_failed_caption_rerun_keeps_previous_file(trained, tmp_path, monkeypatch):
    from vttcap import cli
    from vttcap.errors import DataError

    _, common = trained
    out = tmp_path / "caps.jsonl"
    assert dispatch(["caption", *common, "--out", str(out)]) == 0
    before = out.read_bytes()
    calls = []
    decode = cli.greedy_decode

    def failing_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise DataError("frames unreadable")
        return decode(*args, **kwargs)

    monkeypatch.setattr(cli, "greedy_decode", failing_third)
    assert dispatch(["caption", *common, "--out", str(out)]) == 2
    assert len(calls) == 3
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["caps.jsonl"]


@pytest.mark.parametrize("line", [
    '{"id": [1], "caption": "a dog"}',
    '{"id": "vid_0009", "caption": 5}',
    '{"id": "vid_0009", "caption": null}',
    "5",
    '"idcaption"',
])
def test_malformed_hypothesis_exits_2(workdir, tmp_path, capsys, line):
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text(line + "\n")
    code = dispatch(["score", "--hyp", str(hyp), "--refs", str(workdir / "data" / "val.jsonl"),
                     "--out", str(tmp_path / "score.json")])
    assert code == 2
    assert "hyp.jsonl:1" in capsys.readouterr().err
    assert not (tmp_path / "score.json").exists()
