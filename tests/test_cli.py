"""CLI exit codes for usage errors, numeric failures, corrupt inputs,
malformed config and removed config keys; the built-in profiles' keys;
``caption``, ``score`` and atomic CLI outputs."""

import json
from dataclasses import fields

import pytest

from conftest import tiny_config
from vttcap.cli import PROFILES, dispatch
from vttcap.model import ModelConfig, TransformerModel, save_checkpoint
from vttcap.scst import RewardConfig
from vttcap.tokenizer import load_vocab
from vttcap.training import ScheduleConfig, TrainRunConfig

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


@pytest.mark.parametrize("temperature", [0.0, float("nan")])
def test_scst_temperature_must_be_finite_and_positive(workdir, tmp_path, capsys, temperature):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": TINY_MODEL,
                                  "reward": {"n_samples": 2, "temperature": temperature}}))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["finetune-scst", *args, "--init", str(workdir / "init.vttc")]) == 2
    assert "temperature" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_evaluate_on_truncated_checkpoint_exits_2(workdir, tmp_path, capsys):
    ckpt = tmp_path / "cut.vttc"
    ckpt.write_bytes((workdir / "init.vttc").read_bytes()[:-3])
    (tmp_path / "cut.vttc.json").write_bytes((workdir / "init.vttc.json").read_bytes())
    code = dispatch(["evaluate", "--checkpoint", str(ckpt),
                     "--manifest", str(workdir / "data" / "val.jsonl"),
                     "--vocab", str(workdir / "vocab.txt")])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("schedule", "eta", 5e-6),
    ("schedule", "d_model", 99999),
    ("model", "dropout", 0.0),
    ("model", "use_memory_with_x_linear", True),
])
def test_removed_config_key_is_unknown(workdir, tmp_path, capsys, section, key, value):
    config = tmp_path / "config.json"
    overrides = {"model": dict(TINY_MODEL)}
    overrides.setdefault(section, {})[key] = value
    config.write_text(json.dumps(overrides))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["train", *args]) == 1
    assert f"unknown config key '{section}.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# derived from other values, never set by a profile
DERIVED_FIELDS = {"schedule": {"d_model"}, "reward": {"idf"}}


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_profile_sections_are_exactly_their_config_fields(profile):
    sections = PROFILES[profile]
    built = {"model": ModelConfig, "schedule": ScheduleConfig, "reward": RewardConfig,
             "run": TrainRunConfig}
    assert set(sections) == {*built, "data"}
    for name, cls in built.items():
        names = {f.name for f in fields(cls)} - DERIVED_FIELDS.get(name, set())
        assert set(sections[name]) == names, name
    assert sections["model"]["vocab_size"] is None  # taken from the vocab file
    ModelConfig.from_dict({**sections["model"], "vocab_size": 12})


@pytest.mark.parametrize("sidecar", [
    "5",
    "null",
    '{"n_heads": "2"}',
    '{"l_max": "x"}',
    '{"n_heads": true}',
])
def test_corrupt_checkpoint_config_exits_2(workdir, tmp_path, capsys, sidecar):
    ckpt = tmp_path / "m.vttc"
    ckpt.write_bytes((workdir / "init.vttc").read_bytes())
    value = json.loads(sidecar)
    if isinstance(value, dict):
        value = {**json.loads((workdir / "init.vttc.json").read_text()), **value}
    (tmp_path / "m.vttc.json").write_text(json.dumps(value))
    code = dispatch(["evaluate", "--checkpoint", str(ckpt),
                     "--manifest", str(workdir / "data" / "val.jsonl"),
                     "--vocab", str(workdir / "vocab.txt")])
    assert code == 2
    assert "m.vttc.json" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    ([], 1),
    (["bogus"], 1),
    (["train", "--val", "{d}/data/val.jsonl", "--vocab", "{d}/vocab.txt",
      "--out", "{t}/run"], 1),
    (["train", "--profile", "huge"], 1),
    (["synth-data", "--videos", "5", "--out", "{t}/data"], 2),
    (["synth-data", "--concepts", "1", "--out", "{t}/data"], 2),
    (["build-vocab", "--manifest", "{d}/data/train.jsonl", "--size", "3",
      "--out", "{t}/vocab.txt"], 2),
    (["train", "--train", "{d}/data/train.jsonl", "--val", "{t}/missing.jsonl",
      "--vocab", "{d}/vocab.txt", "--out", "{t}/run"], 2),
    (["caption", "--checkpoint", "{t}/missing.vttc", "--manifest", "{d}/data/val.jsonl",
      "--vocab", "{d}/vocab.txt", "--out", "{t}/caps.jsonl"], 2),
    (["evaluate", "--checkpoint", "{d}/init.vttc", "--manifest", "{t}/missing.jsonl",
      "--vocab", "{d}/vocab.txt"], 2),
])
def test_exit_codes(workdir, tmp_path, argv, code):
    assert dispatch([a.format(d=workdir, t=tmp_path) for a in argv]) == code
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("override", [
    {"run": {"batch_size": "16"}},
    {"model": {"d_model": "32"}},
])
def test_config_value_of_the_wrong_type_exits_1(workdir, tmp_path, capsys, override):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**override, "model": {**TINY_MODEL,
                                                        **override.get("model", {})}}))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["train", *args]) == 1
    assert "must be of type int" in capsys.readouterr().err


def test_config_type_rules():
    from vttcap.cli import _fits

    assert _fits(1e-4, 1) and _fits(1e-4, 0.5) and not _fits(1e-4, True)
    assert _fits(16, 16) and not _fits(16, True) and not _fits(16, 16.0)
    assert _fits(None, 30522) and _fits(None, "path") and _fits(None, 0.01)
    assert _fits({"a": 1}, {}) and not _fits({"a": 1}, [1]) and not _fits(True, 1)


def test_zero_heads_exits_2(workdir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {**TINY_MODEL, "n_heads": 0}}))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["train", *args]) == 2
    assert "n_heads" in capsys.readouterr().err


def test_negative_epochs_exit_2(workdir, tmp_path, capsys):
    args = run_args(workdir, tmp_path / "run")
    args[-1] = "-1"
    assert dispatch(["train", *args]) == 2
    assert "epochs" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


NOT_UTF8 = b"\xff\xfe{\"id\": \"v\"}\n"


@pytest.mark.parametrize("subcommand", ["score", "build-vocab", "evaluate"])
def test_non_utf8_input_exits_2(workdir, tmp_path, capsys, subcommand):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    argv = {
        "score": ["score", "--hyp", str(bad), "--refs", str(workdir / "data" / "val.jsonl")],
        "build-vocab": ["build-vocab", "--manifest", str(bad),
                        "--out", str(tmp_path / "vocab.txt")],
        "evaluate": ["evaluate", "--checkpoint", str(workdir / "init.vttc"),
                     "--manifest", str(workdir / "data" / "val.jsonl"), "--vocab", str(bad)],
    }[subcommand]
    assert dispatch(argv) == 2
    assert "utf-8" in capsys.readouterr().err
