"""CLI exit codes for usage errors, numeric failures, corrupt inputs,
malformed config and removed config keys; the config type rule and the
built-in profiles' values; ``caption``, ``score`` and atomic CLI outputs."""

import json
import re

import numpy as np
import pytest

from conftest import tiny_config, version1_checkpoint
from vttcap import tensor as T
from vttcap import training
from vttcap.cli import PROFILES, dispatch, resolve_config
from vttcap.features import write_feature_file
from vttcap.fileio import write_text
from vttcap.model import ModelConfig, TransformerModel, has_field_type, save_checkpoint
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
    (d / "data" / "empty.jsonl").write_text("\n")
    return d


def run_args(d, out):
    return ["--config", str(d / "config.json"), "--train", str(d / "data" / "train.jsonl"),
            "--val", str(d / "data" / "val.jsonl"), "--vocab", str(d / "vocab.txt"),
            "--out", str(out), "--epochs", "1"]


@pytest.mark.parametrize("command", ["train", "finetune-scst"])
def test_a_run_prints_where_its_artefacts_are(workdir, tmp_path, capsys, command):
    run = tmp_path / "run"
    extra = [] if command == "train" else ["--init", str(workdir / "init.vttc")]
    assert dispatch([command, *run_args(workdir, run), *extra]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["best_checkpoint"] == str(run / "checkpoints" / "best.vttc")
    assert printed["history"] == str(run / "history.jsonl")
    assert (run / "history.jsonl").is_file()


@pytest.mark.parametrize("command", ["train", "finetune-scst"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_training_loss_exits_3(workdir, tmp_path, monkeypatch, command, value):
    if command == "train":
        xe_step = training.batch_xe_loss
        monkeypatch.setattr(training, "batch_xe_loss", lambda *args: xe_step(*args) + value)
        extra = []
    else:
        monkeypatch.setattr("vttcap.scst.mixed_reward", lambda *args: value)
        extra = ["--init", str(workdir / "init.vttc")]
    run = tmp_path / "run"
    assert dispatch([command, *run_args(workdir, run), *extra]) == 3
    rows = [json.loads(line) for line in (run / "history.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [0]  # the row written before the failed step
    assert not list(run.rglob("*.tmp"))


@pytest.mark.parametrize("eta", [-1e-4, float("nan"), float("inf")])
def test_scst_eta_must_be_finite_and_non_negative(workdir, tmp_path, capsys, eta):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": TINY_MODEL, "reward": {"n_samples": 2, "eta": eta}}))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["finetune-scst", *args, "--init", str(workdir / "init.vttc")]) == 2
    assert "eta" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_evaluate_on_truncated_checkpoint_exits_2(workdir, tmp_path, capsys):
    ckpt = tmp_path / "cut.vttc"
    ckpt.write_bytes((workdir / "init.vttc").read_bytes()[:-3])
    (tmp_path / "cut.vttc.json").write_bytes((workdir / "init.vttc.json").read_bytes())
    code = dispatch(["evaluate", "--checkpoint", str(ckpt),
                     "--manifest", str(workdir / "data" / "val.jsonl"),
                     "--vocab", str(workdir / "vocab.txt")])
    assert code == 2
    assert re.search(r"cut\.vttc: truncated", capsys.readouterr().err)


@pytest.mark.parametrize("section, key, value", [
    ("schedule", "eta", 5e-6),
    ("schedule", "d_model", 99999),
    ("model", "dropout", 0.0),
    ("model", "use_memory_with_x_linear", True),
    ("schedule", "kind", "sgdr"),
    ("schedule", "t_mult", 2),
    ("schedule", "eta_min", None),
    ("reward", "lambda_cider", 1.0),
    ("reward", "lambda_bleu4", 1.0),
    ("reward", "temperature", 1.0),
    ("run", "eval_every", 0),
    ("model", "p_audio", 300),
    ("run", "out_dir", "run"),
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


RESOLVED = {
    "paper": {
        "model": {"n_enc": 8, "n_dec": 8, "n_heads": 8, "d_model": 512, "d_ff": 2048,
                  "d_memory": 64, "d_vision": 1024, "d_audio": 128, "l_max": 24,
                  "attention_kind": "memory_scaled_dot"},
        "schedule": {"warmup": 10000, "t0": 4000, "eta_max": None},
        "reward": {"n_samples": 5, "eta": 5e-6},
        "run": {"epochs": 50, "batch_size": 128, "seed": 7, "patience": 10},
    },
    "desk": {
        "model": {"n_enc": 2, "n_dec": 2, "n_heads": 4, "d_model": 32, "d_ff": 64,
                  "d_memory": 8, "d_vision": 32, "d_audio": 8, "l_max": 24,
                  "attention_kind": "memory_scaled_dot"},
        "schedule": {"warmup": 200, "t0": 400, "eta_max": None},
        "reward": {"n_samples": 5, "eta": 1e-4},
        "run": {"epochs": 30, "batch_size": 16, "seed": 7, "patience": 0},
    },
}


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_profiles_resolve_to_their_values(profile):
    cfg = resolve_config(None, profile)
    assert cfg == RESOLVED[profile]
    assert all(type(cfg[s][k]) is type(v) for s in cfg for k, v in RESOLVED[profile][s].items())
    ModelConfig(**cfg["model"], vocab_size=12)
    ScheduleConfig(**cfg["schedule"])
    RewardConfig(**cfg["reward"])
    TrainRunConfig(**cfg["run"])


@pytest.mark.parametrize("override, code", [
    ({"schedule": {"eta_max": "x"}}, 1),
    ({"schedule": {"t0": [1]}}, 1),
    ({"profile": [1]}, 1),
    ({"profile": "huge"}, 1),
    ({"model": {"vocab_size": 64}}, 1),
    ({"data": {"vocab": "vocab.txt"}}, 1),
    ({"model": {"n_enc": True}}, 1),
    ({"schedule": {"eta_max": 1}}, 0),
    ({"schedule": {"eta_max": None}}, 0),
])
def test_config_contract(workdir, tmp_path, override, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**override, "model": {**TINY_MODEL,
                                                        **override.get("model", {})}}))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["train", *args]) == code
    assert (tmp_path / "run").exists() == (code == 0)


@pytest.mark.parametrize("command, override, key", [
    ("train", {"reward": {"n_samples": 0}}, "n_samples"),
    ("train", {"reward": {"eta": -1.0}}, "eta"),
    ("finetune-scst", {"model": {"n_heads": 3}}, "n_heads"),
    ("finetune-scst", {"schedule": {"warmup": 0}}, "warmup"),
])
def test_every_section_is_checked(workdir, tmp_path, capsys, command, override, key):
    """An out-of-range value exits 2 and names its key, also in a section the
    command does not read."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(override))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    extra = ["--init", str(workdir / "init.vttc")] if command == "finetune-scst" else []
    assert dispatch([command, *args, *extra]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sidecar", [
    "5",
    "null",
    '{"n_heads": "2"}',
    '{"l_max": "x"}',
    '{"n_heads": true}',
    '{"vocab_size": 0}',
    '{"d_ff": 0}',
    '{"d_model": 65536, "n_heads": 1}',  # a model of 192 GiB that the file does not hold
    '{"l_max": 100000000}',  # a position table of 12 GiB
    '{"l_max": 1000000000000000}',  # one of 114 PiB
    '{"p_audio": 300}',  # a key that left the config: a sidecar written before
])
def test_corrupt_checkpoint_config_exits_2(workdir, tmp_path, capsys, monkeypatch, sidecar):
    def allocate(*args, **kwargs):
        raise AssertionError("a model was allocated before its sidecar was checked")

    monkeypatch.setattr(T, "ParamArena", allocate)
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
    err = capsys.readouterr().err
    assert "m.vttc.json" in err
    assert "p_audio" in err or "p_audio" not in sidecar


@pytest.mark.parametrize("argv, code", [
    ([], 1),
    (["bogus"], 1),
    (["train", "--val", "{d}/data/val.jsonl", "--vocab", "{d}/vocab.txt",
      "--out", "{t}/run"], 1),
    (["train", "--train", "{d}/data/train.jsonl", "--val", "{d}/data/val.jsonl",
      "--vocab", "{d}/vocab.txt", "--out", "{t}/run", "--profile", "desk"], 1),  # no such flag
    (["synth-data", "--videos", "5", "--out", "{t}/data"], 2),
    (["synth-data", "--concepts", "1", "--out", "{t}/data"], 2),
    (["synth-data", "--d-vision", "0", "--out", "{t}/data"], 2),
    (["synth-data", "--d-audio", "0", "--out", "{t}/data"], 2),
    (["build-vocab", "--manifest", "{d}/data/train.jsonl", "--size", "3",
      "--out", "{t}/vocab.txt"], 2),
    (["train", "--train", "{d}/data/train.jsonl", "--val", "{t}/missing.jsonl",
      "--vocab", "{d}/vocab.txt", "--out", "{t}/run"], 2),
    (["caption", "--checkpoint", "{t}/missing.vttc", "--manifest", "{d}/data/val.jsonl",
      "--vocab", "{d}/vocab.txt", "--out", "{t}/caps.jsonl"], 2),
    (["evaluate", "--checkpoint", "{d}/init.vttc", "--manifest", "{t}/missing.jsonl",
      "--vocab", "{d}/vocab.txt"], 2),
    (["evaluate", "--checkpoint", "{d}/init.vttc", "--manifest", "{d}/data/empty.jsonl",
      "--vocab", "{d}/vocab.txt"], 2),
    (["score", "--hyp", "{d}/data/empty.jsonl", "--refs", "{d}/data/empty.jsonl",
      "--out", "{t}/score.json"], 2),
])
def test_exit_codes(workdir, tmp_path, capsys, argv, code):
    assert dispatch([a.format(d=workdir, t=tmp_path) for a in argv]) == code
    assert list(tmp_path.iterdir()) == []
    # a manifest that lists no video is named as such
    assert ("empty.jsonl holds no videos" in capsys.readouterr().err) == \
        ("{d}/data/empty.jsonl" in argv)


@pytest.mark.parametrize("command", ["finetune-scst", "evaluate", "caption"])
def test_a_missing_manifest_is_reported_before_the_checkpoint_is_read(
        workdir, tmp_path, capsys, monkeypatch, command):
    def read(*args, **kwargs):
        raise AssertionError("a checkpoint was read before the manifests were parsed")

    monkeypatch.setattr("vttcap.model.load_checkpoint", read)
    missing = str(tmp_path / "missing.jsonl")
    if command == "finetune-scst":
        argv = [command, *run_args(workdir, tmp_path / "run"),
                "--init", str(workdir / "init.vttc")]
        argv[argv.index("--val") + 1] = missing
    else:
        argv = [command, "--checkpoint", str(workdir / "init.vttc"), "--manifest", missing,
                "--vocab", str(workdir / "vocab.txt"), "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 2
    assert "missing.jsonl" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["made", "gone/x.jsonl", "file/x.jsonl", ""])
@pytest.mark.parametrize("command", ["evaluate", "caption", "score", "build-vocab",
                                     "finetune-scst"])
def test_an_unwritable_out_is_reported_before_any_input_is_read(
        workdir, tmp_path, capsys, monkeypatch, command, out):
    """Each file a command writes, ``--out`` or ``finetune-scst``'s
    ``--trace``, is checked before any input is read; an empty path names
    no file, not "no output"."""
    def read(*args, **kwargs):
        raise AssertionError("a checkpoint was read before the output was checked")

    monkeypatch.setattr("vttcap.model.load_checkpoint", read)
    (tmp_path / "made").mkdir()
    (tmp_path / "file").write_text("")
    missing = str(tmp_path / "missing")  # an input read first would fail
    flag = "--trace" if command == "finetune-scst" else "--out"
    inputs = {
        "score": ["--hyp", missing, "--refs", missing],
        "build-vocab": ["--manifest", missing],
        "finetune-scst": ["--config", missing, "--train", missing, "--val", missing,
                          "--vocab", missing, "--init", missing, "--out", str(tmp_path / "run")],
    }.get(command, ["--checkpoint", missing, "--manifest", missing, "--vocab", missing])
    target = out and str(tmp_path / out)
    assert dispatch([command, *inputs, flag, target]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} {target}: not a file in an existing directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "made"]


@pytest.mark.parametrize("command", ["train", "finetune-scst"])
def test_a_run_needs_out_and_makes_nothing_without_it(workdir, tmp_path, capsys, monkeypatch,
                                                      command):
    """No run directory is assumed, so an SCST run cannot overwrite the XE
    run it starts from by sharing a default with it."""
    monkeypatch.chdir(tmp_path)
    argv = [command, *run_args(workdir, "unused")]
    del argv[argv.index("--out"):argv.index("--out") + 2]
    if command == "finetune-scst":
        argv += ["--init", str(workdir / "init.vttc")]
    assert dispatch(argv) == 1
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out, blocker", [("file", "file"), ("file/run", "file"),
                                          ("gone/run", None), ("", None)])
@pytest.mark.parametrize("command", ["train", "finetune-scst"])
def test_an_unusable_run_directory_is_reported_before_any_input_is_read(
        workdir, tmp_path, capsys, monkeypatch, command, out, blocker):
    """The run directory comes only from ``--out``, so it is checked before
    any input, the config file included; a missing parent is no error, since
    the run makes it, and an empty ``--out`` names no directory, not the
    current one."""
    def read(*args, **kwargs):
        raise AssertionError("a checkpoint was read before --out was checked")

    monkeypatch.setattr("vttcap.model.load_checkpoint", read)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    extra = [] if command == "train" else ["--init", str(workdir / "init.vttc")]
    argv = [command, *run_args(workdir, out and tmp_path / out), *extra]
    for flag in ("--config", "--train", "--val", "--vocab"):  # an input read first would fail
        argv[argv.index(flag) + 1] = str(tmp_path / "missing")
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    if blocker:
        assert err == f"error: --out {tmp_path / out}: {tmp_path / blocker} is not a directory\n"
    elif not out:
        assert err == "error: --out '': not a directory name\n"
    else:
        assert err.startswith("error: ") and "missing" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("out, err", [
    ("file", "--out {t}/file: {t}/file is not a directory"),
    ("file/sub", "--out {t}/file/sub: {t}/file is not a directory"),
    ("", "--out '': not a directory name"),  # not the current directory
])
def test_synth_data_reports_an_unusable_out_before_writing(tmp_path, capsys, monkeypatch,
                                                           out, err):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    assert dispatch(["synth-data", "--videos", "10", "--out", out and str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == f"error: {err.format(t=tmp_path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("trace", ["trace.jsonl", "logs/trace.jsonl"])
def test_a_trace_inside_a_new_run_directory_gets_one_line_per_step(workdir, tmp_path, trace):
    """The run makes its directory, and the trace's with it, so a first run
    may keep its trace inside it."""
    run = tmp_path / "runs" / "scst"
    assert dispatch(["finetune-scst", *run_args(workdir, run), "--init",
                     str(workdir / "init.vttc"), "--trace", str(run / trace)]) == 0
    steps = json.loads((run / "history.jsonl").read_text().splitlines()[-1])["step"]
    lines = (run / trace).read_text().splitlines()
    assert steps >= 1 and [json.loads(line)["step"] for line in lines] == [*range(1, steps + 1)]


def test_a_trace_inside_the_run_directory_under_a_file_exits_2(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "logs").write_text("")
    trace = run / "logs" / "trace.jsonl"
    assert dispatch(["finetune-scst", *run_args(workdir, run), "--init",
                     str(tmp_path / "missing.vttc"), "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --trace {trace}: {run / 'logs'} is not a directory\n"
    assert [p.name for p in run.iterdir()] == ["logs"]


@pytest.mark.parametrize("out", ["made", "gone/v.txt", "file/v.txt"])
def test_a_failed_write_names_the_file_not_its_temporary(tmp_path, out):
    """Every command checks its outputs before it writes them, so the write
    that the CLI reports as ``error: <OSError>`` is called directly."""
    (tmp_path / "made").mkdir()
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError) as failed:
        write_text(tmp_path / out, "a\n")
    assert re.fullmatch(rf"\[Errno \d+\] [^:]+: '{re.escape(str(tmp_path / out))}'",
                        str(failed.value))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "made"]


def test_evaluate_on_a_version_1_checkpoint_exits_2(workdir, tmp_path, capsys):
    vocab = load_vocab(workdir / "vocab.txt")
    old = tmp_path / "old.vttc"
    old.write_bytes(version1_checkpoint(TransformerModel(tiny_config(vocab_size=len(vocab)))))
    (tmp_path / "old.vttc.json").write_bytes((workdir / "init.vttc.json").read_bytes())
    assert dispatch(["evaluate", "--checkpoint", str(old),
                     "--manifest", str(workdir / "data" / "val.jsonl"),
                     "--vocab", str(workdir / "vocab.txt")]) == 2
    assert re.search(r"old\.vttc: unsupported checkpoint version 1\b", capsys.readouterr().err)


@pytest.mark.parametrize("frames_shape, audio_shape, problem", [
    ((6, 4), None, "frame dim 4 != d_vision 5"),
    ((301, 5), (2, 3), "301 frame rows exceed the audio offset P_AUDIO=300"),
    ((6, 5), (2, 2), "audio dim 2 != d_audio 3"),
])
@pytest.mark.parametrize("command", ["evaluate", "caption", "train", "finetune-scst"])
def test_a_video_that_does_not_fit_the_model_is_named(workdir, tmp_path, capsys, command,
                                                      frames_shape, audio_shape, problem):
    """A manifest's second video does not fit the checkpoint's model: the
    error names its id and frame file, and the command exits 2 having
    written nothing."""
    entries = [json.loads(line) for line in
               (workdir / "data" / "train.jsonl").read_text().splitlines()[:2]]
    for e in entries:  # the manifest lives in tmp_path; its files stay in workdir
        for key in ("frame_file", "audio_file"):
            if e[key]:
                e[key] = str(workdir / "data" / e[key])
    bad = entries[1]
    bad["frame_file"] = "bad_frames.npy"
    write_feature_file(tmp_path / bad["frame_file"], np.ones(frames_shape, np.float32))
    bad["audio_file"] = audio_shape and "bad_audio.npy"
    if audio_shape:
        write_feature_file(tmp_path / bad["audio_file"], np.ones(audio_shape, np.float32))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
    out = tmp_path / "out"
    if command in ("evaluate", "caption"):
        argv = [command, "--checkpoint", str(workdir / "init.vttc"), "--manifest",
                str(manifest), "--vocab", str(workdir / "vocab.txt"), "--out", str(out)]
    else:
        argv = [command, *run_args(workdir, out)]
        argv[argv.index("--train") + 1] = str(manifest)
        if command == "finetune-scst":
            argv += ["--init", str(workdir / "init.vttc")]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"video {bad['id']!r} ({tmp_path / 'bad_frames.npy'}): {problem}" in err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "[1, 2]",
    '"str"',
    '{"id": [1], "frame_file": "f.npy", "audio_file": null, "captions": ["a cat"]}',
    '{"id": "v1", "frame_file": 5, "audio_file": null, "captions": ["a cat"]}',
    # a lone surrogate is valid JSON, but UTF-8 cannot write it to the vocabulary
    '{"id": "v1", "frame_file": "f.npy", "audio_file": null, "captions": ["a \\ud800 cat"]}',
])
def test_malformed_manifest_exits_2(tmp_path, capsys, line):
    (tmp_path / "f.npy").write_bytes(b"")
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
    from vttcap import training
    from vttcap.errors import FormatError

    _, common = trained
    out = tmp_path / "caps.jsonl"
    assert dispatch(["caption", *common, "--out", str(out)]) == 0
    before = out.read_bytes()
    calls = []
    decode = training.greedy_decode

    def failing_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise FormatError("frames unreadable")
        return decode(*args, **kwargs)

    monkeypatch.setattr(training, "greedy_decode", failing_third)
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


def test_deeply_nested_hypothesis_exits_2(workdir, tmp_path, capsys):
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("[" * 100_000 + "\n")
    assert dispatch(["score", "--hyp", str(hyp), "--refs", str(workdir / "data" / "val.jsonl")]) == 2
    assert "hyp.jsonl:1" in capsys.readouterr().err


def test_deeply_nested_config_exits_2(workdir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[" * 100_000)
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["train", *args]) == 2
    assert "config.json" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("cls, key, value, fits", [
    (RewardConfig, "eta", 1e-4, True),
    (RewardConfig, "eta", 1, True),  # an int counts as a float
    (RewardConfig, "eta", True, False),  # a bool never counts as a number
    (RewardConfig, "eta", None, False),
    (RewardConfig, "eta", "1e-4", False),
    (TrainRunConfig, "batch_size", 16, True),
    (TrainRunConfig, "batch_size", 16.0, False),
    (TrainRunConfig, "batch_size", True, False),
    (TrainRunConfig, "batch_size", None, False),
    (ScheduleConfig, "eta_max", 0.01, True),
    (ScheduleConfig, "eta_max", 1, True),
    (ScheduleConfig, "eta_max", None, True),  # the annotation allows None
    (ScheduleConfig, "eta_max", [1], False),
    (ScheduleConfig, "eta_max", False, False),
    (ModelConfig, "attention_kind", "x_linear", True),
    (ModelConfig, "attention_kind", None, False),
    (ModelConfig, "n_heads", 2, True),
    (ModelConfig, "n_heads", {"a": 1}, False),
])
def test_config_type_rule(cls, key, value, fits):
    assert has_field_type(cls, key, value) is fits


def test_zero_heads_exits_2(workdir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {**TINY_MODEL, "n_heads": 0}}))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["train", *args]) == 2
    assert "n_heads" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("model", "d_ff", 0), ("model", "d_vision", 0), ("model", "d_audio", 0),
    ("model", "n_enc", 0), ("model", "n_enc", -1), ("model", "n_dec", 0),
    ("model", "l_max", -1), ("run", "patience", -1),
    ("schedule", "eta_max", -0.01), ("schedule", "eta_max", float("nan")),
    ("schedule", "eta_max", float("inf")),
])
def test_out_of_range_size_exits_2(workdir, tmp_path, capsys, section, key, value):
    config = tmp_path / "config.json"
    layer = {"model": dict(TINY_MODEL)}
    layer.setdefault(section, {})[key] = value
    config.write_text(json.dumps(layer))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["train", *args]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_model_too_large_to_allocate_exits_2(workdir, tmp_path, capsys):
    # 10**15 positions of encoding need petabytes: the allocation fails at once
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {**TINY_MODEL, "l_max": 10**15}}))
    args = run_args(workdir, tmp_path / "run")
    args[1] = str(config)
    assert dispatch(["train", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


def test_negative_epochs_exit_2(workdir, tmp_path, capsys):
    args = run_args(workdir, tmp_path / "run")
    args[-1] = "-1"
    assert dispatch(["train", *args]) == 2
    assert "epochs" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


NOT_UTF8 = b"\xff\xfe{\"id\": \"v\"}\n"


@pytest.mark.parametrize("subcommand", ["train", "score", "build-vocab", "evaluate", "sidecar"])
def test_non_utf8_input_exits_2(workdir, tmp_path, capsys, subcommand):
    """Each text input (--config, --hyp, --manifest, --vocab and a
    checkpoint's sidecar) that is not UTF-8 is named on stderr."""
    bad = tmp_path / ("m.vttc.json" if subcommand == "sidecar" else "bad.txt")
    bad.write_bytes(NOT_UTF8)
    (tmp_path / "m.vttc").write_bytes((workdir / "init.vttc").read_bytes())
    evaluate = ["evaluate", "--checkpoint", str(tmp_path / "m.vttc"),
                "--manifest", str(workdir / "data" / "val.jsonl")]
    argv = {
        "train": ["train", *run_args(workdir, tmp_path / "run")[2:], "--config", str(bad)],
        "score": ["score", "--hyp", str(bad), "--refs", str(workdir / "data" / "val.jsonl")],
        "build-vocab": ["build-vocab", "--manifest", str(bad),
                        "--out", str(tmp_path / "vocab.txt")],
        "evaluate": [*evaluate, "--vocab", str(bad)],
        "sidecar": [*evaluate, "--vocab", str(workdir / "vocab.txt")],
    }[subcommand]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "utf-8" in err and str(bad) in err
