"""The benchmark workloads: the vttcap CLI pipeline at two sizes.

Every workload runs the user's pipeline ``synth-data -> build-vocab ->
train -> finetune-scst -> evaluate`` through ``vttcap.cli.dispatch``, in
process, one stage after the other (a closed loop with one caller).  The
workloads differ in size and profile, so a different layer dominates each;
README.md gives the reasons.  Every stage is one operation: it fails when
it exits non-zero or when its output check finds a problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from vttcap.cli import dispatch, resolve_config
from vttcap.model import ModelConfig, TransformerModel, load_checkpoint
from vttcap.tokenizer import encode, load_vocab, truncate

from spans import Tracer

# Warmup of 10 steps, then one cosine cycle of 80 steps: a 5-epoch desk run
# (85 steps of batch 16) learns to emit EOS and ends annealed.  The cycle
# must not restart inside the run: a restart puts the last steps back at
# eta_max and makes the final validation loss jump.
DESK_SCHEDULE = {"warmup": 10, "eta_max": 0.01, "t0": 80}

# Shared CPUs slow a process down in bursts lasting seconds, so a stage of a
# few seconds runs this many times on the same inputs and the median counts.
REPEATS = 3
CONCEPTS = 4  # 90 training videos then cover nearly every concept pair
VOCAB_SIZE = 64


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    videos: int  # generated; the first train_videos train, the rest validate
    train_videos: int
    config: dict  # overrides of the profile, written to the CLI config file
    xe_epochs: int
    scst_videos: int  # the first ones train finetune-scst for one epoch
    scst_val_videos: int  # the first validation videos validate finetune-scst
    scst_repeats: int
    eval_all: bool  # evaluate on every video (else the validation videos)
    expect_learning: bool  # XE must lower validation loss and reach CIDEr-D > 0
    pad_vocab_to: int = 0


WORKLOADS = {
    "desk": Workload(
        name="desk", profile="desk", videos=120, train_videos=90,
        config={"schedule": DESK_SCHEDULE}, xe_epochs=5, scst_videos=45, scst_val_videos=10,
        scst_repeats=REPEATS, eval_all=True, expect_learning=True),
    "paper-xe": Workload(
        name="paper-xe", profile="paper", videos=10, train_videos=9,
        config={"run": {"batch_size": 9}, "reward": {"n_samples": 1}}, xe_epochs=1,
        scst_videos=1, scst_val_videos=1, scst_repeats=1, eval_all=False,
        expect_learning=False, pad_vocab_to=30522),
}

# Model overrides that shrink any profile to a smoke-test size.
_SMOKE_MODEL = {"n_enc": 1, "n_dec": 1, "n_heads": 2, "d_model": 16, "d_ff": 32,
                "d_memory": 4}


def smoke(w: Workload) -> Workload:
    """The same pipeline shape as ``w`` at a size that runs in seconds."""
    config = json.loads(json.dumps(w.config))
    config["model"] = dict(_SMOKE_MODEL)
    config["run"] = dict(config.get("run", {}), batch_size=8)
    config["reward"] = dict(config.get("reward", {}), n_samples=2)
    return replace(w, name=f"{w.name}-smoke", videos=10, train_videos=8, config=config,
                   xe_epochs=1, scst_videos=2, scst_val_videos=1, eval_all=False,
                   expect_learning=False,
                   pad_vocab_to=128 if w.pad_vocab_to else 0)


@dataclass
class Stage:
    """One CLI invocation and what its checks found."""

    command: str
    wall_s: float
    code: int
    output: dict | None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


@dataclass
class Dataset:
    dir: Path
    vocab: Path
    config: Path
    manifests: dict  # split -> (manifest path, videos)
    pairs: int
    tokens_per_epoch: int
    effective: dict  # the resolved CLI config
    setup_s: float  # wall time of the synth-data and build-vocab stages

    def path(self, split: str) -> Path:
        return self.manifests[split][0]

    def n(self, split: str) -> int:
        return self.manifests[split][1]


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class Pipeline:
    """Runs a workload's stages under ``root`` and records every invocation."""

    def __init__(self, w: Workload, seed: int, root: Path, tracer: Tracer | None = None):
        self.w = w
        self.seed = seed
        self.root = root
        self.tracer = tracer
        self.stages: list[Stage] = []
        self.expected: Counter = Counter()  # boundary calls the stages imply
        self._n_params: int | None = None  # of a model built from the workload config

    # -- running one stage

    def run(self, command: str, *argv, check=None) -> Stage:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{command}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch([command, *map(str, argv)])
        except Exception:  # an escaped error is a failed stage, not a dead benchmark
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        lines = out.getvalue().strip().splitlines()
        try:
            output = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            output = None
        stage = Stage(command, wall, code, output)
        if code != 0:
            stage.problems.append(f"exit {code}: {err.getvalue().strip()[-500:]}")
        elif check is not None:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                try:
                    check(stage)
                except Exception as exc:  # a check that cannot run is a failed check
                    stage.problems.append(f"check raised {exc!r}")
        self.stages.append(stage)
        return stage

    # -- set-up

    def make_data(self, tag: str) -> Dataset | None:
        """synth-data and build-vocab into a fresh directory, plus the manifests
        and config file the later stages read.  Only the two stages count
        toward ``Dataset.setup_s``: a user runs them, but not the
        benchmark's own manifest, padding and token-count work."""
        w = self.w
        d = self.root / tag
        d.mkdir(parents=True)
        config = d / "config.json"
        config.write_text(json.dumps({"profile": w.profile, **w.config}), encoding="utf-8")
        effective = resolve_config(str(config), None)
        split_val = max(1, round(w.videos * 0.1))

        def check_synth(s):
            if s.output is None or s.output.get("train") != w.videos - split_val:
                s.problems.append(f"synth-data reported {s.output}")

        st = self.run("synth-data", "--seed", self.seed, "--videos", w.videos,
                      "--concepts", CONCEPTS, "--d-vision", effective["model"]["d_vision"],
                      "--d-audio", effective["model"]["d_audio"], "--out", d / "data",
                      check=check_synth)
        if st.failed:
            return None
        self.expected["features.synth_dataset"] += 1
        rows = _read_jsonl(d / "data" / "train.jsonl") + _read_jsonl(d / "data" / "val.jsonl")
        n_train = w.train_videos
        splits = {"train": rows[:n_train], "val": rows[n_train:],
                  "scst_train": rows[:w.scst_videos],
                  "scst_val": rows[n_train:n_train + w.scst_val_videos],
                  "eval": rows if w.eval_all else rows[n_train:]}
        manifests = {}
        for split, part in splits.items():
            path = d / "data" / f"bench_{split}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in part), encoding="utf-8")
            manifests[split] = (path, len(part))
        vocab = d / "vocab.txt"

        def check_vocab(s):
            # build_vocab stops early when no pair is left to merge.
            if s.output is None or not 0 < s.output.get("size", 0) <= VOCAB_SIZE:
                s.problems.append(f"build-vocab reported {s.output}")

        vst = self.run("build-vocab", "--manifest", manifests["train"][0],
                       "--size", VOCAB_SIZE, "--out", vocab, check=check_vocab)
        if vst.failed:
            return None
        if w.pad_vocab_to:
            # No 30522-token vocabulary can be downloaded; pad the built one
            # with filler tokens the corpus never uses.
            tokens = vocab.read_text(encoding="utf-8").splitlines()
            tokens += [f"[unused{i}]" for i in range(w.pad_vocab_to - len(tokens))]
            vocab.write_text("\n".join(tokens) + "\n", encoding="utf-8")

        v = load_vocab(vocab)
        l_max = effective["model"]["l_max"]
        caps = [c for r in splits["train"] for c in r["captions"]]
        tokens = sum(len(truncate(encode(c, v), l_max, v)) - 1 for c in caps)
        return Dataset(dir=d, vocab=vocab, config=config, manifests=manifests,
                       pairs=len(caps), tokens_per_epoch=tokens, effective=effective,
                       setup_s=st.wall_s + vst.wall_s)

    # -- stage checks

    def _expected_params(self, ds: Dataset) -> int:
        if self._n_params is None:
            cfg = dict(ds.effective["model"], vocab_size=len(load_vocab(ds.vocab)))
            model = TransformerModel(ModelConfig.from_dict(cfg), init="zeros")
            self._n_params = model.n_parameters()
        return self._n_params

    def _check_run(self, s: Stage, ds: Dataset, out: Path, epochs: int, xe: bool) -> None:
        rows = _read_jsonl(out / "history.jsonl")
        if len(rows) != epochs + 1:
            s.problems.append(f"history has {len(rows)} rows, expected {epochs + 1}")
            return
        for r in rows[1:]:
            if not _finite(r.get("train_loss")):
                s.problems.append(f"non-finite train_loss in {r}")
        if xe:
            if not all(_finite(r.get("val_loss")) for r in rows):
                s.problems.append("non-finite val_loss in history")
            elif self.w.expect_learning:
                if not rows[-1]["val_loss"] < rows[0]["val_loss"]:
                    s.problems.append("validation loss did not fall below the untrained one")
                if not s.output.get("best_cider_d", 0.0) > 0.0:
                    s.problems.append("best CIDEr-D is 0")
        best = Path(s.output["best_checkpoint"])
        n, expected = load_checkpoint(best).n_parameters(), self._expected_params(ds)
        if n != expected:
            s.problems.append(f"best checkpoint has {n} parameters, expected {expected}")

    # -- pipeline stages

    def train(self, ds: Dataset, out: Path, epochs: int) -> Stage:
        def check(s):
            self._check_run(s, ds, out, epochs, xe=True)

        st = self.run("train", "--config", ds.config, "--train", ds.path("train"),
                      "--val", ds.path("val"),
                      "--vocab", ds.vocab, "--out", out, "--seed", self.seed,
                      "--epochs", epochs, check=check)
        bs = ds.effective["run"]["batch_size"]
        steps = epochs * math.ceil(ds.pairs / bs)
        validations = epochs + 1
        self.expected.update({
            "model.greedy_decode": validations * ds.n("val"),
            "training.batch_xe_loss": steps, "training.adam_update": steps,
            "training.clip_gradients": steps, "tensor.backward": steps,
            "model.save_checkpoint": validations, "training.evaluate": validations,
            "training.validation_loss": validations})
        return st

    def finetune_scst(self, ds: Dataset, init: Path, out: Path) -> Stage:
        epochs = 1
        bs = ds.effective["run"]["batch_size"]
        steps = epochs * math.ceil(ds.n("scst_train") / bs)
        trace_file = out.with_suffix(".trace.jsonl")

        def check(s):
            self._check_run(s, ds, out, epochs, xe=False)
            lines = _read_jsonl(trace_file)
            if len(lines) != steps:
                s.problems.append(f"SCST trace has {len(lines)} lines, expected {steps}")

        st = self.run("finetune-scst", "--config", ds.config, "--train", ds.path("scst_train"),
                      "--val", ds.path("scst_val"), "--vocab", ds.vocab, "--out", out,
                      "--seed", self.seed, "--epochs", epochs, "--init", init,
                      "--trace", trace_file, check=check)
        validations = epochs + 1
        rollouts = epochs * ds.n("scst_train")
        n_val = ds.n("scst_val")
        n_samples = ds.effective["reward"]["n_samples"]
        self.expected.update({
            "model.greedy_decode": 2 * validations * n_val + rollouts,
            "model.sample_decode": rollouts,
            "scst.scst_batch_step": steps, "training.adam_update": steps,
            "training.clip_gradients": steps, "tensor.backward": steps,
            "model.save_checkpoint": validations, "model.load_checkpoint": 1,
            "training.evaluate": validations, "scst.validation_mixed_reward": validations,
            "scst.mixed_reward": rollouts * (1 + n_samples) + validations * n_val})
        return st

    def evaluate(self, ds: Dataset, checkpoint: Path) -> Stage:
        def check(s):
            for key in ("bleu4", "cider", "cider_d"):
                if not _finite((s.output or {}).get(key)):
                    s.problems.append(f"evaluate output lacks a finite {key}: {s.output}")

        st = self.run("evaluate", "--checkpoint", checkpoint,
                      "--manifest", ds.path("eval"),
                      "--vocab", ds.vocab, check=check)
        self.expected.update({"model.greedy_decode": ds.n("eval"), "model.load_checkpoint": 1,
                              "training.evaluate": 1})
        return st


@dataclass
class PassResult:
    """End-to-end numbers of one timed pass; None where a stage failed."""

    xe_tokens_per_s: float | None = None
    xe_val_loss: float | None = None
    scst_videos_per_s: float | None = None
    greedy_captions_per_s: float | None = None


def timed_pass(p: Pipeline, ds: Dataset, tag: str) -> PassResult:
    """train -> finetune-scst -> evaluate; stops at the first failed stage."""
    w = p.w
    r = PassResult()
    out = p.root / tag / "xe"
    st = p.train(ds, out, w.xe_epochs)
    if st.failed:
        return r
    r.xe_tokens_per_s = w.xe_epochs * ds.tokens_per_epoch / st.wall_s
    r.xe_val_loss = _read_jsonl(out / "history.jsonl")[-1]["val_loss"]
    init = Path(st.output["best_checkpoint"])
    runs = [p.finetune_scst(ds, init, p.root / tag / f"scst{k}") for k in range(w.scst_repeats)]
    if any(st.failed for st in runs):
        return r
    r.scst_videos_per_s = ds.n("scst_train") / statistics.median(st.wall_s for st in runs)
    best = Path(runs[0].output["best_checkpoint"])
    runs = [p.evaluate(ds, best) for _ in range(REPEATS)]
    if any(st.failed for st in runs):
        return r
    r.greedy_captions_per_s = ds.n("eval") / statistics.median(st.wall_s for st in runs)
    return r


def median_of(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None
