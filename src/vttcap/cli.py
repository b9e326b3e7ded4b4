"""Command-line pipeline: data generation, vocab, training, captioning, scoring.

One subcommand per pipeline stage; a JSON config file (based on the built-in
``paper`` or ``desk`` profile) is the source of truth and individual flags
override single keys.  Exit codes: 0 success, 1 usage error, 2 data/format
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

from .errors import CapacityError, ContractError, DataError, DimensionError, \
    FormatError, TrainingError, VttError
from .features import load_manifest, synth_dataset
from .fileio import atomic_path
from .metrics import score_corpus
from .model import ModelConfig, TransformerModel, greedy_decode, load_checkpoint_for
from .scst import RewardConfig, finetune_scst
from .tokenizer import build_vocab, decode, load_vocab, normalize_words, save_vocab
from .training import ScheduleConfig, TrainRunConfig, evaluate, train_xe


class UsageError(VttError):
    pass


# Built-in profiles.  «paper» records the published-scale configuration (it
# constructs, but training it is not a laptop job); «desk» is the fast profile
# used by the test suite.  vocab_size null means "derive from the vocab file".
PROFILES = {
    "paper": {
        "model": {"n_enc": 8, "n_dec": 8, "n_heads": 8, "d_model": 512,
                  "d_ff": 2048, "d_memory": 64, "vocab_size": None,
                  "d_vision": 1024, "d_audio": 128, "p_audio": 300, "l_max": 24,
                  "attention_kind": "memory_scaled_dot",
                  "use_memory_with_x_linear": True, "dropout": 0.0},
        "schedule": {"kind": "sgdr", "d_model": 512, "warmup": 10000,
                     "t0": 4000, "t_mult": 2, "eta_max": None, "eta_min": None},
        "reward": {"lambda_cider": 1.0, "lambda_bleu4": 1.0, "n_samples": 5,
                   "eta": 5e-6, "temperature": 1.0},
        "run": {"epochs": 50, "batch_size": 128, "seed": 7, "eval_every": 0,
                "patience": 10, "out_dir": "run"},
        "data": {"train_manifest": None, "val_manifest": None, "vocab": None},
    },
    "desk": {
        "model": {"n_enc": 2, "n_dec": 2, "n_heads": 4, "d_model": 32,
                  "d_ff": 64, "d_memory": 8, "vocab_size": None,
                  "d_vision": 32, "d_audio": 8, "p_audio": 300, "l_max": 24,
                  "attention_kind": "memory_scaled_dot",
                  "use_memory_with_x_linear": True, "dropout": 0.0},
        "schedule": {"kind": "sgdr", "d_model": 32, "warmup": 200,
                     "t0": 400, "t_mult": 2, "eta_max": None, "eta_min": None},
        "reward": {"lambda_cider": 1.0, "lambda_bleu4": 1.0, "n_samples": 5,
                   "eta": 1e-4, "temperature": 1.0},
        "run": {"epochs": 30, "batch_size": 16, "seed": 7, "eval_every": 0,
                "patience": 0, "out_dir": "run"},
        "data": {"train_manifest": None, "val_manifest": None, "vocab": None},
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise UsageError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def resolve_config(config_path: str | None, profile: str | None) -> dict:
    """Profile defaults overlaid with the config file (which may name its
    own base profile via a top-level "profile" key)."""
    file_cfg = {}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise FormatError(f"{config_path}: config must be a JSON object")
    name = profile or file_cfg.pop("profile", None) or "desk"
    if profile and "profile" in file_cfg:
        file_cfg.pop("profile")
    if name not in PROFILES:
        raise UsageError(f"unknown profile {name!r} (have {sorted(PROFILES)})")
    return _merge(PROFILES[name], file_cfg)


def _apply_flag_overrides(cfg: dict, args) -> dict:
    data = cfg["data"]
    for flag, key in (("train", "train_manifest"), ("val", "val_manifest"),
                      ("vocab", "vocab")):
        value = getattr(args, flag, None)
        if value is not None:
            data[key] = value
    if getattr(args, "out", None) is not None:
        cfg["run"]["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        cfg["run"]["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        cfg["run"]["epochs"] = args.epochs
    env_seed = os.environ.get("VTT_SEED")
    if env_seed is not None:
        try:
            cfg["run"]["seed"] = int(env_seed)
        except ValueError as exc:
            raise UsageError(f"VTT_SEED must be an integer, got {env_seed!r}") from exc
    return cfg


def _require_paths(cfg: dict, *keys) -> None:
    for key in keys:
        value = cfg["data"].get(key)
        if not value:
            raise UsageError(f"missing required data path {key!r} "
                             "(set it in the config file or by flag)")
        if not Path(value).exists():
            raise FormatError(f"{key} path does not exist: {value}")


def _build_model_pieces(cfg: dict):
    vocab = load_vocab(cfg["data"]["vocab"])
    model_cfg = dict(cfg["model"])
    if model_cfg.get("vocab_size") is None:
        model_cfg["vocab_size"] = len(vocab)
    elif model_cfg["vocab_size"] != len(vocab):
        raise FormatError(f"config vocab_size {model_cfg['vocab_size']} does not "
                          f"match vocabulary of {len(vocab)} tokens")
    schedule = dict(cfg["schedule"])
    schedule["d_model"] = model_cfg["d_model"]
    return vocab, ModelConfig.from_dict(model_cfg), ScheduleConfig(**schedule), \
        TrainRunConfig(**cfg["run"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_data(args) -> int:
    train, val = synth_dataset(seed=args.seed, n_videos=args.videos,
                               n_concepts=args.concepts, d_vision=args.d_vision,
                               d_audio=args.d_audio, out_dir=args.out)
    print(json.dumps({"train": len(train), "val": len(val),
                      "out_dir": str(args.out)}))
    return 0


def cmd_build_vocab(args) -> int:
    manifest = load_manifest(args.manifest)
    corpus = [cap for e in manifest.entries for cap in e.captions]
    vocab = build_vocab(corpus, args.size)
    save_vocab(vocab, args.out)
    print(json.dumps({"size": len(vocab), "out": str(args.out)}))
    return 0


def cmd_train(args) -> int:
    cfg = _apply_flag_overrides(resolve_config(args.config, args.profile), args)
    _require_paths(cfg, "train_manifest", "val_manifest", "vocab")
    vocab, model_cfg, sched, run = _build_model_pieces(cfg)
    train = load_manifest(cfg["data"]["train_manifest"], "train")
    val = load_manifest(cfg["data"]["val_manifest"], "val")
    model = TransformerModel(model_cfg, seed=run.seed)
    result = train_xe(model, vocab, train, val, sched, run)
    print(json.dumps({"best_epoch": result.best_epoch,
                      "best_cider_d": result.best_cider_d,
                      "best_checkpoint": str(result.best_path),
                      "history": str(Path(run.out_dir) / "history.jsonl")}))
    return 0


def cmd_finetune_scst(args) -> int:
    cfg = _apply_flag_overrides(resolve_config(args.config, args.profile), args)
    _require_paths(cfg, "train_manifest", "val_manifest", "vocab")
    vocab = load_vocab(cfg["data"]["vocab"])
    train = load_manifest(cfg["data"]["train_manifest"], "train")
    val = load_manifest(cfg["data"]["val_manifest"], "val")
    rc = RewardConfig(**cfg["reward"])
    run = TrainRunConfig(**cfg["run"])
    result = finetune_scst(args.init, train, val, vocab, rc, run,
                           trace_path=args.trace)
    print(json.dumps({"best_epoch": result.best_epoch,
                      "best_cider_d": result.best_cider_d,
                      "best_checkpoint": str(result.best_path),
                      "history": str(Path(run.out_dir) / "history.jsonl")}))
    return 0


def cmd_caption(args) -> int:
    vocab = load_vocab(args.vocab)
    model = load_checkpoint_for(args.checkpoint, vocab)
    manifest = load_manifest(args.manifest)
    with atomic_path(args.out) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for sample in manifest.load_samples():
            ids = greedy_decode(model, sample.frames, sample.audio,
                                vocab.bos_id, vocab.eos_id, model.cfg.l_max)
            fh.write(json.dumps({"id": sample.id,
                                 "caption": decode(ids, vocab)}) + "\n")
    print(json.dumps({"captions": len(manifest), "out": str(args.out)}))
    return 0


def cmd_evaluate(args) -> int:
    vocab = load_vocab(args.vocab)
    model = load_checkpoint_for(args.checkpoint, vocab)
    manifest = load_manifest(args.manifest)
    report = evaluate(model, manifest.load_samples(), vocab)
    return _report(report, args.out)


def cmd_score(args) -> int:
    hyps = {}
    with open(args.hyp, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if not (isinstance(obj, dict) and isinstance(obj.get("id"), str)
                    and isinstance(obj.get("caption"), str)):
                raise FormatError(f"{args.hyp}:{lineno}: needs an object with string "
                                  "id and caption fields")
            if obj["id"] in hyps:
                raise FormatError(f"{args.hyp}:{lineno}: duplicate id {obj['id']!r}")
            hyps[obj["id"]] = obj["caption"]
    refs_manifest = load_manifest(args.refs)
    candidates = []
    refs_corpus = []
    for e in refs_manifest.entries:
        if e.id not in hyps:
            raise FormatError(f"no hypothesis for video {e.id!r}")
        candidates.append(normalize_words(hyps[e.id]))
        refs_corpus.append([normalize_words(c) for c in e.captions])
    return _report(score_corpus(candidates, refs_corpus), args.out)


def _report(report, out) -> int:
    """Print the metric report, and write it to ``out`` too when given."""
    payload = json.dumps(report.as_dict())
    if out:
        with atomic_path(out) as tmp:
            tmp.write_text(payload + "\n", encoding="utf-8")
    print(payload)
    return 0


# ---------------------------------------------------------------------------
# dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="vttcap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--videos", type=int, default=100)
    p.add_argument("--concepts", type=int, default=8)
    p.add_argument("--d-vision", type=int, default=32)
    p.add_argument("--d-audio", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("build-vocab", help="build a WordPiece vocabulary")
    p.add_argument("--manifest", required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_vocab)

    for name, fn in (("train", cmd_train), ("finetune-scst", cmd_finetune_scst)):
        p = sub.add_parser(name, help=f"{name} on a dataset")
        p.add_argument("--config")
        p.add_argument("--profile", choices=sorted(PROFILES))
        p.add_argument("--train")
        p.add_argument("--val")
        p.add_argument("--vocab")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)
        if name == "finetune-scst":
            p.add_argument("--init", required=True, help="XE checkpoint to start from")
            p.add_argument("--trace", help="per-step reward trace (JSON lines)")
        p.set_defaults(fn=fn)

    p = sub.add_parser("caption", help="greedy-decode captions for a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_caption)

    p = sub.add_parser("evaluate", help="decode and score a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("score", help="score a caption file against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_score)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, DataError, CapacityError, ContractError, DimensionError,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
