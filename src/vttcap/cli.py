"""Command-line pipeline: data generation, vocab, training, captioning, scoring.

One subcommand per pipeline stage.  The commands load every input: they turn
the paths of manifests, vocabularies and checkpoints into a model and the
videos it reads, and hand those to ``training`` and ``scst``, which read no
input file.  Every command checks every path it writes before it reads any
input: a file (``--out``, ``--trace``) must not be a directory and its parent
must be one; for a directory the command makes (``--out`` of ``synth-data``,
``train`` and ``finetune-scst``), and for the parent of a ``--trace`` inside
the run directory, which the run makes too, the first of it and its parents
to exist must be a directory.  Manifests are parsed before a checkpoint is
read, and their videos, checked against the model, are read last.
``train`` and ``finetune-scst`` read a JSON config file with one section per
config dataclass (``model``, ``schedule``, ``reward``, ``run``); the
dataclass fields are its keys, their annotations its types and their
defaults the ``paper`` profile.  The file may name a base profile
(``desk`` if it names none) and overrides single keys of it; the ``--seed``
and ``--epochs`` flags override the file.  It holds run settings only: every
path comes from a flag, and the model's vocabulary size from the vocabulary
file.  Exit codes: 0 success, 1 usage error, 2 data/format error (a file that
is not UTF-8 text among them) or a model too large to allocate, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .errors import FormatError, TrainingError, VttError
from .features import load_manifest, synth_dataset
from .fileio import read_json, read_json_lines, write_text
from .metrics import reference_tables, score_corpus
from .model import ModelConfig, TransformerModel, has_field_type, load_checkpoint_for
from .scst import RewardConfig, finetune_scst
from .tokenizer import build_vocab, load_vocab, normalize_words, save_vocab
from .training import ScheduleConfig, TrainRunConfig, evaluate, greedy_texts, train_xe


class UsageError(VttError):
    pass


SECTIONS = {"model": ModelConfig, "schedule": ScheduleConfig, "reward": RewardConfig,
            "run": TrainRunConfig}

# Built-in profiles as overrides of the dataclass defaults.  «paper» is the
# published-scale configuration (it constructs, but training it is not a
# laptop job); «desk» is the fast profile used by the test suite.
PROFILES = {
    "paper": {},
    "desk": {
        "model": {"n_enc": 2, "n_dec": 2, "n_heads": 4, "d_model": 32, "d_ff": 64,
                  "d_memory": 8, "d_vision": 32, "d_audio": 8},
        "schedule": {"warmup": 200, "t0": 400},
        "reward": {"eta": 1e-4},
        "run": {"epochs": 30, "batch_size": 16, "patience": 0},
    },
}


def _overlay(cfg: dict, layer: dict) -> None:
    """Set the keys of ``layer`` in ``cfg``, each a known key of its section
    holding a value of its field's type."""
    for section, values in layer.items():
        if section not in cfg:
            raise UsageError(f"unknown config key {section!r}")
        if not isinstance(values, dict):
            raise UsageError(f"config key {section!r} must be an object, got {values!r}")
        cls = SECTIONS[section]
        for key, value in values.items():
            where = f"{section}.{key}"
            if key not in cfg[section]:
                raise UsageError(f"unknown config key {where!r}")
            if not has_field_type(cls, key, value):
                hint = next(f.type for f in fields(cls) if f.name == key)
                raise UsageError(f"config key {where!r} must be of type {hint}, "
                                 f"got {value!r}")
            cfg[section][key] = value


def resolve_config(config_path: str | None, profile: str | None) -> dict:
    """The dataclass defaults overlaid with a profile, then with the config
    file, which may name its own base profile by a top-level "profile" key;
    ``profile`` overrides that.  One dict per section, each checked by its
    dataclass whether or not the command reads it."""
    file_cfg = read_json(config_path) if config_path else {}
    if not isinstance(file_cfg, dict):
        raise FormatError(f"{config_path}: config must be a JSON object")
    name = file_cfg.pop("profile", "desk")
    if not isinstance(name, str):
        raise UsageError(f"config key 'profile' must be of type str, got {name!r}")
    name = profile or name
    if name not in PROFILES:
        raise UsageError(f"unknown profile {name!r} (have {sorted(PROFILES)})")
    cfg = {section: {f.name: f.default for f in fields(cls)}
           for section, cls in SECTIONS.items()}
    del cfg["model"]["vocab_size"]  # set by the vocabulary file
    _overlay(cfg, PROFILES[name])
    _overlay(cfg, file_cfg)
    for section, cls in SECTIONS.items():
        cls(**cfg[section])
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_data(args) -> int:
    _check_out_dir(args.out)
    train, val = synth_dataset(seed=args.seed, n_videos=args.videos,
                               n_concepts=args.concepts, d_vision=args.d_vision,
                               d_audio=args.d_audio, out_dir=args.out)
    print(json.dumps({"train": len(train), "val": len(val),
                      "out_dir": str(args.out)}))
    return 0


def cmd_build_vocab(args) -> int:
    _check_out_file(args.out)
    manifest = load_manifest(args.manifest)
    corpus = [cap for e in manifest.entries for cap in e.captions]
    vocab = build_vocab(corpus, args.size)
    save_vocab(vocab, args.out)
    print(json.dumps({"size": len(vocab), "out": str(args.out)}))
    return 0


def cmd_fit(args) -> int:
    """``train``: XE from a freshly initialised model; ``finetune-scst``: SCST
    from the ``--init`` checkpoint."""
    _check_out_dir(args.out)
    out = Path(args.out)
    if args.command == "finetune-scst":
        _check_out_file(args.trace, "--trace", run_dir=out)
    cfg = resolve_config(args.config, None)
    flags = {"seed": args.seed, "epochs": args.epochs}  # laid over the ``run`` section
    run = TrainRunConfig(**{**cfg["run"], **{k: v for k, v in flags.items() if v is not None}})
    vocab = load_vocab(args.vocab)
    manifests = load_manifest(args.train), load_manifest(args.val)
    if args.command == "train":
        model = TransformerModel(ModelConfig(**cfg["model"], vocab_size=len(vocab)), seed=run.seed)
    else:
        model = load_checkpoint_for(args.init, vocab)
    train, val = (m.load_samples(model.cfg.check_video) for m in manifests)
    if args.command == "train":
        result = train_xe(model, vocab, train, val, ScheduleConfig(**cfg["schedule"]), run, out)
    else:
        result = finetune_scst(model, vocab, train, val, RewardConfig(**cfg["reward"]), run,
                               out, trace_path=args.trace)
    print(json.dumps({"best_epoch": result.best_epoch,
                      "best_cider_d": result.best_cider_d,
                      "best_checkpoint": str(result.best_path),
                      "history": str(result.history_path)}))
    return 0


def cmd_decode(args) -> int:
    """``caption``: write each video's greedy caption to ``--out``;
    ``evaluate``: score those captions against the manifest's references."""
    _check_out_file(args.out)
    vocab = load_vocab(args.vocab)
    manifest = load_manifest(args.manifest)
    model = load_checkpoint_for(args.checkpoint, vocab)
    samples = manifest.load_samples(model.cfg.check_video)
    if args.command == "evaluate":
        return _report(evaluate(model, samples, vocab,
                                reference_tables(s.captions for s in samples)), args.out)
    texts = greedy_texts(model, samples, vocab)
    write_text(args.out, "".join(json.dumps({"id": s.id, "caption": text}) + "\n"
                                 for s, text in zip(samples, texts)))
    print(json.dumps({"captions": len(samples), "out": str(args.out)}))
    return 0


def cmd_score(args) -> int:
    _check_out_file(args.out)
    hyps = {}
    for where, obj in read_json_lines(args.hyp):
        if not (isinstance(obj, dict) and isinstance(obj.get("id"), str)
                and isinstance(obj.get("caption"), str)):
            raise FormatError(f"{where}: needs an object with string id and caption fields")
        if obj["id"] in hyps:
            raise FormatError(f"{where}: duplicate id {obj['id']!r}")
        hyps[obj["id"]] = obj["caption"]
    entries = load_manifest(args.refs).entries
    for e in entries:
        if e.id not in hyps:
            raise FormatError(f"no hypothesis for video {e.id!r}")
    candidates = [normalize_words(hyps[e.id]) for e in entries]
    return _report(score_corpus(candidates, reference_tables(e.captions for e in entries)),
                   args.out)


def _check_out_dir(out, flag: str = "--out", given=None) -> None:
    """Fail unless ``out`` is not empty and the first of it and its parents to
    exist is a directory: the command makes the rest.  The error names
    ``flag`` with its value, ``given`` or else ``out``."""
    if not out:
        raise NotADirectoryError(f"{flag} '': not a directory name")
    out = Path(out)
    base = next((p for p in (out, *out.parents) if p.exists()), out)
    if not base.is_dir():
        raise NotADirectoryError(f"{flag} {given or out}: {base} is not a directory")


def _check_out_file(out, flag: str = "--out", run_dir=None) -> None:
    """Fail unless ``out``, given as ``flag``, is None or a file in an existing
    directory or, inside ``run_dir``, in one ``_check_out_dir`` accepts."""
    if out is None:
        return
    path = Path(out)
    inside = run_dir is not None and Path(run_dir).resolve() in path.resolve().parents
    if path.is_dir() or not (inside or path.parent.is_dir()):
        raise NotADirectoryError(f"{flag} {out}: not a file in an existing directory")
    if inside:
        _check_out_dir(path.parent, flag, out)


def _report(report, out) -> int:
    """Print the metric report, and write it to ``out`` too when given."""
    payload = json.dumps(report.as_dict())
    if out:
        write_text(out, payload + "\n")
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
    desk = PROFILES["desk"]["model"]
    p.add_argument("--d-vision", type=int, default=desk["d_vision"])
    p.add_argument("--d-audio", type=int, default=desk["d_audio"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("build-vocab", help="build a WordPiece vocabulary")
    p.add_argument("--manifest", required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_vocab)

    for name in ("train", "finetune-scst"):
        p = sub.add_parser(name, help=f"{name} on a dataset")
        p.add_argument("--config")
        p.add_argument("--train", required=True)
        p.add_argument("--val", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)
        if name == "finetune-scst":
            p.add_argument("--init", required=True, help="XE checkpoint to start from")
            p.add_argument("--trace", help="per-step reward trace (JSON lines)")
        p.set_defaults(fn=cmd_fit)

    for name, help_ in (("caption", "greedy-decode captions for a manifest"),
                        ("evaluate", "decode and score a manifest")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--out", required=name == "caption")
        p.set_defaults(fn=cmd_decode)

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
    except TrainingError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (VttError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
