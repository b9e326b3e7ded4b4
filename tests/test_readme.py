"""README.md stays true: its ``vttcap`` lines run as written.

Each line of its ``sh`` blocks that starts with ``vttcap`` goes through
``cli.dispatch``, in order, in an empty directory holding the README's
config file (its one ``json`` block), and must exit 0.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from vttcap.cli import dispatch

README = Path(__file__).parents[1] / "README.md"


def blocks(lang: str) -> list:
    """The bodies of the README's fenced blocks of language ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def commands() -> list:
    """The argv of each ``vttcap`` line of the shell blocks, continuations joined."""
    text = "".join(blocks("sh")).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("vttcap ")]


def test_the_readme_runs_the_whole_pipeline_small():
    argvs = commands()
    assert [argv[0] for argv in argvs] == ["synth-data", "build-vocab", "train", "finetune-scst",
                                           "evaluate", "caption", "score"]
    assert all("--out" in argv for argv in argvs)
    flags = [(argv[i], argv[i + 1]) for argv in argvs for i in range(len(argv) - 1)]
    assert ("--videos", "10") in flags
    assert {value for flag, value in flags if flag == "--epochs"} == {"1"}


def test_the_readme_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config, = blocks("json")
    Path("config.json").write_text(config, encoding="utf-8")
    for argv in commands():
        with contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(argv) == 0, argv
    assert json.loads(Path("score.json").read_text()) == \
        json.loads(Path("report.json").read_text())
