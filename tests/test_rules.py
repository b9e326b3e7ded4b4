"""Rules on the source and the tests that no behaviour test shows.

- JSON is parsed only in ``fileio``, which turns invalid or undecodable
  JSON into a ``FormatError`` that names the file; a ``json.load`` or
  ``json.loads`` elsewhere would bypass it.
- ``training`` and ``scst`` read no input file: the commands in ``cli``
  turn manifests, feature files, vocabularies and checkpoints into a model
  and its videos, and pass those objects in.
- The property tests are derandomized and keep no example database, so a
  verdict never depends on an earlier run's failures.  ``conftest.py``
  loads the one profile that says so, and no other test file restates or
  overrides it.

The source rules match lines by regular expression, as ``grep`` would; the
settings rule reads the calls of each test file, so a test suite written
inside a string (``test_settings.py`` has one) is not a call.
"""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import settings

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "vttcap"
JSON_PARSE = r"json\.loads?\("
RUN_INPUT_READERS = r"load_manifest|load_samples|load_checkpoint|load_vocab|read_feature_file"
PROFILE_KEYS = {"derandomize", "database"}


def matching_lines(paths, pattern) -> list:
    """``file:line: text`` of every line of ``paths`` that ``pattern`` matches."""
    regex = re.compile(pattern)
    return [f"{p.name}:{n}: {line.strip()}" for p in paths
            for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
            if regex.search(line)]


def profile_overrides(source: str) -> list:
    """The line of each call in ``source`` that passes ``derandomize`` or
    ``database``, or loads a Hypothesis profile."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (any(kw.arg in PROFILE_KEYS for kw in node.keywords)
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "load_profile")]


def test_json_is_parsed_only_in_fileio():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "fileio.py"]
    assert SRC / "cli.py" in modules
    found = matching_lines(modules, JSON_PARSE)
    assert not found, "parse JSON through vttcap.fileio:\n" + "\n".join(found)


def test_training_and_scst_read_no_run_input():
    found = matching_lines([SRC / "training.py", SRC / "scst.py"], RUN_INPUT_READERS)
    assert not found, ("read run inputs in vttcap.cli and pass the objects in:\n"
                       + "\n".join(found))


def test_the_loaded_hypothesis_profile_keeps_no_example_database():
    assert settings.default.derandomize
    assert settings.default.database is None


@pytest.mark.parametrize("source, lines", [
    ("@settings(max_examples=5, deadline=None)\ndef f(): pass", []),
    ("FUZZ = settings(database=None)", [1]),
    ("x = 1\n@settings(derandomize=False)\ndef f(): pass", [2]),
    ("settings.load_profile('ci')", [1]),
    ("SUITE = 'settings(derandomize=True, database=None)'", []),
])
def test_profile_overrides_are_read_from_calls(source, lines):
    assert profile_overrides(source) == lines


def test_only_conftest_sets_the_hypothesis_profile():
    files = [p for p in sorted(TESTS.rglob("*.py")) if p != TESTS / "conftest.py"]
    assert TESTS / "test_readers.py" in files
    found = [f"{p.relative_to(TESTS)}:{line}" for p in files
             for line in profile_overrides(p.read_text(encoding="utf-8"))]
    assert not found, ("the profile conftest.py loads sets derandomize and database; "
                       "set neither elsewhere:\n" + "\n".join(found))
