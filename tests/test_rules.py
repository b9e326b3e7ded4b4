"""Rules on the source and the tests that no behaviour test shows.

- JSON is parsed only in ``fileio``, which turns invalid or undecodable
  JSON into a ``FormatError`` that names the file; a ``json.load`` or
  ``json.loads`` elsewhere would bypass it.
- ``training`` and ``scst`` read no input file: the commands in ``cli``
  turn manifests, feature files, vocabularies and checkpoints into a model
  and its videos, and pass those objects in.
- Each file layout has one owning module: ``model`` alone spells the
  ``.json`` suffix of a checkpoint's config, and ``training`` alone the run
  directory's ``history.jsonl``; the others call the owner or read the path
  it returns.
- ``features`` alone reads and writes ``.npy`` files (``np.load(``,
  ``np.save(``, ``read_array(``), so no reader of a feature file bypasses
  its checks of dtype, shape, trailing bytes and finite values.
- ``tensor`` alone maps anonymous memory and advises the kernel on pages
  (``mmap.mmap(-1, ...)``, ``madvise(``): ``ParamArena`` owns gradient
  memory, whose released pages must read back as zeros, so no other module
  maps or releases pages behind it.
- ``training.teacher_forced_loss`` alone calls ``forward_teacher_forced``,
  so every teacher-forced loss runs in its groups of at most
  ``TEACHER_ROWS`` rows and no ungrouped copy of it returns.
- ``.backward()`` runs only in the two training steps,
  ``training.batch_xe_loss`` (once per chunk of ``TEACHER_ROWS`` pairs) and
  ``scst.scst_batch_step``, so no other code builds a graph to run backward
  on, and no XE step goes back to holding one graph over its whole batch.
- The property tests are derandomized and keep no example database, so a
  verdict never depends on an earlier run's failures.  ``conftest.py``
  loads the one profile that says so, and no other test file restates or
  overrides it.

The other source rules match lines by regular expression, as ``grep``
would; the teacher-forcing and backward rules read the calls of each source
file and the settings rule those of each test file, so a call written inside
a string (``test_settings.py`` has a test suite in one) is not a call.
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
LAYOUT_OWNERS = [(r'\.json"', "model.py"), (r"history\.jsonl", "training.py")]
PAGE_CALLS = [r"madvise\(", r"mmap\.mmap\(\s*-1\b"]
NPY_CALLS = r"\bnp\.(load|save)\(|\bread_array\("


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


def callers(source: str, name: str) -> list:
    """The innermost function around each call in ``source`` of a function
    or method called ``name``; "<module>" for a call outside any function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == name:
                    found.append(where)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(ast.parse(source), "<module>")
    return found


def test_json_is_parsed_only_in_fileio():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "fileio.py"]
    assert SRC / "cli.py" in modules
    found = matching_lines(modules, JSON_PARSE)
    assert not found, "parse JSON through vttcap.fileio:\n" + "\n".join(found)


def test_training_and_scst_read_no_run_input():
    found = matching_lines([SRC / "training.py", SRC / "scst.py"], RUN_INPUT_READERS)
    assert not found, ("read run inputs in vttcap.cli and pass the objects in:\n"
                       + "\n".join(found))


def spelled_elsewhere(pattern, owner) -> list:
    """The lines of every source module but ``owner`` that ``pattern``
    matches, after checking that ``owner`` has one."""
    assert matching_lines([SRC / owner], pattern)
    others = [p for p in sorted(SRC.glob("*.py")) if p.name != owner]
    return matching_lines(others, pattern)


@pytest.mark.parametrize("pattern, owner", LAYOUT_OWNERS, ids=["checkpoint-config", "history"])
def test_each_file_layout_is_spelled_only_by_its_owner(pattern, owner):
    found = spelled_elsewhere(pattern, owner)
    assert not found, f"only {owner} spells {pattern}:\n" + "\n".join(found)


def test_only_features_reads_and_writes_npy_files():
    found = spelled_elsewhere(NPY_CALLS, "features.py")
    assert not found, ("read feature files through vttcap.features.read_feature_file, "
                       "which checks them:\n" + "\n".join(found))


@pytest.mark.parametrize("pattern", PAGE_CALLS, ids=["madvise", "anonymous-mmap"])
def test_only_tensor_maps_and_releases_pages(pattern):
    found = spelled_elsewhere(pattern, "tensor.py")
    assert not found, ("gradient memory is tensor.ParamArena's; map or release pages "
                       "there:\n" + "\n".join(found))


@pytest.mark.parametrize("source, found", [
    ("def f(m):\n    return m.g(1)", ["f"]),
    ("def f():\n    def h():\n        g()\n    return g", ["h"]),
    ("g()\nclass C:\n    def g(self):\n        'g()'", ["<module>"]),
])
def test_callers_are_read_from_calls(source, found):
    assert callers(source, "g") == found


def source_callers(name: str) -> list:
    """``module.function`` around each call of ``name`` in ``src/vttcap``."""
    return [f"{p.stem}.{where}" for p in sorted(SRC.glob("*.py"))
            for where in callers(p.read_text(encoding="utf-8"), name)]


def test_only_teacher_forced_loss_runs_the_teacher_forced_decoder():
    found = source_callers("forward_teacher_forced")
    assert found == ["training.teacher_forced_loss"], (
        "teacher-force through training.teacher_forced_loss, which runs groups of at "
        "most TEACHER_ROWS rows:\n" + "\n".join(found))


def test_only_the_training_steps_run_backward():
    found = source_callers("backward")
    assert found == ["scst.scst_batch_step", "training.batch_xe_loss"], (
        "run backward in a training step; an XE step runs one per chunk of "
        "TEACHER_ROWS pairs, so its memory does not grow with the batch:\n"
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
