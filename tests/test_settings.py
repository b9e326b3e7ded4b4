"""The test settings in ``pyproject.toml``, run on a scratch suite."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

DRAWN_ONLY_FAILURE = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails_on_a_drawn_example(n):
    assert n < 10
"""


def test_a_drawn_only_hypothesis_failure_is_reported(pytester):
    """A Hypothesis test that fails only on a drawn example is reported as a
    failure, and the session ends normally, under the suite's own warning
    filters.

    Reporting it, Hypothesis imports ``libcst`` to print an ``@example``
    patch, and libcst makes a ``mypy_extensions.TypedDict``, which warns.
    Were that warning an error the session would end in ``INTERNALERROR``.
    Where libcst is not installed (as in CI) Hypothesis prints no patch,
    and the test is skipped.
    """
    pytest.importorskip("libcst")
    options = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["tool"]["pytest"]
    filters = options["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(DRAWN_ONLY_FAILURE)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert result.ret == pytest.ExitCode.TESTS_FAILED  # not INTERNAL_ERROR
