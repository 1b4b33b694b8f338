"""The repository's pytest settings report a failing hypothesis property
as a test failure with its falsifying example.

To write that example's patch, hypothesis imports libcst, which imports
``mypy_extensions.TypedDict`` and so raises a ``DeprecationWarning``.
Under ``error::DeprecationWarning`` alone that warning ends the whole
session in an INTERNALERROR.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_reports_its_falsifying_example(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_ten(x):
            assert x < 10
        """
    )
    # a child process: libcst may already be imported in this one
    result = pytester.runpytest_subprocess()
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example: test_below_ten(*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
