"""The repo's pytest settings, run on tests made to fail."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_given_test_fails_without_aborting_the_session(pytester):
    # hypothesis reports a failing @given test through libcst, whose import
    # warns; under filterwarnings = error that warning must not abort the
    # session (exit 3), and any other warning must still fail its test
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_made_to_fail="""
        import warnings

        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_given_fails(n):
            assert n < 5

        def test_other_warning_fails():
            warnings.warn("another deprecation", DeprecationWarning)
        """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=2)
    assert result.ret == 1
