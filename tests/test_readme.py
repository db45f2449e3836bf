"""The Python examples in README.md run as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run_as_written():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 1
    assert result.failed == 0
