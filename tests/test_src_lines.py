import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SOURCE = '''"""A module docstring
on two lines."""

import os  # a trailing comment leaves the line code

# a comment line


class C:
    """A class docstring."""

    def f(self):
        """A function docstring,

        with a blank line inside."""
        # an indented comment
        text = """a string that is
not a docstring"""
        return [
            # a comment inside brackets
            os.sep,
        ]
'''


def test_a_small_source_is_classified_line_by_line():
    assert src_lines.classify(SOURCE) == {"code": 8, "docstring": 6, "comment": 3, "blank": 5}


def test_the_counts_of_every_module_sum_to_its_line_count():
    paths = sorted(src_lines.PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        counts = src_lines.classify(path.read_text())
        assert sum(counts.values()) == path.read_bytes().count(b"\n"), path.name
