"""The ```python examples of the README's "Library use" section run as
written, each in a fresh namespace, so an example that names a deleted or
renamed function fails here."""
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


BLOCKS = library_use_blocks()


def test_library_use_has_its_examples():
    # the scenario run, the per-point section adapter and the form adapter
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_library_use_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md, Library use, block {index}", "exec"), {})
