"""README's library example runs, and gives the values its comments state."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

# each commented statement of the example, and the value its comment opens with
STATED = {
    "M": "x^2 + 2xy + y^2 - 2x - 2y + 1",
    "f": "x^2 + 4x + 4",
    "f_vector_oracle(axes)": "[1, 4, 4]",
    "f.coefficient(0)": "4",
}


def library_example() -> str:
    """The first python block under README's `## Library` heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_example_runs_as_documented():
    block = library_example()
    namespace = {}
    exec(block, namespace)
    # `name = expression  # comment` is keyed by the name, a bare expression by itself
    comments = {target or expression: comment for target, expression, comment
                in re.findall(r"^(?:(\w+) = )?(\S.*?)\s+# (.*)$", block, re.M)}
    for statement, value in STATED.items():
        assert comments[statement].startswith(value), (statement, comments[statement])
        assert str(eval(statement, namespace)) == value, statement
