"""The public surface: every name ``bifib`` exports resolves, and README's library example gives the values its
comments state."""

import re
from pathlib import Path

import bifib

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from bifib import *", namespace)  # raises AttributeError on a listed name the package lacks
    assert len(set(bifib.__all__)) == len(bifib.__all__)
    assert set(bifib.__all__) <= namespace.keys()


def test_the_readme_library_example_gives_its_commented_values():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    comments = dict(re.findall(r"^(\S+)\s.*?#\s*(.+)$", block, re.M))  # the first word of a line, and its comment
    namespace = {}
    exec(block, namespace)
    assert str(namespace["u7"]) == comments["u7"] == "x^6 + 5x^4y + 6x^2y^2 + y^3"
    assert str(namespace["dec"].coords) == comments["dec.coords"]
    assert namespace["dec"].coords == (1, -1, 1, 1)
