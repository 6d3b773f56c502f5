"""The public surface: every name ``bifib`` exports resolves, README's library example gives the values its
comments state, and README's CLI examples print the output they show."""

import re
from pathlib import Path

import bifib
from bifib.cli import main

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


def test_the_readme_cli_examples_print_the_output_they_show(capsys):
    (block,) = re.findall(r"^```text\n(.*?)^```", README.read_text(), re.M | re.S)
    examples = [re.split(r"\s{2,}", line.strip(), maxsplit=1) for line in block.splitlines()]
    # a line shows its literal output when its verb prints one value and it passes no option; the others describe it
    literal = [(command.split()[1:], shown) for command, shown in examples
               if command.split()[1] in ("gen", "det", "decompose", "chebyshev") and "--" not in command]
    assert [" ".join(argv) for argv, _ in literal] == [
        "gen U 5", "gen V 0", "det BV 6", "decompose V 7 BUstar", "decompose U 7 BV", "chebyshev T 5",
    ]
    for argv, shown in literal:
        assert main(argv) == 0, argv
        assert capsys.readouterr() == (shown + "\n", ""), argv
