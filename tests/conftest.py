from __future__ import annotations

from pathlib import Path

import pytest

from bifib.cli import main
from bifib.poly import BivarPoly
from bifib.sequences import SequenceCache

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process and return (exit_code, stdout, stderr)."""

    def _run(argv: list[str]) -> tuple[int, str, str]:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def corrupt_member(monkeypatch):
    """Make every sequence cache read member ``index`` of U or V (``letter``) wrong.

    By default the member reads as one more than it is, which puts a term
    outside its canonical family; with ``in_family`` it reads as itself plus
    x^w, w its weight, which keeps every term inside the family.  Only reads
    are changed; the caches still store the right members.
    """

    def _corrupt(letter: str, index: int, in_family: bool = False) -> None:
        read = SequenceCache.__getitem__

        def wrong(self, n):
            value = read(self, n)
            if (self.kind.value, n) != (letter, index):
                return value
            if not in_family:
                return value + 1
            (weight,) = {a + 2 * b for (a, b), _ in value.items()}  # the member's weight, x^w in its family
            return value + BivarPoly.monomial(weight, 0)

        monkeypatch.setattr(SequenceCache, "__getitem__", wrong)

    return _corrupt
