"""A fixed sweep of in-process CLI invocations, hashed to one sha256 per verb.

The sweep runs every verb, format and method, with indices across each
family's edge rows, plus the error cases and ``--help``.  Each invocation
contributes its argv, exit code, stdout and stderr to the digest of its verb;
the "seconds" fields of ``verify --format json`` are masked, as they are the
only run-dependent bytes.  Every invocation that ends in ``SystemExit``
(help and usage errors, whose text argparse formats) goes to one extra
digest, "argparse", so that a Python release that words its help differently
shows up there and not in a verb; Pythons 3.10 to 3.13 print the same bytes.

``tests/test_cli.py`` compares the digests with ``tests/golden/cli_digests.json``.
To regenerate that file, from a checkout root:

    PYTHONPATH=src python tests/cli_sweep.py > tests/golden/cli_digests.json
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout

from bifib.cli import main

VERBS = ("gen", "chebyshev", "table", "det", "decompose", "verify")
BASES = ("BU", "BV", "BUstar", "BVstar")
FAMILIES = "abcde"
SCOPES = ("all", "lemma1", "lemma2", "relations", "theorems", "chebyshev")

_SECONDS = re.compile(r'"seconds": [-+.0-9eE]+')


def _formatted(argv: list[str], fmt: str, default: str = "text") -> list[str]:
    return argv if fmt == default else [*argv, "--format", fmt]


def invocations() -> list[list[str]]:
    """The sweep's argv lists, in a fixed order."""
    calls: list[list[str]] = []
    for kind in "UV":
        for n in range(31):
            calls += [_formatted(["gen", kind, str(n)], fmt) for fmt in ("text", "json")]
    for kind in "TU":
        for n in range(31):
            calls += [_formatted(["chebyshev", kind, str(n)], fmt) for fmt in ("text", "json")]
    for family in FAMILIES:
        for n_max in (0, 1, 2, 3, 6, 12):
            for method in ("closed", "recurrence", "oracle", "all"):
                for fmt in ("text", "csv", "json", "latex"):
                    calls.append(_formatted(["table", family, str(n_max), "--method", method], fmt))
    for basis in BASES:
        for n in range(11):
            for fmt in ("text", "json"):
                calls.append(_formatted(["det", basis, str(n)], fmt))
                calls.append(_formatted(["det", basis, str(n), "--cross-check"], fmt))
    for kind in "UV":
        for n in range(17):
            for basis in BASES:
                calls += [_formatted(["decompose", kind, str(n), basis], fmt) for fmt in ("text", "json")]
    for n_max in range(4):
        for scope in SCOPES:
            calls += [_formatted(["verify", str(n_max), scope], fmt) for fmt in ("text", "json")]
    calls += [
        ["gen", "U", "5", "--format", "text"],
        ["gen", "U", "-1"],
        ["gen", "U", "501"],
        ["gen", "U", "501", "--max-n", "600"],
        ["gen", "V", "9", "--max-n", "8"],
        ["gen", "W", "3"],
        ["gen", "U", "x"],
        ["gen", "U", "5", "--format", "xml"],
        ["chebyshev", "T", "-1"],
        ["chebyshev", "X", "2"],
        ["table", "a", "8"],
        ["table", "a", "501"],
        ["table", "f", "3"],
        ["table", "a", "3", "--method", "fast"],
        ["det", "C", "3"],
        ["det", "BU", "-1"],
        ["decompose", "U", "7", "BW"],
        ["decompose", "U", "-2", "BV"],
        ["verify", "2"],
        ["verify", "-1"],
        ["verify", "501"],
        ["verify", "5", "everything"],
        [],
        ["frobnicate"],
        ["--help"],
        *([verb, "--help"] for verb in VERBS),
    ]
    return calls


def _run(argv: list[str]) -> tuple[int, str, str, bool]:
    """Exit code, stdout, stderr, and whether argparse ended the call."""
    out, err = io.StringIO(), io.StringIO()
    exited = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
            exited = True
    return code, _SECONDS.sub('"seconds": 0', out.getvalue()), err.getvalue(), exited


def digests() -> dict[str, str]:
    """One sha256 per verb, plus "argparse", over the whole sweep.

    The terminal width is fixed at 80 columns while the sweep runs, because
    argparse wraps its help text to it.
    """
    hashes = {name: hashlib.sha256() for name in (*VERBS, "argparse")}
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for argv in invocations():
            code, out, err, exited = _run(argv)
            group = "argparse" if exited else argv[0]
            hashes[group].update(json.dumps([argv, code, out, err]).encode() + b"\n")
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {name: h.hexdigest() for name, h in hashes.items()}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2))
