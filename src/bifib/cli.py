"""Command-line surface: generate, tabulate, decompose, and verify.

    bifib gen U 5
    bifib table a 8 --format text --method all
    bifib det BV 6 --cross-check
    bifib decompose V 7 BUstar
    bifib verify 30 all --format json
    bifib chebyshev T 5

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic; the only run-dependent values are the "seconds" fields of
the JSON verify report, which the report itself flags as non-golden.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bases import (
    BasisFamily,
    BasisSpec,
    coordinate_matrix,
    decompose,
    det_by_column_reduction,
    Decomposition,
    member_index,
)
from .coefficients import METHODS, DecompositionScheme, Family, cross_check, first_row
from .errors import BifibError
from .poly import _var_string, signed_sum
from .report import all_passed, checks, run_checks
from .sequences import SHARED_CACHES, member_coordinates, u_poly, v_poly
from .specializations import chebyshev_t, chebyshev_u

_SEQUENCE_BASES = [f.value for f in BasisFamily]
_VERIFY_SCOPES = ["all", *dict.fromkeys(name.split(".")[0] for name, _ in checks())]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except BifibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifib",
        description="Exact computations with bivariate Fibonacci and Lucas polynomials.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, summary: str, formats: tuple[str, ...] = ("text", "json")) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=summary)
        command.add_argument(
            "--max-n",
            type=int,
            default=500,
            metavar="CAP",
            help="hard cap on index arguments (default 500)",
        )
        command.add_argument("--format", choices=formats, default="text")
        return command

    gen = verb("gen", "print one sequence member")
    gen.add_argument("kind", choices=["U", "V"])
    gen.add_argument("n", type=int)
    gen.set_defaults(handler=_cmd_member, members={"U": u_poly, "V": v_poly})

    table = verb("table", "emit a coefficient triangle", ("text", "csv", "json", "latex"))
    table.add_argument("family", choices=[f.value for f in Family])
    table.add_argument("n_max", type=int)
    table.add_argument(
        "--method",
        choices=[*METHODS, "all"],
        default="recurrence",
        help="generation method; 'all' emits only if the methods agree",
    )
    table.set_defaults(handler=_cmd_table)

    det = verb("det", "exact basis determinant")
    det.add_argument("basis", choices=_SEQUENCE_BASES)
    det.add_argument("n", type=int)
    det.add_argument(
        "--cross-check",
        action="store_true",
        help="also run the column-reduction determinant and compare",
    )
    det.set_defaults(handler=_cmd_det)

    dec = verb("decompose", "coordinates over a sequence basis")
    dec.add_argument("kind", choices=["U", "V"])
    dec.add_argument("n", type=int)
    dec.add_argument("basis", choices=_SEQUENCE_BASES)
    dec.set_defaults(handler=_cmd_decompose)

    verify = verb("verify", "run the verification suite")
    verify.add_argument("n_max", type=int)
    verify.add_argument(
        "scope",
        nargs="?",
        choices=_VERIFY_SCOPES,
        default="all",
    )
    verify.set_defaults(handler=_cmd_verify)

    cheb = verb("chebyshev", "print a Chebyshev polynomial")
    cheb.add_argument("kind", choices=["T", "U"])
    cheb.add_argument("n", type=int)
    cheb.set_defaults(handler=_cmd_member, members={"T": chebyshev_t, "U": chebyshev_u})

    return parser


def _enforce_cap(parser: argparse.ArgumentParser, args: argparse.Namespace, *indices: int) -> None:
    for value in indices:
        if value < 0:
            parser.error(f"index {value} is negative")
        if value > args.max_n:
            parser.error(f"index {value} exceeds the --max-n cap of {args.max_n}")


def _cmd_member(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """gen and chebyshev: print member n of the chosen sequence."""
    _enforce_cap(parser, args, args.n)
    poly = args.members[args.kind](args.n)
    if args.format == "json":
        print(json.dumps(poly.to_json_terms()))
    else:
        print(poly)
    return 0


def _cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _enforce_cap(parser, args, args.n_max)
    family = Family(args.family)
    table_start, start = first_row(family, "closed"), first_row(family, args.method)
    if args.n_max < table_start:
        parser.error(f"family {family.value} starts at row {table_start}")
    if args.n_max < start:  # only the oracle starts after the table
        parser.error(f"the oracle for family {family.value} starts at row {start}")

    if args.method == "all":
        report = cross_check(family, args.n_max)
        if not report.passed:
            for mismatch in report.mismatches:
                values = " ".join(f"{m}={v}" for m, v in sorted(mismatch.values.items()))
                print(
                    f"family {family.value} n={mismatch.n} k={mismatch.k}: {values}",
                    file=sys.stderr,
                )
            return 1
        triangle = report.recurrence  # once the methods agree, 'all' prints the recurrence triangle
    else:
        triangle = METHODS[args.method](family, args.n_max)

    if args.format == "text":
        print(triangle.to_text())
    elif args.format == "csv":
        print(triangle.to_csv())
    elif args.format == "latex":
        print(triangle.to_latex())
    else:
        print(json.dumps(triangle.to_json_dict()))
    return 0


def _cmd_det(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _enforce_cap(parser, args, args.n)
    spec = BasisSpec(BasisFamily(args.basis), args.n)
    value = coordinate_matrix(spec).det()
    if args.cross_check:
        reduction = det_by_column_reduction(spec)[-1]
        if reduction != value:
            print(
                f"determinant mismatch for {args.basis} n={args.n}: "
                f"elimination {value}, column reduction {reduction}",
                file=sys.stderr,
            )
            return 1
    if args.format == "json":
        print(json.dumps({"family": args.basis, "n": args.n, "det": str(value)}))
    else:
        print(value)
    return 0


def _cmd_decompose(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _enforce_cap(parser, args, args.n)
    scheme = DecompositionScheme(args.kind, BasisFamily(args.basis))
    spec = BasisSpec(scheme.basis, scheme.order(args.n))
    member_coordinates(args.kind, args.n)  # a member with a term outside its family raises here, named
    member = SHARED_CACHES[args.kind][args.n]  # its coordinates now memoised at the ambient degree
    decomposition = decompose(member if scheme.doubling == 1 else member.scale(scheme.doubling), spec)
    if args.format == "json":
        print(json.dumps(decomposition.to_json_dict()))
    else:
        label = ("2" if scheme.doubling == 2 else "") + f"{args.kind}_{args.n}"
        print(f"{label} = {_combination_text(decomposition)}")
    return 0


def _combination_text(decomposition: Decomposition) -> str:
    spec = decomposition.spec

    def name(k: int) -> str:
        letter, index = member_index(spec, k)
        return f"{_var_string(spec.n - k, 0)} {letter}_{index}".lstrip()

    return signed_sum((coeff, name(k)) for k, coeff in enumerate(decomposition.coords))


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _enforce_cap(parser, args, args.n_max)
    if args.n_max < 1:
        parser.error("verify needs n_max >= 1")
    results = run_checks(args.scope, args.n_max)
    passed = all_passed(result for result, _ in results)
    if args.format == "json":
        payload = {
            "schema": 1,
            "scope": args.scope,
            "n_max": args.n_max,
            "passed": passed,
            "non_golden_fields": ["seconds"],
            "checks": [
                {
                    "name": result.name,
                    "passed": result.passed,
                    "detail": result.detail,
                    "seconds": round(seconds, 6),
                }
                for result, seconds in results
            ],
        }
        print(json.dumps(payload))
    else:
        for result, _ in results:
            print(result.line())
        ok = sum(1 for result, _ in results if result.passed)
        print(f"{ok}/{len(results)} checks passed")
    return 0 if passed else 1
