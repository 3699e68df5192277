"""Command-line surface: compute individual objects or run verification
campaigns.

Exit codes: 0 success, 1 identity failure in a campaign, 2 usage or grid
errors (an unwritable --out among them), 3 parameter collision, 4
input-file or sequence-family error, 5 a campaign worker process died.
Output is deterministic for fixed flags and seed; human format upgrades to
Unicode superscripts only when stdout can encode them, while json and csv
are the stable interfaces.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

from .cyclotomic import format_scalar, scalar_from_json, zeta_pow
from .appell import apostol_bernoulli, frobenius_euler
from .dedekind import e_sum, ramanujan_sum, v_sum
from .errors import (
    InvalidGrid,
    InvalidParam,
    InvalidPower,
    ParameterCollision,
    SequenceFileError,
)
from .qpoly import QPoly
from .scalars import format_rational, parse_int, parse_rational
from .spectra import FAMILY_NAMES, dft_inverse, family, interp_poly, load_sequence, parse_family
from .verify import (
    DEFAULT_SEED,
    IDENTITIES,
    GridSpec,
    build_report,
    default_grid,
    report_csv_bytes,
    report_json_bytes,
    run_grid,
    run_grids,
)


def _unicode_ok() -> bool:
    if not (hasattr(sys.stdout, "isatty") and sys.stdout.isatty()):
        return False
    enc = getattr(sys.stdout, "encoding", None) or ""
    try:
        "q²".encode(enc)
    except (LookupError, UnicodeEncodeError):
        return False
    return True


def _emit(fmt: str, fields: list[tuple[str, str]], human: str) -> None:
    """fields are (name, value) pairs in fixed order; human is the terse form."""
    if fmt == "json":
        print(json.dumps(dict(fields), sort_keys=True))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([k for k, _ in fields])
        writer.writerow([v for _, v in fields])
        sys.stdout.write(buf.getvalue())
    else:
        print(human)


def _parse_gamma(text: str):
    """gamma flag: "a/b", "zeta:n:k", or a cyclonum JSON object."""
    if text.startswith("zeta:"):
        try:
            n, k = map(parse_int, text.split(":")[1:])
        except ValueError:
            raise ValueError(f"bad --gamma {text!r}; expected zeta:n:k with integers n and k") from None
        return zeta_pow(n, k)
    return scalar_from_json(json.loads(text) if text.lstrip().startswith("{") else text)


def _resolve_seq_arg(text: str, n: int):
    """--seq value: family shorthand, file:path, or a bare JSON path."""
    if text.split(":", 1)[0] in FAMILY_NAMES:
        name, params = parse_family(text)
        return family(name, n, **params)
    seq = load_sequence(text[5:] if text.startswith("file:") else text)
    if seq.n != n:
        raise SequenceFileError(f"sequence period {seq.n} differs from --n {n}")
    return seq


def _poly_out(fmt: str, poly: QPoly, fields: list[tuple[str, str]]) -> None:
    fields = fields + [("poly", poly.to_str())]
    _emit(fmt, fields, poly.to_str(unicode_sup=_unicode_ok()))


def cmd_poly(args: argparse.Namespace) -> int:
    lam = Fraction(1) if args.classical else parse_rational(args.lam)
    poly = apostol_bernoulli(args.m, lam)
    _poly_out(args.format, poly, [("m", str(args.m)), ("lambda", format_scalar(lam))])
    return 0


def cmd_hpoly(args: argparse.Namespace) -> int:
    lam = parse_rational(args.lam)
    gamma = _parse_gamma(args.gamma)
    poly = frobenius_euler(args.m, args.p, lam, gamma)
    _poly_out(
        args.format,
        poly,
        [
            ("m", str(args.m)),
            ("p", str(args.p)),
            ("lambda", format_scalar(lam)),
            ("gamma", format_scalar(gamma)),
        ],
    )
    return 0


def cmd_esum(args: argparse.Namespace) -> int:
    lam = parse_rational(args.lam)
    c_seq = _resolve_seq_arg(args.seq, args.n)
    poly = e_sum(args.m, args.n, args.r, args.p, lam, c_seq)
    fields = [
        ("m", str(args.m)),
        ("n", str(args.n)),
        ("r", str(args.r)),
        ("p", str(args.p)),
        ("lambda", format_scalar(lam)),
        ("seq", args.seq),
    ]
    if args.at is not None:
        value = poly.eval_at(parse_rational(args.at))
        text = format_scalar(value)
        _emit(args.format, fields + [("at", args.at), ("value", text)], text)
    else:
        _poly_out(args.format, poly, fields)
    return 0


def cmd_vsum(args: argparse.Namespace) -> int:
    lam = parse_rational(args.lam)
    value = v_sum(args.n, args.k, lam)
    text = format_scalar(value)
    _emit(
        args.format,
        [("n", str(args.n)), ("k", str(args.k)), ("lambda", format_scalar(lam)), ("value", text)],
        text,
    )
    return 0


def cmd_ramanujan(args: argparse.Namespace) -> int:
    value = ramanujan_sum(args.n, args.k)
    text = format_rational(value)
    _emit(args.format, [("n", str(args.n)), ("k", str(args.k)), ("value", text)], text)
    return 0


def cmd_interp(args: argparse.Namespace) -> int:
    c_seq = _resolve_seq_arg(args.seq, args.n)
    poly = interp_poly(dft_inverse(c_seq), args.r)
    _poly_out(args.format, poly, [("n", str(args.n)), ("r", str(args.r)), ("seq", args.seq)])
    return 0


def _resolve_out(path_str: str) -> Path:
    """The report path, with its parent made: called before the campaign
    runs, so a path that cannot take a file is a usage error at once."""
    path = Path(path_str)
    base = os.environ.get("CYCLOSUM_OUT")
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write report to {path}: {exc}") from None
    if path.is_dir():
        raise ValueError(f"cannot write report to {path}: it is a directory")
    return path


def cmd_verify(args: argparse.Namespace) -> int:
    idents = IDENTITIES if args.identity == "all" else (args.identity,)
    if args.grid is not None and args.identity == "all":
        raise InvalidGrid("a grid file applies to one identity; pick one with --identity")
    grids = []
    for ident in idents:
        if args.grid is not None:
            try:
                obj = json.loads(Path(args.grid).read_text())
            except (OSError, UnicodeDecodeError) as exc:
                raise InvalidGrid(f"cannot read grid file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise InvalidGrid(f"grid file is not valid JSON: {exc}") from exc
            spec = GridSpec.from_json(obj, identity=ident)
        else:
            spec = default_grid(ident)
        if args.seed is not None:
            spec.seed = args.seed
        grids.append(spec)
    out_path = None if args.out is None else _resolve_out(args.out)
    # a one-grid campaign goes through run_grid, the call perfbench's tracer
    # models when it counts the bytes the pool pickles
    if len(grids) == 1:
        cases = run_grid(grids[0], workers=args.workers)
    else:
        cases = run_grids(grids, workers=args.workers)
    report = build_report(args.identity, cases, grids)
    data = report_csv_bytes(report) if args.format == "csv" else report_json_bytes(report)
    summary = report["summary"]
    if out_path is not None:
        try:
            out_path.write_bytes(data)
        except OSError as exc:
            raise ValueError(f"cannot write report to {out_path}: {exc}") from None
        print(
            f"pass={summary['pass']} fail={summary['fail']} "
            f"skipped={summary['skipped']} report={out_path}"
        )
    else:
        sys.stdout.write(data.decode())
    return 1 if summary["fail"] else 0


def _integer(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer in ASCII digits, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosum",
        description="Exact Dedekind-type sums over cyclotomic fields.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("human", "json", "csv")) -> None:
        p.add_argument("--format", choices=choices, default=choices[0])

    def add_integers(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, type=_integer, required=True)

    p = sub.add_parser("poly", help="Apostol-Bernoulli polynomial B_m(q, lambda)")
    add_integers(p, "--m")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", metavar="a/b")
    group.add_argument("--classical", action="store_true", help="shorthand for --lambda 1")
    add_format(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("hpoly", help="Frobenius-Euler polynomial H_m^(p)(q, lambda, gamma)")
    add_integers(p, "--m", "--p")
    p.add_argument("--lambda", dest="lam", metavar="a/b", required=True)
    p.add_argument("--gamma", required=True, help='"a/b", "zeta:n:k", or cyclonum JSON')
    add_format(p)
    p.set_defaults(func=cmd_hpoly)

    p = sub.add_parser("esum", help="Dedekind-type sum as a polynomial in q")
    add_integers(p, "--m", "--n", "--r", "--p")
    p.add_argument("--lambda", dest="lam", metavar="a/b", required=True)
    p.add_argument("--seq", required=True, help="family shorthand or sequence JSON file")
    p.add_argument("--at", metavar="a/b", help="evaluate at a rational point")
    add_format(p)
    p.set_defaults(func=cmd_esum)

    p = sub.add_parser("vsum", help="totative power sum V_n^(k)(lambda)")
    add_integers(p, "--n", "--k")
    p.add_argument("--lambda", dest="lam", metavar="a/b", required=True)
    add_format(p)
    p.set_defaults(func=cmd_vsum)

    p = sub.add_parser("ramanujan", help="Ramanujan sum c_n(k)")
    add_integers(p, "--n", "--k")
    add_format(p)
    p.set_defaults(func=cmd_ramanujan)

    p = sub.add_parser("interp", help="interpolation polynomial of a shifted spectrum")
    add_integers(p, "--n", "--r")
    p.add_argument("--seq", required=True, help="family shorthand or sequence JSON file")
    add_format(p)
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("verify", help="run an identity campaign and emit a report")
    p.add_argument("--identity", choices=IDENTITIES + ("all",), default="all")
    p.add_argument("--grid", help="grid spec JSON file (defaults per identity)")
    p.add_argument("--out", help="report path; relative paths land in $CYCLOSUM_OUT")
    p.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1)
    p.add_argument("--seed", type=_integer, help=f"campaign seed (default {DEFAULT_SEED})")
    add_format(p, choices=("json", "csv"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterCollision as exc:
        print(f"parameter collision: {exc}", file=sys.stderr)
        return 3
    except (SequenceFileError, InvalidParam) as exc:
        print(f"bad sequence input: {exc}", file=sys.stderr)
        return 4
    except InvalidGrid as exc:
        print(f"bad grid: {exc}", file=sys.stderr)
        return 2
    except (InvalidPower, ValueError, json.JSONDecodeError) as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"campaign worker died: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
