"""Command-line surface: analyze datasets, generate series, simulate
processes, and print the expected-law reference tables.

Exit status contract: 0 = accept (or plain success), 2 = reject at the
chosen significance level, 1 = error. A usage error is an error too.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import law, report, sequences
from .errors import BenfordError, DomainError, EmptyCensus
from .gof import DigitCensus
from .ingest import ScanPolicy, census_from_table, census_from_text

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2


def __getattr__(name: str):
    # perfbench's probe wraps these two by name on this module. This hook goes
    # once the benchmark wraps functions where they are defined (ROADMAP item 1).
    if name in ("convergence_curve", "curve_as_csv"):
        from . import simulate
        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1 with one `error:` line, as every other error does;
    exit 2 means a rejected dataset. Subparsers are made of this class too."""

    def error(self, message: str):
        self.exit(EXIT_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="benford",
        description="Significant-digit law analysis: screening, generation, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="screen a dataset against the first-digit law")
    p.add_argument("path", help="input file (.csv/.tsv are read as tables, else text)")
    p.add_argument("--column", action="append",
                   help="table column to read (repeatable; .csv/.tsv only)")
    p.add_argument("--position", type=int, default=1, help="significant-digit position")
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--level", type=int, choices=(5, 1), default=5,
                   help="significance level driving the exit status")
    p.add_argument("--separators", action="store_true",
                   help="treat comma-grouped digits (2,300) as one token")
    p.add_argument("--skip-shape", action="append", default=[], metavar="PATTERN",
                   help="regex for token shapes to exclude (repeatable)")

    p = sub.add_parser(
        "generate", help="emit a mathematical series",
        epilog="parameters: " + "; ".join(
            kind.replace("_", "-") + " " + " ".join(
                f"--{name}" if default is None else f"[--{name} {default}]"
                for name, _, default in series.params)
            for kind, series in sequences._SERIES.items()),
    )
    p.add_argument("kind", nargs="?",
                   choices=[kind.replace("_", "-") for kind in sequences._SERIES])
    p.add_argument("--config", help="read the sequence spec from a config file")
    p.add_argument("--a1", type=int, help="first seed")
    p.add_argument("--a2", type=int, help="second seed")
    p.add_argument("--terms", type=int, help="number of terms")
    p.add_argument("--below", type=int, help="exclusive upper bound")
    p.add_argument("--alpha", help="ratio > 1, e.g. 1007/1000 or 1.007")
    p.add_argument("--n", type=int, help="term count")
    p.add_argument("--k", type=int, help="exponent")
    p.add_argument("--rows", type=int, help="number of rows")
    p.add_argument("--base", type=int, help="output base (default 10)")
    p.add_argument("--census", action="store_true",
                   help="emit the first-digit census instead of the stream")
    p.add_argument("--values", action="store_true",
                   help="emit exact values instead of digits")

    p = sub.add_parser("simulate", help="run a random-process ensemble")
    p.add_argument("--kind", choices=("mult", "add"), default="mult")
    p.add_argument("--noise", default="lognormal:0,1",
                   help="FAMILY:PARAMS, e.g. lognormal:0,1 uniform:0.5,2 constant:10")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--walkers", type=int, default=10000)
    p.add_argument("--initial", type=float, default=1.0)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("expected", help="print expected-law reference tables")
    p.add_argument("--table", choices=("probs", "moments", "tvd", "corr"),
                   default="probs")
    p.add_argument("--k", help="position or range, e.g. 3 or 1..7 (default 1; not corr)")
    p.add_argument("--base", type=int, help="probs: base, position 1 only (default 10)")
    p.add_argument("--max-j", type=int, help="corr: largest position (default 5)")
    p.add_argument("--sample-size", type=int,
                   help="probs: also print expected counts for this sample size")
    return parser


def _parse_k_range(text: str) -> range:
    # A range, not a list: the law rejects position 19 while the rows are
    # built, so a huge range costs what its text costs.
    lo, dots, hi = text.partition("..")
    try:
        ks = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise DomainError(f"--k {text!r} is not a position or a range such as 1..7") from None
    if not ks:
        raise DomainError(f"--k {text!r} is an empty range")
    return ks


def _fmt(x: float) -> str:
    return f"{report.round12(x):.12g}"


def cmd_analyze(args: argparse.Namespace) -> int:
    policy = ScanPolicy(
        thousands_separators=args.separators,
        skip_patterns=tuple(args.skip_shape),
        columns=tuple(args.column) if args.column else None,
    )
    path = Path(args.path)
    suffix = path.suffix.lower()
    if policy.columns is not None and suffix not in (".csv", ".tsv"):
        raise DomainError(f"{path}: --column reads .csv and .tsv tables only")
    data = path.read_bytes()
    try:
        if suffix in (".csv", ".tsv"):
            census = census_from_table(
                data, fmt=suffix[1:], policy=policy,
                position=args.position, base=args.base,
            )
        else:
            census = census_from_text(
                data, policy=policy, position=args.position, base=args.base
            )
    except BenfordError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    if census.sample_size == 0:
        print(
            f"error: empty census: no usable numeric values in {path}"
            f" ({census.exclusions} excluded)",
            file=sys.stderr,
        )
        return EXIT_ERROR
    doc = report.build_report(
        census,
        input_descriptor=str(path),
        policy_description={
            "thousands_separators": policy.thousands_separators,
            "skip_patterns": list(policy.skip_patterns),
            "columns": list(policy.columns) if policy.columns else None,
        },
    )
    sys.stdout.write(report.render(doc, args.format))
    if doc.gof is None:
        return EXIT_OK
    return EXIT_OK if doc.gof.accepted(args.level) else EXIT_REJECT


def _sequence_spec(args: argparse.Namespace) -> sequences.SequenceSpec:
    # Every kind's flags go to the spec, which rejects those of other kinds.
    params = {name: getattr(args, name)
              for series in sequences._SERIES.values() for name, _, _ in series.params
              if getattr(args, name) is not None}
    if args.config:
        if args.kind or params or args.base is not None:
            raise DomainError(
                "generate --config FILE takes no kind, no series flag and no --base")
        return sequences.SequenceSpec.from_config(Path(args.config).read_text())
    if not args.kind:
        raise DomainError("generate needs a sequence kind or --config FILE")
    return sequences.SequenceSpec(kind=args.kind.replace("-", "_"), params=params,
                                  base=10 if args.base is None else args.base)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.census and args.values:
        raise DomainError("generate takes --census or --values, not both")
    spec = _sequence_spec(args)
    if args.census:
        census = DigitCensus.from_digits(spec.digit_stream(), 1, spec.base)
        print("digit,count")
        for digit, count in zip(census.support, census.counts):
            print(f"{digit},{count}")
        return EXIT_OK
    for item in spec.value_stream() if args.values else spec.digit_stream():
        print(item)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import (
        NoiseSpec,
        ProcessSpec,
        convergence_curve,
        curve_as_csv,
        curve_as_json,
        recorded_steps,
    )

    spec = ProcessSpec(
        kind="multiplicative" if args.kind == "mult" else "additive",
        noise=NoiseSpec.parse(args.noise),
        steps=args.steps,
        walkers=args.walkers,
        initial_value=args.initial,
        base=args.base,
        seed=args.seed,
    )
    curve = convergence_curve(spec)
    if not curve:
        raise EmptyCensus("empty census: every walker was excluded at every recorded step")
    if omitted := len(recorded_steps(spec)) - len(curve):
        print(f"warning: {omitted} of {omitted + len(curve)} recorded steps omitted:"
              " every walker was excluded at those steps", file=sys.stderr)
    if args.format == "json":
        print(curve_as_json(spec, curve))
    else:
        sys.stdout.write(curve_as_csv(spec, curve))
    return EXIT_OK


def _expected_rows(args: argparse.Namespace) -> tuple[str, list[tuple]]:
    """The header and every row of the requested table."""
    if args.table == "corr":
        max_j = 5 if args.max_j is None else args.max_j
        if not 2 <= max_j <= law.MAX_CORRELATION_POSITION:
            raise DomainError(
                f"--max-j must lie in [2, {law.MAX_CORRELATION_POSITION}], got {max_j}")
        return "i,j,correlation", [(i, j, _fmt(law.digit_correlation(i, j)))
                                   for i in range(1, max_j)
                                   for j in range(i + 1, max_j + 1)]
    ks = _parse_k_range("1" if args.k is None else args.k)
    if args.table == "moments":
        return "k,mean,variance", [(k, *map(_fmt, law.moments(k))) for k in ks]
    if args.table == "tvd":
        return "k,tvd_from_uniform", [(k, _fmt(law.tvd_from_uniform(k))) for k in ks]
    if ks[1:]:  # not len(ks), which overflows past sys.maxsize positions
        raise DomainError("probs takes a single position")
    dist = law.marginal_distribution(ks[0], 10 if args.base is None else args.base)
    pairs = zip(dist.support, dist.probabilities)
    if args.sample_size is None:
        return "digit,probability", [(d, _fmt(p)) for d, p in pairs]
    return ("digit,probability,expected_count",
            [(d, _fmt(p), _fmt(p * args.sample_size)) for d, p in pairs])


def cmd_expected(args: argparse.Namespace) -> int:
    # Every argument is checked and every row built before anything prints.
    # Each optional flag belongs to the tables that read it; the others reject it.
    for name, tables in (("k", ("probs", "moments", "tvd")), ("base", ("probs",)),
                         ("sample_size", ("probs",)), ("max_j", ("corr",))):
        if getattr(args, name) is not None and args.table not in tables:
            raise DomainError(f"--table {args.table} takes no --{name.replace('_', '-')}")
    if args.sample_size is not None and args.sample_size < 1:
        raise DomainError(f"--sample-size must be >= 1, got {args.sample_size}")
    if args.sample_size is not None and args.sample_size > sys.float_info.max:
        raise DomainError(f"--sample-size must be <= {sys.float_info.max!r}")
    header, rows = _expected_rows(args)
    print(header, *(",".join(map(str, row)) for row in rows), sep="\n")
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "expected": cmd_expected,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BenfordError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
