"""Command line interface.

Partitions are written as comma-separated parts ("4,2,1,1"; "" or "-" for
the empty partition).  A verify grid flag takes "LO:HI", "A,B,..." or "A",
read as a sweep-config param's [lo, hi], [[A], [B], ...] or int; on both
routes ``verify._CHECKS`` alone judges the check, its params and their values.
Exit codes: 0 all checks passed, 1 a counterexample was found, 2 usage or
validation error, 141 stdout was closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import ideals, lattice, partitions, qpoly, verify


def parse_parts(text: str) -> partitions.Parts:
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        return partitions.partition([int(x) for x in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def parse_values(text: str):
    """A grid flag: "LO:HI" as a pair, "A,B,..." as [[A], [B], ...], "A" as an int."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return (int(lo), int(hi))
        if "," in text:  # each value apart, so that two never read as [lo, hi]
            return [[int(x)] for x in text.split(",")]
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected INT, INT,INT,..., or LO:HI, got {partitions._echo(text)}"
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own messages can echo an argument whole
        super().error(partitions._cut(message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kyoung",
        description="Exact combinatorics of the k-Young lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    one_partition = argparse.ArgumentParser(add_help=False)  # kconj, kskew and covers
    one_partition.add_argument("parts", type=parse_parts)
    one_partition.add_argument("--k", type=int, required=True)
    one_ideal = argparse.ArgumentParser(add_help=False)  # ideal and rankgen
    one_ideal.add_argument("--m", type=int, required=True)
    one_ideal.add_argument("--n", type=int, required=True)
    one_ideal.add_argument("--k", type=int, required=True)

    sub.add_parser("kconj", parents=[one_partition], help="k-conjugate of a partition")
    sub.add_parser("kskew", parents=[one_partition], help="k-skew diagram of a partition")
    p = sub.add_parser(
        "covers", parents=[one_partition], help="covering partitions in the k-Young order"
    )
    p.add_argument("--dir", choices=("up", "down"), default="up")

    p = sub.add_parser("ideal", parents=[one_ideal], help="Hasse diagram of the ideal below (m^n)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--dot", action="store_true", help="DOT graph output; JSON when neither --dot nor --csv"
    )
    fmt.add_argument("--csv", action="store_true", help="rank vector as CSV")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = sub.add_parser(
        "rankgen", parents=[one_ideal], help="rank generating function of the ideal below (m^n)"
    )
    p.add_argument("--pretty", action="store_true", help="human-readable polynomial")

    p = sub.add_parser(
        "verify",
        help="run a named check over a parameter grid",
        description=(
            f"Checks: {', '.join(verify._CHECKS)}.  Default"
            " grids mirror the package's acceptance sweeps and are otherwise"
            " arbitrary; override with the range flags."
        ),
    )
    p.add_argument("check")
    grid = (
        p.add_argument("--m", type=parse_values, help="INT, INT,INT,..., or LO:HI"),
        p.add_argument("--k", type=parse_values, help="INT or LO:HI"),
        p.add_argument("--n", type=parse_values, help="INT or LO:HI"),
        p.add_argument("--a", type=parse_values, help="INT or LO:HI"),
        p.add_argument("--b", type=parse_values, help="INT or LO:HI"),
        p.add_argument("--m-max", type=parse_values, help="structure: rectangle width bound"),
        p.add_argument("--n-max", type=parse_values, help="structure: rectangle height bound"),
        p.add_argument("--k-max", type=parse_values, help="structure: level bound"),
        p.add_argument("--degree-max", type=parse_values, help="structure: partition degree bound"),
    )
    p.set_defaults(grid=[action.dest for action in grid])
    p.add_argument("--out", help="write the JSON report(s) to a file")

    p = sub.add_parser("sweep", help="run checks from a JSON config file")
    p.add_argument("--config", required=True)

    return parser


@contextlib.contextmanager
def _file_access():
    """A sweep config or --out file that cannot be opened, read or written is
    a usage error (exit 2); OSError anywhere else is not."""
    try:
        yield
    except OSError as exc:
        raise ValueError(partitions._cut(str(exc))) from exc  # its text names the path


@contextlib.contextmanager
def _output(out: str | None):
    """stdout, or the --out file, opened as a usage error if it cannot be."""
    if out is None:
        yield sys.stdout
    else:
        with _file_access(), open(out, "w", encoding="utf-8") as fh:
            yield fh


def _verify_params(args) -> dict:
    """Every grid flag that was given, by its param name."""
    return {name: getattr(args, name) for name in args.grid if getattr(args, name) is not None}


def _load_sweeps(path: str) -> list[verify.SweepConfig]:
    """The parsed entries of a sweep config file.  One nested past the
    interpreter's recursion limit, which the JSON decoder meets, is a usage
    error; no sweep has run yet."""
    try:
        with _file_access(), open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return verify.SweepConfig.list_from_json(data)
    except RecursionError:
        raise ValueError(f"sweep config nested too deeply: {partitions._cut(path)}") from None


def _run_sweeps(configs) -> int:
    passed = True
    for config in configs:
        with _file_access():  # run_sweep writes config.out
            reports = verify.run_sweep(config)
        for r in reports:
            print(f"{r.check}: {r.passed} pass, {r.failed} fail, {r.skipped} skip"
                  f" ({r.elapsed_ms} ms)")
        passed = passed and all(r.all_pass() for r in reports)
    return 0 if passed else 1


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the flush at
        # exit does not fail again, and exit as a process killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        if args.command == "kconj":
            result = partitions.k_conjugate(args.parts, args.k)
            print(json.dumps(list(result)))
            return 0
        if args.command == "kskew":
            print(json.dumps(partitions.k_skew(args.parts, args.k).to_json_dict()))
            return 0
        if args.command == "covers":
            result = lattice.covers(args.parts, args.k, args.dir)
            print(json.dumps([list(p) for p in result]))
            return 0
        if args.command == "ideal":
            spec = ideals.IdealSpec(args.m, args.n, args.k)
            if args.csv:
                poly = qpoly.rank_gen_Lk(args.m, args.n, args.k)  # the closed form
                rows = (f"{i},{poly.coefficient(i)}\n" for i in range(spec.top_rank + 1))
                text = "".join(["i,count\n", *rows])
                with _output(args.out) as fh:
                    fh.write(text)
                return 0
            # the whole layout is built before --out is opened, and the text
            # is written one rank at a time
            layout = ideals.IdealLayout(spec)
            with _output(args.out) as fh:
                (lattice.write_dot if args.dot else lattice.write_json)(fh.write, layout)
            return 0
        if args.command == "rankgen":
            poly = qpoly.rank_gen_Lk(args.m, args.n, args.k)
            print(str(poly) if args.pretty else json.dumps(poly.to_json_list()))
            return 0
        if args.command == "verify":
            return _run_sweeps([verify.SweepConfig(args.check, _verify_params(args), args.out)])
        if args.command == "sweep":
            return _run_sweeps(_load_sweeps(args.config))
    except (ValueError, OverflowError) as exc:  # what input raises; any other error is a bug
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
