"""Command line interface.

Partitions are written as comma-separated parts ("4,2,1,1"; "" or "-" for
the empty partition).  Range flags accept "lo:hi" or a single integer.
For ``verify conjecture-u``, ``--m LO:HI`` runs every prime in the range and
``--m A,B,...`` runs exactly the values given, each of which must be prime.
A flag the chosen check does not read, like a sweep-config param it does not
know, is a usage error.
Exit codes: 0 all checks passed, 1 a counterexample was found, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import json
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


def parse_span(text: str):
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return (int(lo), int(hi))
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INT or LO:HI, got {text!r}")


def parse_m_values(text: str):
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return (int(lo), int(hi))
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INT, INT,INT,..., or LO:HI, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kyoung",
        description="Exact combinatorics of the k-Young lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kconj", help="k-conjugate of a partition")
    p.add_argument("parts", type=parse_parts)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("kskew", help="k-skew diagram of a partition")
    p.add_argument("parts", type=parse_parts)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("covers", help="covering partitions in the k-Young order")
    p.add_argument("parts", type=parse_parts)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dir", choices=("up", "down"), default="up")

    p = sub.add_parser("ideal", help="Hasse diagram of the ideal below (m^n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="DOT graph output")
    fmt.add_argument("--json", action="store_true", help="JSON graph output (default)")
    fmt.add_argument("--csv", action="store_true", help="rank vector as CSV")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = sub.add_parser("rankgen", help="rank generating function of the ideal below (m^n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pretty", action="store_true", help="human-readable polynomial")

    p = sub.add_parser(
        "verify",
        help="run a named check over a parameter grid",
        description=(
            "Checks: conjecture-u, conjecture-gen, sieved, structure.  Default"
            " grids mirror the package's acceptance sweeps and are otherwise"
            " arbitrary; override with the range flags."
        ),
    )
    p.add_argument("check", choices=("conjecture-u", "conjecture-gen", "sieved", "structure"))
    p.add_argument("--m", type=parse_m_values, help="INT, INT,INT,..., or LO:HI")
    p.add_argument("--k", type=parse_span, help="INT or LO:HI")
    p.add_argument("--n", type=parse_span, help="INT or LO:HI")
    p.add_argument("--a", type=parse_span, help="INT or LO:HI")
    p.add_argument("--b", type=parse_span, help="INT or LO:HI")
    p.add_argument("--m-max", type=int, help="structure: rectangle width bound")
    p.add_argument("--n-max", type=int, help="structure: rectangle height bound")
    p.add_argument("--k-max", type=int, help="structure: level bound")
    p.add_argument("--degree-max", type=int, help="structure: partition degree bound")
    p.add_argument("--out", help="write the JSON report(s) to a file")

    p = sub.add_parser("sweep", help="run checks from a JSON config file")
    p.add_argument("--config", required=True)

    return parser


def _print_or_write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verify_params(args) -> dict:
    names = ("m", "k", "n", "a", "b", "m_max", "n_max", "k_max", "degree_max")
    params = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if isinstance(params.get("m"), list):
        # Each comma-list value stays apart, so that two of them do not read as [lo, hi].
        values = params["m"]
        params["m"] = values[0] if len(values) == 1 else [[v] for v in values]
    return params


def _summarize(reports) -> None:
    for rep in reports:
        line = (
            f"{rep.check}: {rep.passed} pass, {rep.failed} fail, {rep.skipped} skip"
            f" ({rep.elapsed_ms} ms)"
        )
        print(line)


def _run_sweeps(configs) -> int:
    passed = True
    for config in configs:
        reports = verify.run_sweep(config)
        _summarize(reports)
        passed = passed and all(r.all_pass() for r in reports)
    return 0 if passed else 1


def main(argv=None) -> int:
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
            diagram = lattice.build_ideal(spec.rectangle, args.k)
            if args.csv:
                rv = ideals.rank_vector(diagram.vertices(), spec.top_rank)
                _print_or_write(rv.to_csv(), args.out)
            elif args.dot:
                _print_or_write(diagram.to_dot(), args.out)
            else:
                _print_or_write(verify.render(diagram, "json"), args.out)
            return 0
        if args.command == "rankgen":
            poly = qpoly.rank_gen_Lk(args.m, args.n, args.k)
            print(str(poly) if args.pretty else json.dumps(poly.to_json_list()))
            return 0
        if args.command == "verify":
            return _run_sweeps([verify.SweepConfig(args.check, _verify_params(args), args.out)])
        if args.command == "sweep":
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
            entries = data["sweeps"] if isinstance(data, dict) and "sweeps" in data else [data]
            if not isinstance(entries, list):
                raise ValueError(f"sweep config 'sweeps' must be a list of objects: {entries!r}")
            return _run_sweeps([verify.SweepConfig.from_json_dict(entry) for entry in entries])
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
