"""Command-line interface.

Subcommands:
  analyze <file>   full analysis reports for a JSON-lines dataset
  certify <file>   certificate-only summaries for a dataset
  count <label>    points of bounded canonical height on a bundled curve
  minima <label>   successive minima of a bundled curve's height lattice

Global flags select the working precision, the certified error target,
the enumeration budget, and the output destination and format.  Exit
status: 0 when everything passed, 2 when any certificate failed, 1 on
parse, I/O, or data errors.
"""

import argparse
import csv
import io
import json
import sys

from .errors import EllregError
from .harness import (
    HarnessConfig,
    batch,
    bundled_dataset_path,
    exit_status,
    ingest,
    run_batch,
    write_text,
)
from .heights import gram_matrix, torsion_subgroup
from .lattice import count_points_below, successive_minima
from .points import point
from .weierstrass import curve

__all__ = ["build_parser", "main"]


def _add_global_flags(parser, defaults):
    """The shared flags, accepted both before and after the subcommand."""

    def dft(value):
        return value if defaults else argparse.SUPPRESS

    parser.add_argument(
        "--precision",
        type=int,
        default=dft(128),
        help="minimum working precision in bits for the height series (default 128)",
    )
    parser.add_argument(
        "--target-err",
        type=float,
        default=dft(1e-12),
        help="certified absolute error target for heights (default 1e-12)",
    )
    parser.add_argument(
        "--enum-cap",
        type=float,
        default=dft(1e8),
        help="budget for lattice point enumeration (default 1e8)",
    )
    parser.add_argument("--out", default=dft(None), help="write output to this file")
    parser.add_argument(
        "--csv",
        action="store_true",
        default=dft(False),
        help="emit a CSV summary instead of JSON",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ellreg",
        description="canonical heights, regulator lattices, and bound certificates",
    )
    _add_global_flags(parser, defaults=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_global_flags(p, defaults=False)
        return p

    p = subparser("analyze", "full reports for every curve in a dataset")
    p.add_argument("file", help="JSON-lines dataset path")
    p.add_argument("--corrupt-gram", action="store_true", help=argparse.SUPPRESS)

    p = subparser("certify", "certificate summaries for a dataset")
    p.add_argument("file", help="JSON-lines dataset path")
    p.add_argument("--corrupt-gram", action="store_true", help=argparse.SUPPRESS)

    p = subparser("count", "count points of bounded canonical height")
    p.add_argument("label", help="curve label in the dataset")
    p.add_argument("--T", type=float, required=True, help="height bound")
    p.add_argument(
        "--data", default=None, help="dataset path (default: bundled curves)"
    )

    p = subparser("minima", "successive minima of the height lattice")
    p.add_argument("label", help="curve label in the dataset")
    p.add_argument(
        "--data", default=None, help="dataset path (default: bundled curves)"
    )
    return parser


def _config(args):
    return HarnessConfig(
        precision=args.precision,
        target_err=args.target_err,
        enum_cap=int(args.enum_cap),
        corrupt_gram=getattr(args, "corrupt_gram", False),
    )


def _certify_entries(entries):
    slim = []
    for entry in entries:
        if "certificates" in entry:
            slim.append(
                {"label": entry["label"], "certificates": entry["certificates"]}
            )
        else:
            slim.append(entry)
    return slim


_CERT_CSV_FIELDS = [
    "label",
    "name",
    "status",
    "lhs",
    "rhs",
    "margin",
    "err_budget",
    "note",
]


def _certify_csv(entries):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CERT_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for entry in entries:
        if "error" in entry:
            writer.writerow(
                {
                    "label": entry.get("label", ""),
                    "name": "error",
                    "status": entry["error"]["type"],
                    "note": entry["error"]["message"],
                }
            )
            continue
        for cert in entry["certificates"]:
            writer.writerow(
                {
                    "label": entry["label"],
                    "name": cert["name"],
                    "status": cert["status"],
                    "lhs": repr(cert["lhs"]),
                    "rhs": repr(cert["rhs"]),
                    "margin": repr(cert["margin"]),
                    "err_budget": repr(cert["err_budget"]),
                    "note": cert["note"],
                }
            )
    return buf.getvalue()


def _lookup(label, data_path):
    records = ingest(data_path if data_path else bundled_dataset_path())
    for rec in records:
        if rec.label == label:
            return rec
    raise EllregError(f"label {label!r} not found in the dataset")


def _cmd_analyze(args):
    return batch(args.file, args.out, _config(args), args.csv)


def _cmd_certify(args):
    entries, _ = run_batch(args.file, _config(args))
    slim = _certify_entries(entries)
    if args.csv:
        text = _certify_csv(slim)
    else:
        text = json.dumps(slim, indent=2, sort_keys=True) + "\n"
    write_text(text, args.out)
    return exit_status(slim)


def _gram(rec, config):
    c = curve(rec.ainvs)
    gens = [point(x, y) for x, y in rec.gens]
    return c, gram_matrix(c, gens, config.target_err, config.precision)


def _cmd_count(args):
    config = _config(args)
    rec = _lookup(args.label, args.data)
    c, gram = _gram(rec, config)
    tors = torsion_subgroup(c)
    n = count_points_below(gram, tors.order, args.T, cap=config.enum_cap)
    doc = {"label": rec.label, "T": args.T, "count": n}
    write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_minima(args):
    config = _config(args)
    rec = _lookup(args.label, args.data)
    _, gram = _gram(rec, config)
    profile = successive_minima(gram, cap=config.enum_cap)
    doc = {
        "label": rec.label,
        "minima": list(profile.values),
        "vectors": [list(v) for v in profile.vectors],
    }
    write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "certify": _cmd_certify,
    "count": _cmd_count,
    "minima": _cmd_minima,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EllregError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
