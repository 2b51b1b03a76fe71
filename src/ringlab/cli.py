"""Command line entry point: ``ringlab <subcommand> --config <path>``.

Exit codes: 0 all certified inequalities hold, 1 at least one violation,
2 configuration error, or an output directory that cannot be written.
"""
from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError
from .pipeline import SUBCOMMANDS, run_subcommand


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Deterministic ringdown-inference experiments with "
                    "certified error bounds.")
    sub = parser.add_subparsers(dest="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} driver")
        p.add_argument("--config", required=True, help="YAML scenario file")
        p.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
        report = run_subcommand(args.subcommand, cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = report.write(args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {paths['csv']} ({len(report.rows)} rows)")
    for violation in report.violations:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
