"""Command-line entry point.

    tropnet <subcommand> --config FILE [--seed N] [--workers N] [--out DIR]

Subcommands: simulate, bounds, classify, select-layers, regions,
mgale-check, report.  ``select-layers`` additionally accepts --horizon,
--method, --gamma-table, and --basis-degree so small selections run
without a config file.  The TROPNET_OUT environment variable overrides
the output directory; --json-errors switches error reporting to a
machine-readable JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    EXIT_ERROR,
    SUBCOMMANDS,
    ConfigError,
    emit_report,
    parse_config,
    run_subcommand,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropnet",
        description="stochastic max-plus networks: simulation, bound "
                    "verification, classification audits, depth selection")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (overrides the config)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--json-errors", action="store_true",
                       help="report errors as JSON on stdout")
        if name == "select-layers":
            p.add_argument("--horizon", type=int, default=None)
            p.add_argument("--method", default=None)
            p.add_argument("--gamma-table", default=None,
                           help="CSV file of realized utilities")
            p.add_argument("--basis-degree", type=int, default=None)
    rep = sub.add_parser("report")
    rep.add_argument("artifacts", help="artifact directory to summarize")
    rep.add_argument("--out", default=None,
                     help="write the markdown here instead of stdout")
    rep.add_argument("--json-errors", action="store_true")
    return parser


def _fail(message: str, json_errors: bool) -> int:
    if json_errors:
        print(json.dumps({"error": message}, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _set_flags(target, args, keys):
    """Copy the given flags into a config object; a target that is not an
    object is left for ``parse_config`` to report."""
    if isinstance(target, dict):
        target.update({key: getattr(args, key) for key in keys
                       if getattr(args, key) is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.subcommand == "report":
        target = Path(args.artifacts)
        if not target.is_dir():
            return _fail(f"{target} is not a directory", args.json_errors)
        try:
            text = emit_report(target)
        except ValueError as exc:  # a file that is not JSON or UTF-8 text
            return _fail(f"{type(exc).__name__}: {exc}", args.json_errors)
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
        return EXIT_ERROR if "No artifacts found." in text else 0

    try:
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh)
        elif args.subcommand == "select-layers":
            raw = {}
        else:
            return _fail("--config is required", args.json_errors)

        if args.subcommand == "select-layers" and isinstance(raw, dict):
            _set_flags(raw.setdefault("select_layers", {}), args,
                       ("method", "gamma_table", "horizon", "basis_degree"))
        _set_flags(raw, args, ("seed", "workers"))

        cfg = parse_config(args.subcommand, raw)
        code, _ = run_subcommand(args.subcommand, cfg, out_dir=args.out)
        return code
    except json.JSONDecodeError as exc:
        return _fail(f"invalid config JSON: {exc}", args.json_errors)
    except ConfigError as exc:
        return _fail(str(exc), args.json_errors)
    except (ValueError, OSError, MemoryError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", args.json_errors)


if __name__ == "__main__":
    sys.exit(main())
