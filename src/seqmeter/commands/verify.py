"""`seqmeter verify all`: run the acceptance checks."""

import argparse
import sys

from . import EXIT_CHECK_FAILED, EXIT_OK, _emit


SUBCOMMANDS = {"all": None}  # no help line
DEST = "verify_command"


def add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    parser.add_argument("--seed", type=int, default=None)
    parser.set_defaults(func=cmd_verify)


def cmd_verify(args) -> int:
    from ..verify import DEFAULT_SEED, run_all

    if args.seed is None:
        args.seed = DEFAULT_SEED
    results = run_all(scale=args.scale, seed=args.seed)
    payload = {
        "scale": args.scale,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "cases": r.cases,
                "runtime_seconds": round(r.runtime, 3),
                "budget_seconds": r.budget_seconds,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _emit(args, payload)
    if not args.quiet:
        for r in results:
            print(r.line(), file=sys.stderr)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED
