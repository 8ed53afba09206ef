"""The CLI's commands, one module per command group.

Each module holds its commands' argument setup (`add_arguments`) next to
their handlers, and `seqmeter.cli` imports only the module of the command
it runs.  The helpers below are shared by every command.  Command modules
import them from here, never from `seqmeter.cli`: under
`python -m seqmeter.cli` that module runs as `__main__`, so importing it
by name would compile and run it a second time.
"""

import json
import os
import sys

from .. import __version__
from ..budget import DEFAULT_BUDGET

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _usage(msg: str) -> SystemExit:
    print(f"seqmeter: {msg}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _env_budget() -> int:
    raw = os.environ.get("SEQMETER_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise _usage(f"SEQMETER_BUDGET must be an integer, got {raw!r}")


def _manifest(args) -> dict:
    return {
        "argv": args.argv,
        "version": __version__,
        "budget": getattr(args, "budget", None),
        "jobs": getattr(args, "jobs", None),
        "seed": getattr(args, "seed", None),
    }


def _emit(args, payload: dict, human: str | None = None) -> None:
    payload = dict(payload)
    payload["manifest"] = _manifest(args)
    sys.stdout.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
    if human and not args.quiet:
        print(human, file=sys.stderr)


def _load(path: str):
    from ..bitseq import load

    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise _usage(f"cannot read {path}: {exc}")


def _parse_hex(text: str, what: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise _usage(f"{what} must be hexadecimal, got {text!r}")
