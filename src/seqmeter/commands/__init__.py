"""The CLI's commands, one module per command group.

Each module holds its commands' argument setup (`add_arguments`) next to
their handlers, and `seqmeter.cli` imports only the module of the command
it runs; `_add_subcommands` lets the CLI and each command group build
the parser of the invoked (sub)command alone.  The helpers below are
shared by every command.  Command modules import them from here, never
from `seqmeter.cli`: under `python -m seqmeter.cli` that module runs as
`__main__`, so importing it by name would compile and run it a second
time.
"""

import argparse
import json
import os
import sys

from .. import __version__
from ..budget import DEFAULT_BUDGET

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _add_subcommands(parser: argparse.ArgumentParser, dest: str, names, argv: list[str],
                     add) -> None:
    """Add parser's subcommands, `names`, for the words `argv` that follow it on the command line.

    Each subcommand is added by add(sub, name, rest), sub being the
    subparsers action; rest is the words after the invoked subcommand,
    None for the others.  The invoked one is the first word of argv not
    starting with "-" (no option here takes a value).  When it is one of
    names and every word before it is a long option other than help, it
    alone is added, and the action's metavar spells every name, so usage
    lines read as they would with all added.  Otherwise (help, a missing
    or unknown subcommand, or a word argparse may read as positional)
    every name is added with no metavar, so help listings and the
    messages that name the action by its dest are argparse's own.
    """
    i = next((i for i, word in enumerate(argv) if not word.startswith("-")), len(argv))
    invoked = argv[i] if i < len(argv) else None
    alone = invoked in names and all(
        word.startswith("--") and word != "--" and not word.startswith("--h") for word in argv[:i])
    sub = parser.add_subparsers(dest=dest, required=True,
                                metavar="{" + ",".join(names) + "}" if alone else None)
    for name in [invoked] if alone else names:
        add(sub, name, argv[i + 1:] if name == invoked else None)


def _env_budget() -> int:
    raw = os.environ.get("SEQMETER_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SEQMETER_BUDGET must be an integer, got {raw!r}")


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
        raise ValueError(f"cannot read {path}: {exc}")


def _parse_hex(text: str, what: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise ValueError(f"{what} must be hexadecimal, got {text!r}")
