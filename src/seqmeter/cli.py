"""Command-line front end.

JSON goes to stdout (keys sorted, so identical runs are byte-identical
up to the timing fields of `verify all`); human-readable notes go to
stderr.  Exit codes: 0 ok, 1 check failed, 2 usage error, 3 search
budget exceeded or memory exhausted.

Every CLI call is a new process, which compiles each module it loads
wherever bytecode is not cached.  So this module holds only the entry
point and the command table; each command's arguments and handler live
in its module under `seqmeter.commands`, and a call imports, compiles
and builds the parser of only the command it runs; the `bounds` and `gen`
groups likewise build only the subcommand invoked.  Help and usage
errors print what a parser holding every command would.  Each handler in
turn imports the modules it runs (see `seqmeter/__init__.py`).

A process enters through `run()`: the console script `seqmeter` and
`python -m seqmeter.cli` both call it.  It runs `main()` and then, on
every way out (a return, argparse's SystemExit, a traceback), moves
every object still alive into the permanent generation with
`gc.freeze()`.  Interpreter shutdown runs full collections over the heap
a run leaves behind, and no collection walks the permanent generation,
so a call ends about 6 ms sooner.  Shutdown itself still runs (atexit
hooks, stream flushes, module teardown); what the freeze skips is only
the collection of cyclic garbage, and no output depends on it: files are
written whole by `Path.write_text`, JSON goes to stdout, and every
search runs in this process.  `main()` is the in-process API and leaves
the collector as it found it.

Usage errors that argparse does not catch (an unreadable file, a bad
number, conflicting options) are raised as ValueError, and `main()`
alone prints them, as one `seqmeter: <message>` line, and returns 2.
"""

import argparse
import gc
import importlib
import sys

from . import __version__
from .budget import BudgetExceededError
from .commands import EXIT_BUDGET, EXIT_USAGE, _add_subcommands, _env_budget

# command -> (its module under seqmeter.commands, its help line)
COMMANDS = {
    "gen": ("gen", "generate a reference sequence"),
    "lc": ("complexity", "lc of a sequence prefix"),
    "moc": ("complexity", "moc of a sequence prefix"),
    "kerror": ("complexity", "k-error linear complexity (exhaustive)"),
    "corr": ("corr", "order-k correlation measure, exhaustive"),
    "peaks": ("peaks", "find a full periodic peak (a least constant fold)"),
    "bounds": ("bounds", "threshold and bound calculators"),
    "verify": ("verify", "run the acceptance checks"),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`, holding the one command it names when it names a valid one.

    Only that command's module is imported and only its arguments are
    added.  For help, a missing or an unknown command, every command is
    registered with its help line, so the listing and the error are those
    of a full parser (see `commands._add_subcommands`).
    """
    parser = argparse.ArgumentParser(
        prog="seqmeter",
        description="Pseudorandomness measures of binary sequences: "
                    "complexity profiles, correlation measures, peak certificates.",
    )
    parser.add_argument("--version", action="version", version=f"seqmeter {__version__}")
    parser.add_argument("--quiet", action="store_true", help="suppress stderr notes")
    # --quiet is also accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value set at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)

    def add(sub, name, rest):
        module, help_line = COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_line)
        if rest is not None:
            importlib.import_module(f".commands.{module}", __package__).add_arguments(
                p, common, name, rest)

    _add_subcommands(parser, "command", COMMANDS, argv, add)
    return parser


def _drop_separator(words: list[str], start: int, names) -> int | None:
    """Drop a `--` directly before the (sub)command that words[start:] invoke; return its index.

    The invoked word is the first one from start not starting with "-",
    and None is returned when it is not one of names.  argparse hands a
    `--` before it to the subparsers action, which rejects it as a
    choice, so that `--` is dropped when it is the only one before the
    word.  Any other `--` is left to argparse.
    """
    i = next((i for i in range(start, len(words)) if not words[i].startswith("-")), len(words))
    if i == len(words) or words[i] not in names:
        return None
    if words[i - 1] == "--" and words[start:i].count("--") == 1:
        del words[i - 1]
        i -= 1
    return i


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" in argv:
        i = _drop_separator(argv, 0, COMMANDS)
        if i is not None:
            module = importlib.import_module(f".commands.{COMMANDS[argv[i]][0]}", __package__)
            if hasattr(module, "SUBCOMMANDS"):  # a group: bounds, gen
                _drop_separator(argv, i + 1, module.SUBCOMMANDS)
    args = build_parser(argv).parse_args(argv)
    args.argv = argv  # the manifest records the words parsed, not sys.argv
    # The budgets price work, not memory, so a search they let through can
    # still run out of it.  While its MemoryError unwinds, the generators it
    # was looping over are closed with memory still full, and each failed
    # close would print its own traceback through the unraisable hook.
    hook = sys.unraisablehook
    sys.unraisablehook = lambda u: None if issubclass(u.exc_type, MemoryError) else hook(u)
    try:
        if getattr(args, "budget", None) is None and hasattr(args, "budget"):
            args.budget = _env_budget()
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"seqmeter: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("seqmeter: search ran out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"seqmeter: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.unraisablehook = hook


def run() -> int:
    """The process entry: main() on sys.argv, then the heap frozen for shutdown (see above)."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
