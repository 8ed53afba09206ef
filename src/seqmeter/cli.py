"""Command-line front end.

JSON goes to stdout (keys sorted, so identical runs are byte-identical
up to the timing fields of `verify all`); human-readable notes go to
stderr.  Exit codes: 0 ok, 1 check failed, 2 usage error, 3 search
budget exceeded or memory exhausted.

Every CLI call is a new process, which compiles each module it loads
wherever bytecode is not cached.  So this module holds only the entry
point and the command table; each command's arguments and handler live
in its module under `seqmeter.commands`.  One walk over the words,
`commands._add_subcommands`, finds the invoked command, and `build_parser`
descends with it into a group's invoked subcommand; a call imports,
compiles and adds the arguments of only what it runs.  Help and usage
errors print what a parser holding every command would.  Each handler
in turn imports the modules it runs (see `seqmeter/__init__.py`), and
each measure has its own: `complexity` holds L and the k-error walk,
`moc` holds M, their oracles are in `verify`, and the helpers both use
are in `bitseq`.  Compiling is most of seqmeter's own cost in a small
call: cli-oneshot `batch_s` reads 0.616 s without cached bytecode and
0.521 s with it (2 cores, Python 3.11, `python -c pass` 49 ms).

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

# command -> its help line
COMMANDS = {
    "gen": "generate a reference sequence",
    "lc": "lc of a sequence prefix",
    "moc": "moc of a sequence prefix",
    "kerror": "k-error linear complexity (exhaustive)",
    "corr": "order-k correlation measure, exhaustive",
    "peaks": "find a full periodic peak (a least constant fold)",
    "bounds": "threshold and bound calculators",
    "verify": "run the acceptance checks",
}
# a command's module under seqmeter.commands, where it is not named after the command
MODULES = dict.fromkeys(("lc", "moc", "kerror"), "complexity")


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`, holding the one command it names when it names a valid one.

    The walk finds the invoked command and, in a group (a module that
    declares SUBCOMMANDS and DEST: bounds, gen, verify), the invoked
    subcommand, deleting from argv in place a `--` directly before
    either.  Only the invoked command's module is imported, and only the
    invoked (sub)command gets its arguments, from the module's
    add_arguments(parser, name).  For help, a missing or an unknown
    command, every command is registered with its help line, so the
    listing and the error are those of a full parser.
    """
    parser = argparse.ArgumentParser(
        prog="seqmeter",
        description="Pseudorandomness measures of binary sequences: "
                    "complexity profiles, correlation measures, peak certificates.",
    )
    parser.add_argument("--version", action="version", version=f"seqmeter {__version__}")
    parser.add_argument("--quiet", action="store_true", help="suppress stderr notes")
    invoked = _add_subcommands(parser, "command", COMMANDS, argv, 0)
    if invoked is None:
        return parser
    i, p = invoked
    module = importlib.import_module(f".commands.{MODULES.get(argv[i], argv[i])}", __package__)
    if hasattr(module, "SUBCOMMANDS"):
        invoked = _add_subcommands(p, module.DEST, module.SUBCOMMANDS, argv, i + 1)
        if invoked is None:
            return parser
        i, p = invoked
    module.add_arguments(p, argv[i])
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
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
