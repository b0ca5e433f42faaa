"""Batch command line interface.

Subcommands: info, verify, table1, antichains, nullcone-char.  All accept
--json; exit codes are 0 (all good), 1 (a verification check or a
library self-check failed) and 2 (usage or validation error, or output
that cannot be written, such as a closed pipe or a full disk).  Output
is ASCII and byte-identical across runs; timings are opt-in because
they would break that.  A CLI process ends by ``os._exit`` once its
stdout and stderr are flushed (``entry``), so no ``atexit`` handler runs
in it: a coverage run of CLI children needs its own hook.

This module holds the grammar, its plain reader, the dispatch and the
one emitter.  The grammar is one table, ``_COMMANDS``.  A command line
spelled out in full (an exact subcommand, exact option names, each value
as the next token, and the one system where the subcommand takes one)
is read by ``_plain_args``, which sets what argparse would set.  Every
other command line (``--help``, an abbreviation such as ``--max-deg``,
``--opt=value``, ``--``, or a usage error) is read by ``argreader``, whose
argparse parser is built from the same table, passed in; argparse writes
every help text and usage error.  ``argreader``, and argparse with the
``gettext`` and ``locale`` it loads, are imported only then, so neither
importing this module nor running a fully spelled command compiles or
loads them.  Each subcommand's body is its own module, ``cmd_<name>``
(``cmd_nullcone_char`` for ``nullcone-char``), imported only once the
command line is read; its ``run(args)`` returns
the payload, the text lines and the exit code, and ``_emit`` writes one
or the other.  JSON is written by the package's writer ``jsonout``,
imported only by ``--json`` and by ``verify``'s text line of a failed
check: it gives what ``json.dumps`` gives, and ``json`` would load ``re``
and ``enum`` into every child.  ``_emit`` hands it the payload as the
command built it; the writer writes the records, value types and
polynomials in it itself.  No module imports this one: under
``python -m shortroots.cli`` it is ``__main__``, and an import of
``shortroots.cli`` would compile it a second time.

Importing this module loads only ``rootsystem``, ``cartan`` and ``errors``;
the classifier ``classify`` is not among them, nor the orbit walks
``orbits`` or the caps ``config``, and of the standard library neither
``json``, ``typing``, ``re``, ``enum`` nor ``__future__``.  Building a
system loads ``config``, whose ``MAX_ROOT_WORK`` caps its root closure.
The engines are lazy modules of the package, reached through their
module objects (``gc.hilbert_check``), so each subcommand compiles and
runs only the modules it calls: ``antichains`` adds ``cmd_antichains``,
``antichains`` and ``config``, ``nullcone-char`` adds
``cmd_nullcone_char``, ``gradedchar``, its table module ``qtables``,
``orbits`` and ``config``, ``info`` on a system with one root length adds
``cmd_info`` and ``config`` alone, ``verify --check sign-partition`` adds
``cmd_verify``, ``checks``, ``littleadjoint`` and ``config``, and a full
``verify`` on a system with two root lengths loads every library
module.
"""

import importlib
import os
import sys
import types

from .errors import IdentityViolation, SizeLimitExceeded

SCHEMA_VERSION = 1


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        from .jsonout import dumps

        payload = {"schemaVersion": SCHEMA_VERSION, **payload}
        print(dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# The grammar, stated once: each subcommand's help, the keyword arguments
# of its positional ``system`` (None where it takes none) and its options
# with their argparse keyword arguments, in the order of the help.  Every
# option names its default, which ``_plain_args`` sets as argparse does.
_JSON = {"action": "store_true", "default": False}
_COMMANDS = {
    "info": ("constants of one system", {"help": "type and rank, e.g. C4 or G2"},
             {"--json": _JSON}),
    "verify": ("run the verification catalog", {}, {
        "--check": {"action": "append", "default": None, "metavar": "ID",
                    "help": "restrict to one check id (repeatable)"},
        "--json": _JSON,
        "--timings": {"action": "store_true", "default": False,
                      "help": "include wall time (breaks byte-determinism)"},
    }),
    "table1": ("summary table of the four families", None, {"--json": _JSON}),
    "antichains": ("antichain counts for one system", {}, {"--json": _JSON}),
    "nullcone-char": ("graded nullcone character", {},
                      {"--max-degree": {"type": int, "default": 8}, "--json": _JSON}),
}


def _plain_args(argv):
    """The namespace argparse reads from argv, when argv is spelled out in
    full: an exact subcommand, exact option names, a value after each
    valued option that does not start with "-" (and that int() reads, for
    --max-degree), and its one system if it takes one.  Any other argv
    (help, --, --opt=value, an abbreviation, a negative number, a usage
    error) gives None, and argparse reads it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, system, options = _COMMANDS[argv[0]]
    values = {option: kwargs["default"] for option, kwargs in options.items()}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        kwargs = options.get(token)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            values[token] = True
            continue
        value = next(tokens, "-")   # a missing value reads as an option
        if value.startswith("-"):
            return None
        if kwargs.get("action") == "append":
            values[token] = (values[token] or []) + [value]
            continue
        try:
            values[token] = kwargs.get("type", str)(value)
        except ValueError:
            return None
    if len(positionals) != (system is not None):
        return None
    args = {option[2:].replace("-", "_"): value for option, value in values.items()}
    if positionals:
        args["system"] = positionals[0]
    return types.SimpleNamespace(command=argv[0], **args)


def main(argv=None) -> int:
    """Run one command line; its exit code.  Every path flushes stdout
    here, so that a write that fails is reported as exit code 2."""
    try:
        code = _run(argv)
        sys.stdout.flush()   # a buffered write fails here, not at exit
        return code
    except OSError as exc:
        # point stdout at devnull, so that a later flush (entry's) fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc.strerror}", file=sys.stderr)
        return 2


def _run(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        from .argreader import read

        try:
            args = read(_COMMANDS, argv)
        except SystemExit as exc:   # --help, or a usage error already on stderr
            return int(exc.code or 0)
    # the body of subcommand "nullcone-char" is module cmd_nullcone_char
    command = importlib.import_module(f".cmd_{args.command.replace('-', '_')}", __package__)
    try:
        payload, lines, code = command.run(args)
    except ValueError as exc:   # NotFiniteType and UnsupportedRootSystem among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except IdentityViolation as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.json, lines)
    return code


def entry() -> None:
    """The ``shortroots`` console script and ``python -m shortroots.cli``:
    run main, flush both streams and end the process with ``os._exit``.
    That skips the interpreter's teardown, which frees every module and
    table only for the exit to hand the memory back, and is a tenth of a
    short run's CPU time; so no ``atexit`` handler runs.  An exception
    that escapes main takes the normal exit."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
