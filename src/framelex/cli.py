"""Command line browser: one-shot subcommands and an interactive REPL.

Both read one table, ``COMMANDS``: each shared command's query, output format
and argument.  The REPL adds drill-down context and never dies on malformed
input.  Exit codes: 0 success, also when the reader of the output leaves
early; 1 name or ID not found; 2 usage or bad pattern; 3 unusable data.
"""

import argparse
import io
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

from .errors import CorpusError, LookupFailure, PatternError, UsageError
from .lexicon import open_lexicon
from . import render
from .store import ENV_DATA_DIR
from .xmlio import LU_ID


# What ``build_parser`` hands back for a subcommand it does not build.
_UNBUILT = SimpleNamespace(add_argument=lambda *args, **kwargs: None)


def build_parser(argv=None):
    """The command line parser.

    Given an ``argv`` whose command comes after nothing but the shared
    options, it builds that command's subparser alone.  The other
    subcommands are then names only, and nothing that parsing ``argv``
    prints shows more of them.
    """
    # The shared options hang off every subparser too, so they are accepted
    # before and after the subcommand.  SUPPRESS keeps an absent subcommand
    # flag from clobbering a value parsed up front; run() fills in defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", metavar="DIR", default=argparse.SUPPRESS,
                        help=f"corpus directory (default: ${ENV_DATA_DIR})")
    common.add_argument("--width", type=int, default=argparse.SUPPRESS, metavar="N",
                        help="display wrap width")
    common.add_argument("--ids", action="store_true", default=argparse.SUPPRESS,
                        help="print tab-separated ID listings")

    parser = argparse.ArgumentParser(
        prog="framelex", description="Browse a FrameNet-1.7-format lexical database.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    command = None if argv is None else _command_of(argv)

    def add_parser(name, **kwargs):
        if command in (None, name):
            return sub.add_parser(name, parents=[common], **kwargs)
        sub.choices[name] = None  # a name only: parsing argv never reaches it
        return _UNBUILT

    add_parser("frame", help="show one frame").add_argument("key", help="frame name or ID")
    add_parser("frames", help="list frames by name pattern").add_argument("pattern", nargs="?")
    add_parser("lu", help="show one lexical unit").add_argument("id", type=int)
    for name, what in (("lus", "lexical units"), ("fes", "frame elements")):
        sp = add_parser(name, help=f"list {what} by name pattern")
        sp.add_argument("pattern", nargs="?")
        sp.add_argument("--frame", help="confine to one frame (name, pattern, or ID)")
    sp = add_parser("relations", help="list frame-to-frame relations")
    sp.add_argument("--frame", help="a frame on either side")
    sp.add_argument("--frame2", help="the frame on the other side")
    sp.add_argument("--type", help="relation type name")
    add_parser("relation-types", help="list frame relation types")
    add_parser("fe-relations", help="list FE-to-FE mappings")
    add_parser("semtypes", help="list semantic types")
    sp = add_parser("semtype", help="show one semantic type")
    sp.add_argument("key", help="name, abbreviation, or ID")
    add_parser("propagate-semtypes", help="push FE semantic types down the FE mappings")
    sp = add_parser("annotations", help="list frame annotation sets")
    sp.add_argument("pattern", nargs="?", help="LU name pattern")
    sp.add_argument("--no-exemplars", action="store_true")
    sp.add_argument("--no-fulltext", action="store_true")
    sp = add_parser("exemplars", help="list lexicographic sentences")
    sp.add_argument("pattern", nargs="?", help="LU name pattern")
    sp = add_parser("ft-sents", help="list full-text sentences")
    sp.add_argument("pattern", nargs="?", help="document name pattern")
    add_parser("doc", help="show one full-text document").add_argument("id", type=int)
    add_parser("docs", help="list full-text documents").add_argument("pattern", nargs="?")
    add_parser("stats", help="corpus-wide counts")
    add_parser("browse", help="interactive browser")
    return parser


def _command_of(argv):
    """The first word of ``argv`` after any ``--ids``, ``--data DIR`` and
    ``--width N``, which argparse reads as the command; None if another
    option comes first."""
    words = iter(argv)
    for word in words:
        if word in ("--data", "--width"):
            next(words, None)  # the option's value: argparse takes it or fails
        elif word != "--ids" and not word.startswith(("--data=", "--width=")):
            return None if word.startswith("-") else word
    return None


def _listing(line, ids_field="{name}"):
    """Listing output: ``line`` per item, ``ID<TAB>ids_field`` with ``--ids``;
    each a function of the item or a ``str.format_map`` template over it."""
    line, field = (f.format_map if isinstance(f, str) else f for f in (line, ids_field))
    return lambda items, options, ids: "".join(
        f"{item.ID}\t{field(item)}\n" if ids else line(item) + "\n" for item in items)


def _lines(lines, options, ids):
    return "".join(line + "\n" for line in lines)


def _semtype_line(st):
    under = f" under {st.superType.name}" if st.superType is not None else ""
    return f"({st.ID}) {st.name} <{st.abbrev}>{under}"


def _annotation_lu(aset):
    return aset.get("luName") or getattr(aset.get("LU"), "name", "")


def _annotation_line(aset):
    lu_name = _annotation_lu(aset)
    frame_name = aset.get("frameName") or getattr(aset.get("frame"), "name", "")
    return f"({aset.ID}) {frame_name}/{lu_name} [{aset.status}] sentence {aset.sent.ID}"


def _stats(lexicon):
    frames = lexicon.frames()
    annotation_sets = lexicon.annotations()
    return [
        f"frames: {len(frames)}",
        f"lexical units: {len(lexicon.store.lu_index())}",
        f"frame elements: {sum(len(f.FE) for f in frames)}",
        f"frame relation types: {len(lexicon.frame_relation_types())}",
        f"frame relations: {len(lexicon.frame_relations())}",
        f"fe relations: {len(lexicon.fe_relations())}",
        f"semantic types: {len(lexicon.semtypes())}",
        f"documents: {len(lexicon.docs())}",
        f"exemplar sentences: {len(lexicon.exemplars())}",
        f"frame annotation sets: {len(annotation_sets)}",
    ]


_FE_MAPPING = ("{frameRelation.superFrameName}.{superFEName} -> "
               "{frameRelation.subFrameName}.{subFEName}")
_SENTS = _listing("({ID}) {text}", "{text}")
# name -> (query(lexicon, parsed args), output(result, DisplayOptions, ids) ->
# text, REPL argument: "<...>" required, "[pattern]" optional, "" none).
COMMANDS = {
    "frame": (lambda lex, a: lex.frame(a.key),
              lambda frame, options, ids: render.render_frame(frame, options), "<name-or-id>"),
    "frames": (lambda lex, a: lex.frames(a.pattern), _listing("({ID}) {name}"), "[pattern]"),
    "lu": (lambda lex, a: lex.lu(a.id),
           lambda lu, options, ids: render.render_lu(lu, options), "<name-or-id>"),
    "lus": (lambda lex, a: lex.lus(a.pattern, frame=a.frame),
            _listing("({ID}) {name} in {frame.name}"), "[pattern]"),
    "fes": (lambda lex, a: lex.fes(a.pattern, frame=a.frame),
            _listing("({ID}) {name} [{coreType}] in {frame.name}"), "[pattern]"),
    "relations": (lambda lex, a: lex.frame_relations(
                      frame=a.frame, frame2=a.frame2, type=a.type),
                  _listing(render.relation_line, render.relation_line), ""),
    "relation-types": (lambda lex, a: lex.frame_relation_types(),
                       _listing("({ID}) {name}: {superFrameName} -> {subFrameName}"), ""),
    "fe-relations": (lambda lex, a: lex.fe_relations(),
                     _listing("({ID}) " + _FE_MAPPING, _FE_MAPPING), ""),
    "semtypes": (lambda lex, a: lex.semtypes(), _listing(_semtype_line), ""),
    "semtype": (lambda lex, a: lex.semtype(a.key),
                lambda st, options, ids: render.render_semtype(st, options), "<key>"),
    "propagate-semtypes": (
        lambda lex, a: [f"added {lex.propagate_semtypes()} semantic type labels"], _lines, ""),
    "annotations": (lambda lex, a: lex.annotations(
                        a.pattern, exemplars=not a.no_exemplars, full_text=not a.no_fulltext),
                    _listing(_annotation_line, _annotation_lu), "[pattern]"),
    "exemplars": (lambda lex, a: lex.exemplars(a.pattern), _SENTS, "[pattern]"),
    "ft-sents": (lambda lex, a: lex.ft_sents(a.pattern), _SENTS, "[pattern]"),
    "doc": (lambda lex, a: lex.doc(a.id),
            lambda doc, options, ids: render.render_document(doc, options), "<id>"),
    "docs": (lambda lex, a: lex.docs(a.pattern), _listing("({ID}) {name} ({corpusName})"),
             "[pattern]"),
    "stats": (lambda lex, a: _stats(lex), _lines, ""),
}


def run(argv=None, stdin=None, stdout=None, stderr=None):
    """Run one CLI invocation; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        options = render.DisplayOptions(wrap_width=getattr(args, "width", 70))
        lexicon = open_lexicon(getattr(args, "data", None))
        if args.command == "browse":
            stdin = sys.stdin if stdin is None else stdin
            # With no standard input at all, the shell ends as at end-of-file.
            return repl(lexicon, options, io.StringIO() if stdin is None else stdin, stdout)
        query, output, _ = COMMANDS[args.command]
        stdout.write(output(query(lexicon, args), options, getattr(args, "ids", False)))
        return 0
    except LookupFailure as exc:
        stderr.write(f"framelex: not found: {exc}\n")
        return 1
    except (PatternError, UsageError) as exc:
        stderr.write(f"framelex: usage: {exc}\n")
        return 2
    except CorpusError as exc:
        stderr.write(f"framelex: data: {exc}\n")
        return 3


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


# ------------------------------------------------------------------ REPL

REPL_HELP = """\
Drill-down commands:
  frame <name-or-id>   show a frame and make it the context
  lu <name-or-id>      show a lexical unit (by name within the frame context)
  fe <name>            show a frame element of the context frame
  exemplar <k>         show the k-th exemplar of the context LU (0-based)
  doc <id>             show a full-text document and make it the context
  sent <k>             show the k-th sentence of the context document
  annoset <k>          show the k-th annotation set of the context sentence
  up                   pop one context level
  quit                 leave the browser
Listing commands (optional pattern argument):
  frames, lus, fes, docs, exemplars, ft-sents, annotations
Others: relations, relation-types, fe-relations, semtypes, semtype <key>,
stats, propagate-semtypes, help
"""


class _ReplArgs(SimpleNamespace):
    """A REPL line's arguments: its one argument fills any positional."""
    frame = frame2 = type = None  # the options only the CLI has stay unset
    no_exemplars = no_fulltext = False


# The words of a line split on shlex's whitespace alone.
_WORDS = re.compile(r"[^ \t\r\n]+").findall


def _split_line(line):
    """``shlex.split(line)``, without shlex when no quote or backslash is in it."""
    if "'" in line or '"' in line or "\\" in line:
        return shlex.split(line)
    return _WORDS(line)


class _Reply(Exception):
    """A REPL reply that is not output: a hint or a usage line."""


def _context(stack, kinds, hint=None):
    """The innermost context record of one of ``kinds``, else None or ``hint``."""
    entity = next((e for _, e in reversed(stack) if e["_type"] in kinds), None)
    if entity is None and hint:
        raise _Reply(hint)
    return entity


def _nth(items, arg, command):
    if int(arg) >= len(items):
        raise LookupFailure(f"no {command} {arg} among {len(items)} (0-based)")
    return items[int(arg)]


# The argument of each command that only the REPL has, for its usage line.
_REPL_TAKES = {"fe": "<name>", "exemplar": "<k>", "sent": "<k>", "annoset": "<k>", "up": "",
               "help": ""}


def _repl_command(lexicon, options, stack, command, args, out):
    query, output, takes = COMMANDS.get(command, (None, None, None))
    usage = _REPL_TAKES.get(command, takes)
    # More words than the command takes, a required argument missing or an index not decimal.
    if usage is not None and (len(args) > bool(usage) or usage.startswith("<") and not args
                              or usage == "<k>" and not args[0].isdecimal()):
        raise _Reply(f"usage: {command} {usage}".rstrip())
    arg = args[0] if args else None
    if command == "lu":
        frame = _context(stack, ("frame",))
        if frame is not None and arg in frame.lexUnit:
            lu = frame.lexUnit[arg]
        elif arg.isdecimal():
            lu = lexicon.lu(int(arg))
        else:
            rows, names = lexicon.store.lu_column()
            if names.count(arg) != 1:
                raise LookupFailure(f"no unique lexical unit named {arg!r}")
            lu = lexicon.lu(rows[names.index(arg)][LU_ID])
        out.write(render.render_lu(lu, options))
        stack[:] = [(lu.frame.name, lu.frame), (lu.name, lu)]
    elif query is not None:
        result = query(lexicon, _ReplArgs(key=arg, id=arg, pattern=arg))
        out.write(output(result, options, False))
        if command in ("frame", "doc"):
            stack[:] = [(result.name, result)]
    elif command == "help":
        out.write(lexicon.help_summary() + REPL_HELP)
    elif command == "up":
        if not stack:
            raise _Reply("already at the top")
        stack.pop()
    elif command == "fe":
        frame = _context(stack, ("frame",), "no frame context; run 'frame <name>' first")
        if arg not in frame.FE:
            raise LookupFailure(f"no FE named {arg!r} in frame {frame.name!r}")
        out.write(render.render_frame_element(frame.FE[arg], options))
    elif command == "exemplar":
        lu = _context(stack, ("lu",), "no lexical unit context; run 'lu <name>' first")
        sent = _nth(lu.exemplars, arg, command)
        out.write(render.render_lexicographic_sentence(sent, options))
        stack.append((str(sent.ID), sent))
    elif command == "sent":
        doc = _context(stack, ("document",), "no document context; run 'doc <id>' first")
        sent = _nth(doc.sentences, arg, command)
        out.write(render.render_fulltext_sentence(sent, options))
        stack.append((str(sent.ID), sent))
    elif command == "annoset":
        sent = _context(stack, ("sentence", "fulltext_sentence"),
                        "no sentence context; run 'exemplar <k>' or 'sent <k>' first")
        out.write(render.render_annotation_set(_nth(sent.annotationSet, arg, command), options))
    else:
        raise _Reply(f"unknown command {command!r}; 'help' lists commands")


def repl(lexicon, options, stdin, stdout):
    """Interactive drill-down browser; survives any malformed input line."""
    stack = []
    while True:
        stdout.write("/".join(name for name, _ in stack) + "> ")
        try:
            stdout.flush()
        except Exception:
            pass
        try:  # an interrupt only: any other failure to read recurs at every prompt
            line = stdin.readline()
        except KeyboardInterrupt:  # Ctrl-C at the prompt leaves, as end-of-file does
            line = ""
        if not line:
            stdout.write("\n")
            return 0
        try:
            command, *args = _split_line(line.strip()) or [None]
            if command in ("quit", "exit"):
                return 0
            if command is not None:
                _repl_command(lexicon, options, stack, command, args, stdout)
        except _Reply as exc:
            stdout.write(f"{exc}\n")
        except LookupFailure as exc:
            stdout.write(f"not found: {exc}\n")
        except (KeyboardInterrupt, EOFError):
            return 0
        except Exception as exc:
            stdout.write(f"error: {exc}\n")


if __name__ == "__main__":
    main()
