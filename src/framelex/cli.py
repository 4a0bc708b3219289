"""Command line browser: one-shot subcommands and an interactive REPL.

Every public query operation is reachable as a subcommand; the REPL adds
drill-down context (frame -> lexical unit -> exemplar -> annotation set).
Exit codes: 0 success, 1 name or ID not found, 2 usage or bad pattern,
3 unusable data.  The REPL itself never dies on malformed input.
"""

import argparse
import sys

from .errors import CorpusError, LookupFailure, PatternError, UsageError
from .lexicon import _is_record, open_lexicon
from . import render
from .store import ENV_DATA_DIR


def build_parser():
    # The shared options hang off every subparser too, so they are accepted
    # both before and after the subcommand.  SUPPRESS keeps an absent
    # subcommand-level flag from clobbering a value parsed up front.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--data",
        metavar="DIR",
        default=argparse.SUPPRESS,
        help=f"corpus directory (default: ${ENV_DATA_DIR})",
    )
    common.add_argument(
        "--width",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="display wrap width",
    )
    common.add_argument(
        "--ids",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print tab-separated ID listings",
    )

    parser = argparse.ArgumentParser(
        prog="framelex",
        description="Browse a FrameNet-1.7-format lexical database.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sp = add_parser("frame", help="show one frame")
    sp.add_argument("key", help="frame name or ID")
    sp = add_parser("frames", help="list frames by name pattern")
    sp.add_argument("pattern", nargs="?")
    sp = add_parser("lu", help="show one lexical unit")
    sp.add_argument("id", type=int)
    sp = add_parser("lus", help="list lexical units by name pattern")
    sp.add_argument("pattern", nargs="?")
    sp.add_argument("--frame", help="confine to one frame (name, pattern, or ID)")
    sp = add_parser("fes", help="list frame elements by name pattern")
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
    add_parser(
        "propagate-semtypes", help="push FE semantic types down the FE mappings"
    )
    sp = add_parser("annotations", help="list frame annotation sets")
    sp.add_argument("pattern", nargs="?", help="LU name pattern")
    sp.add_argument("--no-exemplars", action="store_true")
    sp.add_argument("--no-fulltext", action="store_true")
    sp = add_parser("exemplars", help="list lexicographic sentences")
    sp.add_argument("pattern", nargs="?", help="LU name pattern")
    sp = add_parser("ft-sents", help="list full-text sentences")
    sp.add_argument("pattern", nargs="?", help="document name pattern")
    sp = add_parser("doc", help="show one full-text document")
    sp.add_argument("id", type=int)
    sp = add_parser("docs", help="list full-text documents")
    sp.add_argument("pattern", nargs="?")
    add_parser("stats", help="corpus-wide counts")
    add_parser("browse", help="interactive browser")
    return parser


def _frame_arg(value):
    if value is not None and value.isdecimal():
        return int(value)
    return value


def _relation_line(rel):
    return (
        f"<{rel.type.superFrameName}={rel.superFrameName} -- "
        f"{rel.type.name} -> {rel.type.subFrameName}={rel.subFrameName}>"
    )


def _list_lines(kind, items, ids_mode):
    """One line per item; ids_mode switches to tab-separated ID output."""
    lines = []
    for item in items:
        if kind == "frames":
            lines.append(f"{item.ID}\t{item.name}" if ids_mode else f"({item.ID}) {item.name}")
        elif kind == "lus":
            text = f"{item.name} in {item.frame.name}"
            lines.append(f"{item.ID}\t{item.name}" if ids_mode else f"({item.ID}) {text}")
        elif kind == "fes":
            text = f"{item.name} [{item.coreType}] in {item.frame.name}"
            lines.append(f"{item.ID}\t{item.name}" if ids_mode else f"({item.ID}) {text}")
        elif kind == "relations":
            lines.append(f"{item.ID}\t{_relation_line(item)}" if ids_mode else _relation_line(item))
        elif kind == "relation-types":
            text = f"{item.name}: {item.superFrameName} -> {item.subFrameName}"
            lines.append(f"{item.ID}\t{item.name}" if ids_mode else f"({item.ID}) {text}")
        elif kind == "fe-relations":
            text = (
                f"{item.frameRelation.superFrameName}.{item.superFEName} -> "
                f"{item.frameRelation.subFrameName}.{item.subFEName}"
            )
            lines.append(f"{item.ID}\t{text}" if ids_mode else f"({item.ID}) {text}")
        elif kind == "semtypes":
            text = f"{item.name} <{item.abbrev}>"
            if item.superType is not None:
                text += f" under {item.superType.name}"
            lines.append(f"{item.ID}\t{item.name}" if ids_mode else f"({item.ID}) {text}")
        elif kind == "annotations":
            lu_name = item.get("luName") or (item.get("LU").name if item.get("LU") else "")
            frame_name = item.get("frameName") or ""
            if not frame_name and item.get("frame") is not None:
                frame_name = item["frame"].name
            text = f"{frame_name}/{lu_name} [{item.status}] sentence {item.sent.ID}"
            lines.append(f"{item.ID}\t{lu_name}" if ids_mode else f"({item.ID}) {text}")
        elif kind == "sents":
            lines.append(f"{item.ID}\t{item.text}" if ids_mode else f"({item.ID}) {item.text}")
        elif kind == "docs":
            text = f"{item.name} ({item.corpusName})"
            lines.append(f"{item.ID}\t{item.name}" if ids_mode else f"({item.ID}) {text}")
    return lines


def _stats_lines(lexicon):
    frames = lexicon.frames()
    exemplar_sets = lexicon.annotations(full_text=False)
    fulltext_sets = lexicon.annotations(exemplars=False)
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
        f"frame annotation sets: {len(exemplar_sets) + len(fulltext_sets)}",
    ]


def _dispatch(lexicon, args, options, out):
    command = args.command
    ids_mode = args.ids
    if command == "frame":
        out.write(render.render_frame(lexicon.frame(_frame_arg(args.key)), options))
    elif command == "frames":
        out.write_lines(_list_lines("frames", lexicon.frames(args.pattern), ids_mode))
    elif command == "lu":
        out.write(render.render_lu(lexicon.lu(args.id), options))
    elif command == "lus":
        items = lexicon.lus(args.pattern, frame=_frame_arg(args.frame))
        out.write_lines(_list_lines("lus", items, ids_mode))
    elif command == "fes":
        items = lexicon.fes(args.pattern, frame=_frame_arg(args.frame))
        out.write_lines(_list_lines("fes", items, ids_mode))
    elif command == "relations":
        items = lexicon.frame_relations(
            frame=_frame_arg(args.frame),
            frame2=_frame_arg(args.frame2),
            type=args.type,
        )
        out.write_lines(_list_lines("relations", items, ids_mode))
    elif command == "relation-types":
        out.write_lines(
            _list_lines("relation-types", lexicon.frame_relation_types(), ids_mode)
        )
    elif command == "fe-relations":
        out.write_lines(_list_lines("fe-relations", lexicon.fe_relations(), ids_mode))
    elif command == "semtypes":
        out.write_lines(_list_lines("semtypes", lexicon.semtypes(), ids_mode))
    elif command == "semtype":
        key = int(args.key) if args.key.isdecimal() else args.key
        out.write(render.render_semtype(lexicon.semtype(key), options))
    elif command == "propagate-semtypes":
        out.write(f"added {lexicon.propagate_semtypes()} semantic type labels\n")
    elif command == "annotations":
        items = lexicon.annotations(
            args.pattern,
            exemplars=not args.no_exemplars,
            full_text=not args.no_fulltext,
        )
        out.write_lines(_list_lines("annotations", items, ids_mode))
    elif command == "exemplars":
        out.write_lines(_list_lines("sents", lexicon.exemplars(args.pattern), ids_mode))
    elif command == "ft-sents":
        out.write_lines(_list_lines("sents", lexicon.ft_sents(args.pattern), ids_mode))
    elif command == "doc":
        out.write(render.render_document(lexicon.doc(args.id), options))
    elif command == "docs":
        out.write_lines(_list_lines("docs", lexicon.docs(args.pattern), ids_mode))
    elif command == "stats":
        out.write_lines(_stats_lines(lexicon))
    elif command == "browse":
        return repl(lexicon, options, sys.stdin, out.stream)
    return 0


class _Out:
    """Tiny adapter so dispatch helpers can emit lines or raw blocks."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text):
        self.stream.write(text)

    def write_lines(self, lines):
        for line in lines:
            self.stream.write(line + "\n")


def run(argv=None, stdin=None, stdout=None, stderr=None):
    """Run one CLI invocation; returns the process exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # The shared flags use SUPPRESS defaults, so fill the gaps here.
    for name, default in (("data", None), ("width", 70), ("ids", False)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        options = render.DisplayOptions(wrap_width=args.width)
        lexicon = open_lexicon(args.data)
        if args.command == "browse":
            return repl(lexicon, options, stdin, stdout)
        return _dispatch(lexicon, args, options, _Out(stdout))
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
    sys.exit(run())


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
  frames, lus, fes, semtypes, docs, exemplars, ft-sents, annotations
Others: relations, relation-types, fe-relations, semtype <key>, stats,
propagate-semtypes, help
"""

_REPL_LISTS = {
    "frames": ("frames", lambda lex, pat: lex.frames(pat)),
    "lus": ("lus", lambda lex, pat: lex.lus(pat)),
    "fes": ("fes", lambda lex, pat: lex.fes(pat)),
    "semtypes": ("semtypes", lambda lex, pat: lex.semtypes()),
    "docs": ("docs", lambda lex, pat: lex.docs(pat)),
    "exemplars": ("sents", lambda lex, pat: lex.exemplars(pat)),
    "ft-sents": ("sents", lambda lex, pat: lex.ft_sents(pat)),
    "annotations": ("annotations", lambda lex, pat: lex.annotations(pat)),
    "relations": ("relations", lambda lex, pat: lex.frame_relations()),
    "relation-types": ("relation-types", lambda lex, pat: lex.frame_relation_types()),
    "fe-relations": ("fe-relations", lambda lex, pat: lex.fe_relations()),
}


def _stack_find(stack, kind):
    for _, entity in reversed(stack):
        if _is_record(entity, kind):
            return entity
    return None


def _repl_command(lexicon, options, stack, command, rest, out):
    arg = rest[0] if rest else None
    if command == "help":
        out.write(lexicon.help_summary())
        out.write(REPL_HELP)
    elif command == "up":
        if stack:
            stack.pop()
        else:
            out.write("already at the top\n")
    elif command == "frame":
        if arg is None:
            out.write("usage: frame <name-or-id>\n")
            return
        frame = lexicon.frame(int(arg) if arg.isdecimal() else arg)
        out.write(render.render_frame(frame, options))
        stack[:] = [(frame.name, frame)]
    elif command == "lu":
        if arg is None:
            out.write("usage: lu <name-or-id>\n")
            return
        frame = _stack_find(stack, "frame")
        if frame is not None and arg in frame.lexUnit:
            lu = frame.lexUnit[arg]
        elif arg.isdecimal():
            lu = lexicon.lu(int(arg))
        else:
            rows, names = lexicon.store.lu_column()
            if names.count(arg) != 1:
                raise LookupFailure(f"no unique lexical unit named {arg!r}")
            lu = lexicon.lu(rows[names.index(arg)]["ID"])
        out.write(render.render_lu(lu, options))
        stack[:] = [(lu.frame.name, lu.frame), (lu.name, lu)]
    elif command == "fe":
        frame = _stack_find(stack, "frame")
        if frame is None:
            out.write("no frame context; run 'frame <name>' first\n")
            return
        if arg is None or arg not in frame.FE:
            raise LookupFailure(f"no FE named {arg!r} in frame {frame.name!r}")
        out.write(render.render_frame_element(frame.FE[arg], options))
    elif command == "exemplar":
        lu = _stack_find(stack, "lu")
        if lu is None:
            out.write("no lexical unit context; run 'lu <name>' first\n")
            return
        sent = lu.exemplars[int(arg)]
        out.write(render.render_lexicographic_sentence(sent, options))
        stack.append((str(sent.ID), sent))
    elif command == "doc":
        if arg is None:
            out.write("usage: doc <id>\n")
            return
        doc = lexicon.doc(int(arg))
        out.write(render.render_document(doc, options))
        stack[:] = [(doc.name, doc)]
    elif command == "sent":
        doc = _stack_find(stack, "document")
        if doc is None:
            out.write("no document context; run 'doc <id>' first\n")
            return
        sent = doc.sentences[int(arg)]
        out.write(render.render_fulltext_sentence(sent, options))
        stack.append((str(sent.ID), sent))
    elif command == "annoset":
        sent = _stack_find(stack, "sentence") or _stack_find(stack, "fulltext_sentence")
        if sent is None:
            out.write("no sentence context; run 'exemplar <k>' or 'sent <k>' first\n")
            return
        out.write(render.render_annotation_set(sent.annotationSet[int(arg)], options))
    elif command == "semtype":
        if arg is None:
            out.write("usage: semtype <key>\n")
            return
        key = int(arg) if arg.isdecimal() else arg
        out.write(render.render_semtype(lexicon.semtype(key), options))
    elif command == "stats":
        for line in _stats_lines(lexicon):
            out.write(line + "\n")
    elif command == "propagate-semtypes":
        out.write(f"added {lexicon.propagate_semtypes()} semantic type labels\n")
    elif command in _REPL_LISTS:
        kind, query = _REPL_LISTS[command]
        for line in _list_lines(kind, query(lexicon, arg), ids_mode=False):
            out.write(line + "\n")
    else:
        out.write(f"unknown command {command!r}; 'help' lists commands\n")


def repl(lexicon, options, stdin, stdout):
    """Interactive drill-down browser; survives any malformed input line."""
    import shlex

    stack = []
    while True:
        path = "/".join(name for name, _ in stack)
        stdout.write(f"{path}> ")
        try:
            stdout.flush()
        except Exception:
            pass
        line = stdin.readline()
        if not line:
            stdout.write("\n")
            return 0
        line = line.strip()
        if not line:
            continue
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            stdout.write(f"error: {exc}\n")
            continue
        if not tokens:
            continue
        command, rest = tokens[0], tokens[1:]
        if command in ("quit", "exit"):
            return 0
        try:
            _repl_command(lexicon, options, stack, command, rest, stdout)
        except LookupFailure as exc:
            stdout.write(f"not found: {exc}\n")
        except (KeyboardInterrupt, EOFError):
            return 0
        except Exception as exc:
            stdout.write(f"error: {exc}\n")


if __name__ == "__main__":
    main()
