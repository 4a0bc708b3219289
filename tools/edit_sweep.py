#!/usr/bin/env python3
"""Check the error contract under every single edit of every corpus file.

The edits, each made alone, at every spot it applies to:

- an attribute deleted, or set to ``x``, ``-1``, empty, ``0``, ``99999`` or
  a 23-digit integer (namespace declarations and ``xsi:`` attributes, which
  are not the format's, are left as they are);
- an element deleted, duplicated, or replaced by a stray ``>``.

Each edited file is served from memory, with the other files as they are,
by a ``Store`` whose ``_read`` logs each file as ``Store._read`` does.
Every record read from the edited file is then walked and rendered
(``walk_file``).  Only a ``FramelexError`` may escape, and a run that
ends without one must have read the edited file: ``walk_file`` finds a
full-text file's document by its own copy of the store's file naming rule,
so a run that never read its file checked nothing.

Prints the number of runs for each edit kind.  Exits 1 if any other
exception escaped (``ESCAPED``) or a run never read its file (``UNREAD``),
naming the file and the edit of each.  On the test fixture that is 30,216
runs, about 3 minutes on one Xeon core.

Usage (from the root of a checkout; stdlib only, no install needed):

    python3 tools/edit_sweep.py --data tests/data/fixture17
"""

import argparse
import re
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from framelex import (  # noqa: E402
    FrameLexicon,
    Store,
    render_annotation_set,
    render_document,
    render_frame,
    render_frame_element,
    render_fulltext_sentence,
    render_lexicographic_sentence,
    render_lu,
    render_semtype,
)
from framelex.errors import FramelexError  # noqa: E402

_RENDER = {
    "frame": render_frame,
    "fe": render_frame_element,
    "lu": render_lu,
    "sentence": render_lexicographic_sentence,
    "fulltext_sentence": render_fulltext_sentence,
    "annotationset": render_annotation_set,
    "document": render_document,
    "semtype": render_semtype,
}
_NESTED = (dict, list, tuple)
_FILE_ROOTS = {
    "frameIndex.xml": lambda lex: lex.frames(),
    "luIndex.xml": lambda lex: lex.lus(),
    "fulltextIndex.xml": lambda lex: lex.docs(),
    "frRelation.xml": lambda lex: lex.frame_relation_types(),
    "semTypes.xml": lambda lex: lex.semtypes(),
}


def walk_file(lex, relpath):
    """Force every lazy value of the records read from ``relpath`` and of the
    records they hold, and render each.  A frame, FE, LU stub or semantic
    type from another file is resolved but not walked, which keeps the walk
    to this file."""
    if relpath.startswith("frame/"):
        frame = lex.frame(relpath[len("frame/") : -len(".xml")])
        roots = [frame, *frame.FE.values(), *frame.lexUnit.values()]
    elif relpath.startswith("lu/"):
        roots = [lex.lu(int(relpath[len("lu/lu") : -len(".xml")]))]
    elif relpath.startswith("fulltext/"):
        rows = lex.store.doc_index()
        names = {row.ID: (f"{row.name}.xml", f"{row.corpusName}__{row.name}.xml") for row in rows}
        name = relpath[len("fulltext/") :]
        roots = [lex.doc(doc_id) for doc_id, names in names.items() if name in names]
    else:
        roots = _FILE_ROOTS[relpath](lex)
    rooted = {id(root) for root in roots}
    index = relpath.endswith("Index.xml")  # an index's records are the roots alone
    stack, seen = list(roots), set()
    while stack:
        value = stack.pop()
        if isinstance(value, (list, tuple)):
            stack.extend(item for item in value if isinstance(item, _NESTED))
        elif isinstance(value, dict) and id(value) not in seen:
            kind = dict.get(value, "_type")
            other_file = kind is not None and (
                index
                or kind in ("frame", "fe", "semtype")
                or kind == "lu" and dict.get(value, "status") != "Problem"
            )
            if other_file and id(value) not in rooted:
                continue
            seen.add(id(value))
            values = map(value.__getitem__, value)
            stack.extend(item for item in values if isinstance(item, _NESTED))
            if kind in _RENDER:
                _RENDER[kind](value)
    if relpath in ("frRelation.xml", "semTypes.xml"):
        lex.propagate_semtypes()


ATTRIBUTE = re.compile(r'\s([\w:]+)="[^"]*"')
_TAG = re.compile(r"<(/?)([\w:]+)[^>]*?(/?)>")
_VALUES = ("x", "-1", "", "0", "99999", "12345678901234567890123")


def elements(body):
    """[start, end, parent] of each element below the root, from its tags."""
    spans, open_elements = [], []
    for tag in _TAG.finditer(body):
        if tag.group(1):
            spans[open_elements.pop()][1] = tag.end()
            continue
        spans.append([tag.start(), tag.end(), open_elements[-1] if open_elements else None])
        if not tag.group(3):
            open_elements.append(len(spans) - 1)
    return spans[1:]


def _edits(body):
    """(edit kind, where, edited body) for every single edit of ``body``."""
    for spot in ATTRIBUTE.finditer(body):
        name = spot.group(1)
        if name.startswith(("xmlns", "xsi")):
            continue
        head, tail, where = body[: spot.start()], body[spot.end() :], f"{name} at {spot.start()}"
        yield "attribute deleted", where, head + tail
        for value in _VALUES:
            yield f"attribute set to {value!r}", where, f'{head} {name}="{value}"{tail}'
    for start, end, _ in elements(body):
        where = f"element at {start}"
        yield "element deleted", where, body[:start] + body[end:]
        yield "element duplicated", where, body[:end] + body[start:end] + body[end:]
        yield "element replaced by '>'", where, body[:start] + ">" + body[end:]


class MemoryStore(Store):
    """A store that reads the files of ``files`` ({relpath: bytes}) from
    memory, and any other file as ``Store`` does."""

    def __init__(self, root, files):
        self._files = files
        super().__init__(root)

    def _read(self, relpath):
        data = self._files.get(relpath)
        if data is None:
            return super()._read(relpath)
        self.fileAccessLog.append(relpath)
        return data


def sweep(root):
    """Run every edit of every XML file under ``root``; the number of runs
    whose exception was not a ``FramelexError``, or that ended without one
    and without reading the edited file."""
    root = Path(root)
    paths = sorted(root.rglob("*.xml"))
    files = {path.relative_to(root).as_posix(): path.read_bytes() for path in paths}
    runs, escaped, unread, started = Counter(), 0, 0, time.perf_counter()
    for relpath, data in files.items():
        for kind, where, edited in _edits(data.decode("utf-8")):
            edited_files = {**files, relpath: edited.encode()}
            try:  # opening the store reads the frame index, which may be the edited file
                store = MemoryStore(root, edited_files)
                walk_file(FrameLexicon(store), relpath)
            except FramelexError:
                pass
            except Exception as exc:
                escaped += 1
                print(f"ESCAPED {relpath}, {kind}, {where}: {type(exc).__name__}: {exc}")
            else:
                if relpath not in store.fileAccessLog:
                    unread += 1
                    print(f"UNREAD {relpath}, {kind}, {where}")
            runs[kind] += 1
    for kind, count in runs.items():
        print(f"{kind}: {count} runs")
    print(f"{sum(runs.values())} runs over {len(files)} files in "
          f"{time.perf_counter() - started:.0f} s; {escaped} escaped, {unread} unread")
    return escaped + unread


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--data", required=True, help="corpus directory")
    args = parser.parse_args(argv)
    return 1 if sweep(args.data) else 0


if __name__ == "__main__":
    sys.exit(main())
