#!/usr/bin/env python3
"""Print one SHA-256 over every record that a corpus parses into.

Opens the corpus at ``--data DIR`` and walks every record reachable from its
frame index, LU index, document index, relation registry and semantic type
registry, breadth first.  Each entity record (one with a ``_type``) is dumped
once, as one canonical line: its keys in their order, lazy values resolved
(annotation layers included), plain records, lists and dicts written out in
full, and other entity records written as references, ``<kind ID>``.  The
digest covers those lines in walk order.

Two builds that parse a corpus into the same records print the same digest,
so a change to the parsers can be checked against the digest of its parent.

Usage (from the root of a checkout; stdlib only, no install needed):

    python3 tools/record_digest.py --data tests/data/fixture17
    python3 tools/record_digest.py --data bench/corpus/full-seed1/data
"""

import argparse
import hashlib
import sys
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from framelex import Record, Store  # noqa: E402
from framelex.xmlio import LU_ID  # noqa: E402


def _text(value, found):
    """``value`` in canonical form; each entity record in it goes to ``found``."""
    if isinstance(value, Record) and "_type" in value:
        found.append(value)
        return f"<{dict.__getitem__(value, '_type')} {dict.get(value, 'ID')!r}>"
    if isinstance(value, dict):
        items = (f"{key!r}: {_text(value[key], found)}" for key in value)
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_text(item, found) for item in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    return repr(value)


def digest(corpus):
    """(hex digest, records dumped) for ``corpus``: a corpus directory, or a
    ``Store`` already opened on one, whose loaded records the walk reuses."""
    store = corpus if isinstance(corpus, Store) else Store(corpus)
    roots = [store.get_frame(frame_id) for frame_id, _ in store.frame_index()]
    roots += [store.get_lu(row[LU_ID]) for row in store.lu_index()]
    roots += [store.get_document(row["ID"]) for row in store.doc_index()]
    roots += store.relation_types() + store.semtypes()
    sha = hashlib.sha256()
    queue, seen = deque(roots), set()
    while queue:
        record = queue.popleft()
        if id(record) in seen:
            continue
        seen.add(id(record))
        found = []
        fields = (f"{key!r}: {_text(record[key], found)}" for key in record)
        sha.update(("{" + ", ".join(fields) + "}\n").encode())
        queue.extend(entity for entity in found if id(entity) not in seen)
    return sha.hexdigest(), len(seen)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--data", required=True, help="corpus directory")
    args = parser.parse_args(argv)
    hex_digest, records = digest(args.data)
    print(f"{hex_digest}  {records} records")


if __name__ == "__main__":
    main()
