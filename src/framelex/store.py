"""On-demand corpus store with permanent in-memory caching.

Opening a store reads exactly one file (the frame index).  Everything else
loads on first touch and stays cached for the life of the store: frame files
when a frame is requested, the LU index on the first LU lookup, per-LU
exemplar files when an LU's sentences are first touched, the relation and
semantic type registries on first relation or type access, and full-text
documents when requested.  The parsers link exemplar sentences to the LU
record that loaded them, so the store returns their records unchanged.

Every file actually opened is appended to ``fileAccessLog`` (path relative to
the corpus root, posix separators), which makes load behavior observable and
replayable.  Every load resolves a ``records.Lazy``, the package's one
once-only mechanism for a value that reads a file or can fail: the memo,
``Store._load``, keeps one ``Lazy`` per key, and an LU's exemplar file loads
as its stub's ``subCorpus`` ``Lazy``.  So concurrent first accesses to the
same entity parse its file exactly once, repeated lookups return the
identical cached record, and no collection runs while a file is parsed.  A
``Lazy`` is one kind of ``records.Derived``.  Every other kind loads no
file: it is built from what its record holds (an annotation set's layer
tuple in its ``layer`` and views, a frame's ``lexUnit``, its LU stubs, an LU
stub's ``lexemes`` and ``sentenceCount``, a frame's, FE's or LU's
``definition``, a frame's or LU's ``URL``, a sentence's mirrored views),
under the same lock.  So ``get_lu`` builds the stubs of one frame, the LU's
own, and returns the very stub in that frame's ``lexUnit``.

The parsers get the store itself and call back into it only through the five
methods that ``xmlio``'s docstring names.

Every file is streamed by ``xmlio``, whose parsers return the tables the
store keeps, in the compact rows that its docstring describes: each index's
and the semantic type registry's rows by ID, and the relation registry's
relation ``Lazy``s filed by frame.  So ``frame_relations_involving`` builds
the records of one frame's relations only, and a relation type's
``frameRelations`` builds the rest through the same ``Lazy``s: each relation
has one record, whichever path reads it first.

The memo holds the parsed files: the frame, LU and document indexes, each
frame and document loaded, the relation and semantic type registries, and a
placeholder LU per unknown LU a full-text set names.  It also holds the name
columns that pattern scans search, one per table: the frame, LU and document
indexes, and all FEs by (frame ID, FE ID).  A column is a pair
``(rows, names)`` of equal-length tuples, ID ascending, built on the first
scan that needs it.  Nothing else is kept: a query that no workload repeats
is answered from these tables each time.  The frame index, loaded at open,
is also kept on the store as its two maps, so a lookup by frame name or ID
takes no memo hit.

A reference from one file into another (a relation's frames, a full-text
annotation set's frame) resolves through ``resolve_frame_ref``: a frame the
index lacks is corrupt data, an ``IntegrityError`` naming the referring file
and record, where a direct lookup of the same frame is a ``LookupFailure``.  A
frame's or FE's semantic type reference resolves the same way.  A full-text
sentence's corpus and document IDs, where present, must be its header's.
"""

import os
from itertools import chain
from operator import itemgetter
from pathlib import Path

from . import xmlio
from .errors import CorpusError, IntegrityError, LookupFailure
from .records import Lazy, Record

ENV_DATA_DIR = "FRAMELEX_DATA"


def open_store(root=None):
    """Open a corpus directory (default: the FRAMELEX_DATA environment var)."""
    if root is None:
        root = os.environ.get(ENV_DATA_DIR)
    if not root:
        raise CorpusError(
            "no data directory: pass a path or set the "
            f"{ENV_DATA_DIR} environment variable"
        )
    return Store(root)


class Store:
    def __init__(self, root):
        self.root = Path(root)
        self.fileAccessLog = []
        self._cache = {}
        if not self.root.is_dir():
            raise CorpusError(f"not a corpus directory: {self.root}")
        # {frame ID: (ID, name)} and {name: frame ID}, in index order.
        self._frame_rows = self._table("frameIndex.xml", xmlio.parse_frame_index)
        self._frame_ids = {name: fid for fid, name in self._frame_rows.values()}

    # ------------------------------------------------------------ loading

    def _load(self, key, fn, *args):
        """The value of the memo's ``Lazy(fn, *args)`` under ``key``, made on first use."""
        entry = self._cache.get(key)
        if entry is None:
            entry = self._cache.setdefault(key, Lazy(fn, *args))
        return entry.resolve()

    def _read(self, relpath):
        path = self.root / relpath
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CorpusError(f"cannot read corpus file {path}: {exc.strerror}") from None
        self.fileAccessLog.append(relpath)
        return data

    def _table(self, relpath, parse, *args):
        """The memo's table of index or registry file ``relpath``, as ``parse`` returns it."""
        return self._load(relpath, lambda: parse(self._read(relpath), relpath, *args))

    @staticmethod
    def _index_column(rows, row_name=itemgetter("name")):
        """The (rows, names) column of ID-keyed index rows, ID ascending."""
        rows = tuple(rows[key] for key in sorted(rows))
        return rows, tuple(map(row_name, rows))

    # ------------------------------------------------------------ frames

    def frame_index(self):
        """All (frame ID, frame name) pairs, from the index alone."""
        return list(self._frame_rows.values())

    def frame_column(self):
        """The (frame ID, name) pairs and their names, ID ascending."""
        return self._load("frame column", self._index_column, self._frame_rows, itemgetter(1))

    def frame_defined(self, name_or_id):
        return name_or_id in (self._frame_rows if isinstance(name_or_id, int) else self._frame_ids)

    def frame_id(self, name_or_id):
        """The ID of the frame a name or ID names, from the index alone."""
        if isinstance(name_or_id, int):
            if name_or_id not in self._frame_rows:
                raise LookupFailure(f"no frame with ID {name_or_id}")
            return name_or_id
        fid = self._frame_ids.get(name_or_id)
        if fid is None:
            raise LookupFailure(f"no frame named {name_or_id!r}")
        return fid

    def get_frame(self, name_or_id):
        """The frame record for a name or ID, loading its file on first use."""
        fid = self.frame_id(name_or_id)
        return self._load(("frame", fid), self._parse_frame, *self._frame_rows[fid])

    def _parse_frame(self, fid, name):
        relpath = f"frame/{name}.xml"
        frame = xmlio.parse_frame_file(self._read(relpath), relpath, self)
        if frame["ID"] != fid or frame["name"] != name:
            raise IntegrityError(
                f"{relpath}: header ({frame['ID']}, {frame['name']!r}) "
                f"disagrees with the index ({fid}, {name!r})"
            )
        return frame

    def fe_column(self, frame_ids=None):
        """The FEs of the given frames (default: all, kept), by (frame ID, FE ID).

        Frame IDs must be ascending and known to the index; frames load in
        that order, on first use.
        """
        if frame_ids is None:
            return self._load(
                "FE column", lambda: self._fe_column(sorted(self._frame_rows))
            )
        return self._fe_column(frame_ids)

    def _fe_column(self, frame_ids):
        fes = tuple(chain.from_iterable(
            sorted(self.get_frame(fid)["FE"].values(), key=itemgetter("ID"))
            for fid in frame_ids
        ))
        return fes, tuple(map(itemgetter("name"), fes))

    def resolve_frame_ref(self, frame_id, frame_name, source, referrer):
        """The frame a reference names, by ID, or by name when the ID is None.

        ``referrer`` is the record of file ``source`` that holds the
        reference.  A frame the index lacks, or a name beside the ID that is
        not the index's name for it, is an IntegrityError naming both.
        """
        key = frame_name if frame_id is None else frame_id
        what = f"{source}: {referrer['_type']} {referrer['ID']} names"
        if not self.frame_defined(key):
            raise IntegrityError(f"{what} unknown frame {key!r}")
        if frame_id is not None and frame_name not in (None, self._frame_rows[frame_id][1]):
            raise IntegrityError(f"{what} frame {frame_name!r} by another ID ({frame_id})")
        return self.get_frame(key)

    def resolve_semtype_ref(self, st_id, st_name, source, referrer):
        """The semantic type that record ``referrer`` of file ``source`` names;
        one the registry lacks is an IntegrityError naming both."""
        try:
            return self.get_semtype(st_id)
        except LookupFailure:
            raise IntegrityError(
                f"{source}: {referrer['_type']} {referrer['ID']} names unknown semantic type "
                f"{st_name!r} ({st_id})"
            ) from None

    # ------------------------------------------------------------ lexical units

    def _lu_rows(self):
        return self._table("luIndex.xml", xmlio.parse_lu_index)

    def lu_index(self):
        """All LU index rows, ``xmlio.LU_FIELDS`` tuples, in file order."""
        return list(self._lu_rows().values())

    def lu_column(self, frame_ids=None):
        """The LU index rows of the given frames (default: all, kept) and
        their names, ID ascending."""
        column = self._load(
            "LU column", self._index_column, self._lu_rows(), itemgetter(xmlio.LU_NAME)
        )
        if frame_ids is None:
            return column
        frame_ids = set(frame_ids)
        rows = [row for row in column[0] if row[xmlio.LU_FRAME_ID] in frame_ids]
        return rows, [row[xmlio.LU_NAME] for row in rows]

    def get_lu(self, lu_id):
        """The LU record for an ID: the owning frame's stub, index-routed."""
        row = self._lu_rows().get(lu_id)
        if row is None:
            raise LookupFailure(f"no lexical unit with ID {lu_id}")
        name, frame_id = row[xmlio.LU_NAME], row[xmlio.LU_FRAME_ID]
        if not self.frame_defined(frame_id):
            raise IntegrityError(
                f"luIndex.xml: entry {lu_id} ({name!r}) names unknown frame ID {frame_id}"
            )
        lu = self.get_frame(frame_id)["lexUnit"].get(name)
        if lu is None or lu["ID"] != lu_id:
            raise IntegrityError(
                f"luIndex.xml: entry {lu_id} ({name!r}) not found in frame "
                f"{row[xmlio.LU_FRAME_NAME]!r}"
            )
        return lu

    def load_exemplars(self, lu_stub):
        """An LU stub's subcorpora, from its exemplar file: its ``subCorpus``."""
        relpath = f"lu/lu{lu_stub['ID']}.xml"
        return xmlio.parse_lu_file(self._read(relpath), relpath, lu_stub)

    def owns_lu(self, lu):
        """Whether LU record ``lu`` is this store's, from the memo alone: its
        frame is a frame loaded here, or it is a placeholder made here."""
        frame = dict.get(lu, "frame")
        if not isinstance(frame, Lazy):
            return isinstance(frame, Record) and self._built(("frame", frame.get("ID"))) is frame
        # A placeholder whose frame is unread: its name is "" where its set gave none.
        keys = (("problem LU", lu["ID"], name) for name in (lu["name"], None))
        return any(self._built(key) is lu for key in keys)

    def _built(self, key):
        """The memo's value under ``key`` once it is built, else None; reads nothing."""
        entry = self._cache.get(key)
        return entry._value if entry is not None and entry._done else None

    def resolve_annotation_lu(self, lu_id, lu_name, frame_id, frame_name, source, referrer):
        """The LU behind a full-text annotation set.

        An ID the index does not know yields a cached placeholder record with
        status "Problem": the set annotates a word the named frame defines no
        LU for.  Its frame resolves through ``resolve_frame_ref``, with the
        ``source`` and ``referrer`` of the first set that asked for it.
        """
        if lu_id is not None and lu_id in self._lu_rows():
            return self.get_lu(lu_id)
        key = ("problem LU", lu_id, lu_name)
        return self._load(
            key, self._problem_lu, lu_id, lu_name, frame_id, frame_name, source, referrer
        )

    def _problem_lu(self, lu_id, lu_name, frame_id, frame_name, source, referrer):
        frame = Lazy(self.resolve_frame_ref, frame_id, frame_name, source, referrer)
        pos = (lu_name or "").rpartition(".")[2].upper()
        return xmlio.lu_record("Problem", pos, lu_name or "", lu_id, "", [], (0, 0), frame, self)

    # ------------------------------------------------------------ documents

    def _doc_rows(self):
        return self._table("fulltextIndex.xml", xmlio.parse_fulltext_index)

    def doc_index(self):
        """All document index rows (ID, name, description, corpus)."""
        return list(self._doc_rows().values())

    def doc_column(self):
        """The document index rows and their names, ID ascending."""
        return self._load("document column", self._index_column, self._doc_rows())

    def get_document(self, doc_id):
        """The document record for an ID, loading its file on first use."""
        row = self._doc_rows().get(doc_id)
        if row is None:
            raise LookupFailure(f"no full-text document with ID {doc_id}")
        return self._load(("document", doc_id), self._parse_document, row)

    def _parse_document(self, row):
        candidates = [
            f"fulltext/{row.name}.xml",
            f"fulltext/{row.corpusName}__{row.name}.xml",
        ]
        relpath = next((c for c in candidates if (self.root / c).is_file()), candidates[0])
        doc = xmlio.parse_fulltext_file(self._read(relpath), relpath, self)
        if doc["ID"] != row.ID:
            raise IntegrityError(f"{relpath}: file header carries ID {doc['ID']}")
        if doc["corpusID"] != row.corpusID:
            raise IntegrityError(f"{relpath}: file header carries corpus ID {doc['corpusID']}")
        headers = (("corpID", "corpus", doc["corpusID"]), ("docID", "document", doc["ID"]))
        for sent in doc["sentences"]:
            for key, kind, own in headers:
                if sent[key] not in (None, own):
                    raise IntegrityError(
                        f"{relpath}: fulltext_sentence {sent['ID']} of {kind} {own} "
                        f"names another {kind} ({sent[key]})"
                    )
        return doc

    # ------------------------------------------------------------ relations

    def _relations(self):
        """(relation types, {frame ID: relations on either side}), registry order."""
        return self._table("frRelation.xml", xmlio.parse_relations_file, self)

    def relation_types(self):
        """All frame relation types, registry file order."""
        return list(self._relations()[0])

    def frame_relations_involving(self, frame_id):
        """Relations with the given frame on either side, registry order.

        Only their records are built; a type's ``frameRelations`` builds the
        rest, through the same ``Lazy`` of each relation.
        """
        return [rel.resolve() for rel in self._relations()[1].get(frame_id, ())]

    # ------------------------------------------------------------ semtypes

    def _semtypes(self):
        return self._table("semTypes.xml", xmlio.parse_semtypes_file)

    def semtypes(self):
        """All semantic types, ID ascending."""
        return sorted(self._semtypes().values(), key=lambda st: st["ID"])

    def get_semtype(self, key):
        """A semantic type by ID, name, or abbreviation."""
        types = self._semtypes()
        if isinstance(key, int):
            st = types.get(key)
        else:
            fields = ("name", "abbrev")
            st = next((st for f in fields for st in types.values() if st[f] == key), None)
        if st is None:
            raise LookupFailure(f"no semantic type matching {key!r}")
        return st
