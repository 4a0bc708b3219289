"""The user-facing query surface over an open corpus store.

One FrameLexicon wraps one Store and answers every query: frames, lexical
units, frame elements, relations, semantic types and annotated sentences.
Name lookups take regular expression patterns with unanchored search
semantics (embed ``(?i)`` for case insensitivity); exact-match lookups take a
name or numeric ID and raise LookupFailure when nothing matches.  One rule,
``_key``, reads every lookup key, and each key resolves from the frame index,
or from the one table its lookup needs anyway, before any other file is read.
A pattern is a string or a compiled string pattern.
All list results have fixed orders, so repeated calls are identical.
"""

import re
from itertools import compress

from .errors import LookupFailure, PatternError, UsageError
from .records import Record, build
from .store import open_store
from .xmlio import LU_FRAME_ID, LU_ID


def compile_pattern(pattern):
    """Compile a user-supplied lookup pattern; unanchored search semantics."""
    source = pattern.pattern if isinstance(pattern, re.Pattern) else pattern
    if not isinstance(source, str):
        raise PatternError(f"bad pattern {pattern!r}: not a string")
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise PatternError(f"bad pattern {pattern!r}: {exc}") from None


def _scan(pattern, column, *args):
    """The rows of the store column ``column(*args)`` whose name the pattern
    matches (all rows if None), in column order: ID ascending.

    The pattern compiles before the column loads, so a bad one fails before
    any file is read.
    """
    search = None if pattern is None else compile_pattern(pattern).search
    rows, names = column(*args)
    if search is None:
        return list(rows)
    return list(compress(rows, map(search, names)))


def _frame_sets(sentences, search=None):
    """The frame annotation sets of ``sentences`` whose LU name ``search``
    finds (all if None), by (sentence ID, set ID)."""
    sets = [
        aset
        for sent in sentences
        for aset in sent["annotationSet"][1:]
        if search is None or aset.get("luName") is not None and search(aset["luName"])
    ]
    return sorted(sets, key=lambda aset: (aset["sent"]["ID"], aset["ID"]))


def _key(key, kind, what):
    """The key ``key`` names in a lookup of a ``what``: a record of kind
    ``kind`` (None: the lookup takes none) names its ID, a string of decimal
    digits (those that ``int()`` reads) its int, and any other hashable key
    itself.  An unhashable key, such as a list or a record of another kind,
    names no ``what``."""
    if kind is not None and isinstance(key, Record) and key.get("_type") == kind:
        return key["ID"]
    if isinstance(key, str):
        return int(key) if key.isdecimal() else key
    try:
        hash(key)
    except TypeError:
        raise LookupFailure(f"no {what} matching {key!r}") from None
    return key


def _id(key, kind, what):
    """The ID that ``key`` names, by ``_key``, in a lookup of a ``what`` by
    numeric ID alone: a key that names no int names no ``what``."""
    key = _key(key, kind, what)
    if not isinstance(key, int):
        raise LookupFailure(f"no {what} with ID {key!r}")
    return key


class FrameLexicon:
    def __init__(self, store):
        self._store = store

    @classmethod
    def open(cls, root=None):
        """Open a corpus directory (default: the FRAMELEX_DATA variable)."""
        return cls(open_store(root))

    @property
    def store(self):
        return self._store

    # ------------------------------------------------------------ frames

    def frames(self, name_pattern=None):
        """Frames whose name matches the pattern (all frames if None), ID ascending."""
        entries = _scan(name_pattern, self._store.frame_column)
        return [self._store.get_frame(fid) for fid, _ in entries]

    def frame(self, key):
        """One frame, by exact name or numeric ID."""
        return self._store.get_frame(_key(key, "frame", "frame"))

    def frame_ids_and_names(self, name_pattern=None):
        """{frame ID: frame name} for matching frames, from the index alone."""
        return dict(_scan(name_pattern, self._store.frame_column))

    def frames_by_lemma(self, pattern):
        """Frames defining at least one LU whose name matches, ID ascending."""
        frame_ids = {row[LU_FRAME_ID] for row in _scan(pattern, self._store.lu_column)}
        return [self._store.get_frame(fid) for fid in sorted(frame_ids)]

    # ------------------------------------------------------------ lexical units

    def lus(self, name_pattern=None, frame=None):
        """Lexical units whose name matches, LU ID ascending.

        ``frame`` confines the result to one or more frames: a numeric or
        decimal-string ID, a frame record, an exact frame name, or a name
        pattern.  The restriction resolves after the name pattern compiles
        and before the LU index loads; one that matches no frame yields an
        empty list, not an error, and loads nothing.  Otherwise the LU
        column is filtered by frame in one pass.
        """
        rows = _scan(name_pattern, self._confined, self._store.lu_column, frame)
        return [self._store.get_lu(row[LU_ID]) for row in rows]

    def lu(self, lu_id):
        """One lexical unit, by numeric ID."""
        if isinstance(lu_id, Record) and lu_id.get("_type") == "lu" and self._store.owns_lu(lu_id):
            return lu_id  # as is: a lookup by its ID would load the LU index
        return self._store.get_lu(_id(lu_id, "lu", "lexical unit"))

    def _confined(self, column, frame):
        """The store column ``column``, confined to the frames that a
        ``frame=`` restriction names (None: all), which resolve from the
        frame index alone; one that names no frame reads nothing."""
        if frame is None:
            return column()
        frame = _key(frame, "frame", "frame")
        ids = set()
        if not isinstance(frame, int):
            ids = {fid for fid, _ in _scan(frame, self._store.frame_column)}
        if self._store.frame_defined(frame):
            ids.add(self._store.frame_id(frame))
        return column(sorted(ids)) if ids else ((), ())

    # ------------------------------------------------------------ frame elements

    def fes(self, name_pattern=None, frame=None):
        """Frame elements whose name matches, by (frame ID, FE ID).

        Scans every frame unless ``frame`` confines the search as in ``lus``,
        loading the scanned frames, ID ascending, as a side effect.  Only the
        column of all frames' FEs is kept; a confined search sorts anew.
        """
        return _scan(name_pattern, self._confined, self._store.fe_column, frame)

    # ------------------------------------------------------------ relations

    def frame_relation_types(self):
        """All frame relation types, registry file order."""
        return self._store.relation_types()

    def frame_relations(self, frame=None, frame2=None, type=None):
        """Frame-to-frame relations, optionally filtered.

        ``frame`` keeps relations with that frame on either side; ``frame2``
        additionally requires the other side to match it (either orientation);
        ``type`` keeps one relation type, given by name, ID or record.
        """
        if frame2 is not None and frame is None:
            raise UsageError("frame_relations: frame2 requires frame")
        if frame is None:
            relations = [
                rel for rtype in self._store.relation_types() for rel in rtype["frameRelations"]
            ]
        else:
            fid = self._store.frame_id(_key(frame, "frame", "frame"))
            fid2 = None if frame2 is None else self._store.frame_id(_key(frame2, "frame", "frame"))
            relations = self._store.frame_relations_involving(fid)
        if frame2 is not None:
            relations = [
                rel
                for rel in relations
                if {rel["supID"], rel["subID"]} == {fid, fid2}
            ]
        if type is not None:
            rtype = self._relation_type(type)
            relations = [rel for rel in relations if rel["type"] is rtype]
        return relations

    def fe_relations(self):
        """Every FE-to-FE mapping across all frame relations, registry order."""
        return [fe for rel in self.frame_relations() for fe in rel["feRelations"]]

    def _relation_type(self, key):
        key = _key(key, "framerelationtype", "frame relation type")
        for rtype in self._store.relation_types():
            if rtype["name"] == key or rtype["ID"] == key:
                return rtype
        raise LookupFailure(f"no frame relation type matching {key!r}")

    # ------------------------------------------------------------ semtypes

    def semtypes(self):
        """All semantic types, ID ascending."""
        return self._store.semtypes()

    def semtype(self, key):
        """One semantic type, by name, abbreviation, or numeric ID."""
        return self._store.get_semtype(_key(key, "semtype", "semantic type"))

    def semtype_inherits(self, st, ancestor):
        """Whether ``st`` is ``ancestor`` or lies below it in the hierarchy."""
        node = self.semtype(st)
        target = self.semtype(ancestor)
        while node is not None:
            if node is target:
                return True
            node = node["superType"]
        return False

    def propagate_semtypes(self):
        """Copy FE semantic types downward across every FE-to-FE mapping.

        Runs to a fixed point: an unlabeled sub-FE takes its super-FE's type,
        including types that arrived in an earlier pass.  Existing labels are
        never replaced, whether compatible or conflicting.  Returns the number
        of FEs newly labeled; a second call on an unchanged store returns 0.

        Requires exclusive use of the store for the duration of the call.
        """
        return build(self._propagate_semtypes)

    def _propagate_semtypes(self):
        added = 0
        mappings = self.fe_relations()
        changed = True
        while changed:
            changed = False
            for mapping in mappings:
                st = mapping["superFE"]["semType"]
                if st is None:
                    continue
                sub_fe = mapping["subFE"]
                if sub_fe["semType"] is None:
                    sub_fe["semType"] = st
                    added += 1
                    changed = True
        return added

    # ------------------------------------------------------------ annotated sentences

    def _iter_exemplars(self, pattern=None):
        for row in _scan(pattern, self._store.lu_column):
            lu = self._store.get_lu(row[LU_ID])
            yield from sorted(lu["exemplars"], key=lambda s: s["ID"])

    def exemplars(self, pattern=None):
        """Lexicographic sentences whose LU name matches, by (LU ID, sentence ID)."""
        return list(self._iter_exemplars(pattern))

    def ft_sents(self, name_pattern=None):
        """Full-text sentences of matching documents, in document order."""
        return [sent for doc in self.docs(name_pattern) for sent in doc["sentences"]]

    def sents(self):
        """Every annotated sentence, exemplars first, lazily.

        A generator: consuming only the leading exemplar sentences never opens
        a full-text file.
        """
        yield from self._iter_exemplars()
        for row in _scan(None, self._store.doc_column):
            yield from self._store.get_document(row["ID"])["sentences"]

    def doc(self, doc_id):
        """One full-text document, by numeric ID."""
        return self._store.get_document(_id(doc_id, None, "full-text document"))

    def docs(self, name_pattern=None):
        """Full-text documents whose name matches, ID ascending."""
        rows = _scan(name_pattern, self._store.doc_column)
        return [self._store.get_document(row["ID"]) for row in rows]

    def annotations(self, luNamePattern=None, exemplars=True, full_text=True):
        """Frame annotation sets whose LU name matches the pattern.

        Exemplar-sourced sets come first, then full-text sets; within each
        source, ordered by (sentence ID, set ID).  Full-text sets include
        UNANN ones (target annotated, FEs not); one with no LU name matches
        no pattern.  They are gathered from ``ft_sents()`` each call, which
        loads every document.  With both sources disabled the result is empty.
        """
        # Compiled first: a bad pattern fails with both sources off too.
        search = None if luNamePattern is None else compile_pattern(luNamePattern).search
        result = []
        if exemplars:
            result += _frame_sets(self._iter_exemplars(luNamePattern))
        if full_text:
            result += _frame_sets(self.ft_sents(), search)
        return result

    # ------------------------------------------------------------ help

    def help_summary(self):
        """A one-line-per-operation summary of the query surface."""
        return HELP_TEXT


HELP_TEXT = """\
Queries over a FrameNet-1.7-format lexical database.  Patterns are regular
expressions with unanchored search semantics; embed (?i) to ignore case.

Frames:
  frames(pattern)                frames whose name matches, ID ascending
  frame(name_or_id)              one frame, by exact name or numeric ID
  frame_ids_and_names(pattern)   {frame ID: name}, from the index alone
  frames_by_lemma(pattern)       frames defining an LU whose name matches
Lexical units:
  lus(pattern, frame)            lexical units by name, optionally per frame
  lu(id)                         one lexical unit, by numeric ID
Frame elements:
  fes(pattern, frame)            frame elements by name, across frames
Relations and semantic types:
  frame_relations(frame, frame2, type)  frame-to-frame relations, filtered
  frame_relation_types()         the relation type registry
  fe_relations()                 every FE-to-FE mapping in the registry
  semtypes()                     all semantic types, ID ascending
  semtype(key)                   one semantic type, by name, abbrev, or ID
  semtype_inherits(st, ancestor) hierarchy reachability (reflexive)
  propagate_semtypes()           push FE semantic types down the mappings
Annotated sentences:
  annotations(pattern, exemplars=, full_text=)  frame annotation sets
  exemplars(pattern)             lexicographic sentences by LU name
  sents()                        every annotated sentence, lazily
  ft_sents(pattern)              full-text sentences by document name
  doc(id)                        one full-text document, by numeric ID
  docs(pattern)                  full-text documents by name, ID ascending
Other:
  help_summary()                 this text
"""


def open_lexicon(root=None):
    """Open a corpus directory as a FrameLexicon."""
    return FrameLexicon.open(root)
