"""Parsers for the on-disk XML corpus format.

Every function here is pure over bytes: it receives file content, returns
records, and never touches the file system.  Each parser takes a file's bytes
and its name, for errors, and, for a file that refers to others, the store:
each reference is a ``Lazy`` that calls, when forced, one of five of its
methods: ``frame_relations_involving(frame_id)``, a frame's relations;
``resolve_semtype_ref(st_id, st_name, source, referrer)``, a frame's or FE's
semantic type; ``load_exemplars(lu)``, an LU stub's subcorpora;
``resolve_annotation_lu(lu_id, lu_name, frame_id, frame_name, source,
referrer)``, a full-text annotation set's LU; ``resolve_frame_ref(frame_id,
frame_name, source, referrer)``, the frame of a relation or of a full-text
annotation set.  ``referrer`` is the record that holds the reference.

Every file is read in one expat pass, ``_read``, with no element tree.
Element names lose their namespace, so ``<x:frame>`` is a ``<frame>``, but
attributes are read by the names they are written with: a qualified one
(``o:ID``) is never one of the format's attributes.  The LU index and the
relation registry build each record at its start tag.  The full-text index
keeps each corpus's document attributes at their start tags and builds its
rows once the file is read.  The other files keep what a schema of their
elements names, as a small tree of nodes, and build the records once the
file is read.  Either way errors come in the same words and order: XML that
is not well-formed first, then a wrong root element, then the first record
that breaks a rule.

The parsers read a fixed subset of elements and attributes.  Anything else in
a file (editorial attributes, embedded relation references inside frame files,
unknown child elements) is ignored without error, except that unknown
annotation layers are kept verbatim on their annotation set.

Records are complete when a parser returns them, but for the values that a
first read builds, below, which every check has passed when the file is
parsed, so that building them reads nothing and cannot fail.  Back-links are
set at parse time (set to sentence, full-text sentence to document, exemplar
sentence and set to the ``lu`` given to ``parse_lu_file``), and spans are
checked as they are read, in one walk over each annotation set's layers.

Span convention: label offsets are 0-based with inclusive ends, exactly as
stored in the files.  No adjustment happens at parse time.

Annotation sets, LU stubs and definitions are compact until read.  A set keeps its layers
as one flat tuple: ``rank, name, n`` for each layer, then four slots for each
of its ``n`` labels, ``start, end, name, feID``.  A label without a span (a
null instantiation) is a ``Record`` at once, in slots ``None, None, record,
None``.  One helper, ``_view``, computes each span view from the tuple:
``Target`` and ``FE`` when the set is parsed, as a sweep reads them; ``GF``,
``PT``, ``POS`` and the POS-specific views on first read.  Until then those
slots, and the set's ``layer``, which builds the layer and label records,
hold the tuple itself, a ``_Packed``: a ``records.Derived`` value that
builds what its slot's key names, so a set costs no object per slot.  A
frame's ``lexUnit`` is a ``_Packed`` of the store and a list of its LU
stubs' checked ``lu_record`` arguments, in file order; its first read builds
the ``{name: stub}`` dict.  An LU stub's ``lexemes`` is a ``_Packed`` of its
lexemes' checked ``(name, POS, headword, breakBefore, order)`` tuples, and
its ``sentenceCount`` one of its checked counts; each builds its records on
first read.  Every check of a ``<lexUnit>``, a duplicate name included, runs
when the frame loads.  One ``Derived`` singleton, ``_SHARED``, sits in every
frame's, FE's and LU's ``definition``, which it strips from the record's
``definitionMarkup``; in every frame's and LU's ``URL``, which it builds
from the name or ID; and in a sentence's ``POS`` and a lexicographic
sentence's other unbuilt views, which it reads from the set, so that both
hold one list.  ``Lazy`` is kept for references to other files and for what
can fail.

Strings from a small vocabulary are interned, as they repeat across the
corpus: label and layer names, the LU index's frame names and statuses, a
frame's and an FE's ``cBy`` and ``cDate``, an FE's ``name``, ``abbrev`` and
``coreType``, an LU stub's ``status`` and ``POS``, a lexeme's ``name`` and
``POS``, and an annotation set's ``status``.  A ``definition`` that stripping
leaves unchanged is its ``definitionMarkup`` itself.  A semantic type keeps no
markup, so its ``definition`` is stripped when its file is parsed.

Each index and registry parser returns the table that the store keeps: its
rows by ID in file order, or the relation types and each frame's relations.
Rows are compact too: frame index rows are ``(ID, name)`` pairs and LU index
rows plain ``LU_FIELDS`` tuples, read at the ``LU_*`` positions; document
and semantic type rows are records.  Each ``<frameRelation>`` and
``<FERelation>`` is checked at its start tag and kept as an attribute tuple.
A relation's record is a ``Lazy`` over its tuple and those of its FE
mappings, and its ``feRelations`` one more that builds its FE-relation
records; each is built on first read.

Attributes are read by one checked reader, ``_attr``.  It converts exactly the
format's integer attributes, named once in ``_INTEGERS``, and returns any
other as its string; ``_fields`` reads a run of required ones in order.
Labels, LU index rows, relations and FE mappings, the most numerous records,
read their attributes directly and fall back to ``_attr`` only when a lookup
or a check fails, so every error keeps its message and precedence.
"""

import html
import re
import sys
from collections import defaultdict
from functools import partial
from operator import itemgetter
from xml.parsers import expat

from .errors import CorpusError, IntegrityError, ParseError
from .records import Derived, Lazy, Record

CORE_TYPES = ("Core", "Core-Unexpressed", "Peripheral", "Extra-Thematic")

# Layers whose labels mark support or copula words for one part of speech.
POS_SPECIFIC_LAYERS = ("Verb", "Noun", "Adj", "Adv", "Prep", "Scon", "Art")

# Layers carrying part-of-speech tags; the layer name doubles as the tagset.
POS_TAGSET_LAYERS = ("BNC", "PENN")

_REPORT_BASE = "https://framenet2.icsi.berkeley.edu/fnReports/data"

_EX_TAG = re.compile(r"</?ex>", re.IGNORECASE)
_ANY_TAG = re.compile(r"<[^>]*>")
_WS_RUN = re.compile(r"\s+")


def strip_markup(markup):
    """Reduce definition markup to plain prose.

    All tags are removed generically; embedded example sentences survive as
    quoted text; entities are decoded; whitespace runs collapse to single
    spaces.  Markup that stripping leaves unchanged is returned itself.
    """
    if not markup:
        return ""
    text = _EX_TAG.sub("'", markup)
    text = _ANY_TAG.sub("", text)
    text = html.unescape(text)
    text = _WS_RUN.sub(" ", text).strip()
    return markup if text == markup else text


# ---------------------------------------------------------------- plumbing


class _Anywhere(dict):
    """A schema that applies at any depth below its element, as
    ``Element.iter`` searches; a plain one applies to its children only."""

    __slots__ = ()


# The schema value for a child element whose text a node keeps.
_TEXT = "#text"


def _read(data, source, root_tag, schema):
    """One expat pass over a ``<root_tag>`` document, with no element tree.

    Returns the root as a node ``[tag, attrs, text, leaves, nodes]``.  Element
    names are stripped of their namespace; attribute names are as written, a
    qualified one keeping its namespace (``uri}ID``).  ``schema`` maps the
    name of each child that a node keeps to what it keeps: None lists the
    child's attributes in ``leaves[name]``; a schema adds the child to
    ``nodes`` as a node of that schema; ``_TEXT`` keeps the first such child's
    text, as ``Element.text`` holds it, as a list of parts (``text`` is None
    without one); a function gets the child's attributes and may return the
    schema for its content.  Other content goes unread, unless the schema is
    an ``_Anywhere`` one.  Errors come in a fixed order: XML that is not
    well-formed, then a wrong root, then the first ``CorpusError`` a function
    raised; none runs after.
    """
    parser = expat.ParserCreate(namespace_separator="}")
    local_names = {}
    found = [root_tag, None, None, defaultdict(list), []]
    skipped = ({}, None)  # for content that nothing reads, and as "not in the schema"
    # (schema, node) for each open element's content.  Until some content gets
    # a schema of its own, all have the root's, and ends are not tracked.
    stack = [(schema, found)]
    tracking = False
    failure = None

    def root(tag, attrs):
        nonlocal failure, tracking
        local = tag.split("}", 1)[-1]
        if local != root_tag:
            failure = ParseError(f"{source}: expected a <{root_tag}> document, got <{local}>")
            parser.StartElementHandler = None
            return
        found[1] = attrs
        parser.StartElementHandler = start
        if type(schema) is not _Anywhere:
            tracking = True
            parser.EndElementHandler = end

    def start(tag, attrs):
        nonlocal failure, tracking
        local = local_names.get(tag)
        if local is None:
            local = local_names[tag] = tag.split("}", 1)[-1]
        schema, node = stack[-1]
        kept = schema.get(local, skipped)
        content = None
        if kept is None:
            node[3][local].append(attrs)
        elif callable(kept):
            try:
                kept = kept(attrs)
            except CorpusError as exc:
                failure = exc
                parser.StartElementHandler = parser.EndElementHandler = None
                return
            if kept is not None:
                content = (kept, node)
        elif isinstance(kept, dict):
            child = [local, attrs, None, defaultdict(list), []]
            node[4].append(child)
            content = (kept, child)
        elif kept is _TEXT and node[2] is None:
            # Collect the element's text until its first child or its end.
            node[2] = []
            tracking = True
            parser.CharacterDataHandler = node[2].append
            parser.StartElementHandler, parser.EndElementHandler = text_start, text_end
            content = skipped
        if content is None:
            if not tracking:
                return
            content = stack[-1] if type(schema) is _Anywhere else skipped
        elif not tracking:
            tracking = True
            parser.EndElementHandler = end
        stack.append(content)

    def end(tag):
        if len(stack) > 1:
            stack.pop()

    def end_text(handler, *args):
        parser.CharacterDataHandler = None
        parser.StartElementHandler, parser.EndElementHandler = start, end
        handler(*args)

    text_start, text_end = partial(end_text, start), partial(end_text, end)

    def undefined_entity(name):
        # Expat skips a reference that an external DTD may declare, and one to an
        # external entity, where ElementTree calls both undefined; do as it does.
        ref = f"&{name};".encode()[:100].decode(errors="replace")
        line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
        exc = expat.ExpatError(f"undefined entity {ref}: line {line}, column {column}")
        exc.lineno = line
        raise exc

    parser.StartElementHandler = root
    parser.SkippedEntityHandler = lambda name, is_parameter: is_parameter or undefined_entity(name)
    # An external entity's context ends with its name.
    parser.ExternalEntityRefHandler = lambda context, *_: undefined_entity(context.split("\f")[-1])
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise ParseError(f"{source}: line {exc.lineno}: not well-formed XML ({exc})") from None
    except (LookupError, ValueError) as exc:
        # An unknown or unsupported encoding declaration.
        raise ParseError(f"{source}: cannot decode XML ({exc})") from None
    finally:
        # The handlers refer to the parser and to each other: break those
        # cycles, so that the nodes are freed now, not by the garbage collector.
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = None
        text_start = text_end = None
    if failure is not None:
        raise failure
    return found


# The format's integer attributes: ``_attr`` converts these and no others.
_INTEGERS = frozenset((
    "ID", "frameID", "supID", "subID", "start", "end", "feID", "rank", "order", "annotated",
    "total", "corpID", "docID", "sentNo", "paragNo", "aPos", "luID",
))


def _attr(tag, attrs, name, source, default=...):
    """Attribute ``name``, an integer if it is one of ``_INTEGERS``, else its
    string: ``default`` if absent, required if there is no default."""
    value = attrs.get(name)
    if value is None:
        if default is ...:
            raise ParseError(f"{source}: <{tag}> is missing required attribute {name!r}")
        return default
    try:
        return int(value) if name in _INTEGERS else value
    except ValueError:
        raise ParseError(f"{source}: <{tag}> attribute {name!r} is not an integer: {value!r}")


def _fields(tag, attrs, source, *names):
    """The required attributes ``names`` of a ``<tag>``, read in that order."""
    return [_attr(tag, attrs, name, source) for name in names]


# ---------------------------------------------------------------- indexes


def parse_frame_index(data, source):
    """The frame index: {frame ID: (frame ID, frame name)} in file order."""
    rows = {}
    for attrs in _read(data, source, "frameIndex", _Anywhere(frame=None))[3]["frame"]:
        # Two reads, not ``_fields``, which made this parse, paid by every open, 25 % slower.
        fid = _attr("frame", attrs, "ID", source)
        name = _attr("frame", attrs, "name", source)
        if fid in rows:
            raise IntegrityError(f"{source}: duplicate frame ID {fid}")
        rows[fid] = (fid, name)
    return rows


# The LU index row layout: ``parse_lu_index``'s rows are exact tuples of these
# fields, in this order, and readers index them with the constants below.
LU_FIELDS = ("ID", "name", "frameID", "frameName", "status")
LU_ID, LU_NAME, LU_FRAME_ID, LU_FRAME_NAME, LU_STATUS = range(len(LU_FIELDS))


def parse_lu_index(data, source):
    """The LU index: {LU ID: its ``LU_FIELDS`` tuple}, in file order."""
    rows = {}
    intern = sys.intern

    def lu(attrs):
        try:
            lu_id, name, frame_id = int(attrs["ID"]), attrs["name"], int(attrs["frameID"])
            frame_name = attrs["frameName"]
        except (KeyError, ValueError):
            lu_id = None
        if lu_id is None or lu_id in rows:
            # The checked reader, in the order its errors take precedence.
            lu_id = _attr("lu", attrs, "ID", source)
            if lu_id in rows:
                raise IntegrityError(f"{source}: duplicate lexical unit ID {lu_id}")
            name, frame_id, frame_name = _fields("lu", attrs, source, *LU_FIELDS[1:4])
        # Frame names and statuses repeat across rows, so they are interned.
        rows[lu_id] = (lu_id, name, frame_id, intern(frame_name), intern(attrs.get("status", "")))

    _read(data, source, "luIndex", _Anywhere(lu=lu))
    return rows


def parse_fulltext_index(data, source):
    """The document index: {document ID: its row, with its corpus}, in file order.

    A document belongs to the innermost ``<corpus>`` it lies in, at any
    depth, and counts not at all outside one; the documents of a corpus
    follow those of the corpus around it.
    """
    corpora = []  # (corpus attributes, its documents' attributes), start tag order

    def corpus(attrs):
        docs = []
        corpora.append((attrs, docs))
        return _Anywhere(corpus=corpus, document=docs.append)

    _read(data, source, "fulltextIndex", _Anywhere(corpus=corpus))
    rows = {}
    for attrs, docs in corpora:
        corpus_id = _attr("corpus", attrs, "ID", source, None)
        corpus_name = attrs.get("name", "")
        for doc in docs:
            doc_id = _attr("document", doc, "ID", source)
            if doc_id in rows:
                raise IntegrityError(f"{source}: duplicate document ID {doc_id}")
            rows[doc_id] = Record(
                ID=doc_id,
                name=_attr("document", doc, "name", source),
                description=doc.get("description", ""),
                corpusName=corpus_name,
                corpusID=corpus_id,
            )
    return rows


# ---------------------------------------------------------------- frames

# The ``_read`` schemas of the files with text.
_DEFINED = {"definition": _TEXT, "semType": None}
_FRAME = dict(_DEFINED, FE=_DEFINED, FEcoreSet=_Anywhere(memberFE=None))
_FRAME["lexUnit"] = {"definition": _TEXT, "sentenceCount": None, "lexeme": None}
_SENTENCE = {"text": _TEXT, "annotationSet": {"layer": {"label": None}}}
_FULLTEXT = {"header": {"corpus": {"document": None}}, "sentence": _SENTENCE}


def parse_frame_file(data, source, store):
    """One frame file -> a frame record, without exemplar sentences.

    The frame's relations, its and its FEs' semantic types and its LUs'
    subcorpora load through ``store`` on first read, except that an LU with a
    zero sentence count has empty lists.
    """
    _, attrs, definition, leaves, members = _read(data, source, "frame", _FRAME)
    # The frame is built once the file is read, so its errors come in the
    # order of the fields read: the frame's own, then FEs and LUs, then core sets.
    name, frame_id = _fields("frame", attrs, source, "name", "ID")

    frame = Record()
    frame["cBy"] = sys.intern(attrs.get("cBy", ""))
    frame["cDate"] = sys.intern(attrs.get("cDate", ""))
    frame["name"] = name
    frame["ID"] = frame_id
    frame["_type"] = "frame"
    frame["definition"] = _SHARED
    frame["definitionMarkup"] = "".join(definition or ())
    frame["frameRelations"] = Lazy(_call, store, "frame_relations_involving", frame_id)
    # Plain locals for the frame's own tables, not a Record read per use.
    frame["FE"] = fes = {}
    frame["FEcoreSets"] = core_sets = []
    # Each LU stub's checked ``lu_record`` arguments, built into stubs on first read.
    lu_rows, lu_names = [], set()
    frame["lexUnit"] = _Packed((store, lu_rows))
    refs = _semtype_refs(leaves["semType"], source, frame, store)
    frame["semTypes"] = Lazy(_resolve_all, refs) if refs else []
    frame["URL"] = _SHARED

    fe_ids = set()
    for node in members:
        if node[0] == "FE":
            fe = _parse_fe(node, source, frame, store)
            fe_name, fe_id = fe["name"], fe["ID"]
            if fe_name in fes or fe_id in fe_ids:
                raise IntegrityError(
                    f"{source}: duplicate frame element {fe_name!r} ({fe_id}) in frame {name!r}"
                )
            fe_ids.add(fe_id)
            fes[fe_name] = fe
        elif node[0] == "lexUnit":
            row = _parse_lu_stub(node, source)
            lu_name = row[2]
            if lu_name in lu_names:
                raise IntegrityError(
                    f"{source}: duplicate lexical unit {lu_name!r} in frame {name!r}"
                )
            lu_names.add(lu_name)
            lu_rows.append(row)

    # Core set membership refers to FEs by name, so resolve after the FE pass.
    for core_set in (node[3]["memberFE"] for node in members if node[0] == "FEcoreSet"):
        core = []
        for member in core_set:
            member_name = _attr("memberFE", member, "name", source)
            if member_name not in fes:
                raise IntegrityError(
                    f"{source}: core set of frame {name!r} names unknown FE {member_name!r}"
                )
            core.append(fes[member_name])
        core_sets.append(core)

    return frame


def _call(store, method, *args):
    return getattr(store, method)(*args)


def _semtype_refs(semtypes, source, referrer, store):
    """One reference per ``<semType>``'s attributes, in file order."""
    refs = (_fields("semType", attrs, source, "ID", "name") for attrs in semtypes)
    return [
        Lazy(_call, store, "resolve_semtype_ref", st_id, name, source, referrer)
        for st_id, name in refs
    ]


def _resolve_all(refs):
    return [ref.resolve() for ref in refs]


def _parse_fe(node, source, frame, store):
    _, attrs, definition, leaves, _ = node
    core_type = _attr("FE", attrs, "coreType", source)
    if core_type not in CORE_TYPES:
        raise IntegrityError(
            f"{source}: frame element {attrs.get('name')!r} has unknown coreType {core_type!r}"
        )
    name, fe_id = _fields("FE", attrs, source, "name", "ID")
    fe = Record()
    fe["cBy"] = sys.intern(attrs.get("cBy", ""))
    fe["cDate"] = sys.intern(attrs.get("cDate", ""))
    fe["abbrev"] = sys.intern(attrs.get("abbrev", ""))
    fe["name"] = sys.intern(name)
    fe["ID"] = fe_id
    fe["_type"] = "fe"
    fe["coreType"] = sys.intern(core_type)
    fe["definition"] = _SHARED
    fe["definitionMarkup"] = "".join(definition or ())
    refs = _semtype_refs(leaves["semType"], source, fe, store)
    fe["semType"] = refs[0] if refs else None
    fe["frame"] = frame
    return fe


def _parse_lu_stub(node, source):
    """The checked ``lu_record`` arguments of a ``<lexUnit>``, up to its frame."""
    _, attrs, definition, leaves, _ = node
    markup = "".join(definition or ())
    count_attrs = next(iter(leaves["sentenceCount"]), {})
    annotated = _attr("sentenceCount", count_attrs, "annotated", source, 0)
    total = _attr("sentenceCount", count_attrs, "total", source, 0)
    if annotated > total:
        raise IntegrityError(
            f"{source}: lexical unit {attrs.get('name')!r} has annotated > total sentence count"
        )
    lexemes = [
        (
            sys.intern(_attr("lexeme", lex, "name", source)),
            sys.intern(lex.get("POS", "")),
            lex.get("headword", "false") == "true",
            lex.get("breakBefore", "false") == "true",
            _attr("lexeme", lex, "order", source, 1),
        )
        for lex in leaves["lexeme"]
    ]
    name, lu_id = _fields("lexUnit", attrs, source, "name", "ID")
    status, pos = sys.intern(attrs.get("status", "")), sys.intern(attrs.get("POS", ""))
    return status, pos, name, lu_id, markup, lexemes, (annotated, total)


def lu_record(status, pos, name, lu_id, markup, lexemes, counts, frame, store):
    """An LU record: a frame's LU stub, or a placeholder with no exemplars.

    ``lexemes`` are its ``(name, POS, headword, breakBefore, order)`` tuples
    and ``counts`` its (annotated, total) sentence count, each built into
    records on first read; with a nonzero total the subcorpora load through
    ``store.load_exemplars(lu)`` on first read.
    """
    total = counts[1]
    lu = Record()
    lu["status"] = status
    lu["POS"] = pos
    lu["name"] = name
    lu["ID"] = lu_id
    lu["_type"] = "lu"
    lu["definition"] = _SHARED
    lu["definitionMarkup"] = markup
    lu["lexemes"] = _Packed(lexemes) if lexemes else []
    lu["sentenceCount"] = _Packed(counts)
    lu["frame"] = frame
    lu["URL"] = _SHARED
    if total == 0:
        lu["subCorpus"] = []
        lu["exemplars"] = []
    else:
        lu["subCorpus"] = Lazy(_call, store, "load_exemplars", lu)
        lu["exemplars"] = Lazy(_exemplars_of, lu)
    return lu


_LEXEME_FIELDS = ("name", "POS", "headword", "breakBefore", "order")


class _Packed(tuple, Derived):
    """Checked data that its record builds into records on first read: a
    frame's store and its LU stubs' ``lu_record`` arguments, an LU stub's
    lexeme tuples or its (annotated, total) sentence count, or an
    annotation set's flat layer tuple, which sits in its ``layer`` and in
    each of its views but ``Target`` and ``FE``."""

    __slots__ = ()

    def derive(self, record, key):
        if key == "lexUnit":
            store, rows = self
            return {row[2]: lu_record(*row, record, store) for row in rows}
        if key == "lexemes":
            return [Record(zip(_LEXEME_FIELDS, lexeme)) for lexeme in self]
        if key == "sentenceCount":
            return Record(annotated=self[0], total=self[1])
        if key == "layer":
            return _layer_records(self)
        return _view(self, record["POS_tagset"] if key == "POS" else key)


class _Shared(Derived):
    """The one value in every frame's, FE's and LU's ``definition``, stripped
    from its ``definitionMarkup``; in every frame's and LU's ``URL``, built
    from its name or ID; and in a sentence's unbuilt views, which read its
    annotation set's own: set 0's ``POS``, and the frame set's (set 1's)
    others."""

    def derive(self, record, key):
        if key == "definition":
            return strip_markup(record["definitionMarkup"])
        if key != "URL":
            return record["annotationSet"][0 if key == "POS" else 1][key]
        path = f"frame/{record['name']}" if record["_type"] == "frame" else f"lu/lu{record['ID']}"
        return f"{_REPORT_BASE}/{path}.xml"


_SHARED = _Shared()


def _exemplars_of(lu):
    return [sent for sub in lu["subCorpus"] for sent in sub.sentence]


# ---------------------------------------------------------------- sentences


# Views of the frame annotation set that a lexicographic sentence mirrors.
_MIRRORED_VIEWS = ("Target", "FE", "GF", "PT") + POS_SPECIFIC_LAYERS

# Layers whose labels need a span or an itype.
_STRICT_SPAN_LAYERS = frozenset(_MIRRORED_VIEWS + POS_TAGSET_LAYERS)

_START_END = itemgetter(0, 1)


def _parse_label(attrs, source, layer_name, text_len, sent_id, fe_ids, slots):
    """Check one label and append its four slots to ``slots``: ``start, end,
    name, feID``, or ``None, None, record, None`` for a label with no span."""
    try:  # Most labels: a span inside the text, naming a known FE if any.
        start, end, fe_id = int(attrs["start"]), int(attrs["end"]), attrs.get("feID")
        if 0 <= start <= end < text_len and "itype" not in attrs:
            if fe_id is not None:
                fe_id = int(fe_id)
            if fe_id is None or fe_ids is None or fe_id in fe_ids:
                slots += (start, end, sys.intern(attrs["name"]), fe_id)
                return
    except (KeyError, ValueError):
        pass  # Read again below, field by field, to name the fault.
    tag = "label"
    start = _attr(tag, attrs, "start", source, None)
    end = _attr(tag, attrs, "end", source, None)
    name = _attr(tag, attrs, "name", source)
    itype = attrs.get("itype")
    problem = None
    if start is None and end is None:
        if itype is None and layer_name in _STRICT_SPAN_LAYERS:
            problem = "has neither span nor itype"
    elif start is None or end is None:
        problem = "has half a span"
    elif start < 0:
        problem = "has a negative start"
    elif end < start:
        problem = f"has end {end} < start {start}"
    elif itype is not None:
        problem = "has both a span and itype"
    elif end >= text_len:
        problem = "spans past the end of the text"
    if problem is None:
        fe_id = _attr(tag, attrs, "feID", source, None)
        if fe_id is not None and fe_ids is not None and fe_id not in fe_ids:
            problem = f"names unknown FE ID {fe_id}"
    if problem is not None:
        raise IntegrityError(
            f"{source}: sentence {sent_id}: label {name!r} on layer {layer_name!r} {problem}"
        )
    # A spanned label that passes these checks was read directly above, so
    # this one has no span: a null instantiation.
    label = Record(name=sys.intern(name))
    if itype is not None:
        label["itype"] = itype
    if fe_id is not None:
        label["feID"] = fe_id
    slots += (None, None, label, None)


def _parse_layers(layer_nodes, source, text_len, sent_id, fe_ids):
    """A set's layers as one flat ``_Packed`` tuple, in file order: ``rank,
    name, n`` for each layer, then ``_parse_label``'s four slots for each of
    its ``n`` labels.  Also the set of its layer names.
    """
    flat, names = [], set()
    for _, layer_attrs, _, leaves, _ in layer_nodes:
        name = sys.intern(_attr("layer", layer_attrs, "name", source))
        labels = leaves["label"]
        head = len(flat)
        flat += (None, name, len(labels))
        for attrs in labels:
            _parse_label(attrs, source, name, text_len, sent_id, fe_ids, flat)
        flat[head] = _attr("layer", layer_attrs, "rank", source, 1)
        names.add(name)
    return _Packed(flat), names


def _layers(flat, name=None):
    """The layers of a flat layer tuple, or those named ``name``, in file
    order: ``(rank, name, the slots of its labels)`` each."""
    i, size = 0, len(flat)
    while i < size:
        stop = i + 3 + 4 * flat[i + 2]
        if name is None or flat[i + 1] == name:
            yield flat[i], flat[i + 1], flat[i + 3 : stop]
        i = stop


def _layer_records(flat):
    """The layer records of a flat layer tuple, labels as records."""
    return [
        Record(rank=rank, name=name, label=[
            _label_record(*slots[k : k + 4]) for k in range(0, len(slots), 4)
        ])
        for rank, name, slots in _layers(flat)
    ]


def _label_record(start, end, name, fe_id):
    if start is None:
        return name  # a label with no span, a record already
    record = Record(start=start, end=end, name=name)
    if fe_id is not None:
        record["feID"] = fe_id
    return record


def _view(flat, name):
    """View ``name`` of a flat layer tuple: the ``(start, end, label name)``
    spans on the layers of that name, sorted by start and end.  ``Target``
    keeps start and end.  ``FE`` sorts each layer's spans alone, in rank
    order, and adds the labels with no span: ``(spans, {name: itype},
    {name: label})``.
    """
    layers = [(rank, slots) for rank, _, slots in _layers(flat, name)]
    if name != "FE":
        spans = sorted([span for _, slots in layers for span in _spans(slots)], key=_START_END)
        return [(start, end) for start, end, _ in spans] if name == "Target" else spans
    overt, ni, ni_detail = [], {}, {}
    for _, slots in sorted(layers, key=itemgetter(0)):
        overt += sorted(_spans(slots), key=_START_END)
        for start, label in zip(slots[::4], slots[2::4]):
            if start is None:
                ni.setdefault(label["name"], label["itype"])
                ni_detail.setdefault(label["name"], label)
    return overt, ni, ni_detail


def _spans(slots):
    """The ``(start, end, name)`` of a layer's labels with a span, in file order."""
    starts = range(0, len(slots), 4)
    return [(slots[k], slots[k + 1], slots[k + 2]) for k in starts if slots[k] is not None]


def _parse_annotation_set(node, source, sent, link, fe_ids):
    _, attrs, _, _, layer_nodes = node
    aset = Record()
    aset["ID"] = _attr("annotationSet", attrs, "ID", source)
    aset["status"] = sys.intern(attrs.get("status", ""))
    aset["_type"] = "annotationset"
    link(attrs, aset)
    aset["sent"] = sent
    flat, names = _parse_layers(layer_nodes, source, len(sent["text"]), sent["ID"], fe_ids)
    aset["layer"] = flat
    # Target and FE at once, as a sweep reads them; the other views on first read.
    for view in ("Target", "FE"):
        if view in names:
            aset[view] = _view(flat, view)
    for view in ("GF", "PT"):
        if view in names:
            aset[view] = flat
    tagset = next((name for name in POS_TAGSET_LAYERS if name in names), None)
    if tagset is not None:
        aset["POS"] = flat
        aset["POS_tagset"] = tagset
    for view in POS_SPECIFIC_LAYERS:
        if view in names and any(_spans(slots) for _, _, slots in _layers(flat, view)):
            aset[view] = flat
    return aset


def _parse_sentence(node, source, link, doc=None, fe_ids=None):
    """A sentence record from its node; ``doc`` is the owning document of a
    full-text one, and ``fe_ids`` the FE IDs that labels may name, if known.
    ``link(attrs, record)`` adds the LU and frame references to each
    annotation set, and to a lexicographic sentence itself.
    """
    _, attrs, text, _, set_nodes = node
    fulltext = doc is not None
    sent = Record()
    keys = ("corpID", "docID", "sentNo", "paragNo", "aPos") if fulltext else ("sentNo", "aPos")
    for key in keys:
        sent[key] = _attr("sentence", attrs, key, source, None)
    sent["ID"] = _attr("sentence", attrs, "ID", source)
    sent["_type"] = "fulltext_sentence" if fulltext else "sentence"
    if text is None:
        raise ParseError(f"{source}: sentence {sent['ID']} has no <text> element")
    sent["text"] = "".join(text)
    if not fulltext:
        link(attrs, sent)

    asets = [_parse_annotation_set(set_node, source, sent, link, fe_ids) for set_node in set_nodes]
    sent["annotationSet"] = asets
    first_set = asets[0] if asets else {}
    sent["POS"] = _SHARED if "POS" in first_set else []
    sent["POS_tagset"] = first_set.get("POS_tagset", "")
    if fulltext:
        sent["doc"] = doc
        return sent
    # The frame annotation set's views are mirrored onto the sentence, an
    # unbuilt one as ``_SHARED``, so that both read the one list it builds.
    frame_set = asets[1] if len(asets) > 1 else {}
    for key in _MIRRORED_VIEWS:
        if key in frame_set:
            value = dict.__getitem__(frame_set, key)
            sent[key] = _SHARED if isinstance(value, Derived) else value
        elif key not in POS_SPECIFIC_LAYERS:  # an empty one, as every sentence has
            sent[key] = ([], {}, {}) if key == "FE" else []
    return sent


def parse_lu_file(data, source, lu):
    """One LU exemplar file -> its list of subcorpus records.

    Every sentence and annotation set links to LU stub ``lu`` and its frame.
    The root's ``frameID``, ``frame`` and ``name`` must be those of ``lu``'s
    frame and of ``lu``, a label's ``feID`` one of its FEs', and, once the
    sentences are read, the root's ``ID`` that of ``lu``.
    """
    root = _read(data, source, "lexUnit", {"subCorpus": {"sentence": _SENTENCE}})
    attrs = root[1]
    lu_id = _attr("lexUnit", attrs, "ID", source)
    frame = lu["frame"]
    frame_id, frame_name = frame["ID"], frame["name"]
    what = f"{source}: lu {lu['ID']} of frame {frame_name!r} ({frame_id}) names another"
    if _attr("lexUnit", attrs, "frameID", source, frame_id) != frame_id:
        raise IntegrityError(f"{what} frame ({attrs['frameID']})")
    if attrs.get("frame", frame_name) != frame_name:
        raise IntegrityError(f"{what} frame ({attrs['frame']!r})")
    if attrs.get("name", lu["name"]) != lu["name"]:
        raise IntegrityError(f"{what} lexical unit ({attrs['name']!r})")
    fe_ids = {fe["ID"] for fe in frame["FE"].values()}

    def link(attrs, record):
        record["LU"] = lu
        record["frame"] = frame

    subcorpora = [
        Record(
            name=attrs.get("name", ""),
            sentence=[_parse_sentence(node, source, link, None, fe_ids) for node in sentences],
        )
        for _, attrs, _, _, sentences in root[4]
    ]
    if lu_id != lu["ID"]:
        raise IntegrityError(f"{source}: file header carries ID {lu_id}")
    return subcorpora


def parse_fulltext_file(data, source, store):
    """One full-text document file -> a document record with its sentences.

    An annotation set's LU resolves through ``store.resolve_annotation_lu``
    and its frame through ``store.resolve_frame_ref``, the set being the
    referrer; absent IDs and names are None.
    """
    root = _read(data, source, "fullTextAnnotation", _FULLTEXT)
    header = next((node for node in root[4] if node[0] == "header"), None)
    corpus = header[4][0] if header and header[4] else None
    if not (corpus and corpus[3]["document"]):
        raise ParseError(f"{source}: missing header/corpus/document element")
    corpus, doc_attrs = corpus[1], corpus[3]["document"][0]

    def link(attrs, aset):
        for key in ("luID", "frameID", "luName", "frameName"):
            value = _attr("annotationSet", attrs, key, source, None)
            if value is not None:
                aset[key] = value
        lu_id, lu_name = aset.get("luID"), aset.get("luName")
        frame_id, frame_name = aset.get("frameID"), aset.get("frameName")
        if lu_id is not None or lu_name is not None:
            aset["LU"] = Lazy(
                _call, store, "resolve_annotation_lu",
                lu_id, lu_name, frame_id, frame_name, source, aset,
            )
        if frame_id is not None or frame_name is not None:
            aset["frame"] = Lazy(
                _call, store, "resolve_frame_ref", frame_id, frame_name, source, aset
            )

    doc = Record()
    doc["ID"], doc["name"] = _fields("document", doc_attrs, source, "ID", "name")
    doc["description"] = doc_attrs.get("description", "")
    doc["corpusName"] = corpus.get("name", "")
    doc["corpusID"] = _attr("corpus", corpus, "ID", source, None)
    doc["_type"] = "document"
    sentences = (node for node in root[4] if node[0] == "sentence")
    doc["sentences"] = [_parse_sentence(node, source, link, doc) for node in sentences]
    return doc


# ---------------------------------------------------------------- relations


def parse_relations_file(data, source, store):
    """The relation registry -> (relation-type records, {frame ID: relations}).

    A type's ``frameRelations`` is a ``Lazy`` over its relations' records,
    and each frame's entry lists the ``Lazy``s of the relations with it on
    either side.  All is in file order.  Frames are resolved lazily through
    ``store.resolve_frame_ref``, the relation being the referrer.
    """
    types = []
    by_frame = {}
    mappings = []  # those of the relation last opened

    def relation_type(attrs):
        names = ("ID", "name", "superFrameName", "subFrameName")
        rtype = Record(zip(names, _fields("frameRelationType", attrs, source, *names)))
        rtype["_type"] = "framerelationtype"
        relations = []
        rtype["frameRelations"] = Lazy(_resolve_all, relations)
        types.append(rtype)
        return {"frameRelation": partial(relation, rtype, relations)}

    def relation(rtype, relations, attrs):
        nonlocal mappings
        row = _relation_row("frameRelation", attrs, source, "superFrameName", "subFrameName")
        mappings = []
        rel = Lazy(_relation_record, source, store, rtype, row, mappings)
        relations.append(rel)
        for frame_id in {row[3], row[4]}:
            by_frame.setdefault(frame_id, []).append(rel)
        return fe_relations

    def fe_relation(attrs):
        mappings.append(_relation_row("FERelation", attrs, source, "superFEName", "subFEName"))

    fe_relations = {"FERelation": fe_relation}
    _read(data, source, "frameRelations", {"frameRelationType": relation_type})
    return types, by_frame


def _relation_row(tag, attrs, source, sup_name, sub_name):
    """A relation's or an FE mapping's ``(ID, super name, sub name, supID,
    subID)``, its names read from attributes ``sup_name`` and ``sub_name``."""
    try:
        return (
            int(attrs["ID"]),
            attrs[sup_name],
            attrs[sub_name],
            int(attrs["supID"]),
            int(attrs["subID"]),
        )
    except (KeyError, ValueError):
        # The checked reader, to raise the first error in field order.
        return _fields(tag, attrs, source, "ID", sup_name, sub_name, "supID", "subID")


def _relation_record(source, store, rtype, row, mappings):
    """The record of relation ``row`` of type ``rtype``, with its FE mappings."""
    rel_id, sup_name, sub_name, sup_id, sub_id = row
    rel = Record()
    rel["ID"] = rel_id
    rel["type"] = rtype
    rel["superFrameName"] = sup_name
    rel["subFrameName"] = sub_name
    rel["supID"] = sup_id
    rel["subID"] = sub_id
    rel["_type"] = "framerelation"
    for side, fid, name in (("superFrame", sup_id, sup_name), ("subFrame", sub_id, sub_name)):
        rel[side] = Lazy(_call, store, "resolve_frame_ref", fid, name, source, rel)
    rel["feRelations"] = Lazy(_fe_relation_records, source, rel, mappings)
    return rel


def _fe_relation_records(source, rel, mappings):
    """The FE-relation records of relation ``rel``'s attribute tuples."""
    return [
        Record(
            ID=fe_id,
            superFEName=sup_name,
            subFEName=sub_name,
            supID=sup_id,
            subID=sub_id,
            _type="ferelation",
            frameRelation=rel,
            superFE=Lazy(_relation_fe, source, rel, "superFrame", sup_name, sup_id),
            subFE=Lazy(_relation_fe, source, rel, "subFrame", sub_name, sub_id),
        )
        for fe_id, sup_name, sub_name, sup_id, sub_id in mappings
    ]


def _relation_fe(source, relation, side, fe_name, fe_id):
    frame = relation[side]
    fe = frame["FE"].get(fe_name)
    if fe is not None and fe["ID"] == fe_id:
        return fe
    what = f"FE {fe_name!r} in frame {frame['name']!r}"
    problem = f"unknown {what}" if fe is None else f"{what} by another ID ({fe_id})"
    raise IntegrityError(f"{source}: relation {relation['ID']} names {problem}")


# ---------------------------------------------------------------- semtypes


def parse_semtypes_file(data, source):
    """The semantic type registry -> {ID: fully linked type record}, in file order.

    Types form a forest over their ``superType`` links; dangling parents and
    cycles are integrity errors.
    """
    root = _read(data, source, "semTypes", {"semType": {"definition": _TEXT, "superType": None}})
    by_id = {}
    parent_of = {}
    for _, attrs, definition, leaves, _ in root[4]:
        st = Record()
        st["abbrev"] = attrs.get("abbrev", "")
        st["name"], st["ID"] = _fields("semType", attrs, source, "name", "ID")
        st["_type"] = "semtype"
        st["definition"] = strip_markup("".join(definition or ()))
        st["superType"] = None
        st["subTypes"] = []
        if st["ID"] in by_id:
            raise IntegrityError(f"{source}: duplicate semantic type ID {st['ID']}")
        by_id[st["ID"]] = st
        if leaves["superType"]:
            parent_of[st["ID"]] = _attr("superType", leaves["superType"][0], "supID", source)

    for st_id, sup_id in parent_of.items():
        if sup_id not in by_id:
            raise IntegrityError(
                f"{source}: semantic type {st_id} names unknown parent {sup_id}"
            )
        child, parent = by_id[st_id], by_id[sup_id]
        child["superType"] = parent
        parent["subTypes"].append(child)

    for st in by_id.values():
        seen = set()
        node = st
        while node is not None:
            if node["ID"] in seen:
                raise IntegrityError(
                    f"{source}: semantic type hierarchy contains a cycle through {node['name']!r}"
                )
            seen.add(node["ID"])
            node = node["superType"]
    return by_id
