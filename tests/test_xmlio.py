"""Parser checks.

The counting oracles work on the raw XML text with plain substring counts,
so a parser that silently drops or duplicates elements cannot agree with
them by construction.
"""

import os
import random
import re
import sys
import threading
from pathlib import Path
from xml.etree import ElementTree

import pytest

from framelex import open_lexicon
from framelex.errors import IntegrityError, ParseError
from framelex.records import Derived, Lazy, Record, attribute_names
from framelex.xmlio import (
    LU_FIELDS,
    LU_FRAME_NAME,
    LU_ID,
    LU_NAME,
    LU_STATUS,
    parse_frame_file,
    parse_frame_index,
    parse_fulltext_file,
    parse_fulltext_index,
    parse_lu_file,
    parse_lu_index,
    parse_relations_file,
    parse_semtypes_file,
    strip_markup,
)


def raw(data_dir, relpath):
    return (data_dir / relpath).read_bytes()


def text(data_dir, relpath):
    return raw(data_dir, relpath).decode("utf-8")


def _stub(store, lu_id, name):
    """LU stub ``lu_id`` of a synthetic frame with no FEs, parsed against
    ``store``: the LU of a synthetic exemplar file."""
    data = f'<frame {NS} name="F" ID="9"><lexUnit ID="{lu_id}" name="{name}" POS="N"/></frame>'
    return parse_frame_file(data.encode(), "frame/F.xml", store).lexUnit[name]


# ------------------------------------------------------------ count oracles


def test_frame_index_count_matches_raw_text(data_dir):
    body = text(data_dir, "frameIndex.xml")
    rows = list(parse_frame_index(raw(data_dir, "frameIndex.xml"), "frameIndex.xml").values())
    assert len(rows) == body.count("<frame ")
    assert rows == sorted(rows)
    assert ("347", "Revenge") not in rows   # IDs come out as ints
    assert (347, "Revenge") in rows


def test_lu_index_count_matches_raw_text(data_dir):
    body = text(data_dir, "luIndex.xml")
    rows = list(parse_lu_index(raw(data_dir, "luIndex.xml"), "luIndex.xml").values())
    assert len(rows) == body.count("<lu ")
    assert [r[LU_ID] for r in rows] == sorted(r[LU_ID] for r in rows)
    by_id = {r[LU_ID]: r for r in rows}
    assert by_id[6067][LU_NAME] == "revenge.n"
    assert by_id[6067][LU_FRAME_NAME] == "Revenge"
    assert by_id[6067][LU_STATUS] == "FN1_Sent"


def test_fulltext_index_counts(data_dir):
    body = text(data_dir, "fulltextIndex.xml")
    rows = list(
        parse_fulltext_index(raw(data_dir, "fulltextIndex.xml"), "fulltextIndex.xml").values()
    )
    assert len(rows) == body.count("<document ")
    names = {r["name"] for r in rows}
    assert names == {"Tiger_Of_San_Pedro", "Wisteria_Report"}
    for row in rows:
        assert row["corpusName"] == "Sherlock"
        assert row["corpusID"] == 195


def test_a_document_belongs_to_its_innermost_corpus():
    data = (
        b'<fulltextIndex><corpus ID="1" name="Outer"><document ID="10" name="a"/>'
        b'<w><corpus ID="2" name="Inner"><document ID="20" name="b"/></corpus></w>'
        b'<document ID="11" name="c"/></corpus><document ID="30" name="d"/></fulltextIndex>'
    )
    rows = parse_fulltext_index(data, "fulltextIndex.xml")
    assert [(row.ID, row.corpusID, row.corpusName) for row in rows.values()] == [
        (10, 1, "Outer"), (11, 1, "Outer"), (20, 2, "Inner")]


def test_frame_file_fe_and_lu_counts(data_dir, store):
    body = text(data_dir, "frame/Revenge.xml")
    frame = parse_frame_file(raw(data_dir, "frame/Revenge.xml"), "frame/Revenge.xml", store)
    assert len(frame.FE) == body.count("<FE ")
    assert len(frame.lexUnit) == body.count("<lexUnit ")
    assert len(frame.FEcoreSets) == body.count("<FEcoreSet>")
    assert frame.ID == 347
    assert frame.name == "Revenge"
    assert frame._type == "frame"


def test_frame_file_fe_details(data_dir, store):
    frame = parse_frame_file(raw(data_dir, "frame/Revenge.xml"), "x", store)
    avenger = frame.FE["Avenger"]
    assert avenger.ID == 3009
    assert avenger.coreType == "Core"
    assert avenger.abbrev == "Ave"
    assert avenger.semType is None
    degree = frame.FE["Degree"]
    assert degree.semType.name == "Non_sentient"
    assert degree.semType.ID == 54
    assert degree.semType is store.get_semtype(54)
    # core sets hold the FE records themselves
    assert [[fe.name for fe in s] for s in frame.FEcoreSets] == [
        ["Injury", "Injured_party"],
        ["Avenger", "Punishment"],
    ]


def test_frame_definition_is_plain_prose(data_dir, store):
    frame = parse_frame_file(raw(data_dir, "frame/Revenge.xml"), "x", store)
    assert "<" not in frame.definition
    assert "Avenger carries out a Punishment" in frame.definition
    assert frame.definitionMarkup.startswith("<def-root>")


def test_multiword_lexemes(data_dir, store):
    frame = parse_frame_file(raw(data_dir, "frame/Revenge.xml"), "x", store)
    lu = frame.lexUnit["get back (at).v"]
    assert [lx.name for lx in lu.lexemes] == ["get", "back", "at"]
    assert lu.lexemes[0].headword is True
    assert lu.lexemes[2].breakBefore is True


def test_lu_file_sentence_count(data_dir, store):
    body = text(data_dir, "lu/lu6067.xml")
    subcorpora = parse_lu_file(raw(data_dir, "lu/lu6067.xml"), "lu/lu6067.xml", store.get_lu(6067))
    sents = [s for sub in subcorpora for s in sub.sentence]
    assert len(sents) == body.count("<sentence ")
    assert len(subcorpora) == body.count("<subCorpus ")
    assert {sub.name for sub in subcorpora} == {"manually-added", "other-matched"}


def test_lexicographic_sentence_layers(data_dir, store):
    subcorpora = parse_lu_file(raw(data_dir, "lu/lu6067.xml"), "x", store.get_lu(6067))
    by_id = {s.ID: s for sub in subcorpora for s in sub.sentence}
    sent = by_id[929548]
    assert sent.text == "A short while later Joseph had his revenge on Watney 's ."
    assert sent.Target == [(35, 41)]
    spans, ni, fe_map = sent.FE
    assert (43, 54, "Offender") in spans
    assert ni == {"Injury": "DNI"}
    assert set(fe_map) == {"Injury"}
    assert sent.Noun == [(27, 29, "Supp")]
    assert sent.POS_tagset == "BNC"
    assert len(sent.POS) == 12


def test_fulltext_file_counts(data_dir, store):
    body = text(data_dir, "fulltext/Tiger_Of_San_Pedro.xml")
    doc = parse_fulltext_file(raw(data_dir, "fulltext/Tiger_Of_San_Pedro.xml"), "x", store)
    assert len(doc.sentences) == body.count("<sentence ")
    total_sets = sum(len(s.annotationSet) for s in doc.sentences)
    assert total_sets == body.count("<annotationSet ")
    assert doc.name == "Tiger_Of_San_Pedro"
    assert doc.corpusName == "Sherlock"


def test_fulltext_sentence_backrefs(data_dir, store):
    doc = parse_fulltext_file(raw(data_dir, "fulltext/Tiger_Of_San_Pedro.xml"), "x", store)
    for sent in doc.sentences:
        assert sent.doc is doc
        assert sent.annotationSet[0].status == "UNANN"
        for aset in sent.annotationSet:
            assert aset.sent is sent


def test_relations_file_counts(data_dir, store):
    body = text(data_dir, "frRelation.xml")
    types, _ = parse_relations_file(raw(data_dir, "frRelation.xml"), "frRelation.xml", store)
    assert len(types) == body.count("<frameRelationType ")
    rels = [r for t in types for r in t.frameRelations]
    assert len(rels) == body.count("<frameRelation ")
    fe_rels = [fr for r in rels for fr in r.feRelations]
    assert len(fe_rels) == body.count("<FERelation ")
    inh = next(t for t in types if t.name == "Inheritance")
    assert inh.superFrameName == "Parent"
    assert inh.subFrameName == "Child"


def test_semtypes_forward_references_link(data_dir):
    body = text(data_dir, "semTypes.xml")
    sts = list(parse_semtypes_file(raw(data_dir, "semTypes.xml"), "semTypes.xml").values())
    assert len(sts) == body.count("<semType ")
    by_name = {st.name: st for st in sts}
    # Sentient appears in the file before its whole ancestor chain
    assert body.index('name="Sentient"') < body.index('name="Animate_being"')
    assert by_name["Sentient"].superType is by_name["Animate_being"]
    assert by_name["Physical_entity"].superType is None
    assert by_name["Sentient"].subTypes == []
    assert by_name["Animate_being"].subTypes == [by_name["Sentient"], by_name["Non_sentient"]]


# ------------------------------------------------------------ strip_markup


@pytest.mark.parametrize(
    "markup,expected",
    [
        ("", ""),
        ("plain prose", "plain prose"),
        ("<def-root>A <fen>B</fen> c.</def-root>", "A B c."),
        ("<ex>He <t>ran</t>.</ex>", "'He ran.'"),
        ("a &amp; b &lt;c&gt;", "a & b <c>"),
        ("a\n\n  b\tc", "a b c"),
        ('<ex><fex name="X">y</fex></ex>', "'y'"),
    ],
)
def test_strip_markup(markup, expected):
    assert strip_markup(markup) == expected


# ------------------------------------------------------------ error cases


NS = 'xmlns="http://framenet.icsi.berkeley.edu"'


def test_malformed_xml_raises_parse_error():
    with pytest.raises(ParseError):
        parse_frame_index(b"<frameIndex><frame", "bad.xml")


def test_wrong_root_tag_raises_parse_error():
    with pytest.raises(ParseError):
        parse_frame_index(b"<luIndex></luIndex>", "bad.xml")


def test_missing_required_attribute(store):
    with pytest.raises(ParseError):
        parse_frame_file(f'<frame {NS} name="X"></frame>'.encode(), "x", store)


def test_non_integer_id(store):
    with pytest.raises(ParseError):
        parse_frame_file(f'<frame {NS} name="X" ID="forty"></frame>'.encode(), "x", store)


def _sentence_doc(label_attrs):
    return (
        f'<lexUnit {NS} ID="1" name="a.n" POS="N">'
        '<subCorpus name="s"><sentence ID="10">'
        "<text>abcdef ghij</text>"
        '<annotationSet ID="100" status="UNANN">'
        '<layer rank="1" name="BNC"><label name="NN1" start="0" end="5"/></layer>'
        "</annotationSet>"
        '<annotationSet ID="101" status="MANUAL">'
        f'<layer rank="1" name="Target"><label name="Target" {label_attrs}/></layer>'
        "</annotationSet>"
        "</sentence></subCorpus></lexUnit>"
    ).encode()


def test_half_open_span_rejected(store):
    with pytest.raises(IntegrityError):
        parse_lu_file(_sentence_doc('start="0"'), "x", _stub(store, 1, "a.n"))


def test_backwards_span_rejected(store):
    with pytest.raises(IntegrityError):
        parse_lu_file(_sentence_doc('start="5" end="2"'), "x", _stub(store, 1, "a.n"))


def test_span_plus_itype_rejected(store):
    with pytest.raises(IntegrityError):
        parse_lu_file(_sentence_doc('start="0" end="5" itype="DNI"'), "x", _stub(store, 1, "a.n"))


def test_span_past_text_end_rejected(store):
    with pytest.raises(IntegrityError):
        parse_lu_file(_sentence_doc('start="0" end="11"'), "x", _stub(store, 1, "a.n"))


def test_span_at_last_character_accepted(store):
    subcorpora = parse_lu_file(_sentence_doc('start="7" end="10"'), "x", _stub(store, 1, "a.n"))
    sent = subcorpora[0].sentence[0]
    assert sent.Target == [(7, 10)]


def test_strict_layer_needs_span_or_itype(store):
    with pytest.raises(IntegrityError):
        parse_lu_file(_sentence_doc(""), "x", _stub(store, 1, "a.n"))


def test_namespace_prefixes_are_invisible():
    data = (
        '<fn:frameIndex xmlns:fn="http://framenet.icsi.berkeley.edu">'
        '<fn:frame ID="1" name="A"/></fn:frameIndex>'
    ).encode()
    assert parse_frame_index(data, "frameIndex.xml") == {1: (1, "A")}


def test_semtype_dangling_parent_rejected():
    data = (
        f'<semTypes {NS}><semType abbrev="a" name="A" ID="1">'
        '<superType superTypeName="B" supID="2"/></semType></semTypes>'
    ).encode()
    with pytest.raises(IntegrityError):
        parse_semtypes_file(data, "semTypes.xml")


def test_semtype_cycle_rejected():
    data = (
        f'<semTypes {NS}>'
        '<semType abbrev="a" name="A" ID="1"><superType superTypeName="B" supID="2"/></semType>'
        '<semType abbrev="b" name="B" ID="2"><superType superTypeName="A" supID="1"/></semType>'
        "</semTypes>"
    ).encode()
    with pytest.raises(IntegrityError):
        parse_semtypes_file(data, "semTypes.xml")


# ------------------------------------------------------------ record shapes

# Attribute lists as the parser has always produced them; a change in key
# names or key order shows up here first.
EXEMPLAR_SENTENCE_KEYS = [
    "sentNo", "aPos", "ID", "text", "LU", "frame", "annotationSet",
    "POS", "POS_tagset", "Target", "FE", "GF", "PT", "Noun",
]
FULLTEXT_SENTENCE_KEYS = [
    "corpID", "docID", "sentNo", "paragNo", "aPos", "ID", "text", "annotationSet",
    "POS", "POS_tagset", "doc",
]
EXEMPLAR_SET_KEYS = [
    ["ID", "status", "LU", "frame", "sent", "layer", "POS", "POS_tagset"],
    ["ID", "status", "LU", "frame", "sent", "layer", "Target", "FE", "GF", "PT", "Noun"],
]
FULLTEXT_SET_KEYS = [
    ["ID", "status", "sent", "layer", "POS", "POS_tagset"],
    [
        "ID", "status", "luID", "frameID", "luName", "frameName", "LU", "frame",
        "sent", "layer", "Target", "FE", "GF", "PT",
    ],
]


def test_record_attribute_names(data_dir, store):
    subcorpora = parse_lu_file(raw(data_dir, "lu/lu6067.xml"), "x", store.get_lu(6067))
    sent = next(s for sub in subcorpora for s in sub.sentence if s.ID == 929548)
    assert attribute_names(sent) == EXEMPLAR_SENTENCE_KEYS
    assert [attribute_names(a) for a in sent.annotationSet] == EXEMPLAR_SET_KEYS
    assert attribute_names(sent.annotationSet[1].layer[0]) == ["rank", "name", "label"]

    doc = parse_fulltext_file(raw(data_dir, "fulltext/Tiger_Of_San_Pedro.xml"), "x", store)
    ft_sent = doc.sentences[1]
    assert attribute_names(ft_sent) == FULLTEXT_SENTENCE_KEYS
    assert [attribute_names(a) for a in ft_sent.annotationSet[:2]] == FULLTEXT_SET_KEYS

    fe_layer = next(layer for layer in sent.annotationSet[1].layer if layer.name == "FE")
    assert {tuple(attribute_names(label)) for label in fe_layer.label} == {
        ("start", "end", "name", "feID"),
        ("name", "itype", "feID"),
    }
    target = next(layer for layer in sent.annotationSet[1].layer if layer.name == "Target")
    assert attribute_names(target.label[0]) == ["start", "end", "name"]


def test_lu_file_links_sentences_to_the_given_lu(data_dir, store):
    stub = store.get_lu(6067)
    frame = stub.frame
    subcorpora = parse_lu_file(raw(data_dir, "lu/lu6067.xml"), "x", stub)
    sents = [s for sub in subcorpora for s in sub.sentence]
    assert sents
    for sent in sents:
        assert sent.LU is stub
        assert sent.frame is frame
        for aset in sent.annotationSet:
            assert aset.LU is stub
            assert aset.frame is frame
            assert aset.sent is sent


def test_lu_file_checks_label_fe_ids_against_the_lu_frame(data_dir, store):
    stub = parse_frame_file(raw(data_dir, "frame/Revenge.xml"), "x", store).lexUnit["revenge.n"]
    data = raw(data_dir, "lu/lu6067.xml")
    assert parse_lu_file(data, "x", stub)
    damaged = data.replace(b'feID="3012"', b'feID="3009"').replace(b'feID="3018"', b'feID="1"')
    with pytest.raises(IntegrityError, match="label 'Injury' on layer 'FE' names unknown FE ID 1"):
        parse_lu_file(damaged, "x", stub)


def test_lu_stub_with_more_annotated_than_total_sentences_is_rejected(data_dir, store):
    data = raw(data_dir, "frame/Revenge.xml")
    damaged = data.replace(b'annotated="21" total="21"', b'annotated="22" total="21"')
    assert damaged != data
    message = "^x: lexical unit 'revenge.n' has annotated > total sentence count$"
    with pytest.raises(IntegrityError, match=message):
        parse_frame_file(damaged, "x", store)


def _raw_lexeme(attrs):
    """A lexeme record's fields from raw ``<lexeme>`` attributes, with the
    format's defaults."""
    return {
        "name": attrs["name"],
        "POS": attrs.get("POS", ""),
        "headword": attrs.get("headword") == "true",
        "breakBefore": attrs.get("breakBefore") == "true",
        "order": int(attrs.get("order", "1")),
    }


def _assert_lu_stubs_match_raw_xml(data_dir, frame_of):
    """Each frame, ``frame_of(path)`` for each frame file of ``data_dir``,
    keeps its LU stubs unbuilt until ``lexUnit`` is first read, then has one
    stub per ``<lexUnit>`` of an ElementTree re-parse, in file order, with its
    ``name``, ``ID``, ``POS``, ``status`` and ``definitionMarkup``.  Each stub
    keeps its lexemes and sentence count unbuilt until first read, then
    returns records equal to the re-parse's, the identical ones on every
    later read.  The counts of stubs, lexemes and sentence counts checked."""
    stubs = lexemes = counted = 0
    for path in sorted((data_dir / "frame").glob("*.xml")):
        frame = frame_of(path)
        assert isinstance(dict.__getitem__(frame, "lexUnit"), Derived), path.name
        elts = _children(ElementTree.fromstring(path.read_bytes()), "lexUnit")
        assert list(frame.lexUnit) == [elt.get("name") for elt in elts]
        for elt in elts:
            lu = frame.lexUnit[elt.get("name")]
            definition = (_children(elt, "definition") or [ElementTree.Element("none")])[0]
            assert (lu.name, lu.ID, lu.POS, lu.status, lu.definitionMarkup) == (
                elt.get("name"), int(elt.get("ID")), elt.get("POS", ""), elt.get("status", ""),
                definition.text or "",
            )
            assert lu.frame is frame
            expected = [_raw_lexeme(lex.attrib) for lex in _children(elt, "lexeme")]
            count = (_children(elt, "sentenceCount") or [ElementTree.Element("none")])[0]
            total = {key: int(count.get(key, "0")) for key in ("annotated", "total")}
            assert isinstance(dict.__getitem__(lu, "lexemes"), Derived) == bool(expected)
            assert isinstance(dict.__getitem__(lu, "sentenceCount"), Derived)
            assert lu.lexemes == expected
            assert [list(lex) for lex in lu.lexemes] == [list(lex) for lex in expected]
            assert all(type(lex) is Record for lex in lu.lexemes)
            assert lu.sentenceCount == total and list(lu.sentenceCount) == list(total)
            assert type(lu.sentenceCount) is Record
            assert lu.lexemes is lu.lexemes and lu.sentenceCount is lu.sentenceCount
            assert dict.__getitem__(lu, "lexemes") is lu.lexemes
            stubs += 1
            lexemes += len(expected)
            counted += count.tag != "none"
        assert frame.lexUnit is frame.lexUnit
    return stubs, lexemes, counted


def test_lu_stub_lexemes_and_sentence_counts_match_raw_xml(data_dir, store):
    def frame_of(path):
        return parse_frame_file(path.read_bytes(), path.name, store)

    stubs, lexemes, counted = _assert_lu_stubs_match_raw_xml(data_dir, frame_of)
    assert stubs > 20 and lexemes > 0 and counted > 0


@pytest.mark.skipif(
    not os.environ.get("FRAMELEX_DATA"),
    reason="needs a full-size corpus in FRAMELEX_DATA",
)
def test_full_corpus_lu_stubs_match_raw_xml_through_the_lexicon():
    """The same through a lexicon on ``FRAMELEX_DATA`` once ``fes()`` has
    loaded every frame, which builds no frame's stubs."""
    data_dir = Path(os.environ["FRAMELEX_DATA"])
    lex = open_lexicon(data_dir)
    lex.fes()
    log = list(lex.store.fileAccessLog)
    stubs, _, _ = _assert_lu_stubs_match_raw_xml(data_dir, lambda path: lex.frame(path.stem))
    assert stubs > 10000
    assert lex.store.fileAccessLog == log


def test_repeated_small_vocabulary_strings_are_one_object(store):
    """Equal values of the interned fields, read from different files, are
    one object."""
    frames = _frames(store)
    fes = [fe for frame in frames for fe in frame.FE.values()]
    lus = [lu for frame in frames for lu in frame.lexUnit.values()]
    exemplar_sets = [
        aset
        for source, _, sents in _oracle_inputs(store)
        if source.startswith("lu")
        for sent in sents
        for aset in sent.annotationSet
    ]
    fields = {
        "frame cBy": [frame.cBy for frame in frames],
        "frame cDate": [frame.cDate for frame in frames],
        "FE cBy": [fe.cBy for fe in fes],
        "FE cDate": [fe.cDate for fe in fes],
        "FE name": [fe.name for fe in fes],
        "FE abbrev": [fe.abbrev for fe in fes],
        "FE coreType": [fe.coreType for fe in fes],
        "LU status": [lu.status for lu in lus],
        "LU POS": [lu.POS for lu in lus],
        "lexeme name": [lex.name for lu in lus for lex in lu.lexemes],
        "lexeme POS": [lex.POS for lu in lus for lex in lu.lexemes],
        "annotation set status": [aset.status for aset in exemplar_sets + _fulltext_sets(store)],
    }
    for field, values in fields.items():
        first = {}
        for value in values:
            assert first.setdefault(value, value) is value, (field, value)
    repeated = {field for field, values in fields.items() if len(set(values)) < len(values)}
    assert {"FE coreType", "FE cBy", "FE name", "LU status", "LU POS"} <= repeated


def test_definition_is_its_markup_where_stripping_changes_nothing(store):
    frames = _frames(store)
    records = [
        record
        for frame in frames
        for record in [frame, *frame.FE.values(), *frame.lexUnit.values()]
    ]
    same = [record.definition == record.definitionMarkup for record in records]
    assert [record.definition is record.definitionMarkup for record in records] == same
    assert any(same) and not all(same)


def _frames(store):
    paths = sorted((store.root / "frame").glob("*.xml"))
    return [parse_frame_file(path.read_bytes(), path.name, store) for path in paths]


def _fulltext_sets(store):
    paths = sorted((store.root / "fulltext").glob("*.xml"))
    docs = [parse_fulltext_file(path.read_bytes(), path.name, store) for path in paths]
    return [aset for doc in docs for sent in doc.sentences for aset in sent.annotationSet]


def _relations(store):
    types, _ = parse_relations_file(raw(store.root, "frRelation.xml"), "frRelation.xml", store)
    return [rel for rtype in types for rel in rtype.frameRelations]


def _lu_stubs(store):
    stubs = [lu for frame in _frames(store) for lu in frame.lexUnit.values()]
    return [lu for lu in stubs if lu.sentenceCount.total]


def _semtype_ids(elt):
    return [int(st.get("ID")) for st in _children(elt, "semType")]


def _frame_elements(store):
    """(frame, its ElementTree root) of each fixture frame, parsed against ``store``."""
    return [(f, ElementTree.fromstring(raw(store.root, f"frame/{f.name}.xml"))) for f in _frames(store)]


def _annotation_lu(store, aset):
    keys = ("luID", "luName", "frameID", "frameName")
    return store.resolve_annotation_lu(*map(aset.get, keys), "x", aset)


# Reference -> (record, key, expected) triples over the fixture, every parser
# run against the fixture store: the store's own record, or list of records,
# that the reference resolves to, found through the store's lookups.  An LU's
# subcorpora are parsed anew for each stub, so they hold the data of the
# store's own stub's.
REFERENCES = {
    "frameRelations": lambda store: [
        (f, "frameRelations", store.frame_relations_involving(f.ID)) for f in _frames(store)
    ],
    "frame semTypes": lambda store: [
        (f, "semTypes", [store.get_semtype(st_id) for st_id in _semtype_ids(elt)])
        for f, elt in _frame_elements(store)
        if _semtype_ids(elt)
    ],
    "FE semType": lambda store: [
        (f.FE[fe_elt.get("name")], "semType", store.get_semtype(_semtype_ids(fe_elt)[0]))
        for f, elt in _frame_elements(store)
        for fe_elt in _children(elt, "FE")
        if _semtype_ids(fe_elt)
    ],
    "LU subCorpus": lambda store: [
        (lu, "subCorpus", store.get_lu(lu.ID).subCorpus) for lu in _lu_stubs(store)
    ],
    "LU exemplars": lambda store: [
        (lu, "exemplars", store.get_lu(lu.ID).exemplars) for lu in _lu_stubs(store)
    ],
    "full-text LU": lambda store: [
        (a, "LU", _annotation_lu(store, a)) for a in _fulltext_sets(store) if "LU" in a
    ],
    "full-text frame": lambda store: [
        (a, "frame", store.get_frame(a.get("frameID", a.get("frameName"))))
        for a in _fulltext_sets(store)
        if "frame" in a
    ],
    "relation superFrame": lambda store: [
        (r, "superFrame", store.get_frame(r.supID)) for r in _relations(store)
    ],
    "relation subFrame": lambda store: [
        (r, "subFrame", store.get_frame(r.subID)) for r in _relations(store)
    ],
}


@pytest.mark.parametrize("reference", sorted(REFERENCES))
def test_references_without_a_resolver_fail_when_forced(store, reference):
    """Each reference resolves through the store method it names, to the
    store's own records: one that names no resolver, as a misspelt method
    would, fails when forced, and so fails here."""
    triples = REFERENCES[reference](store)
    assert triples
    for record, key, expected in triples:
        value = record[key]
        if key in ("subCorpus", "exemplars"):
            assert _plain(value) == _plain(expected) and value
            assert all(sent.LU is record for sent in record.exemplars)
        elif isinstance(expected, list):
            assert len(value) == len(expected)
            assert all(got is own for got, own in zip(value, expected)), (reference, record)
        else:
            assert value is expected and isinstance(value, Record), (reference, record)
    assert any(record[key] for record, key, _ in triples)


# ------------------------------------------------------------ raw-XML view oracle

SUPPORT_LAYERS = ("Verb", "Noun", "Adj", "Adv", "Prep", "Scon", "Art")
VIEW_KEYS = ("Target", "FE", "GF", "PT", "POS", "POS_tagset") + SUPPORT_LAYERS


def _local(tag):
    return tag.rsplit("}", 1)[-1]


def _children(elt, tag):
    return [child for child in elt if _local(child.tag) == tag]


def _oracle_views(set_elt):
    """The layer views of one <annotationSet>, from ElementTree alone."""
    layers = [
        (layer.get("name"), int(layer.get("rank", "1")), _children(layer, "label"))
        for layer in _children(set_elt, "layer")
    ]

    def spans(name):
        found = [
            (int(label.get("start")), int(label.get("end")), label.get("name"))
            for layer_name, _, labels in layers
            if layer_name == name
            for label in labels
            if label.get("start") is not None
        ]
        return sorted(found, key=lambda span: span[:2])

    names = [name for name, _, _ in layers]
    views = {}
    if "Target" in names:
        views["Target"] = [span[:2] for span in spans("Target")]
    if "FE" in names:
        overt, ni = [], {}
        for _, _, labels in sorted((l for l in layers if l[0] == "FE"), key=lambda l: l[1]):
            rank_spans = [
                (int(label.get("start")), int(label.get("end")), label.get("name"))
                for label in labels
                if label.get("start") is not None
            ]
            overt.extend(sorted(rank_spans, key=lambda span: span[:2]))
            for label in labels:
                if label.get("itype") is not None:
                    ni.setdefault(label.get("name"), label.get("itype"))
        views["FE"] = (overt, ni)
    for name in ("GF", "PT"):
        if name in names:
            views[name] = spans(name)
    for tagset in ("BNC", "PENN"):
        if tagset in names:
            views["POS"] = spans(tagset)
            views["POS_tagset"] = tagset
            break
    for name in SUPPORT_LAYERS:
        support = spans(name)
        if support:
            views[name] = support
    return views


def _parsed_views(aset):
    views = {key: aset[key] for key in VIEW_KEYS if key in aset}
    if "FE" in views:
        overt, ni, ni_detail = views["FE"]
        assert list(ni_detail) == list(ni)
        assert all(ni_detail[name].itype == ni[name] for name in ni)
        views["FE"] = (overt, ni)
    return views


# Cases the fixture lacks: FE ranks out of file order with a null instance
# named on both, span ties, two Target layers, two tagsets (PENN first), an
# empty support layer and an unknown layer.
_VIEW_CASES_LU = (
    f'<lexUnit {NS} ID="1" name="a.n" POS="N"><subCorpus name="s">'
    '<sentence ID="10"><text>abcdef ghij klm</text>'
    '<annotationSet ID="100" status="UNANN"><layer rank="1" name="PENN">'
    '<label name="NN" start="7" end="10"/><label name="NN" start="0" end="5"/></layer>'
    '<layer rank="1" name="BNC"><label name="NN1" start="0" end="5"/></layer>'
    "</annotationSet>"
    '<annotationSet ID="101" status="MANUAL">'
    '<layer rank="1" name="Target"><label name="Target" start="7" end="10"/></layer>'
    '<layer rank="2" name="FE"><label name="B" start="0" end="5"/>'
    '<label name="A" start="0" end="2"/><label name="N" itype="INI"/></layer>'
    '<layer rank="1" name="FE"><label name="C" start="7" end="14"/>'
    '<label name="D" start="0" end="14"/><label name="N" itype="DNI"/>'
    '<label name="M" itype="CNI"/></layer>'
    '<layer rank="1" name="Target"><label name="Target" start="0" end="1"/></layer>'
    '<layer rank="1" name="GF"><label name="Obj" start="12" end="14"/>'
    '<label name="Ext" start="0" end="5"/><label name="Dep" start="0" end="5"/></layer>'
    '<layer rank="1" name="Verb"/>'
    '<layer rank="1" name="Noun"><label name="Supp" start="12" end="14"/></layer>'
    '<layer rank="1" name="Sent"><label name="Other"/></layer>'
    "</annotationSet></sentence></subCorpus></lexUnit>"
).encode()


def _oracle_inputs(store):
    """(source, data, sentences) of each LU and full-text file of the fixture,
    then of the view cases, parsed against ``store``: an LU file with the
    store's LU, the cases with a synthetic one."""
    inputs = []
    for path in sorted((store.root / "lu").glob("*.xml")):
        subcorpora = parse_lu_file(path.read_bytes(), path.name, store.get_lu(int(path.stem[2:])))
        inputs.append((path.name, path.read_bytes(), [s for sub in subcorpora for s in sub.sentence]))
    for path in sorted((store.root / "fulltext").glob("*.xml")):
        doc = parse_fulltext_file(path.read_bytes(), path.name, store)
        inputs.append((path.name, path.read_bytes(), doc.sentences))
    assert len(inputs) == 5
    subcorpora = parse_lu_file(_VIEW_CASES_LU, "cases", _stub(store, 1, "a.n"))
    return inputs + [("cases", _VIEW_CASES_LU, subcorpora[0].sentence)]


def test_layer_views_match_raw_xml(store):
    checked = 0
    for source, data, sents in _oracle_inputs(store):
        root = ElementTree.fromstring(data)
        sent_elts = [elt for elt in root.iter() if _local(elt.tag) == "sentence"]
        assert [int(elt.get("ID")) for elt in sent_elts] == [s.ID for s in sents]
        for sent_elt, sent in zip(sent_elts, sents):
            set_elts = _children(sent_elt, "annotationSet")
            assert len(set_elts) == len(sent.annotationSet)
            for set_elt, aset in zip(set_elts, sent.annotationSet):
                assert int(set_elt.get("ID")) == aset.ID
                assert _parsed_views(aset) == _oracle_views(set_elt), (source, aset.ID)
                checked += 1
            first = _oracle_views(set_elts[0]) if set_elts else {}
            assert sent.POS == first.get("POS", [])
            assert sent.POS_tagset == first.get("POS_tagset", "")
            if sent._type == "sentence":
                frame_views = _oracle_views(set_elts[1]) if len(set_elts) > 1 else {}
                assert sent.Target == frame_views.get("Target", [])
                assert sent.FE[:2] == frame_views.get("FE", ([], {}))
                assert sent.GF == frame_views.get("GF", [])
                assert sent.PT == frame_views.get("PT", [])
                for name in SUPPORT_LAYERS:
                    assert sent.get(name) == frame_views.get(name)
    assert checked > 50


# ------------------------------------------------------------ lazily built layers


def _oracle_layers(set_elt):
    """(rank, name, [label key/value pairs in key order]) per <layer>, file order."""
    layers = []
    for layer in _children(set_elt, "layer"):
        labels = []
        for label in _children(layer, "label"):
            items = []
            if label.get("start") is not None:
                items += [("start", int(label.get("start"))), ("end", int(label.get("end")))]
            items.append(("name", label.get("name")))
            if label.get("itype") is not None:
                items.append(("itype", label.get("itype")))
            if label.get("feID") is not None:
                items.append(("feID", int(label.get("feID"))))
            labels.append(items)
        layers.append((int(layer.get("rank", "1")), layer.get("name"), labels))
    return layers


def test_lazy_layers_match_raw_xml(store):
    checked = 0
    for source, data, sents in _oracle_inputs(store):
        root = ElementTree.fromstring(data)
        set_elts = [elt for elt in root.iter() if _local(elt.tag) == "annotationSet"]
        asets = [aset for sent in sents for aset in sent.annotationSet]
        assert [int(elt.get("ID")) for elt in set_elts] == [aset.ID for aset in asets]
        for set_elt, aset in zip(set_elts, asets):
            assert isinstance(dict.__getitem__(aset, "layer"), Derived)
            layers = aset.layer
            assert aset.layer is layers
            assert isinstance(layers, list)
            assert all(attribute_names(layer) == ["rank", "name", "label"] for layer in layers)
            got = [
                (layer.rank, layer.name, [list(label.items()) for label in layer.label])
                for layer in layers
            ]
            assert got == _oracle_layers(set_elt), (source, aset.ID)
            if "FE" in aset:
                fe_labels = [lab for layer in layers if layer.name == "FE" for lab in layer.label]
                for label in aset.FE[2].values():
                    assert any(label is other for other in fe_labels), (source, aset.ID)
            checked += 1
    assert checked > 50


def _assert_corpus_sets_match_raw_xml(root):
    """Every annotation set that a lexicon on corpus ``root`` builds, exemplar
    and full-text, has the views and the layer records of an ElementTree
    re-parse of its file, and a sentence's views are its sets' own lists."""
    lex = open_lexicon(root)
    checked = {"lexUnit": 0, "fullTextAnnotation": 0}
    for path in sorted((root / "lu").glob("*.xml")) + sorted((root / "fulltext").glob("*.xml")):
        xml_root = ElementTree.parse(path).getroot()
        kind = _local(xml_root.tag)
        if kind == "lexUnit":
            sents = lex.lu(int(xml_root.get("ID"))).exemplars
        else:
            doc_elt = next(elt for elt in xml_root.iter() if _local(elt.tag) == "document")
            sents = lex.doc(int(doc_elt.get("ID"))).sentences
        sent_elts = [elt for elt in xml_root.iter() if _local(elt.tag) == "sentence"]
        assert [int(elt.get("ID")) for elt in sent_elts] == [sent.ID for sent in sents], path
        for sent_elt, sent in zip(sent_elts, sents):
            asets = sent.annotationSet
            # The sentence's views first: its sets must then return the same lists.
            mirrored = [("POS", 0)]
            if kind == "lexUnit":
                mirrored += [(key, 1) for key in ("Target", "FE", "GF", "PT") + SUPPORT_LAYERS]
            for key, k in mirrored:
                if k < len(asets) and key in asets[k]:
                    assert sent[key] is asets[k][key], (path, sent.ID, key)
            set_elts = _children(sent_elt, "annotationSet")
            assert [int(elt.get("ID")) for elt in set_elts] == [aset.ID for aset in asets]
            for set_elt, aset in zip(set_elts, asets):
                where = (path, aset.ID)
                assert _parsed_views(aset) == _oracle_views(set_elt), where
                got = [
                    (layer.rank, layer.name, [list(label.items()) for label in layer.label])
                    for layer in aset.layer
                ]
                assert got == _oracle_layers(set_elt), where
                checked[kind] += 1
    return checked


def test_fixture_sets_match_raw_xml_through_the_lexicon(data_dir):
    checked = _assert_corpus_sets_match_raw_xml(data_dir)
    assert checked == {"lexUnit": 46, "fullTextAnnotation": 9}


@pytest.mark.skipif(
    not os.environ.get("FRAMELEX_DATA"),
    reason="needs a full-size corpus in FRAMELEX_DATA",
)
def test_full_corpus_sets_match_raw_xml_through_the_lexicon():
    checked = _assert_corpus_sets_match_raw_xml(Path(os.environ["FRAMELEX_DATA"]))
    assert checked["lexUnit"] > 1000 and checked["fullTextAnnotation"] > 1000


def test_concurrent_first_reads_of_a_layer_build_one_list(data_dir, store):
    data, lu = raw(data_dir, "lu/lu6067.xml"), store.get_lu(6067)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            subcorpora = parse_lu_file(data, "x", lu)
            aset = subcorpora[0].sentence[0].annotationSet[1]
            barrier = threading.Barrier(4)
            seen = []

            def read():
                barrier.wait(timeout=10)
                seen.append(aset.layer)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(seen) == 4
            assert all(layers is seen[0] for layers in seen)
            assert aset.layer is seen[0]
    finally:
        sys.setswitchinterval(interval)



_REPORTS = "https://framenet2.icsi.berkeley.edu/fnReports/data"


def _derived_slots(store):
    """Freshly parsed fixture records, as units of two lists of ``(record,
    key)`` slots that a first read builds: per sentence its mirrored views,
    then its sets' ``layer`` and views; per frame nothing, then its ``URL``,
    ``definition`` and ``lexUnit`` and its FEs' ``definition``; per LU stub,
    from a second parse of its frame, nothing, then its ``URL``,
    ``definition``, ``sentenceCount`` and ``lexemes``.  Also the URLs that
    the frame files' ``name`` and ``ID`` give."""
    units, urls = [], []
    for path in sorted((store.root / "frame").glob("*.xml")):
        elt = ElementTree.fromstring(path.read_bytes())
        frame = parse_frame_file(path.read_bytes(), path.name, store)
        fes = [(fe, "definition") for fe in frame.FE.values()]
        units.append(([], [(frame, "URL"), (frame, "definition"), (frame, "lexUnit"), *fes]))
        urls.append(f"{_REPORTS}/frame/{elt.get('name')}.xml")
        stubs = parse_frame_file(path.read_bytes(), path.name, store).lexUnit
        for lu_elt in _children(elt, "lexUnit"):
            lu = stubs[lu_elt.get("name")]
            keys = ["URL", "definition", "sentenceCount"]
            keys += ["lexemes"] * bool(_children(lu_elt, "lexeme"))
            units.append(([], [(lu, key) for key in keys]))
            urls.append(f"{_REPORTS}/lu/lu{lu_elt.get('ID')}.xml")
    for _, _, sents in _oracle_inputs(store):
        keys = ("layer", "GF", "PT", "POS") + SUPPORT_LAYERS
        for sent in sents:
            asets = sent.annotationSet
            # Set 0's POS, and a lexicographic sentence's frame set's views.
            mirrored = [("POS", asets[:1])]
            if sent._type == "sentence":
                mirrored += [(key, asets[1:2]) for key in ("GF", "PT") + SUPPORT_LAYERS]
            units.append((
                [(sent, key) for key, aset in mirrored if aset and key in aset[0]],
                [(aset, key) for aset in asets for key in keys if key in aset],
            ))
    return units, urls


def test_threads_first_reading_derived_slots_get_one_object_each(store):
    """Eight threads first-read every derived slot of freshly parsed records,
    in seeded orders, a sentence's views before its sets' in half the threads
    and after them in the rest: each slot gives every thread one object,
    equal to a sequential read of a second parse, with back-links and lazy
    references left out."""
    units, urls = _derived_slots(store)
    sequential = [[_plain(record[key]) for record, key in sent + sets] for sent, sets in units]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(3):
            units = _derived_slots(store)[0]
            slots = [slot for sent, sets in units for slot in sent + sets]
            assert all(isinstance(dict.__getitem__(*slot), Derived) for slot in slots)
            barrier = threading.Barrier(8)
            seen = [{} for _ in range(8)]

            def work(k):
                # Threads 2j and 2j + 1 take the units in one order, to meet
                # on the same slots, with a sentence's first and with its sets' first.
                order = list(units)
                random.Random(seed * 8 + k // 2).shuffle(order)
                barrier.wait(timeout=10)
                for sent, sets in order:
                    for record, key in (sent + sets if k % 2 else sets + sent):
                        seen[k][id(record), key] = record[key]

            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for record, key in slots:
                value = dict.__getitem__(record, key)
                assert all(got[id(record), key] is value for got in seen), (record, key)
            for (sent, sets), expected in zip(units, sequential):
                assert [_plain(record[key]) for record, key in sent + sets] == expected
                for record, key in sent:
                    aset = record.annotationSet[0 if key == "POS" else 1]
                    assert dict.__getitem__(record, key) is dict.__getitem__(aset, key)
    finally:
        sys.setswitchinterval(interval)
    assert [record.URL for _, unit in units for record, key in unit if key == "URL"] == urls
    kinds = {(record._type, key) for sent, sets in units for record, key in sent + sets}
    assert kinds >= {
        ("frame", "URL"), ("frame", "definition"), ("frame", "lexUnit"), ("fe", "definition"),
        ("lu", "URL"), ("lu", "definition"), ("lu", "lexemes"), ("lu", "sentenceCount"),
        ("sentence", "POS"), ("sentence", "GF"), ("sentence", "PT"), ("sentence", "Noun"),
        ("fulltext_sentence", "POS"), ("annotationset", "layer"), ("annotationset", "GF"),
        ("annotationset", "PT"), ("annotationset", "POS"), ("annotationset", "Noun"),
    }


# ------------------------------------------------------------ registry rows oracle


def _raw_elements(data, tag):
    from xml.etree import ElementTree

    return [elt for elt in ElementTree.fromstring(data).iter() if _local(elt.tag) == tag]


def test_lu_index_rows_match_raw_xml(data_dir):
    # The fixture's index, and one with a row that has no status.
    for data in raw(data_dir, "luIndex.xml"), _streamed_input("luIndex", "plain"):
        expected = [
            (int(elt.get("ID")), elt.get("name"), int(elt.get("frameID")),
             elt.get("frameName"), elt.get("status", ""))
            for elt in _raw_elements(data, "lu")
        ]
        rows = list(parse_lu_index(data, "luIndex.xml").values())
        assert rows == expected
        assert all(type(row) is tuple and len(row) == len(LU_FIELDS) for row in rows)
    assert len(parse_lu_index(raw(data_dir, "luIndex.xml"), "luIndex.xml")) > 20


# Each table parser: its file, its record tag, and the root of its parity body.
TABLES = [
    (parse_frame_index, "frameIndex.xml", "frame", "frameIndex"),
    (parse_lu_index, "luIndex.xml", "lu", "luIndex"),
    (parse_fulltext_index, "fulltextIndex.xml", "document", "fulltextIndex"),
    (parse_semtypes_file, "semTypes.xml", "semType", "semTypes"),
]


@pytest.mark.parametrize("parse, relpath, tag, root", TABLES, ids=[t[1] for t in TABLES])
def test_table_keys_are_the_raw_ids_in_file_order(data_dir, parse, relpath, tag, root):
    for data in raw(data_dir, relpath), _streamed_input(root, "plain"):
        elts = _raw_elements(data, tag)
        if root == "fulltextIndex":  # only a document in a corpus counts; none nests here
            corpora = _raw_elements(data, "corpus")
            elts = [elt for corpus in corpora for elt in corpus.iter() if _local(elt.tag) == tag]
        ids = [int(elt.get("ID")) for elt in elts]
        table = parse(data, relpath)
        assert type(table) is dict and list(table) == ids and len(ids) > 1
        for key, row in table.items():
            assert (row[0] if type(row) is tuple else row["ID"]) == key


def test_relations_by_frame_match_raw_ids(data_dir, store):
    data = raw(data_dir, "frRelation.xml")
    types, by_frame = parse_relations_file(data, "frRelation.xml", store)
    expected = {}
    for elt in _raw_elements(data, "frameRelation"):
        for frame_id in {int(elt.get("supID")), int(elt.get("subID"))}:
            expected.setdefault(frame_id, []).append(int(elt.get("ID")))
    assert {fid: [rel.resolve().ID for rel in rels] for fid, rels in by_frame.items()} == expected
    # Each entry's ``Lazy`` builds the one record that its type lists too.
    records = [rel for rtype in types for rel in rtype.frameRelations]
    listed = {id(rel.resolve()) for rels in by_frame.values() for rel in rels}
    assert listed == {id(rel) for rel in records} and len(records) > 1


def test_lu_file_checks_its_root_id_against_the_lu_after_its_sentences(data_dir, store):
    frame = parse_frame_file(raw(data_dir, "frame/Revenge.xml"), "x", store)
    other = Record(_type="lu", ID=6068, name="revenge.n", frame=frame)
    data = raw(data_dir, "lu/lu6067.xml")
    with pytest.raises(IntegrityError) as info:
        parse_lu_file(data, "x", other)
    assert str(info.value) == "x: file header carries ID 6067"
    # A label error in the same file comes first, and the file's own LU passes.
    damaged = data.replace(b'feID="3012"', b'feID="1"', 1)
    with pytest.raises(IntegrityError, match="label 'Offender' on layer 'FE' names unknown FE ID 1"):
        parse_lu_file(damaged, "x", other)
    assert parse_lu_file(data, "x", frame.lexUnit["revenge.n"])


def test_fe_relations_match_raw_xml(data_dir, store):
    data = raw(data_dir, "frRelation.xml")
    types = parse_relations_file(data, "frRelation.xml", store)[0]
    rels = [rel for rtype in types for rel in rtype.frameRelations]
    rel_elts = _raw_elements(data, "frameRelation")
    assert [int(elt.get("ID")) for elt in rel_elts] == [rel.ID for rel in rels]
    checked = 0
    for rel_elt, rel in zip(rel_elts, rels):
        assert isinstance(dict.__getitem__(rel, "feRelations"), Lazy)
        ferels = rel.feRelations
        assert rel.feRelations is ferels
        assert isinstance(ferels, list)
        expected = [
            [("ID", int(elt.get("ID"))), ("superFEName", elt.get("superFEName")),
             ("subFEName", elt.get("subFEName")), ("supID", int(elt.get("supID"))),
             ("subID", int(elt.get("subID"))), ("_type", "ferelation")]
            for elt in _children(rel_elt, "FERelation")
        ]
        got = [list(dict.items(ferel))[:6] for ferel in ferels]
        assert got == expected, rel.ID
        for ferel in ferels:
            assert list(ferel) == [
                "ID", "superFEName", "subFEName", "supID", "subID", "_type",
                "frameRelation", "superFE", "subFE",
            ]
            assert dict.__getitem__(ferel, "frameRelation") is rel
            assert isinstance(dict.__getitem__(ferel, "superFE"), Lazy)
            assert isinstance(dict.__getitem__(ferel, "subFE"), Lazy)
            checked += 1
    assert checked == raw(data_dir, "frRelation.xml").count(b"<FERelation ")
    assert checked > 10


# Record attributes that break a rule, one case per rule the readers check:
# (parser, record start tag, exception class, message).  Where a record breaks
# two rules, the first in field order wins, and a duplicate LU ID comes before
# the LU's other attributes.
_LU = '<lu ID="1" name="a.v" frameID="7" frameName="F" status="S"/>'
_FE_REL = '<FERelation ID="3" superFEName="X" subFEName="Y" supID="3" subID="4"/>'
ATTRIBUTE_ERRORS = [
    (_LU.replace(' name="a.v"', ""), ParseError, "<lu> is missing required attribute 'name'"),
    (_LU.replace('ID="1"', 'ID=""'), ParseError, "<lu> attribute 'ID' is not an integer: ''"),
    (_LU.replace('frameID="7"', 'frameID="7x"'), ParseError,
     "<lu> attribute 'frameID' is not an integer: '7x'"),
    (_LU.replace(' frameID="7"', ""), ParseError, "<lu> is missing required attribute 'frameID'"),
    (_LU.replace(' frameName="F"', ""), ParseError,
     "<lu> is missing required attribute 'frameName'"),
    (_LU.replace(' ID="1"', "").replace(' name="a.v"', ""), ParseError,
     "<lu> is missing required attribute 'ID'"),
    (_LU + _LU.replace(' name="a.v"', ""), IntegrityError, "duplicate lexical unit ID 1"),
    (_LU.replace('ID="1"', 'ID="2"') + _LU.replace(' frameName="F"', ""), ParseError,
     "<lu> is missing required attribute 'frameName'"),
    (_FE_REL.replace('ID="3"', 'ID="x"', 1), ParseError,
     "<FERelation> attribute 'ID' is not an integer: 'x'"),
    (_FE_REL.replace(' superFEName="X"', "").replace('subID="4"', 'subID="y"'), ParseError,
     "<FERelation> is missing required attribute 'superFEName'"),
    (_FE_REL.replace(' subFEName="Y"', ""), ParseError,
     "<FERelation> is missing required attribute 'subFEName'"),
    (_FE_REL.replace('supID="3"', 'supID=""'), ParseError,
     "<FERelation> attribute 'supID' is not an integer: ''"),
    (_FE_REL.replace(' subID="4"', ""), ParseError,
     "<FERelation> is missing required attribute 'subID'"),
]


def _attribute_error_doc(records):
    if records.startswith("<lu "):
        return parse_lu_index, "luIndex.xml", f'<luIndex xmlns="{FN}">{records}</luIndex>'
    body = (
        '<frameRelationType ID="5" name="T" superFrameName="P" subFrameName="C">'
        '<frameRelation ID="1" superFrameName="A" subFrameName="B" supID="1" subID="2">'
        f"{records}</frameRelation></frameRelationType>"
    )
    doc = f'<frameRelations xmlns="{FN}">{body}</frameRelations>'
    return parse_relations_file, "frRelation.xml", doc


@pytest.mark.parametrize("records, error, message", ATTRIBUTE_ERRORS)
def test_registry_attribute_errors_keep_their_messages(store, records, error, message):
    parse, source, doc = _attribute_error_doc(records)
    with pytest.raises(error) as info:
        parse(doc.encode(), source, *_links(parse, store))
    assert type(info.value) is error
    assert str(info.value) == f"{source}: {message}"


def test_concurrent_first_reads_of_fe_relations_build_one_list(data_dir, store):
    data = raw(data_dir, "frRelation.xml")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            types = parse_relations_file(data, "frRelation.xml", store)[0]
            rels = [rel for rtype in types for rel in rtype.frameRelations]
            barrier = threading.Barrier(4)
            seen = []

            def read():
                barrier.wait(timeout=10)
                seen.append([rel.feRelations for rel in rels])

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(seen) == 4
            assert any(seen[0])
            for rel, *lists in zip(rels, *seen):
                assert all(ferels is lists[0] for ferels in lists), rel.ID
                assert rel.feRelations is lists[0]
    finally:
        sys.setswitchinterval(interval)


# ------------------------------------------------------------ streamed parsers

FN = "http://framenet.icsi.berkeley.edu"

# Each streamed parser: its source name, its record tag, that record's name
# attribute (or a required one), and a body of two records with IDs 1 and 2.
_SENTENCES = (
    '<sentence ID="1"><text>abc def</text><annotationSet ID="11" luID="3" luName="a.v">'
    '<layer name="Target"><label name="Target" start="4" end="6"/></layer>'
    '</annotationSet></sentence><sentence ID="2"><text>gh</text></sentence>'
)
STREAMED = {
    "frameIndex": (
        parse_frame_index, "frameIndex.xml", "frame", "name",
        '<frame ID="1" name="A"/><frame ID="2" name="B"/>',
    ),
    "luIndex": (
        parse_lu_index, "luIndex.xml", "lu", "name",
        '<lu ID="1" name="a.v" frameID="7" frameName="F" status="S"/>'
        '<lu ID="2" name="b.n" frameID="7" frameName="F"/>',
    ),
    "fulltextIndex": (
        parse_fulltext_index, "fulltextIndex.xml", "document", "name",
        '<corpus ID="9" name="C"><document ID="1" name="A" description="d"/>'
        '<document ID="2" name="B"/></corpus><document ID="3" name="Outside"/>',
    ),
    "frameRelations": (
        parse_relations_file, "frRelation.xml", "frameRelation", "superFrameName",
        '<frameRelationType ID="5" name="T" superFrameName="P" subFrameName="C">'
        '<frameRelation ID="1" superFrameName="A" subFrameName="B" supID="1" subID="2"/>'
        '<frameRelation ID="2" superFrameName="B" subFrameName="A" supID="2" subID="1">'
        '<FERelation ID="3" superFEName="X" subFEName="Y" supID="3" subID="4"/>'
        "</frameRelation></frameRelationType>",
    ),
    "lexUnit": (
        parse_lu_file, "lu/lu9.xml", "sentence", "ID",
        f'<subCorpus name="s">{_SENTENCES}</subCorpus>',
    ),
    "fullTextAnnotation": (
        parse_fulltext_file, "fulltext/D.xml", "sentence", "ID",
        '<header><corpus ID="5" name="C"><document ID="7" name="D"/></corpus></header>'
        + _SENTENCES,
    ),
    "frame": (
        parse_frame_file, "frame/F.xml", "FE", "name",
        '<definition>A &lt;def-root&gt;frame&lt;/def-root&gt;</definition>'
        '<semType ID="5" name="S"/>'
        '<FE ID="1" name="A" coreType="Core"><definition>fe</definition></FE>'
        '<FE ID="2" name="B" coreType="Peripheral"/>'
        '<FEcoreSet><memberFE name="A"/><memberFE name="B"/></FEcoreSet>'
        '<lexUnit ID="3" name="a.v" POS="V"><definition>lu</definition>'
        '<sentenceCount annotated="0" total="0"/><lexeme name="a" POS="V"/></lexUnit>',
    ),
    "semTypes": (
        parse_semtypes_file, "semTypes.xml", "semType", "name",
        '<semType ID="1" name="A" abbrev="a"><definition>first</definition></semType>'
        '<semType ID="2" name="B"><superType supID="1"/></semType>',
    ),
}

# The root attributes each document needs.
_ROOT_ATTRS = {"lexUnit": ' ID="9" name="a.v"', "frame": ' name="F" ID="9"'}


def _links(parse, store):
    """What ``parse`` takes after a file's bytes and name: the store, for a
    file that refers to others, and for the LU file, its LU, ``_ROOT_ATTRS``'s."""
    if parse is parse_lu_file:
        return (_stub(store, 9, "a.v"),)
    return (store,) if parse in (parse_frame_file, parse_fulltext_file, parse_relations_file) else ()


def _streamed_input(root, case):
    """The document bytes of one parity case for the parser of ``root``."""
    _, _, tag, name_attr, body = STREAMED[root]
    first = re.search(rf"<{tag} [^>]*>", body)
    # The whole first record, up to its end tag.
    first_end = first.end() if first.group(0).endswith("/>") else (
        body.index(f"</{tag}>", first.end()) + len(f"</{tag}>"))
    root_attrs = _ROOT_ATTRS.get(root, "")

    def edit_first(pattern, new):
        start = re.sub(pattern, new, first.group(0), count=1)
        return body[: first.start()] + start + body[first.end() :]

    def doc(inner, head="", root_tag=root):
        return f'{head}<{root_tag} xmlns="{FN}"{root_attrs}>{inner}</{root_tag}>'.encode()

    duplicate = body.replace('ID="2"', 'ID="1"')
    if case == "plain":
        return doc(body)
    if case == "truncated":
        return doc(body)[: doc(body).index(b'ID="2"')]
    if case == "empty":
        return b""
    if case == "wrong root":
        return doc(body, root_tag="other")
    if case == "non-integer ID":
        return doc(edit_first(r'ID="1"', 'ID="one"'))
    if case == "missing name":
        return doc(edit_first(rf' {name_attr}="[^"]*"', ""))
    if case == "duplicate ID":
        return doc(duplicate)
    if case == "duplicate ID, then a mismatched tag":
        return doc(duplicate)[:-1] + b"x>"
    if case in ("foo", "shift_jis"):
        return doc(body, head=f"<?xml version='1.0' encoding='{case}'?>")
    if case == "prefixed namespace":
        prefixed = re.sub(r"<(/?)(\w+)", r"<\1x:\2", body)
        return f'<x:{root} xmlns:x="{FN}"{root_attrs}>{prefixed}</x:{root}>'.encode()
    if case == "nested with xml:lang":
        inner = re.sub(rf"<{tag} ", f'<{tag} xml:lang="en" ', body[first.start() : first_end])
        return doc(body[: first.start()] + f'<w xml:lang="en">{inner}</w>' + body[first_end:])
    if case == "records in a wrapper, then again":
        return doc(f"<w>{body}</w>{body}")
    if case == "corpus inside a corpus":
        return doc(f'<corpus ID="8" name="Outer">{body}</corpus>')
    if case == "undefined entity under an external DTD":
        return f'<!DOCTYPE {root} SYSTEM "x.dtd">'.encode() + doc(body + "&e;")
    # Cases for the files with text content.
    text, definition = "<text>abc def</text>", "<definition>fe</definition>"
    if case == "text after the sets":
        moved = body.replace(text, "", 1).replace("</annotationSet>", f"</annotationSet>{text}", 1)
        return doc(moved)
    if case == "no text":
        return doc(body.replace(text, "", 1))
    if case == "text with a child element":
        return doc(body.replace(text, "<text>a<b>bc</b> def</text>", 1))
    if case == "a second text":
        return doc(body.replace(text, f"{text}<text>x</text>", 1))
    if case == "text split by a comment and a CDATA section":
        return doc(body.replace(text, "<text>ab<!-- c -->c<![CDATA[ de]]>f</text>", 1))
    if case == "undefined entity in the text under an external DTD":
        edited = body.replace(text, "<text>abc&e; def</text>", 1).replace(definition, (
            "<definition>f&e;e</definition>"))
        return f'<!DOCTYPE {root} SYSTEM "x.dtd">'.encode() + doc(edited)
    if case == "external entity in the text":
        edited = body.replace(text, "<text>abc&e; def</text>", 1).replace(definition, (
            "<definition>f&e;e</definition>"))
        return f'<!DOCTYPE {root} [<!ENTITY e SYSTEM "x">]>'.encode() + doc(edited)
    if case == "definition with a child element":
        return doc(body.replace(definition, "<definition>f<b>x</b>e</definition>"))
    if case == "memberFE nested below FEcoreSet":
        return doc(body.replace('<memberFE name="B"/>', '<w><memberFE name="Z"/></w>'))
    if case == "memberFE inside a memberFE":
        nested = '<memberFE name="A"><memberFE/></memberFE>'
        return doc(body.replace('<memberFE name="A"/>', nested))
    if case == "missing header/corpus/document":
        return doc(body.replace('<document ID="7" name="D"/>', ""))
    if case == "header after the sentences":
        header = body[: body.index("<sentence ")]
        return doc(body.replace(header, "") + header)
    if case == "second header first":
        return doc('<header><corpus ID="6" name="E"/></header>' + body)
    raise ValueError(case)


def _record_ids(rows):
    """The IDs of what a streamed parser returned: relations for the registry;
    (ID, text) for the sentences of an LU or full-text file, and (ID,
    definition) for a frame's FEs and for semantic types."""
    if isinstance(rows, tuple):
        return [rel.ID for rtype in rows[0] for rel in rtype.frameRelations]
    if isinstance(rows, Record):
        if "sentences" in rows:
            return [(sent.ID, sent.text) for sent in rows.sentences]
        return [(fe.ID, fe.definition) for fe in rows.FE.values()]
    if isinstance(rows, list):
        return [(sent.ID, sent.text) for sub in rows for sent in sub.sentence]
    rows = list(rows.values())
    if rows and "definition" in rows[0]:
        return [(st.ID, st.definition) for st in rows]
    if rows and isinstance(rows[0], tuple):
        return [row[0] for row in rows]
    return [row.ID for row in rows]


# Per record kind, the lazy value that builds records and resolves nothing.
_BUILT_ON_READ = {"framerelationtype": "frameRelations", "framerelation": "feRelations"}


def _plain(value):
    """``value`` with lazy references and back-links left out, for comparison.

    A relation type's relations, a relation's FE mappings and every
    ``Derived`` that is not a ``Lazy`` are read, as building them resolves
    nothing.
    """
    if isinstance(value, Record):
        built = _BUILT_ON_READ.get(dict.get(value, "_type"))
        return {
            key: _plain(value[key] if key == built or isinstance(item, Derived) else item)
            for key, item in dict.items(value)
            if key == built or not isinstance(item, (Lazy, Record))
        }
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, Lazy):  # a relation in the registry's lists by frame
        return _plain(value.resolve())
    return value


# The outcome of each case with the ElementTree parsers these replaced: what
# ``_record_ids`` reads of the records returned, or the exception class and
# message.
_TRUNCATED = "{}: line 1: not well-formed XML (unclosed token: line 1, column {})"
_EMPTY = "{}: line 1: not well-formed XML (no element found: line 1, column 0)"
_MISMATCH = "{}: line 1: not well-formed XML (mismatched tag: line 1, column {})"
_ENTITY = "{}: line 1: not well-formed XML (undefined entity &e;: line 1, column {})"
_FOO = "{}: cannot decode XML (unknown encoding: foo)"
_SJIS = "{}: cannot decode XML (multi-byte encodings are not supported)"
_ROOT = "{}: expected a <{}> document, got <other>"
_PAST_END = "{}: sentence 1: label 'Target' on layer 'Target' spans past the end of the text"
STREAMED_PARITY = {
    ("frameIndex", "plain"): [1, 2],
    ("frameIndex", "truncated"): (ParseError, _TRUNCATED.format("frameIndex.xml", 78)),
    ("frameIndex", "empty"): (ParseError, _EMPTY.format("frameIndex.xml")),
    ("frameIndex", "wrong root"): (ParseError, _ROOT.format("frameIndex.xml", "frameIndex")),
    ("frameIndex", "non-integer ID"): (
        ParseError, "frameIndex.xml: <frame> attribute 'ID' is not an integer: 'one'"),
    ("frameIndex", "missing name"): (
        ParseError, "frameIndex.xml: <frame> is missing required attribute 'name'"),
    ("frameIndex", "duplicate ID"): (IntegrityError, "frameIndex.xml: duplicate frame ID 1"),
    ("frameIndex", "duplicate ID, then a mismatched tag"): (
        ParseError, _MISMATCH.format("frameIndex.xml", 104)),
    ("frameIndex", "foo"): (ParseError, _FOO.format("frameIndex.xml")),
    ("frameIndex", "shift_jis"): (ParseError, _SJIS.format("frameIndex.xml")),
    ("frameIndex", "prefixed namespace"): [1, 2],
    ("frameIndex", "nested with xml:lang"): [1, 2],
    ("frameIndex", "records in a wrapper, then again"): (
        IntegrityError, "frameIndex.xml: duplicate frame ID 1"),
    ("frameIndex", "undefined entity under an external DTD"): (
        ParseError, _ENTITY.format("frameIndex.xml", 138)),
    ("luIndex", "plain"): [1, 2],
    ("luIndex", "truncated"): (ParseError, _TRUNCATED.format("luIndex.xml", 111)),
    ("luIndex", "empty"): (ParseError, _EMPTY.format("luIndex.xml")),
    ("luIndex", "wrong root"): (ParseError, _ROOT.format("luIndex.xml", "luIndex")),
    ("luIndex", "non-integer ID"): (
        ParseError, "luIndex.xml: <lu> attribute 'ID' is not an integer: 'one'"),
    ("luIndex", "missing name"): (
        ParseError, "luIndex.xml: <lu> is missing required attribute 'name'"),
    ("luIndex", "duplicate ID"): (IntegrityError, "luIndex.xml: duplicate lexical unit ID 1"),
    ("luIndex", "duplicate ID, then a mismatched tag"): (
        ParseError, _MISMATCH.format("luIndex.xml", 162)),
    ("luIndex", "foo"): (ParseError, _FOO.format("luIndex.xml")),
    ("luIndex", "shift_jis"): (ParseError, _SJIS.format("luIndex.xml")),
    ("luIndex", "prefixed namespace"): [1, 2],
    ("luIndex", "nested with xml:lang"): [1, 2],
    ("luIndex", "records in a wrapper, then again"): (
        IntegrityError, "luIndex.xml: duplicate lexical unit ID 1"),
    ("luIndex", "undefined entity under an external DTD"): (
        ParseError, _ENTITY.format("luIndex.xml", 193)),
    ("fulltextIndex", "plain"): [1, 2],
    ("fulltextIndex", "truncated"): (ParseError, _TRUNCATED.format("fulltextIndex.xml", 124)),
    ("fulltextIndex", "empty"): (ParseError, _EMPTY.format("fulltextIndex.xml")),
    ("fulltextIndex", "wrong root"): (
        ParseError, _ROOT.format("fulltextIndex.xml", "fulltextIndex")),
    ("fulltextIndex", "non-integer ID"): (
        ParseError, "fulltextIndex.xml: <document> attribute 'ID' is not an integer: 'one'"),
    ("fulltextIndex", "missing name"): (
        ParseError, "fulltextIndex.xml: <document> is missing required attribute 'name'"),
    ("fulltextIndex", "duplicate ID"): (
        IntegrityError, "fulltextIndex.xml: duplicate document ID 1"),
    ("fulltextIndex", "duplicate ID, then a mismatched tag"): (
        ParseError, _MISMATCH.format("fulltextIndex.xml", 195)),
    ("fulltextIndex", "foo"): (ParseError, _FOO.format("fulltextIndex.xml")),
    ("fulltextIndex", "shift_jis"): (ParseError, _SJIS.format("fulltextIndex.xml")),
    ("fulltextIndex", "prefixed namespace"): [1, 2],
    ("fulltextIndex", "nested with xml:lang"): [1, 2],
    # Each document belongs to the innermost corpus it lies in: 3 to the
    # outer one, whose documents come first.
    ("fulltextIndex", "corpus inside a corpus"): [3, 1, 2],
    ("fulltextIndex", "records in a wrapper, then again"): (
        IntegrityError, "fulltextIndex.xml: duplicate document ID 1"),
    ("fulltextIndex", "undefined entity under an external DTD"): (
        ParseError, _ENTITY.format("fulltextIndex.xml", 232)),
    ("frameRelations", "plain"): [1, 2],
    ("frameRelations", "truncated"): (ParseError, _TRUNCATED.format("frRelation.xml", 129)),
    ("frameRelations", "empty"): (ParseError, _EMPTY.format("frRelation.xml")),
    ("frameRelations", "wrong root"): (
        ParseError, _ROOT.format("frRelation.xml", "frameRelations")),
    ("frameRelations", "non-integer ID"): (
        ParseError, "frRelation.xml: <frameRelation> attribute 'ID' is not an integer: 'one'"),
    ("frameRelations", "missing name"): (
        ParseError,
        "frRelation.xml: "
        "<frameRelation> is missing required attribute 'superFrameName'",
    ),
    ("frameRelations", "duplicate ID"): [1, 1],
    ("frameRelations", "duplicate ID, then a mismatched tag"): (
        ParseError, _MISMATCH.format("frRelation.xml", 394)),
    ("frameRelations", "foo"): (ParseError, _FOO.format("frRelation.xml")),
    ("frameRelations", "shift_jis"): (ParseError, _SJIS.format("frRelation.xml")),
    ("frameRelations", "prefixed namespace"): [1, 2],
    ("frameRelations", "nested with xml:lang"): [2],
    ("frameRelations", "records in a wrapper, then again"): [1, 2],
    ("frameRelations", "undefined entity under an external DTD"): (
        ParseError, _ENTITY.format("frRelation.xml", 432)),
    # The files with text content, which the tree parsers read until the
    # streamed reader replaced them too.
    ("lexUnit", "plain"): [(1, "abc def"), (2, "gh")],
    ("lexUnit", "truncated"): (ParseError, _TRUNCATED.format("lu/lu9.xml", 267)),
    ("lexUnit", "empty"): (ParseError, _EMPTY.format("lu/lu9.xml")),
    ("lexUnit", "wrong root"): (ParseError, _ROOT.format("lu/lu9.xml", "lexUnit")),
    ("lexUnit", "non-integer ID"): (
        ParseError, "lu/lu9.xml: <sentence> attribute 'ID' is not an integer: 'one'"),
    ("lexUnit", "missing name"): (
        ParseError, "lu/lu9.xml: <sentence> is missing required attribute 'ID'"),
    ("lexUnit", "duplicate ID"): [(1, "abc def"), (1, "gh")],
    ("lexUnit", "duplicate ID, then a mismatched tag"): (
        ParseError, _MISMATCH.format("lu/lu9.xml", 324)),
    ("lexUnit", "foo"): (ParseError, _FOO.format("lu/lu9.xml")),
    ("lexUnit", "shift_jis"): (ParseError, _SJIS.format("lu/lu9.xml")),
    ("lexUnit", "prefixed namespace"): [(1, "abc def"), (2, "gh")],
    ("lexUnit", "nested with xml:lang"): [(2, "gh")],
    ("lexUnit", "records in a wrapper, then again"): [(1, "abc def"), (2, "gh")],
    ("lexUnit", "undefined entity under an external DTD"): (
        ParseError, _ENTITY.format("lu/lu9.xml", 355)),
    ("lexUnit", "text after the sets"): [(1, "abc def"), (2, "gh")],
    ("lexUnit", "no text"): (ParseError, "lu/lu9.xml: sentence 1 has no <text> element"),
    ("lexUnit", "text with a child element"): (IntegrityError, _PAST_END.format("lu/lu9.xml")),
    ("lexUnit", "a second text"): [(1, "abc def"), (2, "gh")],
    ("lexUnit", "text split by a comment and a CDATA section"): [(1, "abc def"), (2, "gh")],
    ("lexUnit", "undefined entity in the text under an external DTD"): (
        ParseError, _ENTITY.format("lu/lu9.xml", 148)),
    ("lexUnit", "external entity in the text"): (ParseError, _ENTITY.format("lu/lu9.xml", 158)),
    ("fullTextAnnotation", "plain"): [(1, "abc def"), (2, "gh")],
    ("fullTextAnnotation", "truncated"): (ParseError, _TRUNCATED.format("fulltext/D.xml", 317)),
    ("fullTextAnnotation", "empty"): (ParseError, _EMPTY.format("fulltext/D.xml")),
    ("fullTextAnnotation", "wrong root"): (
        ParseError, _ROOT.format("fulltext/D.xml", "fullTextAnnotation")),
    ("fullTextAnnotation", "non-integer ID"): (
        ParseError, "fulltext/D.xml: <sentence> attribute 'ID' is not an integer: 'one'"),
    ("fullTextAnnotation", "missing name"): (
        ParseError, "fulltext/D.xml: <sentence> is missing required attribute 'ID'"),
    ("fullTextAnnotation", "duplicate ID"): [(1, "abc def"), (1, "gh")],
    ("fullTextAnnotation", "duplicate ID, then a mismatched tag"): (
        ParseError, _MISMATCH.format("fulltext/D.xml", 362)),
    ("fullTextAnnotation", "foo"): (ParseError, _FOO.format("fulltext/D.xml")),
    ("fullTextAnnotation", "shift_jis"): (ParseError, _SJIS.format("fulltext/D.xml")),
    ("fullTextAnnotation", "prefixed namespace"): [(1, "abc def"), (2, "gh")],
    ("fullTextAnnotation", "nested with xml:lang"): [(2, "gh")],
    ("fullTextAnnotation", "records in a wrapper, then again"): [(1, "abc def"), (2, "gh")],
    ("fullTextAnnotation", "undefined entity under an external DTD"): (
        ParseError, _ENTITY.format("fulltext/D.xml", 404)),
    ("fullTextAnnotation", "text after the sets"): [(1, "abc def"), (2, "gh")],
    ("fullTextAnnotation", "no text"): (
        ParseError, "fulltext/D.xml: sentence 1 has no <text> element"),
    ("fullTextAnnotation", "text with a child element"): (
        IntegrityError, _PAST_END.format("fulltext/D.xml")),
    ("fullTextAnnotation", "a second text"): [(1, "abc def"), (2, "gh")],
    ("fullTextAnnotation", "text split by a comment and a CDATA section"):
        [(1, "abc def"), (2, "gh")],
    ("fullTextAnnotation", "undefined entity in the text under an external DTD"): (
        ParseError, _ENTITY.format("fulltext/D.xml", 209)),
    ("fullTextAnnotation", "external entity in the text"): (
        ParseError, _ENTITY.format("fulltext/D.xml", 219)),
    ("fullTextAnnotation", "missing header/corpus/document"): (
        ParseError, "fulltext/D.xml: missing header/corpus/document element"),
    ("fullTextAnnotation", "header after the sentences"): [(1, "abc def"), (2, "gh")],
    ("fullTextAnnotation", "second header first"): (
        ParseError, "fulltext/D.xml: missing header/corpus/document element"),
    ("frame", "plain"): [(1, "fe"), (2, "")],
    ("frame", "truncated"): (ParseError, _TRUNCATED.format("frame/F.xml", 224)),
    ("frame", "empty"): (ParseError, _EMPTY.format("frame/F.xml")),
    ("frame", "wrong root"): (ParseError, _ROOT.format("frame/F.xml", "frame")),
    ("frame", "non-integer ID"): (
        ParseError, "frame/F.xml: <FE> attribute 'ID' is not an integer: 'one'"),
    ("frame", "missing name"): (
        ParseError, "frame/F.xml: <FE> is missing required attribute 'name'"),
    ("frame", "duplicate ID"): (
        IntegrityError, "frame/F.xml: duplicate frame element 'B' (1) in frame 'F'"),
    ("frame", "duplicate ID, then a mismatched tag"): (
        ParseError, _MISMATCH.format("frame/F.xml", 470)),
    ("frame", "foo"): (ParseError, _FOO.format("frame/F.xml")),
    ("frame", "shift_jis"): (ParseError, _SJIS.format("frame/F.xml")),
    ("frame", "prefixed namespace"): [(1, "fe"), (2, "")],
    ("frame", "nested with xml:lang"): (
        IntegrityError, "frame/F.xml: core set of frame 'F' names unknown FE 'A'"),
    ("frame", "records in a wrapper, then again"): [(1, "fe"), (2, "")],
    ("frame", "undefined entity under an external DTD"): (
        ParseError, _ENTITY.format("frame/F.xml", 499)),
    ("frame", "definition with a child element"): [(1, "f"), (2, "")],
    ("frame", "memberFE nested below FEcoreSet"): (
        IntegrityError, "frame/F.xml: core set of frame 'F' names unknown FE 'Z'"),
    ("frame", "memberFE inside a memberFE"): (
        ParseError, "frame/F.xml: <memberFE> is missing required attribute 'name'"),
    ("frame", "undefined entity in the text under an external DTD"): (
        ParseError, _ENTITY.format("frame/F.xml", 236)),
    ("frame", "external entity in the text"): (ParseError, _ENTITY.format("frame/F.xml", 246)),
    ("semTypes", "plain"): [(1, "first"), (2, "")],
    ("semTypes", "truncated"): (ParseError, _TRUNCATED.format("semTypes.xml", 128)),
    ("semTypes", "empty"): (ParseError, _EMPTY.format("semTypes.xml")),
    ("semTypes", "wrong root"): (ParseError, _ROOT.format("semTypes.xml", "semTypes")),
    ("semTypes", "non-integer ID"): (
        ParseError, "semTypes.xml: <semType> attribute 'ID' is not an integer: 'one'"),
    ("semTypes", "missing name"): (
        ParseError, "semTypes.xml: <semType> is missing required attribute 'name'"),
    ("semTypes", "duplicate ID"): (IntegrityError, "semTypes.xml: duplicate semantic type ID 1"),
    ("semTypes", "duplicate ID, then a mismatched tag"): (
        ParseError, _MISMATCH.format("semTypes.xml", 187)),
    ("semTypes", "foo"): (ParseError, _FOO.format("semTypes.xml")),
    ("semTypes", "shift_jis"): (ParseError, _SJIS.format("semTypes.xml")),
    ("semTypes", "prefixed namespace"): [(1, "first"), (2, "")],
    ("semTypes", "nested with xml:lang"): (
        IntegrityError, "semTypes.xml: semantic type 2 names unknown parent 1"),
    ("semTypes", "records in a wrapper, then again"): [(1, "first"), (2, "")],
    ("semTypes", "undefined entity under an external DTD"): (
        ParseError, _ENTITY.format("semTypes.xml", 219)),
}


@pytest.mark.parametrize("root, case", sorted(STREAMED_PARITY))
def test_streamed_parsers_match_the_tree_parsers(store, root, case):
    parse, source = STREAMED[root][:2]
    links = _links(parse, store)
    data = _streamed_input(root, case)
    expected = STREAMED_PARITY[root, case]
    if isinstance(expected, list):
        rows = parse(data, source, *links)
        assert _record_ids(rows) == expected
        if case == "prefixed namespace":
            assert _plain(rows) == _plain(parse(_streamed_input(root, "plain"), source, *links))
    else:
        with pytest.raises(expected[0]) as info:
            parse(data, source, *links)
        assert type(info.value) is expected[0]
        assert str(info.value) == expected[1]


def _with_foreign_attributes(markup):
    """``markup`` with a foreign ``o:name`` after each attribute ``name``,
    holding another value."""
    return re.sub(r' (\w+)="([^"]*)"', r' \1="\2" o:\1="9\2"', markup)


@pytest.mark.parametrize("root", sorted(STREAMED))
def test_namespace_qualified_attributes_are_not_the_formats(store, root):
    parse, source, tag = STREAMED[root][:3]
    body, root_attrs = STREAMED[root][4], _ROOT_ATTRS.get(root, "")
    links = _links(parse, store)
    plain = _plain(parse(_streamed_input(root, "plain"), source, *links))

    def doc(inner, attrs=root_attrs, prefix=""):
        head = f'{prefix}{root} xmlns="{FN}" xmlns:x="{FN}" xmlns:o="urn:other"{attrs}'
        return f"<{head}>{inner}</{prefix}{root}>".encode()

    # A foreign attribute beside each real one is ignored, with element names
    # plain or prefixed.
    foreign, foreign_attrs = _with_foreign_attributes(body), _with_foreign_attributes(root_attrs)
    assert _plain(parse(doc(foreign, foreign_attrs), source, *links)) == plain
    prefixed = re.sub(r"<(/?)(\w+)", r"<\1x:\2", foreign)
    assert _plain(parse(doc(prefixed, foreign_attrs, "x:"), source, *links)) == plain
    # An ID written only as a foreign one is missing.
    first = re.search(rf"<{tag} [^>]*>", body)
    qualified = first.group(0).replace(' ID="', ' o:ID="')
    damaged = body[: first.start()] + qualified + body[first.end() :]
    with pytest.raises(ParseError) as info:
        parse(doc(damaged), source, *links)
    assert type(info.value) is ParseError
    assert str(info.value) == f"{source}: <{tag}> is missing required attribute 'ID'"
