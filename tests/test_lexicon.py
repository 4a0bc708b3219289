import random
import re
import shutil
import xml.etree.ElementTree as ET

import pytest

from framelex import open_lexicon
from framelex.errors import LookupFailure, PatternError
from framelex.records import Derived, Lazy, Record


def index_pairs(data_dir, filename, tag):
    """(ID, name) rows read directly off an index file, bypassing the library."""
    root = ET.parse(data_dir / filename).getroot()
    pairs = []
    for elt in root.iter():
        if elt.tag.split("}")[-1] == tag:
            pairs.append((int(elt.get("ID")), elt.get("name")))
    return pairs


def test_frame_by_name_id_and_string_id(lexicon):
    by_name = lexicon.frame("Revenge")
    assert by_name.ID == 347
    assert lexicon.frame(347) is by_name


def test_frame_unknown_name(lexicon):
    with pytest.raises(LookupFailure):
        lexicon.frame("NoSuchFrame")


def test_frames_all_sorted_by_id(lexicon, data_dir):
    frames = lexicon.frames()
    ids = [f.ID for f in frames]
    assert ids == sorted(ids)
    assert len(frames) == len(index_pairs(data_dir, "frameIndex.xml", "frame"))


def test_frames_pattern_against_raw_index(lexicon, data_dir):
    pairs = index_pairs(data_dir, "frameIndex.xml", "frame")
    for pattern in ["(?i)creat", "^R", "e$", "_", "Revenge", "nomatch^"]:
        got = {f.ID for f in lexicon.frames(pattern)}
        rx = re.compile(pattern)
        want = {fid for fid, name in pairs if rx.search(name)}
        assert got == want, pattern


def test_frames_bad_pattern(lexicon):
    with pytest.raises(PatternError):
        lexicon.frames("(unclosed")


def test_frame_ids_and_names_reads_no_frame_files(lexicon):
    mapping = lexicon.frame_ids_and_names()
    assert mapping[347] == "Revenge"
    assert len(mapping) == 10
    assert lexicon.store.fileAccessLog == ["frameIndex.xml"]


def test_frame_ids_and_names_pattern(lexicon):
    assert lexicon.frame_ids_and_names("(?i)creat") == {
        268: "Cooking_creation",
        1658: "Create_physical_artwork",
    }


def test_lu_by_id(lexicon):
    lu = lexicon.lu(6067)
    assert lu.name == "revenge.n"
    assert lu.frame.name == "Revenge"


def test_lu_unknown_id(lexicon):
    with pytest.raises(LookupFailure):
        lexicon.lu(1)


def test_lu_and_doc_name_a_key_that_is_no_id_by_its_repr(lexicon):
    for lookup, what in (lexicon.lu, "lexical unit"), (lexicon.doc, "full-text document"):
        for key in "", "x y", "abc", 1.5:
            with pytest.raises(LookupFailure) as info:
                lookup(key)
            assert str(info.value) == f"no {what} with ID {key!r}"
    assert lexicon.store.fileAccessLog == ["frameIndex.xml"]


def test_record_and_id_arguments(lexicon):
    frame = lexicon.frame("Revenge")
    lu = lexicon.lu(6067)
    relations = lexicon.frame_relations(frame=347)
    log = list(lexicon.store.fileAccessLog)
    assert lexicon.frame(frame) is frame
    assert lexicon.lu(lu) is lu
    by_record = lexicon.frame_relations(frame=frame)
    assert relations and all(a is b for a, b in zip(by_record, relations, strict=True))
    assert lexicon.store.fileAccessLog == log  # a record argument reads no file
    assert lexicon.lu("6067") is lexicon.lu(6067)
    with pytest.raises(LookupFailure):
        lexicon.lu(6067.0)
    # A record from another lexicon names the record of ``other`` with its ID.
    other = open_lexicon(lexicon.store.root)
    assert other.frame(frame) is other.frame(347)
    own = other.frame_relations(frame=347)
    by_type = other.frame_relations(frame=347, type=relations[0].type)
    assert by_type and all(a is b for a, b in zip(by_type, own, strict=True))
    assert by_type[0] is not relations[0]


def test_lu_record_of_another_lexicon_names_this_lexicons_lu(lexicon, data_dir):
    lu = lexicon.lu(6067)
    # As ``lu(6067)``: the same record, from the same reads.
    by_id, by_record = open_lexicon(data_dir), open_lexicon(data_dir)
    got = by_record.lu(lu)
    assert got is not lu and got is by_record.lu(6067)
    assert by_id.lu(6067) is not lu
    assert by_record.store.fileAccessLog == by_id.store.fileAccessLog == [
        "frameIndex.xml", "luIndex.xml", "frame/Revenge.xml",
    ]
    # A placeholder comes back as is from its own lexicon, before and after
    # its frame is read, and reading nothing; another fails as its ID does.
    sent = lexicon.doc(23802).sentences[2]
    placeholder = next(a for a in sent.annotationSet[1:] if a.luName == "look.v").LU
    assert isinstance(dict.__getitem__(placeholder, "frame"), Lazy)
    log = list(lexicon.store.fileAccessLog)
    assert lexicon.lu(placeholder) is placeholder
    assert lexicon.store.fileAccessLog == log
    assert placeholder.frame.name == "Seeking"
    assert lexicon.lu(placeholder) is placeholder
    with pytest.raises(LookupFailure) as info:
        by_id.lu(placeholder)
    assert str(info.value) == f"no lexical unit with ID {placeholder.ID}"


def test_frame_record_restrictions(lexicon):
    frame = lexicon.frame("Revenge")
    by_record = lexicon.lus(frame=frame)
    assert by_record
    assert by_record == lexicon.lus(frame=frame.ID)
    with pytest.raises(LookupFailure):
        lexicon.frame_relations(frame=99999)


def test_lus_pattern_against_raw_index(lexicon, data_dir):
    pairs = index_pairs(data_dir, "luIndex.xml", "lu")
    for pattern in [r".+en\.v", r"\.n$", "revenge", "^get", "(?i)RE"]:
        got = [lu.ID for lu in lexicon.lus(pattern)]
        rx = re.compile(pattern)
        want = sorted(fid for fid, name in pairs if rx.search(name))
        assert got == want, pattern


def test_lus_loads_only_owning_frames(lexicon):
    lexicon.lus(r"^awaken\.v$")
    frame_reads = [p for p in lexicon.store.fileAccessLog if p.startswith("frame/")]
    assert frame_reads == ["frame/Waking_up.xml"]


def test_lus_frame_restriction(lexicon):
    ids = {lu.ID for lu in lexicon.lus(r"\.v$", frame="Revenge")}
    assert ids == {6056, 6065, 6066, 6075, 10003}
    assert {lu.ID for lu in lexicon.lus(frame=347)} == {
        lu.ID for lu in lexicon.lus(frame="^Revenge$")
    }


def test_frames_by_lemma(lexicon):
    names = [f.name for f in lexicon.frames_by_lemma(r"(?i)^bake")]
    assert names == ["Cooking_creation"]
    assert lexicon.frames_by_lemma(r"^perambulate$") == []


def test_fes_global_and_restricted(lexicon):
    all_time = lexicon.fes("^Time$")
    assert len(all_time) == 7
    assert {fe.name for fe in all_time} == {"Time"}
    only = lexicon.fes("^Time$", frame="Revenge")
    assert [fe.ID for fe in only] == [3021]
    assert only[0].frame.name == "Revenge"


def test_fes_without_pattern_lists_everything(lexicon):
    assert len(lexicon.fes()) == 45


REVENGE_LUS = [6056, 6057, 6058, *range(6065, 6077), 10003, 10124, 10676]
REVENGE_FES = [(347, fe_id) for fe_id in [*range(3009, 3019), 3020, 3021, 3022, 12060]]
REWARDS_FES = [(344, fe_id) for fe_id in range(2501, 2509)]
REVENGE, REWARDS = "frame/Revenge.xml", "frame/Rewards_and_punishments.xml"
TIGER, TIGER_SENTS = "fulltext/Tiger_Of_San_Pedro.xml", [4148526, 4148527, 4148528]


QUERIES = [
    ("lus(r'\\.v$', frame='Revenge')", [6056, 6065, 6066, 6075, 10003],
     ["luIndex.xml", REVENGE]),
    ("lus(frame=347)", REVENGE_LUS, ["luIndex.xml", REVENGE]),
    ("lus(frame='347')", REVENGE_LUS, ["luIndex.xml", REVENGE]),
    ("lus(frame='^Re')", sorted(REVENGE_LUS + [6100, 6101, 6102, 6103]),
     ["luIndex.xml", REVENGE, REWARDS]),
    ("lus(frame='^Nope')", [], []),
    ("lus(frame=99999)", [], []),
    ("lus(frame='99999')", [], []),
    ("fes(frame='^Re')", REWARDS_FES + REVENGE_FES, [REWARDS, REVENGE]),
    ("fes(frame='347')", REVENGE_FES, [REVENGE]),
    ("frame_relations()", [810, 802, 803, 820], ["frRelation.xml"]),
    ("frame_relations(frame=347, frame2='Rewards_and_punishments')", [810], ["frRelation.xml"]),
    ("fe_relations()", [*range(9001, 9009), *range(9101, 9105), 9201], ["frRelation.xml"]),
    ("propagate_semtypes()", 4, ["frRelation.xml", REWARDS, "semTypes.xml", REVENGE,
                                 "frame/Event.xml", "frame/Becoming_aware.xml"]),
    ("doc('23802')", 23802, ["fulltextIndex.xml", "fulltext/Tiger_Of_San_Pedro.xml"]),
    ("semtype('4')", 4, ["semTypes.xml"]),
    ("ft_sents('^T')", TIGER_SENTS, ["fulltextIndex.xml", TIGER]),
    ("ft_sents()", TIGER_SENTS, ["fulltextIndex.xml", TIGER,
                                 "fulltext/Sherlock__Wisteria_Report.xml"]),
]


@pytest.mark.parametrize("call, want, reads", QUERIES, ids=[call for call, _, _ in QUERIES])
def test_query_results_and_reads_on_a_fresh_lexicon(data_dir, call, want, reads):
    """Each call's result, by ID (an FE by (frame ID, FE ID)), and the files
    it reads after the frame index, pinned on the fixture."""
    lexicon = open_lexicon(data_dir)
    got = eval("lexicon." + call)

    def key(record):
        return (record.frame.ID, record.ID) if record.get("_type") == "fe" else record.ID

    if isinstance(got, list):
        got = [key(record) for record in got]
    elif not isinstance(got, int):
        got = key(got)
    assert got == want
    assert lexicon.store.fileAccessLog == ["frameIndex.xml", *reads]


def test_help_summary_mentions_each_operation(lexicon):
    text = lexicon.help_summary()
    for op in ("frame", "frames", "lu", "lus", "fes", "annotations", "semtypes"):
        assert re.search(rf"\b{op}\b", text), op


def test_random_patterns_match_brute_force(lexicon, data_dir):
    frame_pairs = index_pairs(data_dir, "frameIndex.xml", "frame")
    lu_pairs = index_pairs(data_dir, "luIndex.xml", "lu")
    rng = random.Random(991)
    alphabet = "aeinorstv_."
    for _ in range(60):
        core = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        pattern = rng.choice(["", "(?i)"]) + rng.choice(["", "^"]) + re.escape(core)
        rx = re.compile(pattern)
        assert {f.ID for f in lexicon.frames(pattern)} == {
            i for i, n in frame_pairs if rx.search(n)
        }, pattern
        assert {lu.ID for lu in lexicon.lus(pattern)} == {
            i for i, n in lu_pairs if rx.search(n)
        }, pattern


def test_open_lexicon_env(monkeypatch, data_dir):
    monkeypatch.setenv("FRAMELEX_DATA", str(data_dir))
    lex = open_lexicon()
    assert lex.frame("Event").ID == 5


def _local(elt):
    return elt.tag.split("}")[-1]


def _children(elt, tag):
    return [child for child in elt if _local(child) == tag]


def raw_oracle(data_dir):
    """The fixture's tables re-read with ElementTree alone, ID ascending."""
    frames = sorted(index_pairs(data_dir, "frameIndex.xml", "frame"))
    lu_frame = {
        int(elt.get("ID")): int(elt.get("frameID"))
        for elt in ET.parse(data_dir / "luIndex.xml").getroot().iter()
        if _local(elt) == "lu"
    }
    lus = [(lu_id, name, lu_frame[lu_id]) for lu_id, name in sorted(
        index_pairs(data_dir, "luIndex.xml", "lu"))]
    fes, sentence_total = {}, {}
    for fid, name in frames:
        root = ET.parse(data_dir / "frame" / f"{name}.xml").getroot()
        fes[fid] = sorted((int(fe.get("ID")), fe.get("name")) for fe in _children(root, "FE"))
        for lu in _children(root, "lexUnit"):
            total = _children(lu, "sentenceCount")[0].get("total")
            sentence_total[int(lu.get("ID"))] = int(total)
    exemplars = {}
    for lu_id, _, _ in lus:
        path = data_dir / "lu" / f"lu{lu_id}.xml"
        sents = []
        if sentence_total[lu_id]:
            sents = [int(s.get("ID")) for s in ET.parse(path).getroot().iter()
                     if _local(s) == "sentence"]
        exemplars[lu_id] = sorted(sents)
    docs, doc_sents = [], {}
    for corpus in ET.parse(data_dir / "fulltextIndex.xml").getroot():
        for doc in _children(corpus, "document"):
            doc_id, name = int(doc.get("ID")), doc.get("name")
            docs.append((doc_id, name))
            path = data_dir / "fulltext" / f"{name}.xml"
            if not path.exists():
                path = data_dir / "fulltext" / f"{corpus.get('name')}__{name}.xml"
            doc_sents[doc_id] = [int(s.get("ID")) for s in ET.parse(path).getroot().iter()
                                 if _local(s) == "sentence"]
    docs.sort()
    return frames, lus, fes, exemplars, docs, doc_sents


def _reverse_in_place(body, pattern):
    """``body`` with the matches of ``pattern`` in reverse order."""
    spots = list(re.finditer(pattern, body, re.S))
    pieces, at = [], 0
    for spot, other in zip(spots, reversed(spots)):
        pieces += [body[at : spot.start()], other.group(0)]
        at = spot.end()
    return "".join(pieces) + body[at:]


def permuted_copy(data_dir, tmp_path):
    """The fixture with index rows and each frame's FEs in reverse file order,
    and frame Event renamed ``Event(s)``, a name its own pattern does not match."""
    clone = tmp_path / "permuted"
    shutil.copytree(data_dir, clone)
    for name, row in (("frameIndex.xml", "frame"), ("luIndex.xml", "lu"),
                      ("fulltextIndex.xml", "document")):
        path = clone / name
        path.write_text(_reverse_in_place(path.read_text(), rf"<{row} [^>]*/>"))
    assert (clone / "fulltextIndex.xml").read_text().count("<corpus ") == 1
    for path in (clone / "frame").glob("*.xml"):
        path.write_text(_reverse_in_place(path.read_text(), r"<FE .*?</FE>"))
    index = clone / "frameIndex.xml"
    index.write_text(index.read_text().replace('name="Event"', 'name="Event(s)"'))
    event = clone / "frame" / "Event.xml"
    event.rename(clone / "frame" / "Event(s).xml")
    path = clone / "frame" / "Event(s).xml"
    path.write_text(path.read_text().replace('name="Event" ID="5"', 'name="Event(s)" ID="5"'))
    return clone


@pytest.mark.parametrize("corpus", ["fixture", "permuted"])
def test_every_scan_matches_a_raw_xml_oracle_cold_then_warm(data_dir, tmp_path, corpus):
    if corpus == "permuted":
        data_dir = permuted_copy(data_dir, tmp_path)
    frames, lus, fes, exemplars, docs, doc_sents = raw_oracle(data_dir)

    def hit(pattern, name):
        return pattern is None or re.search(pattern, name) is not None

    def restriction(frame):
        if isinstance(frame, int) or frame.isdecimal():
            return {int(frame)}
        return {fid for fid, name in frames if name == frame or hit(frame, name)}

    rng = random.Random(2017)
    pieces = ["e", "re", "a", "in", r"\.v", r"\.n", "_", "T", "ing", "o"]
    patterns = [None] + [
        rng.choice(["", "(?i)"]) + rng.choice(["", "^"]) + rng.choice(pieces)
        + rng.choice(["", "$", ".*e"])
        for _ in range(12)
    ]
    restrictions = ["Revenge", "Event(s)", "^[A-R]", "(?i)ing", 347, "347", 1017, 424242]
    calls, want = [], []
    for pat in patterns:
        calls += [
            (lambda lex, p=pat: lex.frames(p), lambda x: x.ID),
            (lambda lex, p=pat: list(lex.frame_ids_and_names(p).items()), None),
            (lambda lex, p=pat: lex.frames_by_lemma(p), lambda x: x.ID),
            (lambda lex, p=pat: lex.lus(p), lambda x: x.ID),
            (lambda lex, p=pat: lex.fes(p), lambda x: (x.frame.ID, x.ID)),
            (lambda lex, p=pat: lex.exemplars(p), lambda x: x.ID),
            (lambda lex, p=pat: lex.docs(p), lambda x: x.ID),
            (lambda lex, p=pat: lex.ft_sents(p), lambda x: x.ID),
        ]
        lemma_frames = {fid for _, name, fid in lus if hit(pat, name)}
        want += [
            [fid for fid, name in frames if hit(pat, name)],
            [(fid, name) for fid, name in frames if hit(pat, name)],
            [fid for fid, _ in frames if fid in lemma_frames],
            [lu_id for lu_id, name, _ in lus if hit(pat, name)],
            [(fid, fe_id) for fid, _ in frames for fe_id, name in fes[fid] if hit(pat, name)],
            [sid for lu_id, name, _ in lus if hit(pat, name) for sid in exemplars[lu_id]],
            [doc_id for doc_id, name in docs if hit(pat, name)],
            [sid for doc_id, name in docs if hit(pat, name) for sid in doc_sents[doc_id]],
        ]
        for frame in restrictions:
            allowed = restriction(frame)
            calls += [
                (lambda lex, p=pat, f=frame: lex.lus(p, frame=f), lambda x: x.ID),
                (lambda lex, p=pat, f=frame: lex.fes(p, frame=f), lambda x: (x.frame.ID, x.ID)),
            ]
            want += [
                [lu_id for lu_id, name, fid in lus if fid in allowed and hit(pat, name)],
                [(fid, fe_id) for fid, _ in frames if fid in allowed
                 for fe_id, name in fes[fid] if hit(pat, name)],
            ]

    lexicon = open_lexicon(data_dir)
    cold = [call(lexicon) for call, _ in calls]
    for (call, key), got, expected in zip(calls, cold, want):
        assert (got if key is None else [key(x) for x in got]) == expected
    log = list(lexicon.store.fileAccessLog)
    assert len(set(log)) == len(log)
    for (call, _), first in zip(calls, cold):
        again = call(lexicon)
        assert len(again) == len(first)
        assert all(a is b for a, b in zip(again, first) if not isinstance(a, tuple))
        assert all(a[0] is b[0] and a[1] is b[1]
                   for a, b in zip(again, first) if isinstance(a, tuple))
    assert lexicon.store.fileAccessLog == log

    fresh = open_lexicon(data_dir)
    assert [fe.ID for fe in fresh.fes("^Time$", frame="Revenge")] == [3021]
    assert fresh.store.fileAccessLog == ["frameIndex.xml", "frame/Revenge.xml"]


def raw_fulltext_sets(data_dir):
    """The full-text documents' paths, ID ascending, and their frame
    annotation sets as (sentence ID, set ID, LU name or None), sorted."""
    docs, sets = [], []
    for corpus in ET.parse(data_dir / "fulltextIndex.xml").getroot():
        for doc in _children(corpus, "document"):
            relpath = f"fulltext/{doc.get('name')}.xml"
            if not (data_dir / relpath).exists():
                relpath = f"fulltext/{corpus.get('name')}__{doc.get('name')}.xml"
            docs.append((int(doc.get("ID")), relpath))
            for sent in ET.parse(data_dir / relpath).getroot().iter():
                if _local(sent) == "sentence":
                    for aset in _children(sent, "annotationSet")[1:]:
                        sets.append((int(sent.get("ID")), int(aset.get("ID")), aset.get("luName")))
    return [relpath for _, relpath in sorted(docs)], sorted(sets)


@pytest.mark.parametrize("corpus", ["fixture", "permuted"])
def test_fulltext_annotations_match_a_raw_xml_oracle_cold_then_warm(data_dir, tmp_path, corpus):
    if corpus == "permuted":
        data_dir = permuted_copy(data_dir, tmp_path)
    else:
        data_dir = shutil.copytree(data_dir, tmp_path / "fixture")
    # A set with no LU name, which no pattern may match.
    path = data_dir / "fulltext" / "Tiger_Of_San_Pedro.xml"
    path.write_text(re.sub(r'(<annotationSet [^>]*) luName="[^"]*"', r"\1", path.read_text(), 1))
    doc_paths, sets = raw_fulltext_sets(data_dir)
    assert sum(name is None for _, _, name in sets) == 1
    rng = random.Random(1703)
    pieces = ["e", "re", "a", "in", r"\.v", r"\.n", "T", "ing", "o", ""]
    patterns = [None, "", "^ab", "(?i)^ST"] + [
        rng.choice(["", "(?i)"]) + rng.choice(["", "^"]) + rng.choice(pieces)
        + rng.choice(["", "$", ".*e"])
        for _ in range(12)
    ]
    want = [
        [set_id for _, set_id, name in sets
         if pat is None or (name is not None and re.search(pat, name))]
        for pat in patterns
    ]
    assert any(want) and not all(want)

    lexicon = open_lexicon(data_dir)
    cold = [lexicon.annotations(pat, exemplars=False) for pat in patterns]
    assert [[aset.ID for aset in got] for got in cold] == want
    assert lexicon.store.fileAccessLog == ["frameIndex.xml", "fulltextIndex.xml", *doc_paths]
    for pat, first in zip(patterns, cold):
        again = lexicon.annotations(pat, exemplars=False)
        assert len(again) == len(first) and all(a is b for a, b in zip(again, first))
        both = lexicon.annotations(pat)
        assert both[len(both) - len(first):] == first
    log = list(lexicon.store.fileAccessLog)
    assert len(set(log)) == len(log)
    assert [lexicon.annotations(pat, exemplars=False) for pat in patterns] == cold
    assert lexicon.store.fileAccessLog == log


@pytest.mark.parametrize(
    "scan",
    ["frames", "frame_ids_and_names", "frames_by_lemma", "lus", "fes", "exemplars",
     "docs", "ft_sents", "annotations", "lus frame=", "fes frame=", "lus both", "fes both"],
)
def test_bad_pattern_fails_before_any_file_is_read(data_dir, scan):
    """A bad name pattern, or a bad ``frame=`` restriction pattern: one that
    does not compile, or one that is not a string.  As a restriction, 123 is
    an ID and a record names no frame, so neither is a pattern there.  A bad
    name pattern fails before a bad restriction, a pattern or a key that
    names no frame ([347]), in ``lus`` and ``fes`` alike."""
    scan, _, restricted = scan.partition(" ")
    record = Record(_type="lu", ID=6067, name="revenge.n")
    bad = {"": ["(unclosed", 123, b"x", record], "frame=": ["(unclosed", b"x"],
           "both": ["(unclosed", [347]]}[restricted]
    for pattern in bad:
        lexicon = open_lexicon(data_dir)
        with pytest.raises(PatternError) as info:
            if restricted == "both":
                getattr(lexicon, scan)("(", frame=pattern)
            elif restricted:
                getattr(lexicon, scan)("x", frame=pattern)
            else:
                getattr(lexicon, scan)(pattern)
        if restricted == "both":
            assert str(info.value).startswith("bad pattern '(': "), pattern
        assert lexicon.store.fileAccessLog == ["frameIndex.xml"], pattern


def test_sentence_sweep_builds_no_layer_records(lexicon):
    sets = spans = 0
    lazy = {}  # (sentence kind, key): sets holding that key unbuilt, as a raw Derived
    for sent in lexicon.sents():
        for aset in sent.annotationSet:
            # Reading Target and FE must build neither the layer records nor
            # the other views.
            spans += len(aset.get("Target", [])) + len(aset.get("FE", ([],))[0])
            for key in ("layer", "GF", "PT", "POS"):
                if key in aset:
                    assert isinstance(dict.__getitem__(aset, key), Derived), (aset.ID, key)
                    lazy[sent._type, key] = lazy.get((sent._type, key), 0) + 1
            sets += 1
    assert sets > 50 and spans > 50
    assert all(lazy.get((kind, key)) for kind in ("sentence", "fulltext_sentence")
               for key in ("layer", "GF", "PT", "POS"))
