import gc
import shutil
import sys
import threading
import xml.etree.ElementTree as ET

import pytest

from framelex import Record, Store, open_lexicon
from framelex.errors import LookupFailure


def test_relation_types_registry(lexicon):
    types = lexicon.frame_relation_types()
    assert [t.name for t in types] == ["Inheritance", "Subframe", "Perspective_on"]
    inh = types[0]
    assert (inh.superFrameName, inh.subFrameName) == ("Parent", "Child")
    assert len(inh.frameRelations) == 3


def test_all_relations(lexicon):
    rels = lexicon.frame_relations()
    assert len(rels) == 4
    assert {r.ID for r in rels} == {802, 803, 810, 820}


def test_relations_for_one_frame_either_side(lexicon):
    ids = {r.ID for r in lexicon.frame_relations(frame="Event")}
    assert ids == {802, 803, 820}
    assert {r.ID for r in lexicon.frame_relations(frame=347)} == {810}


def test_relations_frame_pair(lexicon):
    rels = lexicon.frame_relations(frame="Rewards_and_punishments", frame2="Revenge")
    assert [r.ID for r in rels] == [810]
    # pair order does not matter
    rels = lexicon.frame_relations(frame="Revenge", frame2="Rewards_and_punishments")
    assert [r.ID for r in rels] == [810]


def test_relations_by_frame_name_read_no_frame_file(lexicon):
    rels = lexicon.frame_relations(frame="Rewards_and_punishments", frame2="Revenge")
    assert [r.ID for r in rels] == [810]
    assert lexicon.store.fileAccessLog == ["frameIndex.xml", "frRelation.xml"]
    assert lexicon.frame_relations(frame="344", frame2="347") == rels
    with pytest.raises(LookupFailure, match="^no frame named 'Nope'$"):
        lexicon.frame_relations(frame="Revenge", frame2="Nope")
    with pytest.raises(LookupFailure, match="^no frame with ID 99999$"):
        lexicon.frame_relations(frame="Revenge", frame2=99999)
    assert lexicon.store.fileAccessLog == ["frameIndex.xml", "frRelation.xml"]


def test_unknown_frame2_fails_before_the_registry_loads(lexicon):
    with pytest.raises(LookupFailure, match="^no frame named 'Nope'$"):
        lexicon.frame_relations(frame=347, frame2="Nope")
    assert lexicon.store.fileAccessLog == ["frameIndex.xml"]


def test_relations_frame2_requires_frame(lexicon):
    with pytest.raises(ValueError):
        lexicon.frame_relations(frame2="Revenge")


def test_relations_type_filter(lexicon):
    rels = lexicon.frame_relations(type="Subframe")
    assert [r.ID for r in rels] == [820]
    assert lexicon.frame_relations(frame="Revenge", type="Subframe") == []
    with pytest.raises(LookupFailure):
        lexicon.frame_relations(type="NoSuchType")


def test_relation_type_given_by_record_or_name(lexicon):
    rtype = lexicon.frame_relation_types()[0]
    rels = lexicon.frame_relations(type=rtype)
    assert [r.ID for r in rels] == [r.ID for r in lexicon.frame_relations(type=rtype.name)]
    assert len(rels) == 3


def test_relation_type_given_by_id_or_decimal_string(lexicon):
    rtype = lexicon.frame_relation_types()[1]
    want = [r.ID for r in lexicon.frame_relations(type=rtype)]
    assert want == [820]
    assert [r.ID for r in lexicon.frame_relations(type=rtype.ID)] == want
    assert [r.ID for r in lexicon.frame_relations(type=str(rtype.ID))] == want


def test_relation_record_shape(lexicon):
    rel = lexicon.frame_relations(frame="Revenge")[0]
    assert rel.superFrameName == "Rewards_and_punishments"
    assert rel.subFrameName == "Revenge"
    assert rel.type.name == "Inheritance"
    assert rel.superFrame.ID == 344
    assert rel.subFrame.ID == 347


def test_fe_relations_bundle(lexicon):
    fe_rels = lexicon.fe_relations()
    assert len(fe_rels) == 13
    pair = next(
        fr for fr in fe_rels
        if fr.superFEName == "Agent" and fr.subFEName == "Avenger"
    )
    assert pair.frameRelation.ID == 810
    assert pair.superFE.ID == 2501
    assert pair.subFE.ID == 3009


def test_frame_record_relations_attribute(lexicon):
    frame = lexicon.frame("Revenge")
    assert [r.ID for r in frame.frameRelations] == [810]


def test_semtype_forest(lexicon):
    sts = lexicon.semtypes()
    assert len(sts) == 10
    roots = [st for st in sts if st.superType is None]
    assert {st.name for st in roots} == {"Physical_entity", "Abstract_entity"}
    sentient = lexicon.semtype("Sentient")
    assert sentient.superType.name == "Animate_being"
    assert lexicon.semtype(5) is sentient
    assert lexicon.semtype("sent") is sentient
    with pytest.raises(LookupFailure):
        lexicon.semtype("X")


def test_semtype_inherits_chain(lexicon):
    assert lexicon.semtype_inherits("Sentient", "Sentient")
    assert lexicon.semtype_inherits("Sentient", "Animate_being")
    assert lexicon.semtype_inherits("Sentient", "Physical_entity")
    assert not lexicon.semtype_inherits("Physical_entity", "Sentient")
    assert not lexicon.semtype_inherits("Sentient", "Abstract_entity")
    assert not lexicon.semtype_inherits("Time", "Locale")


def test_propagation_fills_and_counts(lexicon):
    revenge = lexicon.frame("Revenge")
    assert revenge.FE["Avenger"].semType is None
    added = lexicon.propagate_semtypes()
    assert added == 4
    assert revenge.FE["Avenger"].semType.name == "Sentient"
    assert revenge.FE["Time"].semType.name == "Time"
    assert revenge.FE["Place"].semType.name == "Locale"
    rp = lexicon.frame("Rewards_and_punishments")
    assert rp.FE["Place"].semType.name == "Locale"


def test_propagation_is_idempotent(lexicon):
    assert lexicon.propagate_semtypes() == 4
    assert lexicon.propagate_semtypes() == 0
    assert lexicon.propagate_semtypes() == 0


def test_propagation_never_overwrites(lexicon):
    revenge = lexicon.frame("Revenge")
    aware = lexicon.frame("Becoming_aware")
    before = {
        ("Revenge", "Degree"): revenge.FE["Degree"].semType.ID,
        ("Becoming_aware", "Place"): aware.FE["Place"].semType.ID,
    }
    lexicon.propagate_semtypes()
    # both FEs already disagreed with their parent FE; the local value stays
    assert revenge.FE["Degree"].semType.ID == before[("Revenge", "Degree")] == 54
    assert aware.FE["Place"].semType.ID == before[("Becoming_aware", "Place")] == 210


def test_propagation_is_monotone(lexicon):
    def snapshot():
        state = {}
        for frame in lexicon.frames():
            for fe in frame.FE.values():
                st = fe.semType
                state[(frame.ID, fe.ID)] = None if st is None else st.ID
        return state

    before = snapshot()
    lexicon.propagate_semtypes()
    after = snapshot()
    for key, value in before.items():
        if value is not None:
            assert after[key] == value
    assert sum(v is not None for v in after.values()) >= sum(
        v is not None for v in before.values()
    )


def _raw_relations(path):
    """(relation ID, supID, subID) in registry file order, via ElementTree alone."""
    return [
        (int(elt.get("ID")), int(elt.get("supID")), int(elt.get("subID")))
        for elt in ET.parse(path).getroot().iter()
        if elt.tag.split("}")[-1] == "frameRelation"
    ]


def test_relations_involving_each_frame_match_the_registry(data_dir, tmp_path):
    clone = tmp_path / "corpus"
    shutil.copytree(data_dir, clone)
    path = clone / "frRelation.xml"
    body = path.read_text()
    old = 'subFrameName="Becoming_aware" supID="5" subID="2003"'
    assert old in body
    # Relation 803 becomes one between Event and itself.
    path.write_text(body.replace(old, 'subFrameName="Event" supID="5" subID="5"'))
    for corpus in (data_dir, clone):
        store = Store(corpus)
        raw = _raw_relations(corpus / "frRelation.xml")
        for fid, _ in store.frame_index():
            got = [rel.ID for rel in store.frame_relations_involving(fid)]
            assert got == [rid for rid, sup, sub in raw if fid in (sup, sub)], (corpus, fid)
    assert [rel.ID for rel in store.frame_relations_involving(5)] == [802, 803, 820]
    assert store.frame_relations_involving(2003) == []


def test_concurrent_first_touch_of_relations_builds_one_record_each(data_dir):
    """A frame's relations, its types' relations and a frame-filtered query,
    all first read together, hold the identical records."""
    reads = [
        lambda lex: lex.frame(347).frameRelations,
        lambda lex: [
            rel for rtype in lex.frame_relation_types() for rel in rtype.frameRelations
            if 347 in (rel.supID, rel.subID)
        ],
        lambda lex: lex.frame_relations(frame=347),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            lex = open_lexicon(data_dir)
            results = []
            barrier = threading.Barrier(6)

            def work(read):
                barrier.wait()
                results.append(read(lex))

            threads = [threading.Thread(target=work, args=(reads[i % 3],)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 6
            assert [rel.ID for rel in results[0]] == [810]
            for rels in results:
                assert all(a is b for a, b in zip(rels, results[0], strict=True))
            assert lex.store.fileAccessLog.count("frRelation.xml") == 1
    finally:
        sys.setswitchinterval(interval)


def test_showing_a_frame_builds_only_its_relation_records(data_dir):
    lex = open_lexicon(data_dir)
    assert [rel.ID for rel in lex.frame(347).frameRelations] == [810]
    types = lex.frame_relation_types()
    gc.collect()
    live = [
        obj for obj in gc.get_objects()
        if type(obj) is Record and dict.get(obj, "_type") == "framerelation"
        and any(dict.__getitem__(obj, "type") is rtype for rtype in types)
    ]
    assert [rel.ID for rel in live] == [810]
    assert sum(len(rtype.frameRelations) for rtype in types) > 1
