import ast
import inspect
import io
import os
import random
import re
import shutil
import sys
import textwrap
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from framelex import (
    Store,
    open_lexicon,
    open_store,
    render_frame,
    xmlio,
)
from framelex.cli import run
from framelex.errors import (
    CorpusError,
    FramelexError,
    IntegrityError,
    LookupFailure,
    ParseError,
)
from framelex.records import Lazy, Record, attribute_names

from test_fixture import _tool


def test_open_reads_only_the_frame_index(store):
    assert store.fileAccessLog == ["frameIndex.xml"]


def test_every_file_is_parsed_through_the_xmlio_module(data_dir, monkeypatch):
    # The benchmark's tracer and the collector tests replace parsers on the
    # module, so the store must look each one up there when it parses.
    parsed = []
    for name in [name for name in vars(xmlio) if name.startswith("parse_")]:

        def wrapper(*args, _name=name, _parse=getattr(xmlio, name), **kwargs):
            parsed.append(_name)
            return _parse(*args, **kwargs)

        monkeypatch.setattr(xmlio, name, wrapper)
    lex = open_lexicon(data_dir)
    lex.lu(6067).exemplars
    lex.doc(23802)
    lex.frame_relation_types()
    lex.semtypes()
    assert parsed == [
        "parse_frame_index", "parse_lu_index", "parse_frame_file", "parse_lu_file",
        "parse_fulltext_index", "parse_fulltext_file", "parse_relations_file",
        "parse_semtypes_file",
    ]
    assert len(lex.store.fileAccessLog) == len(parsed)


def test_open_store_without_location(monkeypatch):
    monkeypatch.delenv("FRAMELEX_DATA", raising=False)
    with pytest.raises(CorpusError):
        open_store()


def test_open_store_env_var(monkeypatch, data_dir):
    monkeypatch.setenv("FRAMELEX_DATA", str(data_dir))
    st = open_store()
    assert st.fileAccessLog == ["frameIndex.xml"]


def test_missing_directory():
    with pytest.raises(CorpusError):
        Store("/no/such/place")


def test_log_paths_are_relative_posix(store):
    store.get_frame("Revenge")
    store.get_document(23802)
    for path in store.fileAccessLog:
        assert not path.startswith("/")
        assert "\\" not in path


def test_frame_load_is_cached_by_identity(store):
    a = store.get_frame("Revenge")
    b = store.get_frame(347)
    assert a is b
    assert store.fileAccessLog.count("frame/Revenge.xml") == 1


def test_frame_lookup_failures(store):
    with pytest.raises(LookupFailure):
        store.get_frame("NoSuchFrame")
    with pytest.raises(LookupFailure):
        store.get_frame(424242)


def test_lu_routes_through_owning_frame(store):
    lu = store.get_lu(6067)
    assert lu.name == "revenge.n"
    assert lu.frame.name == "Revenge"
    assert "frame/Revenge.xml" in store.fileAccessLog
    # the exemplar file is not touched until the sentences are
    assert "lu/lu6067.xml" not in store.fileAccessLog
    lu.exemplars
    assert "lu/lu6067.xml" in store.fileAccessLog


def test_lu_is_same_object_via_frame_and_store(store):
    frame = store.get_frame("Revenge")
    assert store.get_lu(6067) is frame.lexUnit["revenge.n"]


def test_exemplar_sentences_link_back(store):
    lu = store.get_lu(6067)
    sent = lu.exemplars[20]
    assert sent.ID == 929548
    assert sent.LU is lu
    assert sent.frame is lu.frame
    aset = sent.annotationSet[1]
    assert aset.LU is lu
    assert aset.sent is sent


def test_zero_count_lu_needs_no_file(store):
    frame = store.get_frame("Revenge")
    lu = frame.lexUnit["avenge.v"]
    before = list(store.fileAccessLog)
    assert lu.exemplars == []
    assert store.fileAccessLog == before


# The file and annotation set that name LU 18997, which the index lacks.
SEEKING_SET = ("fulltext/Tiger_Of_San_Pedro.xml", Record(_type="annotationset", ID=41485284))


def test_problem_lu_stub(store):
    stub = store.resolve_annotation_lu(18997, "look.v", 2001, "Seeking", *SEEKING_SET)
    assert stub.status == "Problem"
    assert stub.name == "look.v"
    assert stub.POS == "V"
    assert store.resolve_annotation_lu(18997, "look.v", 2001, "Seeking", *SEEKING_SET) is stub
    assert stub.frame.name == "Seeking"


def test_problem_lu_lists_the_attributes_of_a_frame_lu(store):
    stub = store.get_frame("Revenge").lexUnit["revenge.n"]
    problem = store.resolve_annotation_lu(18997, "look.v", 2001, "Seeking", *SEEKING_SET)
    assert problem.status == "Problem"
    assert attribute_names(problem) == attribute_names(stub)


def test_document_primary_path(store):
    doc = store.get_document(23802)
    assert doc.name == "Tiger_Of_San_Pedro"
    assert "fulltext/Tiger_Of_San_Pedro.xml" in store.fileAccessLog


def test_document_corpus_prefixed_fallback_path(store):
    doc = store.get_document(23803)
    assert doc.name == "Wisteria_Report"
    assert "fulltext/Sherlock__Wisteria_Report.xml" in store.fileAccessLog
    assert "fulltext/Wisteria_Report.xml" not in store.fileAccessLog


def test_document_lookup_failure(store):
    with pytest.raises(LookupFailure):
        store.get_document(99999)


# Records of another kind and other unhashable keys, which no table can hold.
LU = Record(_type="lu", ID=6067, name="revenge.n")
DOC = Record(_type="document", ID=23802, name="Tiger_Of_San_Pedro")
KEYS_NAMING_NOTHING = [
    "frame(LU)", "frame(DOC)", "frame([347])", "doc([23802])", "doc(DOC)",
    "semtype([1])", "lus(frame=LU)", "fes(frame=[347])", "frame_relations(frame=LU)",
    "frame_relations(frame=347, frame2=DOC)", "doc('abc')",
]


@pytest.mark.parametrize("call", KEYS_NAMING_NOTHING)
def test_key_that_names_nothing_is_a_lookup_failure(data_dir, call):
    """A key of no kind the call takes fails as a lookup, reading no file past
    the frame index."""
    lexicon = open_lexicon(data_dir)
    with pytest.raises(LookupFailure):
        eval("lexicon." + call, {"lexicon": lexicon, "LU": LU, "DOC": DOC})
    assert lexicon.store.fileAccessLog == ["frameIndex.xml"]


def test_semtypes_sorted_by_id(store):
    ids = [st.ID for st in store.semtypes()]
    assert ids == sorted(ids)
    assert store.fileAccessLog.count("semTypes.xml") == 1


def test_semtype_lookup_forms(store):
    st = store.get_semtype(5)
    assert st.name == "Sentient"
    assert store.get_semtype("Sentient") is st
    assert store.get_semtype("sent") is st
    with pytest.raises(LookupFailure):
        store.get_semtype("NoSuchType")


def test_log_replays_deterministically(data_dir):
    def run():
        st = Store(data_dir)
        frame = st.get_frame("Revenge")
        frame.lexUnit["revenge.n"].exemplars
        st.get_document(23802)
        st.semtypes()
        st.frame_relations_involving(347)
        return list(st.fileAccessLog)

    assert run() == run()


def test_concurrent_loads_parse_once(data_dir):
    st = Store(data_dir)
    results = []
    barrier = threading.Barrier(8)

    def work():
        barrier.wait()
        results.append(st.get_frame("Revenge"))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(map(id, results))) == 1
    assert st.fileAccessLog.count("frame/Revenge.xml") == 1


def test_concurrent_first_touch_of_exemplars_reads_once(data_dir):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            lex = open_lexicon(data_dir)
            results = []
            barrier = threading.Barrier(4)

            def work():
                barrier.wait()
                results.append(lex.lu(6067).exemplars)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 4
            assert all(r is results[0] for r in results)
            assert lex.store.fileAccessLog.count("lu/lu6067.xml") == 1
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_first_scans_build_one_column(data_dir):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            lex = open_lexicon(data_dir)
            results = []
            barrier = threading.Barrier(4)

            def work():
                barrier.wait()
                results.append((lex.store.fe_column(), lex.store.lu_column(), lex.fes("^T")))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 4
            for fe_column, lu_column, fes in results:
                assert fe_column is results[0][0] and lu_column is results[0][1]
                assert all(a is b for a, b in zip(fes, results[0][2], strict=True))
            log = lex.store.fileAccessLog
            assert len(set(log)) == len(log)
    finally:
        sys.setswitchinterval(interval)


def _record_digest(corpus):
    return _tool("record_digest").digest(corpus)


# Entities that a touch resolves but does not walk, unless it starts at them.
_OTHER_ENTITIES = frozenset(("frame", "fe", "lu", "semtype", "document", "framerelationtype"))


def _touch(roots):
    """Force every lazy value of ``roots`` and of the records they hold; an
    entity they refer to is resolved, not walked."""
    rooted = {id(root) for root in roots}
    stack, seen = list(roots), set()
    while stack:
        value = stack.pop()
        if isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, dict) and id(value) not in seen:
            if dict.get(value, "_type") in _OTHER_ENTITIES and id(value) not in rooted:
                continue
            seen.add(id(value))
            stack.extend(map(value.__getitem__, value))


def _index_ids(root, relpath, tag):
    """The IDs of the ``<tag>`` elements of an index file, by ElementTree."""
    elements = ET.parse(root / relpath).iter()
    return [int(e.get("ID")) for e in elements if e.tag.rsplit("}", 1)[-1] == tag]


def _entities(root):
    """(kind, key) of every frame, LU and document, the relation types and the
    semantic types of the corpus at ``root``."""
    entities = [("frame", key) for key in _index_ids(root, "frameIndex.xml", "frame")]
    entities += [("lu", key) for key in _index_ids(root, "luIndex.xml", "lu")]
    entities += [("document", key) for key in _index_ids(root, "fulltextIndex.xml", "document")]
    return entities + [("relation types", None), ("semantic types", None)]


def _entity_roots(store, kind, key):
    """The records that a touch of an entity walks: a frame with its FEs and
    LUs, so its relations' FE mappings; an LU, so its exemplars with their
    layers; a document, so each set's LU, frame and layers."""
    if kind == "frame":
        frame = store.get_frame(key)
        return [frame, *frame.FE.values(), *frame.lexUnit.values()]
    if kind == "lu":
        return [store.get_lu(key)]
    if kind == "document":
        return [store.get_document(key)]
    return store.relation_types() if kind == "relation types" else store.semtypes()


def _touch_in_threads(root, seed, count):
    """A store on ``root`` after ``count`` threads each touched every entity,
    in an order of their own, and each thread's {entity: (error type, message)}."""
    store = Store(root)
    entities = _entities(Path(root))
    barrier = threading.Barrier(count)
    failures = [None] * count

    def work(k):
        order = list(entities)
        random.Random(seed * count + k).shuffle(order)
        failed = failures[k] = {}
        barrier.wait()
        for entity in order:
            try:
                _touch(_entity_roots(store, *entity))
            except Exception as exc:  # any error, to compare across threads
                failed[entity] = (type(exc), str(exc))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not any(thread.is_alive() for thread in threads)
    return store, failures


def _corpus_files(root):
    return sorted(path.relative_to(root).as_posix() for path in root.rglob("*.xml"))


def _assert_threads_build_the_sequential_records(root, seeds, count):
    sequential = _record_digest(root)
    for seed in seeds:
        store, failures = _touch_in_threads(root, seed, count)
        assert failures == [{}] * count
        log = list(store.fileAccessLog)
        assert sorted(log) == _corpus_files(root)
        assert _record_digest(store) == sequential
        assert store.fileAccessLog == log


def test_any_touch_order_under_threads_builds_the_sequential_records(data_dir):
    """Eight threads touch every entity, each in its own order: the records
    are those of one sequential walk, and every file is read once."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _assert_threads_build_the_sequential_records(data_dir, range(3), 8)
    finally:
        sys.setswitchinterval(interval)
    assert _record_digest(data_dir)[1] == 210
    assert len(_corpus_files(data_dir)) == 20


@pytest.mark.skipif(
    not os.environ.get("FRAMELEX_DATA"),
    reason="needs a full-size corpus in FRAMELEX_DATA",
)
def test_full_corpus_under_threads_builds_the_sequential_records():
    _assert_threads_build_the_sequential_records(Path(os.environ["FRAMELEX_DATA"]), [1], 8)


def _store_lines(fn):
    """The lines of ``fn`` that store a value, assignments and
    ``dict.__setitem__`` calls, and the subset that lies in an ``except``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    first = fn.__code__.co_firstlineno - 1
    stores = {
        first + node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        or isinstance(node, ast.Expr) and "dict.__setitem__(" in ast.unparse(node)
    }
    handled = {
        first + node.lineno
        for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
        for node in ast.walk(handler) if isinstance(node, ast.stmt)
    }
    return stores, stores & handled


def _interrupt_at(code, line, load):
    """Run ``load()`` with one ``KeyboardInterrupt`` raised where ``code``
    first reaches ``line``; whether it was raised."""
    fired = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line and not fired:
            fired.append(line)
            raise KeyboardInterrupt
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        load()
    except KeyboardInterrupt:
        assert fired
    finally:
        sys.settrace(None)
    return bool(fired)


# The first load of each kind of entity, on a fresh lexicon.
_LOADS = {
    "frame": lambda lex: lex.frame("Revenge"),
    "frame LU stubs": lambda lex: lex.frame("Revenge").lexUnit,
    "frame definition": lambda lex: lex.frame("Revenge").definition,
    "LU exemplars": lambda lex: lex.lu(6067).exemplars,
    "exemplars of a built LU stub": lambda lex: lex.lu(6067).exemplars,
    "document": lambda lex: lex.doc(23802),
    "relation registry": lambda lex: lex.frame_relation_types(),
    "semantic types": lambda lex: lex.semtypes(),
}

# What a load's lexicon reads before it, with no interrupt: the LU stub, so
# that the first value built in the load is the stub's ``exemplars``.
_READ_BEFORE = {"exemplars of a built LU stub": lambda lex: lex.lu(6067)}


def test_a_load_interrupted_anywhere_in_a_resolve_builds_whole_on_the_next_read(data_dir):
    """A ``KeyboardInterrupt`` at each line of ``Lazy.resolve`` and
    ``Record._derive`` that stores a value, in the first load of each kind:
    a later walk of the same lexicon builds the records of a clean one, and
    reads every file."""
    clean = _record_digest(data_dir)
    targets = [Lazy.resolve, Record._derive]
    fired = set()
    for fn in targets:
        lines, handled = _store_lines(fn)
        assert lines - handled
        for line in sorted(lines):
            for kind, load in _LOADS.items():
                lex = open_lexicon(data_dir)
                if kind in _READ_BEFORE:
                    _READ_BEFORE[kind](lex)
                if _interrupt_at(fn.__code__, line, lambda: load(lex)):
                    fired.add((fn, line))
                assert _record_digest(lex.store) == clean, (fn.__qualname__, line, kind)
                assert set(lex.store.fileAccessLog) == set(_corpus_files(data_dir))
        # A clean load stores through every line but those of a failed build.
        assert {line for target, line in fired if target is fn} == lines - handled


def test_files_that_fail_to_load_fail_alike_in_every_thread(data_dir, tmp_path):
    """With a corrupt frame, LU and document file, every thread gets the same
    error from each entity, and each corrupt file is read once."""
    clone = tmp_path / "corpus"
    shutil.copytree(data_dir, clone)
    corrupt = ["frame/Omen.xml", "lu/lu5331.xml", "fulltext/Sherlock__Wisteria_Report.xml"]
    for relpath in corrupt:
        (clone / relpath).write_bytes((clone / relpath).read_bytes()[:200])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(3):
            store, failures = _touch_in_threads(clone, seed, 8)
            assert failures == failures[:1] * 8
            assert {type_ for type_, _ in failures[0].values()} == {ParseError}
            messages = {message.split(":")[0] for _, message in failures[0].values()}
            assert messages == set(corrupt)
            log = store.fileAccessLog
            assert len(set(log)) == len(log)
            assert set(corrupt) <= set(log)
    finally:
        sys.setswitchinterval(interval)


def _corrupt_copy(data_dir, tmp_path, relpath, old, new):
    clone = tmp_path / "corpus"
    shutil.copytree(data_dir, clone)
    target = clone / relpath
    body = target.read_text()
    assert old in body
    target.write_text(body.replace(old, new))
    return clone


def test_index_header_id_mismatch(data_dir, tmp_path):
    clone = _corrupt_copy(
        data_dir, tmp_path, "frame/Revenge.xml", 'name="Revenge" ID="347"', 'name="Revenge" ID="348"'
    )
    st = Store(clone)
    with pytest.raises(IntegrityError):
        st.get_frame("Revenge")


def test_lu_file_header_id_mismatch(data_dir, tmp_path):
    clone = _corrupt_copy(
        data_dir, tmp_path, "lu/lu6067.xml", ' ID="6067" frame=', ' ID="6068" frame='
    )
    with pytest.raises(IntegrityError, match=r"^lu/lu6067\.xml: file header carries ID 6068$"):
        open_lexicon(clone).lu(6067).exemplars
    assert _cli_code(clone, "lu", "6067") == 3


def test_fulltext_corpus_id_mismatch(data_dir, tmp_path):
    relpath = "fulltext/Tiger_Of_San_Pedro.xml"
    old = re.search(r'<corpus [^>]*>', (data_dir / relpath).read_text()).group(0)
    clone = _corrupt_copy(data_dir, tmp_path, relpath, old, re.sub(r'ID="\d+"', 'ID="99999"', old))
    where = r"fulltext/Tiger_Of_San_Pedro\.xml: file header carries corpus ID 99999$"
    with pytest.raises(IntegrityError, match=where):
        Store(clone).get_document(23802)
    assert _cli_code(clone, "doc", "23802") == 3


@pytest.mark.parametrize(
    "old, label",
    [
        ('name="Offender" feID="3012"', "Offender"),
        ('name="Injury" itype="INI" feID="3018"', "Injury"),
    ],
)
def test_label_naming_unknown_fe_is_an_integrity_error(data_dir, tmp_path, old, label):
    clone = _corrupt_copy(data_dir, tmp_path, "lu/lu6067.xml", old, old[:-5] + '99999"')
    where = (
        rf"lu/lu6067\.xml: sentence 929501: label '{label}' on layer 'FE' "
        "names unknown FE ID 99999"
    )
    with pytest.raises(IntegrityError, match=where):
        open_lexicon(clone).lu(6067).exemplars
    assert _cli_code(clone, "lu", "6067") == 3


def _cli_code(clone, *args):
    out, err = io.StringIO(), io.StringIO()
    return run(["--data", str(clone), *args], stdin=io.StringIO(), stdout=out, stderr=err)


@pytest.mark.parametrize("damage", ["deleted", "directory"])
def test_missing_file_is_a_corpus_error(data_dir, tmp_path, damage):
    clone = tmp_path / "corpus"
    shutil.copytree(data_dir, clone)
    target = clone / "frame" / "Omen.xml"
    target.unlink()
    if damage == "directory":
        target.mkdir()
    st = Store(clone)
    with pytest.raises(CorpusError):
        st.get_frame("Omen")
    assert _cli_code(clone, "frame", "Omen") == 3


def _cut(body):
    return body[:200]


def _renumber(body):
    return body.replace('name="Revenge" ID="347"', 'name="Revenge" ID="348"')


@pytest.mark.parametrize(
    "relpath, damage, touch, error, reads",
    [
        ("frame/Revenge.xml", _cut, lambda lex: lex.frame("Revenge"), ParseError, []),
        ("frame/Revenge.xml", _renumber, lambda lex: lex.frame("Revenge"), IntegrityError, []),
        ("lu/lu6067.xml", _cut, lambda lex: lex.lu(6067).exemplars, ParseError,
         ["luIndex.xml", "frame/Revenge.xml"]),
    ],
    ids=["cut frame file", "renumbered frame file", "cut exemplar file"],
)
def test_a_file_that_fails_to_load_is_read_once(
    data_dir, tmp_path, relpath, damage, touch, error, reads
):
    """Every touch after the first fails with the same error and reads nothing."""
    body = (data_dir / relpath).read_text()
    lex = open_lexicon(_corrupt_copy(data_dir, tmp_path, relpath, body, damage(body)))
    failures = []
    for _ in range(3):
        with pytest.raises(error) as info:
            touch(lex)
        failures.append((type(info.value), str(info.value)))
    assert failures == failures[:1] * 3
    assert lex.store.fileAccessLog == ["frameIndex.xml", *reads, relpath]


# Per file: the library call and a CLI command that parse it.
_TOUCH = {
    "frameIndex.xml": (lambda lex: lex, ("frames",)),
    "luIndex.xml": (lambda lex: lex.store.lu_index(), ("lus",)),
    "fulltextIndex.xml": (lambda lex: lex.store.doc_index(), ("docs",)),
    "frRelation.xml": (lambda lex: lex.frame_relation_types(), ("relation-types",)),
    "semTypes.xml": (lambda lex: lex.semtypes(), ("semtypes",)),
    "lu/lu6067.xml": (lambda lex: lex.lu(6067).exemplars, ("lu", "6067")),
    "frame/Revenge.xml": (lambda lex: lex.frame("Revenge"), ("frame", "Revenge")),
    "fulltext/Tiger_Of_San_Pedro.xml": (lambda lex: lex.doc(23802), ("doc", "23802")),
}


@pytest.mark.parametrize(
    "attr, relpath",
    [
        ("aPos", "lu/lu6067.xml"),
        ("sentNo", "lu/lu6067.xml"),
        ("paragNo", "fulltext/Tiger_Of_San_Pedro.xml"),
        ("rank", "lu/lu6067.xml"),
        ("annotated", "frame/Revenge.xml"),
        ("total", "frame/Revenge.xml"),
        ("order", "frame/Revenge.xml"),
        ("start", "lu/lu6067.xml"),
        ("feID", "lu/lu6067.xml"),
        ("luID", "fulltext/Tiger_Of_San_Pedro.xml"),
        ("ID", "luIndex.xml"),
        ("frameID", "luIndex.xml"),
        ("end", "lu/lu6067.xml"),
        ("supID", "frRelation.xml"),
        ("subID", "frRelation.xml"),
        ("corpID", "fulltext/Tiger_Of_San_Pedro.xml"),
        ("docID", "fulltext/Tiger_Of_San_Pedro.xml"),
    ],
)
def test_malformed_integer_is_a_parse_error(data_dir, tmp_path, attr, relpath):
    touch, command = _TOUCH[relpath]
    value = re.search(rf'\b{attr}="\d+"', (data_dir / relpath).read_text()).group(0)
    clone = _corrupt_copy(data_dir, tmp_path, relpath, value, value[:-1] + 'x"')
    with pytest.raises(ParseError):
        touch(open_lexicon(clone))
    assert _cli_code(clone, *command) == 3


@pytest.mark.parametrize(
    "old, new, error, message",
    [
        (
            ' name="avenge.v" ID="6056"', ' ID="6056"',
            ParseError, "<lexUnit> is missing required attribute 'name'",
        ),
        (
            ' name="avenge.v" ID="6056"', ' name="avenge.v"',
            ParseError, "<lexUnit> is missing required attribute 'ID'",
        ),
        (
            ' name="avenge.v" ID="6056"', ' name="avenge.v" ID="60x6"',
            ParseError, "<lexUnit> attribute 'ID' is not an integer: '60x6'",
        ),
        (
            ' name="avenger.n" ID="6057"', ' name="avenge.v" ID="6057"',
            IntegrityError, "duplicate lexical unit 'avenge.v' in frame 'Revenge'",
        ),
        (' name="avenge" />', " />", ParseError, "<lexeme> is missing required attribute 'name'"),
        (
            '<lexeme order="1"', '<lexeme order="x"',
            ParseError, "<lexeme> attribute 'order' is not an integer: 'x'",
        ),
        (
            'annotated="21" total="21"', 'annotated="22" total="21"',
            IntegrityError, "lexical unit 'revenge.n' has annotated > total sentence count",
        ),
    ],
    ids=[
        "lexUnit without name", "lexUnit without ID", "lexUnit ID not an integer",
        "duplicate lexUnit name", "lexeme without name", "lexeme order not an integer",
        "annotated above total",
    ],
)
def test_lu_stub_faults_fail_the_frame_load(data_dir, tmp_path, old, new, error, message):
    """LU stubs, their lexemes and their sentence counts become records on
    first read, but are checked when their frame loads, in the library and
    in the CLI: the load itself fails, with no read of ``lexUnit``."""
    clone = _corrupt_copy(data_dir, tmp_path, "frame/Revenge.xml", old, new)
    with pytest.raises(error) as info:
        open_lexicon(clone).frame("Revenge")
    assert str(info.value) == f"frame/Revenge.xml: {message}"
    err = io.StringIO()
    argv = ["--data", str(clone), "frame", "Revenge"]
    assert run(argv, stdin=io.StringIO(), stdout=io.StringIO(), stderr=err) == 3
    assert err.getvalue() == f"framelex: data: frame/Revenge.xml: {message}\n"


@pytest.mark.parametrize("encoding", ["foo", "shift_jis"])
def test_unusable_encoding_declaration_is_a_parse_error(data_dir, tmp_path, encoding):
    clone = _corrupt_copy(
        data_dir, tmp_path, "frame/Revenge.xml", "encoding='UTF-8'", f"encoding='{encoding}'"
    )
    with pytest.raises(ParseError):
        open_lexicon(clone).frame("Revenge")
    assert _cli_code(clone, "frame", "Revenge") == 3


def test_lu_index_row_naming_unknown_frame(data_dir, tmp_path):
    clone = _corrupt_copy(
        data_dir, tmp_path, "luIndex.xml",
        '<lu ID="6067" name="revenge.n" frameID="347"',
        '<lu ID="6067" name="revenge.n" frameID="99999"',
    )
    with pytest.raises(IntegrityError, match=r"luIndex\.xml: entry 6067 .*99999"):
        Store(clone).get_lu(6067)
    assert _cli_code(clone, "lu", "6067") == 3


# The attribute spots, element spans and record walk of ``tools/edit_sweep.py``.
_SWEEP = _tool("edit_sweep")
_ATTRIBUTE, _elements, _walk_file = _SWEEP.ATTRIBUTE, _SWEEP.elements, _SWEEP.walk_file


def test_seeded_attribute_mutations_keep_the_error_contract(data_dir, tmp_path):
    """About 6 attributes per fixture file, each set to "x" or "-1" in turn.

    ``stats`` touches every file, so each mutation is parsed; whatever the
    damage, the CLI must exit 0 (the attribute is not read or still valid)
    or 3 (data error), and no exception may escape.
    """
    clone = tmp_path / "corpus"
    shutil.copytree(data_dir, clone)
    rng = random.Random(17)
    runs = 0
    for path in sorted(clone.rglob("*.xml")):
        body = path.read_text()
        spots = [
            m for m in _ATTRIBUTE.finditer(body)
            if not m.group(1).startswith(("xmlns", "xsi"))
        ]
        for spot in rng.sample(spots, min(6, len(spots))):
            value = rng.choice(["x", "-1"])
            mutated = f' {spot.group(1)}="{value}"'
            path.write_text(body[: spot.start()] + mutated + body[spot.end() :])
            code = _cli_code(clone, "stats")
            where = f"{path.relative_to(clone)} offset {spot.start()}: {mutated.strip()}"
            assert code in (0, 3), where
            runs += 1
        path.write_text(body)
    assert runs == 120


def _mutation(body, rng):
    """``body`` with one element deleted, duplicated or swapped with a sibling,
    or one ID attribute set to 99999; and what was done."""
    kind = rng.choice(["delete", "duplicate", "swap", "ID"])
    spans = _elements(body)
    start, end, parent = rng.choice(spans)
    if kind == "delete":
        return body[:start] + body[end:], f"{kind} at {start}"
    if kind == "duplicate":
        return body[:end] + body[start:end] + body[end:], f"{kind} at {start}"
    if kind == "swap":
        (a, b, _), (c, d, _) = sorted([[start, end, parent], rng.choice(
            [span for span in spans if span[2] == parent])])
        if c < b:  # the same element
            return body, "nothing"
        return body[:a] + body[c:d] + body[b:c] + body[a:b] + body[d:], f"{kind} at {a}, {c}"
    spot = rng.choice(list(re.finditer(r'\b(\w*ID)="[^"]*"', body)))
    return body[: spot.start()] + f'{spot.group(1)}="99999"' + body[spot.end() :], spot.group(0)


def test_seeded_structural_mutations_keep_the_error_contract(data_dir, tmp_path):
    """20 mutations of each fixture file: an element deleted, duplicated or
    swapped, or an ID set to 99999.  Each time, every record read from the
    file is walked and rendered; only a FramelexError may escape."""
    clone = tmp_path / "corpus"
    shutil.copytree(data_dir, clone)
    rng = random.Random(11)
    runs = 0
    for path in sorted(clone.rglob("*.xml")):
        relpath = path.relative_to(clone).as_posix()
        body = path.read_text()
        for _ in range(20):
            mutated, what = _mutation(body, rng)
            path.write_text(mutated)
            try:
                _walk_file(open_lexicon(clone), relpath)
            except FramelexError:
                pass
            except Exception as exc:
                pytest.fail(f"{relpath}, {what}: {type(exc).__name__}: {exc}")
            runs += 1
        path.write_text(body)
    assert runs == 400


@pytest.mark.parametrize("relpath", sorted(_TOUCH))
def test_truncated_streamed_files_keep_the_error_contract(data_dir, tmp_path, relpath):
    """The file cut at 50 evenly spaced offsets before its last ``>``: each
    cut is malformed, so the library raises a FramelexError, and ``stats``
    and the file's own CLI command exit 3."""
    clone = tmp_path / "corpus"
    shutil.copytree(data_dir, clone)
    path = clone / relpath
    body = path.read_bytes()
    end = body.rindex(b">")
    touch, command = _TOUCH[relpath]
    for k in range(50):
        cut = k * end // 50
        path.write_bytes(body[:cut])
        with pytest.raises(FramelexError):
            touch(open_lexicon(clone))
        assert _cli_code(clone, "stats") == 3, f"{relpath} cut at byte {cut}"
        assert _cli_code(clone, *command) == 3, f"{relpath} cut at byte {cut}"


def test_negative_label_start_is_an_integrity_error(data_dir, tmp_path):
    clone = tmp_path / "corpus"
    shutil.copytree(data_dir, clone)
    target = clone / "lu" / "lu6067.xml"
    body = target.read_text()
    first = re.search(r'<label [^>]*name="Target" />', body).group(0)
    assert 'start="10"' in first
    target.write_text(body.replace(first, first.replace('start="10"', 'start="-3"'), 1))
    with pytest.raises(IntegrityError, match="negative start"):
        open_lexicon(clone).lu(6067).exemplars
    assert _cli_code(clone, "lu", "6067") == 3


def test_relation_naming_unknown_frame_is_an_integrity_error(data_dir, tmp_path):
    clone = _corrupt_copy(
        data_dir, tmp_path, "frRelation.xml",
        'supID="344" subID="347">', 'supID="344" subID="99999">',
    )
    lex = open_lexicon(clone)
    rel = next(rel for rel in lex.frame_relations() if rel.ID == 810)
    assert rel.superFrame.name == "Rewards_and_punishments"
    with pytest.raises(IntegrityError, match=r"frRelation\.xml: framerelation 810 .*99999"):
        rel.subFrame
    with pytest.raises(LookupFailure):
        lex.frame(99999)
    assert _cli_code(clone, "propagate-semtypes") == 3
    assert _cli_code(clone, "frame", "99999") == 1


def test_fulltext_set_naming_unknown_frame_is_an_integrity_error(data_dir, tmp_path):
    clone = _corrupt_copy(
        data_dir, tmp_path, "fulltext/Tiger_Of_San_Pedro.xml",
        'luID="2280" luName="begin.v" frameID="2002"',
        'luID="99998" luName="begin.v" frameID="99999"',
    )
    lex = open_lexicon(clone)
    aset = next(
        aset for sent in lex.doc(23802).sentences for aset in sent.annotationSet
        if aset.ID == 41485272
    )
    where = r"fulltext/Tiger_Of_San_Pedro\.xml: annotationset 41485272 .*99999"
    with pytest.raises(IntegrityError, match=where):
        aset.frame
    assert aset.LU.status == "Problem"
    with pytest.raises(IntegrityError, match=where):
        aset.LU.frame
    with pytest.raises(LookupFailure):
        lex.frame(99999)


def _relation_810(lex):
    return next(rel for rel in lex.frame_relations() if rel.ID == 810)


def _set_41485272(lex):
    sets = (aset for sent in lex.doc(23802).sentences for aset in sent.annotationSet)
    return next(aset for aset in sets if aset.ID == 41485272)


@pytest.mark.parametrize(
    "relpath, old, new, message, touch",
    [
        ("frRelation.xml", 'superFrameName="Rewards_and_punishments"', 'superFrameName="Revenge"',
         "framerelation 810 names frame 'Revenge' by another ID (344)",
         lambda lex: _relation_810(lex).superFrame),
        ("frRelation.xml", 'subFrameName="Revenge" supID="344"', 'subFrameName="Nope" supID="344"',
         "framerelation 810 names frame 'Nope' by another ID (347)",
         lambda lex: _relation_810(lex).subFrame),
        ("fulltext/Tiger_Of_San_Pedro.xml",
         'frameName="Process_start" status="MANUAL" ID="41485272"',
         'frameName="Seeking" status="MANUAL" ID="41485272"',
         "annotationset 41485272 names frame 'Seeking' by another ID (2002)",
         lambda lex: _set_41485272(lex).frame),
    ],
)
def test_frame_name_beside_another_frame_id_is_an_integrity_error(
    data_dir, tmp_path, relpath, old, new, message, touch
):
    clone = _corrupt_copy(data_dir, tmp_path, relpath, old, new)
    lex = open_lexicon(clone)
    for _ in range(2):
        with pytest.raises(IntegrityError) as info:
            touch(lex)
        assert str(info.value) == f"{relpath}: {message}"
    assert lex.store.fileAccessLog.count(relpath) == 1


@pytest.mark.parametrize(
    "relpath, old, referrer, read, argv",
    [
        ("frame/Revenge.xml", '<semType name="Non_sentient" ID="54" />',
         "fe 3010 names unknown semantic type 'Non_sentient'",
         lambda lex: lex.frame("Revenge").FE["Degree"].semType, ["propagate-semtypes"]),
        ("frame/Event.xml", '<semType name="Abstract_entity" ID="200" />',
         "frame 5 names unknown semantic type 'Abstract_entity'",
         lambda lex: lex.frame("Event").semTypes, ["frame", "Event"]),
        # IDs that disagree with the record holding them, under the same contract.
        ("lu/lu6067.xml", 'frame="Revenge" frameID="347"',
         "lu 6067 of frame 'Revenge' (347) names another frame",
         lambda lex: lex.lu(6067).exemplars, ["lu", "6067"]),
        ("fulltext/Tiger_Of_San_Pedro.xml", '<sentence corpID="195"',
         "fulltext_sentence 4148526 of corpus 195 names another corpus",
         lambda lex: lex.doc(23802), ["doc", "23802"]),
        ("fulltext/Tiger_Of_San_Pedro.xml", 'docID="23802" sentNo="1"',
         "fulltext_sentence 4148526 of document 23802 names another document",
         lambda lex: lex.doc(23802), ["doc", "23802"]),
        ("frRelation.xml", 'supID="2501" subID',
         "relation 810 names FE 'Agent' in frame 'Rewards_and_punishments' by another ID",
         lambda lex: [mapping.superFE for mapping in lex.fe_relations()], ["propagate-semtypes"]),
        ("frRelation.xml", 'subID="3009" />',
         "relation 810 names FE 'Avenger' in frame 'Revenge' by another ID",
         lambda lex: [mapping.subFE for mapping in lex.fe_relations()], ["propagate-semtypes"]),
    ],
)
def test_semtype_naming_unknown_type_is_an_integrity_error(
    data_dir, tmp_path, relpath, old, referrer, read, argv
):
    clone = _corrupt_copy(data_dir, tmp_path, relpath, old, re.sub(r'ID="\d+"', 'ID="99954"', old))
    where = re.escape(f"{relpath}: {referrer} (99954)")
    with pytest.raises(IntegrityError, match=where):
        read(open_lexicon(clone))
    err = io.StringIO()
    code = run(["--data", str(clone), *argv], stdin=io.StringIO(), stdout=io.StringIO(),
               stderr=err)
    assert code == 3
    assert re.search(where, err.getvalue())


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('name="revenge.n" ID="6067"', 'name="zzz.n" ID="6067"',
         "lu 6067 of frame 'Revenge' (347) names another lexical unit ('zzz.n')"),
        ('frame="Revenge" frameID="347"', 'frame="Nope" frameID="347"',
         "lu 6067 of frame 'Revenge' (347) names another frame ('Nope')"),
    ],
)
def test_lu_file_root_naming_another_lu_is_an_integrity_error(
    data_dir, tmp_path, old, new, message
):
    clone = _corrupt_copy(data_dir, tmp_path, "lu/lu6067.xml", old, new)
    with pytest.raises(IntegrityError) as info:
        open_lexicon(clone).lu(6067).exemplars
    assert str(info.value) == f"lu/lu6067.xml: {message}"
    err = io.StringIO()
    code = run(["--data", str(clone), "lu", "6067"], stdin=io.StringIO(), stdout=io.StringIO(),
               stderr=err)
    assert (code, err.getvalue()) == (3, f"framelex: data: lu/lu6067.xml: {message}\n")
