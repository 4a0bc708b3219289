"""The cyclic garbage collector is paused while a file loads, and left as the
load found it.  Every check reads ``gc.isenabled()`` itself, inside a parse
function wrapped here or after the load, never a figure of the library."""

import gc
import shutil
import sys
import threading

import pytest

from framelex import open_lexicon, xmlio
from framelex.errors import ParseError

LUS = (5331, 6067, 7544)
DOCS = (23802, 23803)


@pytest.fixture(autouse=True)
def collector_restored():
    enabled = gc.isenabled()
    interval = sys.getswitchinterval()
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        if enabled:
            gc.enable()
        else:
            gc.disable()


def _record_state(monkeypatch, seen, *names):
    """Wrap each parser ``xmlio.<name>`` to note the collector state it runs in."""
    for name in names:
        parse = getattr(xmlio, name)

        def wrapper(*args, _name=name, _parse=parse, **kwargs):
            seen.append((_name, gc.isenabled()))
            return _parse(*args, **kwargs)

        monkeypatch.setattr(xmlio, name, wrapper)


def test_collector_is_paused_inside_every_file_parse(data_dir, monkeypatch):
    seen = []
    _record_state(monkeypatch, seen, "parse_frame_file", "parse_lu_file", "parse_fulltext_file")
    gc.enable()
    lex = open_lexicon(data_dir)
    lex.frame("Revenge")
    assert seen == [("parse_frame_file", False)] and gc.isenabled()
    lex.lu(6067).exemplars
    assert seen[1:] == [("parse_lu_file", False)] and gc.isenabled()
    lex.doc(23802)
    assert seen[2:] == [("parse_fulltext_file", False)] and gc.isenabled()
    # An LU whose frame is not loaded yet: the frame loads inside the LU's build.
    lex.lu(5331).exemplars
    assert seen[3:] == [("parse_frame_file", False), ("parse_lu_file", False)]
    assert gc.isenabled()


def test_a_load_that_raises_leaves_the_collector_enabled(data_dir, tmp_path):
    clone = tmp_path / "corpus"
    shutil.copytree(data_dir, clone)
    path = clone / "lu" / "lu6067.xml"
    path.write_bytes(path.read_bytes()[:-200])
    lex = open_lexicon(clone)
    gc.enable()
    with pytest.raises(ParseError):
        lex.lu(6067).exemplars
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled(data_dir):
    gc.disable()
    lex = open_lexicon(data_dir)
    lex.lu(6067).exemplars
    lex.doc(23802)
    lex.propagate_semtypes()
    assert not gc.isenabled()


def test_threaded_first_touch_reads_once_and_restores_the_collector(data_dir, monkeypatch):
    touches = [("lu", lu_id) for lu_id in LUS] + [("doc", doc_id) for doc_id in DOCS]
    seen = []
    _record_state(monkeypatch, seen, "parse_frame_file", "parse_lu_file", "parse_fulltext_file")
    sys.setswitchinterval(1e-6)
    gc.enable()
    for _ in range(10):
        lex = open_lexicon(data_dir)
        results = {touch: [] for touch in touches}
        barrier = threading.Barrier(8)

        def work(k):
            barrier.wait()
            for kind, key in touches[k % len(touches):] + touches[:k % len(touches)]:
                value = lex.lu(key).exemplars if kind == "lu" else lex.doc(key)
                results[kind, key].append(value)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert gc.isenabled()
        assert not any(enabled for _, enabled in seen)
        for values in results.values():
            assert len(values) == 8 and all(v is values[0] for v in values)
        log = lex.store.fileAccessLog
        assert len(set(log)) == len(log)
        assert {f"lu/lu{lu_id}.xml" for lu_id in LUS} <= set(log)
        assert sum(path.startswith("fulltext/") for path in log) == len(DOCS)
