"""The command table both front ends read: every listing against raw-XML
re-reads, the REPL's arguments, REPL/CLI parity, and a guard against the
table, the parser and the REPL help drifting apart."""

import io
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import framelex
from framelex.cli import COMMANDS, REPL_HELP, build_parser, run
from test_lexicon import _children, _local, raw_oracle

DATA_DIR = Path(__file__).resolve().parent / "data" / "fixture17"
PATTERNS = [None, "^r", "e", "(?i)T", "v$"]


def cli(*args):
    out, err = io.StringIO(), io.StringIO()
    code = run(["--data", str(DATA_DIR), *args], stdin=io.StringIO(), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class _Script:
    """REPL stdin that notes where in ``out`` each reply starts."""

    def __init__(self, lines, out):
        self.lines, self.out, self.marks = list(lines), out, []

    def readline(self):
        self.marks.append(len(self.out.getvalue()))
        return self.lines.pop(0) + "\n" if self.lines else ""


def replies(*lines):
    """The REPL's reply to each line, without the prompt that follows it."""
    out = io.StringIO()
    script = _Script(lines, out)
    assert run(["--data", str(DATA_DIR), "browse"], stdin=script, stdout=out,
               stderr=io.StringIO()) == 0
    text, marks = out.getvalue(), script.marks
    chunks = [text[start:end] for start, end in zip(marks, marks[1:])]
    return [chunk[: chunk.rfind("\n") + 1] for chunk in chunks]


# ------------------------------------------------------------ raw-XML oracle


def _root(path):
    return ET.parse(path).getroot()


def raw_listings(data_dir):
    """Every listing kind re-read from the XML alone: {kind: [(ID, text line,
    --ids field, filter key)]}, in listing order.  The filter key is the name
    a pattern is matched against (the LU name for sentences and sets)."""
    frames, lus, fes, exemplars, docs, doc_sents = raw_oracle(data_dir)
    frame_name = dict(frames)
    out = {"frames": [(fid, f"({fid}) {name}", name, name) for fid, name in frames]}
    out["lus"] = [(lu_id, f"({lu_id}) {name} in {frame_name[fid]}", name, name)
                  for lu_id, name, fid in lus]
    core = {}
    for fid, name in frames:
        for fe in _children(_root(data_dir / "frame" / f"{name}.xml"), "FE"):
            core[int(fe.get("ID"))] = fe.get("coreType")
    out["fes"] = [(fe_id, f"({fe_id}) {name} [{core[fe_id]}] in {frame_name[fid]}", name, name)
                  for fid, _ in frames for fe_id, name in fes[fid]]

    types, relations, mappings = [], [], []
    for rtype in _children(_root(data_dir / "frRelation.xml"), "frameRelationType"):
        sup, sub, type_name = (rtype.get(k) for k in ("superFrameName", "subFrameName", "name"))
        types.append((int(rtype.get("ID")), f"({rtype.get('ID')}) {type_name}: {sup} -> {sub}",
                      type_name, type_name))
        for rel in _children(rtype, "frameRelation"):
            line = (f"<{sup}={rel.get('superFrameName')} -- {type_name} -> "
                    f"{sub}={rel.get('subFrameName')}>")
            relations.append((int(rel.get("ID")), line, line, (type_name, rel)))
            for fe_rel in _children(rel, "FERelation"):
                text = (f"{rel.get('superFrameName')}.{fe_rel.get('superFEName')} -> "
                        f"{rel.get('subFrameName')}.{fe_rel.get('subFEName')}")
                mappings.append((int(fe_rel.get("ID")), f"({fe_rel.get('ID')}) {text}", text,
                                 None))
    out["relation-types"], out["relations"], out["fe-relations"] = types, relations, mappings

    semtypes = {int(st.get("ID")): st for st in _children(_root(data_dir / "semTypes.xml"),
                                                         "semType")}
    out["semtypes"] = []
    for st_id, st in sorted(semtypes.items()):
        line = f"({st_id}) {st.get('name')} <{st.get('abbrev')}>"
        for sup in _children(st, "superType"):
            line += f" under {semtypes[int(sup.get('supID'))].get('name')}"
        out["semtypes"].append((st_id, line, st.get("name"), None))

    sentences, exemplar_sets = [], []
    for lu_id, name, fid in lus:
        if not exemplars[lu_id]:
            continue
        found = [s for s in _root(data_dir / "lu" / f"lu{lu_id}.xml").iter()
                 if _local(s) == "sentence"]
        for sent in sorted(found, key=lambda s: int(s.get("ID"))):
            text = _children(sent, "text")[0].text
            sentences.append((int(sent.get("ID")), f"({sent.get('ID')}) {text}", text, name))
            for aset in _children(sent, "annotationSet")[1:]:
                line = (f"({aset.get('ID')}) {frame_name[fid]}/{name} [{aset.get('status')}] "
                        f"sentence {sent.get('ID')}")
                exemplar_sets.append(((int(sent.get("ID")), int(aset.get("ID"))), line, name))
    out["exemplars"] = sentences
    ft_sents, ft_sets, doc_lines = [], [], []
    for corpus in _root(data_dir / "fulltextIndex.xml"):
        for doc in _children(corpus, "document"):
            name = doc.get("name")
            doc_lines.append((int(doc.get("ID")), f"({doc.get('ID')}) {name} "
                              f"({corpus.get('name')})", name, name))
            path = data_dir / "fulltext" / f"{name}.xml"
            if not path.exists():
                path = data_dir / "fulltext" / f"{corpus.get('name')}__{name}.xml"
            for sent in (s for s in _root(path).iter() if _local(s) == "sentence"):
                text = _children(sent, "text")[0].text
                ft_sents.append((int(doc.get("ID")), int(sent.get("ID")), text, name))
                for aset in _children(sent, "annotationSet")[1:]:
                    lu = aset.get("luName", "")
                    line = (f"({aset.get('ID')}) {aset.get('frameName', '')}/{lu} "
                            f"[{aset.get('status')}] sentence {sent.get('ID')}")
                    ft_sets.append(((int(sent.get("ID")), int(aset.get("ID"))), line, lu))
    ft_sents.sort(key=lambda s: s[0])  # document ID order, file order within
    assert [s[1] for s in ft_sents] == [i for doc_id, _ in docs for i in doc_sents[doc_id]]
    out["ft-sents"] = [(sent_id, f"({sent_id}) {text}", text, doc)
                       for _, sent_id, text, doc in ft_sents]
    out["docs"] = sorted(doc_lines)
    out["annotations", "exemplars"] = [(key[1], line, lu, lu) for key, line, lu
                                       in sorted(exemplar_sets)]
    out["annotations", "fulltext"] = [(key[1], line, lu, lu) for key, line, lu in sorted(ft_sets)]
    return out


def expected(rows, pattern=None, ids=False):
    """The listing of ``rows`` whose filter key matches ``pattern``."""
    kept = [row for row in rows if pattern is None or re.search(pattern, row[3] or "")]
    return "".join(f"{i}\t{field}\n" if ids else f"{line}\n" for i, line, field, _ in kept)


ORACLE = raw_listings(DATA_DIR)
LISTINGS = ["frames", "lus", "fes", "docs", "exemplars", "ft-sents", "annotations",
            "relations", "relation-types", "fe-relations", "semtypes"]


def oracle_rows(command):
    if command == "annotations":
        return ORACLE["annotations", "exemplars"] + ORACLE["annotations", "fulltext"]
    return ORACLE[command]


@pytest.mark.parametrize("ids", [False, True])
@pytest.mark.parametrize("command", LISTINGS)
def test_every_listing_matches_the_raw_xml(command, ids):
    patterns = PATTERNS if COMMANDS[command][2] else [None]
    for pattern in patterns:
        argv = [command] + ([pattern] if pattern else []) + (["--ids"] if ids else [])
        assert cli(*argv) == (0, expected(oracle_rows(command), pattern, ids), ""), argv


@pytest.mark.parametrize("ids", [False, True])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_annotation_sources_can_be_left_out(pattern, ids):
    flags = (["--ids"] if ids else []) + ([pattern] if pattern else [])
    exemplar_sets = expected(ORACLE["annotations", "exemplars"], pattern, ids)
    fulltext_sets = expected(ORACLE["annotations", "fulltext"], pattern, ids)
    assert exemplar_sets and fulltext_sets or pattern
    assert cli("annotations", "--no-fulltext", *flags) == (0, exemplar_sets, "")
    assert cli("annotations", "--no-exemplars", *flags) == (0, fulltext_sets, "")
    assert cli("annotations", "--no-exemplars", "--no-fulltext", *flags) == (0, "", "")


@pytest.mark.parametrize("frame, frame2, rtype", [
    ("Revenge", None, None), ("347", None, None), ("Event", None, "Inheritance"),
    (None, None, "Inheritance"), (None, None, "Subframe"),
    ("Revenge", "Rewards_and_punishments", None), ("Rewards_and_punishments", "344", None),
    ("Event", "Revenge", None), ("Event", "Rewards_and_punishments", "Subframe"),
])
def test_relation_filters_match_the_raw_xml(frame, frame2, rtype):
    frames = raw_oracle(DATA_DIR)[0]
    frame_id = {name: fid for fid, name in frames}

    def fid(key):
        return int(key) if key.isdecimal() else frame_id[key]

    rows = []
    for row in ORACLE["relations"]:
        type_name, rel = row[3]
        sides = {int(rel.get("supID")), int(rel.get("subID"))}
        if ((frame is None or fid(frame) in sides)
                and (frame2 is None or sides == {fid(frame), fid(frame2)})
                and (rtype is None or type_name == rtype)):
            rows.append(row)
    argv = ["relations"]
    for flag, value in (("--frame", frame), ("--frame2", frame2), ("--type", rtype)):
        argv += [flag, value] if value else []
    assert cli(*argv) == (0, expected(rows), "")
    assert cli(*argv, "--ids") == (0, expected(rows, ids=True), "")


# ------------------------------------------------------------ the REPL


def test_repl_index_arguments():
    got = replies(
        "lu 6067", "exemplar", "exemplar x", "exemplar -1", "exemplar 21", "exemplar 20",
        "annoset", "annoset -1", "annoset 2", "annoset 1",
        "doc 23802", "sent", "sent 2x", "sent 3", "sent 2",
    )
    n_exemplars = len([s for s in ORACLE["exemplars"] if s[3] == "revenge.n"])
    assert n_exemplars == 21
    assert got[1:4] == ["usage: exemplar <k>\n"] * 3
    assert got[4] == "not found: no exemplar 21 among 21 (0-based)\n"
    assert got[5].startswith("exemplar sentence (929548):")
    assert got[6:8] == ["usage: annoset <k>\n"] * 2
    assert got[8] == "not found: no annoset 2 among 2 (0-based)\n"
    assert got[9].startswith("annotation set (9295482):")
    assert got[11:13] == ["usage: sent <k>\n"] * 2
    assert got[13] == "not found: no sent 3 among 3 (0-based)\n"
    assert got[14].startswith("full-text sentence (4148528)")


def test_repl_keys_are_names_or_decimal_ids():
    got = replies("doc abc", "doc 23802x", "doc 23802", "semtype 4", "semtype Animate_being")
    assert got[:2] == ["not found: no full-text document with ID 'abc'\n",
                       "not found: no full-text document with ID '23802x'\n"]
    assert got[2].startswith("full-text document (23802)")
    assert got[3] == got[4] and got[3].startswith("semantic type (4): Animate_being\n")


def test_repl_fe():
    frame = framelex.FrameLexicon.open(DATA_DIR).frame("Revenge")
    got = replies("fe Avenger", "frame Revenge", "fe Avenger", "fe", "fe Nope")
    assert got[0] == "no frame context; run 'frame <name>' first\n"
    assert got[2] == framelex.render_frame_element(frame.FE["Avenger"])
    assert got[3] == "usage: fe <name>\n"
    assert got[4] == "not found: no FE named 'Nope' in frame 'Revenge'\n"


def test_rejected_index_keeps_the_context():
    # lu sets two levels of context; a rejected exemplar adds none.
    assert replies("lu 6067", "exemplar -1", "up", "up", "up")[2:] == [
        "", "", "already at the top\n"]


NO_ARGUMENT = [name for name, (_, _, arg) in COMMANDS.items() if not arg]


@pytest.mark.parametrize("command", NO_ARGUMENT)
def test_commands_without_an_argument_reject_one(command):
    assert replies(f"{command} x") == [f"usage: {command}\n"]
    assert cli(command, "x")[0] == 2


def test_commands_needing_an_argument_say_so():
    assert replies("frame", "lu", "semtype", "doc") == [
        "usage: frame <name-or-id>\n", "usage: lu <name-or-id>\n", "usage: semtype <key>\n",
        "usage: doc <id>\n",
    ]
    # The words are checked before the context: with none, each says its usage.
    assert replies("fe", "exemplar", "sent", "annoset", "exemplar x", "sent 1.5") == [
        "usage: fe <name>\n", "usage: exemplar <k>\n", "usage: sent <k>\n",
        "usage: annoset <k>\n", "usage: exemplar <k>\n", "usage: sent <k>\n",
    ]
    # So does a line with more words than its command takes, keeping the context.
    got = replies("lu 6067", "exemplar 0 1", "lus ^re 347", "frame Revenge extra words",
                  "lus --frame 347", "up x", "help x", "exemplar 0")
    assert got[1:7] == [
        "usage: exemplar <k>\n", "usage: lus [pattern]\n", "usage: frame <name-or-id>\n",
        "usage: lus [pattern]\n", "usage: up\n", "usage: help\n",
    ]
    assert got[7].startswith("exemplar sentence (929501):")


@pytest.mark.parametrize("command", LISTINGS)
def test_repl_and_cli_listings_agree(command):
    patterns = PATTERNS if COMMANDS[command][2] else [None]
    lines = [command + (f" '{p}'" if p else "") for p in patterns]
    for line, reply, pattern in zip(lines, replies(*lines), patterns):
        code, out, _ = cli(command, *([pattern] if pattern else []))
        assert (code, reply) == (0, out), line


def test_table_parser_and_repl_help_agree():
    subcommands = next(a for a in build_parser()._actions if a.choices).choices
    assert set(subcommands) - {"browse"} == set(COMMANDS)
    drill, listing, others = re.split(r"Listing commands.*\n|Others:", REPL_HELP)
    helped = set(re.findall(r"^  ([\w-]+) ", drill, re.M))
    helped |= set(re.findall(r"[\w-]+", listing)) | set(re.findall(r"[\w-]+", others))
    assert set(COMMANDS) <= helped
    patterned = {name for name, (_, _, arg) in COMMANDS.items() if arg == "[pattern]"}
    assert set(re.findall(r"[\w-]+", listing)) - {"optional", "pattern", "argument"} == patterned


# ------------------------------------------------------------ closed input and output


def _framelex(*args, stdin_closed=False, **kwargs):
    src = str(Path(framelex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    command = [sys.executable, "-m", "framelex.cli", "--data", str(DATA_DIR), *args]
    if stdin_closed:  # as ``framelex ... 0<&-`` starts it
        command = ["sh", "-c", 'exec "$@" 0<&-', "sh", *command]
    return subprocess.Popen(command, env=env, **kwargs)


def test_browse_with_standard_input_closed_exits_0_quietly():
    proc = _framelex("browse", stdin_closed=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (0, b"> \n", b"")


def test_reader_closing_the_pipe_after_one_line_is_not_an_error():
    proc = _framelex("browse", stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE)
    proc.stdin.write(b"frames\n")
    proc.stdin.flush()
    assert proc.stdout.readline().startswith(b"> (")
    proc.stdout.close()
    proc.stdin.write(b"lus\nquit\n")
    proc.stdin.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_listing_into_a_closed_pipe_exits_0_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _framelex("lus", stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
