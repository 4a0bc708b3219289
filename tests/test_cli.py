import io
import random
import shlex
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from framelex import cli as cli_module
from framelex.cli import _split_line, build_parser, run
from framelex.lexicon import open_lexicon
from framelex.errors import LookupFailure, UsageError

DATA_DIR = Path(__file__).resolve().parent / "data" / "fixture17"


def cli(*args, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(
        ["--data", str(DATA_DIR), *args],
        stdin=io.StringIO(stdin),
        stdout=out,
        stderr=err,
    )
    return code, out.getvalue(), err.getvalue()


def test_frame_subcommand_matches_golden(golden):
    code, out, err = cli("frame", "Revenge")
    assert code == 0
    assert out == golden("frame_revenge.txt")
    assert err == ""


def test_frame_by_numeric_id():
    code, out, _ = cli("frame", "347")
    assert code == 0
    assert out.startswith("frame (347): Revenge")


def test_frames_listing():
    code, out, _ = cli("frames", "(?i)creat")
    assert code == 0
    assert out.splitlines() == [
        "(268) Cooking_creation",
        "(1658) Create_physical_artwork",
    ]


def test_frames_ids_listing():
    code, out, _ = cli("frames", "(?i)creat", "--ids")
    assert code == 0
    assert out.splitlines() == [
        "268\tCooking_creation",
        "1658\tCreate_physical_artwork",
    ]


def test_global_flags_accepted_before_subcommand():
    code_a, out_a, _ = cli("--ids", "frames", "(?i)creat")
    code_b, out_b, _ = cli("frames", "(?i)creat", "--ids")
    assert (code_a, out_a) == (code_b, out_b)


def test_lus_ids_sorted():
    code, out, _ = cli("lus", r".+en\.v", "--ids")
    assert code == 0
    ids = [int(line.split("\t")[0]) for line in out.splitlines()]
    assert ids == sorted(ids)
    assert {5331, 7544} <= set(ids)


def test_lu_subcommand_golden(golden):
    code, out, _ = cli("lu", "6067")
    assert code == 0
    assert out == golden("lu_6067.txt")


def test_doc_subcommand_golden(golden):
    code, out, _ = cli("doc", "23802")
    assert code == 0
    assert out == golden("doc_tiger.txt")


def test_stats_counts():
    code, out, _ = cli("stats")
    assert code == 0
    got = dict(line.split(": ") for line in out.splitlines())
    assert got["frames"] == "10"
    assert got["lexical units"] == "41"
    assert got["frame elements"] == "45"
    assert got["semantic types"] == "10"
    assert got["documents"] == "2"
    assert got["exemplar sentences"] == "23"
    assert got["frame annotation sets"] == "29"


_ALL_FRAMES = [f"frame/{name}.xml" for name in (
    "Event", "Cooking_creation", "Rewards_and_punishments", "Revenge", "Waking_up", "Omen",
    "Create_physical_artwork", "Seeking", "Process_start", "Becoming_aware")]
_DOCS = ["fulltextIndex.xml", "fulltext/Tiger_Of_San_Pedro.xml",
         "fulltext/Sherlock__Wisteria_Report.xml"]


@pytest.mark.parametrize("argv, lines, reads", [
    (["stats"], 10, [*_ALL_FRAMES, "luIndex.xml", "lu/lu5331.xml", "lu/lu6067.xml",
                     "lu/lu7544.xml", *_DOCS, "frRelation.xml", "semTypes.xml"]),
    (["annotations", "^r"], 23, ["luIndex.xml", "frame/Revenge.xml", "lu/lu6067.xml",
                                 "frame/Rewards_and_punishments.xml", *_DOCS]),
    (["annotations", "^r", "--no-exemplars"], 2, _DOCS),
    (["lus", "--frame", "347"], 18, ["luIndex.xml", "frame/Revenge.xml"]),
])
def test_files_each_command_reads(monkeypatch, argv, lines, reads):
    """The lines a command prints and the files it reads after the frame index."""
    opened = []
    monkeypatch.setattr(cli_module, "open_lexicon",
                        lambda *args: opened.append(open_lexicon(*args)) or opened[-1])
    code, out, err = cli(*argv)
    assert (code, len(out.splitlines()), err) == (0, lines, "")
    assert opened[0].store.fileAccessLog == ["frameIndex.xml", *reads]


def test_semtypes_and_relations_listings():
    code, out, _ = cli("semtypes")
    assert code == 0
    assert "(5) Sentient <sent> under Animate_being" in out
    code, out, _ = cli("relations", "--frame", "Revenge")
    assert code == 0
    assert out.strip() == (
        "<Parent=Rewards_and_punishments -- Inheritance -> Child=Revenge>"
    )


def test_relations_for_a_named_frame_read_no_frame_file(monkeypatch):
    """The frame index names the frame's ID, so its file is never opened."""
    opened = []
    monkeypatch.setattr(cli_module, "open_lexicon",
                        lambda *args: opened.append(open_lexicon(*args)) or opened[-1])
    code, out, err = cli("relations", "--frame", "Revenge")
    assert (code, err) == (0, "")
    assert opened[0].store.fileAccessLog == ["frameIndex.xml", "frRelation.xml"]
    assert cli("relations", "--frame", "347")[1] == out
    opened.clear()
    assert cli("relations", "--frame", "Nope") == (
        1, "", "framelex: not found: no frame named 'Nope'\n"
    )
    assert opened[0].store.fileAccessLog == ["frameIndex.xml"]
    assert cli("relations", "--frame", "99999") == (
        1, "", "framelex: not found: no frame with ID 99999\n"
    )


def test_propagate_subcommand():
    code, out, _ = cli("propagate-semtypes")
    assert code == 0
    assert "4" in out


def test_not_found_exit_code():
    code, out, err = cli("frame", "NoSuchFrame")
    assert code == 1
    assert out == ""
    assert "NoSuchFrame" in err


def test_lookup_failures_each_form():
    assert cli("lu", "1")[0] == 1
    assert cli("semtype", "X")[0] == 1
    assert cli("doc", "99999")[0] == 1


def test_bad_pattern_exit_code():
    code, _, err = cli("frames", "(unclosed")
    assert code == 2
    assert "pattern" in err


def test_usage_error_exit_code():
    out, err = io.StringIO(), io.StringIO()
    code = run(["no-such-command"], stdin=io.StringIO(), stdout=out, stderr=err)
    assert code == 2


def test_data_error_exit_code(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    code = run(
        ["--data", str(tmp_path / "nowhere"), "stats"],
        stdin=io.StringIO(),
        stdout=out,
        stderr=err,
    )
    assert code == 3


def test_help_exits_zero():
    out, err = io.StringIO(), io.StringIO()
    code = run(["--help"], stdin=io.StringIO(), stdout=out, stderr=err)
    assert code == 0


def test_parser_output_goes_to_the_given_streams(capsys):
    out, err = io.StringIO(), io.StringIO()
    assert run(["--help"], stdin=io.StringIO(), stdout=out, stderr=err) == 0
    assert out.getvalue().startswith("usage: framelex") and err.getvalue() == ""
    out, err = io.StringIO(), io.StringIO()
    assert run(["lu", "abc"], stdin=io.StringIO(), stdout=out, stderr=err) == 2
    assert out.getvalue() == "" and "invalid int value: 'abc'" in err.getvalue()
    assert capsys.readouterr() == ("", "")


def test_parser_covers_every_query_surface():
    parser = build_parser()
    subcommands = set()
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            subcommands.update(action.choices)
    assert {
        "frame", "frames", "lu", "lus", "fes", "relations", "relation-types",
        "fe-relations", "semtypes", "semtype", "propagate-semtypes",
        "annotations", "exemplars", "ft-sents", "doc", "docs", "stats", "browse",
    } <= subcommands


SUBCOMMANDS = (
    "frame", "frames", "lu", "lus", "fes", "relations", "relation-types", "fe-relations",
    "semtypes", "semtype", "propagate-semtypes", "annotations", "exemplars", "ft-sents",
    "doc", "docs", "stats", "browse",
)
# Golden under golden/parser/ -> (argv, exit code); help goes to stdout, errors to stderr.
PARSER_OUTPUT = {
    "help.txt": (["--help"], 0),
    "no_command.txt": ([], 2),
    "unknown_command.txt": (["nosuch"], 2),
    "lu_abc.txt": (["lu", "abc"], 2),
    **{f"help_{name}.txt": ([name, "--help"], 0) for name in SUBCOMMANDS},
}


@pytest.mark.parametrize("name", sorted(PARSER_OUTPUT))
def test_parser_output_matches_golden(name, golden, capsys, monkeypatch):
    """The same bytes on the process's streams (read through capsys) when
    ``run`` is given none, and on the streams it is given otherwise."""
    # Wide enough that argparse wraps no line: its wrapping differs across versions.
    monkeypatch.setenv("COLUMNS", "400")
    argv, want_code = PARSER_OUTPUT[name]
    want = golden(f"parser/{name}")
    want = (want, "") if want_code == 0 else ("", want)
    assert run(argv, stdin=io.StringIO()) == want_code
    assert capsys.readouterr() == want
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdin=io.StringIO(), stdout=out, stderr=err) == want_code
    assert (out.getvalue(), err.getvalue()) == want
    assert capsys.readouterr() == ("", "")


def _parse(parser, argv):
    """(parsed arguments or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


PARSER_WORDS = (
    "--data", "--data=d", "d", "--width", "--width=9", "9", "-5", "--ids", "--ids=1", "-h",
    "--help", "--he", "--dat", "--", "", "frame", "lu", "lus", "relations", "browse", "nosuch",
    "--frame", "--type", "x",
)


def test_parser_for_the_command_run_parses_as_the_full_one(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(13)
    argvs = [[rng.choice(PARSER_WORDS) for _ in range(rng.randint(0, 6))] for _ in range(600)]
    argvs += [["--data", "frame", "lu", "5"], ["--data", "--", "frame", "lu", "5"],
              ["--width", "-5", "lu", "5"], ["--ids", "--data=lu", "frame", "x", "--ids"]]
    full = build_parser()
    for argv in argvs:
        assert _parse(build_parser(argv), argv) == _parse(full, argv), argv


# ------------------------------------------------------------ the REPL


def test_repl_drilldown_matches_golden(golden):
    script = "frame Revenge\nlu revenge.n\nexemplar 20\nquit\n"
    code, out, _ = cli("browse", stdin=script)
    assert code == 0
    assert golden("sent_929548.txt") in out
    assert golden("frame_revenge.txt") in out
    # the prompt tracks the context path
    assert "Revenge/revenge.n> " in out
    assert "Revenge/revenge.n/929548> " in out


def test_repl_document_path(golden):
    script = "doc 23802\nsent 2\nannoset 2\nquit\n"
    code, out, _ = cli("browse", stdin=script)
    assert code == 0
    assert golden("sent_4148528.txt") in out
    assert "Tiger_Of_San_Pedro/4148528> " in out


def test_repl_up_and_errors():
    script = (
        "fe Avenger\n"          # no frame context yet
        "frame Revenge\n"
        "fe Avenger\n"
        "up\n"
        "lu nosuch.lu\n"
        "frames (broken\n"
        "help\n"
        "quit\n"
    )
    code, out, _ = cli("browse", stdin=script)
    assert code == 0
    assert "not found" in out or "error" in out


def test_repl_eof_is_clean_exit():
    code, _, _ = cli("browse", stdin="frame Revenge\n")
    assert code == 0


def _random_lines(seed, alphabet, count=1000):
    rng = random.Random(seed)
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60))) for _ in range(count)]


FUZZ_LINES = _random_lines(
    408,
    "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "()[]{}<>|&;\"'`$*?.^\\/-_\t\x00\x1b\x07",
)


def test_repl_survives_fuzz():
    lines = FUZZ_LINES + ["quit"]
    code, _, _ = cli("browse", stdin="\n".join(lines) + "\n")
    assert code == 0


def _split_outcome(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return type(exc), str(exc)


def test_repl_line_split_matches_shlex():
    # Quote-free lines with whitespace that shlex does not split on.
    plain = _random_lines(11, "ab1.;# \t\r\n\x0b\x0c\xa0\x1c\x85\u2028")
    checked = 0
    for line in FUZZ_LINES + plain:
        for form in (line, line.strip()):
            assert _split_outcome(_split_line, form) == _split_outcome(shlex.split, form), form
            checked += 1
    assert checked == 4000


def test_repl_lu_by_exact_name_without_frame_context(golden, tmp_path):
    script = "lu revenge.n\nlu revenge\nquit\n"
    code, out, _ = cli("browse", stdin=script)
    assert code == 0
    assert golden("lu_6067.txt") in out
    assert "Revenge/revenge.n> " in out
    assert "not found: no unique lexical unit named 'revenge'" in out

    # Two index rows with one name: the name picks no LU.
    clone = tmp_path / "corpus"
    shutil.copytree(DATA_DIR, clone)
    index = clone / "luIndex.xml"
    body = index.read_text()
    assert body.count('name="avenge.v"') == 1
    index.write_text(body.replace('name="avenge.v"', 'name="revenge.n"'))
    out = io.StringIO()
    code = run(["--data", str(clone), "browse"], stdin=io.StringIO(script), stdout=out,
               stderr=io.StringIO())
    assert code == 0
    assert "not found: no unique lexical unit named 'revenge.n'" in out.getvalue()


def test_usage_errors_exit_2_and_are_value_errors():
    assert cli("relations", "--frame2", "Revenge")[0] == 2
    assert cli("--width", "5", "frame", "Revenge")[0] == 2
    assert issubclass(UsageError, ValueError)
    # "²" is a digit that int() rejects, so it is a name, not an ID.
    assert cli("frame", "²")[0] == 1
    assert cli("semtype", "²")[0] == 1


def test_a_decimal_key_is_made_of_the_digits_int_reads():
    """Full-width digits name an ID, as ``int()`` reads them, in the library,
    the CLI and the REPL alike; a superscript digit is no decimal digit."""
    lex = open_lexicon(DATA_DIR)
    assert lex.frame("３４７") is lex.frame(347)
    assert lex.doc("２３８０２") is lex.doc(23802)
    assert lex.lus(frame="３４７") == lex.lus(frame=347) != []
    assert cli("lu", "６０６７") == cli("lu", "6067")
    script = "lu {}\nexemplar {}\nquit\n"
    wide = cli("browse", stdin=script.format("６０６７", "２０"))
    assert wide == cli("browse", stdin=script.format("6067", "20"))
    assert "/929548> " in wide[1]

    with pytest.raises(ValueError):
        int("³")
    for lookup in (lex.frame, lex.doc, lex.lu):
        with pytest.raises(LookupFailure):
            lookup("³")
    assert lex.lus(frame="³") == []
    assert cli("lu", "³")[0] == 2
    code, out, _ = cli("browse", stdin=script.format("6067", "³"))
    assert code == 0 and "usage: exemplar <k>" in out
