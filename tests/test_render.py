"""Display checks: frozen golden outputs plus a geometric oracle.

The alignment oracle re-derives the wrap break positions on its own,
collects every marker column from the rendered block, and compares the
column sets per marker class with the spans stored on the record.  A
renderer that drifts by one column anywhere cannot satisfy it.
"""

import pytest

from framelex import (
    DisplayOptions,
    render_annotation_set,
    render_document,
    render_frame,
    render_frame_element,
    render_fulltext_sentence,
    render_lexicographic_sentence,
    render_lu,
    render_semtype,
)
from conftest import wrap_oracle
from framelex.records import Record
from framelex.render import wrap_segments
from framelex.xmlio import parse_fulltext_file

# ------------------------------------------------------------ goldens


def test_frame_display_golden(lexicon, golden):
    out = render_frame(lexicon.frame("Revenge"), DisplayOptions())
    assert out == golden("frame_revenge.txt")


def test_lu_display_golden(lexicon, golden):
    out = render_lu(lexicon.lu(6067), DisplayOptions())
    assert out == golden("lu_6067.txt")


def test_exemplar_sentence_golden(lexicon, golden):
    sent = lexicon.lu(6067).exemplars[20]
    out = render_lexicographic_sentence(sent, DisplayOptions())
    assert out == golden("sent_929548.txt")


def test_wrapped_exemplar_golden(lexicon, golden):
    sent = lexicon.lu(6067).exemplars[3]
    out = render_lexicographic_sentence(sent, DisplayOptions())
    assert out == golden("sent_929504.txt")


def test_fulltext_sentence_goldens(lexicon, golden):
    doc = lexicon.doc(23802)
    opts = DisplayOptions()
    assert render_fulltext_sentence(doc.sentences[1], opts) == golden("sent_4148527.txt")
    assert render_fulltext_sentence(doc.sentences[2], opts) == golden("sent_4148528.txt")


def test_document_golden(lexicon, golden):
    assert render_document(lexicon.doc(23802), DisplayOptions()) == golden("doc_tiger.txt")


def test_annotation_set_goldens(lexicon, golden):
    opts = DisplayOptions()
    exemplar_set = lexicon.lu(6067).exemplars[20].annotationSet[1]
    assert render_annotation_set(exemplar_set, opts) == golden("annoset_9295482.txt")
    fulltext_set = lexicon.doc(23802).sentences[2].annotationSet[2]
    assert render_annotation_set(fulltext_set, opts) == golden("annoset_41485283.txt")


# (luName, frameName, status, Target spans).  "in.prep" is a Problem LU.  At
# width 24, "paid them" straddles the first break, "pay off" packs onto a
# second row, and "full" packs onto a second row past the tag of "in".
NARROW_TEXT = "She came back and paid them off in full , at last ."
NARROW_SETS = [
    ("come back.v", "Arriving", "MANUAL", [(4, 7), (9, 12)]),
    ("pay.v", "Commerce_pay", "MANUAL", [(18, 26)]),
    ("pay off.v", "Commerce_pay", "UNANN", [(18, 21), (28, 30)]),
    ("in.prep", "Completeness", "UNANN", [(32, 33)]),
    ("full.a", "Completeness", "MANUAL", [(35, 38)]),
    ("at last.adv", "Temporal_collocation", "MANUAL", [(42, 48)]),
]


def narrow_fulltext_sentence(store):
    asets = []
    for k, (lu_name, frame_name, status, spans) in enumerate(NARROW_SETS, start=1):
        labels = "".join(f'<label name="Target" start="{s}" end="{e}"/>' for s, e in spans)
        asets.append(
            f'<annotationSet ID="{k}" status="{status}" luID="{k}" luName="{lu_name}" '
            f'frameName="{frame_name}"><layer name="Target">{labels}</layer></annotationSet>'
        )
    xml = (
        '<fullTextAnnotation><header><corpus name="C" ID="1"><document ID="1" name="D"/>'
        f'</corpus></header><sentence ID="7"><text>{NARROW_TEXT}</text>'
        '<annotationSet ID="0" status="UNANN"/>'
        + "".join(asets)
        + "</sentence></fullTextAnnotation>"
    )

    def lu_resolver(lu_id, lu_name, frame_id, frame_name, source, aset):
        status = "Problem" if lu_name == "in.prep" else "Created"
        return Record(ID=lu_id, name=lu_name, status=status)

    # The sets name LUs that the fixture lacks: this store resolves them itself.
    store.resolve_annotation_lu = lu_resolver
    doc = parse_fulltext_file(xml.encode(), "narrow.xml", store)
    return doc.sentences[0]


def test_narrow_fulltext_sentence_golden(store, golden, alignment):
    sent = narrow_fulltext_sentence(store)
    out = render_fulltext_sentence(sent, DisplayOptions(wrap_width=24))
    assert out == golden("sent_fulltext_w24.txt")
    alignment.fulltext(sent, 24)


def test_colliding_abbreviations_stay_distinct(store):
    sets = [("Commerce_pay", 4, 7), ("Commerce_buy", 16, 19)]
    asets = "".join(
        f'<annotationSet ID="{k}" status="MANUAL" frameName="{frame_name}"><layer name="Target">'
        f'<label name="Target" start="{start}" end="{end}"/></layer></annotationSet>'
        for k, (frame_name, start, end) in enumerate(sets, start=1)
    )
    xml = (
        '<fullTextAnnotation><header><corpus name="C" ID="1"><document ID="1" name="D"/>'
        '</corpus></header><sentence ID="7"><text>She pays and he buys .</text>'
        f'<annotationSet ID="0" status="UNANN"/>{asets}</sentence></fullTextAnnotation>'
    )
    sent = parse_fulltext_file(xml.encode(), "collide.xml", store).sentences[0]
    lines = render_fulltext_sentence(sent, DisplayOptions()).splitlines()
    # Both frame names cut to four characters read "Comm".
    label_line = lines[lines.index(sent.text) + 2]
    shorts = [label_line[start : end + 1] for _, start, end in sets]
    assert shorts[0] != shorts[1]
    footer = dict(item.split("=") for item in lines[-1].strip("()").split(", "))
    assert [footer[short] for short in shorts] == [frame_name for frame_name, _, _ in sets]


DISPLAY_WIDTHS = (20, 37, 70, 120)


def _sentence_displays(lexicon, store):
    """Every exemplar, full-text sentence and annotation set display of the
    fixture, and the narrow sentence's, at each of ``DISPLAY_WIDTHS``."""
    narrow = narrow_fulltext_sentence(store)
    for width in DISPLAY_WIDTHS:
        opts = DisplayOptions(wrap_width=width)
        for sent in lexicon.exemplars():
            yield render_lexicographic_sentence(sent, opts)
        for sent in [*lexicon.ft_sents(), narrow]:
            yield render_fulltext_sentence(sent, opts)
        for sent in [*lexicon.exemplars(), *lexicon.ft_sents()]:
            yield from (render_annotation_set(aset, opts) for aset in sent.annotationSet)


def test_a_label_has_one_short_form_per_display(lexicon, store):
    footers = 0
    for out in _sentence_displays(lexicon, store):
        last = out.splitlines()[-1]
        if last.startswith("(") and last.endswith(")") and "=" in last:
            labels = [item.split("=", 1)[1] for item in last[1:-1].split(", ")]
            assert len(labels) == len(set(labels)), out
            footers += 1
    assert footers > 0


def _expected_tags(sent):
    """(first target column, ``[k]`` and flags) of each frame set with a target."""
    for k, aset in enumerate(sent.annotationSet[1:], start=1):
        targets = aset.get("Target") or []
        if targets:
            lu = aset.get("LU")
            problem = " ?" if lu is not None and lu.status == "Problem" else ""
            unannotated = " !" if aset.status == "UNANN" else ""
            yield targets[0][0], f"[{k}]{problem}{unannotated}"


def _blocks(out):
    """The lines of each wrap segment of a sentence display, text line first."""
    lines = out.splitlines()
    body = lines[lines.index("[text] + [annotationSet]") + 2 :]
    blocks = [[]]
    for line in body:
        if line:
            blocks[-1].append(line)
        else:
            blocks.append([])
    return blocks


def _tag_end_sentence(store):
    """A sentence whose last target starts two columns before its end."""
    xml = (
        '<fullTextAnnotation><header><corpus name="C" ID="1"><document ID="1" name="D"/>'
        '</corpus></header><sentence ID="8"><text>She paid up</text>'
        '<annotationSet ID="0" status="UNANN"/><annotationSet ID="1" status="UNANN" '
        'frameName="Commerce_pay"><layer name="Target"><label name="Target" start="9" end="10"/>'
        "</layer></annotationSet></sentence></fullTextAnnotation>"
    )
    return parse_fulltext_file(xml.encode(), "tag_end.xml", store).sentences[0]


def test_every_tag_shows_whole_with_its_flags(lexicon, store):
    """A tag that lies inside one wrap segment, or starts in the last one,
    shows whole at its target's first column, with nothing run into it."""
    sents = [*lexicon.ft_sents(), narrow_fulltext_sentence(store), _tag_end_sentence(store)]
    checked = 0
    for width in (*DISPLAY_WIDTHS, 24):
        for sent in sents:
            out = render_fulltext_sentence(sent, DisplayOptions(wrap_width=width))
            segments = wrap_oracle(sent.text, width)
            blocks = _blocks(out)
            assert len(blocks) == len(segments)
            for column, tag in _expected_tags(sent):
                k = max(i for i, (offset, _) in enumerate(segments) if offset <= column)
                offset, chunk = segments[k]
                if column + len(tag) > offset + len(chunk) and k < len(segments) - 1:
                    continue  # the tag straddles a wrap break
                at = column - offset
                shown = [line[at : at + len(tag) + 1] for line in blocks[k][1:]]
                assert tag in shown or tag + " " in shown, (width, tag, out)
                checked += 1
    assert checked > 50


def test_a_fulltext_set_without_a_target_marks_nothing(store):
    """Set 1 has only an empty FE layer, set 2 a target: only set 2 is tagged."""
    xml = (
        '<fullTextAnnotation><header><corpus name="C" ID="1"><document ID="1" name="D"/>'
        '</corpus></header><sentence ID="8"><text>She paid up</text>'
        '<annotationSet ID="0" status="UNANN"/><annotationSet ID="1" status="MANUAL" '
        'frameName="Paying"><layer name="FE"/></annotationSet><annotationSet ID="2" '
        'status="MANUAL" frameName="Commerce_pay"><layer name="Target">'
        '<label name="Target" start="4" end="7"/></layer></annotationSet></sentence>'
        "</fullTextAnnotation>"
    )
    sent = parse_fulltext_file(xml.encode(), "no_target.xml", store).sentences[0]
    [[text, *rows]] = _blocks(render_fulltext_sentence(sent))
    assert text == "She paid up"
    assert rows[0] == " " * 4 + "*" * (7 - 4 + 1)  # the target's columns, 4 to 7
    assert " " * 4 + "[2]" in rows
    assert not any("[1]" in row for row in rows)


def test_wrap_splits_a_word_longer_than_the_width():
    text = "a " + "x" * 45 + " b"
    segments = wrap_segments(text, 20)
    chunks = [chunk for _, chunk in segments]
    assert "".join(chunks) == text
    assert all(len(chunk) <= 20 for chunk in chunks)
    assert chunks.count("x" * 20) == 2
    assert [offset for offset, _ in segments] == [
        sum(map(len, chunks[:i])) for i in range(len(chunks))
    ]


# ------------------------------------------------------------ shape checks


def test_all_renders_end_in_single_newline(lexicon):
    opts = DisplayOptions()
    outputs = [
        render_frame(lexicon.frame("Revenge"), opts),
        render_lu(lexicon.lu(6067), opts),
        render_document(lexicon.doc(23802), opts),
        render_semtype(lexicon.semtype("Sentient"), opts),
        render_frame_element(lexicon.frame("Revenge").FE["Avenger"], opts),
    ]
    for out in outputs:
        assert out.endswith("\n")
        assert not out.endswith("\n\n")
        for line in out.split("\n"):
            assert line == line.rstrip()


def test_render_is_deterministic(lexicon):
    opts = DisplayOptions()
    sent = lexicon.lu(6067).exemplars[20]
    assert render_lexicographic_sentence(sent, opts) == render_lexicographic_sentence(sent, opts)
    frame = lexicon.frame("Revenge")
    assert render_frame(frame, opts) == render_frame(frame, opts)


def test_width_floor():
    with pytest.raises(ValueError):
        DisplayOptions(wrap_width=19)
    DisplayOptions(wrap_width=20)


def test_narrow_width_still_aligns(lexicon, alignment):
    sent = lexicon.lu(6067).exemplars[20]
    for width in (20, 31, 45, 132):
        alignment.exemplar(sent, width)


def test_alignment_every_exemplar(lexicon, alignment):
    for sent in lexicon.exemplars():
        for width in (26, 70):
            alignment.exemplar(sent, width)


def test_alignment_every_fulltext_sentence(lexicon, alignment):
    for sent in lexicon.ft_sents():
        for width in (26, 70):
            alignment.fulltext(sent, width)


def test_annotation_set_render_mentions_status_and_frame(lexicon):
    sent = lexicon.lu(6067).exemplars[20]
    out = render_annotation_set(sent.annotationSet[1], DisplayOptions())
    assert "[status] MANUAL" in out
    assert "Revenge" in out


def test_ni_footer_lists_null_instantiations(lexicon):
    sent = lexicon.lu(6067).exemplars[20]
    out = render_lexicographic_sentence(sent, DisplayOptions())
    assert "[Injury:DNI]" in out


def test_fulltext_flags(lexicon, golden):
    out_unann = golden("sent_4148527.txt")
    assert "[2] !" in out_unann
    out_problem = golden("sent_4148528.txt")
    assert "[3] ?" in out_problem


def test_semtype_display(lexicon):
    out = render_semtype(lexicon.semtype("Sentient"), DisplayOptions())
    assert out.startswith("semantic type (5): Sentient")
    assert "Animate_being" in out
