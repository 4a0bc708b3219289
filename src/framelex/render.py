"""Aligned terminal displays for lexicon entities.

All three sentence displays (exemplar sentence, full-text sentence,
annotation set) are laid out by one writer, ``_marked_text``, over items
``(spans, char, label, tag)``.  It paints ``char`` under every span: ``-``
under frame element spans, ``*`` under targets, ``^`` under support and
copula spans.  ``label`` (an FE, support or frame name, or None for an
unlabelled target) sits under the first span, whole if it fits there.  A
label that does not fit some span is cut once per display, to the narrowest
such span, and every cell too narrow for it shows that one short form; each
is expanded in a trailing ``(short=Full, ...)`` footer, with numeric
suffixes telling apart labels that cut alike.  ``tag`` is a full-text set's
``[k] ?!`` number and flags, on a third row, whole; other items have None.
Null instantiations, which have no span to mark, become ``[FE:itype]``
footer lines.

Long sentences wrap at a fixed width.  The text row picks the break
positions and every marker, label and tag row is sliced at the same
positions, so a marker column always sits under the text column it
annotates, including spans that straddle a break.  Items whose spans or
tags would overlap on one row are packed onto additional rows, first fit.

All lines are right-stripped; every renderer returns a string ending in a
single newline and is deterministic for a given entity and options.
"""

import re
import textwrap
from dataclasses import dataclass

from .errors import UsageError
from .xmlio import CORE_TYPES, POS_SPECIFIC_LAYERS

INDENT = "  "
MIN_WRAP_WIDTH = 20


@dataclass(frozen=True)
class DisplayOptions:
    """Rendering knobs.  wrap_width counts whole lines, indent included."""

    wrap_width: int = 70

    def __post_init__(self):
        if self.wrap_width < MIN_WRAP_WIDTH:
            raise UsageError(f"wrap_width must be at least {MIN_WRAP_WIDTH}")


DEFAULT_OPTIONS = DisplayOptions()

_CHUNKS = re.compile(r"\S+|\s+")


def wrap_segments(text, width):
    """Split text into display segments of at most ``width`` characters.

    Breaks fall between whitespace and word runs (a run longer than the width
    is hard-split).  Segments concatenate back to the original text; returns
    (offset, chunk) pairs.
    """
    pieces = []
    cur = ""
    for chunk in _CHUNKS.findall(text):
        while len(chunk) > width:
            if cur:
                pieces.append(cur)
                cur = ""
            pieces.append(chunk[:width])
            chunk = chunk[width:]
        if cur and len(cur) + len(chunk) > width:
            pieces.append(cur)
            cur = chunk
        else:
            cur += chunk
    if cur or not pieces:
        pieces.append(cur)
    out = []
    offset = 0
    for piece in pieces:
        out.append((offset, piece))
        offset += len(piece)
    return out


# ------------------------------------------------------------ marked text


def _pack_rows(items):
    """First-fit packing: each item lands on the first row where neither its
    spans nor the columns of its tag, which starts at its first span, meet
    another item's."""
    rows = []
    occupied = []
    for item in items:
        spans, _, _, tag = item
        if tag is not None:
            start = spans[0][0]
            spans = [*spans, (start, start + len(tag) - 1)]
        for row, taken in zip(rows, occupied):
            if not any(not (e < s2 or s > e2) for s, e in spans for s2, e2 in taken):
                row.append(item)
                taken.extend(spans)
                break
        else:
            rows.append([item])
            occupied.append(list(spans))
    return rows


def _abbreviate(label, width, abbrevs):
    """``label``'s one short form: cut to ``width`` on first use and kept in
    ``abbrevs``, {label: short form}, with a numeric suffix when another
    label's short form is the same."""
    short = abbrevs.get(label)
    if short is None:
        short, suffix, taken = label[:width], 2, set(abbrevs.values())
        while short in taken:
            short = label[: max(width - len(str(suffix)), 1)] + str(suffix)
            suffix += 1
        abbrevs[label] = short
    return short


def _paint(line, start, text_chars):
    for i, ch in enumerate(text_chars):
        if 0 <= start + i < len(line):
            line[start + i] = ch


def _marked_text(text, items, footer, options):
    """Wrapped text, its marker rows, ``footer``, then the abbreviation footer.

    Items are ``(spans, char, label, tag)``; see the module docstring.
    """
    length = len(text)
    # A label cut under any span is cut once, to the narrowest span it does not fit.
    narrowest = {}
    for spans, _, label, _ in items:
        width = spans[0][1] - spans[0][0] + 1
        if label is not None and len(label) > width:
            narrowest[label] = min(width, narrowest.get(label, width))
    abbrevs = {}
    rows = []
    for row in _pack_rows(items):
        row.sort(key=lambda item: item[0][0][0])
        marker = [" "] * length
        label_line = [" "] * length
        tag_widths = [len(item[3]) for item in row if item[3] is not None]
        # A tag may run past the end of the text.
        tag_line = [" "] * (length + max(tag_widths)) if tag_widths else None
        for spans, char, _, _ in row:
            for start, end in spans:
                _paint(marker, start, char * (end - start + 1))
        for spans, _, label, tag in row:
            start, end = spans[0]
            if label is not None:
                if len(label) > end - start + 1:
                    label = _abbreviate(label, narrowest[label], abbrevs)
                _paint(label_line, start, label)
            if tag is not None:
                _paint(tag_line, start, tag)
        aux = [label_line] if tag_line is None else [label_line, tag_line]
        rows.append(("".join(marker), ["".join(line) for line in aux]))

    out = []
    for i, (offset, chunk) in enumerate(wrap_segments(text, options.wrap_width)):
        if i:
            out.append("")
        out.append(chunk.rstrip())
        stop = offset + len(chunk)
        if stop == length:
            stop = None  # the last segment's rows run on, for a tag past the text's end
        for marker, aux in rows:
            m = marker[offset:stop].rstrip()
            if not m:
                continue
            out.append(m)
            for line in aux:
                sliced = line[offset:stop].rstrip()
                if sliced:
                    out.append(sliced)
    out += footer
    expansions = [f"{short}={label}" for label, short in abbrevs.items()]
    if expansions:
        out.append("(" + ", ".join(expansions) + ")")
    return out


def _sentence_items(owner):
    """Marked items and null-instantiation footer of a sentence or set."""
    overt, ni, _ = owner.get("FE", ([], {}, {}))
    items = [([span], "*", None, None) for span in owner.get("Target", [])]
    items += [([(s, e)], "-", name, None) for s, e, name in overt]
    for layer in POS_SPECIFIC_LAYERS:
        items += [([(s, e)], "^", label.lower(), None) for s, e, label in owner.get(layer) or []]
    return items, [f"[{name}:{ni[name]}]" for name in sorted(ni)]


# ------------------------------------------------------------ renderers


def _finish(lines):
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _fill_block(text, width, head=INDENT):
    if not text:
        return []
    return textwrap.fill(
        text,
        width=width,
        initial_indent=head,
        subsequent_indent=" " * len(head),
        break_long_words=False,
        break_on_hyphens=False,
    ).splitlines()


def relation_line(rel):
    """A frame relation as ``<role=frame -- type -> role=frame>``, super first."""
    return (
        f"<{rel.type.superFrameName}={rel.superFrameName} -- "
        f"{rel.type.name} -> {rel.type.subFrameName}={rel.subFrameName}>"
    )


def render_frame(frame, options=DEFAULT_OPTIONS):
    """The frame overview display: definition, relations, LUs, FEs, core sets."""
    w = options.wrap_width
    out = [f"frame ({frame.ID}): {frame.name}", ""]
    out += [f"[URL] {frame.URL}", ""]
    out += ["[definition]"] + _fill_block(frame.definition, w) + [""]

    semtypes = frame.semTypes
    out.append(f"[semTypes] {len(semtypes)} semantic types")
    if semtypes:
        out += _fill_block(", ".join(f"{st.name}({st.ID})" for st in semtypes), w)
    out.append("")

    relations = frame.frameRelations
    out.append(f"[frameRelations] {len(relations)} frame relations")
    out += [INDENT + relation_line(rel) for rel in relations]
    out.append("")

    lex_units = frame.lexUnit
    out.append(f"[lexUnit] {len(lex_units)} lexical units")
    if lex_units:
        listing = ", ".join(f"{name} ({lu.ID})" for name, lu in sorted(lex_units.items()))
        out += _fill_block(listing, w)
    out.append("")

    fes = frame.FE
    out.append(f"[FE] {len(fes)} frame elements")
    by_core_type = {}
    for fe in fes.values():
        by_core_type.setdefault(fe.coreType, []).append(fe)
    for core_type in CORE_TYPES:
        group = sorted(by_core_type.get(core_type, []), key=lambda fe: fe.name)
        listing = ", ".join(f"{fe.name} ({fe.ID})" for fe in group)
        out += _fill_block(listing, w, f"{core_type:>16}: ")
    out.append("")

    core_sets = frame.FEcoreSets
    out.append(f"[FEcoreSets] {len(core_sets)} frame element core sets")
    for group in core_sets:
        out.append(INDENT + ", ".join(fe.name for fe in group))
    return _finish(out)


def render_lu(lu, options=DEFAULT_OPTIONS):
    """The lexical unit display; touching subCorpus loads its exemplar file."""
    w = options.wrap_width
    out = [f"lexical unit ({lu.ID}): {lu.name}", ""]
    out += ["[definition]"] + _fill_block(lu.definition, w) + [""]
    out += [f"[frame] {lu.frame.name}({lu.frame.ID})", ""]
    out += [f"[POS] {lu.POS}", ""]
    out += [f"[status] {lu.status}", ""]
    lexemes = " ".join(f"{lex.name}/{lex.POS}" for lex in lu.lexemes)
    out += [f"[lexemes] {lexemes}", ""]
    count = lu.sentenceCount
    out += [f"[sentenceCount] annotated={count.annotated} total={count.total}", ""]
    subcorpora = lu.subCorpus
    out.append(f"[subCorpus] {len(subcorpora)} subcorpora")
    if subcorpora:
        out += _fill_block(", ".join(sorted(sub.name for sub in subcorpora)), w)
    return _finish(out)


def _plural(n, word):
    return f"{n} {word}" if n == 1 else f"{n} {word}s"


def render_lexicographic_sentence(sent, options=DEFAULT_OPTIONS):
    """One exemplar sentence: metadata block, aligned annotation, footers."""
    out = [f"exemplar sentence ({sent.ID}):"]
    if sent.get("sentNo") is not None:
        out.append(f"[sentNo] {sent.sentNo}")
    if sent.get("aPos") is not None:
        out.append(f"[aPos] {sent.aPos}")
    out.append("")
    lu, frame = sent.LU, sent.frame
    out += [f"[LU] ({lu.ID}) {lu.name} in {frame.name}", ""]
    out += [f"[frame] ({frame.ID}) {frame.name}", ""]
    out += [f"[annotationSet] {_plural(len(sent.annotationSet), 'annotation set')}", ""]
    out += [f"[POS] {_plural(len(sent.POS), 'tag')}", ""]
    out += [f"[POS_tagset] {sent.POS_tagset}", ""]
    out += [f"[GF] {_plural(len(sent.GF), 'relation')}", ""]
    out += [f"[PT] {_plural(len(sent.PT), 'phrase')}", ""]
    present = ["[text]", "[Target]", "[FE]"]
    present += [f"[{layer}]" for layer in POS_SPECIFIC_LAYERS if sent.get(layer)]
    out += [" + ".join(present), ""]

    out += _marked_text(sent.text, *_sentence_items(sent), options)
    return _finish(out)


def render_fulltext_sentence(sent, options=DEFAULT_OPTIONS):
    """One full-text sentence: every frame annotation set marked and numbered.

    Sets are numbered in file order, 1-based.  A set whose LU the named frame
    does not define gets a `` ?`` suffix; a set with unannotated FEs (status
    UNANN) gets `` !``.
    """
    doc = sent.get("doc")
    doc_name = doc.name if doc is not None else ""
    out = [f"full-text sentence ({sent.ID}) in {doc_name}:", ""]
    out += [f"[POS] {_plural(len(sent.POS), 'tag')}", ""]
    out += [f"[POS_tagset] {sent.POS_tagset}", ""]
    out += ["[text] + [annotationSet]", ""]

    items = []
    for index, aset in enumerate(sent.annotationSet[1:], start=1):
        spans = aset.get("Target") or []
        if not spans:
            continue
        lu = aset.get("LU")
        undefined = lu is not None and lu.status == "Problem"
        suffix = (" ?" if undefined else "") + (" !" if aset.status == "UNANN" else "")
        items.append((spans, "*", aset.get("frameName", ""), f"[{index}]{suffix}"))
    out += _marked_text(sent.text, items, [], options)
    return _finish(out)


def render_document(doc, options=DEFAULT_OPTIONS):
    """The document display: metadata, then one [offset] line per sentence."""
    out = [f"full-text document ({doc.ID}): {doc.name}", ""]
    out.append(f"[corpusName] {doc.corpusName}")
    out.append(f"[corpusID] {doc.corpusID}")
    out += [f"[description] {doc.description}", ""]
    sentences = doc.sentences
    out.append(f"[sentence] {_plural(len(sentences), 'sentence')}")
    for offset, sent in enumerate(sentences):
        out.append(f"[{offset}] {sent.text}")
    return _finish(out)


def render_annotation_set(aset, options=DEFAULT_OPTIONS):
    """One annotation set: status, LU, frame, and its own aligned layers."""
    out = [f"annotation set ({aset.ID}):", ""]
    out.append(f"[status] {aset.status}")
    lu = aset.get("LU")
    if lu is not None:
        out.append(f"[LU] ({lu.ID}) {lu.name}")
    frame = aset.get("frame")
    if frame is not None:
        out.append(f"[frame] ({frame.ID}) {frame.name}")
    out.append("")
    sent = aset.get("sent")
    if sent is not None:
        out += _marked_text(sent.text, *_sentence_items(aset), options)
    return _finish(out)


def render_frame_element(fe, options=DEFAULT_OPTIONS):
    """One frame element: definition, core type, abbreviation, semantic type."""
    w = options.wrap_width
    out = [f"frame element ({fe.ID}): {fe.name}", ""]
    out += ["[definition]"] + _fill_block(fe.definition, w) + [""]
    out += [f"[coreType] {fe.coreType}", ""]
    out += [f"[abbrev] {fe.abbrev}", ""]
    out += [f"[frame] {fe.frame.name}({fe.frame.ID})", ""]
    st = fe.semType
    out.append(f"[semType] {f'{st.name}({st.ID})' if st is not None else '<none>'}")
    return _finish(out)


def render_semtype(st, options=DEFAULT_OPTIONS):
    """One semantic type: abbreviation, definition, parent, children."""
    w = options.wrap_width
    out = [f"semantic type ({st.ID}): {st.name}", ""]
    out += [f"[abbrev] {st.abbrev}", ""]
    out += ["[definition]"] + _fill_block(st.definition, w) + [""]
    parent = st.superType
    out += [f"[superType] {f'{parent.name}({parent.ID})' if parent else '<none>'}", ""]
    subtypes = st.subTypes
    out.append(f"[subTypes] {_plural(len(subtypes), 'subtype')}")
    if subtypes:
        out += _fill_block(", ".join(f"{s.name}({s.ID})" for s in subtypes), w)
    return _finish(out)
