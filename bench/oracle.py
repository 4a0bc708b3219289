"""Expected results, derived from the generator's manifest alone.

Nothing here imports framelex.  Listings are recomputed with ``re`` over the
manifest's names, displays are checked for the facts the manifest states
(headers, counts, relation lines, sentence texts), and the marker rows of
sentence displays are read back column by column and compared with the
manifest's character spans.
"""

import json
import re
from pathlib import Path

WRAP_WIDTH = 70
MARKER_ROW = re.compile(r"^[-*^ ]*[-*^][-*^ ]*$")


def plural(n, word):
    return f"{n} {word}" if n == 1 else f"{n} {word}s"


def wrap_chunks(text, width=WRAP_WIDTH):
    """The documented wrap: runs of word or space characters packed into
    lines of at most ``width`` (longer runs hard-split); (offset, chunk)."""
    chunks, cur = [], ""
    for run in re.findall(r"\S+|\s+", text):
        while len(run) > width:
            if cur:
                chunks.append(cur)
                cur = ""
            chunks.append(run[:width])
            run = run[width:]
        if cur and len(cur) + len(run) > width:
            chunks.append(cur)
            cur = run
        else:
            cur += run
    if cur or not chunks:
        chunks.append(cur)
    out, offset = [], 0
    for chunk in chunks:
        out.append((offset, chunk))
        offset += len(chunk)
    return out


def span_columns(spans):
    return {col for span in spans for col in range(span[0], span[1] + 1)}


def marker_columns(rendered, text):
    """{'*': columns, '-': columns} read from the aligned block under ``text``.

    Returns None when the text rows are not where the wrap puts them.
    """
    lines = rendered.split("\n")
    chunks = wrap_chunks(text)
    try:
        i = lines.index(chunks[0][1].rstrip())
    except ValueError:
        return None
    cols = {"*": set(), "-": set()}
    for n, (offset, chunk) in enumerate(chunks):
        if n:
            if i >= len(lines) or lines[i] != "":
                return None
            i += 1
        if i >= len(lines) or lines[i] != chunk.rstrip():
            return None
        i += 1
        while i < len(lines) and lines[i] != "":
            if MARKER_ROW.match(lines[i]):
                for col, ch in enumerate(lines[i]):
                    if ch in cols:
                        cols[ch].add(offset + col)
            i += 1
    return cols


class Manifest:
    """Ground truth for one generated corpus."""

    def __init__(self, corpus_dir):
        corpus_dir = Path(corpus_dir)
        self.data_dir = str(corpus_dir / "data")
        raw = json.loads((corpus_dir / "manifest.json").read_text())
        self.totals = raw["totals"]
        self.roles = {name: (sup, sub) for _, name, sup, sub in raw["relation_types"]}
        self.frames = sorted(raw["frames"], key=lambda f: f[0])
        self.frame_by_id = {f[0]: f for f in self.frames}
        self.frame_by_name = {f[1]: f for f in self.frames}
        self.lus = sorted(raw["lus"], key=lambda lu: lu[0])
        self.lu_by_id = {lu[0]: lu for lu in self.lus}
        self.exemplars = {int(k): v for k, v in raw["exemplars"].items()}
        self.documents = sorted(raw["documents"], key=lambda d: d[0])
        self.doc_by_id = {d[0]: d for d in self.documents}
        self.relations = raw["relations"]
        self.semtypes = {st[1]: st for st in raw["semtypes"]}

    # ---------------------------------------------------------------- listings

    def allowed_frames(self, frame):
        """Frame IDs a ``--frame`` restriction admits: an ID, or every frame
        whose name equals the value or contains a match of it."""
        if frame.isdigit():
            return {int(frame)}
        rx = re.compile(frame)
        return {f[0] for f in self.frames if f[1] == frame or rx.search(f[1])}

    def lus_lines(self, pattern, frame=None):
        rx = re.compile(pattern)
        allowed = self.allowed_frames(frame) if frame is not None else None
        return [
            f"({lu[0]}) {lu[1]} in {self.frame_by_id[lu[2]][1]}"
            for lu in self.lus
            if rx.search(lu[1]) and (allowed is None or lu[2] in allowed)
        ]

    def fes_lines(self, pattern=None, frame=None):
        rx = re.compile(pattern) if pattern is not None else None
        allowed = self.allowed_frames(frame) if frame is not None else None
        lines = []
        for f in self.frames:
            if allowed is not None and f[0] not in allowed:
                continue
            for fe_id, name, core_type in sorted(f[2]):
                if rx is None or rx.search(name):
                    lines.append(f"({fe_id}) {name} [{core_type}] in {f[1]}")
        return lines

    def frames_lines(self, pattern):
        rx = re.compile(pattern)
        return [f"({f[0]}) {f[1]}" for f in self.frames if rx.search(f[1])]

    def exemplars_lines(self, pattern):
        rx = re.compile(pattern)
        return [
            f"({sent[0]}) {sent[1]}"
            for lu in self.lus
            if rx.search(lu[1])
            for sent in sorted(self.exemplars.get(lu[0], []))
        ]

    def relation_lines(self, frame_id):
        lines = []
        for _, rtype, sup, sub, sup_id, sub_id, _ in self.relations:
            if frame_id in (sup_id, sub_id):
                sup_role, sub_role = self.roles[rtype]
                lines.append(f"<{sup_role}={sup} -- {rtype} -> {sub_role}={sub}>")
        return lines

    # ---------------------------------------------------------------- displays

    def frame_display_ok(self, out, name):
        fid, _, fes, lu_ids, n_semtypes = self.frame_by_name[name]
        lines = out.split("\n")
        relations = self.relation_lines(fid)
        if not lines or lines[0] != f"frame ({fid}): {name}":
            return False
        expected = [
            f"[semTypes] {n_semtypes} semantic types",
            f"[frameRelations] {len(relations)} frame relations",
            *("  " + line for line in relations),
            f"[lexUnit] {len(lu_ids)} lexical units",
            f"[FE] {len(fes)} frame elements",
        ]
        at = 0
        for want in expected:            # in this order, each exactly once
            try:
                at = lines.index(want, at) + 1
            except ValueError:
                return False
        return True

    def lu_display_ok(self, out, lu_id):
        _, name, frame_id, count, subcorpora = self.lu_by_id[lu_id]
        lines = out.split("\n")
        frame_name = self.frame_by_id[frame_id][1]
        expected = [
            f"lexical unit ({lu_id}): {name}",
            f"[frame] {frame_name}({frame_id})",
            f"[sentenceCount] annotated={count} total={count}",
            f"[subCorpus] {len(subcorpora)} subcorpora",
        ]
        if subcorpora:
            expected.append("  " + ", ".join(sorted(subcorpora)))
        return all(line in lines for line in expected) and lines[0] == expected[0]

    def doc_display_ok(self, out, doc_id):
        _, name, corpus, sentences = self.doc_by_id[doc_id]
        lines = out.split("\n")
        expected = [f"full-text document ({doc_id}): {name}", "",
                    f"[corpusName] {corpus}"]
        header = f"[sentence] {plural(len(sentences), 'sentence')}"
        if lines[:3] != expected or header not in lines:
            return False
        head = lines.index(header)
        body = lines[head + 1:-1]
        return body == [f"[{k}] {sent[1]}" for k, sent in enumerate(sentences)]

    def exemplar_display_ok(self, out, lu_id, k):
        sent_id, text, targets, overt, _ = self.exemplars[lu_id][k]
        name = self.lu_by_id[lu_id][1]
        frame_name = self.frame_by_id[self.lu_by_id[lu_id][2]][1]
        lines = out.split("\n")
        if lines[0] != f"exemplar sentence ({sent_id}):":
            return False
        if f"[LU] ({lu_id}) {name} in {frame_name}" not in lines:
            return False
        return marker_columns(out, text) == {
            "*": span_columns(targets), "-": span_columns(overt)}

    def exemplar_annoset_ok(self, out, lu_id, k):
        sent_id, text, targets, overt, _ = self.exemplars[lu_id][k]
        lines = out.split("\n")
        if lines[0] != f"annotation set ({sent_id * 10 + 2}):":
            return False
        return marker_columns(out, text) == {
            "*": span_columns(targets), "-": span_columns(overt)}

    def ft_sentence_display_ok(self, out, doc_id, k):
        _, doc_name, _, sentences = self.doc_by_id[doc_id]
        sent_id, text, asets = sentences[k]
        lines = out.split("\n")
        if lines[0] != f"full-text sentence ({sent_id}) in {doc_name}:":
            return False
        targets = [span for aset in asets for span in aset[5]]
        return marker_columns(out, text) == {"*": span_columns(targets), "-": set()}

    def ft_annoset_ok(self, out, doc_id, k, j):
        sent_id, text, asets = self.doc_by_id[doc_id][3][k]
        _, lu_id, lu_name, frame_name, status, targets, overt = asets[j - 1]
        lines = out.split("\n")
        if f"[status] {status}" not in lines or f"[LU] ({lu_id}) {lu_name}" not in lines:
            return False
        return marker_columns(out, text) == {
            "*": span_columns(targets), "-": span_columns(overt)}

    def semtype_display_ok(self, out, name):
        st_id = self.semtypes[name][0]
        return out.split("\n")[0] == f"semantic type ({st_id}): {name}"

    # ---------------------------------------------------------------- sweep

    def sweep_units(self):
        """[(kind, ID, [(sentence ID, text, targets, FE)])] in sents() order:
        annotated LUs by ID, then documents by ID."""
        units = []
        for lu in self.lus:
            sents = self.exemplars.get(lu[0])
            if sents:
                units.append(("lu", lu[0], [
                    (s[0], s[1], [tuple(t) for t in s[2]],
                     ([tuple(t) for t in s[3]], s[4]))
                    for s in sorted(sents)
                ]))
        for doc_id, _, _, sentences in self.documents:
            if sentences:
                units.append(("doc", doc_id, [
                    (s[0], s[1], [[tuple(t) for t in a[5]] for a in s[2]],
                     [None if a[4] == "UNANN" else [tuple(t) for t in a[6]] for a in s[2]])
                    for s in sentences
                ]))
        return units
