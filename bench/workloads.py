"""The three workloads: one-shot CLI calls, a warm browsing session, a sweep.

Each workload is one closed-loop client (one process, one thread) that
sends its next operation when the previous one has returned.  Inputs come
from the seed and the generator's manifest; every output is checked against
the manifest (see ``oracle.py``), and an operation whose output is wrong
counts as failed.

A workload returns a ``Result``: the operation latencies by kind, the set-up
times, and counters.  ``run.py`` turns it into metrics.
"""

import bisect
import gc
import io
import os
import random
import re
import resource
import time

from oracle import Manifest

clock = time.perf_counter

# The popularity rank -> size bin map is fixed, so corpora of different seeds
# put equally costly items at the same popularity rank; the seed picks which
# item of a bin is used.
RANK_STREAM = "framelex-bench:ranks"


# A fixed task of the same kinds of work as framelex's: an expat parse, records
# built as dicts and lists, and display lines painted into character lists,
# joined and stripped.  It is timed every CALIBRATE_EVERY seconds between
# operations; run.py scales each operation's time by the calibration times
# nearest to it.
CALIBRATION_XML = ("<root>" + "".join(
    f'<row ID="{i}" name="item{i}" kind="k{i % 7}"><text>word {i} of the row</text></row>'
    for i in range(100)) + "</root>").encode()
CALIBRATE_EVERY = 0.003


def calibration_task():
    from xml.etree import ElementTree

    rows = {}
    for elt in ElementTree.fromstring(CALIBRATION_XML):
        rows[int(elt.get("ID"))] = {"name": elt.get("name"), "attrs": dict(elt.attrib),
                                    "text": elt.find("text").text.split()}
    lines = []
    for key, row in rows.items():
        text = " ".join(row["text"] * 3)
        marker = [" "] * len(text)
        for start in range(0, len(text), 7):
            for i, ch in enumerate("-" * 5):
                marker[start + i if start + i < len(marker) else 0] = ch
        lines.append(f"[{key}] {row['name']:<12} {text}")
        lines.append("".join(marker).rstrip())
    return len("\n".join(lines))


class Result:
    """What one workload run measured, with timestamps for normalisation."""

    def __init__(self):
        self.ops = []            # (end time, kind, seconds)
        self.setup = []          # (end time, seconds) per set-up repetition
        self.calibration = []    # (end time, seconds) per calibration task
        self.attempted = 0
        self.failed = 0
        self.notes = {}          # figures printed for information only
        self.rss_base = None     # resident bytes once the benchmark's own data is loaded
        self.maxrss_base = None  # the process's peak resident bytes at that moment

    def record(self, kind, seconds, ok=True, at=None):
        self.ops.append((clock() if at is None else at, kind, seconds))
        self.attempted += 1
        self.failed += not ok

    def calibrate(self, force=False):
        """Time the calibration task, at most every CALIBRATE_EVERY seconds.

        The collector is off meanwhile: a collection of the program's heap
        must not be mistaken for a slow machine."""
        now = clock()
        if force or not self.calibration or now - self.calibration[-1][0] >= CALIBRATE_EVERY:
            enabled = gc.isenabled()
            gc.disable()
            try:
                calibration_task()
            finally:
                if enabled:
                    gc.enable()
            done = clock()
            self.calibration.append((done, done - now))


def settle(result):
    """Collect, then move every live object (the manifest, expected results,
    the benchmark's own tables) out of the collector's reach, so that garbage
    collections in the timed code walk the program's objects only.

    The resident set at this point is the run's memory baseline: what the
    process holds above it later is the program's (see run.py)."""
    gc.collect()
    gc.freeze()
    with open("/proc/self/statm") as statm:
        result.rss_base = int(statm.read().split()[1]) * resource.getpagesize()
    result.maxrss_base = max_rss()


def max_rss():
    """The process's peak resident set so far, in bytes (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def binned(items, n, rng, key):
    """``n`` size bins of ``items`` sorted by ``key``; one seeded pick per
    bin, returned in the fixed rank order."""
    items = sorted(items, key=key)
    picks = []
    for b in range(n):
        lo, hi = b * len(items) // n, (b + 1) * len(items) // n
        picks.append(items[rng.randrange(lo, max(hi, lo + 1))])
    order = list(range(n))
    random.Random(RANK_STREAM).shuffle(order)
    return [picks[b] for b in order]


# ------------------------------------------------------------ patterns


class Patterns:
    """Seeded regular expressions with bounded result sizes."""

    def __init__(self, manifest, rng):
        self.m = manifest
        self.rng = rng
        self.lu_names = sorted((lu[1], lu[0]) for lu in manifest.lus)
        self.keys = [name for name, _ in self.lu_names]

    def _prefix_matches(self, prefix):
        lo = bisect.bisect_left(self.keys, prefix)
        hi = bisect.bisect_left(self.keys, prefix + "￿")
        return [lu_id for _, lu_id in self.lu_names[lo:hi]]

    def lu_prefix(self, max_matches=25, max_sentences=None, annotated=False):
        """``^prefix`` of some LU's lemma matching 2..max_matches LUs, and
        the IDs of the LUs it matches."""
        m = self.m
        pool = [lu for lu in m.lus if lu[3]] if annotated else m.lus
        while True:
            lemma = self.rng.choice(pool)[1].rpartition(".")[0]
            for k in range(2, len(lemma) + 1):
                ids = self._prefix_matches(lemma[:k])
                if len(ids) > max_matches:
                    continue
                sentences = sum(m.lu_by_id[i][3] for i in ids)
                if len(ids) >= 2 and (max_sentences is None or sentences <= max_sentences):
                    return "^" + re.escape(lemma[:k]), ids
                break

    def frame_prefix(self, max_matches=20):
        names = sorted(f[1] for f in self.m.frames)
        while True:
            name = self.rng.choice(names)
            for k in range(3, len(name) + 1):
                lo = bisect.bisect_left(names, name[:k])
                hi = bisect.bisect_left(names, name[:k] + "￿")
                if hi - lo <= max_matches:
                    return "^" + name[:k]

    def fe_prefix(self, max_matches=400):
        counts = {}
        for f in self.m.frames:
            for _, name, _ in f[2]:
                counts[name] = counts.get(name, 0) + 1
        names = sorted(counts)
        while True:
            name = self.rng.choice(names)
            for k in range(3, len(name) + 1):
                total = sum(c for n, c in counts.items() if n.startswith(name[:k]))
                if total <= max_matches:
                    return "^" + name[:k]


# ------------------------------------------------------------ cli_oneshot

# One round of one-shot calls; every run attempts whole rounds.
CLI_ROUND = ("frame", "lu", "doc", "lus", "lu", "doc", "fes", "frame",
             "lu", "doc", "relations", "lu", "doc", "exemplars")
CLI_BINS = 16


def cli_oneshot(ctx, seconds, tracer=None):
    """Fresh ``cli.run`` per call, as from a shell: every touch is a miss."""
    from framelex import cli, open_lexicon

    m, rng = ctx.manifest, random.Random(f"{ctx.seed}:cli")
    data = m.data_dir
    result = Result()
    patterns = Patterns(m, rng)
    by_size = {
        "frame": sorted(m.frames, key=lambda f: (len(f[3]), f[0])),
        "lu": sorted((lu for lu in m.lus if lu[3]), key=lambda lu: (lu[3], lu[0])),
        "doc": sorted(m.documents, key=lambda d: (len(d[3]), d[0])),
    }
    plain = [lu for lu in m.lus if not lu[3]]
    settle(result)
    for _ in range(5):
        gc.collect()
        result.calibrate(force=True)
        t0 = clock()
        open_lexicon(data).store.lu_index()
        result.setup.append((clock(), clock() - t0))

    def stratified(kind, slot):
        """Calls of a kind cycle through its size bins, so every run sees
        the same spread of file sizes."""
        items = by_size[kind]
        b = slot % CLI_BINS
        lo, hi = b * len(items) // CLI_BINS, (b + 1) * len(items) // CLI_BINS
        return items[rng.randrange(lo, max(hi, lo + 1))]

    def make_call(kind, slot):
        """(argv, check of the output) for one call."""
        if kind == "frame":
            name = stratified("frame", slot)[1]
            return ["frame", name], lambda out: m.frame_display_ok(out, name)
        if kind == "lu":
            # Three of four LU calls show an LU that has an exemplar file.
            lu = stratified("lu", slot) if slot % 4 else rng.choice(plain)
            return ["lu", str(lu[0])], lambda out: m.lu_display_ok(out, lu[0])
        if kind == "doc":
            doc_id = stratified("doc", slot)[0]
            return ["doc", str(doc_id)], lambda out: m.doc_display_ok(out, doc_id)
        if kind == "lus":
            pat, ids = patterns.lu_prefix()
            if slot % 2:
                frame = m.frame_by_id[m.lu_by_id[ids[0]][2]][1]
                want = lines(m.lus_lines(pat, frame))
                return ["lus", pat, "--frame", frame], lambda out: out == want
            want = lines(m.lus_lines(pat))
            return ["lus", pat], lambda out: out == want
        if kind == "fes":
            frame = rng.choice(m.frames)[1]
            want = lines(m.fes_lines(frame=frame))
            return ["fes", "--frame", frame], lambda out: out == want
        if kind == "relations":
            frame = rng.choice(m.frames)
            want = lines(m.relation_lines(frame[0]))
            return ["relations", "--frame", frame[1]], lambda out: out == want
        if kind == "exemplars":
            pat, _ = patterns.lu_prefix(max_sentences=120, annotated=True)
            want = lines(m.exemplars_lines(pat))
            return ["exemplars", pat], lambda out: out == want
        raise ValueError(kind)

    # The lexicon each call opens, so its fileAccessLog can be checked.
    opened = []
    original_open = cli.open_lexicon

    def capture_open(*args):
        opened.append(original_open(*args))
        return opened[-1]

    slots = [CLI_ROUND[:i].count(kind) for i, kind in enumerate(CLI_ROUND)]
    cli.open_lexicon = capture_open
    if tracer is not None:
        tracer.install()
    try:
        start = clock()
        rounds = 0
        while True:
            for kind, slot in zip(CLI_ROUND, slots):
                argv, check = make_call(kind, rounds * CLI_ROUND.count(kind) + slot)
                out, err = io.StringIO(), io.StringIO()
                opened.clear()
                # A one-shot process starts with no garbage of earlier calls.
                gc.collect()
                result.calibrate(force=True)
                t0 = clock()
                code = cli.run(["--data", data] + argv, stdout=out, stderr=err)
                elapsed = clock() - t0
                log = opened[0].store.fileAccessLog if opened else []
                ok = code == 0 and len(set(log)) == len(log) and check(out.getvalue())
                result.record(kind, elapsed, ok)
            rounds += 1
            if clock() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        cli.open_lexicon = original_open
    result.notes["rounds"] = rounds
    return result


def lines(items):
    return "".join(item + "\n" for item in items)


# ------------------------------------------------------------ browse_warm

# Kinds of drill-down groups in one round of the session.
# Three of its 21 commands are pattern scans, so op_p90_ms lies inside the
# scans rather than on the edge between scans and point displays.
BROWSE_ROUND = ("frame", "lu", "doc", "scan", "lu", "frame", "doc", "scan", "semtype", "lu",
                "scan")
POOL = {"frame": 30, "lu": 30, "doc": 20, "semtype": 10}


class ScriptedStdin:
    """The REPL's stdin.  ``readline`` marks where each command ends and the
    next begins; between the two marks it collects and checks the finished
    command's output, so checking is outside the timed interval."""

    def __init__(self, out, next_command, finished):
        self.out = out
        self.next_command = next_command
        self.finished = finished
        self.started = None

    def readline(self):
        now = clock()
        text = self.out.getvalue()
        self.out.seek(0)
        self.out.truncate()
        if self.started is not None:
            # The command's output, without the prompt that follows it.
            self.finished(now, now - self.started, text[: text.rfind("\n") + 1])
        line = self.next_command()
        self.started = clock()
        return line


def browse_pool(m, rng):
    """Seeded working set: drill-down groups by kind, in popularity order."""
    pool = {}
    frames = binned(m.frames, POOL["frame"], rng, key=lambda f: (len(f[3]), f[0]))
    pool["frame"] = [
        [(f"frame {f[1]}", lambda out, n=f[1]: m.frame_display_ok(out, n))] for f in frames
    ]
    annotated = [lu for lu in m.lus if lu[3]]
    lus = binned(annotated, POOL["lu"], rng, key=lambda lu: (lu[3], lu[0]))
    pool["lu"] = []
    for lu in lus:
        k = rng.randrange(lu[3])
        pool["lu"].append([
            (f"lu {lu[0]}", lambda out, i=lu[0]: m.lu_display_ok(out, i)),
            (f"exemplar {k}", lambda out, i=lu[0], k=k: m.exemplar_display_ok(out, i, k)),
            ("annoset 1", lambda out, i=lu[0], k=k: m.exemplar_annoset_ok(out, i, k)),
        ])
    docs = binned(m.documents, POOL["doc"], rng, key=lambda d: (len(d[3]), d[0]))
    pool["doc"] = []
    for doc in docs:
        k = rng.randrange(len(doc[3]))
        j = rng.randrange(1, len(doc[3][k][2]) + 1)
        pool["doc"].append([
            (f"doc {doc[0]}", lambda out, d=doc[0]: m.doc_display_ok(out, d)),
            (f"sent {k}", lambda out, d=doc[0], k=k: m.ft_sentence_display_ok(out, d, k)),
            (f"annoset {j}", lambda out, d=doc[0], k=k, j=j: m.ft_annoset_ok(out, d, k, j)),
        ])
    names = sorted(m.semtypes)
    pool["semtype"] = [
        [(f"semtype {n}", lambda out, n=n: m.semtype_display_ok(out, n))]
        for n in rng.sample(names, min(POOL["semtype"], len(names)))
    ]
    patterns = Patterns(m, rng)
    scans = []
    for _ in range(5):
        pat, _ = patterns.lu_prefix()
        scans.append([(f"lus {pat}", lambda out, p=pat: out == lines(m.lus_lines(p)))])
        pat, _ = patterns.lu_prefix(max_sentences=120, annotated=True)
        scans.append([(f"exemplars {pat}", lambda out, p=pat: out == lines(m.exemplars_lines(p)))])
        pat = patterns.frame_prefix()
        scans.append([(f"frames {pat}", lambda out, p=pat: out == lines(m.frames_lines(p)))])
        pat = patterns.fe_prefix()
        scans.append([(f"fes {pat}", lambda out, p=pat: out == lines(m.fes_lines(p)))])
    pool["scan"] = scans
    return pool


def browse_warm(ctx, seconds, tracer=None):
    """One long-lived lexicon driven through ``cli.repl``: every touch is a hit."""
    from framelex import cli, open_lexicon, render

    m, rng = ctx.manifest, random.Random(f"{ctx.seed}:browse")
    pool = browse_pool(m, rng)
    groups = [(kind, g) for kind in ("frame", "lu", "doc", "semtype", "scan")
              for g in range(len(pool[kind]))]
    options = render.DisplayOptions()
    result = Result()
    settle(result)

    # Set-up: open and pre-touch every command of the working set, three
    # times on fresh lexicons; the last lexicon is kept for the session.
    lexicon = None
    for _ in range(3):
        lexicon = None
        gc.collect()
        result.calibrate(force=True)
        script = iter([cmd + "\n" for kind, g in groups for cmd, _ in pool[kind][g]])
        outputs = []
        out = io.StringIO()
        stdin = ScriptedStdin(out, lambda: next(script, ""), lambda at, t, text: outputs.append(text))
        t0 = clock()
        lexicon = open_lexicon(m.data_dir)
        cli.repl(lexicon, options, stdin, out)
        result.setup.append((clock(), clock() - t0))
        result.calibrate(force=True)
    # The working set's displays, checked once against the manifest.
    flat = [(kind, g, i, check) for kind, g in groups
            for i, (_, check) in enumerate(pool[kind][g])]
    verified = {
        (kind, g, i): text if check(text) else None
        for (kind, g, i, check), text in zip(flat, outputs)
    }
    log = lexicon.store.fileAccessLog
    setup_ok = len(set(log)) == len(log) and len(outputs) == len(flat)
    reads_before = len(log)

    # Session: whole rounds of groups, each drawn Zipf-like within its kind.
    cum_weights = {}
    for kind, items in pool.items():
        total, cum_weights[kind] = 0.0, []
        for rank in range(len(items)):
            total += 1.0 / (rank + 1)
            cum_weights[kind].append(total)
    pending = []
    current = [None]
    state = {"rounds": 0, "start": None}

    def next_command():
        result.calibrate()
        if not pending:
            if state["start"] is None:
                state["start"] = clock()
            elif clock() - state["start"] >= seconds:
                return ""
            for kind in BROWSE_ROUND:
                g = rng.choices(range(len(pool[kind])), cum_weights=cum_weights[kind])[0]
                pending.extend((kind, g, i, cmd) for i, (cmd, _) in enumerate(pool[kind][g]))
            pending.reverse()
            state["rounds"] += 1
        current[0] = pending.pop()
        return current[0][3] + "\n"

    def finished(at, seconds_taken, text):
        kind, g, i, cmd = current[0]
        want = verified.get((kind, g, i))
        ok = setup_ok and want is not None and text == want
        result.record(cmd.split(" ")[0], seconds_taken, ok, at=at)

    out = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        cli.repl(lexicon, options, ScriptedStdin(out, next_command, finished), out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.notes["rounds"] = state["rounds"]
    result.notes["session_file_reads"] = len(log) - reads_before
    result.notes["working_set"] = {kind: len(items) for kind, items in pool.items()}
    return result


# ------------------------------------------------------------ corpus_sweep


def corpus_sweep(ctx, seconds, tracer=None):
    """Fresh lexicon, ``sents()`` over the whole corpus, light consumption.

    One operation is one exemplar file's or one document's sentences, timed
    from the request for its first sentence to the consumption of its last.
    Whole sweeps repeat until the run's time is up.
    """
    from framelex import open_lexicon

    m = ctx.manifest
    result = Result()
    expected = m.sweep_units()
    settle(result)
    for _ in range(5):
        gc.collect()
        result.calibrate(force=True)
        t0 = clock()
        open_lexicon(m.data_dir).store.lu_index()
        result.setup.append((clock(), clock() - t0))
    sizes = {}
    sweeps = sentences = 0
    sweep_time = bytes_read = 0.0
    start = clock()
    while True:
        # The last sweep's observed sentences hold the program's records:
        # kept alive, they would lengthen the next sweep's collections.
        lexicon = observed = None
        gc.collect()
        lexicon = open_lexicon(m.data_dir)
        if tracer is not None:
            tracer.install()
        try:
            observed = sweep_once(lexicon, result.calibrate)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for i in range(max(len(observed), len(expected))):
            want = expected[i] if i < len(expected) else None
            if i >= len(observed):
                result.attempted += 1
                result.failed += 1
                continue
            key, taken, got, at = observed[i]
            ok = (want is not None and key == want[:2] and len(got) == len(want[2])
                  and all(map(same_sentence, got, want[2])))
            result.record(key[0], taken, ok, at=at)
            sweep_time += taken
            sentences += len(got)
        log = lexicon.store.fileAccessLog
        if len(set(log)) != len(log):
            result.failed += 1
        for relpath in log:
            if relpath not in sizes:
                sizes[relpath] = os.path.getsize(os.path.join(m.data_dir, relpath))
            bytes_read += sizes[relpath]
        sweeps += 1
        if clock() - start >= seconds:
            break
    result.notes.update(sweeps=sweeps, sents_per_s=sentences / sweep_time,
                        xml_mb_per_s=bytes_read / 1e6 / sweep_time)
    return result


def sweep_once(lexicon, calibrate):
    """One sweep: [(unit key, seconds, [sentence facts], end)] in yield order.

    A unit's time is the time spent in ``next()`` for its sentences plus the
    reads of their Target spans and FE triples; the checks come afterwards.
    """
    observed = []
    it = lexicon.sents()
    while True:
        t0 = clock()
        try:
            sent = next(it)
        except StopIteration:
            break
        if sent["_type"] == "sentence":
            key = ("lu", sent["LU"]["ID"])
            got = (sent["ID"], sent["text"], sent["Target"], sent["FE"])
        else:
            key = ("doc", sent["doc"]["ID"])
            sets = sent["annotationSet"][1:]
            got = (sent["ID"], sent["text"], [a.get("Target") for a in sets],
                   [a.get("FE") for a in sets])
        t1 = clock()
        if not observed or observed[-1][0] != key:
            observed.append([key, 0.0, [], t1])
        observed[-1][1] += t1 - t0
        observed[-1][2].append(got)
        observed[-1][3] = t1
        calibrate()
    return observed


def same_sentence(got, want):
    sent_id, text, targets, fe = got
    if (sent_id, text) != want[:2]:
        return False
    if isinstance(fe, tuple):            # exemplar: the frame set's mirrored layers
        return targets == want[2] and fe[0] == want[3][0] and fe[1] == want[3][1]
    return targets == want[2] and [
        None if f is None else f[0] for f in fe] == want[3]


WORKLOADS = {
    "cli_oneshot": cli_oneshot,
    "browse_warm": browse_warm,
    "corpus_sweep": corpus_sweep,
}


class Context:
    def __init__(self, corpus_dir, seed):
        self.manifest = Manifest(corpus_dir)
        self.seed = seed
