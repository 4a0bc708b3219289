"""Spans around framelex's public callables, recorded from outside the package.

``Tracer.install()`` replaces the callables listed in ``targets()`` with
wrappers that record a span (name, start, end, parent span) per call, keeps
the spans in memory, and ``uninstall()`` puts the originals back.  Garbage
collector pauses inside those calls arrive through ``gc.callbacks`` as spans
of their own, so a layer's self time (its span time minus its child spans)
excludes them.  Times are as measured, not normalised.

``layer_metrics()`` folds the spans into the per-layer figures the benchmark
reports, each normalised per workload operation.
"""

import gc
import inspect
import pathlib
import time
from array import array
from collections import Counter, defaultdict
from xml.etree import ElementTree

RENDERERS = (
    "render_frame", "render_lu", "render_lexicographic_sentence",
    "render_fulltext_sentence", "render_document", "render_annotation_set",
    "render_frame_element", "render_semtype",
)
PARSERS = (
    "parse_frame_index", "parse_lu_index", "parse_fulltext_index", "parse_frame_file",
    "parse_lu_file", "parse_fulltext_file", "parse_relations_file", "parse_semtypes_file",
)
STORE_LOOKUPS = ("get_frame", "get_lu", "get_document")
STORE_INDEXES = ("frame_index", "lu_index", "doc_index")

_clock = time.perf_counter


def targets():
    """(owner, attribute, span name) for every wrapped callable."""
    from framelex import cli, lexicon, records, render, store, xmlio

    out = [(cli, "build_parser", "cli.build_parser"), (cli, "run", "cli.run")]
    for klass in lexicon.FrameLexicon.__mro__[:-1]:
        for attr, value in vars(klass).items():
            if attr.startswith("_") or isinstance(value, property):
                continue
            if callable(value) or isinstance(value, classmethod):
                out.append((klass, attr, f"lexicon.{attr}"))
    for attr in STORE_LOOKUPS + STORE_INDEXES + ("frame_relations_involving",):
        out.append((store.Store, attr, f"store.{attr}"))
    for attr in PARSERS:
        out.append((xmlio, attr, f"xmlio.{attr}"))
    out.append((ElementTree, "fromstring", "xmlio.expat"))
    out.append((pathlib.Path, "read_bytes", "store.read"))
    out.append((records.Lazy, "resolve", "records.resolve"))
    for attr in RENDERERS:
        out.append((render, attr, f"render.{attr}"))
    return out


class Tracer:
    """Spans live in flat arrays, so tracing adds no objects for the cyclic
    garbage collector to walk."""

    def __init__(self):
        self.names = []                  # span name table
        self.name_of = array("H")        # per span: index into names
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack = []
        self.counts = Counter()
        self.read_under = set()  # span indexes with a file read beneath them
        self.access_logs = {}    # id(store) -> its fileAccessLog
        self._saved = []
        self._gc_start = None

    def _code(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn):
        code = self._code(name)
        stack, name_of, starts, ends, parents = (
            self.stack, self.name_of, self.starts, self.ends, self.parents)
        observe = self._observe if name.split(".")[0] in ("store", "xmlio", "render", "records") \
            or name.startswith("lexicon.") else None

        def open_span():
            index = len(starts)
            name_of.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(_clock())
            return index

        if inspect.isgeneratorfunction(fn):
            def stepping(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[index] = _clock()
                        stack.pop()
                    self.counts[name + ".results"] += 1
                    yield item
            return stepping

        # The standard-library targets count only when framelex calls them,
        # not when the benchmark itself parses or reads between operations.
        nested_only = name in ("xmlio.expat", "store.read")

        def wrapper(*args, **kwargs):
            if nested_only and not stack:
                return fn(*args, **kwargs)
            index = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()
            if observe is not None:
                observe(name, index, args, result)
            return result
        return wrapper

    def _observe(self, name, index, args, result):
        counts = self.counts
        if name == "store.read":
            counts["read.files"] += 1
            counts["read.bytes"] += len(result)
            self.read_under.update(self.stack)
        elif name.startswith("xmlio.parse_"):
            counts["parse.bytes"] += len(args[0])
        elif name.startswith("render."):
            counts["render.chars"] += len(result)
        elif name == "records.resolve":
            counts["lazy_resolves"] += 1
        elif name.startswith("store."):
            store = args[0]
            self.access_logs[id(store)] = store.fileAccessLog
            if name[6:] in STORE_INDEXES and self._in_lexicon():
                counts["index.rows"] += len(result)
            if name[6:] in STORE_LOOKUPS:
                counts["lookups"] += 1
                counts["lookup.misses"] += index in self.read_under
        elif isinstance(result, (list, dict)) and not self._in_lexicon():
            counts[name + ".results"] += len(result)

    def _in_lexicon(self):
        names, name_of = self.names, self.name_of
        return any(names[name_of[i]].startswith("lexicon.") for i in self.stack)

    def _gc(self, phase, info):
        # Only collections inside a framelex call count; the benchmark's own
        # gc.collect() between operations runs outside every span.
        if phase == "start":
            self._gc_start = _clock() if self.stack else None
        elif self._gc_start is not None:
            self.name_of.append(self._code("gc.pause"))
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.starts.append(self._gc_start)
            self.ends.append(_clock())
            self.counts[f"gc.gen{info['generation']}"] += 1
            self._gc_start = None

    # ------------------------------------------------------------ install

    def install(self):
        from framelex import records

        for owner, attr, name in targets():
            raw = vars(owner)[attr]
            if owner is records.Lazy:
                # Only a first resolution does work; later calls return the value.
                traced = self._wrap(name, raw)

                def replacement(lazy, _traced=traced, _raw=raw):
                    return _raw(lazy) if lazy._done else _traced(lazy)
            elif isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        gc.callbacks.append(self._gc)

    def uninstall(self):
        gc.callbacks.remove(self._gc)
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # ------------------------------------------------------------ report

    def layer_metrics(self, ops):
        """Per-layer figures, each per workload operation unless a ratio."""
        total = defaultdict(float)
        child = defaultdict(float)
        spans = list(zip(self.name_of, self.starts, self.ends, self.parents))
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for index, (code, start, end, _) in enumerate(spans):
            name = self.names[code]
            duration = end - start
            total[name] += duration
            layer = name.split(".")[0]
            if name == "xmlio.expat":
                layer = "expat"
            elif name == "store.read":
                layer = "read"
            self_time[layer] += duration - child[index]
        counts = self.counts
        per = 1000.0 / max(ops, 1)
        m = {
            "cli.build_parser.ms": total["cli.build_parser"] * per,
            "cli.self.ms": self_time["cli"] * per,
            "lexicon.self.ms": self_time["lexicon"] * per,
            "lexicon.rows_per_result": counts["index.rows"] / max(
                sum(v for k, v in counts.items() if k.startswith("lexicon.")), 1),
            "store.self.ms": self_time["store"] * per,
            "store.read.ms": total["store.read"] * per,
            "store.files_read": counts["read.files"] / max(ops, 1),
            "store.bytes_read": counts["read.bytes"] / max(ops, 1),
            "store.hit_ratio": 1.0 - counts["lookup.misses"] / max(counts["lookups"], 1),
            "store.files_reread": sum(
                len(log) - len(set(log)) for log in self.access_logs.values()),
            "store.frame_relations_involving.ms": total["store.frame_relations_involving"] * per,
        }
        for parser in PARSERS:
            m[f"xmlio.{parser}.ms"] = total[f"xmlio.{parser}"] * per
        parse_time = sum(total[f"xmlio.{p}"] for p in PARSERS)
        m["xmlio.expat.ms"] = total["xmlio.expat"] * per
        m["xmlio.self.ms"] = self_time["xmlio"] * per
        m["xmlio.mb_per_s"] = counts["parse.bytes"] / 1e6 / parse_time if parse_time else 0.0
        m["records.lazy_resolves"] = counts["lazy_resolves"] / max(ops, 1)
        for renderer in RENDERERS:
            m[f"render.{renderer}.ms"] = total[f"render.{renderer}"] * per
        m["render.chars"] = counts["render.chars"] / max(ops, 1)
        m["gc.pause.ms"] = total["gc.pause"] * per
        m["gc.gen2"] = counts["gc.gen2"] / max(ops, 1)
        return m

    def span_records(self, limit):
        return [
            {"name": self.names[n], "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.name_of[:limit], self.starts, self.ends, self.parents)
        ]
