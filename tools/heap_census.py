#!/usr/bin/env python3
"""Count what one whole-corpus sentence sweep leaves on the heap.

Opens the corpus at ``--data DIR``, runs ``FrameLexicon.sents()`` to the end
while keeping the lexicon alive, collects garbage until the heap settles, and
prints:

- collections per generation that the cyclic collector ran during the
  sweep, counted through ``gc.callbacks`` (framelex pauses the collector
  while it loads a file, so these run between loads);
- held MB: memory still allocated since the lexicon was opened (tracemalloc);
- the five source lines that allocated the most of that memory, each with
  its MB and its count of blocks still held;
- held MB with every frame loaded: the same, on another fresh lexicon after
  ``fes()``, which loads every frame file, as a browsing session comes to hold.
  It is measured first, before the sweep, so that nothing run earlier in the
  process moves it.  The values that ``fes()`` leaves unbuilt follow, by kind
  and key as below: every frame's ``lexUnit`` and the ``definition`` of every
  frame and FE are there until read, so a change that builds a frame's LU
  stubs or strips its definitions when the frame loads drops them;
- GC-tracked objects: ``len(gc.get_objects())`` once a full collection no
  longer lowers it, and the collections that took.  One collection is not
  enough: CPython untracks a tuple only once its items are untracked, so
  nested tuples leave the count over several passes, in an order set by
  earlier collections;
- ``Record``s by kind tag, kindless ones (subcorpora, document index rows,
  and lexemes, sentence counts, labels and layers once read) as "-".  LU
  index rows are plain tuples, so they are not counted here;
- values still unbuilt after the sweep, by kind (``Lazy``, or another
  ``Derived``) and key: raw record values that no read has built yet.  A change that
  gives each annotation set or LU a thunk object of its own again shows
  here as a ``Lazy`` count in the tens of thousands.

Usage (from the root of a checkout; stdlib only, no install needed):

    python3 tools/heap_census.py --data tests/data/fixture17
    python3 tools/heap_census.py --data bench/corpus/full-seed1/data
"""

import argparse
import gc
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from framelex import FrameLexicon, Record  # noqa: E402
from framelex.records import Derived, Lazy  # noqa: E402


def census(data_dir):
    """(held bytes, sentences, sweep seconds, collections by generation,
    tracked objects, settling collections, Records by kind, unbuilt values
    by kind and key, the five largest allocation sites of the held bytes)."""
    collections = Counter()

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    tracemalloc.start()
    lexicon = FrameLexicon.open(data_dir)
    gc.callbacks.append(count)
    start = time.perf_counter()
    try:
        sentences = sum(1 for _ in lexicon.sents())
    finally:
        seconds = time.perf_counter() - start
        gc.callbacks.remove(count)
    tracked, passes = float("inf"), 0
    while True:
        gc.collect()
        passes += 1
        previous, tracked = tracked, len(gc.get_objects())
        if tracked >= previous:
            break
    held = tracemalloc.get_traced_memory()[0]
    sites = tracemalloc.take_snapshot().statistics("lineno")[:5]
    tracemalloc.stop()
    records = [obj for obj in gc.get_objects() if isinstance(obj, Record)]
    kinds = Counter(dict.get(record, "_type", "-") for record in records)
    return held, sentences, seconds, collections, tracked, passes, kinds, unbuilt(records), sites


def unbuilt(records):
    """The values of ``records`` that no read has built yet, counted by kind
    (``Lazy``, or another ``Derived``) and key."""
    return Counter(
        ("Lazy" if isinstance(value, Lazy) else "Derived", key)
        for record in records
        for key, value in dict.items(record)
        if isinstance(value, Derived)
    )


def frames_held(data_dir):
    """(bytes still allocated by a fresh lexicon once ``fes()`` has run, the
    values of its records still unbuilt by kind and key)."""
    tracemalloc.start()
    lexicon = FrameLexicon.open(data_dir)
    lexicon.fes()
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    records = [obj for obj in gc.get_objects() if isinstance(obj, Record)]
    return held, unbuilt(records)


def print_unbuilt(counts):
    print(f"unbuilt values     {sum(counts.values())}")
    for (kind, key), count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {kind:<7} {key:<14} {count}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--data", required=True, help="corpus directory")
    args = parser.parse_args(argv)
    frames, frames_unbuilt = frames_held(args.data)
    held, sentences, seconds, collections, tracked, passes, kinds, swept_unbuilt, sites = census(
        args.data
    )
    print(f"sentences          {sentences}")
    print(f"sweep s            {seconds:.2f} (under tracemalloc)")
    counts = " ".join(f"gen{gen} {collections[gen]}" for gen in range(3))
    print(f"collections        {counts} (during the sweep)")
    print(f"held MB            {held / 1e6:.1f}, largest sites:")
    for site in sites:
        frame = site.traceback[0]
        where = Path(frame.filename).resolve()
        where = where.relative_to(ROOT) if where.is_relative_to(ROOT) else where
        print(f"  {where}:{frame.lineno:<6} {site.size / 1e6:6.2f} MB {site.count:>9} blocks")
    print(f"held MB with every frame loaded {frames / 1e6:.1f} (measured first), with")
    print_unbuilt(frames_unbuilt)
    print(f"GC-tracked objects {tracked} (after {passes} full collections)")
    print(f"Records            {sum(kinds.values())}")
    for kind, count in sorted(kinds.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {kind:<18} {count}")
    print_unbuilt(swept_unbuilt)


if __name__ == "__main__":
    main()
