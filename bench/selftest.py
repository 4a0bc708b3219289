#!/usr/bin/env python3
"""Small-scale self-test of the benchmark; about half a minute.

    python3 bench/selftest.py

Generates a tiny corpus twice with one seed and requires identical bytes,
loads every file of it through framelex, runs each workload once (traced and
untraced) with its output checks, and makes sure the checks reject wrong
output.  Exits 1 on the first failure.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gencorpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORK = BENCH / "out" / "selftest"


def check(condition, what):
    if not condition:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def main():
    import framelex

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    first, second = WORK / "a", WORK / "b"
    gencorpus.generate(7, first, "tiny")
    gencorpus.generate(7, second, "tiny")
    digest = gencorpus.tree_digest(first)
    check(digest == gencorpus.tree_digest(second), "same seed, byte-identical corpus")
    gencorpus.generate(8, second, "tiny")
    check(digest != gencorpus.tree_digest(second), "another seed, another corpus")

    m = oracle.Manifest(first)
    lex = framelex.open_lexicon(m.data_dir)
    frames = lex.frames()
    sentences = list(lex.sents())
    check(len(frames) == m.totals["frames"], "every frame file loads")
    check(len(sentences) == m.totals["exemplar_sentences"] + m.totals["fulltext_sentences"],
          "every sentence loads")
    check(len(lex.frame_relations()) == m.totals["relations"], "relation registry loads")
    check(lex.frame("Revenge").ID == 347, "Revenge keeps ID 347")
    check(len(lex.semtypes()) == len(m.semtypes), "semantic types load")
    log = lex.store.fileAccessLog
    check(len(log) == len(set(log)) == m.totals["files"], "each file read exactly once")

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ctx = workloads.Context(first, 7)
    for name, workload in workloads.WORKLOADS.items():
        result = workload(ctx, 0.3)
        check(result.attempted > 0 and result.failed == 0, f"{name}: runs and checks pass")
        metrics = run.end_to_end(result)
        check([m["name"] for m in declared["end_to_end"]] == list(metrics)
              and all(metrics[m["name"]][1] == m["unit"] for m in declared["end_to_end"]),
              f"{name}: end-to-end metrics as BENCHMARK.json declares them")
        check(all(value > 0 for value, _ in metrics.values()), f"{name}: no metric reads 0")
        _, traced, layers = run.traced(workload, ctx, 0.6, 7)
        check([m["name"] for m in declared["per_layer"]] == list(layers)
              and all(layers[m["name"]][1] == m["unit"] for m in declared["per_layer"]),
              f"{name}: per-layer metrics as BENCHMARK.json declares them")
        check(traced.failed == 0 and layers["store.files_reread"][0] == 0,
              f"{name}: traced run passes, no file re-read")

    # The checks must reject wrong output.
    frame = m.frames[0]
    good = framelex.render_frame(lex.frame(frame[0]))
    check(m.frame_display_ok(good, frame[1]), "frame check accepts the display")
    check(not m.frame_display_ok(good.replace("lexical units", "lexical unit", 1), frame[1]),
          "frame check rejects a wrong count")
    lu_id = next(lu[0] for lu in m.lus if lu[3])
    sent = lex.lu(lu_id).exemplars[0]
    shown = framelex.render_lexicographic_sentence(sent)
    check(m.exemplar_display_ok(shown, lu_id, 0), "marker check accepts the display")
    shifted = "\n".join(
        " " + line if oracle.MARKER_ROW.match(line) else line for line in shown.split("\n"))
    check(not m.exemplar_display_ok(shifted, lu_id, 0), "marker check rejects shifted markers")
    doc_id = m.documents[0][0]
    shown = framelex.render_document(lex.doc(doc_id))
    check(m.doc_display_ok(shown, doc_id), "document check accepts the display")
    headless = "\n".join(line for line in shown.split("\n") if not line.startswith("[sentence]"))
    check(not m.doc_display_ok(headless, doc_id), "document check rejects a missing header")
    shutil.rmtree(WORK)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
