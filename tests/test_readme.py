"""README's examples run as written.

Every ``>>>`` line of README's fenced ``python`` blocks runs, block after
block, in one namespace, from the repository root.  The fences are dropped,
so a closing fence is not read as expected output.  A block whose last
example prints nothing in the block is followed by a plain fenced block with
that example's output, in which a ``...`` line stands for elided lines and
a blank line for a blank line.
"""

import doctest
import re
from pathlib import Path

import framelex

ROOT = Path(__file__).resolve().parent.parent
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _readme_tests():
    """One doctest per ``python`` block of README with ``>>>`` lines."""
    readme = (ROOT / "README.md").read_text()
    blocks = [
        (m.group(1), m.group(2), readme.count("\n", 0, m.start(2)))
        for m in FENCED.finditer(readme)
    ]
    parser = doctest.DocTestParser()
    tests = []
    for (lang, body, lineno), following in zip(blocks, blocks[1:] + [None]):
        examples = parser.get_examples(body) if lang == "python" else []
        if not examples:
            continue
        last = examples[-1]
        if not last.want and following is not None and following[0] == "":
            last.want = re.sub(r"(?m)^$", "<BLANKLINE>", following[1].rstrip("\n")) + "\n"
            last.options[doctest.ELLIPSIS] = True
        name = f"README.md:{lineno + 1}"
        tests.append(doctest.DocTest(examples, {}, name, "README.md", lineno, None))
    return tests


def test_readme_examples_run(monkeypatch):
    monkeypatch.chdir(ROOT)
    tests = _readme_tests()
    # The block that opens a release imports framelex with no prompt.
    namespace = {"framelex": framelex}
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    report = []
    for test in tests:
        test.globs = namespace
        runner.run(test, out=report.append, clear_globs=False)
    assert runner.failures == 0, "".join(report)
    assert runner.tries == sum(len(test.examples) for test in tests) > 0
    # The rendered sentence is compared, not only printed.
    wants = [example.want for test in tests for example in test.examples]
    assert any(want.startswith("exemplar sentence (929548):") for want in wants)
