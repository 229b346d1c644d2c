"""The verdict corpus's comparison, on hand-written records."""

import json
import os

import pytest

from conftest import load_script


@pytest.fixture
def corpus():
    return load_script("tools/corpus.py")


def test_import_leaves_the_environment_unchanged():
    # the BLAS threads are pinned by main, before a corpus run loads numpy,
    # so a process that imports the tool starts its subprocesses unpinned
    before = dict(os.environ)
    load_script("tools/corpus.py")
    assert dict(os.environ) == before


def run(code, sha256="same", **booleans):
    return {"exit": code, "booleans": booleans, "sha256": sha256}


BEFORE = {
    "runs": {
        "bytes-change": run(0, sha256="a", passed=True),
        "exit-change": run(0, passed=True),
        "flip": run(0, passed=True, **{"a.passed": True}),
        "key-moved": run(0, passed=True, **{"old.passed": True}),
        "no-report": run(2, sha256=None),
        "report-gone": run(0, passed=True),
        "same": run(1, passed=False),
        "only-before": run(0),
    }
}
AFTER = {
    "runs": {
        "bytes-change": run(0, sha256="b", passed=True),
        "exit-change": run(1, passed=False),
        "flip": run(0, passed=False, **{"a.passed": True}),
        "key-moved": run(0, passed=True, **{"new.passed": False}),
        "no-report": run(2, sha256=None),
        "report-gone": run(2, sha256=None),
        "same": run(1, passed=False),
        "only-after": run(0),
    }
}


def test_compare_lists_each_difference_then_the_tally(corpus):
    assert corpus.compare(BEFORE, AFTER) == [
        "bytes-change: report bytes differ",
        "exit-change: exit 0 -> 1",
        "exit-change: passed True -> False",
        "flip: passed True -> False",
        "key-moved: new.passed absent -> False",
        "key-moved: old.passed True -> absent",
        "only-after: only in B",
        "only-before: only in A",
        "report-gone: exit 0 -> 2",
        "report-gone: passed True -> absent",
        "report-gone: report bytes differ",
        "1 runs: new.passed absent -> False",
        "1 runs: old.passed True -> absent",
        "2 runs: passed True -> False",
        "1 runs: passed True -> absent",
        "2 runs: report bytes differ",
    ]


def test_main_prints_the_lines_and_exits_by_agreement(corpus, tmp_path, capsys):
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps(BEFORE))
    after.write_text(json.dumps(AFTER))
    assert corpus.main(["--compare", str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == corpus.compare(BEFORE, AFTER)
    assert corpus.main(["--compare", str(before), str(before)]) == 0
    assert capsys.readouterr().out == "8 runs agree\n"
