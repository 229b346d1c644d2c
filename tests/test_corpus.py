"""The verdict corpus: its comparison on hand-written records, and the
942-run record pinned in ``tests/corpus_record.json``.

After a change that moves a verdict on purpose, regenerate the record with

    python3 tools/corpus.py tests/corpus_record.json --pinned

and list the ``--compare`` lines of the runs that moved with the change.
"""

import json
import os
from pathlib import Path

import pytest

from conftest import load_script

RECORD = Path(__file__).resolve().with_name("corpus_record.json")


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


def test_compare_reads_records_without_report_bytes(corpus):
    pinned = {"runs": {"a": {"exit": 1, "booleans": {"passed": False}, "margin": 0.5}}}
    assert corpus.compare(pinned, pinned) == []
    assert corpus.compare(pinned, BEFORE) == ["a: only in A"] + [f"{run}: only in B" for run in sorted(BEFORE["runs"])]


def test_pinned_keeps_the_exit_code_and_the_false_booleans(corpus):
    record = {"runs": {"a": {"exit": 1, "booleans": {"x.passed": True, "passed": False}, "sha256": "f", "margin": 0.123456}}}
    assert corpus.pinned(record) == {"runs": {"a": {"exit": 1, "booleans": {"passed": False}, "margin": 0.123}}}


def test_smallest_margin_reads_every_positive_bound(corpus):
    report = {
        "a": {"bound": 2.0, "margin": -1.0},  # failed: residual 3
        "b": [{"bound": 1.0, "margin": 0.75}, {"bound": 0.0, "margin": 0.0}],  # an *_agree gate has no ratio
        "c": {"bound": 1.0, "margin": float("nan")},
    }
    assert corpus.smallest_margin(report) == 0.5
    assert corpus.smallest_margin({"passed": True}) is None


@pytest.fixture(scope="module")
def corpus_run():
    # one in-process run of the 942 CLI invocations, about 7 s on 2 vCPUs
    corpus = load_script("tools/corpus.py")
    return corpus.pinned(corpus.run_corpus(corpus.ROOT / "src"))


def test_corpus_matches_the_record(corpus, corpus_run):
    # every exit code and every false boolean of the corpus, as recorded
    lines = corpus.compare(json.loads(RECORD.read_text(encoding="utf-8")), corpus_run)
    assert not lines, "\n".join(lines)
    # and no run's closest decision lies within 1e-3 of its bound, so a
    # rounding-level change cannot flip one
    near = {run_id: e["margin"] for run_id, e in corpus_run["runs"].items() if e["margin"] is not None and e["margin"] < 1e-3}
    assert not near, near


def test_a_changed_record_entry_names_its_run(corpus, corpus_run):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    entry = record["runs"]["z64/skew-8"]
    assert entry["exit"] == 0 and entry["booleans"]["structural.values.selfadjoint_operator.passed"] is False
    del entry["booleans"]["structural.values.selfadjoint_operator.passed"]
    record["runs"]["check/2x2x2-3"]["exit"] = 1
    assert corpus.compare(record, corpus_run) == [
        "check/2x2x2-3: exit 1 -> 0",
        "z64/skew-8: structural.values.selfadjoint_operator.passed absent -> False",
        "1 runs: structural.values.selfadjoint_operator.passed absent -> False",
    ]
