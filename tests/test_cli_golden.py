"""Byte-identity of the command line: every entry of tests/golden/cli.json
(written by tests/make_cli_golden.py) must print the same stdout and
stderr and return the same exit code."""

import json

import pytest

from make_cli_golden import GOLDEN_FILE, cases, resolve, run

ENTRIES = json.loads(GOLDEN_FILE.read_text())


def test_generator_matches_golden_file():
    # regenerating the golden file would neither add nor drop a command line
    assert [e["argv"] for e in ENTRIES] == cases()


def test_golden_covers_every_subcommand():
    commands = {e["argv"][0] for e in ENTRIES}
    assert commands == {"classify", "reduce", "rational-reduce", "guess",
                        "verify", "eval", "sum"}


def test_cli_matches_golden(monkeypatch):
    monkeypatch.delenv("HOLOREDUCE_PRECISION_BITS", raising=False)
    mismatched = []
    for entry in ENTRIES:
        got = run(resolve(entry["argv"]))
        want = {k: entry[k] for k in ("exit", "stdout", "stderr")}
        if got != want:
            mismatched.append((entry["argv"], want, got))
    if mismatched:
        argv, want, got = mismatched[0]
        pytest.fail(f"{len(mismatched)} of {len(ENTRIES)} command lines differ;"
                    f" first: {argv}\nwant {want}\ngot  {got}")
