"""Replay the byte-identity corpus (make.py): every command of
manifest.jsonl, run in-process on this tree, must give the recorded exit
code and the recorded sha256 of stdout and of stderr.  A deliberate output
change is re-recorded with `python tests/golden/make.py`, and the changed
lines of the manifest are the reviewable diff.  The large tier's commands
run only in large.py; here its manifest is checked against make.LARGE, and
make.check against planted changes on one ex1 command run as a child."""

import pytest

import make

ENTRIES = make.read_manifest()


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    make.write_inputs(str(directory), make.inputs())
    return directory


def test_manifest_lists_every_command_of_the_corpus():
    assert [e["argv"] for e in ENTRIES] == make.commands(make.inputs())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_command_output_is_unchanged(entry, inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    assert make.run(entry["argv"]) == entry


def test_large_manifest_lists_every_command_of_the_large_tier():
    recorded = [
        {k: v for k, v in e.items() if k not in ("exit", "stdout", "stderr")}
        for e in make.read_manifest(make.LARGE_MANIFEST)
    ]
    assert recorded == make.large_commands()


EX1 = ["info", "ex1.quiv", "C", "--format", "json"]


@pytest.fixture(scope="module")
def ex1_run(inputs_dir):
    """The small tier's entry of EX1 as a large-tier entry, with a timeout
    and a field, and one child run of it."""
    entry = next(e for e in ENTRIES if e["argv"] == EX1)
    entry = dict(entry, timeout=60, fields={"dim": 11, "gldim_le_2": True})
    return entry, make.run_child(EX1, 60, str(inputs_dir))


def test_child_run_holds_its_entry(ex1_run):
    entry, result = ex1_run
    assert result["exit"] == 0 and result["rss_mb"] > 0
    assert make.check(entry, result) == []


@pytest.mark.parametrize(
    "plant, message",
    [
        ("stdout", "stdout sha256"),
        ("exit", "exit 1, recorded 0"),
        ("timeout", "killed after its timeout of 0.001 s"),
        ("rss", "over its bound of 1 MB"),
        ("field", "dim is 11, expected 12"),
    ],
)
def test_planted_change_fails_the_comparison(ex1_run, inputs_dir, plant, message):
    """A changed byte of stdout, a changed exit code, a timeout too short
    to start Python, an RSS bound of 1 MB and a wrong field each fail."""
    entry, result = dict(ex1_run[0]), dict(ex1_run[1])
    if plant == "stdout":
        result["stdout"] = result["stdout"].replace(b"11", b"12", 1)
    elif plant == "exit":
        result["exit"] = 1
    elif plant == "timeout":
        entry["timeout"] = 0.001
        result = make.run_child(EX1, entry["timeout"], str(inputs_dir))
    elif plant == "rss":
        entry["max_rss_mb"] = 1
    else:
        entry["fields"] = {"dim": 12}
    assert any(message in m for m in make.check(entry, result))
