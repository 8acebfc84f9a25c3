"""Replay the byte-identity corpus (make.py): every command of
manifest.jsonl, run in-process on this tree, must give the recorded exit
code and the recorded sha256 of stdout and of stderr.  A deliberate output
change is re-recorded with `python tests/golden/make.py`, and the changed
lines of the manifest are the reviewable diff."""

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
