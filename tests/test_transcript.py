"""The CLI transcript: every command line in `cli_transcript.txt` replays
through `cli.main` to the exit code, stdout and stderr recorded there.

The file is blocks separated by blank lines: a comment block (`#` lines)
or a record.  A record opens with its command line, written as a shell
would take it (`$ HIRZEBRUCH_FORMAT=json hirzebruch coh --e 1 --class
1,1`; an assignment before `hirzebruch` sets HIRZEBRUCH_FORMAT, which is
unset otherwise), then its exit code and each stream as `|` lines.  A
stream over OUTPUT_LIMIT bytes is recorded as its SHA-256, its byte count
and its first and last lines.  Help text is laid out for COLUMNS=80.

An intended change of output shows as a diff of the transcript.  To record
it, or a `$` line added to the file, rerun every command line and rewrite
the file (this never runs under pytest):

    PYTHONPATH=src python tests/test_transcript.py

It prints the command line of each record it changed, added or dropped,
one a line (`changed $ hirzebruch ...`), and nothing when the file is
unchanged, so the list can be pasted into a change log.

The help and refusal records carry the argparse layout of the Python
that recorded them, RECORDED_ON.  The records replay unchanged on
CPython 3.10 and 3.12 as well; on 3.13 the `check --help` usage line
wraps before `--wrt`.  So the rewrite refuses to run on any minor version
but RECORDED_ON, where it could rewrite a help record in another layout.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import shlex
import sys

import pytest

from hirzebruch import cli

TRANSCRIPT = pathlib.Path(__file__).resolve().parent / "cli_transcript.txt"
OUTPUT_LIMIT = 4096
# the help text wraps at the terminal width, read from COLUMNS
COLUMNS = "80"
ENV = "HIRZEBRUCH_FORMAT"
# the Python (major, minor) whose argparse wrote the help and refusal records
RECORDED_ON = (3, 11)


def _command(line):
    """(env, argv) of a `$` command line."""
    words = shlex.split(line[2:])
    env = {}
    while words and "=" in words[0]:
        name, _, value = words.pop(0).partition("=")
        env[name] = value
    if not words or words[0] != "hirzebruch" or set(env) - {ENV}:
        raise ValueError(f"not a transcript command line: {line!r}")
    return env, words[1:]


def _quoted(line):
    # an empty line is a bare "|", so no recorded line ends in a space
    return f"| {line}" if line else "|"


def _stream(name, text):
    if text and not text.endswith("\n"):
        raise ValueError(f"{name} does not end in a newline: {text[-40:]!r}")
    lines = text.splitlines()
    size = len(text.encode())
    if size <= OUTPUT_LIMIT:
        return [f"{name} {len(lines)} lines", *map(_quoted, lines)]
    digest = hashlib.sha256(text.encode()).hexdigest()
    return [f"{name} sha256 {digest} {size} bytes", _quoted(lines[0]), _quoted(lines[-1])]


def _record(line):
    """The record of one `$` line: run it through `cli.main`, in the
    environment it names; help's SystemExit is read as its exit code."""
    env, argv = _command(line)
    saved = os.environ.pop(ENV, None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as done:
                code = done.code
    finally:
        os.environ.pop(ENV, None)
        if saved is not None:
            os.environ[ENV] = saved
    lines = [line, f"exit {code}", *_stream("stdout", out.getvalue())]
    return "\n".join(lines + _stream("stderr", err.getvalue()))


def _recorded(path=TRANSCRIPT):
    """Each record of the file, as its text."""
    blocks = path.read_text().rstrip("\n").split("\n\n")
    return [block for block in blocks if block.startswith("$ ")]


def _changes(before, after):
    """The command line of each record of `after` that `before` lacks,
    "changed" if `before` records that line and "added" if not, then
    "dropped" for each line that `before` records and `after` does not.
    A `$` line not yet run is no record."""
    before = [record for record in before if "\nexit " in record]
    old = [record.partition("\n")[0] for record in before]
    new = [record.partition("\n")[0] for record in after]
    report = [
        f"{'changed' if line in old else 'added'} {line}"
        for line, record in zip(new, after)
        if record not in before
    ]
    return report + [f"dropped {line}" for line in old if line not in new]


def test_every_recorded_command_line_replays_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    records = _recorded()
    # each command line is recorded once, so none is replayed twice
    lines = [record.partition("\n")[0] for record in records]
    assert sorted({line for line in lines if lines.count(line) > 1}) == []
    codes = set()
    for want in records:
        assert _record(want.partition("\n")[0]) == want
        codes.add(want.split("\n")[1])
    # exit 1 needs an oracle mismatch, which no input produces, and 141 a
    # closed pipe (`test_cli` closes one in a subprocess)
    assert codes == {"exit 0", "exit 2", "exit 3"}


def test_the_transcript_runs_every_command_in_every_format():
    answered = set()
    for record in _recorded():
        line, code = record.split("\n")[:2]
        env, argv = _command(line)
        if code != "exit 0":
            continue
        if "--format" in argv:
            answered.add((argv[0], argv[argv.index("--format") + 1]))
        else:
            answered.add((argv[0], f"{ENV}={env[ENV]}" if env else "default"))
    for command in cli._GRAMMAR:
        for fmt in (*cli.FORMATS, "default", f"{ENV}=json"):
            assert (command, fmt) in answered


def test_the_rewrite_refuses_another_python(monkeypatch):
    # under another minor version the rewrite stops with one line before
    # it runs or writes anything
    before = TRANSCRIPT.read_text()
    monkeypatch.setitem(globals(), "RECORDED_ON", (2, 7))
    monkeypatch.setattr(cli, "main", None)  # any record would fail
    with pytest.raises(SystemExit) as done:
        _rewrite()
    message = str(done.value)
    assert message.startswith(
        "refusing to rewrite cli_transcript.txt: it was recorded on Python 2.7,"
    )
    assert "\n" not in message
    assert TRANSCRIPT.read_text() == before


def test_the_rewrite_reports_exactly_the_records_it_changed(tmp_path, monkeypatch):
    # one altered record and one new `$` line in a copy: the rewrite
    # restores the one, records the other, and names both, nothing else
    monkeypatch.setitem(globals(), "RECORDED_ON", sys.version_info[:2])
    monkeypatch.setenv("COLUMNS", COLUMNS)  # restored after the rewrite sets it
    text = TRANSCRIPT.read_text()
    line = "$ hirzebruch coh --e 1 --class 1,1 --format csv"
    record = next(r for r in _recorded() if r.startswith(line + "\n"))
    added = "$ hirzebruch coh --e 3 --class 2,5"
    copy = tmp_path / TRANSCRIPT.name
    copy.write_text(text.replace(record, record.replace("| 3,0,0,3", "| 3,0,0,4")) + f"\n{added}\n")
    assert _rewrite(copy) == [f"changed {line}", f"added {added}"]
    assert copy.read_text() == text + "\n" + _record(added) + "\n"
    # a second rewrite changes nothing and reports nothing
    assert _rewrite(copy) == []
    # a record that the other list lacks is reported as dropped
    assert _changes([record, _record(added)], [record]) == [f"dropped {added}"]


def _rewrite(path=TRANSCRIPT):
    """Rerun every `$` line of the transcript at `path` and rewrite it: a
    comment block is kept, and each `$` line, recorded or not, is run
    again.  Returns `_changes` of the records, in file order."""
    if sys.version_info[:2] != RECORDED_ON:
        sys.exit(
            f"refusing to rewrite {path.name}: it was recorded on Python "
            f"{'.'.join(map(str, RECORDED_ON))}, whose argparse wording its help and "
            f"refusal records carry; this is Python {sys.version_info[0]}.{sys.version_info[1]}"
        )
    os.environ["COLUMNS"] = COLUMNS
    before = _recorded(path)
    blocks, after = [], []
    for block in path.read_text().rstrip("\n").split("\n\n"):
        lines = block.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        if comments:
            blocks.append("\n".join(comments))
        records = [_record(line) for line in lines if line.startswith("$ ")]
        blocks += records
        after += records
    path.write_text("\n\n".join(blocks) + "\n")
    return _changes(before, after)


if __name__ == "__main__":
    for change in _rewrite():
        print(change)
