"""A CLI run whose output cannot be written ends in exit 1, without a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import foggame

# Megabytes of JSON: far more than a pipe holds, so the writes outlast the reader.
LARGE = ["gen", "--kind", "path", "--n", "100000"]


def _child(unbuffered: bool) -> dict:
    # The child imports the same package as this process, installed or not.
    package_root = str(Path(foggame.__file__).resolve().parents[1])
    paths = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# (command line, bytes read before the read end closes): a reader that
# leaves mid-stream, and none at all for a small json and a small csv run.
CLOSED_PIPES = {
    "large json": (LARGE, 10),
    "small json": (["gen", "--kind", "path", "--n", "5"], 0),
    "small csv": (["cost", "{scenario}", "--format", "csv"], 0),
}


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("case", sorted(CLOSED_PIPES))
def test_a_closed_pipe_ends_the_run_with_exit_1_and_nothing_on_stderr(tmp_path, unbuffered, case):
    scenario = tmp_path / "cost.json"
    scenario.write_text('{"graph": {"kind": "path", "n": 3}, "n2": 3}', encoding="utf-8")
    argv, read = CLOSED_PIPES[case]
    proc = subprocess.Popen(
        [sys.executable, "-m", "foggame.cli", *(a.format(scenario=scenario) for a in argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child(unbuffered),
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_full_device_ends_the_run_with_one_line(unbuffered):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "foggame.cli", "gen", "--kind", "path", "--n", "5"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=_child(unbuffered),
            timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == b"foggame: cannot write output: [Errno 28] No space left on device\n"
