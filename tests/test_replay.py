"""``tools/replay.py`` passes on an unchanged copy of ``src/`` and fails on a changed one."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPLAY = ROOT / "tools" / "replay.py"


def copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "src" / "paradoxlab" / "cli.py"


def replay_against(checkout: Path, workload: str = "engine", *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPLAY), "--seeds", "1", "--workloads", workload,
         "--against", str(checkout), *extra],
        capture_output=True, text=True, timeout=120,
    )


def mutate_one_engine_output(dest: Path) -> None:
    """A copy of ``src/`` whose output changes for engine-1-002 alone.

    That invocation is the round's only ``szilard --cycles 40 --skip-reset``
    table without shots; its output gains one more blank line.
    """
    cli = copy_src(dest)
    text = cli.read_text()
    render = "def _render(inv: argparse.Namespace, payload, headers, rows) -> str:\n"
    assert text.count(render) == 1
    cli.write_text(text.replace(render, render.replace("_render", "_unmutated_render")) + (
        "\n\n" + render
        + "    out = _unmutated_render(inv, payload, headers, rows)\n"
        + "    key = (inv.command, inv.cycles, inv.skip_reset, inv.shots, inv.format)\n"
        + '    return out + "\\n" if key == ("szilard", 40, True, 0, "table") else out\n'
    ))


def expect_diff(dest: Path, text: str) -> list:
    path = dest / "expected-diff.txt"
    path.write_text(text)
    return ["--expect-diff", str(path)]


def test_unchanged_copy_replays_identically(tmp_path):
    copy_src(tmp_path)
    run = replay_against(tmp_path)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    # One fingerprint per invocation of the 80-invocation round, then the verdict.
    assert len(lines) == 81
    assert lines[0].startswith("engine-1-000  exit 0  stdout ")
    assert lines[-1].startswith("replay: 80 invocations identical against ")


def test_mutated_render_fails_the_replay(tmp_path):
    cli = copy_src(tmp_path)
    text = cli.read_text()
    render = "def _render(inv: argparse.Namespace, payload, headers, rows) -> str:\n"
    assert text.count(render) == 1
    # Every format now ends in one more blank line.
    cli.write_text(text.replace(render, render.replace("_render", "_unmutated_render")) + (
        "\n\n" + render + '    return _unmutated_render(inv, payload, headers, rows) + "\\n"\n'
    ))
    run = replay_against(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    # The first invocation already differs: its argv, then the stdout diff.
    assert lines[1].startswith("replay: engine-1-000 differs: paradoxlab szilard ")
    assert "--- this/stdout" in lines and "+++ against/stdout" in lines
    assert "+" in lines


def test_changed_error_message_fails_the_corpus_replay(tmp_path):
    copy_src(tmp_path)
    qmath = tmp_path / "src" / "paradoxlab" / "qmath.py"
    text = qmath.read_text()
    message = 'f"malformed matrix file: {exc}"'
    assert text.count(message) == 1
    qmath.write_text(text.replace(message, 'f"malformed matrix file {exc}"'))
    run = replay_against(tmp_path, "robustness")
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    # A mutated matrix file without its dim differs first, in its stderr.
    differs = [line for line in lines if " differs: " in line]
    assert len(differs) == 1, lines[-5:]
    assert differs[0].startswith("replay: robustness-files-1-")
    assert "paradoxlab ctc solve --unitary <work>/robustness/files-1-" in differs[0]
    assert "--- this/stderr" in lines and "+++ against/stderr" in lines
    assert "-usage error: --unitary: malformed matrix file: 'dim'" in lines
    assert "+usage error: --unitary: malformed matrix file 'dim'" in lines


def test_listed_difference_passes(tmp_path):
    mutate_one_engine_output(tmp_path)
    listed = expect_diff(tmp_path, "# one table gains a blank line\nengine-1-002  # 40 cycles\n")
    run = replay_against(tmp_path, "engine", *listed)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    # The listed difference is still shown, as a diff after its fingerprint.
    assert lines[3] == ("replay: engine-1-002 differs: paradoxlab szilard --cycles 40 "
                        "--skip-reset --format table")
    assert "+" in lines
    assert lines[-1].startswith("replay: 80 invocations against ")
    assert lines[-1].endswith(": the 1 listed differ, every other is identical")


def test_unlisted_difference_fails_after_every_invocation(tmp_path):
    mutate_one_engine_output(tmp_path)
    listed = expect_diff(tmp_path, "# nothing is meant to change\n\n")
    run = replay_against(tmp_path, "engine", *listed)
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    # No stop at the difference: every invocation is fingerprinted.
    assert sum(line.startswith("engine-1-") for line in lines) == 80
    assert lines[-1] == "replay: not listed but differ: engine-1-002"


def test_stale_listed_ids_fail(tmp_path):
    copy_src(tmp_path)
    listed = expect_diff(tmp_path, "engine-1-005\nengine-9-000\n")
    run = replay_against(tmp_path, "engine", *listed)
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.splitlines()[-2:] == [
        "replay: listed but unchanged: engine-1-005",
        "replay: listed but not played: engine-9-000",
    ]
