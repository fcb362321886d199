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


def replay_against(checkout: Path, workload: str = "engine") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPLAY), "--seeds", "1", "--workloads", workload,
         "--against", str(checkout)],
        capture_output=True, text=True, timeout=120,
    )


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
