"""Cold start for the benchmark's ``setup_s``.

A fresh interpreter imports paradoxlab from the given source directory,
runs one CLI invocation in-process and checks its output, then prints
``ok`` (or the reason it failed). ``run.py`` times the span from spawning
this process to reading that line.

    python3 bench/coldstart.py SRC_DIR INVOCATION_JSON
"""

import json
import sys


def main() -> int:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from paradoxlab import cli, errors

    import check

    text, code, error = check.invoke(cli, errors, spec["argv"])
    reason = error or (f"exit code {code}" if code else check.check(spec, text))
    print("ok" if reason is None else f"failed: {reason}", flush=True)
    return 0 if reason is None else 1


if __name__ == "__main__":
    sys.exit(main())
