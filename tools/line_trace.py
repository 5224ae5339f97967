"""Print the lines of `src/circlelab` that no run reaches.

    python tools/line_trace.py        # Python >= 3.11, for tomllib

One interpreter, traced with `sys.settrace` from before circlelab is
imported, runs:

- the Tier-1 suite (pytest on the `testpaths` of pyproject.toml);
- one round of each `perfbench/workloads.py` workload with its checks, in
  trace mode, so that `tongue` scans in-process;
- every subcommand and `validate` on every `configs/*.json`, plus
  `bootstrap` with no config.

It then prints each executable line of `src/circlelab/*.py` that none of
them reached, as `path:line: source`, and their count.  Runs write into a
temporary directory, never into the checkout.  Exit status 1 means a test
failed or a workload check found a problem, so the trace is not one of
working code.  Processes the runs start (`--workers` > 1) are not traced.
"""

from __future__ import annotations

import contextlib
import dis
import io
import os
import sys
import tempfile
import threading
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "circlelab"


def _executable(path: Path) -> set[int]:
    """Line numbers that carry bytecode, in every code object of a file."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, n in dis.findlinestarts(code) if n is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def _tracer(hits: dict):
    """A global trace function recording the lines run in `hits[file]`."""
    prefix = str(PKG) + os.sep

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = hits.setdefault(name, set())
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return on_line

        return on_line

    return on_call


def _runs(work: Path) -> bool:
    """Run everything the trace covers; False when anything failed."""
    import pytest

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    testpaths = project["tool"]["pytest"]["ini_options"]["testpaths"]
    ok = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                      "-c", str(ROOT / "pyproject.toml"),
                      "--continue-on-collection-errors",
                      *(str(ROOT / p) for p in testpaths)]) == 0

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name, kind in workloads.WORKLOADS.items():
        load = kind(1, True, work / name)
        load.prepare()
        for label, spec, op in load.round_ops():
            for problem in load.check(spec, op()):
                print(f"{name} {label}: {problem}", file=sys.stderr)
                ok = False

    from circlelab import cli

    for config in sorted((ROOT / "configs").glob("*.json")):
        for cmd in cli._SPECS:
            runs = [[cmd, "--config", str(config),
                     "--out", str(work / f"{cmd}-{config.stem}")],
                    ["validate", cmd, "--config", str(config)]]
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["bootstrap", "--out", str(work / "bootstrap")])
    return ok


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    hits: dict[str, set] = {}
    trace = _tracer(hits)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # pytest and hypothesis keep their state in the cwd
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            ok = _runs(Path(tmp))
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(ROOT)
    missed = 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text().splitlines()
        for n in sorted(_executable(path) - hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
            missed += 1
    print(f"{missed} unreached lines")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
