"""Opt-in pytest plugin: list the src/dfactor statements a run never executed.

    PYTHONPATH=src python -m pytest -p tests.unreached [pytest args]

It stands in for a coverage tool where none is installed.  Lines are
traced with ``sys.settrace`` (and ``threading.settrace``) from the moment
the plugin is configured, so imports of dfactor during collection count.
Work done in child processes (the console entry point, the perfbench
interface tests) is not seen.  Tracing slows the run several times over,
so tests that bound wall-clock time may fail under it; their lines are
still recorded.  Tier-1 never loads this plugin.

A statement is a line that starts an instruction of the compiled module;
the ``def``/``class`` line of a body that runs counts as reached.  The
report is printed at the end of the run as ``path:line: text``, one line
per unreached statement, grouped by file.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dfactor"

_hits: dict[Path, set[int]] = {}  # source file -> lines executed
_files: dict[str, set[int] | None] = {}  # code filename -> its set in _hits, or None


def _lines_of(filename: str):
    if filename not in _files:
        _files[filename] = _hits.get(Path(filename).resolve())
    return _files[filename]


def _local(frame, event, arg):
    if event == "line":
        _files[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    lines = _lines_of(code.co_filename)
    if lines is None:
        return None
    lines.add(code.co_firstlineno)
    return _local


def _statements(code) -> set[int]:
    """Lines that start an instruction in ``code`` or a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _statements(const)
    return lines


def pytest_configure(config):
    for path in sorted(SRC.rglob("*.py")):
        _hits[path] = set()
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    total = 0
    root = SRC.parent.parent
    for path, hit in _hits.items():
        source = path.read_text()
        lines = source.splitlines()
        missed = sorted(_statements(compile(source, str(path), "exec")) - hit - {0})
        for line in missed:
            write(f"{path.relative_to(root)}:{line}: {lines[line - 1].strip()}")
        total += len(missed)
    write(f"{total} unreached statements in {len(_hits)} files under {SRC.relative_to(root)}")
