"""README's examples run, and the tests it names exist.

Every fenced ``python`` block and the ``sh`` session under "Command line"
run in a temporary directory against ``src``, without a shell and with
warnings as errors: ``python3`` is this interpreter, and ``ldscreen`` is
``python -m ldscreen.cli``.  The ``#   `` lines under a command are that
command's whole output.  The blocks that install the package or run the
suite are skipped by name.
"""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PYTHON = [sys.executable, "-W", "error"]
PROGRAMS = {"python3": PYTHON, "ldscreen": PYTHON + ["-m", "ldscreen.cli"]}

#: the sh blocks not run: they install the package or run the suite
SKIPPED = [
    "pip install -e . --no-build-isolation",
    'pip install -e ".[test]" --no-build-isolation  # pytest and hypothesis\npytest',
    "pytest tests/test_acceptance.py -s",
]


def fenced_blocks(text):
    """``(section, language, body)`` of each fenced block, ``section`` its ``## `` heading."""
    blocks, section, fence = [], None, None
    for line in text.splitlines():
        if fence is not None and line == "```":
            blocks.append((section, fence[0], "\n".join(fence[1])))
            fence = None
        elif fence is not None:
            fence[1].append(line)
        elif line.startswith("```"):
            fence = (line[3:], [])
        elif line.startswith("## "):
            section = line[3:]
    assert fence is None, "a fence is left open"
    return blocks


def commands(session):
    """``(argv, output lines)`` of each command of an sh session."""
    steps = []
    for line in session.replace("\\\n", "").splitlines():
        if line.startswith("#   "):
            steps[-1][1].append(line[4:])
        elif line.strip() and not line.startswith("#"):
            steps.append((shlex.split(line), []))
    return steps


def run(argv, cwd):
    return subprocess.run(
        argv,
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )


def sh_blocks():
    return [(section, body) for section, language, body in fenced_blocks(README) if language == "sh"]


def test_only_the_install_and_suite_blocks_are_skipped():
    skipped = [
        body
        for _, body in sh_blocks()
        if all(argv[0] in ("pip", "pytest") for argv, _ in commands(body))
    ]
    assert skipped == SKIPPED
    run_here = [section for section, body in sh_blocks() if body not in SKIPPED]
    assert run_here == ["Command line"]


def test_python_blocks_run(tmp_path):
    blocks = [body for _, language, body in fenced_blocks(README) if language == "python"]
    assert blocks
    for body in blocks:
        done = run(PYTHON + ["-c", body], tmp_path)
        assert (done.returncode, done.stderr) == (0, ""), body


def test_command_line_session_prints_what_readme_shows(tmp_path):
    (session,) = [body for section, body in sh_blocks() if section == "Command line"]
    steps = commands(session)
    assert any(shown for _, shown in steps)
    for argv, shown in steps:
        done = run(PROGRAMS[argv[0]] + argv[1:], tmp_path)
        assert (done.returncode, done.stderr) == (0, ""), argv
        if shown:
            assert done.stdout.splitlines() == shown, argv


def test_every_test_readme_names_exists():
    modules = set(re.findall(r"\btests/(test_\w+)\.py\b", README))
    functions = set(re.findall(r"`(?:tests/test_\w+\.py::)?(test_\w+)`", README))
    assert modules and functions
    assert {m for m in modules if not (ROOT / "tests" / f"{m}.py").exists()} == set()
    defined = {
        node.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert functions - defined == set()
