"""The numpy-free half of ldscreen writes the same bytes on every local Python.

``portable_digest.py`` runs in one child process per Python 3.10, 3.12
and 3.13 found, and its digest must equal the one this process computes.
"""

import glob
import os
import shutil
import subprocess
from pathlib import Path

import pytest
from portable_digest import digest

import ldscreen

SCRIPT = Path(__file__).with_name("portable_digest.py")
VERSIONS = ("3.10", "3.12", "3.13")


def _interpreters():
    """``(path, version)`` of each Python of ``VERSIONS`` on PATH or under pyenv, once each."""
    found = {}
    for version in VERSIONS:
        path = shutil.which(f"python{version}")
        if path:
            found.setdefault(os.path.realpath(path), version)
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    for path in glob.glob(os.path.join(root, "versions", "3.1[023].*", "bin", "python")):
        version = ".".join(Path(path).parent.parent.name.split(".")[:2])
        found.setdefault(os.path.realpath(path), version)
    return sorted(found.items())


def test_numpy_free_half_writes_the_same_bytes_on_every_local_python():
    want = digest()
    src = str(Path(ldscreen.__file__).resolve().parent.parent)
    checked = []
    for python, version in _interpreters():
        try:
            done = subprocess.run(
                [python, str(SCRIPT)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
                timeout=120,
            )
        except OSError:
            continue
        first, _, rest = done.stdout.partition("\n")
        if first != version:
            continue  # no working Python of that version, such as a pyenv shim without one
        assert (done.returncode, rest) == (0, want + "\n"), done.stderr
        checked.append(version)
    if not checked:
        pytest.skip(f"no Python {', '.join(VERSIONS)} found")
