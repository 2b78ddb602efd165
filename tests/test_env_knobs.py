"""The library's environment knobs: exactly the one it documents.

Every ``REPRO_*`` name is a process-global switch that no ``Session``
argument shows; a new one has to justify itself, so this pins the set.
"""

import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent


def test_repro_env_names_read_by_the_library():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"\bREPRO_[A-Z0-9_]+", path.read_text()))
    assert names == {"REPRO_SPARSE_GRADS"}
