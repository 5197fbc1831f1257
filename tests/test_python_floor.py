"""The oldest Python that ``pyproject.toml`` allows, 3.10, must byte-compile
every source file, compile every regular expression in ``src``, read the
bundled instrument through its dataclass annotations (3.10 takes
``tuple[int, ...]`` for a class, which a reader must not dispatch on) and
read a record whose fields are unions (``X | str`` is a ``types.UnionType``)
or ``object``.

The suite runs on one interpreter, so these tests look for a 3.10 one:
``$SATMETRIC_PYTHON310``, then ``python3.10`` on the PATH, then a pyenv
3.10 install.  The checks run there with the standard library only.
Without a 3.10 interpreter the tests skip and say so.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "satmetric"

#: Item count substituted into a pattern built with ``%`` formatting.
SAMPLE_K = 17

#: A possessive quantifier, which ``re`` accepts only from 3.11: the run
#: must reject it, or the interpreter is not enforcing 3.10's syntax.
CANARY = r"[0-9]++"

CHECK = """
import json, py_compile, re, sys
files, patterns, cache = json.load(sys.stdin)
bad = []
for at, path in enumerate(files):
    try:
        py_compile.compile(path, cfile=f"{cache}/{at}.pyc", doraise=True)
    except py_compile.PyCompileError as exc:
        bad.append([path, str(exc)])
for pattern in patterns:
    try:
        re.compile(pattern)
    except re.error as exc:
        bad.append([pattern, str(exc)])
print(json.dumps(bad))
"""


#: Reads the bundled instrument through a package stub over ``src/satmetric``,
#: so that the package's numpy-importing ``__init__`` does not run.
READ_INSTRUMENT = """
import json, sys, types
package = types.ModuleType("satmetric")
package.__path__ = [sys.argv[1]]
sys.modules["satmetric"] = package
from satmetric.instrument import load_instrument
instrument = load_instrument(sys.argv[1] + "/data/xyz_instrument.json")
print(json.dumps([instrument.n_items, instrument.fingerprint()]))
"""


#: Reads a record annotated ``tuple[Cause | str, ...]``, ``object`` and
#: ``Optional[int]`` through the package stub, with ``schema`` alone: the
#: modules whose documents have such fields import numpy.
READ_UNION = """
from __future__ import annotations
import json, sys, types
from dataclasses import dataclass
from typing import Optional
package = types.ModuleType("satmetric")
package.__path__ = [sys.argv[1]]
sys.modules["satmetric"] = package
from satmetric.errors import DefinitionError
from satmetric.schema import read

@dataclass(frozen=True)
class Cause:
    text: str
    causes: tuple[Cause | str, ...] = ()
    note: object = None
    count: Optional[int] = None

cause = read(Cause, {"text": "a", "count": 2,
                     "causes": ["b", {"text": "c", "note": {"x": [1]}}]}, "cause")
try:
    read(Cause, {"text": "a", "causes": [5]}, "cause")
except DefinitionError as exc:
    refused = str(exc)
print(json.dumps([cause.count, cause.causes[0], cause.causes[1].text, cause.causes[1].note,
                  refused]))
"""


def _candidates():
    if os.environ.get("SATMETRIC_PYTHON310"):
        yield os.environ["SATMETRIC_PYTHON310"]
    if shutil.which("python3.10"):
        yield shutil.which("python3.10")
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    yield from map(str, sorted(pyenv.glob("versions/3.10*/bin/python3.10")))


def _python310() -> str | None:
    """The first candidate that runs and reports version 3.10 (a pyenv shim
    for a version that is not active exits non-zero)."""
    for candidate in _candidates():
        try:
            done = subprocess.run([candidate, "-I", "-c", "import sys; print(*sys.version_info[:2])"],
                                  capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode == 0 and done.stdout.split() == ["3", "10"]:
            return candidate
    return None


#: A source whose patterns take each form that _regex_literals resolves.
FIXTURE_SOURCE = '''
import re
_ROW = r"[a-z]+(?:,[0-9]{1,18}){%d}"
_CELL = r"[0-9]+"
ROW = re.compile(_ROW % 3)
CELL = re.compile(_CELL)
WORD = re.compile(r"[a-z]+")
'''


def _regex_literals(paths=None) -> list[str]:
    """Every pattern passed to ``re.compile`` in ``paths`` (default: the
    files of ``src``): a string literal, or a module-level string constant,
    formatted with SAMPLE_K when the call applies ``%`` to it."""
    patterns = []
    for path in sorted(SRC.glob("*.py")) if paths is None else paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {}
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants.update((t.id, node.value.value) for t in targets
                                 if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "compile" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "re"):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                patterns.append(arg.value)
            elif isinstance(arg, ast.Name) and arg.id in constants:
                patterns.append(constants[arg.id])
            elif isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod) and \
                    isinstance(arg.left, ast.Name) and arg.left.id in constants:
                patterns.append(constants[arg.left.id] % SAMPLE_K)
            else:
                pytest.fail(f"{path.name}:{node.lineno}: cannot resolve the pattern "
                            f"passed to re.compile: {ast.unparse(arg)}")
    return patterns


def test_regex_literals_are_found(tmp_path):
    patterns = _regex_literals()
    assert r"[+-]?[0-9]+" in patterns
    # No pattern in src is built with % now; the fixture keeps that case.
    fixture = tmp_path / "fixture.py"
    fixture.write_text(FIXTURE_SOURCE, encoding="utf-8")
    patterns = _regex_literals([fixture])
    assert any(p.endswith("{%d}" % SAMPLE_K) for p in patterns)
    assert patterns == [r"[a-z]+(?:,[0-9]{1,18}){%d}" % SAMPLE_K, "[0-9]+", "[a-z]+"]


def _python310_or_skip() -> str:
    python = _python310()
    if python is None:
        pytest.skip("no Python 3.10 interpreter found (set SATMETRIC_PYTHON310, put "
                    "python3.10 on the PATH or install 3.10 with pyenv)")
    return python


def test_sources_and_patterns_compile_on_python_3_10(tmp_path):
    python = _python310_or_skip()
    files = [str(path) for path in sorted(SRC.glob("*.py"))]
    patterns = [*_regex_literals(), CANARY]
    done = subprocess.run([python, "-I", "-c", CHECK], capture_output=True, text=True,
                          input=json.dumps([files, patterns, str(tmp_path)]), timeout=120)
    assert done.returncode == 0, done.stderr
    bad = json.loads(done.stdout)
    assert [item for item, _ in bad] == [CANARY], bad
    assert len(files) >= 10


def test_instrument_reads_on_python_3_10(xyz_instrument):
    done = subprocess.run([_python310_or_skip(), "-I", "-c", READ_INSTRUMENT, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [17, xyz_instrument.fingerprint()]


def test_union_and_object_fields_read_on_python_3_10():
    done = subprocess.run([_python310_or_skip(), "-I", "-c", READ_UNION, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [2, "b", "c", {"x": [1]},
                                       "cause.causes[0] must be an object"]
