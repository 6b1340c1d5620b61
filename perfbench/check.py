"""Output checks: CLI outputs against the stored seed reference.

Integer, boolean and text fields (verdict counts, contract names, pass
flags and details) must match exactly.  Floating-point fields must match
within REL_TOL relative (ABS_TOL absolute near zero): the reference is
byte-exact on the machine that recorded it, but the low digits of
eigenvector-derived fields such as `decay.csv` rates depend on the BLAS
build and its thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-12

_NP_FLOAT = re.compile(r"np\.float64\((.*)\)")


def read_outputs(out_dir: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir())
            if p.is_file()}


def outputs_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def source_digest(src: Path) -> str:
    """sha256 over the package's Python files, names and contents."""
    h = hashlib.sha256()
    for path in sorted((src / "alloymsa").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _cell(text: str):
    """A CSV cell as int, float or text."""
    try:
        return int(text)
    except ValueError:
        pass
    m = _NP_FLOAT.fullmatch(text)
    try:
        return float(m.group(1) if m else text)
    except ValueError:
        return text


def _compare(actual, expected, where: str, problems: list[str]) -> None:
    if isinstance(expected, float) and isinstance(actual, float):
        if not math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{where}: {actual!r} != {expected!r}")
    elif isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(actual) != sorted(expected):
            problems.append(f"{where}: keys {sorted(actual)} != {sorted(expected)}")
            return
        for k in expected:
            _compare(actual[k], expected[k], f"{where}.{k}", problems)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            problems.append(f"{where}: {len(actual)} items != {len(expected)}")
            return
        for i, (a, e) in enumerate(zip(actual, expected)):
            _compare(a, e, f"{where}[{i}]", problems)
    elif type(actual) is not type(expected) or actual != expected:
        problems.append(f"{where}: {actual!r} != {expected!r}")


def _parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def compare_outputs(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Differences between two sets of output files, one line each."""
    if sorted(actual) != sorted(expected):
        return [f"output files {sorted(actual)} != {sorted(expected)}"]
    problems: list[str] = []
    for name in sorted(expected):
        try:
            got = _parse(name, actual[name])
        except json.JSONDecodeError as exc:
            problems.append(f"{name}: not JSON: {exc}")
            continue
        _compare(got, _parse(name, expected[name]), name, problems)
    return problems
