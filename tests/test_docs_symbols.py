"""Every ``repro.*`` dotted name the docs mention must actually exist.

Docs drift silently: a renamed function or module keeps its markdown
mentions until a reader trips over them.  This test extracts every
``repro.something[.more]`` reference from the documentation set and resolves
it — find the longest module prefix, then getattr the rest.  A module
named whole is found without being imported, so naming ``repro.__main__``
does not run the CLI.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
DOC_FILES = sorted(
    [
        REPO / "README.md",
        REPO / "DESIGN.md",
        REPO / "CONTRIBUTING.md",
        *(REPO / "docs").glob("*.md"),
    ]
)

_NAME = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _documented_names() -> dict[str, list[str]]:
    """name -> list of files mentioning it."""
    seen: dict[str, list[str]] = {}
    for path in DOC_FILES:
        text = path.read_text()
        for match in _NAME.finditer(text):
            seen.setdefault(match.group(0), []).append(path.name)
    return seen


def _resolve(dotted: str) -> None:
    """Find/getattr *dotted*; raises if any component is missing."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            spec = importlib.util.find_spec(".".join(parts[:i]))
        except ImportError:  # a parent is not a package
            continue
        if spec is not None:
            break
    else:
        raise ImportError(f"no importable prefix of {dotted!r}")
    if i == len(parts):
        return
    obj = importlib.import_module(spec.name)
    for attr in parts[i:]:
        obj = getattr(obj, attr)


def test_doc_files_exist():
    for path in DOC_FILES:
        assert path.exists(), path


def test_docs_mention_resolvable_symbols():
    names = _documented_names()
    assert names, "no repro.* references found in any doc — extraction broke?"
    failures = []
    for dotted, files in sorted(names.items()):
        try:
            _resolve(dotted)
        except (ImportError, AttributeError) as exc:
            failures.append(f"{dotted} (in {', '.join(sorted(set(files)))}): {exc}")
    assert not failures, "documented names that do not resolve:\n" + "\n".join(failures)


@pytest.mark.parametrize(
    "dotted",
    [
        "repro.core.PjRuntime",
        "repro.core.PjRuntime.invoke_target_block",
        "repro.bench.environment_fingerprint",
        "repro.bench.percentile",
        "repro.obs.enable",
        "repro.openmp.task",
        "repro.__main__",
    ],
)
def test_key_api_names_resolve(dotted):
    """A hand-picked floor under the extraction test: even if the docs stop
    mentioning these, the public API must keep them."""
    _resolve(dotted)
