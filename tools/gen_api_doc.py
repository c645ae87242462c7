#!/usr/bin/env python3
"""Generate docs/api.md — a one-line-per-name API index.

Walks the public packages, collects each ``__all__`` entry with the first
line of its docstring, and writes a markdown index.  Re-run after adding
public API; ``tests/test_docs_consistency.py`` and CI run ``--check`` to
verify the committed file matches what this script would write.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

PACKAGES = [
    "repro",
    "repro.net",
    "repro.paths",
    "repro.sim",
    "repro.core",
    "repro.baselines",
    "repro.workloads",
    "repro.analysis",
    "repro.viz",
    "repro.scenarios",
    "repro.experiments",
    "repro.sweeps",
    "repro.tuning",
    "repro.telemetry",
    "repro.io",
]

HEADER = """# API index

One line per public name (generated by ``tools/gen_api_doc.py`` — do not
edit by hand).  See the module docstrings for the full documentation.
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    line = doc.splitlines()[0].strip()
    return line


def describe_module(name: str) -> list[str]:
    module = importlib.import_module(name)
    lines = [f"\n## `{name}`\n"]
    summary = first_line(module)
    lines.append(f"{summary}\n")
    names = getattr(module, "__all__", None)
    if not names:
        public = sorted(
            n for n in vars(module) if not n.startswith("_")
        )
        names = public
    rows = []
    for public_name in names:
        obj = getattr(module, public_name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        kind = (
            "class"
            if inspect.isclass(obj)
            else "function"
            if callable(obj)
            else "data"
        )
        rows.append(f"| `{public_name}` | {kind} | {first_line(obj)} |")
    if rows:
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        lines.extend(rows)
    return lines


def render() -> str:
    out = [HEADER]
    for package in PACKAGES:
        out.extend(describe_module(package))
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    check = "--check" in args
    target = pathlib.Path(__file__).resolve().parents[1] / "docs" / "api.md"
    text = render()
    if check:
        current = target.read_text(encoding="utf-8") if target.exists() else ""
        if current != text:
            print(
                f"{target} is out of date; regenerate with: "
                "python tools/gen_api_doc.py",
                file=sys.stderr,
            )
            return 1
        print(f"{target} is up to date")
        return 0
    target.write_text(text, encoding="utf-8")
    print(f"wrote {target} ({text.count(chr(10))} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
