#!/usr/bin/env python3
"""Report src/ functions that only tests reach.

Usage:
    test_only_report.py BUILD_DIR [BUILD_DIR ...]

Each BUILD_DIR is a gcov-instrumented build tree (`--coverage`) whose
production entry points (examples, benches, perfbench) have already run;
the tests must not have run in it. The script runs `gcov --json-format`
over every object of every tree, keeps the functions defined under src/,
and lists those with zero calls in all trees combined. Test objects are
read too, with zero counts since the tests never ran: a function defined
inline in a src/ header is emitted only in the objects that call it, so
one that only tests call appears in no other object.

Names are demangled, with no line numbers, so unrelated edits do not
churn the list. A lambda is folded into its enclosing function (the
function counts as reached when it or any of its lambdas ran), and a
template instantiation is keyed by its template, without return type,
template arguments or parameters (a template counts as reached when any
instantiation ran, so one for a caller's private lambda type does not
show up on its own).

The list is compared with the committed allowlist,
scripts/test_only_allowlist.txt: one name per line, grouped under
`# reason` comments. A test-only function missing from the allowlist
fails the run (exit 1): delete it, give it a production caller, or add
it under the reason it stays. Allowlist entries that are now reached, or
no longer exist, are printed as a notice only, because real-thread
timing can change which functions a run reaches. Both lists are the
names to add to or remove from the allowlist.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ALLOWLIST = REPO / "scripts" / "test_only_allowlist.txt"

# Compiler-generated per-object functions: they run whenever the object is
# linked into a binary that starts, so they say nothing about callers.
GENERATED = ("__static_initialization_and_destruction", "_GLOBAL__sub_I_")
LAMBDA = "::{lambda("
ANONYMOUS = "(anonymous namespace)"
OPERATOR_TOKEN = re.compile(r"\boperator(?:<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>|\(\)|\[\])")
# A space that may end a return type: not one before a cv or ref qualifier.
RETURN_TYPE_END = re.compile(r" (?!(?:const|volatile)\b|[&*\[])")


def gcov_documents(gcno: Path) -> list[dict]:
    """gcov's JSON documents for one object (all-zero when it never ran)."""
    done = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--demangled-names",
         "--object-directory", str(gcno.parent), str(gcno)],
        cwd=gcno.parent, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"test_only_report: gcov failed on {gcno}:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.strip()]


def mask(name: str) -> str:
    """Blank out the brackets that are not template or parameter lists."""
    name = name.replace(ANONYMOUS, "@" * len(ANONYMOUS))
    return OPERATOR_TOKEN.sub(lambda m: "@" * len(m.group(0)), name)


def balanced(prefix: str) -> bool:
    """No template argument list or parameter list is open at the end."""
    return prefix.count("<") == prefix.count(">") and prefix.count("(") == prefix.count(")")


def strip_template_args(name: str, masked: str) -> tuple[str, str]:
    """`name` and its mask with every top-level `<...>` emptied to `<>`."""
    out, out_masked, depth = [], [], 0
    for ch, m in zip(name, masked):
        if m == "<":
            if depth == 0:
                out.append("<>")
                out_masked.append("<>")
            depth += 1
        elif m == ">":
            depth -= 1
        elif depth == 0:
            out.append(ch)
            out_masked.append(m)
    return "".join(out), "".join(out_masked)


def strip_return_type(name: str, masked: str) -> tuple[str, str]:
    """`name` and its mask without a function template's return type: the
    text up to the last top-level space that a parameter list follows."""
    depth, space, cut = 0, None, 0
    for i, ch in enumerate(masked):
        if depth == 0 and RETURN_TYPE_END.match(masked, i) and \
                not masked[:i].endswith("operator"):
            space = i
        elif depth == 0 and ch == "(" and space is not None:
            cut = space + 1
        depth += (ch in "<({") - (ch in ">)}")
    return name[cut:], masked[cut:]


def function_key(name: str) -> str:
    """Fold a lambda into its enclosing function and an instantiation into
    its template. A return type goes first: it may name a lambda too.

    >>> function_key("trail::core::TrailDriver::mount()::{lambda()#1}::operator()() const")
    'trail::core::TrailDriver::mount()'
    >>> function_key("void trail::db::loop<Foo::bar()::{lambda(int)#2}>"
    ...              "(Foo::bar()::{lambda(int)#2}&&)")
    'trail::db::loop<>'
    >>> function_key("TestBody()::{lambda()#1}& trail::sim::detail::target"
    ...              "<TestBody()::{lambda()#1}>(void*)")
    'trail::sim::detail::target<>'
    """
    name, masked = strip_return_type(name, mask(name))
    start = masked.find(LAMBDA)
    while start != -1:
        if balanced(masked[:start]):
            name, masked = name[:start], masked[:start]
            break
        start = masked.find(LAMBDA, start + 1)
    depth, params = 0, len(masked)
    for i, ch in enumerate(masked):
        depth += (ch == "<") - (ch == ">")
        if ch == "(" and depth == 0:
            params = i
            break
    if "<" not in masked[:params]:
        return name
    return strip_template_args(name[:params], masked[:params])[0]


def in_src(cwd: str, file: str) -> bool:
    path = Path(os.path.realpath(os.path.join(cwd, file)))
    return path.is_relative_to(SRC)


def test_only_functions(build_dirs: list[Path]) -> set[str]:
    calls: dict[str, int] = {}
    for build_dir in build_dirs:
        notes = sorted(build_dir.rglob("*.gcno"))
        if not notes:
            sys.exit(f"test_only_report: no .gcno files under {build_dir} "
                     f"(not a --coverage build?)")
        for gcno in notes:
            for doc in gcov_documents(gcno):
                cwd = doc.get("current_working_directory", str(gcno.parent))
                for entry in doc.get("files", []):
                    if not in_src(cwd, entry["file"]):
                        continue
                    for fn in entry.get("functions", []):
                        name = fn.get("demangled_name") or fn["name"]
                        if name.startswith(GENERATED):
                            continue
                        key = function_key(name)
                        calls[key] = calls.get(key, 0) + fn["execution_count"]
    return {name for name, count in calls.items() if count == 0}


def read_allowlist(path: Path) -> set[str]:
    names = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            names.add(line)
    return names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dirs", nargs="+", type=Path)
    args = parser.parse_args()

    found = test_only_functions([d.resolve() for d in args.build_dirs])
    allowed = read_allowlist(ALLOWLIST)
    missing = sorted(found - allowed)
    stale = sorted(allowed - found)
    print(f"test_only_report: {len(found)} src/ function(s) reached only by tests; "
          f"{len(allowed)} allowlisted")
    if stale:
        print(f"notice: {len(stale)} allowlist entries reached by this run or gone "
              f"from src/ (remove them if that holds across runs):")
        for name in stale:
            print(f"  {name}")
    if missing:
        print(f"error: {len(missing)} function(s) reached only by tests and not in "
              f"{os.path.relpath(ALLOWLIST)} — delete them, give them a production "
              f"caller, or allowlist them under the reason they stay:")
        for name in missing:
            print(f"  {name}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
