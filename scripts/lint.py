#!/usr/bin/env python3
"""Repo-specific lint wall (DESIGN.md §9) — run from anywhere, no deps.

Five checks, each encoding a convention the compiler cannot see:

1. obs lane ranges: every fixed trace lane constant in src/obs/obs.hpp
   (kDriverTid, kRecoveryTid, ...) must sit at or above
   kDataDiskTidBase + 256, so a maximally wide stack (256 data-disk
   minors) can never alias a per-device lane onto a fixed lane.

2. metric registry, both ways: every metric name literal registered
   through MetricsRegistry (metrics.counter("...") / gauge / histogram)
   must be documented in the DESIGN.md §8 registry block between the
   `metric-registry:begin/end` markers. Wildcard entries (`audit.*`)
   cover dynamically composed names; a literal-prefix concatenation like
   counter("audit." + name) is checked as `audit.*`. Conversely, every
   name or wildcard at the head of a registry bullet (the backticked
   names before its ` — `) must match a string literal under src/ —
   exactly, or as a prefix for a wildcard — so a deleted metric cannot
   leave a stale row behind.

3. no naked new/delete under src/: ownership goes through containers and
   smart pointers. The one deliberate exception is the type-erasure
   small-buffer machinery in src/sim/callback.hpp.

4. thread-safety wall, primitives: no raw std::mutex /
   std::condition_variable / std::lock_guard / ... outside src/sync/.
   Everything locks through the annotated trail::sync wrappers so the
   Clang Thread Safety Analysis (-Wthread-safety, CI) sees every
   acquire/release site (DESIGN.md §11).

5. thread-safety wall, coverage: inside any class that declares a
   sync::Mutex member, every mutable data member must carry
   TRAIL_GUARDED_BY/TRAIL_PT_GUARDED_BY (the latter for pointers whose
   pointee the mutex protects, e.g. the SubmissionQueue's mpsc.* metric
   cells). Exempt: std::atomic members, const/static/constexpr members,
   sync primitives themselves, and members annotated with an
   `// unguarded: <reason>` comment (the reviewed escape hatch; src/
   has no such member).

Exit status 0 = clean, 1 = findings (printed one per line).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Files allowed to use naked new/delete (reviewed, deliberate).
NEW_DELETE_ALLOWLIST = {"sim/callback.hpp"}

findings: list[str] = []


def fail(path: Path, lineno: int, message: str) -> None:
    findings.append(f"{path.relative_to(REPO)}:{lineno}: {message}")


def source_files() -> list[Path]:
    return sorted(p for p in SRC.rglob("*") if p.suffix in {".cpp", ".hpp"})


def strip_comments(line: str) -> str:
    """Good enough for lint: drop // comments and string literals."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line.split("//")[0]


# ---------------------------------------------------------------- check 1

def check_obs_lanes() -> None:
    obs_hpp = SRC / "obs" / "obs.hpp"
    text = obs_hpp.read_text()
    consts: dict[str, int] = {}
    for m in re.finditer(
        r"inline constexpr std::uint32_t (k\w*Tid\w*)\s*=\s*(\d+)\s*;", text
    ):
        consts[m.group(1)] = int(m.group(2))

    base = consts.get("kDataDiskTidBase")
    if base is None:
        fail(obs_hpp, 1, "kDataDiskTidBase not found (lane check cannot run)")
        return
    floor = base + 256  # DeviceId minor is 8 bits: 256 data-disk lanes
    for name, value in sorted(consts.items()):
        if name == "kDataDiskTidBase":
            continue
        if value < floor:
            fail(
                obs_hpp,
                1,
                f"fixed lane {name}={value} collides with the data-disk lane "
                f"range [{base}, {floor}) — move it to >= {floor}",
            )


# ---------------------------------------------------------------- check 2

METRIC_CALL = re.compile(
    r"""\b(?:metrics\s*(?:\.|->)\s*)?(counter|gauge|histogram)\(\s*"([^"]+)"\s*([+)])"""
)
# Call sites that are EventTracer counter lanes, not registry metrics.
TRACER_FILES = {"obs/trace.hpp", "obs/trace.cpp"}


REGISTRY_NAME = re.compile(r"`([a-z0-9_.*]+)`")
STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')


def registry_block() -> tuple[str, int] | None:
    """The registry block's text and the DESIGN.md line it starts on."""
    text = (REPO / "DESIGN.md").read_text()
    m = re.search(
        r"<!--\s*metric-registry:begin\s*-->(.*?)<!--\s*metric-registry:end\s*-->",
        text,
        re.S,
    )
    if m is None:
        findings.append("DESIGN.md: metric-registry:begin/end block not found")
        return None
    return m.group(1), text.count("\n", 0, m.start(1)) + 1


def name_documented(name: str, patterns: list[str]) -> bool:
    for pat in patterns:
        if pat == name:
            return True
        if pat.endswith("*") and name.startswith(pat[:-1]):
            return True
    return False


def check_metric_registry() -> None:
    block = registry_block()
    if block is None:
        return
    patterns = REGISTRY_NAME.findall(block[0])
    if not patterns:
        findings.append("DESIGN.md: metric registry block lists no metric names")
        return
    for path in source_files():
        rel = str(path.relative_to(SRC))
        if rel in TRACER_FILES:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            # Tracer counter lanes share the method name `counter` but
            # take (name, category, ...) — skip lines routed at a tracer.
            if "tracer." in line or "tracer->" in line:
                continue
            for m in METRIC_CALL.finditer(line):
                name = m.group(2)
                if m.group(3) == "+":  # concatenation: check the prefix
                    name += "*"
                if not name_documented(name, patterns):
                    fail(
                        path,
                        lineno,
                        f"metric '{name}' is not in the DESIGN.md §8 metric "
                        f"registry block — document it (or fix the name)",
                    )
    check_registry_rows_registered(*block)


def check_registry_rows_registered(text: str, first_line: int) -> None:
    literals: set[str] = set()
    for path in source_files():
        literals.update(STRING_LITERAL.findall(path.read_text()))
    for offset, line in enumerate(text.splitlines()):
        bullet = re.match(r"\s*-\s+(.*)", line)
        if bullet is None:
            continue
        head = bullet.group(1).split(" — ", 1)[0]
        for name in REGISTRY_NAME.findall(head):
            if name.endswith("*"):
                found = any(lit.startswith(name[:-1]) for lit in literals)
            else:
                found = name in literals
            if not found:
                fail(
                    REPO / "DESIGN.md",
                    first_line + offset,
                    f"registry row '{name}' matches no string literal under src/ "
                    f"— delete the row (or fix the name)",
                )


# ---------------------------------------------------------------- check 3

NAKED_NEW = re.compile(r"(?<![:_\w])new\s+[A-Za-z_(]")
NAKED_DELETE = re.compile(r"(?<![:_\w])delete(\[\])?\s+[A-Za-z_*(]")
PLACEMENT_NEW = re.compile(r"::new\s*\(")


def check_naked_new_delete() -> None:
    for path in source_files():
        rel = str(path.relative_to(SRC))
        if rel in NEW_DELETE_ALLOWLIST:
            continue
        in_block_comment = False
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = raw
            if in_block_comment:
                if "*/" not in line:
                    continue
                line = line.split("*/", 1)[1]
                in_block_comment = False
            if "/*" in line:
                head, _, tail = line.partition("/*")
                line = head
                if "*/" not in tail:
                    in_block_comment = True
            line = strip_comments(line)
            line = PLACEMENT_NEW.sub("", line)  # placement new is fine
            if NAKED_NEW.search(line):
                fail(path, lineno, "naked `new` — use make_unique/make_shared or a container")
            if NAKED_DELETE.search(line):
                fail(path, lineno, "naked `delete` — ownership must be RAII-managed")


# ------------------------------------------------------------ checks 4+5

RAW_SYNC = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)

CLASS_HEADER = re.compile(r"\b(?:class|struct)\b")
MUTEX_MEMBER = re.compile(r"\bsync::Mutex\s+\w+_\s*;")
# A data-member declaration: type, name ending in `_`, optional array /
# annotation / initializer. Function declarations never match (their
# parameter list puts `(`/`)` between the type and the `;`).
MEMBER_DECL = re.compile(
    r"^\s*(?:mutable\s+)?[A-Za-z_][\w:<>,\s\*&]*[\s\*&](\w+_)\s*"
    r"(?:\[[^\]]*\])?\s*(?:TRAIL(?:_PT)?_GUARDED_BY\([^;]*\))?\s*"
    r"(?:\{[^;]*\}|=[^;]*)?;"
)


def strip_block_comments(lines: list[str]) -> list[str]:
    """Per-line comment/string stripping with /* */ state carried across
    lines — the same treatment check 3 applies inline."""
    out = []
    in_block = False
    for raw in lines:
        line = raw
        if in_block:
            if "*/" not in line:
                out.append("")
                continue
            line = line.split("*/", 1)[1]
            in_block = False
        while "/*" in line:
            head, _, tail = line.partition("/*")
            if "*/" in tail:
                line = head + tail.split("*/", 1)[1]
            else:
                line = head
                in_block = True
        out.append(strip_comments(line))
    return out


def check_raw_sync_primitives() -> None:
    for path in source_files():
        rel = str(path.relative_to(SRC))
        if rel.startswith("sync/"):
            continue  # the one place allowed to touch the raw primitives
        for lineno, line in enumerate(strip_block_comments(path.read_text().splitlines()), 1):
            m = RAW_SYNC.search(line)
            if m:
                fail(
                    path,
                    lineno,
                    f"raw std::{m.group(1)} outside src/sync/ — lock through "
                    f"trail::sync (Mutex/MutexLock/CondVar) so the thread-safety "
                    f"analysis sees it",
                )


def class_bodies(stripped: list[str]):
    """Yield (start_lineno, member_lines) per class/struct body, where
    member_lines are the (lineno, text) pairs at exactly that body's
    depth — nested function/class bodies are excluded."""
    open_stack: list[list] = []  # ['class'|'other', start_lineno, members]
    header = ""
    for lineno, line in enumerate(stripped, 1):
        encl = open_stack[-1] if open_stack else None
        if encl is not None and encl[0] == "class":
            encl[2].append((lineno, line))
        for ch in line:
            if ch == "{":
                kind = "class" if CLASS_HEADER.search(header) and "=" not in header else "other"
                open_stack.append([kind, lineno, []])
                header = ""
            elif ch == "}":
                if open_stack:
                    entry = open_stack.pop()
                    if entry[0] == "class":
                        yield entry[1], entry[2]
            elif ch == ";":
                header = ""
            else:
                header += ch


def member_exempt(line: str, raw: str) -> bool:
    if "TRAIL_GUARDED_BY" in line or "TRAIL_PT_GUARDED_BY" in line:
        return True
    if re.match(r"^\s*(static|constexpr|const)\b", line):
        return True  # immutable after construction: no lock needed
    if "std::atomic" in line:
        return True  # lock-free by design (metrics hot path)
    if "sync::Mutex" in line or "sync::CondVar" in line:
        return True  # the capability itself / its wait queues
    return "unguarded:" in raw  # reviewed escape hatch, reason required


def check_guarded_members() -> None:
    for path in source_files():
        rel = str(path.relative_to(SRC))
        if rel.startswith("sync/"):
            continue
        raw_lines = path.read_text().splitlines()
        stripped = strip_block_comments(raw_lines)
        for _, members in class_bodies(stripped):
            if not any(MUTEX_MEMBER.search(line) for _, line in members):
                continue  # lock-free or single-threaded class: not our business
            for lineno, line in members:
                m = MEMBER_DECL.match(line)
                if m is None:
                    continue
                if not member_exempt(line, raw_lines[lineno - 1]):
                    fail(
                        path,
                        lineno,
                        f"member '{m.group(1)}' of a sync::Mutex-bearing class "
                        f"lacks TRAIL_GUARDED_BY (annotate it, or mark the line "
                        f"`// unguarded: <reason>`)",
                    )


def main() -> int:
    check_obs_lanes()
    check_metric_registry()
    check_naked_new_delete()
    check_raw_sync_primitives()
    check_guarded_members()
    if findings:
        print(f"lint.py: {len(findings)} finding(s)")
        for f in findings:
            print(f"  {f}")
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
