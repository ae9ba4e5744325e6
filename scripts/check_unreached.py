#!/usr/bin/env python3
"""Fail when a library function is linked into no executable.

Builds every example and bench executable, and perfbench's
qbarren_perfbench in a build tree of its own, as an -O0 Debug build with
-ffunction-sections and -Wl,--gc-sections: each function sits in its own
section, the linker drops every section nothing reaches, and -O0 keeps a
function from hiding in its callers by inlining. A strong (`T`)
`qbarren::` function of the static libraries that no executable defines
is unreached.

Each unreached function must be listed, demangled as `nm -C` prints it,
in scripts/unreached_allowlist.txt with the reason it stays:

  qbarren::to_qasm(qbarren::Circuit const&)  # user API: TUTORIAL.md

The check fails on an unreached function that is not listed, and on a
listed one that is now reached or no longer exists, so the list cannot
go stale. Tests are not built: a function only tests call is unreached.

Usage:
  check_unreached.py [--build-dir build-unreached] [--jobs N]

Exit codes: 0 clean, 1 unlisted or stale entries, 2 build or tool error.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "scripts" / "unreached_allowlist.txt"

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def fail(message: str) -> None:
    sys.stderr.write(f"check_unreached: {message}\n")
    sys.exit(2)


def run(cmd: list[str]) -> str:
    result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
        fail(f"failed: {' '.join(cmd)}")
    return result.stdout


def build(build_dir: pathlib.Path,
          jobs: int) -> tuple[list[pathlib.Path], list[pathlib.Path]]:
    """Builds the executables; returns them and the static libraries."""
    main, perf = build_dir / "main", build_dir / "perfbench"
    run(["cmake", "-S", ".", "-B", str(main), "-DQBARREN_BUILD_TESTS=OFF"]
        + FLAGS)
    run(["cmake", "--build", str(main), "-j", str(jobs)])
    run(["cmake", "-S", "perfbench", "-B", str(perf)] + FLAGS)
    run(["cmake", "--build", str(perf), "-j", str(jobs),
         "--target", "qbarren_perfbench"])

    executables = [perf / "qbarren_perfbench"]
    for sub, pattern in (("examples", "*.cpp"), ("bench", "bench_*.cpp")):
        executables += [main / sub / src.stem
                        for src in sorted((ROOT / sub).glob(pattern))]
    missing = [str(exe) for exe in executables if not exe.is_file()]
    if missing:
        fail("not built: " + ", ".join(missing))
    return executables, sorted((main / "src").rglob("*.a"))


def defined(path: pathlib.Path, kinds: str | None) -> set[str]:
    """Demangled names `nm` lists as defined in `path` (of `kinds` only)."""
    names = set()
    for line in run(["nm", "-C", "--defined-only", str(path)]).splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and (kinds is None or parts[1] in kinds):
            names.add(parts[2])
    return names


def read_allowlist() -> dict[str, str]:
    entries: dict[str, str] = {}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, sep, reason = line.partition("  # ")
        if not sep or not reason.strip():
            fail(f"{ALLOWLIST.name}:{number}: expected '<name>  # <reason>'")
        entries[name.strip()] = reason.strip()
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default="build-unreached")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    executables, libraries = build(ROOT / args.build_dir, args.jobs)
    library = set()
    for archive in libraries:
        library |= {name for name in defined(archive, "T")
                    if name.startswith("qbarren::")}
    reached = set()
    for exe in executables:
        reached |= defined(exe, None)
    unreached = library - reached

    allowed = read_allowlist()
    unlisted = sorted(unreached - allowed.keys())
    now_reached = sorted(name for name in allowed.keys() - unreached
                         if name in library)
    gone = sorted(allowed.keys() - library)

    print(f"check_unreached: {len(library)} library functions, "
          f"{len(unreached)} unreached, {len(allowed)} listed")
    for title, names in (
            ("unreached and not listed (delete it, or list it with a reason)",
             unlisted),
            ("listed but reached (remove the entry)", now_reached),
            ("listed but not in any library (remove the entry)", gone)):
        if names:
            print(f"\n{title}:")
            for name in names:
                print(f"  {name}")
    return 1 if unlisted or now_reached or gone else 0


if __name__ == "__main__":
    sys.exit(main())
