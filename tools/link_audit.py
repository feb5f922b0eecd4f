#!/usr/bin/env python3
"""Link audit: fails when a function defined in src/ is linked by no binary.

Builds every target of the repository (tests, benches and examples) and
the perfbench program at -O0 with -ffunction-sections, links them with
--gc-sections, then compares the functions the src/ libraries define with
the functions left in the linked binaries. A function that no binary
keeps is dead code; tests count as binaries. -O0 keeps every function out
of line, so an inlined function cannot pass for an unused one. Functions
with internal linkage (static, or in an anonymous namespace) are matched
by name and by the source file the debug info gives for them, so a dead
helper is not hidden by a live one of the same name in another file.

Audited: out-of-line functions of the pandora namespace (anonymous
namespaces included) and the extern "C" functions src/ defines. Inline
and template functions are weak symbols, emitted wherever they are used,
and lambda bodies belong to their enclosing function; neither is audited.
Same-named internal functions defined in one header are not told apart.

Usage: python3 tools/link_audit.py [--build-dir DIR] [-j N]
Exits 0 when every audited function is linked by some binary, and 1 after
listing the ones that are not.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CMAKE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g -ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
# Static constructors and the like: emitted per object, never audited.
COMPILER_PREFIXES = ("_GLOBAL__sub_I_", "_GLOBAL__I_", "__cxx_global_var_init")


def build(source: Path, build_dir: Path, jobs: int) -> None:
    subprocess.run(["cmake", "-S", str(source), "-B", str(build_dir),
                    *CMAKE_FLAGS], check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(build_dir), f"-j{jobs}"],
                   check=True, stdout=subprocess.DEVNULL)


def defined_symbols(path: Path, types: str) -> list[tuple[str, tuple]]:
    """(object, key) for each defined symbol of one of `types`.

    The key is (name, source file) for an internal ("t") symbol, whose
    name alone may repeat across files, and (name, None) otherwise.
    """
    out = subprocess.run(["nm", "--defined-only", "--line-numbers",
                          str(path)], check=True, capture_output=True,
                         text=True).stdout
    member = path.name
    symbols = []
    for line in out.splitlines():
        symbol, _, location = line.partition("\t")
        fields = symbol.split()
        if len(fields) == 1 and line.endswith(":"):
            member = line[:-1]  # An archive member's header.
        elif len(fields) == 3 and fields[1] in types:
            source = location.rpartition(":")[0] if fields[1] == "t" else None
            symbols.append((member, (fields[2], source)))
    return symbols


def demangle(names: list[str]) -> list[str]:
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def is_elf_executable(path: Path) -> bool:
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path,
                        default=ROOT / ".link_audit",
                        help="scratch build tree (default: .link_audit/)")
    parser.add_argument("-j", "--jobs", type=int, default=os.cpu_count())
    args = parser.parse_args()

    repo_build = args.build_dir / "repo"
    perfbench_build = args.build_dir / "perfbench"
    build(ROOT, repo_build, args.jobs)
    build(ROOT / "perfbench", perfbench_build, args.jobs)

    libraries = sorted((repo_build / "src").glob("libpandora_*.a"))
    if not libraries:
        print(f"link audit: no src/ libraries under {repo_build}/src")
        return 1
    defined = {}  # (mangled name, source or None) -> (library, object)
    for library in libraries:
        for member, key in defined_symbols(library, "Tt"):
            if not key[0].startswith(COMPILER_PREFIXES):
                defined.setdefault(key, (library.name, member))
    keys = sorted(defined, key=lambda k: (k[0], k[1] or ""))
    audited = {}
    for key, pretty in zip(keys, demangle([name for name, _ in keys])):
        in_pandora = pretty.startswith("pandora::") or key[0] == pretty
        if in_pandora and "{lambda(" not in pretty:
            audited[key] = pretty

    binaries = [path for tree in (repo_build, perfbench_build)
                for path in sorted(tree.rglob("*"))
                if "CMakeFiles" not in path.parts and is_elf_executable(path)]
    linked = set()
    for binary in binaries:
        for _, (name, source) in defined_symbols(binary, "TtWw"):
            # A hidden global ("T" in its library) links as a local "t".
            linked.update({(name, source), (name, None)})

    dead = sorted((defined[key], audited[key])
                  for key in audited if key not in linked)
    print(f"link audit: {len(audited)} src/ functions, {len(binaries)} "
          f"binaries, {len(dead)} linked by none")
    for (library, member), pretty in dead:
        print(f"  {library}({member}): {pretty}")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
