#!/usr/bin/env python3
"""Fail when src/ holds a function that no shipped binary reaches.

The shipped binaries are the four tools (src/sunfloor/tools/*.cpp), the
bench_* programs (bench/*.cpp), the example_* programs (examples/*.cpp)
and perfbench's sfbench. The script builds all of them at -O0 with one
section per function and links with --gc-sections, so a binary keeps
exactly the library functions it can call. -O0 matters: with inlining, a
function called only inside its own translation unit would vanish from
the binaries and look unreachable.

A library function is an out-of-line global text symbol (nm type T) of
libsunfloor.a. It is unreached when no shipped binary defines it. The
check fails when

  * an unreached function is not in ALLOWED below,
  * an ALLOWED entry is reached, or no longer exists (no stale entries),
  * a shipped binary is missing (without Google Benchmark the bench_*
    targets are skipped, and bench-only code would look dead).

A function that only tests need belongs in tests/oracle, not in src/.

Run it from anywhere (needs cmake, a C++20 compiler, binutils and Google
Benchmark; a fresh build takes about 1.5 minutes on 4 cores, a rerun
rebuilds only what changed):

    python3 .github/scripts/reachability.py [--build-dir DIR]
"""

import argparse
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Unreached by every shipped binary, kept on purpose. {demangled: reason}
ALLOWED = {
    "sunfloor::sim::Simulator::Simulator(sunfloor::sim::Simulator&&)":
        "out-of-line move of the pimpl: gives Simulator value semantics",
    "sunfloor::sim::Simulator::operator=(sunfloor::sim::Simulator&&)":
        "out-of-line move of the pimpl: gives Simulator value semantics",
    "sunfloor::sim::Simulator::run_zero_load(sunfloor::sim::SimParams)":
        "sim_zero_load_test cross-checks simulated against analytic "
        "flow_latency; the probe needs the engine's internals",
    "sunfloor::pipeline::SynthesisSession::route("
    "sunfloor::CoreAssignment const&, "
    "sunfloor::SynthesisConfig const&)":
        "the cache-key tests forge routing artifacts through it",
    "sunfloor::pipeline::SynthesisSession::place(std::shared_ptr<"
    "sunfloor::pipeline::RoutingArtifact const>, "
    "sunfloor::SynthesisConfig const&)":
        "the cache-key tests forge placement artifacts through it",
    "sunfloor::pipeline::SynthesisSession::evaluate(std::shared_ptr<"
    "sunfloor::pipeline::PlacementArtifact const>, "
    "sunfloor::SynthesisConfig const&)":
        "the cache-key tests forge placed designs through it",
    "sunfloor::pipeline::SynthesisSession::artifact_count() const":
        "the only way a test sees that a throwing compute leaves no entry",
    "sunfloor::routing::RouteSets::options(int, int, int) const":
        "routing_policy_test and the route-set CDG oracle read route sets "
        "through it",
    "sunfloor::obs::trace_buffered_events()":
        "obs_test checks through it that a span without a sink records "
        "nothing; the buffers are private to trace.cpp",
}

# The build type's flags come after CMAKE_CXX_FLAGS on the command line,
# so the flags go there: a Debug build's default -g would otherwise win.
CMAKE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def build(source, tree, *extra):
    subprocess.run(["cmake", "-S", str(source), "-B", str(tree), *CMAKE_FLAGS,
                    *extra], check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(tree), "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=subprocess.DEVNULL)


def nm(path):
    """Yield (object file or None, type, demangled name) per defined symbol."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    obj = None
    for line in out.splitlines():
        if line.endswith(":"):
            obj = line[:-1]
            continue
        parts = line.split(" ", 2)
        if len(parts) == 3:
            yield obj, parts[1], parts[2]


def shipped_binaries(root_tree, perf_tree):
    names = [p.stem for p in (ROOT / "src/sunfloor/tools").glob("*.cpp")]
    names += [p.stem for p in (ROOT / "bench").glob("*.cpp")]
    names += ["example_" + p.stem for p in (ROOT / "examples").glob("*.cpp")]
    return [root_tree / n for n in sorted(names)] + [perf_tree / "sfbench"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=str(ROOT / "build-reachability"),
                    help="scratch build directory (default: %(default)s)")
    args = ap.parse_args()

    root_tree = Path(args.build_dir) / "root"
    perf_tree = Path(args.build_dir) / "perfbench"
    build(ROOT, root_tree, "-DBUILD_TESTING=OFF")
    build(ROOT / "perfbench", perf_tree)

    failures = []
    binaries = shipped_binaries(root_tree, perf_tree)
    missing = [b.name for b in binaries if not b.exists()]
    if missing:
        failures.append("shipped binaries not built (is Google Benchmark "
                        "installed?): " + ", ".join(missing))

    library = {}  # demangled name -> object file
    for obj, kind, name in nm(root_tree / "libsunfloor.a"):
        if kind == "T":
            library.setdefault(name, obj)
    reached = set()
    for b in binaries:
        if b.exists():
            reached.update(name for _, _, name in nm(b))
    unreached = set(library) - reached

    by_object = defaultdict(list)
    for name in unreached - set(ALLOWED):
        by_object[library[name]].append(name)
    for obj in sorted(by_object):
        failures.append(f"{obj}: no shipped binary reaches\n    " +
                        "\n    ".join(sorted(by_object[obj])))
    for name in sorted(ALLOWED):
        if name not in library:
            failures.append(f"stale allow-list entry (no such function): "
                            f"{name}")
        elif name in reached:
            failures.append(f"stale allow-list entry (now reached): {name}")

    print(f"{len(binaries)} shipped binaries, {len(library)} library "
          f"functions, {len(unreached)} unreached, "
          f"{len(ALLOWED)} allow-listed")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        print("\nDelete the function, move a test-only helper to "
              "tests/oracle, or allow-list it with a reason in "
              f"{Path(__file__).relative_to(ROOT)}.", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
