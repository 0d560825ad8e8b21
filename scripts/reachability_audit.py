#!/usr/bin/env python3
"""reachability_audit — fail on library code that only tests reach.

Every function in the prose_* libraries should be on a path that a
bench exhibit, an example or perfbench actually links. A function that
only tests/ and fuzz/ binaries link is either dead weight or an oracle a
test diffs a pipeline path against; the latter must be named, with a
one-line reason, in scripts/reachability_allowlist.txt.

The audit reads symbol tables, so it needs builds in which the linker
has dropped every unreferenced function. -fdata-sections matters as
much as -ffunction-sections: without it a switch's jump table lands in
the shared .rodata section, which then keeps every function holding a
switch alive.

  cmake -S . -B build-reach -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-reach -j
  cmake -S perfbench -B build-reach-perfbench -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-reach-perfbench -j
  scripts/reachability_audit.py --build-dir build-reach \\
        --perfbench-build-dir build-reach-perfbench

Candidates are the prose:: text symbols the libprose_*.a archives of
--build-dir define. Pipeline binaries are the executables under bench/
and examples/ of --build-dir plus those of --perfbench-build-dir; test
binaries are the executables under tests/ and fuzz/. A candidate is
test-only when some test binary keeps it and no pipeline binary does.
Plain functions are compared overload by overload, by demangled
signature; every instantiation of a template counts as the template
itself, so a template that a pipeline binary instantiates at all is
reached. Constructors, destructors and assignment operators that the
libraries define only as weak symbols are left out: those are the
compiler's implicit members (or header-inline ones), with no source line
to delete. An allowlist line names a function by its qualified name
without parameters or template arguments, which covers all its
overloads, or by one full signature as the audit prints it.

Usage:
  scripts/reachability_audit.py --build-dir DIR --perfbench-build-dir DIR
  scripts/reachability_audit.py --self-test

Exit status: 0 clean, 1 a test-only function is not allowlisted or an
allowlist entry is stale, 2 usage/tool error.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

ALLOWLIST_DEFAULT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "reachability_allowlist.txt")
PROSE_MANGLED = re.compile(r"^_ZN[rVKO]*5prose")
TEXT_TYPES = {"T", "t", "W"}
PIPELINE_DIRS = ("bench", "examples")
TEST_DIRS = ("tests", "fuzz")


def qualified_key(demangled):
    """prose::Matrix::at(unsigned long) const -> prose::Matrix::at.

    Drops a leading return type (template functions demangle with one),
    the parameter list and every template argument list, keeping
    operator spellings such as operator() and operator<< intact."""
    text = demangled.replace("(anonymous namespace)", "[anon]")
    out = []
    depth = 0
    i = 0
    while i < len(text):
        if text.startswith("operator", i) and depth == 0:
            j = i + len("operator")
            if text.startswith("()", j):
                j += 2
            else:
                while j < len(text) and text[j] in "+-*/%^&|~!=<>,[]":
                    j += 1
            out.append(text[i:j])
            i = j
            continue
        c = text[i]
        if c in "<{":
            depth += 1
        elif c in ">}":
            depth -= 1
        elif c == "(" and depth == 0:
            break
        elif depth == 0:
            out.append(c)
        i += 1
    name = "".join(out).strip().replace("[abi:cxx11]", "")
    # A leading return type ("float prose::f") ends at the last
    # top-level space.
    return name.rsplit(" ", 1)[-1]


def signature_key(demangled):
    """The audit's unit: the signature of a plain function, the
    qualified name of a template instantiation."""
    text = (demangled.replace("[abi:cxx11]", "")
            .replace("(anonymous namespace)", "[anon]"))
    name = qualified_key(text)
    return text if name + "(" in text else name


def is_special_member(key):
    """Constructor, destructor or assignment operator, by qualified
    name."""
    parts = key.split("::")
    return len(parts) >= 2 and (parts[-1] in (parts[-2], "~" + parts[-2],
                                              "operator="))


def run_nm(path):
    """Defined text symbols of an object, archive or executable, each
    mapped to whether it is weak."""
    proc = subprocess.run(["nm", "--defined-only", path],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"nm failed on {path}: {proc.stderr.strip()}")
    symbols = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in TEXT_TYPES \
                and PROSE_MANGLED.match(parts[2]):
            weak = parts[1] == "W"
            symbols[parts[2]] = symbols.get(parts[2], True) and weak
    return symbols


def demangle(symbols):
    ordered = sorted(symbols)
    proc = subprocess.run(["c++filt"], input="\n".join(ordered),
                          capture_output=True, text=True, check=True)
    return dict(zip(ordered, proc.stdout.splitlines()))


def is_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def executables(root, subdirs):
    found = []
    for sub in subdirs:
        base = os.path.join(root, sub) if sub else root
        if not os.path.isdir(base):
            continue
        for name in sorted(os.listdir(base)):
            path = os.path.join(base, name)
            if is_executable(path):
                found.append(path)
    return found


def archives(build_dir):
    found = []
    for dirpath, dirnames, filenames in os.walk(build_dir):
        dirnames.sort()
        for name in sorted(filenames):
            if name.startswith("libprose_") and name.endswith(".a"):
                found.append(os.path.join(dirpath, name))
    return found


def load_allowlist(path):
    """name -> reason. One entry per line: a qualified name, then its
    reason; '#' starts a comment line."""
    entries = {}
    errors = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition(" ")
            if not reason.strip():
                errors.append(f"{path}:{lineno}: {name} has no reason")
            entries[name] = reason.strip()
    return entries, errors


def audit(candidates, pipeline, tests, allowlist):
    """candidates: signature set from the libraries; pipeline/tests:
    binary -> signature set. Returns (unlisted, stale, allowed): unlisted
    maps each test-only signature that the allowlist does not cover to
    the test binaries that keep it; stale lists allowlist entries that
    cover no test-only signature; allowed lists the entries that do."""
    reached = set().union(*pipeline.values()) if pipeline else set()
    by_test = {}
    for binary, sigs in tests.items():
        for sig in sigs & candidates:
            if sig not in reached:
                by_test.setdefault(sig, []).append(binary)
    used = set()
    unlisted = {}
    for sig, binaries in by_test.items():
        hits = {sig, qualified_key(sig)} & set(allowlist)
        used |= hits
        if not hits:
            unlisted[sig] = binaries
    stale = sorted(set(allowlist) - used)
    allowed = sorted(used)
    return unlisted, stale, allowed


def self_test():
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    check("plain method", qualified_key(
        "prose::Matrix::at(unsigned long, unsigned long) const")
        == "prose::Matrix::at")
    check("return type and template args", qualified_key(
        "float prose::kernels::dot<8>(float const*, float const*)")
        == "prose::kernels::dot")
    check("call operator", qualified_key(
        "prose::Rng::operator()()") == "prose::Rng::operator()")
    check("shift operator", qualified_key(
        "prose::operator<<(std::ostream&, prose::Op const&)")
        == "prose::operator<<")
    check("anonymous namespace", qualified_key(
        "prose::(anonymous namespace)::helper(int)")
        == "prose::[anon]::helper")
    check("lambda template argument", qualified_key(
        "void prose::ThreadPool::parallelFor<prose::f(int)::"
        "{lambda(unsigned long)#1}>(unsigned long, "
        "prose::f(int)::{lambda(unsigned long)#1} const&)")
        == "prose::ThreadPool::parallelFor")

    candidates = {"prose::a()", "prose::b()", "prose::c()", "prose::d()",
                  "prose::e(int)", "prose::e(double)"}
    pipeline = {"bench/x": {"prose::a()", "prose::e(int)"},
                "examples/y": {"prose::b()"}}
    tests = {"tests/t": {"prose::a()", "prose::c()", "prose::d()",
                         "prose::e(double)", "gtest()"},
             "fuzz/f": {"prose::c()"}}
    unlisted, stale, allowed = audit(candidates, pipeline, tests,
                                     {"prose::d": "oracle"})
    check("test-only found",
          set(unlisted) == {"prose::c()", "prose::e(double)"})
    check("both test binaries named",
          sorted(unlisted.get("prose::c()", [])) == ["fuzz/f", "tests/t"])
    check("allowlisted passes", allowed == ["prose::d"])
    check("nothing stale", stale == [])
    unlisted, stale, _ = audit(candidates, pipeline, tests,
                               {"prose::a": "now reached", "prose::z": "gone",
                                "prose::c": "hook", "prose::d": "oracle",
                                "prose::e(double)": "one overload"})
    check("stale entries", stale == ["prose::a", "prose::z"])
    check("signature entry covers one overload", not unlisted)
    check("non-candidates ignored",
          "gtest()" not in audit(candidates, pipeline, tests, {})[0])
    check("abi tag dropped", qualified_key(
        "prose::ganttString[abi:cxx11](int)") == "prose::ganttString")
    check("plain function keeps its signature", signature_key(
        "prose::toString(prose::ArrivalKind)")
        == "prose::toString(prose::ArrivalKind)")
    check("template instantiations fold", signature_key(
        "void prose::fatal<char const (&) [5]>(char const (&) [5])")
        == "prose::fatal")
    check("special members", all(map(is_special_member, [
        "prose::Matrix::Matrix", "prose::Matrix::~Matrix",
        "prose::Op::operator="])) and not is_special_member("prose::f"))

    total = 17
    if failures:
        for name in failures:
            print(f"self-test FAIL: {name}", file=sys.stderr)
        return 1
    print(f"self-test: {total}/{total} cases ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build-reach",
                        help="root build with -ffunction-sections "
                             "-fdata-sections and -Wl,--gc-sections")
    parser.add_argument("--perfbench-build-dir",
                        default="build-reach-perfbench",
                        help="perfbench build with the same flags")
    parser.add_argument("--allowlist", default=ALLOWLIST_DEFAULT,
                        help="allowed test-only functions, with reasons")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded audit tests and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    for tool in ("nm", "c++filt"):
        if shutil.which(tool) is None:
            print(f"error: {tool} not on PATH", file=sys.stderr)
            return 2
    for path in (args.build_dir, args.perfbench_build_dir):
        if not os.path.isdir(path):
            print(f"error: no build dir {path}", file=sys.stderr)
            return 2

    libs = archives(args.build_dir)
    pipeline_bins = (executables(args.build_dir, PIPELINE_DIRS)
                     + executables(args.perfbench_build_dir, ("",)))
    test_bins = executables(args.build_dir, TEST_DIRS)
    if not libs or not pipeline_bins or not test_bins:
        print("error: missing libprose_*.a archives or executables; "
              "build both trees first", file=sys.stderr)
        return 2

    raw = {path: run_nm(path) for path in libs + pipeline_bins + test_bins}
    names = demangle(set().union(*raw.values()))

    def signatures(path):
        return {signature_key(names[s]) for s in raw[path]}

    strong = {signature_key(names[s]) for p in libs
              for s, weak in raw[p].items() if not weak}
    candidates = {sig for sig in set().union(*(signatures(p) for p in libs))
                  if sig in strong
                  or not is_special_member(qualified_key(sig))}
    pipeline = {p: signatures(p) for p in pipeline_bins}
    tests = {os.path.relpath(p, args.build_dir): signatures(p)
             for p in test_bins}
    allowlist, errors = load_allowlist(args.allowlist)
    unlisted, stale, allowed = audit(candidates, pipeline, tests, allowlist)

    print(f"reachability: {len(candidates)} library functions, "
          f"{len(pipeline_bins)} pipeline binaries, {len(test_bins)} test "
          f"binaries; {len(allowed)} allowlisted test-only")
    for sig in sorted(unlisted):
        print(f"test-only: {sig}  (linked by "
              f"{', '.join(sorted(unlisted[sig]))})", file=sys.stderr)
    for key in stale:
        print(f"stale allowlist entry: {key} (no longer test-only)",
              file=sys.stderr)
    for error in errors:
        print(f"allowlist: {error}", file=sys.stderr)
    if unlisted or stale or errors:
        print("\nreachability: delete the test-only functions, or allowlist "
              "an oracle or test hook with a one-line reason",
              file=sys.stderr)
        return 1
    print("reachability: every test-only function is allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
