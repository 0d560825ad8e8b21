#!/usr/bin/env python3
"""prose_lint — project-specific invariants the generic tools can't check.

ProSE promises bit-identical results at any thread count and a
deterministic replay contract (docs/FAULT_MODEL.md). Those guarantees
rot through patterns that are perfectly legal C++, so this lint
mechanically enforces them:

  float-eq        no ==/!= on raw float/double in src/numerics and
                  src/systolic outside the designated bit-equality
                  helpers (numerics/float_bits.hh, bfloat16.{hh,cc}).
                  Value equality on floats silently diverges between
                  the fused/vectorized and reference paths; bit
                  equality is the only comparison the determinism
                  contract speaks about.
  unordered-iter  no iteration over std::unordered_{map,set} anywhere
                  in src/ — hash-order iteration feeding a parallel
                  reduction (or any emitted output) is
                  non-deterministic across libstdc++ versions and
                  seeds. Use std::map / sorted vectors.
  naked-getenv    getenv only inside the designated config shims
                  (src/systolic/fsim_mode.cc, src/common/thread_pool.cc,
                  src/numerics/kernels/kernel_dispatch.cc).
                  Scattered env probes make runs irreproducible because
                  nothing records which knobs are read.
  intrinsics      x86 SIMD intrinsics (immintrin/x86intrin includes,
                  _mm*/__m128/__m256/__m512 tokens) only inside
                  src/numerics/kernels/ — every vector loop must live
                  behind the runtime-dispatched KernelSet so the
                  bit-exactness contract is tested tier-against-scalar
                  in exactly one place and PROSE_SIMD=scalar really
                  disables all of it.
  no-cout         no std::cout / printf-family in src/ — all libraries
                  report through emitLog (warn/fatal/panic),
                  which is the only writer that holds the log mutex, so
                  concurrent simulators never interleave lines. Tools
                  that legitimately produce stdout take an std::ostream&.
  checked-parse   no naked std::stoi/stol/stod/atoi/strtol-family
                  calls in src/, bench/ or examples/ (every CLI must
                  reject input it does not understand) outside the
                  checked helpers in
                  src/common/strutil.{hh,cc} (thread_pool.cc's env shim
                  stays allow-listed). The std conversions accept
                  partial parses, clamp or throw on overflow, and let
                  "nan" through range checks; parsers must use
                  parseU64/parseU32/parseDouble/parseFiniteDouble,
                  which report overflow as failure and consume the
                  whole token.
  include-guard   src/*.hh include guards must match the canonical
                  PROSE_<DIR>_<FILE>_HH spelling (duplicated guards
                  silently drop declarations), and no header other than
                  common/logging.hh may include <iostream> (iostream's
                  static init leaks into every TU and hides races).
  log-format      no printf conversions (%s, %d, %g, ...) in string
                  literals passed to fatal/panic/warn/PROSE_ASSERT in
                  src/, bench/ or examples/. Those calls concatenate
                  their arguments (common/logging.hh), so a format
                  string prints its conversions verbatim and the
                  values after it run together.

A line may opt out with a trailing marker comment naming the rule, e.g.
    if (alpha != 0.0f)  // prose-lint: allow(float-eq) — guard, not math
Markers are deliberately loud so reviewers see every exemption.

Usage:
  scripts/prose_lint.py [--root DIR] [--list-rules] [--self-test]

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

# Directories (relative to the repo root) each rule applies to.
FLOAT_EQ_DIRS = ("src/numerics", "src/systolic")
SRC_DIR = "src"
CHECKED_PARSE_DIRS = (SRC_DIR, "bench", "examples")
# Every directory walked; rules other than checked-parse and log-format
# stay on src/.
LINT_DIRS = CHECKED_PARSE_DIRS

# Files allowed to compare floats directly: the designated bit-equality
# helpers themselves.
FLOAT_EQ_HELPERS = {
    "src/numerics/float_bits.hh",
    "src/numerics/bfloat16.hh",
    "src/numerics/bfloat16.cc",
}

# The designated env-var shims (the only places getenv may appear).
GETENV_SHIMS = {
    "src/systolic/fsim_mode.cc",
    "src/common/thread_pool.cc",
    "src/numerics/kernels/kernel_dispatch.cc",
}

# The only directory where x86 SIMD intrinsics may appear.
INTRINSICS_DIR = "src/numerics/kernels"

# Files that may call the std numeric conversions directly: the checked
# helpers themselves, plus thread_pool.cc's long-standing env shim.
CHECKED_PARSE_HELPERS = {
    "src/common/strutil.hh",
    "src/common/strutil.cc",
    "src/common/thread_pool.cc",
}

# The one header that may include <iostream> (it IS the logging shim).
IOSTREAM_HEADER_ALLOWED = {"src/common/logging.hh"}

MARKER_RE = re.compile(r"//\s*prose-lint:\s*allow\(([a-z-]+(?:,\s*[a-z-]+)*)\)")

# A float operand: a float/double literal (1.0f, .5f, 1e-3f, 2.0), or an
# identifier the line itself declares/casts as float/double.
FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?f\b|\d+\.\d+(?:[eE][-+]?\d+)?(?![\w.])"
FLOAT_CMP_RE = re.compile(
    r"(?:" + FLOAT_LITERAL + r")\s*[=!]=|[=!]=\s*(?:" + FLOAT_LITERAL + r")"
)
FLOAT_DECL_CMP_RE = re.compile(
    r"\b(?:float|double)\b(?!\s*[*&]).*(?<![=!<>])[=!]=(?!=)"
)

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)"
)
UNORDERED_ITER_RE = re.compile(
    r"for\s*\(.*:\s*(\w+)\s*\)|(\w+)\s*\.\s*(?:begin|cbegin)\s*\(\)"
)

GETENV_RE = re.compile(r"\bgetenv\s*\(")
CHECKED_PARSE_RE = re.compile(
    r"\b(?:std::\s*)?"
    r"(?:stoi|stol|stoll|stoul|stoull|stof|stod|stold"
    r"|atoi|atol|atoll|atof"
    r"|strtol|strtoul|strtoll|strtoull|strtof|strtod|strtold)\s*\("
)
COUT_RE = re.compile(r"\bstd::cout\b|\bprintf\s*\(|\bfprintf\s*\(\s*stdout\b")

INTRINSICS_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|emmintrin|xmmintrin|smmintrin"
    r"|avxintrin|avx2intrin|avx512\w*intrin)\.h>"
    r"|\b_mm(?:256|512)?_\w+\s*\(|\b__m(?:128|256|512)[id]?\b|\b__mmask\d+\b"
)

# The concatenating log calls of common/logging.hh, and a printf
# conversion inside one of their string literals ("%%" is a literal %).
LOG_CALLS = {"fatal", "panic", "warn", "PROSE_ASSERT"}
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
PRINTF_CONV_RE = re.compile(
    r"%[-+#0]*(?:\d+|\*)?(?:\.(?:\d+|\*))?(?:hh|h|ll|l|z|j|t|L)?"
    r"[diouxXeEfgGaAcsp]")

GUARD_IFNDEF_RE = re.compile(r"^\s*#ifndef\s+(\w+)")
GUARD_DEFINE_RE = re.compile(r"^\s*#define\s+(\w+)\s*$")


class Finding:
    def __init__(self, rule, path, line_no, text):
        self.rule = rule
        self.path = path
        self.line_no = line_no
        self.text = text

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.text}"


def strip_comments_and_strings(line, in_block_comment):
    """Blank out string/char literals and comments so the regexes never
    fire on prose inside them. Returns (code_text, still_in_block)."""
    out = []
    i, n = 0, len(line)
    state = "block" if in_block_comment else "code"
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                i += 1
        else:  # str / chr
            if c == "\\":
                i += 2
                continue
            if (state == "str" and c == '"') or (state == "chr" and c == "'"):
                state = "code"
            out.append(" ")
            i += 1
    return "".join(out), state == "block"


def printf_log_calls(lines):
    """Line numbers of the log calls (LOG_CALLS) whose string-literal
    arguments hold a printf conversion. One pass over the file, so a
    call's arguments may span lines; comments and char literals are
    skipped."""
    text = "\n".join(lines)
    n = len(text)
    i, line_no, depth = 0, 1, 0
    pending = None  # line of a log-call name whose "(" comes next
    open_calls = []  # [line, paren depth, has a printf conversion]
    hits = []
    while i < n:
        c = text[i]
        if c == "\n":
            line_no += 1
            i += 1
        elif text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            line_no += text.count("\n", i, end)
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            literal = text[i + 1:j]
            if (c == '"' and open_calls and
                    PRINTF_CONV_RE.search(literal.replace("%%", ""))):
                open_calls[-1][2] = True
            i = j + 1
        elif c.isalpha() or c == "_":
            word = IDENT_RE.match(text, i).group(0)
            i += len(word)
            k = i
            while k < n and text[k] in " \t":
                k += 1
            if word in LOG_CALLS and k < n and text[k] == "(":
                pending = line_no
        else:
            if c == "(":
                depth += 1
                if pending is not None:
                    open_calls.append([pending, depth, False])
                    pending = None
            elif c == ")":
                if open_calls and open_calls[-1][1] == depth:
                    call_line, _, formatted = open_calls.pop()
                    if formatted:
                        hits.append(call_line)
                depth -= 1
            i += 1
    return hits


def allowed_rules(line):
    m = MARKER_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def expected_guard(relpath):
    stem = relpath
    if stem.startswith("src/"):
        stem = stem[len("src/"):]
    return "PROSE_" + re.sub(r"[/.\-]", "_", stem).upper()


def lint_file(relpath, lines):
    """Run every applicable rule over one file. `lines` are raw text
    (no trailing newline). Returns a list of Findings."""
    findings = []
    is_header = relpath.endswith(".hh")
    in_src = relpath.startswith(SRC_DIR + "/") or relpath == SRC_DIR
    checked_parse_applies = any(
        relpath.startswith(d + "/") for d in CHECKED_PARSE_DIRS)
    float_eq_applies = (
        any(relpath.startswith(d + "/") for d in FLOAT_EQ_DIRS)
        and relpath not in FLOAT_EQ_HELPERS
    )

    unordered_vars = set()
    in_block = False
    code_lines = []
    for raw in lines:
        code, in_block = strip_comments_and_strings(raw, in_block)
        code_lines.append(code)
        m = UNORDERED_DECL_RE.search(code)
        if m:
            unordered_vars.add(m.group(1))

    for idx, (raw, code) in enumerate(zip(lines, code_lines), start=1):
        allow = allowed_rules(raw)

        if float_eq_applies and "float-eq" not in allow:
            if FLOAT_CMP_RE.search(code) or FLOAT_DECL_CMP_RE.search(code):
                findings.append(Finding(
                    "float-eq", relpath, idx,
                    "raw float ==/!= — use numerics/float_bits.hh "
                    "(floatBits / bitsEqual) or mark "
                    "// prose-lint: allow(float-eq)"))

        if in_src and "unordered-iter" not in allow:
            if "std::unordered_" in code and re.search(
                    r"for\s*\(.*std::unordered_", code):
                findings.append(Finding(
                    "unordered-iter", relpath, idx,
                    "iterating an unordered container — hash order is "
                    "not deterministic; use std::map or a sorted vector"))
            else:
                m = UNORDERED_ITER_RE.search(code)
                if m:
                    var = m.group(1) or m.group(2)
                    if var in unordered_vars:
                        findings.append(Finding(
                            "unordered-iter", relpath, idx,
                            f"iterating unordered container '{var}' — "
                            "hash order is not deterministic; use "
                            "std::map or a sorted vector"))

        if (in_src and relpath not in GETENV_SHIMS
                and "naked-getenv" not in allow):
            if GETENV_RE.search(code):
                findings.append(Finding(
                    "naked-getenv", relpath, idx,
                    "getenv outside the designated config shims "
                    "(fsim_mode.cc, thread_pool.cc) — route new knobs "
                    "through one of them so runs stay reproducible"))

        if (checked_parse_applies
                and relpath not in CHECKED_PARSE_HELPERS
                and "checked-parse" not in allow):
            if CHECKED_PARSE_RE.search(code):
                findings.append(Finding(
                    "checked-parse", relpath, idx,
                    "naked std numeric conversion — use the checked "
                    "strutil helpers (parseU64/parseU32/parseDouble/"
                    "parseFiniteDouble), which reject partial parses, "
                    "overflow, and NaN instead of clamping or throwing"))

        if in_src and "no-cout" not in allow:
            if COUT_RE.search(code):
                findings.append(Finding(
                    "no-cout", relpath, idx,
                    "std::cout/printf in library code — use "
                    "warn() (serialized emitLog) or take an "
                    "std::ostream&"))

        if (in_src and not relpath.startswith(INTRINSICS_DIR + "/")
                and "intrinsics" not in allow):
            if INTRINSICS_RE.search(code):
                findings.append(Finding(
                    "intrinsics", relpath, idx,
                    "x86 SIMD intrinsics outside src/numerics/kernels/ "
                    "— vector loops belong behind the dispatched "
                    "KernelSet (see docs/PERF.md) so PROSE_SIMD=scalar "
                    "and the cross-tier bit-equality tests cover them"))

    if checked_parse_applies:
        for idx in printf_log_calls(lines):
            if "log-format" not in allowed_rules(lines[idx - 1]):
                findings.append(Finding(
                    "log-format", relpath, idx,
                    "printf conversion in a fatal/panic/warn/"
                    "PROSE_ASSERT message — these calls concatenate "
                    "their arguments; pass the values as arguments "
                    "between string pieces"))

    if is_header and in_src:
        guard = expected_guard(relpath)
        ifndef = define = None
        for code in code_lines:
            if ifndef is None:
                m = GUARD_IFNDEF_RE.match(code)
                if m:
                    ifndef = m.group(1)
                    continue
            elif define is None:
                m = GUARD_DEFINE_RE.match(code)
                if m:
                    define = m.group(1)
                break
        if ifndef != guard or define != guard:
            findings.append(Finding(
                "include-guard", relpath, 1,
                f"include guard must be {guard} "
                f"(found ifndef={ifndef!r} define={define!r})"))
        if relpath not in IOSTREAM_HEADER_ALLOWED:
            for idx, code in enumerate(code_lines, start=1):
                if re.search(r'#\s*include\s*<iostream>', code):
                    findings.append(Finding(
                        "include-guard", relpath, idx,
                        "<iostream> in a header — include it in the .cc "
                        "(or use <ostream>/<iosfwd> in the interface)"))
    return findings


def iter_source_files(root):
    for top in LINT_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "CMakeFiles")
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh")):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def run_lint(root):
    findings = []
    count = 0
    for relpath in iter_source_files(root):
        count += 1
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            lines = f.read().splitlines()
        findings.extend(lint_file(relpath, lines))
    return findings, count


# --- self test ---------------------------------------------------------

SELF_TESTS = [
    # (name, relpath, source, expected rule names)
    ("float literal eq flagged", "src/numerics/foo.cc",
     "if (x == 0.0f) return;", ["float-eq"]),
    ("float decl eq flagged", "src/systolic/foo.cc",
     "float a = f(); bool b = a != g();", ["float-eq"]),
    ("float eq marker honored", "src/numerics/foo.cc",
     "if (x == 0.0f) return;  // prose-lint: allow(float-eq)", []),
    ("float eq outside scoped dirs ignored", "src/model/foo.cc",
     "if (x == 0.0f) return;", []),
    ("float eq in helper ignored", "src/numerics/float_bits.hh",
     "#ifndef PROSE_NUMERICS_FLOAT_BITS_HH\n"
     "#define PROSE_NUMERICS_FLOAT_BITS_HH\n"
     "inline bool z(float x) { return x == 0.0f; }\n#endif", []),
    ("int eq not flagged", "src/numerics/foo.cc",
     "if (rows_ == other.rows_) return;", []),
    ("float eq in comment ignored", "src/numerics/foo.cc",
     "// compares x == 0.0f bitwise", []),
    ("unordered iteration flagged", "src/accel/foo.cc",
     "std::unordered_map<int, int> m;\nfor (const auto &kv : m) use(kv);",
     ["unordered-iter"]),
    ("unordered begin flagged", "src/accel/foo.cc",
     "std::unordered_set<int> s;\nauto it = s.begin();",
     ["unordered-iter"]),
    ("ordered iteration fine", "src/accel/foo.cc",
     "std::map<int, int> m;\nfor (const auto &kv : m) use(kv);", []),
    ("naked getenv flagged", "src/accel/foo.cc",
     'const char *v = std::getenv("PROSE_X");', ["naked-getenv"]),
    ("getenv in shim fine", "src/common/thread_pool.cc",
     'const char *v = std::getenv("PROSE_THREADS");', []),
    ("cout flagged", "src/power/foo.cc",
     'std::cout << "hi";', ["no-cout"]),
    ("cout in string ignored", "src/power/foo.cc",
     'os << "use std::cout elsewhere";', []),
    ("printf flagged", "src/power/foo.cc",
     'printf("%d", x);', ["no-cout"]),
    ("bad include guard flagged", "src/accel/foo.hh",
     "#ifndef FOO_H\n#define FOO_H\n#endif", ["include-guard"]),
    ("good include guard fine", "src/accel/foo.hh",
     "#ifndef PROSE_ACCEL_FOO_HH\n#define PROSE_ACCEL_FOO_HH\n#endif",
     []),
    ("iostream in header flagged", "src/accel/foo.hh",
     "#ifndef PROSE_ACCEL_FOO_HH\n#define PROSE_ACCEL_FOO_HH\n"
     "#include <iostream>\n#endif", ["include-guard"]),
    ("iostream in logging header fine", "src/common/logging.hh",
     "#ifndef PROSE_COMMON_LOGGING_HH\n#define PROSE_COMMON_LOGGING_HH\n"
     "#include <iostream>\n#endif", []),
    ("block comment spanning lines ignored", "src/numerics/foo.cc",
     "/* a == 0.0f\n   b == 1.0f */\nint x = 0;", []),
    # The serving layer is ordinary src/ — its reports go through
    # describe()/ostream, never stdout, and its guards are canonical.
    ("cout in serve flagged", "src/serve/foo.cc",
     'std::cout << report.describe();', ["no-cout"]),
    ("serve include guard canonical", "src/serve/serve_sim.hh",
     "#ifndef PROSE_SERVE_SERVE_SIM_HH\n"
     "#define PROSE_SERVE_SERVE_SIM_HH\n#endif", []),
    ("serve include guard typo flagged", "src/serve/foo.hh",
     "#ifndef PROSE_SERVING_FOO_HH\n#define PROSE_SERVING_FOO_HH\n"
     "#endif", ["include-guard"]),
    ("unordered iteration in serve flagged", "src/serve/foo.cc",
     "std::unordered_map<int, int> q;\nfor (const auto &kv : q) use(kv);",
     ["unordered-iter"]),
    ("intrinsics include outside kernels flagged", "src/numerics/foo.cc",
     "#include <immintrin.h>", ["intrinsics"]),
    ("intrinsics call outside kernels flagged", "src/systolic/foo.cc",
     "auto v = _mm256_loadu_ps(p);", ["intrinsics"]),
    ("vector type outside kernels flagged", "src/accel/foo.cc",
     "__m512 acc;", ["intrinsics"]),
    ("mask type outside kernels flagged", "src/accel/foo.cc",
     "__mmask16 m = 0;", ["intrinsics"]),
    ("intrinsics inside kernels fine",
     "src/numerics/kernels/kernels_avx2.cc",
     "#include <immintrin.h>\nauto v = _mm256_loadu_ps(p);", []),
    ("intrinsics in comment ignored", "src/numerics/foo.cc",
     "// the avx2 tier uses _mm256_loadu_ps(...) here", []),
    ("getenv in kernel dispatch shim fine",
     "src/numerics/kernels/kernel_dispatch.cc",
     'const char *v = std::getenv("PROSE_SIMD");', []),
    ("stoi flagged", "src/accel/foo.cc",
     "int x = std::stoi(text);", ["checked-parse"]),
    ("stoull flagged", "src/trace/foo.cc",
     "auto v = std::stoull(token, &pos);", ["checked-parse"]),
    ("strtod flagged", "src/fault/foo.cc",
     "double d = strtod(s.c_str(), &end);", ["checked-parse"]),
    ("atoi flagged", "src/serve/foo.cc",
     "int n = atoi(argv[1]);", ["checked-parse"]),
    ("strtod in strutil helper fine", "src/common/strutil.cc",
     "double d = std::strtod(text.c_str(), &end);", []),
    ("strtoul in thread pool shim fine", "src/common/thread_pool.cc",
     "auto n = std::strtoul(env, nullptr, 10);", []),
    ("checked-parse marker honored", "src/accel/foo.cc",
     "int x = std::stoi(t);  // prose-lint: allow(checked-parse)", []),
    ("stoi in comment ignored", "src/accel/foo.cc",
     "// previously used std::stoi(text) here", []),
    ("stoi in string ignored", "src/accel/foo.cc",
     'warn("do not use std::stoi(text)");', []),
    ("custom parse helper name fine", "src/accel/foo.cc",
     "auto v = parseU64(text, value);", []),
    ("atol in bench CLI flagged", "bench/foo.cc",
     "repeats = std::atol(argv[++i]);", ["checked-parse"]),
    ("atoll in example CLI flagged", "examples/foo.cc",
     "auto n = static_cast<std::uint64_t>(std::atoll(argv[1]));",
     ["checked-parse"]),
    ("parseU64 in bench CLI fine", "bench/foo.cc",
     "if (!parseU64(argv[++i], requests) || requests == 0)", []),
    ("checked-parse marker honored in examples", "examples/foo.cc",
     "int x = std::stoi(t);  // prose-lint: allow(checked-parse)", []),
    ("src-only rules stay off bench", "bench/foo.cc",
     "std::cout << getenv(\"HOME\");", []),
    ("printf conversion in fatal flagged", "bench/foo.cc",
     'fatal("cross-check failed in %s mode", name);', ["log-format"]),
    ("printf conversion in panic flagged", "src/accel/foo.cc",
     'panic("bad tile %zu", idx);', ["log-format"]),
    ("printf conversion in warn flagged", "examples/foo.cc",
     'warn("rate %.3g too high", r);', ["log-format"]),
    ("printf conversion in PROSE_ASSERT flagged", "src/serve/foo.cc",
     'PROSE_ASSERT(ok, "request %d lost", id);', ["log-format"]),
    ("format literal on a continuation line flagged", "bench/foo.cc",
     "fatal(\n    \"in-array %s(%g) = %g\",\n    op, x, y);",
     ["log-format"]),
    ("concat-style fatal fine", "bench/foo.cc",
     'fatal("cross-check failed in ", name, " mode");', []),
    ("literal percent sign fine", "src/accel/foo.cc",
     'warn("link at 90% of peak; 100%% busy");', []),
    ("printf conversion outside log calls fine", "src/accel/foo.cc",
     'snprintf(buf, sizeof buf, "%d", x);', []),
    ("printf conversion in a comment fine", "src/accel/foo.cc",
     'fatal("bad value ", v); // was fatal("bad %d", v)', []),
    ("log-format marker honored", "src/accel/foo.cc",
     'warn("%s", s);  // prose-lint: allow(log-format)', []),
]


def self_test():
    failures = 0
    for name, relpath, source, expected in SELF_TESTS:
        got = sorted({f.rule for f in lint_file(relpath,
                                                source.splitlines())})
        if got != sorted(set(expected)):
            print(f"self-test FAIL: {name}: expected {sorted(set(expected))},"
                  f" got {got}", file=sys.stderr)
            failures += 1
    total = len(SELF_TESTS)
    if failures:
        print(f"self-test: {failures}/{total} cases failed",
              file=sys.stderr)
        return 1
    print(f"self-test: {total}/{total} cases ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule-engine tests and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in ("float-eq", "unordered-iter", "naked-getenv",
                     "no-cout", "include-guard", "intrinsics",
                     "checked-parse", "log-format"):
            print(rule)
        return 0
    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, SRC_DIR)):
        print(f"error: no {SRC_DIR}/ under {root}", file=sys.stderr)
        return 2

    findings, count = run_lint(root)
    for f in findings:
        print(f)
    if findings:
        print(f"\nprose-lint: {len(findings)} finding(s) across {count} "
              "files — see docs/STATIC_ANALYSIS.md for the invariants "
              "and the allow() marker syntax", file=sys.stderr)
        return 1
    print(f"prose-lint: clean ({count} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
