#!/usr/bin/env python3
"""pdc-lint: project-invariant lint for the pdc tree.

The modeled-clock discipline (mp/clock.hpp) and the SPMD collective
contract are what make the differential / golden / fault-replay tests
byte-reproducible.  These rules statically reject the constructs that
silently break them:

  PDC001 wall-clock-time      no wall-clock time sources in library code;
                              the modeled Clock is the only notion of time
  PDC002 unseeded-randomness  no rand()/argless srand()/random_device;
                              all randomness flows from explicit seeds
  PDC003 discarded-io-result  every io::LocalDisk read result must be
                              consumed (a dropped read still pays modeled
                              I/O; a dropped next_block() loses EOF)
  PDC004 raw-thread           no raw std::thread outside the two sanctioned
                              launchers (io/async_engine, mp/runtime)
  PDC005 stdout-io            library code must not write to stdout
                              (reports/traces go through src/obs)
  PDC006 real-sleep           no real sleeps; backoff is charged to the
                              modeled clock, never to the wall
  PDC007 unregistered-span    span/instant names must come from the
                              registry (src/obs/span_names.hpp); the
                              critical-path profiler and trace tooling
                              match spans by exact name
  PDC008 raw-lock             no raw .lock()/.unlock()/.try_lock() calls
                              outside the annotated RAII wrapper layer
                              (src/common/sync.hpp); manual lock calls
                              escape Clang's thread-safety analysis and
                              the PDA410 lock-order proof
  PDC009 implicit-seq-cst     std::atomic operation without an explicit
                              memory-order argument; the default seq_cst
                              hides the intended ordering contract and
                              costs fences on weakly-ordered targets
  PDC010 raw-wire-cast        no reinterpret_cast / raw memcpy in library
                              code outside the designated codec helpers
                              (mp/serialize.hpp); every other byte-level
                              transmutation is a wire-format decision and
                              must carry a reasoned suppression so the
                              full inventory is greppable
  PDC000 bare-suppression     a pdc-lint suppression must carry a reason

Suppress a finding with a trailing comment carrying a justification:

    f();  // pdc-lint: allow(PDC005) -- CLI shim, prints by design

Usage:
    pdc_lint.py [paths...]      lint files/trees (default: src)
    --assume-src                apply src-scoped rules to every input
                                (used by the fixture self-test)
    --list-rules                print the rule table and exit
    --json                      machine-readable findings on stdout
    --sarif OUT.sarif           also write findings as SARIF 2.1.0 (CI
                                uploads this so findings annotate PRs)

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx")

# Files allowed to spawn raw threads: the async I/O engine the rule exists
# to fence off, and the SPMD runtime's own one-thread-per-rank launcher.
PDC004_ALLOWLIST = (
    "src/io/async_engine.hpp",
    "src/io/async_engine.cpp",
    "src/mp/runtime.cpp",
)

# The one place raw lock()/unlock() calls may live: the annotated wrapper
# layer itself, which turns them into capability acquire/release events
# the thread-safety analysis can see.
PDC008_ALLOWLIST = (
    "src/common/sync.hpp",
)

# The designated byte-transmutation helpers: the mp::WireWriter/WireReader
# cursor every codec is written with, and the mp::to_bytes/from_bytes
# payload helpers of the collectives.  Every other reinterpret_cast/memcpy
# in src/ is not wire bytes (an in-memory load or a byte inspection) and
# carries an allow(PDC010) with a reason, which makes
# `grep -rn 'allow(PDC010)' src` the complete inventory of raw casts.
PDC010_ALLOWLIST = (
    "src/mp/serialize.hpp",
)

SUPPRESS_RE = re.compile(
    r"pdc-lint:\s*allow\(\s*(PDC\d{3})\s*\)\s*(--\s*\S.*)?")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    slug: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.slug}] {self.message}"


@dataclass
class Rule:
    rule_id: str
    slug: str
    description: str
    src_only: bool  # applies only to library code under src/


RULES = [
    Rule("PDC000", "bare-suppression",
         "pdc-lint suppression without a '-- reason' justification", False),
    Rule("PDC001", "wall-clock-time",
         "wall-clock time source in library code (modeled clock only)", True),
    Rule("PDC002", "unseeded-randomness",
         "implicit-seed randomness (rand/srand/random_device)", True),
    Rule("PDC003", "discarded-io-result",
         "io::LocalDisk read/probe result discarded", False),
    Rule("PDC004", "raw-thread",
         "raw std::thread outside the sanctioned launchers", True),
    Rule("PDC005", "stdout-io",
         "stdout write from library code", True),
    Rule("PDC006", "real-sleep",
         "real (wall-clock) sleep; charge the modeled clock instead", True),
    Rule("PDC007", "unregistered-span",
         "span name literal not in the registry (obs/span_names.hpp)", True),
    Rule("PDC008", "raw-lock",
         "raw .lock()/.unlock() outside the RAII wrappers "
         "(common/sync.hpp)", True),
    Rule("PDC009", "implicit-seq-cst",
         "std::atomic op without an explicit memory-order argument", True),
    Rule("PDC010", "raw-wire-cast",
         "reinterpret_cast/memcpy outside the designated codec helpers "
         "(mp/serialize.hpp)", True),
]

# Line-scoped patterns per rule.  The code view has comments and string
# literals blanked, so these never fire on prose or log text.
_NOT_MEMBER = r"(?<![\w.:>])"  # not preceded by ident char, '.', '::', '->'

LINE_PATTERNS = {
    "PDC001": [
        re.compile(r"std::chrono::(system_clock|steady_clock|"
                    r"high_resolution_clock)\b"),
        re.compile(r"\b(gettimeofday|clock_gettime|localtime|gmtime|mktime)"
                    r"\s*\("),
        # Bare `time()`/`clock()` calls are deliberately not matched: the
        # repo's approved accessors for the modeled clock use those names.
        # The qualified std:: forms and the arg-taking C form are.
        re.compile(_NOT_MEMBER + r"time\s*\(\s*(NULL|nullptr|0)\s*\)"),
        re.compile(r"std::time\s*\("),
        re.compile(r"std::clock\s*\("),
    ],
    "PDC002": [
        re.compile(_NOT_MEMBER + r"rand\s*\(\s*\)"),
        re.compile(r"std::rand\b"),
        re.compile(_NOT_MEMBER + r"srand\s*\(\s*\)"),
        re.compile(r"std::srand\s*\(\s*\)"),
        re.compile(r"std::random_device\b"),
    ],
    "PDC004": [
        re.compile(r"std::j?thread\b"),
        re.compile(r"\bpthread_create\s*\("),
    ],
    "PDC005": [
        re.compile(r"std::cout\b"),
        re.compile(_NOT_MEMBER + r"printf\s*\("),
        re.compile(r"std::printf\b"),
        re.compile(_NOT_MEMBER + r"puts\s*\("),
        re.compile(_NOT_MEMBER + r"putchar\s*\("),
        re.compile(r"\bfprintf\s*\(\s*stdout\b"),
        re.compile(r"\bfwrite\s*\([^;]*\bstdout\s*\)"),
    ],
    "PDC006": [
        re.compile(r"\bsleep_(for|until)\b"),
        re.compile(_NOT_MEMBER + r"(sleep|usleep|nanosleep)\s*\("),
    ],
    "PDC008": [
        re.compile(r"(?:\.|->)\s*(?:try_)?lock\s*\(\s*\)"),
        re.compile(r"(?:\.|->)\s*unlock\s*\(\s*\)"),
    ],
    "PDC010": [
        re.compile(r"\breinterpret_cast\s*<"),
        re.compile(_NOT_MEMBER + r"(?:std::)?memcpy\s*\("),
    ],
}

# PDC009: member calls on std::atomic whose argument list carries no
# std::memory_order.  The default is seq_cst, which both hides the
# ordering the author relied on and costs full fences on weakly-ordered
# hardware; the hot paths (async poison flags, arena counters) must spell
# the order out.  Operator forms (++, +=, implicit conversion) are out of
# reach of a textual pass and stay the code reviewer's job.  `clear`
# (atomic_flag) is deliberately not matched -- every container has one.
PDC009_METHODS = (r"(?:load|store|exchange|fetch_add|fetch_sub|fetch_and|"
                  r"fetch_or|fetch_xor|compare_exchange_weak|"
                  r"compare_exchange_strong|test_and_set)")
PDC009_RE = re.compile(r"(?:\.|->)\s*" + PDC009_METHODS + r"\s*\(")


def _match_paren(code: str, open_idx: int) -> int:
    """Index of the ')' matching code[open_idx] == '(', or -1."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1

# PDC003: a statement that is exactly a read-API call chain, i.e. the call
# begins a statement (after ';', '{', '}' or line start) and its value is
# dropped at the terminating ';'.  Assignments, returns, conditions and
# '(void)' casts all fail the statement-start anchor and are not flagged.
PDC003_METHODS = r"(?:read_file|next_block|file_bytes|file_records|exists|probe)"
PDC003_RE = re.compile(
    r"(?:\A|(?<=[;{}]))\s*"                  # lookbehind: keep the anchor
                                             # available to the next match
    r"(?:[A-Za-z_]\w*(?:\.|->))+"           # object chain: disk. / reader->
    + PDC003_METHODS +
    r"\s*(?:<[^;()]*>)?\s*"                  # optional template args
    r"\([^;{}]*\)\s*;")

# PDC007: span construction whose name is a string literal must use a name
# registered in src/obs/span_names.hpp — trace consumers (the critical-path
# profiler, the clock-reset cut, the flamegraph rollups) match spans by
# exact name, so a typo'd literal silently drops the span from every
# analysis.  Names passed as constants (span_names::kFoo) are fine by
# construction and skipped.  The code view blanks string literals, so the
# call is located there and the literal read from the raw line at the same
# offset (blanking preserves column positions).
PDC007_CALL_RE = re.compile(
    r"(?:\bSpanGuard\s*\(|(?:\.|->)(?:span|instant|complete)\s*\()")
PDC007_LITERAL_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
SPAN_REGISTRY_PATH = os.path.join(REPO_ROOT, "src", "obs", "span_names.hpp")
_span_registry_cache = None


def span_registry():
    """The set of registered span name literals (cached)."""
    global _span_registry_cache
    if _span_registry_cache is None:
        names = set()
        try:
            with open(SPAN_REGISTRY_PATH, encoding="utf-8") as f:
                for line in f:
                    m = re.search(r'=\s*"([^"]+)"\s*;', line)
                    if m:
                        names.add(m.group(1))
        except OSError:
            pass
        _span_registry_cache = names
    return _span_registry_cache


def strip_comments_and_strings(text: str) -> str:
    """Returns `text` with comments and string/char literals blanked to
    spaces (newlines preserved), so patterns only see real code."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_C, BLOCK_C, STR, CHAR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_C
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK_C
                out.append("  ")
                i += 2
            elif c == '"' and re.search(r"R$", text[max(0, i - 1):i]):
                m = re.match(r'R"([^()\\ \t\n]*)\(', text[i - 1:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    skip = len(m.group(0)) - 1  # the 'R' is already emitted
                    out.append(" " * skip)
                    i += skip
                    state = RAW
                else:
                    out.append(" ")
                    i += 1
                    state = STR
            elif c == '"':
                out.append(" ")
                i += 1
                state = STR
            elif c == "'":
                out.append(" ")
                i += 1
                state = CHAR
            else:
                out.append(c)
                i += 1
        elif state == LINE_C:
            if c == "\n":
                out.append("\n")
                state = NORMAL
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_C:
            if c == "*" and nxt == "/":
                out.append("  ")
                i += 2
                state = NORMAL
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in (STR, CHAR):
            quote = '"' if state == STR else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                out.append(" ")
                i += 1
                state = NORMAL
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # RAW
            if text.startswith(raw_delim, i):
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
                state = NORMAL
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def relpath(path: str) -> str:
    return os.path.relpath(os.path.abspath(path), REPO_ROOT).replace(
        os.sep, "/")


def collect_suppressions(raw_lines):
    """Maps line number -> set of suppressed rule ids; yields PDC000
    findings for suppressions with no justification."""
    allowed = {}
    bare = []
    for lineno, line in enumerate(raw_lines, start=1):
        for m in SUPPRESS_RE.finditer(line):
            if m.group(2):
                allowed.setdefault(lineno, set()).add(m.group(1))
            else:
                bare.append(lineno)
    return allowed, bare


def lint_file(path: str, assume_src: bool):
    rel = relpath(path)
    is_src = assume_src or rel.startswith("src/")
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        raise SystemExit(f"pdc_lint: cannot read {path}: {e}")
    raw_lines = text.splitlines()
    code = strip_comments_and_strings(text)
    code_lines = code.splitlines()

    allowed, bare = collect_suppressions(raw_lines)
    findings = []

    def add(lineno: int, rule_id: str):
        if rule_id in allowed.get(lineno, ()):
            return
        rule = next(r for r in RULES if r.rule_id == rule_id)
        findings.append(
            Finding(rel, lineno, rule.rule_id, rule.slug, rule.description))

    for lineno in bare:
        add(lineno, "PDC000")

    for rule_id, patterns in LINE_PATTERNS.items():
        rule = next(r for r in RULES if r.rule_id == rule_id)
        if rule.src_only and not is_src:
            continue
        if rule_id == "PDC004" and any(rel == a for a in PDC004_ALLOWLIST):
            continue
        if rule_id == "PDC008" and any(rel == a for a in PDC008_ALLOWLIST):
            continue
        if rule_id == "PDC010" and any(rel == a for a in PDC010_ALLOWLIST):
            continue
        for lineno, line in enumerate(code_lines, start=1):
            if any(p.search(line) for p in patterns):
                add(lineno, rule_id)

    if is_src:
        for m in PDC009_RE.finditer(code):
            open_idx = code.index("(", m.end() - 1)
            close_idx = _match_paren(code, open_idx)
            args = code[open_idx:close_idx] if close_idx != -1 else ""
            if "memory_order" not in args:
                lineno = code.count("\n", 0, m.start()) + 1
                add(lineno, "PDC009")

    for m in PDC003_RE.finditer(code):
        # Line of the method name, not of the statement terminator.
        call = re.search(PDC003_METHODS, m.group(0))
        offset = m.start() + (call.start() if call else 0)
        lineno = code.count("\n", 0, offset) + 1
        add(lineno, "PDC003")

    if (is_src and span_registry()
            and rel != "src/obs/span_names.hpp"):
        for lineno, code_line in enumerate(code_lines, start=1):
            raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            for m in PDC007_CALL_RE.finditer(code_line):
                lit = PDC007_LITERAL_RE.search(raw, m.end())
                if not lit:
                    continue
                # The name is argument 2 of SpanGuard(tracer, name, ...)
                # and argument 1 of .span/.instant/.complete(name, ...).
                # A literal further along is a cat or payload, and a name
                # passed as a registry constant never reaches here.
                commas = 1 if "SpanGuard" in m.group(0) else 0
                if code_line.count(",", m.end(), lit.start()) != commas:
                    continue
                if lit.group(1) not in span_registry():
                    add(lineno, "PDC007")
                    break

    return findings


def sarif_report(findings, tool_name: str, rules):
    """SARIF 2.1.0 document for a list of Finding-shaped objects.

    Shared by pdc_lint and pdc_analyze (which imports this module) so both
    tools annotate PRs through the same CI upload path.  `rules` is any
    iterable of objects with rule_id/slug/description attributes.
    """
    rule_ids = sorted({f.rule for f in findings} |
                      {r.rule_id for r in rules})
    by_id = {r.rule_id: r for r in rules}
    sarif_rules = []
    for rid in rule_ids:
        r = by_id.get(rid)
        sarif_rules.append({
            "id": rid,
            "name": r.slug if r else rid,
            "shortDescription": {"text": r.description if r else rid},
        })
    index = {rid: i for i, rid in enumerate(rule_ids)}
    results = [{
        "ruleId": f.rule,
        "ruleIndex": index[f.rule],
        "level": "error",
        "message": {"text": f"[{f.slug}] {f.message}"},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": f.path,
                                     "uriBaseId": "SRCROOT"},
                "region": {"startLine": f.line},
            },
        }],
    } for f in findings]
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": tool_name,
                                "informationUri":
                                    "https://example.invalid/pdc",
                                "rules": sarif_rules}},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }


def iter_targets(paths):
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        yield os.path.join(dirpath, name)
        elif os.path.isfile(p):
            yield p
        else:
            raise SystemExit(f"pdc_lint: no such file or directory: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdc_lint.py",
        description="project-invariant lint for the pdc tree")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src)")
    parser.add_argument("--assume-src", action="store_true",
                        help="apply src-scoped rules to every input")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--sarif", metavar="OUT",
                        help="write findings as SARIF 2.1.0 to OUT")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            scope = "src/ only" if r.src_only else "all inputs"
            print(f"{r.rule_id}  {r.slug:<22} {scope:<10} {r.description}")
        return 0

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    findings = []
    nfiles = 0
    for path in iter_targets(paths):
        nfiles += 1
        findings.extend(lint_file(path, args.assume_src))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as f:
            json.dump(sarif_report(findings, "pdc-lint", RULES), f,
                      indent=2)
            f.write("\n")

    if args.as_json:
        print(json.dumps([f.__dict__ for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"pdc-lint: {nfiles} file(s), {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
