#!/usr/bin/env python3
"""kinet-lint — project-specific static invariants no off-the-shelf tool knows.

The KiNETGAN tree carries contracts that clang-tidy and -Wthread-safety
cannot express:

  nondet-api      The privacy/fidelity claims rest on bit-exact determinism
                  of every RNG-bearing path (replicas serve byte-identical
                  seeded draws fleet-wide).  Ambient-entropy and wall-clock
                  APIs are therefore banned in src/: all randomness flows
                  through kinet::Rng (seeded mt19937_64) or the keyed
                  sampling stream (src/common/philox.hpp), and all timing
                  through steady_clock/Stopwatch.

  loop-blocking   The epoll loop thread (src/service/event_loop.cpp) owns
                  every connection; one blocking call stalls the whole
                  daemon.  Functions that run on the loop thread must not
                  sleep, join, wait on condition variables/futures, call
                  the blocking socket wrappers, or enter parallel_for.

  hot-path-alloc  forward_inference() and StreamCursor::next() are the
                  serving fast path: allocation-free and lock-free once
                  warm (PR 5/6 contract, docs/performance.md).  Direct
                  allocation (push_back/resize/reserve/new/make_*) and
                  locking are banned in their bodies; buffer reuse goes
                  through the approved *_into / resize_for_overwrite /
                  append_row_range APIs.

  raw-io          Raw ::read/::write/::send/::recv on sockets lose EINTR
                  and partial-transfer handling; everything goes through
                  the wrappers in src/service/socket.cpp (the one file
                  allowed to touch them).

  unbounded-count A wire- or snapshot-side element count must be bounded
                  (bytes::Reader::element_count or an explicit KINET_CHECK)
                  before it sizes a container — the PR 4 fuzz-bug class
                  (pre-allocation from attacker-controlled u64).

  tsa-escape      KINET_NO_THREAD_SAFETY_ANALYSIS is allowed only on
                  documented sites: the use must carry a nearby comment
                  justifying the lock-free protocol.

  failpoint-name  Every KINET_FAILPOINT site must name a string literal
                  registered in kRegisteredFailpoints (src/common/
                  failpoint.cpp) — a typo'd site could never be armed, so
                  the chaos suite would silently stop covering it.  The
                  registry itself is checked for staleness: a registered
                  name with no site left in src/ is also a finding.

Suppressions: a finding is waived by a comment on the same line or the
line above::

    // kinet-lint: allow(<rule>): <reason>

The reason is mandatory; a bare allow() is itself a finding.

Token-level on purpose: the tree builds with GCC where libclang may be
absent, and these invariants are lexically recognisable.  Comments and
string literals are stripped before matching, so prose never trips a rule.

Usage:
    tools/kinet_lint.py --ci          # lint the tree (src/), exit 1 on findings
    tools/kinet_lint.py --selftest    # run the fixture suite (tools/lint_fixtures/)
    tools/kinet_lint.py FILE...       # lint specific files
    tools/kinet_lint.py --list-rules
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------------
# Rule configuration
# --------------------------------------------------------------------------

# Functions of EventLoop that execute on the epoll loop thread.  worker_main
# runs on the worker pool and stop()/start() on the caller thread — those may
# block.  Keep in sync with src/service/event_loop.cpp (a name listed here
# that no longer exists is reported so the list cannot rot silently).
LOOP_THREAD_FUNCTIONS = [
    "loop_main",
    "handle_accepts",
    "handle_readable",
    "handle_writable",
    "process_input",
    "dispatch_request",
    "queue_output",
    "flush_writes",
    "schedule_stream_step",
    "drain_completions",
    "apply_completion",
    "destroy_connection",
    "reap_dead_connections",
    "update_interest",
    "try_enqueue_task",
    "enqueue_task_unbounded",
    "wake_loop",
]

NONDET_PATTERNS = [
    (re.compile(r"std\s*::\s*random_device"), "std::random_device (ambient entropy)"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:])rand\s*\("), "rand()"),
    (re.compile(r"\b[dlm]rand48\s*\("), "*rand48()"),
    (re.compile(r"(?<![\w:])random\s*\("), "random()"),
    (re.compile(r"system_clock\s*::"), "system_clock (wall clock)"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"(?<![\w:])clock\s*\(\s*\)"), "clock()"),
]

BLOCKING_PATTERNS = [
    (re.compile(r"\bsleep_for\s*\("), "sleep"),
    (re.compile(r"\bsleep_until\s*\("), "sleep"),
    (re.compile(r"\busleep\s*\("), "sleep"),
    (re.compile(r"(?<![\w:])sleep\s*\("), "sleep"),
    (re.compile(r"\.\s*wait\s*\("), "condition/future wait"),
    (re.compile(r"\.\s*wait_for\s*\("), "condition/future wait"),
    (re.compile(r"\.\s*wait_until\s*\("), "condition/future wait"),
    (re.compile(r"\.\s*join\s*\("), "thread join"),
    (re.compile(r"\bsend_all\s*\("), "blocking socket write (send_all)"),
    (re.compile(r"\bread_exact\s*\("), "blocking socket read (read_exact)"),
    (re.compile(r"\bread_line\s*\("), "blocking socket read (read_line)"),
    (re.compile(r"\bparallel_for\s*\("), "parallel_for (blocks on the pool)"),
]

HOTPATH_PATTERNS = [
    (re.compile(r"(?<!\w)new\s+[A-Za-z_]"), "operator new"),
    (re.compile(r"\bmake_unique\s*<"), "make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "make_shared"),
    (re.compile(r"\bmalloc\s*\("), "malloc"),
    (re.compile(r"\.\s*push_back\s*\("), "push_back"),
    (re.compile(r"\.\s*emplace_back\s*\("), "emplace_back"),
    (re.compile(r"\.\s*resize\s*\("), "resize"),
    (re.compile(r"\.\s*reserve\s*\("), "reserve"),
    (re.compile(r"\bMutexLock\b|\block_guard\b|\bunique_lock\b|\bscoped_lock\b"),
     "lock acquisition"),
    (re.compile(r"\.\s*lock\s*\(\s*\)"), "lock acquisition"),
]

RAW_IO_PATTERNS = [
    (re.compile(r"::\s*(read|write|send|recv|sendto|recvfrom|readv|writev)\s*\("),
     "raw socket syscall"),
]

READ_COUNT_RE = re.compile(r"\b(\w+)\s*=[^=].*?\bread_u(?:8|16|32|64)\s*\(")
ASSIGN_RE = re.compile(r"\b(\w+)\s*=(?!=)")
SIZING_RE = re.compile(r"\.\s*(?:resize|reserve)\s*\(\s*(\w+)")
BOUND_RE_TEMPLATE = r"(?:element_count\s*\([^)]*\b{ident}\b|KINET_CHECK\s*\([^;]*\b{ident}\b|\b{ident}\b\s*(?:<|<=|>|>=)|(?:<|<=|>|>=)\s*\b{ident}\b|std::min[^;]*\b{ident}\b)"

# Failpoint sites carry their name as a string literal, which the stripper
# blanks — this rule scans RAW lines, not code lines.
FAILPOINT_SITE_RE = re.compile(r'KINET_FAILPOINT\s*\(\s*"([^"]*)"\s*\)')
FAILPOINT_CALL_RE = re.compile(r"\bKINET_FAILPOINT\s*\(")
FAILPOINT_REGISTRY = REPO / "src" / "common" / "failpoint.cpp"

ALLOW_RE = re.compile(r"kinet-lint:\s*allow\(([\w-]+)\)\s*:\s*(\S.*?)\s*(?:\*/)?\s*$")
BARE_ALLOW_RE = re.compile(r"kinet-lint:\s*allow\(([\w-]+)\)")

RULES = {
    "nondet-api": "banned nondeterminism API in RNG-bearing code",
    "loop-blocking": "blocking call inside an event-loop-thread function",
    "hot-path-alloc": "allocation/locking in a serving fast-path function",
    "raw-io": "raw socket syscall outside the EINTR-safe wrappers",
    "unbounded-count": "wire-side count sizes a container without a bound",
    "tsa-escape": "undocumented KINET_NO_THREAD_SAFETY_ANALYSIS",
    "failpoint-name": "KINET_FAILPOINT site not in the central registry",
    "bad-allow": "kinet-lint allow() without a reason",
}


@dataclasses.dataclass
class Finding:
    path: pathlib.Path
    line: int  # 1-based
    rule: str
    message: str

    def render(self, ci: bool) -> str:
        rel = self.path
        try:
            rel = self.path.relative_to(REPO)
        except ValueError:
            pass
        if ci:
            return (f"::error file={rel},line={self.line},"
                    f"title=kinet-lint {self.rule}::{self.message}")
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexical preprocessing
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> list[str]:
    """Returns code-only lines (comments/strings blanked, newlines kept)."""
    out: list[str] = []
    i, n = 0, len(text)
    buf: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                # Raw strings: skip to the matching delimiter outright.
                if buf and buf[-1] == "R":
                    m = re.match(r'R"([^(\s]*)\(', text[i - 1:])
                    if m:
                        end = text.find(")" + m.group(1) + '"', i)
                        if end < 0:
                            break
                        skipped = text[i:end]
                        buf.extend("\n" * skipped.count("\n"))
                        i = end + len(m.group(1)) + 2
                        continue
                state = "string"
                buf.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                buf.append(" ")
                i += 1
                continue
            buf.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                buf.append("\n")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                buf.append("\n")
            i += 1
        else:  # string or char
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or (state == "char" and c == "'"):
                state = "code"
            elif c == "\n":
                buf.append("\n")  # unterminated; stay permissive
                state = "code"
            i += 1
    return "".join(buf).split("\n")


def collect_allows(raw_lines: list[str]) -> tuple[dict[int, set[str]], list[Finding]]:
    """Maps 0-based line -> waived rules (same line or the line below)."""
    allows: dict[int, set[str]] = {}
    bad: list[Finding] = []
    for idx, line in enumerate(raw_lines):
        m = ALLOW_RE.search(line)
        if not m:
            mb = BARE_ALLOW_RE.search(line)
            if mb:
                bad.append((idx, mb.group(1)))  # reason-less allow
            continue
        # The allow waives its own line and, when it stands alone, the next.
        allows.setdefault(idx, set()).add(m.group(1))
        stripped = line.strip()
        if stripped.startswith("//") or stripped.startswith("/*"):
            allows.setdefault(idx + 1, set()).add(m.group(1))
    return allows, bad


def find_function_bodies(code_lines: list[str], name_re: re.Pattern) -> list[tuple[int, int]]:
    """(start, end) 0-based line ranges of function bodies whose signature
    line matches name_re.  Brace-counted from the signature's opening `{`."""
    spans = []
    text = "\n".join(code_lines)
    for m in name_re.finditer(text):
        open_brace = text.find("{", m.end())
        # Give up if a `;` (declaration) appears before the brace.
        semi = text.find(";", m.end())
        if open_brace < 0 or (0 <= semi < open_brace):
            continue
        depth = 0
        end = open_brace
        for j in range(open_brace, len(text)):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    end = j
                    break
        start_line = text.count("\n", 0, open_brace)
        end_line = text.count("\n", 0, end)
        spans.append((start_line, end_line))
    return spans


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

def scan_patterns(path, code_lines, patterns, rule, line_filter=None):
    findings = []
    for idx, line in enumerate(code_lines):
        if line_filter is not None and not line_filter(idx):
            continue
        for pattern, what in patterns:
            if pattern.search(line):
                findings.append(Finding(path, idx + 1, rule, f"{what} — {RULES[rule]}"))
                break
    return findings


def rule_nondet(path: pathlib.Path, code_lines: list[str]) -> list[Finding]:
    return scan_patterns(path, code_lines, NONDET_PATTERNS, "nondet-api")


def rule_loop_blocking(path: pathlib.Path, code_lines: list[str]) -> list[Finding]:
    if path.name != "event_loop.cpp":
        return []
    findings: list[Finding] = []
    text = "\n".join(code_lines)
    in_tree = "src" in path.parts  # fixtures carry a partial function set
    spans: list[tuple[int, int]] = []
    for fn in LOOP_THREAD_FUNCTIONS:
        sig = re.compile(r"EventLoop\s*::\s*" + re.escape(fn) + r"\s*\(")
        fn_spans = find_function_bodies(code_lines, sig)
        if in_tree and not fn_spans and sig.search(text) is None:
            findings.append(Finding(
                path, 1, "loop-blocking",
                f"loop-thread function list is stale: EventLoop::{fn} not found "
                "(update LOOP_THREAD_FUNCTIONS in tools/kinet_lint.py)"))
        spans.extend(fn_spans)

    def on_loop_thread(idx: int) -> bool:
        return any(s <= idx <= e for s, e in spans)

    findings.extend(scan_patterns(path, code_lines, BLOCKING_PATTERNS,
                                  "loop-blocking", on_loop_thread))
    return findings


def rule_hot_path(path: pathlib.Path, code_lines: list[str]) -> list[Finding]:
    sig = re.compile(
        r"\w+\s*::\s*forward_inference\s*\(|StreamCursor\s*::\s*\w+\s*\(")
    spans = find_function_bodies(code_lines, sig)
    if not spans:
        return []

    def in_hot_path(idx: int) -> bool:
        return any(s <= idx <= e for s, e in spans)

    return scan_patterns(path, code_lines, HOTPATH_PATTERNS, "hot-path-alloc",
                         in_hot_path)


def rule_raw_io(path: pathlib.Path, code_lines: list[str]) -> list[Finding]:
    if "service" not in path.parts or path.name == "socket.cpp":
        return []
    return scan_patterns(path, code_lines, RAW_IO_PATTERNS, "raw-io")


def rule_unbounded_count(path: pathlib.Path, code_lines: list[str]) -> list[Finding]:
    findings = []
    # Identifier -> line it was assigned from a raw wire read.
    tainted: dict[str, int] = {}
    for idx, line in enumerate(code_lines):
        reads = {m.group(1) for m in READ_COUNT_RE.finditer(line)}
        # Reassignment from any non-wire source (element_count(), a literal,
        # a clamped copy) clears the taint — counts stay tainted only while
        # they still hold the raw wire value.
        for m in ASSIGN_RE.finditer(line):
            if m.group(1) not in reads:
                tainted.pop(m.group(1), None)
        for ident in reads:
            tainted[ident] = idx
        for m in SIZING_RE.finditer(line):
            ident = m.group(1)
            if ident in tainted:
                findings.append(Finding(
                    path, idx + 1, "unbounded-count",
                    f"container sized from wire count `{ident}` (read at line "
                    f"{tainted[ident] + 1}) without element_count()/KINET_CHECK bound"))
        # A bound check anywhere after the read clears the taint.
        for ident in list(tainted):
            if idx > tainted[ident] and re.search(
                    BOUND_RE_TEMPLATE.format(ident=re.escape(ident)), line):
                del tainted[ident]
    return findings


def rule_tsa_escape(path: pathlib.Path, code_lines: list[str],
                    raw_lines: list[str]) -> list[Finding]:
    if path.name == "thread_annotations.hpp":
        return []  # the definition site
    findings = []
    for idx, line in enumerate(code_lines):
        if "KINET_NO_THREAD_SAFETY_ANALYSIS" not in line:
            continue
        context = "\n".join(raw_lines[max(0, idx - 4):idx + 1]).lower()
        if "justif" not in context and "documented" not in context:
            findings.append(Finding(
                path, idx + 1, "tsa-escape",
                "KINET_NO_THREAD_SAFETY_ANALYSIS without a nearby comment "
                "justifying the lock-free protocol"))
    return findings


_REGISTERED_FAILPOINTS: set[str] | None = None


def registered_failpoints() -> set[str]:
    """Names declared in kRegisteredFailpoints (src/common/failpoint.cpp)."""
    global _REGISTERED_FAILPOINTS
    if _REGISTERED_FAILPOINTS is None:
        names: set[str] = set()
        if FAILPOINT_REGISTRY.is_file():
            text = FAILPOINT_REGISTRY.read_text(encoding="utf-8", errors="replace")
            m = re.search(r"kRegisteredFailpoints\s*\[\]\s*=\s*\{(.*?)\}", text,
                          re.DOTALL)
            if m:
                names = set(re.findall(r'"([^"]+)"', m.group(1)))
        _REGISTERED_FAILPOINTS = names
    return _REGISTERED_FAILPOINTS


def rule_failpoint_name(path: pathlib.Path, raw_lines: list[str]) -> list[Finding]:
    registry = registered_failpoints()
    if not registry:
        return [Finding(path, 1, "failpoint-name",
                        f"cannot parse kRegisteredFailpoints from {FAILPOINT_REGISTRY}")]
    findings: list[Finding] = []
    for idx, line in enumerate(raw_lines):
        literals = FAILPOINT_SITE_RE.findall(line)
        for name in literals:
            if name not in registry:
                findings.append(Finding(
                    path, idx + 1, "failpoint-name",
                    f'failpoint "{name}" is not in kRegisteredFailpoints '
                    "(src/common/failpoint.cpp) — it can never be armed"))
        # A site whose argument is not a plain string literal defeats both
        # this check and configure()'s name validation.
        if len(FAILPOINT_CALL_RE.findall(line)) > len(literals) and \
                "define KINET_FAILPOINT" not in line:
            findings.append(Finding(
                path, idx + 1, "failpoint-name",
                "KINET_FAILPOINT argument must be a string literal so the "
                "registry check can see it"))

    # Staleness sweep, anchored to the registry file so it runs exactly once
    # per tree lint: a registered name no site uses is dead chaos coverage.
    if path.resolve() == FAILPOINT_REGISTRY:
        used: set[str] = set()
        for source in sorted((REPO / "src").rglob("*.cpp")):
            if source.resolve() == FAILPOINT_REGISTRY:
                continue
            for m in FAILPOINT_SITE_RE.finditer(
                    source.read_text(encoding="utf-8", errors="replace")):
                used.add(m.group(1))
        for name in sorted(registry - used):
            findings.append(Finding(
                path, 1, "failpoint-name",
                f'registered failpoint "{name}" has no KINET_FAILPOINT site '
                "left in src/ — remove it or restore the site"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def lint_file(path: pathlib.Path, rules: set[str]) -> list[Finding]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.split("\n")
    code_lines = strip_comments_and_strings(raw)
    # Keep line counts aligned; the stripper preserves newlines.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")

    allows, bad_allows = collect_allows(raw_lines)
    findings: list[Finding] = [
        Finding(path, idx + 1, "bad-allow",
                f"allow({rule}) must carry a reason: `// kinet-lint: allow({rule}): <why>`")
        for idx, rule in bad_allows
    ]

    if "nondet-api" in rules:
        findings += rule_nondet(path, code_lines)
    if "loop-blocking" in rules:
        findings += rule_loop_blocking(path, code_lines)
    if "hot-path-alloc" in rules:
        findings += rule_hot_path(path, code_lines)
    if "raw-io" in rules:
        findings += rule_raw_io(path, code_lines)
    if "unbounded-count" in rules:
        findings += rule_unbounded_count(path, code_lines)
    if "tsa-escape" in rules:
        findings += rule_tsa_escape(path, code_lines, raw_lines)
    if "failpoint-name" in rules:
        findings += rule_failpoint_name(path, raw_lines)

    return [f for f in findings
            if f.rule == "bad-allow" or f.rule not in allows.get(f.line - 1, set())]


def default_tree() -> list[pathlib.Path]:
    return sorted((REPO / "src").rglob("*.cpp")) + sorted((REPO / "src").rglob("*.hpp"))


def run_selftest() -> int:
    fixtures = REPO / "tools" / "lint_fixtures"
    bad_dir, clean_dir = fixtures / "bad", fixtures / "clean"
    failures = 0
    expect_re = re.compile(r"//\s*LINT-EXPECT:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")

    def fixture_files(root: pathlib.Path) -> list[pathlib.Path]:
        return sorted(list(root.rglob("*.cc")) + list(root.rglob("*.cpp")))

    for path in fixture_files(bad_dir):
        raw_lines = path.read_text().split("\n")
        expected: dict[int, set[str]] = {}
        for idx, line in enumerate(raw_lines):
            m = expect_re.search(line)
            if m:
                expected[idx + 1] = {r.strip() for r in m.group(1).split(",")}
        got: dict[int, set[str]] = {}
        for f in lint_file(path, set(RULES)):
            got.setdefault(f.line, set()).add(f.rule)
        if got != expected:
            failures += 1
            print(f"SELFTEST FAIL {path.name}:")
            for line in sorted(set(expected) | set(got)):
                want, have = expected.get(line, set()), got.get(line, set())
                if want != have:
                    print(f"  line {line}: expected {sorted(want)}, got {sorted(have)}")

    for path in fixture_files(clean_dir):
        hits = lint_file(path, set(RULES))
        if hits:
            failures += 1
            print(f"SELFTEST FAIL {path.name}: expected clean, got:")
            for f in hits:
                print(f"  {f.render(ci=False)}")

    total = len(fixture_files(bad_dir)) + len(fixture_files(clean_dir))
    if total == 0:
        print("SELFTEST FAIL: no fixtures found")
        return 1
    if failures:
        print(f"selftest: {failures}/{total} fixture(s) failed")
        return 1
    print(f"selftest: {total} fixture(s) OK")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("paths", nargs="*", help="files to lint (default: src/ tree)")
    parser.add_argument("--ci", action="store_true",
                        help="GitHub annotation output; implies the full tree")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture suite and exit")
    parser.add_argument("--rules", default=",".join(r for r in RULES if r != "bad-allow"),
                        help="comma-separated rule subset")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:16} {desc}")
        return 0
    if args.selftest:
        return run_selftest()

    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(RULES)
    if unknown:
        print(f"unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    paths = [pathlib.Path(p) for p in args.paths] if args.paths else default_tree()
    findings: list[Finding] = []
    for path in paths:
        if not path.is_file():
            print(f"kinet-lint: no such file: {path}", file=sys.stderr)
            return 2
        findings.extend(lint_file(path, rules))

    for f in findings:
        print(f.render(args.ci))
    if findings:
        print(f"kinet-lint: {len(findings)} finding(s) in {len(paths)} file(s)",
              file=sys.stderr)
        return 1
    print(f"kinet-lint: clean ({len(paths)} file(s), rules: {', '.join(sorted(rules))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
