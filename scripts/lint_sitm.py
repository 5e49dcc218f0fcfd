#!/usr/bin/env python3
"""Project-specific lint for the SITM tree — invariants no generic tool checks.

Rules (each findable nowhere else: clang-tidy and compiler warnings do
not know this repo's conventions):

  discarded-status     Every call of a function returning base::Status /
                       base::Result must be consumed: bare
                       expression-statement calls and `(void)` silencing
                       casts are errors. The classes are [[nodiscard]],
                       but class-attribute enforcement has compiler gaps
                       (class templates, older toolchains) and `(void)`
                       defeats it entirely; this rule has no gaps. The
                       callee set is derived by scanning src/ headers
                       for Status/Result-returning declarations.
  naked-thread         `std::thread` may appear only in the concurrency
                       substrate — the sched executor (ad-hoc threads
                       bypass its determinism and shutdown discipline).
                       `std::thread::id` /
                       `std::thread::hardware_concurrency` type and
                       static accesses are fine anywhere.
  nondeterministic-rng std::random_device / std::mt19937 / srand / rand
                       are forbidden outside base/rng.h: every random
                       stream must come from sitm::Rng with an explicit
                       seed, or bench/test reproducibility dies.
  pragma-once          Every header carries `#pragma once` (include
                       guards invite copy-paste guard collisions that
                       silently drop declarations).
  include-convention   Project includes are src/-relative: no `"../`,
                       no `"src/` prefixes (they break the single
                       exported include root; see CMakeLists.txt).
  lock-scope-io        Blocking file I/O (fstreams, fopen/fread/fwrite,
                       mmap) inside a MutexLock / manual Lock() /
                       SITM_REQUIRES region. Critical sections must be
                       short and bounded; stage the bytes outside the
                       lock (see TraceSink::WriteJson for the shape).
  lock-scope-store     EventStoreWriter Append/Finish under a lock:
                       both do real I/O and Finish fsyncs — a store
                       flush inside a critical section stalls every
                       thread behind that mutex.
  lock-scope-executor  Submitting parallel work (ParallelFor /
                       ParallelMap / RunGraph / RunGraphInline /
                       Executor::Run) while holding a lock: the workers
                       may need the very mutex the submitter holds —
                       the classic self-deadlock the task-graph
                       adapters exist to prevent.
  lock-wait-no-predicate  CondVar::Wait call sites must sit in a
                       while/do/for predicate loop re-checking the
                       condition (spurious wakeups; see base/mutex.h).
  missing-nodiscard    Status/Result<...>-returning declarations in
                       src/ headers must carry [[nodiscard]] — the
                       discarded-status rule catches bare statements,
                       but only the attribute reaches expression
                       contexts (ternaries, comma operators) and
                       other TUs. friend declarations are exempt
                       (C++17 forbids attributes there).

Suppression: append `sitm-lint: allow(<rule>)` in a comment on the
offending line (or the line directly above) — e.g. the pool's own test
harness legitimately spawns raw std::thread submitters.

Usage: scripts/lint_sitm.py [--root DIR]
Exit status: 0 clean, 1 findings, 2 usage errors.
(Regression-tested by scripts/test_lint_sitm.py, run in CI.)
"""

import argparse
import os
import re
import sys

# Directories scanned relative to the root, and what rules apply where.
SOURCE_DIRS = ("src", "tests", "bench", "examples")
HEADER_DIRS = ("src", "bench")

ALLOW_RE = re.compile(r"sitm-lint:\s*allow\(([a-z-]+)\)")

# Function names that return Status/Result but whose bare call can never
# be a dropped error (none today; extend deliberately, with a comment).
DISCARDED_STATUS_ALLOWLIST = frozenset()

# Status/Result-returning declarations in headers. Matches e.g.
#   Status Validate() const;
#   static Result<GridIndex> Build(...);
#   [[nodiscard]] Result<std::vector<T>> Run(...);
DECL_RE = re.compile(
    r"(?:\[\[nodiscard\]\]\s+)?(?:static\s+|virtual\s+)?"
    r"(?:Status|Result<[^;{}()]+>)\s+(\w+)\s*\(")

# Declarations of the same names with non-Status return types (e.g.
# `void Append(...)` on Trace vs `Status Append(...)` on JsonValue).
# The lint matches call sites by name only, so such names are
# *ambiguous*: bare-statement checking would false-positive on the
# void-returning overloads and is left to the classes' [[nodiscard]]
# attribute (which the compiler resolves with real types); the
# (void)-cast check still applies — casting a void call to void is
# something nobody writes, so a `(void)x.Append(...)` is always
# silencing a Status.
NON_STATUS_DECL_RE = re.compile(
    r"(?:void|bool|int|double|float|auto|std::size_t|std::string)"
    r"\s+(\w+)\s*\(")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line):
    """Blanks string/char literals and // comments so tokens inside them
    never trip a rule. (Block comments spanning lines are rare in this
    tree and handled by the caller's in_block_comment flag.)"""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def iter_files(root, dirs, suffixes):
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [x for x in dirnames if x != "build"]
            for name in sorted(filenames):
                if name.endswith(suffixes):
                    yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read().splitlines()


def allowed(lines, index, rule):
    """True if line `index` (0-based) or the one above carries an
    `sitm-lint: allow(rule)` marker."""
    for probe in (index, index - 1):
        if 0 <= probe < len(lines):
            match = ALLOW_RE.search(lines[probe])
            if match and match.group(1) == rule:
                return True
    return False


def collect_status_returning(root):
    """Returns (unambiguous, all_status): names of functions declared in
    src/ headers returning Status or Result<...>. `unambiguous` excludes
    names that also appear with a non-Status return type somewhere (see
    NON_STATUS_DECL_RE); `all_status` keeps them for the (void)-cast
    check. Declarations spanning lines are joined first."""
    status_names = set()
    other_names = set()
    for path in iter_files(root, ("src",), (".h",)):
        text = "\n".join(
            strip_comments_and_strings(line) for line in read_lines(path))
        # Joining declarations that wrap after the return type or between
        # arguments: collapse all whitespace runs, then scan.
        joined = re.sub(r"\s+", " ", text)
        for match in DECL_RE.finditer(joined):
            status_names.add(match.group(1))
        for match in NON_STATUS_DECL_RE.finditer(joined):
            other_names.add(match.group(1))
    status_names -= DISCARDED_STATUS_ALLOWLIST
    return status_names - other_names, status_names


# A bare call statement: optional receiver chain, then a known callee,
# then arguments closing with `);` at the end of the (joined) statement.
def bare_call_re(names):
    alternation = "|".join(sorted(re.escape(n) for n in names))
    return re.compile(
        r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*(" + alternation + r")\s*\(")


VOID_CAST_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_]")


def check_discarded_status(root, findings):
    unambiguous, names = collect_status_returning(root)
    if not names:
        return
    call_re = bare_call_re(unambiguous) if unambiguous else None
    for path in iter_files(root, SOURCE_DIRS, (".cc", ".cpp", ".h")):
        lines = read_lines(path)
        stripped = [strip_comments_and_strings(line) for line in lines]
        for i, line in enumerate(stripped):
            # Join physical lines until the statement closes (bounded
            # lookahead keeps pathological files cheap).
            statement = line
            j = i
            while (not statement.rstrip().endswith(";") and j + 1 < len(stripped)
                   and j - i < 8):
                j += 1
                statement = statement.rstrip() + " " + stripped[j].strip()
            match = call_re.match(statement) if call_re else None
            if match and statement.rstrip().endswith(";"):
                # A continuation line of a larger expression is not a
                # statement start: the previous line must end one.
                prev = stripped[i - 1].rstrip() if i > 0 else ""
                if prev and not prev.endswith((";", "{", "}", ")")):
                    continue
                if prev.endswith(")") and not re.search(
                        r"\b(if|for|while|switch)\s*\(", prev):
                    continue
                if allowed(lines, i, "discarded-status"):
                    continue
                findings.append(Finding(
                    path, i + 1, "discarded-status",
                    f"return value of Status/Result-returning "
                    f"'{match.group(1)}' is discarded (consume it, or "
                    f"SITM_RETURN_IF_ERROR it)"))
            if VOID_CAST_RE.search(line):
                after = line[line.index("void") + 4:]
                # Identifiers of the cast expression up to its call
                # parenthesis: `(void)writer.Finish()` -> writer, Finish.
                head = after.split("(", 1)[0]
                name = next((n for n in re.findall(r"[A-Za-z_]\w*", head)
                             if n in names), None)
                if name and not allowed(lines, i, "discarded-status"):
                    findings.append(Finding(
                        path, i + 1, "discarded-status",
                        f"(void)-cast silences the Status/Result of "
                        f"'{name}' — handle it instead"))


def check_naked_thread(root, findings):
    exempt_dir = os.path.join("src", "sched") + os.sep
    # `(?!::)` keeps std::thread::id / ::hardware_concurrency accesses
    # legal everywhere: they name no thread of execution.
    token = re.compile(r"\bstd::thread\b(?!::)")
    for path in iter_files(root, SOURCE_DIRS, (".cc", ".cpp", ".h")):
        rel = os.path.relpath(path, root)
        if rel.startswith(exempt_dir):
            continue
        lines = read_lines(path)
        for i, line in enumerate(lines):
            code = strip_comments_and_strings(line)
            if token.search(code) and not allowed(lines, i, "naked-thread"):
                findings.append(Finding(
                    path, i + 1, "naked-thread",
                    "std::thread outside the sched substrate — run work "
                    "on a sched::Executor instead (or justify with "
                    "`sitm-lint: allow(naked-thread)`)"))


RNG_TOKEN = re.compile(
    r"\bstd::random_device\b|\bstd::mt19937(?:_64)?\b|\bsrand\s*\(|"
    r"(?<![\w:])rand\s*\(")


def check_nondeterministic_rng(root, findings):
    exempt = {os.path.join("src", "base", "rng.h")}
    for path in iter_files(root, SOURCE_DIRS, (".cc", ".cpp", ".h")):
        rel = os.path.relpath(path, root)
        if rel in exempt:
            continue
        lines = read_lines(path)
        for i, line in enumerate(lines):
            code = strip_comments_and_strings(line)
            if RNG_TOKEN.search(code) and not allowed(
                    lines, i, "nondeterministic-rng"):
                findings.append(Finding(
                    path, i + 1, "nondeterministic-rng",
                    "non-reproducible RNG outside base/rng.h — use "
                    "sitm::Rng with an explicit seed"))


def check_pragma_once(root, findings):
    for path in iter_files(root, HEADER_DIRS, (".h",)):
        lines = read_lines(path)
        if not any(line.strip() == "#pragma once" for line in lines[:50]):
            findings.append(Finding(
                path, 1, "pragma-once",
                "header is missing `#pragma once`"))


INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')


def check_include_convention(root, findings):
    for path in iter_files(root, SOURCE_DIRS, (".cc", ".cpp", ".h")):
        lines = read_lines(path)
        for i, line in enumerate(lines):
            match = INCLUDE_RE.search(line)
            if not match:
                continue
            target = match.group(1)
            if (target.startswith("../") or target.startswith("src/")) \
                    and not allowed(lines, i, "include-convention"):
                findings.append(Finding(
                    path, i + 1, "include-convention",
                    f'include "{target}" must be src/-relative '
                    f'(e.g. "geom/grid_index.h")'))


# ---------------------------------------------------------------------------
# Scope-aware checks: a light structural pass over each file.
#
# strip_comments_and_strings() handles line comments and literals; the
# helpers below additionally blank block comments and preprocessor
# directives (continuations included), then tokenize the file into a
# stream of (line, kind, text) where kind is 'stmt' (code between
# structural tokens), 'open' ({), 'close' (}), or 'end' (;). Semicolons
# inside parentheses (for-headers) are not statement ends; brace scopes
# reset the paren depth so lambda bodies inside call arguments tokenize
# as real statements. This is not a C++ parser — it is exactly enough
# structure to know (a) which brace scope a statement sits in, (b) what
# keyword opened that scope, and (c) which locks are held there.
# ---------------------------------------------------------------------------

def _prepare_lines(lines):
    """Stripped lines with block comments and preprocessor lines blanked."""
    out = []
    in_block = False
    in_directive = False
    for line in lines:
        if in_directive:
            in_directive = line.rstrip().endswith("\\")
            out.append("")
            continue
        code = strip_comments_and_strings(line)
        if in_block:
            end = code.find("*/")
            if end == -1:
                out.append("")
                continue
            code = " " * (end + 2) + code[end + 2:]
            in_block = False
        code = re.sub(r"/\*.*?\*/", " ", code)
        start = code.find("/*")
        if start != -1:
            code = code[:start]
            in_block = True
        if code.lstrip().startswith("#"):
            in_directive = code.rstrip().endswith("\\")
            code = ""
        out.append(code)
    return out


def _tokenize(prepared):
    """Yield (line_index, kind, text) structural tokens (see above)."""
    buf = []
    buf_line = 0
    has_code = False  # buf holds a non-whitespace char (anchors buf_line)
    paren = 0
    paren_stack = []

    def flush():
        nonlocal buf, has_code
        text = " ".join("".join(buf).split())
        buf = []
        has_code = False
        return text

    for i, line in enumerate(prepared):
        for ch in line:
            if ch == "(":
                paren += 1
            elif ch == ")" and paren > 0:
                paren -= 1
            if ch == "{":
                text = flush()
                if text:
                    yield (buf_line, "stmt", text)
                paren_stack.append(paren)
                paren = 0
                yield (i, "open", "{")
                continue
            if ch == "}":
                text = flush()
                if text:
                    yield (buf_line, "stmt", text)
                paren = paren_stack.pop() if paren_stack else 0
                yield (i, "close", "}")
                continue
            if ch == ";" and paren == 0:
                text = flush()
                if text:
                    yield (buf_line, "stmt", text)
                yield (i, "end", ";")
                continue
            if ch == ":" and "".join(buf).strip() in ("public", "private",
                                                      "protected"):
                # Access labels are separators, not statement prefixes:
                # without this, `public:` would glue onto the following
                # declaration and skew its reported line.
                flush()
                yield (i, "end", ":")
                continue
            if not has_code and not ch.isspace():
                buf_line = i
                has_code = True
            buf.append(ch)
        buf.append(" ")
    text = flush()
    if text:
        yield (buf_line, "stmt", text)


_SCOPE_KEYWORD_RE = re.compile(
    r"\b(while|do|for|if|else|switch|try|catch|class|struct|union|enum|"
    r"namespace)\b")
LOOP_KINDS = frozenset({"while", "do", "for"})
TYPE_KINDS = frozenset({"class", "struct", "union", "enum"})


def _classify_scope(header):
    """What kind of brace scope does a `header { ...` statement open?"""
    keywords = _SCOPE_KEYWORD_RE.findall(header)
    for keyword in reversed(keywords):
        if keyword in LOOP_KINDS or keyword in ("if", "else", "switch",
                                                "try", "catch"):
            return keyword
    for keyword in keywords:
        if keyword == "namespace":
            return "namespace"
        if keyword in TYPE_KINDS:
            return "type"
    if "(" in header or header.startswith("["):  # function body or lambda
        return "function"
    return "other"


LOCK_DECL_RE = re.compile(r"\bMutexLock\s+\w+\s*\(")
MANUAL_LOCK_RE = re.compile(r"((?:[A-Za-z_]\w*(?:\.|->))+)Lock\s*\(\s*\)")
MANUAL_UNLOCK_RE = re.compile(r"((?:[A-Za-z_]\w*(?:\.|->))+)Unlock\s*\(\s*\)")
REQUIRES_RE = re.compile(r"\bSITM_REQUIRES(?:_SHARED)?\s*\(")

LOCK_IO_RE = re.compile(
    r"\bstd::(?:basic_)?[io]?fstream\b|"
    r"\bf(?:open|reopen|read|write|close|flush|printf|gets|puts)\s*\(|"
    r"\bmmap\s*\(")
# Receiver-name heuristic: a call like `x->Append(...)` is only a store
# write if `x` plausibly names a writer/store (Trace::Append et al. must
# stay quiet); same idea for `x->Run(...)` vs. the many other Run()s.
LOCK_STORE_RE = re.compile(
    r"\b(?:\w*(?:[Ww]riter|[Ss]tore)\w*\s*(?:\.|->)\s*"
    r"(?:Append|Finish)|EventStoreWriter)\s*\(")
LOCK_EXEC_RE = re.compile(
    r"\b(?:ParallelFor|ParallelMap|RunGraph|RunGraphInline)\s*[<(]|"
    r"\b\w*(?:[Ee]xecutor|[Rr]unner)\w*\s*(?:\.|->)\s*Run\s*\(")
WAIT_RE = re.compile(r"(?:[A-Za-z_]\w*(?:\.|->))+Wait\s*\(")
WAIT_SAME_STMT_LOOP_RE = re.compile(r"\b(?:while|for)\b.*\bWait\s*\(")

_LOCK_RULES = (
    ("lock-scope-io", LOCK_IO_RE,
     "blocking file I/O inside a lock region (held since line %d) — "
     "stage the bytes outside the critical section"),
    ("lock-scope-store", LOCK_STORE_RE,
     "EventStoreWriter Append/Finish inside a lock region (held since "
     "line %d) — store writes do real I/O; move them off the lock"),
    ("lock-scope-executor", LOCK_EXEC_RE,
     "parallel work submitted inside a lock region (held since line "
     "%d) — workers may need this very mutex (self-deadlock)"),
)


def check_lock_scopes(root, findings):
    for path in iter_files(root, SOURCE_DIRS, (".cc", ".cpp", ".h")):
        rel = os.path.relpath(path, root)
        if rel == os.path.join("src", "base", "mutex.h"):
            continue  # defines the primitives the rules are about
        lines = read_lines(path)
        prepared = _prepare_lines(lines)
        scopes = []       # kind of every open brace scope, innermost last
        locks = []        # {kind, receiver, scope_len, line}
        pending = ""      # last stmt text, governs the next '{'
        for line_no, kind, text in _tokenize(prepared):
            if kind == "open":
                scope_kind = _classify_scope(pending)
                scopes.append(scope_kind)
                if REQUIRES_RE.search(pending):
                    locks.append({"kind": "requires", "receiver": None,
                                  "scope_len": len(scopes),
                                  "line": line_no + 1})
                pending = ""
                continue
            if kind == "close":
                if scopes:
                    scopes.pop()
                locks = [l for l in locks if l["scope_len"] <= len(scopes)]
                pending = ""
                continue
            if kind == "end":
                pending = ""
                continue
            pending = text
            if locks:
                for rule, token_re, message in _LOCK_RULES:
                    if token_re.search(text) and not allowed(
                            lines, line_no, rule):
                        findings.append(Finding(
                            path, line_no + 1, rule,
                            message % locks[-1]["line"]))
            wait = WAIT_RE.search(text)
            if wait:
                in_loop_stmt = bool(WAIT_SAME_STMT_LOOP_RE.search(text))
                in_loop_scope = bool(scopes) and scopes[-1] in LOOP_KINDS
                if not in_loop_stmt and not in_loop_scope and not allowed(
                        lines, line_no, "lock-wait-no-predicate"):
                    findings.append(Finding(
                        path, line_no + 1, "lock-wait-no-predicate",
                        "CondVar::Wait outside a predicate loop — "
                        "spurious wakeups require `while (!cond) "
                        "cv.Wait(lock);` (see base/mutex.h)"))
            # Lock events after the checks: the acquiring statement
            # itself is not "work inside the region".
            if LOCK_DECL_RE.search(text):
                locks.append({"kind": "scoped", "receiver": None,
                              "scope_len": len(scopes),
                              "line": line_no + 1})
            for match in MANUAL_LOCK_RE.finditer(text):
                locks.append({"kind": "manual",
                              "receiver": match.group(1),
                              "scope_len": len(scopes),
                              "line": line_no + 1})
            for match in MANUAL_UNLOCK_RE.finditer(text):
                receiver = match.group(1)
                for index in range(len(locks) - 1, -1, -1):
                    if (locks[index]["kind"] == "manual"
                            and locks[index]["receiver"] == receiver):
                        del locks[index]
                        break


ACCESS_LABEL_RE = re.compile(r"^(?:(?:public|private|protected)\s*:\s*)+")
STATUS_DECL_HEAD_RE = re.compile(
    r"^(?:template\s*<[^{};]*>\s*)?"
    r"(?:(?:virtual|static|inline|constexpr|explicit)\s+)*"
    r"(?:Status|Result<[^;{}]+>)\s+[A-Za-z_]\w*\s*\(")


def check_missing_nodiscard(root, findings):
    for path in iter_files(root, ("src",), (".h",)):
        lines = read_lines(path)
        prepared = _prepare_lines(lines)
        scopes = []
        pending = ""
        for line_no, kind, text in _tokenize(prepared):
            if kind == "open":
                scopes.append(_classify_scope(pending))
                pending = ""
                continue
            if kind == "close":
                if scopes:
                    scopes.pop()
                pending = ""
                continue
            if kind == "end":
                pending = ""
                continue
            pending = text
            if "function" in scopes:
                continue  # local declarations/statements inside a body
            decl = ACCESS_LABEL_RE.sub("", text)
            if "[[nodiscard]]" in decl or "friend" in decl.split("(")[0]:
                continue
            if STATUS_DECL_HEAD_RE.match(decl) and not allowed(
                    lines, line_no, "missing-nodiscard"):
                findings.append(Finding(
                    path, line_no + 1, "missing-nodiscard",
                    "Status/Result-returning declaration without "
                    "[[nodiscard]] — add it (or, for a genuinely "
                    "optional result, `sitm-lint: "
                    "allow(missing-nodiscard)` with a reason)"))


CHECKS = (
    check_discarded_status,
    check_naked_thread,
    check_nondeterministic_rng,
    check_pragma_once,
    check_include_convention,
    check_lock_scopes,
    check_missing_nodiscard,
)


def run_lint(root):
    findings = []
    for check in CHECKS:
        check(root, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repo root to lint (default: this script's parent repo)")
    args = parser.parse_args(argv)
    if not os.path.isdir(args.root):
        print(f"lint_sitm: no such directory: {args.root}", file=sys.stderr)
        return 2
    findings = run_lint(args.root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_sitm: {len(findings)} finding(s)")
        return 1
    print("lint_sitm: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
