#!/usr/bin/env python3
"""Protocol linter for the optimistic-concurrency contract.

Thread Safety Analysis covers the pessimistic locks (see
src/common/annotations.h) and TSan must exclude the optimistic suites
(their reads race by design), so the rules that actually make optimistic
locking safe are enforced by nothing off the shelf. This linter checks
them:

  R1 validate-on-exit   Every optimistic read section (AcquireSh /
                        ReadLockOrRestart / ReadLockNode) must reach a
                        validation (ReleaseSh / Validate / TryUpgrade)
                        before any `return` and before the function ends.
                        Restart edges (`continue`, `break`, `goto`) are
                        exempt: abandoning a snapshot is always safe,
                        *using* it without validation is not.
  R2 no-store-in-read-section
                        No stores through pointers (`p->field = ...`,
                        `p->n++`, ...) while an optimistic read section is
                        open: an unvalidated snapshot must never be used
                        to mutate shared state.
  R3 raw-delete         Index nodes may only be freed by the epoch layer
                        (inside a Retire(...) deleter) or by teardown /
                        deleter-named functions (~X, Free*, Delete*,
                        Destroy*). A bare `delete` on a reachable node is
                        a use-after-free for concurrent optimistic
                        readers.
  R4 epoch-guard        Public index operations (Insert/Update/Upsert/
                        Remove/Lookup/Scan/Get/Put/Erase) must run under
                        an EpochGuard, directly or via a same-file callee,
                        or take one from the caller — otherwise a
                        concurrent Retire can reclaim a node mid-descent.
  R5 version-dataflow   The version variable handed to a validation
                        (ReleaseSh / Validate / TryUpgrade) must be one a
                        matching acquire (AcquireSh / ReadLockOrRestart /
                        ReadLockNode, or a `ReadLock*` snapshot helper
                        such as the B+-tree's ReadLockLeaf, which fills
                        its last argument) actually filled, or a plain
                        copy of one (`pv = v;` descent handover). Validating a
                        never-filled or stale word compares against
                        garbage and silently disables the protocol.
                        Compound-expression arguments are conservatively
                        skipped; only plain identifiers are checked.
  R6 occ-write-before-validate
                        The txn-layer analogue of R1/R2: between a
                        `StableVersion()` snapshot and its
                        `ValidateVersion()` check, nothing may be
                        published — no `Install()` and no atomic
                        `.store()`. OCC's correctness rests on reads
                        being validated *before* their values feed a
                        write; a write issued mid-section is a dirty
                        write under an unvalidated snapshot.
  R7 blocking-acquire-in-read-section
                        No blocking/pessimistic acquire (AcquireEx /
                        AcquireExDeferred / AcquireShPessimistic) while an
                        optimistic read section is open. Queueing behind a
                        writer that is about to bump the very version the
                        open snapshot validates against guarantees a
                        restart at best; with a lock order it is a
                        deadlock seed (the model checker's ABBA demo is
                        exactly this shape). Validate or abandon the
                        snapshot first, then block.

The TxnOps contract names (StableVersion / ValidateVersion) are matched
in any spelling — bare, `Ops::`-qualified, or `TxnOps<Lock>::`-qualified
— since the names are unique to the contract. The optimistic member-call
names (AcquireSh et al.) stay member-call-only: qualified spellings such
as `LeafOps::LockSh(lock, slot)` are the TxnOps shared/exclusive surface
of the reader-writer locks, which TSA covers.

Engines:
  --engine=lexical (default) needs only the Python stdlib: functions are
      extracted by brace matching over comment/string-stripped text and
      the rules run over a token stream. Deterministic, runs anywhere.
  --engine=clang uses libclang (python `clang.cindex`) over
      compile_commands.json for function extents and token streams, then
      feeds the *same* rule state machine. Opt-in: the container image
      this repo is developed in has no libclang; CI pins --engine=lexical
      for determinism.

Escape hatches (each needs a reason after the colon):
  // LINT-ALLOW(rule-id): reason        suppresses on this or next line
  // LINT-ALLOW-FILE(rule-id): reason   suppresses for the whole file
  // LINT-TODO(rule-id): reason         suppresses AND is reported as an
                                        open item (ROADMAP fodder)

Exit status: 0 clean, 1 findings, 2 bad invocation.
"""

import argparse
import os
import re
import sys

RULES = ("validate-on-exit", "no-store-in-read-section", "raw-delete",
         "epoch-guard", "version-dataflow", "occ-write-before-validate",
         "blocking-acquire-in-read-section")

# Lock-implementation layer: the protocol primitives themselves. Their
# bodies *are* the open/validate operations, so the usage rules do not
# apply (they are covered by the checked-invariant build instead).
TRUSTED_PATHS = (
    "src/locks/",
    "src/qnode/",
    "src/sync/",
    "src/core/optiql.h",
)

# Protocol-primitive wrappers: functions whose body is one leg of the
# protocol (the open or the close), so R1/R2 see an unbalanced section by
# construction. Kept deliberately narrow.
HELPER_NAME_RE = re.compile(
    r"^(ReadLock\w*|Validate\w*|ReleaseSh|AcquireSh|TryUpgrade\w*"
    r"|ReleaseNode|ReadCritical)$")

# R1/R2 section openers and closers. `AcquireSh` is only an opener as a
# member call (`x.AcquireSh(` / `x->AcquireSh(`): a qualified call is the
# TxnOps surface of a pessimistic lock, checked by TSA instead.
OPENER_RE = re.compile(
    r"(?<![:\w])(?:ReadLockOrRestart|ReadLockNode)\s*\(|"
    r"(?:\.|->)AcquireSh\s*\(")
CLOSER_RE = re.compile(
    r"(?<![:\w])(?:Validate\w*)\s*\(|"
    r"(?:\.|->)(?:ReleaseSh|TryUpgrade\w*)\s*\(")

# R1/R6: the TxnOps OCC read section. `StableVersion` / `ValidateVersion`
# exist only as the contract's names, so any spelling — bare or
# `::`-qualified (`Ops::StableVersion(`, `TxnOps<L>::ValidateVersion(`) —
# opens/closes a section. (`\b` matches after `:` and `>`.)
OCC_OPENER_RE = re.compile(r"\bStableVersion\s*\(")
OCC_CLOSER_RE = re.compile(r"\bValidateVersion\s*\(")

# R6: a publication issued while an OCC read section is open. `Install`
# is the txn write-guard's publish; `.store(` is a raw atomic publish.
# Loads are fine — OCC reads under the snapshot by design.
OCC_WRITE_RE = re.compile(r"(?:\.|->)\s*(?:Install\w*|store)\s*\(")

# R7: a blocking/pessimistic acquire, member-call form only (qualified
# spellings like `LeafOps::LockEx(...)` are the TxnOps surface, covered
# by TSA where the lock is annotated). Longer names first so `AcquireExDeferred` is not half-matched.
BLOCKING_ACQUIRE_RE = re.compile(
    r"(?:\.|->)(?:AcquireExDeferred|AcquireShPessimistic|AcquireEx)\s*\(")

# R2: a store through a pointer dereference. Excludes `==`, `<=` etc. via
# the lookahead; member stores on locals (`result.found = ...`) use `.`
# and are deliberately not matched.
DEREF_STORE_RE = re.compile(
    r"->\s*\w+\s*(=(?![=])|\+\+|--|\+=|-=|\|=|&=|\^=)")

# R3: freeing calls. `delete`/`delete[]` expressions plus the repo's node
# deleters. `Retire`/`RetireNode`/`RetireLeaf` are the *sanctioned* path.
FREE_CALL_RE = re.compile(
    r"(?<![:\w.>])delete(?:\s*\[\s*\])?\s|"
    r"(?<![.\w>])(?:DeleteNode|FreeLeaf|FreeSubtree)\s*\(")
DELETER_NAME_RE = re.compile(r"^(~\w+|Free\w*|Delete\w*|Destroy\w*|Clear\w*)$")
RETIRE_CALL_RE = re.compile(r"(?<![:\w])Retire\w*\s*(<[^<>]*>)?\s*\(")

# R5: acquires that *fill* a version variable (capture group = the
# variable) and validations that *use* one. Each use's argument must be a
# plain identifier that some fill produced — directly or through `dst =
# src;` copies. Arguments with nested calls or member accesses fail the
# identifier shape and are skipped (conservative: R5 never guesses).
VERSION_FILL_RES = (
    re.compile(r"(?:\.|->)AcquireSh\s*\(\s*&?\s*(\w+)\s*\)"),
    # ReadLockOrRestart / ReadLockNode and every `ReadLock*` snapshot
    # helper (HELPER_NAME_RE) fill their last argument.
    re.compile(r"(?<![:\w])ReadLock\w*\s*"
               r"\((?:(?:[^()]|\([^()]*\))*?,)?\s*&?\s*(\w+)\s*\)"),
    re.compile(r"\bStableVersion\s*"
               r"\((?:[^()]|\([^()]*\))*?,\s*&?\s*(\w+)\s*\)"),
)
VERSION_USE_RES = (
    re.compile(r"(?:\.|->)ReleaseSh\s*\(\s*(\w+)\s*\)"),
    re.compile(r"(?:\.|->)TryUpgrade\w*\s*\(\s*(\w+)\s*[,)]"),
    re.compile(r"(?<![:\w.>])Validate\w*\s*"
               r"\((?:[^()]|\([^()]*\))*?,\s*(\w+)\s*\)"),
    re.compile(r"\bValidateVersion\s*"
               r"\((?:[^()]|\([^()]*\))*?,\s*(\w+)\s*\)"),
)
# One `dst = src` per statement chunk, anchored at the chunk's end so
# initializers (`uint64_t pv = v`) and plain assignments both match while
# calls and arithmetic (which end in `)` or an operator) do not.
VERSION_ASSIGN_RE = re.compile(r"(\w+)\s*=(?![=])\s*(\w+)\s*$")

# R4: public index entry points that must be epoch-protected.
PUBLIC_OP_RE = re.compile(
    r"^(Insert|Update|Upsert|Remove|Lookup|Scan|Get|Put|Erase)$")
R4_PATH_RE = re.compile(
    r"(src/index/[^/]+|lint_fixtures/[^/]*index[^/]*)\.(h|cc)$")

CONTROL_KEYWORDS = frozenset(
    ("if", "for", "while", "switch", "catch", "return", "sizeof",
     "alignof", "decltype", "static_assert", "else", "do", "new"))
NON_FUNC_HEAD_RE = re.compile(
    r"\b(class|struct|union|enum|namespace)\b(?!.*\boperator\b)")


class Finding:
    def __init__(self, path, line, rule, message, todo=False):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.todo = todo

    def __str__(self):
        kind = "todo" if self.todo else "error"
        return "%s:%d: %s [%s]: %s" % (self.path, self.line, kind,
                                       self.rule, self.message)


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals, preserving offsets."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == '"' or c == "'":
            # R"(...)" raw strings.
            if c == '"' and i > 0 and text[i - 1] == "R":
                m = re.match(r'R"([^(\s]*)\(', text[i - 1:i + 18])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i)
                    j = n if j < 0 else j + len(close)
                    out.append(re.sub(r"[^\n]", " ", text[i:j]))
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append('"' + " " * (j - i - 2) + '"' if j - i >= 2 else " ")
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Allowances:
    """LINT-ALLOW / LINT-ALLOW-FILE / LINT-TODO directives of one file."""

    LINE_RE = re.compile(r"LINT-(ALLOW|TODO)\(([\w-]+)\)\s*:\s*(\S.*)")
    FILE_RE = re.compile(r"LINT-ALLOW-FILE\(([\w-]+)\)\s*:\s*(\S.*)")

    def __init__(self, raw_text):
        self.file_rules = set()
        self.line_rules = set()  # (line, rule)
        self.todos = []  # (line, rule, reason)
        lines = raw_text.splitlines()
        for lineno, line in enumerate(lines, 1):
            m = self.FILE_RE.search(line)
            if m:
                self.file_rules.add(m.group(1))
                continue
            m = self.LINE_RE.search(line)
            if m:
                kind, rule, reason = m.groups()
                self.line_rules.add((lineno, rule))
                # A directive on a pure comment line covers the first
                # following code line, so multi-line reason comments work.
                target = lineno
                while target < len(lines) and \
                        lines[target - 1].lstrip().startswith("//"):
                    target += 1
                self.line_rules.add((target, rule))
                if kind == "TODO":
                    self.todos.append((lineno, rule, reason.strip()))

    def suppressed(self, line, rule):
        if rule in self.file_rules:
            return True
        # A directive suppresses its own line, its target code line, and
        # the line after the directive.
        return ((line, rule) in self.line_rules or
                (line - 1, rule) in self.line_rules)


class Function:
    """One extracted function: name, header+body text, line offsets."""

    def __init__(self, name, head, body, head_line, body_line):
        self.name = name
        self.head = head
        self.body = body          # Comment/string-stripped, braces included.
        self.head_line = head_line
        self.body_line = body_line  # Line of the opening brace.

    def body_line_of(self, offset):
        return self.body_line + self.body.count("\n", 0, offset)


def extract_functions(stripped):
    """Finds function definitions by brace matching over stripped text.

    Walks the text tracking a context stack (namespace / class / function /
    plain block). A `{` whose head (text since the last ; { or } at the
    same level) contains a parenthesized parameter list and is not a
    class/namespace/control head starts a function — only when the current
    context is file, namespace, or class scope, so lambdas and compound
    statements inside bodies are never treated as functions.
    """
    functions = []
    stack = []  # Entries: ("ns"|"class"|"func"|"block", start_offset)
    head_start = 0
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            head = stripped[head_start:i]
            in_code = all(k in ("ns", "class") for k, _ in stack)
            kind = "block"
            name = None
            if in_code:
                if NON_FUNC_HEAD_RE.search(head) and "(" not in head.split(
                        "(")[0].rsplit("operator", 1)[-1] and re.search(
                            r"\b(class|struct|union|enum)\b", head):
                    kind = "class"
                elif re.search(r"\bnamespace\b", head):
                    kind = "ns"
                else:
                    m = None
                    for m in re.finditer(r"(~?\w[\w:]*|operator\s*[^\s(]+)\s*\(",
                                         head):
                        pass  # Last match: the parameter list, not a macro.
                    if m:
                        name = m.group(1).split("::")[-1].strip()
                        if name not in CONTROL_KEYWORDS and "=" not in \
                                head.split(m.group(1))[0].split("\n")[-1]:
                            kind = "func"
            if kind == "func":
                # Attribute macros like OPTIQL_ACQUIRE() follow the param
                # list; the *first* plausible name before a '(' wins if the
                # last one is a known macro.
                m2 = re.search(r"(~?\w+)\s*\([^()]*(\([^()]*\))?[^()]*\)\s*"
                               r"(const|noexcept|override|final|OPTIQL_\w+"
                               r"|\s|\([^()]*\)|->\s*[\w:<>,*&\s]+|:\s*[^{}]*)*$",
                               head)
                if m2 and m2.group(1) not in CONTROL_KEYWORDS:
                    name = m2.group(1)
                head_line = stripped.count("\n", 0, head_start) + 1
                body_line = stripped.count("\n", 0, i) + 1
                functions.append((name, head, i, head_line, body_line))
            stack.append((kind, i))
            head_start = i + 1
        elif c == "}":
            if stack:
                kind, start = stack.pop()
                if kind == "func":
                    for idx in range(len(functions) - 1, -1, -1):
                        if functions[idx][2] == start:
                            nm, hd, st, hl, bl = functions[idx]
                            functions[idx] = Function(
                                nm, hd, stripped[st:i + 1], hl, bl)
                            break
            head_start = i + 1
        elif c == ";":
            if not stack or stack[-1][0] in ("ns", "class"):
                head_start = i + 1
        i += 1
    return [f for f in functions if isinstance(f, Function)]


def iter_statements(body):
    """Yields (offset, text) per statement-ish chunk of a function body.

    Chunks are split on ; { and } so control flow reads linearly; enough
    granularity for the binary open/closed section model.
    """
    start = 0
    for i, c in enumerate(body):
        if c in ";{}":
            if body[start:i].strip():
                yield start, body[start:i]
            start = i + 1
    if body[start:].strip():
        yield start, body[start:]


def check_function_rules(path, func, allow, findings):
    """R1 + R2 + R6 + R7 over one function body (binary open/closed
    sections).

    R6 only applies to sections opened by `StableVersion` (the OCC leg of
    the TxnOps contract); sections opened by ReadLockOrRestart /
    ReadLockNode / AcquireSh keep the classic R1/R2 treatment.
    """
    if HELPER_NAME_RE.match(func.name or ""):
        return
    open_section = False
    occ_section = False  # Current open section was opened by StableVersion.
    open_line = None
    for off, stmt in iter_statements(func.body):
        line = func.body_line_of(off)
        occ_open = OCC_OPENER_RE.search(stmt)
        has_open = OPENER_RE.search(stmt) or occ_open
        has_close = CLOSER_RE.search(stmt) or OCC_CLOSER_RE.search(stmt)
        is_return = re.search(r"(?<!\w)return(?!\w)", stmt)
        # A return in the same statement as an opener is the failure leg of
        # a bail block (`if (!x.AcquireSh(v)) return false;`): the snapshot
        # is abandoned, not used, so no validation is required.
        if is_return and open_section and not has_close and not has_open:
            rline = func.body_line_of(off + is_return.start())
            if not allow.suppressed(rline, "validate-on-exit"):
                findings.append(Finding(
                    path, rline, "validate-on-exit",
                    "return while the optimistic read section opened at "
                    "line %d is unvalidated (no ReleaseSh/Validate(Version)/"
                    "TryUpgrade on this exit path)" % open_line))
            open_section = False  # One finding per section.
        if open_section:
            m = DEREF_STORE_RE.search(stmt)
            if m:
                store_line = func.body_line_of(off + m.start())
                if not allow.suppressed(store_line,
                                        "no-store-in-read-section"):
                    findings.append(Finding(
                        path, store_line, "no-store-in-read-section",
                        "store through a pointer inside the optimistic "
                        "read section opened at line %d (writes require "
                        "an upgrade or exclusive lock)" % open_line))
            m = BLOCKING_ACQUIRE_RE.search(stmt)
            if m:
                acq_line = func.body_line_of(off + m.start())
                if not allow.suppressed(acq_line,
                                        "blocking-acquire-in-read-section"):
                    findings.append(Finding(
                        path, acq_line, "blocking-acquire-in-read-section",
                        "blocking acquire inside the optimistic read "
                        "section opened at line %d: queueing under an "
                        "unvalidated snapshot is a restart hazard and a "
                        "deadlock seed — validate or abandon the snapshot "
                        "first (TryUpgrade for the same lock)" % open_line))
            if occ_section:
                m = OCC_WRITE_RE.search(stmt)
                if m:
                    write_line = func.body_line_of(off + m.start())
                    if not allow.suppressed(write_line,
                                            "occ-write-before-validate"):
                        findings.append(Finding(
                            path, write_line, "occ-write-before-validate",
                            "write published inside the OCC read section "
                            "opened at line %d before ValidateVersion() "
                            "(install only after the snapshot validates, "
                            "under an exclusive lock)" % open_line))
        if has_close:
            open_section = False
            occ_section = False
        if has_open:
            open_section = True
            occ_section = occ_open is not None
            open_line = func.body_line_of(off + has_open.start())
    if open_section:
        line = func.body_line_of(len(func.body) - 1)
        if not allow.suppressed(line, "validate-on-exit"):
            findings.append(Finding(
                path, line, "validate-on-exit",
                "function ends with the optimistic read section opened at "
                "line %d still unvalidated" % open_line))


def check_version_dataflow(path, func, allow, findings):
    """R5 over one function body (flow-insensitive fill/copy tracking).

    The tracked set starts as every word in the function head — a version
    passed in as a parameter was filled by the caller's acquire — plus
    every variable an in-body acquire fills, then closes over `dst = src`
    copies to a fixpoint (the descent handover idiom `pv = v; v = cv;`).
    A validation whose argument is a plain identifier outside that set is
    validating a word no acquire ever produced.
    """
    if HELPER_NAME_RE.match(func.name or ""):
        return
    uses = []
    for use_re in VERSION_USE_RES:
        for m in use_re.finditer(func.body):
            uses.append((m.start(1), m.group(1)))
    if not uses:
        return
    tracked = set(re.findall(r"\w+", func.head))
    for fill_re in VERSION_FILL_RES:
        for m in fill_re.finditer(func.body):
            tracked.add(m.group(1))
    assigns = []
    for _off, stmt in iter_statements(func.body):
        m = VERSION_ASSIGN_RE.search(stmt)
        if not m:
            continue
        # Member stores (`p->v = x`) and member sources (`x = p.v`) are
        # not plain-identifier copies; skip both sides.
        if m.start(1) > 0 and stmt[m.start(1) - 1] in ".>:":
            continue
        if stmt[m.start(2) - 1] in ".>:&":
            continue
        assigns.append((m.group(1), m.group(2)))
    changed = True
    while changed:
        changed = False
        for dst, src in assigns:
            if src in tracked and dst not in tracked:
                tracked.add(dst)
                changed = True
    for off, var in uses:
        if var in tracked or var[0].isdigit():
            continue
        line = func.body_line_of(off)
        if allow.suppressed(line, "version-dataflow"):
            continue
        findings.append(Finding(
            path, line, "version-dataflow",
            "version variable '%s' passed to a validation was never "
            "filled by a matching acquire (AcquireSh/ReadLockOrRestart/"
            "ReadLockNode/ReadLock* helper) nor copied from one" % var))


def retire_spans(body):
    """Extents of Retire(...) argument lists (deleters inside are legal)."""
    spans = []
    for m in RETIRE_CALL_RE.finditer(body):
        depth = 0
        for i in range(m.end() - 1, len(body)):
            if body[i] == "(":
                depth += 1
            elif body[i] == ")":
                depth -= 1
                if depth == 0:
                    spans.append((m.start(), i + 1))
                    break
    return spans


def check_raw_delete(path, func, allow, findings):
    """R3 over one function body."""
    if DELETER_NAME_RE.match(func.name or ""):
        return
    spans = retire_spans(func.body)
    for m in FREE_CALL_RE.finditer(func.body):
        if any(a <= m.start() < b for a, b in spans):
            continue
        line = func.body_line_of(m.start())
        if allow.suppressed(line, "raw-delete"):
            continue
        findings.append(Finding(
            path, line, "raw-delete",
            "raw free of an index node outside the epoch layer (use "
            "EpochManager::Retire, or a ~dtor/Free*/Delete*/Destroy* "
            "teardown helper)"))


def check_epoch_guard(path, functions, allow, findings):
    """R4 over one file: public ops must reach an EpochGuard."""
    if not R4_PATH_RE.search(path.replace(os.sep, "/")):
        return
    by_name = {}
    for f in functions:
        by_name.setdefault(f.name, []).append(f)

    guarded_cache = {}

    def reaches_guard(name, depth=0):
        if depth > 6 or name not in by_name:
            return False
        if name in guarded_cache:
            return guarded_cache[name]
        guarded_cache[name] = False  # Cycle guard.
        for f in by_name[name]:
            text = f.head + f.body
            if "EpochGuard" in text:
                guarded_cache[name] = True
                return True
        for f in by_name[name]:
            for callee in set(re.findall(r"(?<![:.\w>])(\w+)\s*\(", f.body)):
                if callee != name and callee in by_name and \
                        reaches_guard(callee, depth + 1):
                    guarded_cache[name] = True
                    return True
        return guarded_cache[name]

    for f in functions:
        if not f.name or not PUBLIC_OP_RE.match(f.name):
            continue
        if allow.suppressed(f.head_line, "epoch-guard") or \
                allow.suppressed(f.body_line, "epoch-guard"):
            continue
        if not reaches_guard(f.name):
            findings.append(Finding(
                path, f.body_line, "epoch-guard",
                "public index operation %s() never reaches an EpochGuard "
                "(directly, via a same-file callee, or as a parameter); a "
                "concurrent Retire may reclaim nodes mid-descent"
                % f.name))


def lint_text(path, raw_text):
    """Runs all rules over one file's text; returns (findings, todos)."""
    allow = Allowances(raw_text)
    findings = []
    rel = path.replace(os.sep, "/")
    trusted = any(("/" + rel).find("/" + t) >= 0 for t in TRUSTED_PATHS)
    if not trusted:
        stripped = strip_comments_and_strings(raw_text)
        functions = extract_functions(stripped)
        for func in functions:
            check_function_rules(path, func, allow, findings)
            check_raw_delete(path, func, allow, findings)
            check_version_dataflow(path, func, allow, findings)
        check_epoch_guard(path, functions, allow, findings)
    todos = [Finding(path, ln, rule, reason, todo=True)
             for ln, rule, reason in allow.todos]
    return findings, todos


def lint_file(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return lint_text(path, f.read())


# --- libclang engine (opt-in) -------------------------------------------

def lint_file_clang(path, compile_db_dir):
    """Same rules, but function extents come from libclang cursors."""
    from clang import cindex  # Raises ImportError without libclang.
    index = cindex.Index.create()
    args = ["-std=c++20", "-Isrc"]
    if compile_db_dir:
        try:
            db = cindex.CompilationDatabase.fromDirectory(compile_db_dir)
            cmds = db.getCompileCommands(os.path.abspath(path))
            if cmds:
                args = [a for a in list(cmds[0].arguments)[1:-1]
                        if a not in ("-c", "-o")]
        except cindex.CompilationDatabaseError:
            pass
    tu = index.parse(path, args=args)
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    allow = Allowances(raw)
    stripped = strip_comments_and_strings(raw)
    lines = stripped.splitlines(keepends=True)
    offsets = [0]
    for ln in lines:
        offsets.append(offsets[-1] + len(ln))
    findings = []
    functions = []
    kinds = (cindex.CursorKind.CXX_METHOD, cindex.CursorKind.FUNCTION_DECL,
             cindex.CursorKind.FUNCTION_TEMPLATE,
             cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR)

    def visit(cursor):
        for ch in cursor.get_children():
            if ch.kind in kinds and ch.is_definition() and \
                    ch.location.file and ch.location.file.name == path:
                ext = ch.extent
                start = offsets[ext.start.line - 1] + ext.start.column - 1
                end = offsets[ext.end.line - 1] + ext.end.column - 1
                text = stripped[start:end]
                brace = text.find("{")
                if brace < 0:
                    continue
                functions.append(Function(
                    ch.spelling, text[:brace], text[brace:],
                    ext.start.line,
                    ext.start.line + text[:brace].count("\n")))
            visit(ch)

    visit(tu.cursor)
    rel = path.replace(os.sep, "/")
    if not any(("/" + rel).find("/" + t) >= 0 for t in TRUSTED_PATHS):
        for func in functions:
            check_function_rules(path, func, allow, findings)
            check_raw_delete(path, func, allow, findings)
            check_version_dataflow(path, func, allow, findings)
        check_epoch_guard(path, functions, allow, findings)
    todos = [Finding(path, ln, rule, reason, todo=True)
             for ln, rule, reason in allow.todos]
    return findings, todos


# --- driver --------------------------------------------------------------

def collect_sources(root):
    out = []
    for base, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if name.endswith((".h", ".cc")):
                out.append(os.path.join(base, name))
    return sorted(out)


def run_self_test(fixtures_dir, engine, build_dir):
    """Fixture contract: good_* files are clean; bad_* files carry
    `// EXPECT-FAIL: rule-id` lines and every expected rule must fire."""
    failures = []
    names = sorted(os.listdir(fixtures_dir))
    if not names:
        print("no fixtures in %s" % fixtures_dir, file=sys.stderr)
        return 2
    for name in names:
        if not name.endswith((".h", ".cc")):
            continue
        path = os.path.join(fixtures_dir, name)
        with open(path, "r", encoding="utf-8") as f:
            raw = f.read()
        expected = set(re.findall(r"//\s*EXPECT-FAIL:\s*([\w-]+)", raw))
        if engine == "clang":
            findings, _ = lint_file_clang(path, build_dir)
        else:
            findings, _ = lint_file(path)
        got = set(f.rule for f in findings)
        if name.startswith("good_"):
            if findings:
                failures.append("%s: expected clean, got: %s" % (
                    name, "; ".join(str(f) for f in findings)))
        elif name.startswith("bad_"):
            if not expected:
                failures.append("%s: bad_ fixture lacks EXPECT-FAIL" % name)
            missing = expected - got
            unexpected = got - expected
            if missing:
                failures.append("%s: rules did not fire: %s" % (
                    name, ", ".join(sorted(missing))))
            if unexpected:
                failures.append("%s: unexpected rules fired: %s (%s)" % (
                    name, ", ".join(sorted(unexpected)),
                    "; ".join(str(f) for f in findings
                              if f.rule in unexpected)))
    if failures:
        for f in failures:
            print("SELF-TEST FAIL: %s" % f, file=sys.stderr)
        return 1
    print("self-test OK (%d fixtures)" % len(
        [n for n in names if n.endswith((".h", ".cc"))]))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files to lint (default: <root>/src/**/*.{h,cc})")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--engine", choices=("lexical", "clang"),
                    default="lexical")
    ap.add_argument("--build-dir", default="build",
                    help="directory holding compile_commands.json "
                         "(clang engine)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite and exit")
    ap.add_argument("--fixtures-dir", default=None,
                    help="fixture directory (default: "
                         "<root>/tests/lint_fixtures)")
    args = ap.parse_args(argv)

    if args.engine == "clang":
        try:
            from clang import cindex  # noqa: F401
        except ImportError:
            print("--engine=clang needs python libclang (clang.cindex); "
                  "not available here — use --engine=lexical",
                  file=sys.stderr)
            return 2

    if args.self_test:
        fixtures = args.fixtures_dir or os.path.join(
            args.root, "tests", "lint_fixtures")
        return run_self_test(fixtures, args.engine, args.build_dir)

    paths = args.paths or collect_sources(args.root)
    if not paths:
        print("no sources found under %s" % args.root, file=sys.stderr)
        return 2
    all_findings = []
    all_todos = []
    for path in paths:
        if args.engine == "clang":
            findings, todos = lint_file_clang(path, args.build_dir)
        else:
            findings, todos = lint_file(path)
        all_findings.extend(findings)
        all_todos.extend(todos)
    for f in all_todos:
        print(str(f))
    for f in all_findings:
        print(str(f))
    print("%d file(s), %d finding(s), %d open LINT-TODO(s)" % (
        len(paths), len(all_findings), len(all_todos)))
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
