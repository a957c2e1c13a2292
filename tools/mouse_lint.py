#!/usr/bin/env python3
"""mouse_lint: repo-specific determinism lint for the MOUSE tree.

Every subsystem since PR 1 stakes its correctness on one invariant:
stats, campaign reports and serve traces are byte-identical across
thread counts.  This checker enforces the source-level discipline that
invariant rests on, at lint time instead of at campaign-diff time.

Rules (see docs/STATIC_ANALYSIS.md for the full rationale):

  unordered-iteration   No iteration over std::unordered_{map,set}
                        in src/exp, src/inject, src/obs, src/serve —
                        hash-order leaks break byte-identity of folded
                        stats, JSON reports and traces.
  host-clock            No std::chrono::system_clock, time(), rand(),
                        srand() or std::random_device anywhere in the
                        tree — simulation results must depend only on
                        SplitMix seeds.  Legitimate host-timing sites
                        live in src/obs, src/serve and the bench
                        harnesses, and carry an allow() suppression;
                        the suppression is refused elsewhere.
  schema-constants      Every JSON "schema"/"*_schema" emitter and
                        version check must reference the constants in
                        src/common/schema_versions.hh, never an inline
                        number.
  obs-hook-args         The gate argument of MOUSE_OBS_HOOK is
                        evaluated even when telemetry is off, so it
                        must be a plain identifier / member chain
                        (at most a trailing .get()) — never a call or
                        allocating expression.
  json-helpers          No "%.17g" literal and no JSON string
                        escaper (jsonEscape, or a function named
                        escape) in src/, tools/ or bench/ outside
                        src/common/json.cc — every document formats
                        numbers and strings through json::num and
                        json::escape.
  builder-feasible      In src/compile, gate feasibility is read only
                        inside KernelBuilder::consultFeasible, which
                        records each query for the measured-kernel
                        memo's key (src/ml/mapping.cc).
  float-accumulate      No float/double accumulation via
                        std::accumulate / std::reduce /
                        std::transform_reduce in src/exp, src/inject,
                        src/obs, src/serve — folds must run in a
                        deterministic fixed order (index-order loops,
                        StatRegistry::mergeFrom), not in whatever
                        order a container yields.

Suppressions: a finding line (or the pure-comment line directly above
it) may carry

    // mouse-lint: allow(<rule-id>) -- <justification>

The justification is mandatory; an allow() without one is itself a
finding.  host-clock suppressions are only honoured under src/obs,
src/serve and bench/.

Output: human-readable findings on stdout, or a machine document with
--json ({"lint_schema":1,...}).  Exit codes: 0 clean, 2 findings,
1 operational error (unreadable input, malformed compile_commands).
"""

import argparse
import json
import os
import re
import sys

LINT_SCHEMA_VERSION = 1

# Directories (relative to the repo root) whose contents feed stat
# folding, JSON emission or report assembly.
ORDER_SENSITIVE_DIRS = ("src/exp", "src/inject", "src/obs", "src/serve")
# Directories whose host-timing spans may legitimately read a host
# clock (behind an allow() suppression): the telemetry/serving
# host-timeline code, and the bench harnesses whose reports carry a
# google-benchmark-style context date.
HOST_TIMING_DIRS = ("src/obs", "src/serve", "bench")
# Scanned by default, next to anything compile_commands.json names.
DEFAULT_SCAN_DIRS = ("src", "tools", "tests", "bench", "examples")
# Never scanned by default discovery: the lint's own known-bad
# fixture corpus (pass it explicitly to lint it).
EXCLUDE_DIRS = ("tests/lint_fixtures",)

CXX_SUFFIXES = (".cc", ".hh", ".cpp", ".hpp", ".h")

SUPPRESS_RE = re.compile(
    r"mouse-lint:\s*allow\(([A-Za-z0-9_-]+)\)\s*(?:--\s*(.*))?$")


class Finding:
    def __init__(self, rule, path, line, message, snippet):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.snippet = snippet.strip()

    def as_dict(self):
        return {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }


class SourceFile:
    """One scanned file: raw text plus a comment/string-blanked view
    with identical line/column layout, and its suppression table."""

    def __init__(self, root, relpath, text):
        self.relpath = relpath
        self.raw = text
        self.raw_lines = text.splitlines()
        # code: comments AND string contents blanked; nocomment:
        # comments blanked, string literals kept (for the schema
        # rule, which inspects emitted JSON keys).
        self.code, self.nocomment = blank_comments_and_strings(text)
        self.code_lines = self.code.splitlines()
        self.nocomment_lines = self.nocomment.splitlines()
        # line -> (rule, justification or None, is_whole_line_comment)
        self.suppressions = {}
        self.used_suppressions = set()
        self._collect_suppressions()

    def _collect_suppressions(self):
        for i, line in enumerate(self.raw_lines, start=1):
            m = SUPPRESS_RE.search(line)
            if not m:
                continue
            whole = self.code_lines[i - 1].strip() == "" if \
                i - 1 < len(self.code_lines) else True
            just = (m.group(2) or "").strip()
            self.suppressions[i] = (m.group(1), just or None, whole)

    def suppression_for(self, line):
        """The allow() covering LINE: on the line itself, or in the
        pure-comment block directly above it (a blank line breaks
        the association)."""
        if line in self.suppressions:
            return line
        prev = line - 1
        while prev >= 1:
            if prev in self.suppressions:
                return prev if self.suppressions[prev][2] else None
            is_comment = (prev - 1 < len(self.code_lines) and
                          self.code_lines[prev - 1].strip() == "" and
                          self.raw_lines[prev - 1].strip() != "")
            if not is_comment:
                return None
            prev -= 1
        return None


def blank_comments_and_strings(text):
    """Two same-layout views of TEXT (every newline and column kept,
    so regex hits keep their true line numbers): one with comments
    and string/char-literal contents replaced by spaces, one with
    only the comments blanked."""
    code = []
    nocomment = []
    i = 0
    n = len(text)
    state = "code"  # code | line | block | str | chr

    def emit(code_c, nocomment_c):
        code.append(code_c)
        nocomment.append(nocomment_c)

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                emit("  ", "  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                emit("  ", "  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            emit(c, c)
        elif state == "line":
            if c == "\n":
                state = "code"
                emit(c, c)
            else:
                emit(" ", " ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                emit("  ", "  ")
                i += 2
                continue
            keep = c if c == "\n" else " "
            emit(keep, keep)
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\" and nxt:
                emit("  ", c + nxt)
                i += 2
                continue
            if c == quote:
                state = "code"
                emit(quote, quote)
            elif c == "\n":  # unterminated; resync
                state = "code"
                emit(c, c)
            else:
                emit(" ", c)
        i += 1
    return "".join(code), "".join(nocomment)


def statement_around(lines, idx, max_lines=8):
    """The logical statement starting at LINES[idx] (0-based): joined
    lines up to the terminating ';' or brace, capped at MAX_LINES."""
    parts = []
    for j in range(idx, min(idx + max_lines, len(lines))):
        parts.append(lines[j])
        if ";" in lines[j] or lines[j].rstrip().endswith("{"):
            break
    return " ".join(parts)


def first_macro_arg(text, open_paren):
    """The first comma-separated argument of the call whose '(' is at
    TEXT[open_paren], honouring nested parens/brackets.  Returns
    (arg, ok)."""
    depth = 0
    i = open_paren
    start = open_paren + 1
    while i < len(text):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                return text[start:i].strip(), True
        elif c == "," and depth == 1:
            return text[start:i].strip(), True
        i += 1
    return "", False


def under(relpath, dirs):
    return any(relpath == d or relpath.startswith(d + "/")
               for d in dirs)


# -- Rule registry ----------------------------------------------------

RULES = {}


def rule(rule_id, description):
    def wrap(fn):
        RULES[rule_id] = {"id": rule_id, "description": description,
                          "check": fn}
        return fn
    return wrap


UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\b")
UNORDERED_VAR_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"[&*\s]*(\w+)\s*(?:[;={,)(]|$)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*?):([^;)]*)\)")


@rule("unordered-iteration",
      "no iteration over std::unordered_map/unordered_set in "
      "order-sensitive subsystems (src/exp, src/inject, src/obs, "
      "src/serve): hash order leaks into folded stats and reports")
def check_unordered_iteration(sf, findings):
    if not under(sf.relpath, ORDER_SENSITIVE_DIRS):
        return
    names = set()
    for m in UNORDERED_VAR_RE.finditer(sf.code):
        names.add(m.group(1))
    for i, line in enumerate(sf.code_lines, start=1):
        for m in RANGE_FOR_RE.finditer(line):
            expr = m.group(2).strip()
            base = re.split(r"[.\->\[(]", expr, 1)[0].strip()
            if UNORDERED_DECL_RE.search(expr) or base in names:
                findings.append(Finding(
                    "unordered-iteration", sf.relpath, i,
                    f"range-for over unordered container '{expr}': "
                    "iterate a sorted/index-ordered copy instead",
                    sf.raw_lines[i - 1]))
        for name in names:
            if re.search(rf"\b{re.escape(name)}\s*\.\s*"
                         r"c?(?:begin|end|rbegin|rend)\s*\(", line):
                findings.append(Finding(
                    "unordered-iteration", sf.relpath, i,
                    f"iterator over unordered container '{name}': "
                    "hash order is not deterministic across "
                    "platforms or library versions",
                    sf.raw_lines[i - 1]))


HOST_CLOCK_PATTERNS = (
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.:>])time\s*\("), "time()"),
    (re.compile(r"\bstd::time\s*\("), "std::time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
)


@rule("host-clock",
      "no wall-clock / ambient-randomness reads outside the "
      "host-timing spans of src/obs and src/serve: simulated results "
      "must depend only on SplitMix seeds")
def check_host_clock(sf, findings):
    for i, line in enumerate(sf.code_lines, start=1):
        for pat, what in HOST_CLOCK_PATTERNS:
            if pat.search(line):
                findings.append(Finding(
                    "host-clock", sf.relpath, i,
                    f"{what} is nondeterministic input; derive "
                    "randomness from SplitMix seeds and timing from "
                    "the simulated clock",
                    sf.raw_lines[i - 1]))


SCHEMA_KEY_RE = re.compile(r'\\"(\w*schema)\\":')
SCHEMA_PLAIN_KEY_RE = re.compile(r'"(\w*schema)"(?!\s*:)')
SCHEMA_CONST_RE = re.compile(r"\bk\w*SchemaVersion\b")


@rule("schema-constants",
      "JSON schema-version emitters and checks must reference the "
      "constants in src/common/schema_versions.hh, not inline "
      "numbers")
def check_schema_constants(sf, findings):
    for i, line in enumerate(sf.nocomment_lines, start=1):
        for m in SCHEMA_KEY_RE.finditer(line):
            rest = line[m.end():]
            stmt = statement_around(sf.nocomment_lines, i - 1)
            if re.match(r"\s*\d", rest):
                findings.append(Finding(
                    "schema-constants", sf.relpath, i,
                    f'"{m.group(1)}" emitted with an inline version '
                    "number; reference "
                    "common/schema_versions.hh instead",
                    line))
            elif not SCHEMA_CONST_RE.search(stmt):
                findings.append(Finding(
                    "schema-constants", sf.relpath, i,
                    f'"{m.group(1)}" emitter does not reference a '
                    "k*SchemaVersion constant from "
                    "common/schema_versions.hh",
                    line))
        # Consumer-side checks: scanning for the key and comparing
        # the scanned value against a bare number.
        for m in SCHEMA_PLAIN_KEY_RE.finditer(line):
            stmt = statement_around(sf.nocomment_lines, i - 1)
            if re.search(r"[!=]=\s*\d", stmt) and \
                    not SCHEMA_CONST_RE.search(stmt):
                findings.append(Finding(
                    "schema-constants", sf.relpath, i,
                    f'"{m.group(1)}" version check compares against '
                    "an inline number; reference "
                    "common/schema_versions.hh instead",
                    line))


GATE_OK_RE = re.compile(
    r"^[A-Za-z_]\w*(?:(?:->|\.)[A-Za-z_]\w*)*(?:\.get\(\))?$")


@rule("obs-hook-args",
      "the gate argument of MOUSE_OBS_HOOK is evaluated even when "
      "telemetry is off, so it must be a plain identifier/member "
      "chain — zero cost when off")
def check_obs_hook_args(sf, findings):
    for m in re.finditer(r"\bMOUSE_OBS_HOOK\s*\(", sf.code):
        line = sf.code.count("\n", 0, m.start()) + 1
        # Skip the macro's own definition (telemetry.hh).
        line_text = sf.code_lines[line - 1].lstrip()
        if line_text.startswith("#") or "#define" in line_text:
            continue
        gate, ok = first_macro_arg(sf.code, m.end() - 1)
        gate = " ".join(gate.split())
        if not ok:
            continue  # unterminated (end of file); compiler's problem
        if not GATE_OK_RE.match(gate.replace(" ", "")):
            findings.append(Finding(
                "obs-hook-args", sf.relpath, line,
                f"MOUSE_OBS_HOOK gate '{gate}' is not a plain "
                "identifier/member chain; it runs even with "
                "telemetry off, so hoist calls or allocations out",
                sf.raw_lines[line - 1]))


FLOAT_ACCUM_RE = re.compile(
    r"\bstd::(accumulate|reduce|transform_reduce)\s*\(")
FLOATISH_RE = re.compile(
    r"\d\.\d|\d\.[fe)]|\bfloat\b|\bdouble\b|\d+\.\s*[,)]|\d+f\b")


@rule("float-accumulate",
      "no float/double accumulation via std::accumulate/std::reduce "
      "in order-sensitive subsystems: FP addition is not "
      "associative, so fold in a deterministic fixed order instead")
def check_float_accumulate(sf, findings):
    if not under(sf.relpath, ORDER_SENSITIVE_DIRS):
        return
    for i, line in enumerate(sf.code_lines, start=1):
        m = FLOAT_ACCUM_RE.search(line)
        if not m:
            continue
        stmt = statement_around(sf.code_lines, i - 1)
        if m.group(1) != "accumulate" or FLOATISH_RE.search(stmt):
            findings.append(Finding(
                "float-accumulate", sf.relpath, i,
                f"std::{m.group(1)} over a container folds in "
                "container order; use an index-ordered loop or the "
                "StatRegistry merge discipline so sums are "
                "bit-identical across thread counts",
                sf.raw_lines[i - 1]))


SOURCE_POWER_RE = re.compile(r"\bsourcePower\b")


@rule("source-power",
      "the scalar HarvestConfig::sourcePower field was replaced by "
      "SourceSpec (docs/HARVESTING.md); outside src/harvest the "
      "identifier must not reappear")
def check_source_power(sf, findings):
    if under(sf.relpath, ("src/harvest",)):
        return
    for i, line in enumerate(sf.code_lines, start=1):
        if SOURCE_POWER_RE.search(line):
            findings.append(Finding(
                "source-power", sf.relpath, i,
                "sourcePower is the retired scalar harvest field; "
                "describe the environment with a SourceSpec "
                "(SourceSpec::constant(w) for the old meaning)",
                sf.raw_lines[i - 1]))


SONIC_MODEL_RE = re.compile(r"\bSonicModel\b")


@rule("sonic-model",
      "SONIC runs through the scheme entry points of "
      "baseline/sonic_scheme.hh (or the \"sonic\" selector); outside "
      "src/baseline the SonicModel class must not be used directly")
def check_sonic_model(sf, findings):
    if under(sf.relpath, ("src/baseline",)):
        return
    for i, line in enumerate(sf.code_lines, start=1):
        if SONIC_MODEL_RE.search(line):
            findings.append(Finding(
                "sonic-model", sf.relpath, i,
                "direct SonicModel use outside src/baseline; call "
                "sonicRunContinuous/sonicRunHarvested "
                "(baseline/sonic_scheme.hh) or select the \"sonic\" "
                "scheme so every system goes through one dispatch",
                sf.raw_lines[i - 1]))


JSON_HOME = "src/common/json.cc"
JSON_NUMBER_FMT_RE = re.compile(r"%\.17g")
JSON_ESCAPER_RE = re.compile(r"\bjsonEscape\b")
ESCAPE_FN_RE = re.compile(r"^\s*(?:[\w:<>&*]+\s+)*(?:\w+::)*escape\s*\(")
ESCAPE_LAMBDA_RE = re.compile(r"\bescape\s*=\s*\[")


@rule("json-helpers",
      "src/common/json.cc holds the one %.17g number formatter and the "
      "one JSON string escaper; src/, tools/ and bench/ call json::num "
      "and json::escape instead of keeping private copies")
def check_json_helpers(sf, findings):
    if sf.relpath == JSON_HOME or \
            not under(sf.relpath, ("src", "tools", "bench")):
        return
    for i, line in enumerate(sf.nocomment_lines, start=1):
        if JSON_NUMBER_FMT_RE.search(line):
            findings.append(Finding(
                "json-helpers", sf.relpath, i,
                "private %.17g number formatting; call json::num() "
                "(common/json.hh)", sf.raw_lines[i - 1]))
    for i, line in enumerate(sf.code_lines, start=1):
        # A function named escape whose statement opens a body (not
        # a declaration or call), or a lambda bound to that name.
        defines = ESCAPE_LAMBDA_RE.search(line) or (
            ESCAPE_FN_RE.search(line) and not statement_around(
                sf.code_lines, i - 1).rstrip().endswith(";"))
        if JSON_ESCAPER_RE.search(line) or defines:
            findings.append(Finding(
                "json-helpers", sf.relpath, i,
                "private JSON string escaper; call json::escape() "
                "(common/json.hh)", sf.raw_lines[i - 1]))


BUILDER_DIRS = ("src/compile",)
FEASIBLE_READ_RE = re.compile(r"(?:\.|->)\s*feasible(?:Gates)?\s*\(")
# A definition of the recording helper starts its line (after an
# optional return type), which a call such as
# `if (consultFeasible(g)) {` does not.
FEASIBLE_HELPER_DEF_RE = re.compile(
    r"^[ \t]*(?:bool\s+)?(?:\w+::)?consultFeasible\s*\([^()]*\)"
    r"\s*(?:const\s*)?\{", re.M)


def brace_body(text, open_brace):
    """(start, end) offsets of the block whose '{' is at
    TEXT[open_brace], or the rest of TEXT if it never closes."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return open_brace, i
    return open_brace, len(text)


@rule("builder-feasible",
      "in src/compile, gate feasibility is read only inside "
      "KernelBuilder::consultFeasible, which records each query: the "
      "measured-kernel memo keys on those records, so an unrecorded "
      "read could serve one library's kernel to another")
def check_builder_feasible(sf, findings):
    if not under(sf.relpath, BUILDER_DIRS):
        return
    helpers = [brace_body(sf.code, m.end() - 1)
               for m in FEASIBLE_HELPER_DEF_RE.finditer(sf.code)]
    for m in FEASIBLE_READ_RE.finditer(sf.code):
        if any(lo < m.start() < hi for lo, hi in helpers):
            continue
        line = sf.code.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            "builder-feasible", sf.relpath, line,
            "gate feasibility read outside consultFeasible(); route "
            "it through the recording helper so the kernel memo's "
            "key sees it", sf.raw_lines[line - 1]))


# -- File discovery ---------------------------------------------------

def load_compile_commands(path, root):
    """(files, include_dirs) named by compile_commands.json, both
    restricted to ROOT.  Include dirs are used to chase project
    headers that live outside the default scan dirs."""
    try:
        with open(path) as f:
            entries = json.load(f)
    except OSError as e:
        raise RuntimeError(
            f"cannot read compile_commands '{path}': {e}")
    except json.JSONDecodeError as e:
        raise RuntimeError(f"'{path}' is not valid JSON: {e}")
    if not isinstance(entries, list):
        raise RuntimeError(f"'{path}' is not a compile database")
    files = set()
    incdirs = set()
    for entry in entries:
        directory = entry.get("directory", root)
        fpath = os.path.normpath(
            os.path.join(directory, entry.get("file", "")))
        if fpath.startswith(root + os.sep):
            files.add(fpath)
        command = entry.get("command") or " ".join(
            entry.get("arguments", []))
        for m in re.finditer(r"-I\s*(\S+)", command):
            inc = os.path.normpath(os.path.join(directory, m.group(1)))
            if inc.startswith(root + os.sep) or inc == root:
                incdirs.add(inc)
    return files, incdirs


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def chase_headers(files, incdirs, root):
    """Project headers reachable from FILES via quoted includes,
    resolved against INCDIRS — pulls in headers that new subsystems
    add outside the default scan set."""
    seen = set(files)
    queue = list(files)
    while queue:
        path = queue.pop()
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        for m in INCLUDE_RE.finditer(text):
            for inc in [os.path.dirname(path), *incdirs]:
                cand = os.path.normpath(os.path.join(inc, m.group(1)))
                if cand.startswith(root + os.sep) and \
                        os.path.isfile(cand) and cand not in seen:
                    seen.add(cand)
                    queue.append(cand)
                    break
    return seen


def discover_files(root, explicit, compile_commands):
    files = set()
    if explicit:
        for p in explicit:
            ap = os.path.abspath(p)
            if os.path.isdir(ap):
                for dirpath, _, names in os.walk(ap):
                    files.update(os.path.join(dirpath, n)
                                 for n in names
                                 if n.endswith(CXX_SUFFIXES))
            elif os.path.isfile(ap):
                files.add(ap)
            else:
                raise RuntimeError(f"no such file or directory: {p}")
        return sorted(files)
    for d in DEFAULT_SCAN_DIRS:
        top = os.path.join(root, d)
        for dirpath, _, names in os.walk(top):
            files.update(os.path.join(dirpath, n) for n in names
                         if n.endswith(CXX_SUFFIXES))
    if compile_commands and os.path.isfile(compile_commands):
        cc_files, incdirs = load_compile_commands(
            compile_commands, root)
        files.update(f for f in chase_headers(cc_files, incdirs, root)
                     if f.endswith(CXX_SUFFIXES))
    return sorted(
        f for f in files
        if not under(os.path.relpath(f, root), EXCLUDE_DIRS))


# -- Driver -----------------------------------------------------------

def apply_suppressions(sf, findings):
    """Split FINDINGS into (kept, suppressed) per sf's allow()
    table, and append findings for malformed or misplaced allows."""
    kept, suppressed = [], []
    for f in findings:
        line = sf.suppression_for(f.line)
        if line is None:
            kept.append(f)
            continue
        rule_id, justification, _ = sf.suppressions[line]
        if rule_id != f.rule:
            kept.append(f)
            continue
        sf.used_suppressions.add(line)
        if justification is None:
            kept.append(f)
            kept.append(Finding(
                "suppression", sf.relpath, line,
                f"allow({rule_id}) has no justification; write "
                "'mouse-lint: allow(rule) -- why it is safe'",
                sf.raw_lines[line - 1]))
        elif f.rule == "host-clock" and \
                not under(sf.relpath, HOST_TIMING_DIRS):
            kept.append(f)
            kept.append(Finding(
                "suppression", sf.relpath, line,
                "allow(host-clock) is only honoured under "
                + " and ".join(HOST_TIMING_DIRS)
                + "; simulated code paths may not read host time",
                sf.raw_lines[line - 1]))
        else:
            suppressed.append(f)
    for line, (rule_id, _, _) in sorted(sf.suppressions.items()):
        if rule_id not in RULES and rule_id != "suppression":
            kept.append(Finding(
                "suppression", sf.relpath, line,
                f"allow({rule_id}) names an unknown rule; known: "
                + ", ".join(sorted(RULES)),
                sf.raw_lines[line - 1]))
        elif line not in sf.used_suppressions:
            kept.append(Finding(
                "suppression", sf.relpath, line,
                f"allow({rule_id}) suppresses nothing on this or the "
                "next line; delete it",
                sf.raw_lines[line - 1]))
    return kept, suppressed


def lint_file(root, path, rule_ids):
    rel = os.path.relpath(path, root)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        raise RuntimeError(f"cannot read '{path}': {e}")
    sf = SourceFile(root, rel, text)
    findings = []
    for rule_id in rule_ids:
        RULES[rule_id]["check"](sf, findings)
    return apply_suppressions(sf, findings)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="mouse_lint.py",
        description="Determinism lint for the MOUSE tree "
                    "(docs/STATIC_ANALYSIS.md).")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: "
                         "src/ and tools/ under --root, plus "
                         "anything compile_commands.json names)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: the parent of "
                         "this script's directory)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json for the file list "
                         "and include dirs (default: "
                         "ROOT/build/compile_commands.json when "
                         "present)")
    ap.add_argument("--rule", action="append", default=[],
                    dest="rules", metavar="ID",
                    help="run only this rule (repeatable)")
    ap.add_argument("--json", action="store_true",
                    help="emit a machine-readable report on stdout")
    ap.add_argument("--out", default=None,
                    help="also write the JSON report to this path")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule registry and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}: {RULES[rule_id]['description']}")
        return 0

    root = os.path.abspath(
        args.root or
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    # The implicit default may be absent (tree not configured yet);
    # an explicitly named compile database must exist.
    compile_commands = args.compile_commands or os.path.join(
        root, "build", "compile_commands.json")
    if args.compile_commands and not os.path.isfile(compile_commands):
        print(f"error: cannot read compile_commands "
              f"'{compile_commands}': no such file", file=sys.stderr)
        return 1

    rule_ids = args.rules or sorted(RULES)
    for rule_id in rule_ids:
        if rule_id not in RULES:
            print(f"error: unknown rule '{rule_id}'; known: "
                  + ", ".join(sorted(RULES)), file=sys.stderr)
            return 1

    try:
        files = discover_files(root, args.paths, compile_commands)
        all_kept, all_suppressed = [], []
        for path in files:
            kept, suppressed = lint_file(root, path, rule_ids)
            all_kept.extend(kept)
            all_suppressed.extend(suppressed)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    all_kept.sort(key=lambda f: (f.path, f.line, f.rule))
    report = {
        "lint_schema": LINT_SCHEMA_VERSION,
        "root": root,
        "rules": [{"id": r, "description": RULES[r]["description"]}
                  for r in rule_ids],
        "files_scanned": len(files),
        "findings": [f.as_dict() for f in all_kept],
        "suppressed": [f.as_dict() for f in all_suppressed],
    }
    body = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(body)
    if args.json:
        sys.stdout.write(body)
    else:
        for f in all_kept:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
            print(f"    {f.snippet}")
        print(f"{len(files)} files scanned, {len(all_kept)} "
              f"finding(s), {len(all_suppressed)} suppressed")
    return 2 if all_kept else 0


if __name__ == "__main__":
    sys.exit(main())
