#!/usr/bin/env python3
"""tca_analyze — the project's static analyzer for the TCA tree.

Where clang-tidy runs off-the-shelf checks, this tool understands the
*contracts* of the codebase: atomics and their memory orders, CAS retry
idioms, condition-variable predicates, hot-path purity, closure capture
lifetimes, and the project rules no generic tool can express (error and
output discipline, 2^n guards, trace spans, deterministic checkpoints).
It is driven by the same build artifacts as run_clang_tidy.py
(compile_commands.json names the translation units) and mirrors its
baseline discipline: findings are fingerprinted, a committed baseline
records the accepted set, and CI fails only on NEW findings.

Frontends
---------
  --frontend libclang   Parse with clang.cindex (python libclang
                        bindings). Declaration tables (which names are
                        std::atomic, tca::CondVar, std::vector<thread>)
                        come from the real AST.
  --frontend builtin    A pure-python structural frontend: comment/
                        string-stripped token stream, brace/paren region
                        tree, declaration-driven symbol tables resolved
                        through the project's transitive include closure.
                        Always available; this is what CI uses on
                        runners without libclang.
  --frontend auto       libclang when importable, builtin otherwise
                        (default).

Without libclang, `--frontend libclang` SKIPs (exit 0) unless --require
is given, in which case it fails (exit 2) — same contract as
run_clang_tidy.py. `--frontend auto --require` never skips: the builtin
frontend can always run.

Checks (see docs/static-analysis.md for the catalogue, and
docs/memory_model.md for the ordering-contract table):

  atomics            atomic-implicit-order     every atomic load/store/
                     RMW must spell its memory_order (no silent
                     seq_cst);
                     atomic-unregistered-order every non-seq_cst site
                     must be registered in docs/memory_model.md;
                     contract-stale-row        every table row must
                     match live sites, both file/symbol and each
                     declared order (cross-verified both ways);
                     contract-malformed        unparseable row.
  cas-idiom          cas-single-order          compare_exchange must
                     declare success AND failure orders;
                     cas-reload-race           a CAS retry loop must
                     reuse the `expected` value the CAS updated, not
                     re-load it (the re-load re-opens the race window).
  condvar-predicate  condvar-no-predicate-loop every tca::CondVar::wait
                     call site must sit in a predicate loop.
  hot-path           hot-path-blocking         no mutex acquisition, IO,
                     or allocation inside loops of TCA_HOT_PATH roots or
                     inside for_each_range lambdas (src/testing/ is
                     exempt from the implicit-root rule: oracles trade
                     throughput for diagnostics by design);
                     hot-path-root-stale       every HOT_PATH_ROOTS entry
                     must cover exactly its count of discovered
                     TCA_HOT_PATH roots, so the audit cannot silently
                     lose coverage.
  capture-lifetime   capture-lifetime          no by-reference captures
                     handed to std::thread / thread vectors unless the
                     spawn site carries TCA_JOINED_BEFORE_SCOPE_EXIT;
                     detached threads are always findings.
  project-rules      raw-throw       no `throw std::` in src/ (errors are
                     tca::Error subclasses carrying an ErrorCode);
                     raw-stdio       no printf/fprintf/puts/fputs in src/
                     outside src/obs/ (diagnostics go through obs::log);
                     checkpoint-det  no wall clock or randomness in
                     src/runtime/ (resume must be bit-identical);
                     explicit-bits   every EXPLICIT_BITS_ENTRIES function
                     calls require_explicit_bits (or delegates);
                     span-required   every SPAN_ENTRIES function opens a
                     TCA_SPAN (or delegates). A registry entry whose file
                     or definition is gone is a finding too. These rules
                     read comment- and string-masked source with
                     preprocessor lines kept, so a macro body counts.

Suppression: `// tca-analyze: allow(<kind>) <reason>` on the finding
line or in the comment run directly above it.

Exit codes: 0 clean/skip, 1 findings changed vs baseline, 2 usage or
--require failure.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join("bench", "baselines",
                                "tca_analyze_baseline.json")
DEFAULT_CONTRACT = os.path.join("docs", "memory_model.md")
FIXTURE_DIR = os.path.join("tests", "analyze_fixtures")

ORDER_NAMES = ("relaxed", "consume", "acquire", "release", "acq_rel",
               "seq_cst")

ATOMIC_OPS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
              "fetch_or", "fetch_and", "fetch_xor", "compare_exchange_weak",
              "compare_exchange_strong", "test_and_set", "clear", "wait",
              "notify_one", "notify_all")
# Ops that take a memory_order argument and that the audit enforces.
ORDERED_OPS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
               "fetch_or", "fetch_and", "fetch_xor", "compare_exchange_weak",
               "compare_exchange_strong")
CAS_OPS = ("compare_exchange_weak", "compare_exchange_strong")

LOCK_TYPES = {"LockGuard", "lock_guard", "unique_lock", "scoped_lock",
              "shared_lock"}
IO_NAMES = {"fopen", "fclose", "fread", "fwrite", "fprintf", "printf",
            "fputs", "puts", "fsync", "fdatasync", "pread", "pwrite",
            "mmap", "munmap", "ifstream", "ofstream", "fstream",
            "getline", "system", "cout", "cerr", "clog"}
ALLOC_CALLS = {"make_unique", "make_shared", "to_string"}
ALLOC_MEMBERS = {"resize", "reserve", "push_back", "emplace_back",
                 "emplace", "insert", "append", "assign"}
CONTAINER_TYPES = {"vector", "string", "deque", "map", "unordered_map",
                   "set", "unordered_set", "basic_string", "stringstream",
                   "ostringstream"}

CHECKS = {
    "atomics": ("atomic-implicit-order", "atomic-unregistered-order",
                "contract-stale-row", "contract-malformed"),
    "cas-idiom": ("cas-single-order", "cas-reload-race"),
    "condvar-predicate": ("condvar-no-predicate-loop",),
    "hot-path": ("hot-path-blocking", "hot-path-root-stale"),
    "capture-lifetime": ("capture-lifetime",),
    "project-rules": ("raw-throw", "raw-stdio", "checkpoint-det",
                      "explicit-bits", "span-required"),
}
ALL_KINDS = tuple(k for kinds in CHECKS.values() for k in kinds)

LOOP_KEYWORDS = {"for", "while", "do"}
TRANSPARENT_KEYWORDS = {"if", "else", "switch", "try", "case", "default"}


def fnv1a64(text: str) -> str:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


# --------------------------------------------------------------------------
# Builtin frontend: lexical model
# --------------------------------------------------------------------------

def mask_source(text: str, keep_directives: bool = False) -> str:
    """Blanks comments, string/char literals and (unless keep_directives)
    preprocessor directives, preserving offsets and newlines so line math
    survives."""
    out = list(text)
    n = len(text)
    i = 0
    state = "code"
    raw_delim = None
    while i < n:
        c = text[i]
        if state == "code":
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = "line_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = "block_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                if i >= 1 and text[i - 1] == "R":
                    m = re.match(r'R"([^(\s"\\]{0,16})\(', text[i - 1:i + 20])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw_string"
                        out[i] = " "
                        i += 1
                        continue
                state = "string"
                out[i] = " "
                i += 1
                continue
            if c == "'":
                prev = text[i - 1] if i > 0 else ""
                if prev.isalnum() or prev == "_":
                    i += 1  # digit separator (1'000) or suffix, not a char
                    continue
                state = "char"
                out[i] = " "
                i += 1
                continue
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            else:
                out[i] = " "
            i += 1
        elif state == "block_comment":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        elif state == "string" or state == "char":
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                out[i] = " "
                if text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote or c == "\n":
                # An unescaped newline ends an unterminated literal (an
                # apostrophe in `#error don't`), so it cannot run away.
                if c != "\n":
                    out[i] = " "
                state = "code"
            else:
                out[i] = " "
            i += 1
        elif state == "raw_string":
            if text.startswith(raw_delim, i):
                for j in range(i, i + len(raw_delim)):
                    out[j] = " "
                i += len(raw_delim)
                state = "code"
                continue
            if c != "\n":
                out[i] = " "
            i += 1
    lex = "".join(out)
    return lex if keep_directives else blank_directives(text, lex)


def blank_directives(text: str, lex: str) -> str:
    """Blanks the preprocessor lines (incl. backslash continuations) of
    `lex`, the literal-masked `text`, so a `#define TCA_HOT_PATH ...`
    never reads as an annotation root."""
    out = list(lex)
    n = len(text)
    line_start = 0
    while line_start < n:
        line_end = text.find("\n", line_start)
        if line_end < 0:
            line_end = n
        if lex[line_start:line_end].lstrip().startswith("#"):
            end = line_end
            while end < n and text[line_start:end].rstrip().endswith("\\"):
                nxt = text.find("\n", end + 1)
                end = n if nxt < 0 else nxt
            for j in range(line_start, min(end, n)):
                if text[j] != "\n":
                    out[j] = " "
            line_start = end + 1
        else:
            line_start = line_end + 1
    return "".join(out)


TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|\d[\w.]*|->|::|\+\+|--|&&|\|\||[{}()\[\];,<>=+\-*/&|!^~.?:#%@]"
)


@dataclass
class Tok:
    text: str
    start: int
    end: int


@dataclass
class FileModel:
    relpath: str
    text: str
    lex: str  # comments and literals masked, preprocessor lines kept
    code: str  # lex with preprocessor lines masked too
    tokens: list
    line_starts: list
    match: dict  # open offset <-> close offset, for {} () []
    brace_pairs: list  # (open, close) token indexes, sorted by open
    tok_at: dict  # start offset -> token index
    includes: list = field(default_factory=list)
    atomic_decls: set = field(default_factory=set)
    condvar_decls: set = field(default_factory=set)
    threadvec_decls: set = field(default_factory=set)
    reflambda_decls: set = field(default_factory=set)

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)

    def line_text(self, line: int) -> str:
        lo = self.line_starts[line - 1]
        hi = (self.line_starts[line] - 1
              if line < len(self.line_starts) else len(self.text))
        return self.text[lo:hi]


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
THREADVEC_RE = re.compile(
    r"\bstd\s*::\s*vector\s*<\s*std\s*::\s*j?thread\s*>\s*([A-Za-z_]\w*)")
REFLAMBDA_RE = re.compile(
    r"\bauto\s+([A-Za-z_]\w*)\s*=\s*\[([^\]]*)\]")


def build_model(relpath: str, text: str) -> FileModel:
    lex = mask_source(text, keep_directives=True)
    code = blank_directives(text, lex)
    tokens = [Tok(m.group(0), m.start(), m.end())
              for m in TOKEN_RE.finditer(code)]
    line_starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            line_starts.append(i + 1)
    match = {}
    brace_pairs = []
    stacks = {"{": [], "(": [], "[": []}
    closer = {"}": "{", ")": "(", "]": "["}
    for idx, tok in enumerate(tokens):
        if tok.text in stacks:
            stacks[tok.text].append(idx)
        elif tok.text in closer:
            stack = stacks[closer[tok.text]]
            if stack:
                open_idx = stack.pop()
                match[open_idx] = idx
                match[idx] = open_idx
                if tok.text == "}":
                    brace_pairs.append((open_idx, idx))
    brace_pairs.sort()
    tok_at = {t.start: i for i, t in enumerate(tokens)}
    model = FileModel(relpath=relpath, text=text, lex=lex, code=code,
                      tokens=tokens,
                      line_starts=line_starts, match=match,
                      brace_pairs=brace_pairs, tok_at=tok_at)
    model.includes = INCLUDE_RE.findall(text)
    _extract_decls(model)
    return model


def _extract_decls(model: FileModel) -> None:
    toks = model.tokens
    n = len(toks)
    for i, tok in enumerate(toks):
        if tok.text not in ("atomic", "atomic_ref", "CondVar"):
            continue
        prev = toks[i - 1].text if i > 0 else ""
        if prev in (".", "->", "class", "struct", "using", "typename"):
            continue
        j = i + 1
        if tok.text in ("atomic", "atomic_ref"):
            if j >= n or toks[j].text != "<":
                continue
            depth = 0
            while j < n:
                t = toks[j].text
                if t == "<":
                    depth += 1
                elif t == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif t in (";", "{"):
                    break
                j += 1
            if j >= n or toks[j].text != ">":
                continue
            j += 1
        # Skip pointer/ref/extra closing-angle tokens between type and name.
        while j < n and toks[j].text in (">", "*", "&", "&&", "const"):
            j += 1
        if j >= n or not re.match(r"[A-Za-z_]\w*$", toks[j].text):
            continue
        name = toks[j].text
        nxt = toks[j + 1].text if j + 1 < n else ""
        if nxt not in (";", "=", "{", "(", "[", ",", ")"):
            continue
        if tok.text == "CondVar":
            model.condvar_decls.add(name)
        else:
            model.atomic_decls.add(name)
    for m in THREADVEC_RE.finditer(model.code):
        model.threadvec_decls.add(m.group(1))
    for m in REFLAMBDA_RE.finditer(model.code):
        captures = m.group(2)
        if "&" in captures:
            model.reflambda_decls.add(m.group(1))


# --------------------------------------------------------------------------
# Analysis universe + include closure
# --------------------------------------------------------------------------

class Universe:
    """All models under analysis, keyed by repo-relative path, with
    per-file symbol tables widened through the transitive include
    closure (a TU sees the atomics its project headers declare)."""

    def __init__(self, root: str):
        self.root = root
        self.models = {}
        self._closure_cache = {}

    def add_file(self, relpath: str) -> FileModel:
        relpath = relpath.replace(os.sep, "/")
        if relpath in self.models:
            return self.models[relpath]
        with open(os.path.join(self.root, relpath), "r",
                  encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        model = build_model(relpath, text)
        self.models[relpath] = model
        return model

    def _resolve_include(self, inc: str):
        cand = "src/" + inc
        if cand in self.models:
            return cand
        if os.path.isfile(os.path.join(self.root, cand)):
            return cand
        return None

    def closure(self, relpath: str) -> set:
        if relpath in self._closure_cache:
            return self._closure_cache[relpath]
        seen = set()
        stack = [relpath]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            model = self.models.get(cur)
            if model is None:
                if os.path.isfile(os.path.join(self.root, cur)):
                    model = self.add_file(cur)
                else:
                    continue
            for inc in model.includes:
                resolved = self._resolve_include(inc)
                if resolved is not None:
                    stack.append(resolved)
        self._closure_cache[relpath] = seen
        return seen

    def symbols(self, relpath: str, table: str) -> set:
        out = set()
        for dep in self.closure(relpath):
            model = self.models.get(dep)
            if model is not None:
                out |= getattr(model, table)
        return out


# --------------------------------------------------------------------------
# Findings, suppression, fingerprints
# --------------------------------------------------------------------------

@dataclass
class Finding:
    kind: str
    file: str
    line: int
    symbol: str
    message: str
    fingerprint: str = ""

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.kind}] {self.message}"


SUPPRESS_RE = re.compile(r"tca-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def _suppressed(model: FileModel, line: int, kind: str) -> bool:
    def line_allows(text: str) -> bool:
        m = SUPPRESS_RE.search(text)
        if not m:
            return False
        kinds = {k.strip() for k in m.group(1).split(",")}
        return kind in kinds

    if line_allows(model.line_text(line)):
        return True
    probe = line - 1
    while probe >= 1:
        text = model.line_text(probe).strip()
        if not text.startswith("//"):
            break
        if line_allows(text):
            return True
        probe -= 1
    return False


def fingerprint_findings(findings: list) -> None:
    seq = {}
    for f in findings:
        key = (f.kind, f.file, f.symbol)
        seq[key] = seq.get(key, 0) + 1
        f.fingerprint = fnv1a64(f"{f.kind}|{f.file}|{f.symbol}|{seq[key]}")


# --------------------------------------------------------------------------
# Structural helpers shared by checks
# --------------------------------------------------------------------------

def enclosing_braces(model: FileModel, tok_idx: int) -> list:
    """Brace pairs (open_idx, close_idx) containing token tok_idx,
    innermost first."""
    out = []
    for open_idx, close_idx in model.brace_pairs:
        if open_idx < tok_idx < close_idx:
            out.append((open_idx, close_idx))
        elif open_idx > tok_idx:
            break
    out.sort(key=lambda pair: pair[0], reverse=True)
    return out


def introducer_tokens(model: FileModel, open_idx: int) -> list:
    """Tokens between the previous statement boundary and an opening
    brace, with matched paren/bracket groups collapsed to their open
    token (so `for (a; b; c) {` reads [for, (])."""
    toks = model.tokens
    out = []
    i = open_idx - 1
    while i >= 0:
        t = toks[i].text
        if t in (")", "]"):
            open_match = model.match.get(i)
            if open_match is None:
                break
            out.append(toks[open_match].text)
            i = open_match - 1
            continue
        if t in (";", "{", "}"):
            break
        out.append(t)
        i -= 1
    out.reverse()
    return out


def classify_block(intro: list) -> str:
    if not intro:
        return "plain"
    head = intro[0]
    if head in LOOP_KEYWORDS:
        return "loop"
    if head == "catch":
        return "catch"
    if head in TRANSPARENT_KEYWORDS:
        return "transparent"
    if head in ("namespace", "class", "struct", "enum", "union", "extern"):
        return "opaque"
    return "opaque"  # function/lambda definitions, initializers, ...


def statement_leading_tokens(model: FileModel, tok_idx: int) -> list:
    """Tokens from the start of the statement containing tok_idx up to
    it, with paren groups collapsed — e.g. `while (p) cv.wait(l);` seen
    from `cv` gives [while, (]."""
    toks = model.tokens
    out = []
    i = tok_idx - 1
    while i >= 0:
        t = toks[i].text
        if t == ")":
            open_match = model.match.get(i)
            if open_match is None:
                break
            out.append(toks[open_match].text)
            i = open_match - 1
            continue
        if t in (";", "{", "}"):
            break
        out.append(t)
        i -= 1
    out.reverse()
    return out


def receiver_symbol(model: FileModel, dot_idx: int):
    """Resolves the receiver expression ending at the `.`/`->` token to
    its terminal identifier (`cursors[g]` -> cursors, `s.value` ->
    value). Returns None when the receiver is a call result."""
    toks = model.tokens
    i = dot_idx - 1
    while i >= 0 and toks[i].text == "]":
        open_match = model.match.get(i)
        if open_match is None:
            return None
        i = open_match - 1
    if i < 0:
        return None
    t = toks[i]
    if t.text == ")":
        # `(*word).op` style: a parenthesized deref is still a named
        # object if the parens hold only */& and one identifier.
        open_match = model.match.get(i)
        if open_match is None:
            return None
        inner = [x.text for x in toks[open_match + 1:i]]
        names = [x for x in inner if re.match(r"[A-Za-z_]\w*$", x)]
        if len(names) == 1 and all(x in ("*", "&") or x == names[0]
                                   for x in inner):
            return names[0]
        return None
    if re.match(r"[A-Za-z_]\w*$", t.text):
        return t.text
    return None


def call_args_span(model: FileModel, open_paren_idx: int):
    close = model.match.get(open_paren_idx)
    if close is None:
        return None
    return (open_paren_idx, close)


def split_call_args(model: FileModel, open_paren_idx: int) -> list:
    """Argument token-index ranges of a call, split on top-level commas."""
    close = model.match.get(open_paren_idx)
    if close is None:
        return []
    args = []
    depth = 0
    start = open_paren_idx + 1
    for i in range(open_paren_idx + 1, close):
        t = model.tokens[i].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == "," and depth == 0:
            args.append((start, i))
            start = i + 1
    if start < close:
        args.append((start, close))
    elif start == close and args:
        pass
    elif start == close and not args and close > open_paren_idx + 1:
        args.append((start, close))
    return args


def args_text(model: FileModel, open_paren_idx: int) -> str:
    span = call_args_span(model, open_paren_idx)
    if span is None:
        return ""
    return model.code[model.tokens[span[0]].end:model.tokens[span[1]].start]


ORDER_TOKEN_RE = re.compile(
    r"\bmemory_order(?:_(" + "|".join(ORDER_NAMES) + r")\b|\s*::\s*(" +
    "|".join(ORDER_NAMES) + r")\b)")


def orders_in(text: str) -> list:
    return [m.group(1) or m.group(2) for m in ORDER_TOKEN_RE.finditer(text)]


# --------------------------------------------------------------------------
# Atomic site extraction (shared by atomics + cas-idiom checks)
# --------------------------------------------------------------------------

@dataclass
class AtomicSite:
    file: str
    line: int
    symbol: str
    op: str
    orders: list
    op_tok: int
    paren_tok: int


def atomic_sites(model: FileModel, atomic_names: set) -> list:
    sites = []
    toks = model.tokens
    for i, tok in enumerate(toks):
        if tok.text not in ORDERED_OPS:
            continue
        if i == 0 or toks[i - 1].text not in (".", "->"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        symbol = receiver_symbol(model, i - 1)
        if symbol is None or symbol not in atomic_names:
            continue
        orders = orders_in(args_text(model, i + 1))
        sites.append(AtomicSite(file=model.relpath,
                                line=model.line_of(tok.start),
                                symbol=symbol, op=tok.text, orders=orders,
                                op_tok=i, paren_tok=i + 1))
    return sites


OPERATOR_FORM_RE = re.compile(
    r"(?:(\+\+|--)\s*([A-Za-z_]\w*))|"
    r"(?:([A-Za-z_]\w*)\s*(\+\+|--|[+\-|&^]=|(?<![=!<>+\-|&^*/%])=(?![=])))")


def operator_form_sites(model: FileModel) -> list:
    """Implicitly-seq_cst operator uses (++x, x += n, x = v) of atomics
    declared in the SAME file (same-file scope keeps this precise: a
    closure-wide name match would false-positive on common member names
    like `value`)."""
    out = []
    if not model.atomic_decls:
        return out
    for lineno, _ in enumerate(model.line_starts, start=1):
        lo = model.line_starts[lineno - 1]
        hi = (model.line_starts[lineno]
              if lineno < len(model.line_starts) else len(model.code))
        text = model.code[lo:hi]
        if "atomic" in text:
            continue  # the declaration/initializer line itself
        for m in OPERATOR_FORM_RE.finditer(text):
            name = m.group(2) or m.group(3)
            if name in model.atomic_decls:
                out.append((lineno, name, (m.group(1) or m.group(4))))
    return out


# --------------------------------------------------------------------------
# Ordering-contract table
# --------------------------------------------------------------------------

@dataclass
class ContractRow:
    file: str
    symbol: str
    orders: set
    rationale: str
    line: int


def parse_contract_table(path: str):
    """Parses the markdown ordering-contract table. Returns (rows,
    malformed) where malformed is a list of (line, message)."""
    rows = []
    malformed = []
    if not os.path.isfile(path):
        return rows, malformed
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line.startswith("|"):
            continue
        cells = [c.strip().strip("`").strip()
                 for c in line.strip("|").split("|")]
        if len(cells) < 4:
            continue
        if cells[0].lower() == "file" or set(cells[0]) <= {"-", ":", " "}:
            continue
        file_cell, symbol, orders_cell, rationale = (cells[0], cells[1],
                                                     cells[2],
                                                     " ".join(cells[3:]))
        orders = {o.strip().strip("`")
                  for o in re.split(r"[,\s]+", orders_cell) if o.strip()}
        bad = orders - set(ORDER_NAMES)
        if bad:
            malformed.append((lineno,
                              f"unknown memory order(s) {sorted(bad)} in "
                              f"contract row for {file_cell}:{symbol}"))
            continue
        if not orders or not file_cell or not symbol or not rationale:
            malformed.append((lineno,
                              "contract row needs file, symbol, orders and "
                              "a happens-before rationale"))
            continue
        rows.append(ContractRow(file=file_cell, symbol=symbol,
                                orders=orders, rationale=rationale,
                                line=lineno))
    return rows, malformed


# --------------------------------------------------------------------------
# Project registries (project-rules and hot-path-root-stale)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EntryPoint:
    file: str  # repo-relative
    name: str  # regex matched immediately before '('
    short: str  # plain function name, for delegation detection


# Every explicit-enumeration entry point: allocates or iterates 2^n and
# must refuse un-askable n with a budget-aware error instead of OOM.
EXPLICIT_BITS_ENTRIES = (
    EntryPoint("src/phasespace/functional_graph.cpp",
               r"FunctionalGraph::FunctionalGraph", "FunctionalGraph"),
    EntryPoint("src/phasespace/functional_graph.cpp",
               r"FunctionalGraph::from_table", "from_table"),
    EntryPoint("src/phasespace/functional_graph.cpp",
               r"FunctionalGraph::synchronous\b", "synchronous"),
    EntryPoint("src/phasespace/functional_graph.cpp",
               r"FunctionalGraph::sweep\b", "sweep"),
    EntryPoint("src/phasespace/preimage.cpp",
               r"count_gardens_of_eden_ring", "count_gardens_of_eden_ring"),
    EntryPoint("src/phasespace/sharded_build.cpp",
               r"GoeCensus\s+count_gardens_of_eden\b",
               "count_gardens_of_eden"),
    EntryPoint("src/phasespace/sharded_build.cpp",
               r"ShardedBuild\s+build_sharded", "build_sharded"),
    EntryPoint("src/phasespace/choice_digraph.cpp",
               r"ChoiceDigraph::ChoiceDigraph", "ChoiceDigraph"),
    EntryPoint("src/rules/analyze.cpp",
               r"truth_table", "truth_table"),
    EntryPoint("src/rules/enumerate.cpp",
               r"all_symmetric", "all_symmetric"),
)

# Every public engine entry: exponential wall-clock must show up as a
# named span in chrome://tracing (docs/observability.md).
SPAN_ENTRIES = (
    EntryPoint("src/phasespace/functional_graph.cpp",
               r"FunctionalGraph::FunctionalGraph", "FunctionalGraph"),
    EntryPoint("src/phasespace/functional_graph.cpp",
               r"FunctionalGraph::synchronous\b", "synchronous"),
    EntryPoint("src/phasespace/functional_graph.cpp",
               r"FunctionalGraph::sweep\b", "sweep"),
    EntryPoint("src/phasespace/preimage.cpp",
               r"count_gardens_of_eden_ring", "count_gardens_of_eden_ring"),
    EntryPoint("src/phasespace/sharded_build.cpp",
               r"GoeCensus\s+count_gardens_of_eden\b",
               "count_gardens_of_eden"),
    EntryPoint("src/phasespace/sharded_build.cpp",
               r"ShardedBuild\s+build_sharded", "build_sharded"),
    EntryPoint("src/aca/explorer.cpp", r"ReachSet\s+explore", "explore"),
    EntryPoint("src/interleave/explorer.cpp",
               r"interleaving_outcomes", "interleaving_outcomes"),
    EntryPoint("src/runtime/checkpoint.cpp",
               r"void\s+save_checkpoint", "save_checkpoint"),
    EntryPoint("src/runtime/checkpoint.cpp",
               r"Checkpoint\s+load_checkpoint", "load_checkpoint"),
)

CHECKPOINT_DET_SCOPE = "src/runtime/"

# Registry of TCA_HOT_PATH-annotated roots (src/core/contracts.hpp).
# The hot-path check audits the loops under these for blocking
# constructs; this registry pins each annotation in place so removing
# one is a visible config change, not silent coverage loss. Format:
# (repo-relative file, regex over the masked code, how many discovered
# roots' TCA_HOT_PATH tokens it covers) — the count pins each of
# classify's four phase lambdas, not just one of them.
HOT_PATH_ROOTS = (
    ("src/core/thread_pool.cpp",
     r"TCA_HOT_PATH\s+void\s+ThreadPool::drain\b", 1),
    ("src/core/batch_kernels.cpp",
     r"TCA_HOT_PATH\s+void\s+BatchStepper::step\b", 1),
    ("src/core/batch_kernels.cpp",
     r"TCA_HOT_PATH\s+void\s+BatchStepper::sweep\b", 1),
    ("src/core/batch_kernels_impl.hpp",
     r"TCA_HOT_PATH\s+void\s+step\b", 1),
    ("src/core/batch_kernels_impl.hpp",
     r"TCA_HOT_PATH\s+void\s+sweep\b", 1),
    ("src/core/batch_kernels_impl.hpp",
     r"TCA_HOT_PATH\s+void\s+step_code_range\b", 1),
    ("src/core/batch_kernels_impl.hpp",
     r"TCA_HOT_PATH\s+void\s+sweep_code_range\b", 1),
    ("src/phasespace/sharded_build.cpp",
     r"\(unsigned\s+worker_id\)\s*TCA_HOT_PATH\s*\{", 1),
    ("src/phasespace/classify.cpp",
     r"\(std::size_t\s+b,\s*std::size_t\s+e\)\s*TCA_HOT_PATH\s*\{", 4),
    ("src/phasespace/successor_store.cpp",
     r"TCA_HOT_PATH\s+void\s+FlatStore::put_range\b", 1),
)

# Line rules, matched on comment/literal-masked source with preprocessor
# lines kept: (kind, pattern, path scope, exempt prefixes, message).
GREP_RULES = (
    ("raw-throw", re.compile(r"\bthrow\s+std\s*::"), "src/", (),
     "raw std:: exception — throw a tca::Error subclass "
     "(src/runtime/error.hpp) so the failure carries an ErrorCode"),
    ("raw-stdio",
     re.compile(r"(?<![\w.])(?:std\s*::\s*)?(?:fprintf|printf|puts|fputs)"
                r"\s*\("),
     "src/", ("src/obs/",),
     "raw stdio output — emit a structured event via obs::log_event "
     "(obs/log.hpp) instead"),
    ("checkpoint-det",
     re.compile(r"system_clock|random_device|\bstd::rand\b|\bsrand\b|"
                r"\blocaltime\b|\bgmtime\b|\btime\s*\(\s*(?:NULL|nullptr|0)?"
                r"\s*\)"),
     CHECKPOINT_DET_SCOPE, (),
     "wall-clock / randomness in a checkpointed path — resume must be "
     "deterministic; use steady_clock or plumb entropy in explicitly"),
)

# Required-call rules: (kind, registry, call every entry must make).
REQUIRED_CALLS = (
    ("explicit-bits", EXPLICIT_BITS_ENTRIES, "require_explicit_bits",
     "explicit-enumeration entry point must call "
     "tca::require_explicit_bits before allocating 2^n state"),
    ("span-required", SPAN_ENTRIES, "TCA_SPAN",
     "public engine entry must open a TCA_SPAN "
     "(obs/trace.hpp) so its wall-clock is attributable"),
)


# --------------------------------------------------------------------------
# Check implementations
# --------------------------------------------------------------------------

def check_atomics(universe: Universe, contract, enabled_kinds) -> list:
    findings = []
    contract_rows, malformed = ([], [])
    contract_path_rel = None
    if contract is not None:
        contract_rows, malformed = parse_contract_table(contract[0])
        contract_path_rel = contract[1]
    sites_by_key = {}
    for relpath, model in sorted(universe.models.items()):
        names = universe.symbols(relpath, "atomic_decls")
        for site in atomic_sites(model, names):
            sites_by_key.setdefault((site.file, site.symbol),
                                    []).append(site)
            if not site.orders:
                if _suppressed(model, site.line, "atomic-implicit-order"):
                    continue
                findings.append(Finding(
                    kind="atomic-implicit-order", file=site.file,
                    line=site.line, symbol=site.symbol,
                    message=f"`{site.symbol}.{site.op}` relies on implicit "
                            "seq_cst; spell the memory_order explicitly "
                            "(and register non-seq_cst orders in "
                            "docs/memory_model.md)"))
        for line, name, op in operator_form_sites(model):
            if _suppressed(model, line, "atomic-implicit-order"):
                continue
            findings.append(Finding(
                kind="atomic-implicit-order", file=relpath, line=line,
                symbol=name,
                message=f"operator form `{name} {op}` on an atomic is an "
                        "implicit seq_cst RMW; use an explicit "
                        "fetch_/store with a memory_order"))
    if contract is None:
        return [f for f in findings if f.kind in enabled_kinds]

    for lineno, message in malformed:
        findings.append(Finding(kind="contract-malformed",
                                file=contract_path_rel, line=lineno,
                                symbol="table", message=message))

    rows_by_key = {}
    for row in contract_rows:
        rows_by_key.setdefault((row.file, row.symbol), set()).update(
            row.orders)

    # Direction 1: every non-seq_cst site must be registered.
    for (file, symbol), sites in sorted(sites_by_key.items()):
        used = {o for s in sites for o in s.orders if o != "seq_cst"}
        if not used:
            continue
        registered = rows_by_key.get((file, symbol), set())
        missing = used - registered
        if missing:
            model = universe.models[file]
            site = next(s for s in sites
                        if any(o in missing for o in s.orders))
            if _suppressed(model, site.line, "atomic-unregistered-order"):
                continue
            findings.append(Finding(
                kind="atomic-unregistered-order", file=file,
                line=site.line, symbol=symbol,
                message=f"`{symbol}` uses {sorted(missing)} but "
                        f"docs/memory_model.md has no matching row — add "
                        "the happens-before argument to the contract "
                        "table"))

    # Direction 2: every row must match live sites and live orders.
    for row in contract_rows:
        key = (row.file, row.symbol)
        sites = sites_by_key.get(key)
        if row.file not in universe.models:
            findings.append(Finding(
                kind="contract-stale-row", file=contract_path_rel,
                line=row.line, symbol=row.symbol,
                message=f"contract row names `{row.file}` which is not in "
                        "the analyzed tree"))
            continue
        if not sites:
            findings.append(Finding(
                kind="contract-stale-row", file=contract_path_rel,
                line=row.line, symbol=row.symbol,
                message=f"contract row for `{row.file}:{row.symbol}` "
                        "matches no atomic site — symbol renamed or "
                        "gone"))
            continue
        used = {o for s in sites for o in s.orders if o != "seq_cst"}
        unused = row.orders - used
        if unused:
            findings.append(Finding(
                kind="contract-stale-row", file=contract_path_rel,
                line=row.line, symbol=row.symbol,
                message=f"contract row for `{row.file}:{row.symbol}` "
                        f"declares {sorted(unused)} but no live site uses "
                        "it — prune the row to match the code"))
    return [f for f in findings if f.kind in enabled_kinds]


def innermost_loop(model: FileModel, tok_idx: int):
    """The innermost loop containing tok_idx: returns (body_start_tok,
    body_end_tok) token range of the loop body, or None. Handles the
    token sitting in the loop *condition* (`while (cas(...))`)."""
    # In a condition: walk enclosing paren groups; a group opened right
    # after `while`/`for` is a loop head whose body follows the `)`.
    toks = model.tokens
    paren_opens = []
    depth_stack = []
    for idx in range(tok_idx, -1, -1):
        t = toks[idx].text
        if t in (")", "]", "}"):
            depth_stack.append(t)
        elif t in ("(", "[", "{"):
            if depth_stack:
                depth_stack.pop()
            elif t == "(":
                paren_opens.append(idx)
            elif t == "{":
                break
    for open_idx in paren_opens:
        head = toks[open_idx - 1].text if open_idx > 0 else ""
        if head in ("while", "for"):
            close_idx = model.match.get(open_idx)
            if close_idx is None:
                continue
            return _loop_body_range(model, close_idx)
    for open_idx, close_idx in enclosing_braces(model, tok_idx):
        intro = introducer_tokens(model, open_idx)
        cls = classify_block(intro)
        if cls == "loop":
            return (open_idx + 1, close_idx)
        if cls in ("transparent", "catch", "plain"):
            continue
        break
    return None


def _loop_body_range(model: FileModel, close_paren_idx: int):
    toks = model.tokens
    nxt = close_paren_idx + 1
    if nxt < len(toks) and toks[nxt].text == "{":
        close = model.match.get(nxt)
        if close is None:
            return None
        return (nxt + 1, close)
    # Unbraced body: a single statement up to the next top-level `;`.
    depth = 0
    for i in range(nxt, len(toks)):
        t = toks[i].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ";" and depth == 0:
            return (nxt, i)
    return None


def check_cas_idiom(universe: Universe, enabled_kinds) -> list:
    findings = []
    for relpath, model in sorted(universe.models.items()):
        names = universe.symbols(relpath, "atomic_decls")
        for site in atomic_sites(model, names):
            if site.op not in CAS_OPS:
                continue
            if len(site.orders) == 1:
                if not _suppressed(model, site.line, "cas-single-order"):
                    findings.append(Finding(
                        kind="cas-single-order", file=site.file,
                        line=site.line, symbol=site.symbol,
                        message=f"`{site.symbol}.{site.op}` declares one "
                                "memory_order; spell both success and "
                                "failure orders explicitly"))
            args = split_call_args(model, site.paren_tok)
            if not args:
                continue
            expected_toks = [model.tokens[i].text
                             for i in range(args[0][0], args[0][1])]
            expected = None
            for t in reversed(expected_toks):
                if re.match(r"[A-Za-z_]\w*$", t):
                    expected = t
                    break
            if expected is None:
                continue
            body = innermost_loop(model, site.op_tok)
            if body is None:
                continue
            reload_line = _find_reload(model, body, expected, names)
            if reload_line is not None and not _suppressed(
                    model, reload_line, "cas-reload-race"):
                findings.append(Finding(
                    kind="cas-reload-race", file=site.file,
                    line=reload_line, symbol=site.symbol,
                    message=f"CAS retry loop re-loads `{expected}` instead "
                            "of reusing the value the failed "
                            f"{site.op} wrote back — the re-load re-opens "
                            "the race window"))
    return [f for f in findings if f.kind in enabled_kinds]


def _find_reload(model: FileModel, body, expected: str, atomic_names: set):
    toks = model.tokens
    start, end = body
    i = start
    while i < end:
        if (toks[i].text == expected and i + 1 < end
                and toks[i + 1].text == "="
                and (i + 2 >= len(toks) or toks[i + 2].text != "=")
                and (i == 0 or toks[i - 1].text not in
                     ("=", "!", "<", ">", "+", "-", "*", "/", "&", "|",
                      "^", "."))):
            j = i + 2
            while j < len(toks) and toks[j].text != ";":
                t = toks[j].text
                if t == "load" or t in atomic_names:
                    return model.line_of(toks[i].start)
                j += 1
        i += 1
    return None


def check_condvar(universe: Universe, enabled_kinds) -> list:
    findings = []
    for relpath, model in sorted(universe.models.items()):
        names = universe.symbols(relpath, "condvar_decls")
        if not names:
            continue
        toks = model.tokens
        for i, tok in enumerate(toks):
            if tok.text != "wait":
                continue
            if i == 0 or toks[i - 1].text not in (".", "->"):
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            symbol = receiver_symbol(model, i - 1)
            if symbol is None or symbol not in names:
                continue
            line = model.line_of(tok.start)
            if _in_predicate_loop(model, i):
                continue
            if _suppressed(model, line, "condvar-no-predicate-loop"):
                continue
            findings.append(Finding(
                kind="condvar-no-predicate-loop", file=relpath, line=line,
                symbol=symbol,
                message=f"`{symbol}.wait` is not inside a predicate loop — "
                        "spurious wakeups and missed notifies need "
                        "`while (!pred) wait(...)`"))
    return [f for f in findings if f.kind in enabled_kinds]


def _in_predicate_loop(model: FileModel, wait_tok: int) -> bool:
    leading = statement_leading_tokens(model, wait_tok)
    if any(t in LOOP_KEYWORDS for t in leading):
        return True
    for open_idx, close_idx in enclosing_braces(model, wait_tok):
        cls = classify_block(introducer_tokens(model, open_idx))
        if cls == "loop":
            return True
        if cls in ("transparent", "catch", "plain"):
            continue
        return False
    return False


def check_hot_path(universe: Universe, enabled_kinds,
                   registry=HOT_PATH_ROOTS) -> list:
    findings = []
    annotated = {}  # relpath -> offsets of TCA_HOT_PATH roots with a body
    for relpath, model in sorted(universe.models.items()):
        roots = _hot_roots(model)
        annotated[relpath] = [model.tokens[r[4]].start for r in roots
                              if r[2] == "TCA_HOT_PATH"]
        for root_start, root_end, root_desc, whole_body, _ in roots:
            regions = ([(root_start, root_end)] if whole_body
                       else _loop_regions(model, root_start, root_end))
            flagged_lines = set()
            for region in regions:
                for line, what in _blocking_in(model, region):
                    if line in flagged_lines:
                        continue
                    if _suppressed(model, line, "hot-path-blocking"):
                        continue
                    flagged_lines.add(line)
                    findings.append(Finding(
                        kind="hot-path-blocking", file=relpath, line=line,
                        symbol=root_desc,
                        message=f"{what} inside a {root_desc} hot loop — "
                                "hoist it to setup or move it to the "
                                "cold path"))
    for relpath, pattern, want in registry:
        model = _pinned(universe, relpath, "hot-path-root-stale", pattern,
                        findings)
        if model is None:
            continue
        got = sum(m.start() <= at < m.end()
                  for m in re.finditer(pattern, model.code)
                  for at in annotated[relpath])
        if got != want:
            findings.append(Finding(
                kind="hot-path-root-stale", file=relpath, line=0,
                symbol=pattern,
                message=f"registered hot-path root /{pattern}/ covers {got} "
                        f"TCA_HOT_PATH root(s), not {want} — restore the "
                        "annotation or update HOT_PATH_ROOTS"))
    return [f for f in findings if f.kind in enabled_kinds]


def _pinned(universe: Universe, relpath: str, kind: str, symbol: str,
            findings: list):
    """The analyzed model of a file a registry entry pins. A file gone
    from the tree makes the entry stale (a finding); one outside an
    explicit-paths run is skipped."""
    model = universe.models.get(relpath)
    if model is None and not os.path.isfile(
            os.path.join(universe.root, relpath)):
        findings.append(Finding(
            kind=kind, file=relpath, line=0, symbol=symbol,
            message="registry entry names a file that no longer exists — "
                    "update the registry in scripts/tca_analyze.py"))
    return model


def _hot_roots(model: FileModel) -> list:
    """(body_start_tok, body_end_tok, description, whole_body, anchor_tok)
    for each TCA_HOT_PATH annotation and (outside src/testing/) each
    lambda passed to for_each_range."""
    roots = []
    toks = model.tokens
    for i, tok in enumerate(toks):
        if tok.text == "TCA_HOT_PATH":
            depth = 0
            j = i + 1
            while j < len(toks):
                t = toks[j].text
                if t in ("(", "["):
                    depth += 1
                elif t in (")", "]"):
                    depth -= 1
                elif t == "{" and depth == 0:
                    close = model.match.get(j)
                    if close is not None:
                        roots.append((j + 1, close, "TCA_HOT_PATH", False,
                                      i))
                    break
                elif t == ";" and depth == 0:
                    break  # annotation on a declaration
                j += 1
    if not model.relpath.startswith("src/testing/"):
        for i, tok in enumerate(toks):
            if tok.text != "for_each_range":
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            close = model.match.get(i + 1)
            if close is None:
                continue
            j = i + 2
            while j < close:
                if toks[j].text == "[":
                    bracket_close = model.match.get(j)
                    if bracket_close is None:
                        break
                    k = bracket_close + 1
                    depth = 0
                    while k < close:
                        t = toks[k].text
                        if t == "(":
                            depth += 1
                        elif t == ")":
                            depth -= 1
                        elif t == "{" and depth == 0:
                            body_close = model.match.get(k)
                            if body_close is not None:
                                roots.append((k + 1, body_close,
                                              "for_each_range lambda",
                                              True, i))
                            k = close
                            break
                        k += 1
                    break
                j += 1
    return roots


def _loop_regions(model: FileModel, start: int, end: int) -> list:
    regions = []
    toks = model.tokens
    for open_idx, close_idx in model.brace_pairs:
        if open_idx <= start or close_idx >= end:
            continue
        if classify_block(introducer_tokens(model, open_idx)) == "loop":
            regions.append((open_idx + 1, close_idx))
    i = start
    while i < end:
        t = toks[i].text
        if t in ("for", "while"):
            if t == "while" and i > 0 and toks[i - 1].text == "}":
                i += 1
                continue  # do-while tail
            if i + 1 < end and toks[i + 1].text == "(":
                close = model.match.get(i + 1)
                if close is not None and close + 1 < end and \
                        toks[close + 1].text != "{":
                    body = _loop_body_range(model, close)
                    if body is not None and body[1] <= end:
                        regions.append(body)
        i += 1
    return regions


def _blocking_in(model: FileModel, region) -> list:
    """(line, what) blocking constructs in a token region, with catch
    blocks, throw statements and static declarations skipped."""
    toks = model.tokens
    start, end = region
    skip = set()
    for open_idx, close_idx in model.brace_pairs:
        if start <= open_idx and close_idx <= end:
            if classify_block(introducer_tokens(model, open_idx)) == \
                    "catch":
                skip.update(range(open_idx, close_idx + 1))
    i = start
    while i < end:
        t = toks[i].text
        if t in ("throw", "static") and i not in skip:
            stmt_ok = True
            if t == "static" and i > 0 and toks[i - 1].text not in (
                    ";", "{", "}"):
                stmt_ok = False
            if stmt_ok:
                depth = 0
                j = i
                while j < end:
                    tj = toks[j].text
                    if tj in ("(", "[", "{"):
                        depth += 1
                    elif tj in (")", "]", "}"):
                        depth -= 1
                    elif tj == ";" and depth <= 0:
                        break
                    j += 1
                skip.update(range(i, j + 1))
                i = j + 1
                continue
        i += 1
    out = []
    i = start
    while i < end:
        if i in skip:
            i += 1
            continue
        t = toks[i].text
        line = model.line_of(toks[i].start)
        prev = toks[i - 1].text if i > 0 else ""
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        if t in LOCK_TYPES:
            out.append((line, f"lock acquisition (`{t}`)"))
        elif t == "lock" and prev in (".", "->") and nxt == "(":
            out.append((line, "lock acquisition (`.lock()`)"))
        elif t in IO_NAMES and prev not in (".", "->"):
            out.append((line, f"IO (`{t}`)"))
        elif t == "new" and prev != "operator":
            out.append((line, "allocation (`new`)"))
        elif t in ALLOC_CALLS and nxt == "(" and prev not in (".", "->"):
            out.append((line, f"allocation (`{t}`)"))
        elif t in ALLOC_MEMBERS and prev in (".", "->") and nxt == "(":
            out.append((line, f"allocation (`.{t}()`)"))
        elif t in CONTAINER_TYPES and prev == "::" and \
                re.match(r"[A-Za-z_<]", nxt or "x"):
            # `std::vector<...> local(...)` constructed inside the loop.
            j = i + 1
            if nxt == "<":
                depth = 0
                while j < end:
                    if toks[j].text == "<":
                        depth += 1
                    elif toks[j].text == ">":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    elif toks[j].text in (";", "{"):
                        break
                    j += 1
            if j < end and toks[j].text in ("(", "{"):
                # `std::vector<int>(...)` temporary
                out.append((line, f"container construction (`{t}`)"))
            elif j < end and re.match(r"[A-Za-z_]\w*$", toks[j].text) and \
                    j + 1 < end and toks[j + 1].text in ("(", "{", "="):
                out.append((line, f"container construction (`{t}`)"))
        i += 1
    return out


def check_capture_lifetime(universe: Universe, enabled_kinds) -> list:
    findings = []
    for relpath, model in sorted(universe.models.items()):
        toks = model.tokens
        threadvecs = universe.symbols(relpath, "threadvec_decls")
        spawns = []
        for i, tok in enumerate(toks):
            if tok.text in ("thread", "jthread") and i >= 2 and \
                    toks[i - 1].text == "::" and toks[i - 2].text == "std":
                nxt = toks[i + 1].text if i + 1 < len(toks) else ""
                if nxt == "(":
                    spawns.append((i, i + 1))
                elif re.match(r"[A-Za-z_]\w*$", nxt) and i + 2 < len(toks) \
                        and toks[i + 2].text in ("(", "{"):
                    spawns.append((i, i + 2))
            elif tok.text in ("emplace_back", "push_back") and i > 0 and \
                    toks[i - 1].text in (".", "->") and \
                    i + 1 < len(toks) and toks[i + 1].text == "(":
                recv = receiver_symbol(model, i - 1)
                if recv in threadvecs:
                    spawns.append((i, i + 1))
            elif tok.text == "detach" and i > 0 and \
                    toks[i - 1].text in (".", "->") and \
                    i + 1 < len(toks) and toks[i + 1].text == "(":
                line = model.line_of(tok.start)
                if not _suppressed(model, line, "capture-lifetime"):
                    findings.append(Finding(
                        kind="capture-lifetime", file=relpath, line=line,
                        symbol="detach",
                        message="detached thread: its captures' lifetimes "
                                "cannot be verified — keep the handle and "
                                "join"))
        for name_tok, paren_tok in spawns:
            close = model.match.get(paren_tok)
            if close is None:
                continue
            line = model.line_of(toks[name_tok].start)
            risky = None
            j = paren_tok + 1
            while j < close:
                t = toks[j].text
                if t == "[":
                    bracket_close = model.match.get(j)
                    if bracket_close is not None:
                        caps = [toks[k].text
                                for k in range(j + 1, bracket_close)]
                        if "&" in caps:
                            risky = "a by-reference lambda capture"
                        j = bracket_close
                elif t in model.reflambda_decls:
                    risky = f"`{t}` (a by-reference-capturing lambda)"
                j += 1
            if risky is None:
                continue
            if _has_join_marker(model, line):
                continue
            if _suppressed(model, line, "capture-lifetime"):
                continue
            findings.append(Finding(
                kind="capture-lifetime", file=relpath, line=line,
                symbol=toks[name_tok].text,
                message=f"thread spawn hands {risky} to another thread "
                        "without TCA_JOINED_BEFORE_SCOPE_EXIT — annotate "
                        "the join guarantee or capture by value"))
    return [f for f in findings if f.kind in enabled_kinds]


def _has_join_marker(model: FileModel, line: int) -> bool:
    for probe in range(max(1, line - 6), line + 1):
        if "TCA_JOINED_BEFORE_SCOPE_EXIT" in model.line_text(probe):
            return True
    return False


def check_project_rules(universe: Universe, enabled_kinds) -> list:
    findings = []
    for relpath, model in sorted(universe.models.items()):
        for kind, pattern, scope, exempt, message in GREP_RULES:
            if not relpath.startswith(scope) or relpath.startswith(exempt):
                continue
            for m in pattern.finditer(model.lex):
                line = model.line_of(m.start())
                if not _suppressed(model, line, kind):
                    findings.append(Finding(
                        kind=kind, file=relpath, line=line,
                        symbol=" ".join(m.group(0).split()),
                        message=message))
    for kind, entries, required, message in REQUIRED_CALLS:
        for entry in entries:
            model = _pinned(universe, entry.file, kind, entry.short,
                            findings)
            if model is None:
                continue
            bodies = function_bodies(model, entry.name)
            if not bodies:
                findings.append(Finding(
                    kind=kind, file=entry.file, line=0, symbol=entry.short,
                    message=f"entry point /{entry.name}/ has no definition "
                            "— update the registry in "
                            "scripts/tca_analyze.py"))
            toks = model.tokens
            for line, open_idx, close_idx in bodies:
                # The body makes the call itself or delegates to an
                # overload that does.
                if any(toks[k].text in (required, entry.short)
                       and toks[k + 1].text == "("
                       for k in range(open_idx + 1, close_idx)):
                    continue
                if not _suppressed(model, line, kind):
                    findings.append(Finding(
                        kind=kind, file=entry.file, line=line,
                        symbol=entry.short,
                        message=f"'{entry.short}': {message}"))
    return [f for f in findings if f.kind in enabled_kinds]


def function_bodies(model: FileModel, name_pattern: str) -> list:
    """(line, open_tok, close_tok) of each definition whose signature
    matches `name_pattern` right before its '(': a '{' follows the
    argument list before any ';'."""
    toks = model.tokens
    out = []
    for m in re.finditer(name_pattern + r"\s*\(", model.code):
        close = model.match.get(model.tok_at.get(m.end() - 1))
        if close is None:
            continue
        j = close + 1
        while j < len(toks) and toks[j].text not in ("{", ";"):
            j += 1
        if j < len(toks) and toks[j].text == "{" and j in model.match:
            out.append((model.line_of(m.start()), j, model.match[j]))
    return out


# --------------------------------------------------------------------------
# Optional libclang refinement
# --------------------------------------------------------------------------

def libclang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except Exception:
        return False


def refine_with_libclang(universe: Universe, build_dir: str) -> bool:
    """Replaces the regex declaration tables with AST-derived ones for
    every TU the compile DB knows. Best-effort: returns False when the
    bindings or the DB are unusable (the builtin tables stay)."""
    try:
        import clang.cindex as ci
    except Exception:
        return False
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db_path):
        return False
    try:
        db = ci.CompilationDatabase.fromDirectory(build_dir)
        index = ci.Index.create()
    except Exception:
        return False
    refined = set()
    for relpath, model in universe.models.items():
        if not relpath.endswith(".cpp"):
            continue
        full = os.path.join(universe.root, relpath)
        cmds = db.getCompileCommands(full)
        if not cmds:
            continue
        args = [a for a in list(cmds[0].arguments)[1:-1]
                if a not in ("-c", "-o")]
        try:
            tu = index.parse(full, args=args)
        except Exception:
            continue
        atomics, condvars = set(), set()
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind in (ci.CursorKind.VAR_DECL,
                               ci.CursorKind.FIELD_DECL,
                               ci.CursorKind.PARM_DECL):
                spelling = cursor.type.get_canonical().spelling
                if "atomic" in spelling:
                    atomics.add(cursor.spelling)
                elif "CondVar" in spelling:
                    condvars.add(cursor.spelling)
        if atomics or condvars:
            model.atomic_decls |= atomics
            model.condvar_decls |= condvars
            refined.add(relpath)
    return bool(refined)


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------

def load_baseline(path: str):
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema") != 1:
        raise SystemExit(f"error: unsupported baseline schema in {path}")
    return data.get("findings", {})


def write_baseline(path: str, findings: list) -> None:
    payload = {
        "schema": 1,
        "tool": "tca_analyze",
        "findings": {
            f.fingerprint: f"{f.kind} {f.file} {f.symbol}"
            for f in findings
        },
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def diff_baseline(findings: list, baseline: dict):
    current = {f.fingerprint: f for f in findings}
    new = [f for fp, f in current.items() if fp not in baseline]
    gone = {fp: desc for fp, desc in baseline.items() if fp not in current}
    return new, gone


# --------------------------------------------------------------------------
# Tree + fixture analysis drivers
# --------------------------------------------------------------------------

def tree_files(root: str) -> list:
    out = []
    for base, _dirs, names in os.walk(os.path.join(root, "src")):
        for name in sorted(names):
            if name.endswith((".hpp", ".cpp", ".h", ".hpp.in")):
                rel = os.path.relpath(os.path.join(base, name), root)
                out.append(rel.replace(os.sep, "/"))
    return sorted(out)


def analyze(root: str, files: list, contract_path,
            checks=None, build_dir=None, use_libclang=False) -> list:
    universe = Universe(root)
    for rel in files:
        universe.add_file(rel)
    # Pull headers into the universe through the include closure so
    # header-declared atomics resolve AND header sites are audited.
    for rel in list(universe.models):
        universe.closure(rel)
    if use_libclang and build_dir:
        refine_with_libclang(universe, build_dir)
    enabled = set()
    for name, kinds in CHECKS.items():
        if checks is None or name in checks:
            enabled.update(kinds)
    contract = None
    if contract_path is not None:
        rel = os.path.relpath(contract_path, root).replace(os.sep, "/")
        contract = (contract_path, rel)
    findings = []
    findings += check_atomics(universe, contract, enabled)
    findings += check_cas_idiom(universe, enabled)
    findings += check_condvar(universe, enabled)
    findings += check_hot_path(universe, enabled)
    findings += check_capture_lifetime(universe, enabled)
    findings += check_project_rules(universe, enabled)
    findings.sort(key=lambda f: (f.file, f.line, f.kind))
    fingerprint_findings(findings)
    return findings


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------

def _fixture(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


_TRUTH_TABLE = ("std::vector<State> truth_table(const Rule& r, "
                "std::uint32_t arity) {\n")
_GUARDED = "  tca::require_explicit_bits(arity, 20, \"truth_table\");\n"
_SAVE = "void save_checkpoint(const std::string& p, const Checkpoint& c) {\n"
_LOAD = ("Checkpoint load_checkpoint(const std::string& p) {\n"
         "  TCA_SPAN(\"checkpoint_load\");\n  return read(p);\n}\n")

# Project-rule fixtures: (kind, path the rule sees, source, must fire).
# A rule that misses a bad fixture has rotted; one that fires on a good
# fixture generates false positives.
PROJECT_FIXTURES = (
    ("raw-throw", "src/core/x.cpp",
     'void f() { throw std::runtime_error("boom"); }\n', True),
    ("raw-throw", "src/core/x.cpp",
     '#define FAIL(m) \\\n  throw std::logic_error(m)\n', True),
    ("raw-throw", "src/core/x.cpp",
     'void f() { throw tca::RuntimeError("boom", code); }\n', False),
    ("raw-throw", "src/core/x.cpp",
     "// tca-analyze: allow(raw-throw) must look like the real thing\n"
     "void f() { throw std::bad_alloc(); }\n", False),
    ("raw-stdio", "src/core/x.cpp",
     'void f() { std::fprintf(stderr, "x"); }\n', True),
    ("raw-stdio", "src/aca/y.cpp", 'void f() { printf("x"); }\n', True),
    ("raw-stdio", "src/aca/y.cpp",
     'void f() { printf("x"); }  // progress line\n', True),
    ("raw-stdio", "src/obs/sink.cpp",
     'void f() { std::fprintf(stderr, "x"); }\n', False),
    ("raw-stdio", "src/core/x.cpp",
     'void f() { std::snprintf(buf, sizeof buf, "%d", v); }\n', False),
    ("raw-stdio", "src/core/x.cpp",
     "// tca-analyze: allow(raw-stdio) pre-main, sink unavailable\n"
     'void f() { std::fprintf(stderr, "x"); }\n', False),
    ("explicit-bits", "src/rules/analyze.cpp",
     _TRUTH_TABLE + "  return make_table(r, arity);\n}\n", True),
    ("explicit-bits", "src/rules/analyze.cpp",
     _TRUTH_TABLE + _GUARDED + "  return make_table(r, arity);\n}\n", False),
    # Delegating overloads funnel into the checked definition.
    ("explicit-bits", "src/rules/analyze.cpp",
     "std::vector<State> truth_table(const Rule& r) {\n"
     "  return truth_table(r, default_arity(r));\n}\n" + _TRUTH_TABLE +
     _GUARDED + "  return make_table(r, arity);\n}\n", False),
    # A registered entry point with no definition is a stale registry.
    ("explicit-bits", "src/rules/analyze.cpp", "int unrelated;\n", True),
    ("span-required", "src/runtime/checkpoint.cpp",
     _SAVE + "  write(p, c);\n}\n" + _LOAD, True),
    ("span-required", "src/runtime/checkpoint.cpp",
     _SAVE + "  TCA_SPAN(\"checkpoint_save\");\n  write(p, c);\n}\n" + _LOAD,
     False),
    ("checkpoint-det", "src/runtime/x.cpp",
     "auto t = std::chrono::system_clock::now();\n", True),
    ("checkpoint-det", "src/runtime/x.cpp", "std::random_device rd;\n", True),
    ("checkpoint-det", "src/runtime/x.cpp",
     "auto t = std::chrono::steady_clock::now();\n", False),
    # Outside src/runtime/ wall-clock is fine (log timestamps).
    ("checkpoint-det", "src/obs/log.cpp",
     "auto t = std::chrono::system_clock::now();\n", False),
    ("checkpoint-det", "src/runtime/x.cpp",
     "// tca-analyze: allow(checkpoint-det) manifest stamp only\n"
     "auto t = std::chrono::system_clock::now();\n", False),
)


def _virtual_universe(root: str, files: dict) -> Universe:
    """A universe of in-memory sources rooted where no src/ exists, so
    registry entries for files it lacks read as missing."""
    universe = Universe(os.path.join(root, FIXTURE_DIR))
    for relpath, text in files.items():
        universe.models[relpath] = build_model(relpath, text)
    return universe


def self_test(root: str, checks=None) -> int:
    """Prove every check fires on its bad fixtures and stays quiet on the
    good ones; `checks` limits the run to those check groups."""
    import shutil
    import tempfile

    failures = []

    def want(name):
        return checks is None or name in checks

    def expect(label, files, contract, expected_kinds, checks=None,
               tmp_root=None):
        if checks and not any(want(c) for c in checks):
            return []
        found = analyze(tmp_root or root, files, contract, checks=checks)
        kinds = {f.kind for f in found}
        if kinds != set(expected_kinds):
            failures.append(
                f"{label}: expected kinds {sorted(set(expected_kinds))}, "
                f"got {sorted(kinds)}:\n  " +
                "\n  ".join(f.render() for f in found))
        return found

    fixture_contract = os.path.join(root, _fixture("atomics_contract.md"))
    stale_contract = os.path.join(root,
                                  _fixture("atomics_contract_stale.md"))

    # Each check fires on its bad fixture and stays silent on the good.
    found = expect("atomics/bad",
                   [_fixture("atomics_bad.cpp"),
                    _fixture("atomics_good.cpp")],
                   stale_contract,
                   ["atomic-implicit-order", "atomic-unregistered-order",
                    "contract-stale-row"], checks=["atomics"])
    if want("atomics") and not any("not in the analyzed tree" in f.message
                                   for f in found):
        failures.append("atomics/bad: a contract row naming a deleted "
                        "file must be reported stale")
    expect("atomics/good", [_fixture("atomics_good.cpp")],
           fixture_contract, [], checks=["atomics"])
    expect("cas/bad", [_fixture("cas_bad.cpp")], None,
           ["cas-single-order", "cas-reload-race"], checks=["cas-idiom"])
    expect("cas/good", [_fixture("cas_good.cpp")], None, [],
           checks=["cas-idiom"])
    expect("condvar/bad", [_fixture("condvar_bad.cpp")], None,
           ["condvar-no-predicate-loop"], checks=["condvar-predicate"])
    expect("condvar/good", [_fixture("condvar_good.cpp")], None, [],
           checks=["condvar-predicate"])
    expect("hotpath/bad", [_fixture("hotpath_bad.cpp")], None,
           ["hot-path-blocking"], checks=["hot-path"])
    expect("hotpath/good", [_fixture("hotpath_good.cpp")], None, [],
           checks=["hot-path"])
    expect("capture/bad", [_fixture("capture_bad.cpp")], None,
           ["capture-lifetime"], checks=["capture-lifetime"])
    expect("capture/good", [_fixture("capture_good.cpp")], None, [],
           checks=["capture-lifetime"])

    if want("project-rules"):
        for kind, relpath, text, bad in PROJECT_FIXTURES:
            hits = [f for f in check_project_rules(
                        _virtual_universe(root, {relpath: text}), {kind})
                    if f.file == relpath]
            if bad != bool(hits):
                failures.append(
                    f"{kind}: {'missed bad' if bad else 'fired on good'} "
                    f"fixture {relpath}:\n  {text.strip()}")

    if want("hot-path"):
        # The hot-path registry holds while its pattern covers as many
        # discovered roots as it says; one stripped annotation,
        # annotations on declarations only, or a deleted file make the
        # entry stale.
        registry = (("src/core/x.cpp", r"TCA_HOT_PATH\s+void\s+step\w*",
                     2),)
        live = ("TCA_HOT_PATH void step(int* p) { ++*p; }\n"
                "TCA_HOT_PATH void step2(int* p) { --*p; }\n")
        for label, files, stale in (
                ("live", {"src/core/x.cpp": live}, False),
                ("stripped", {"src/core/x.cpp":
                              live.replace("TCA_HOT_PATH ", "", 1)}, True),
                ("declaration",
                 {"src/core/x.cpp": "TCA_HOT_PATH void step(int* p);\n"
                                    "TCA_HOT_PATH void step2(int* p);\n"},
                 True),
                ("missing-file", {}, True)):
            hits = check_hot_path(_virtual_universe(root, files),
                                  {"hot-path-root-stale"}, registry)
            if stale != bool(hits):
                failures.append(f"hot-path registry/{label}: expected "
                                f"{'a' if stale else 'no'} stale finding")

    if want("atomics"):
        # Mutation test 1: dropping the row that registers the good
        # fixture's relaxed site must break the cross-verify.
        with open(fixture_contract, "r", encoding="utf-8") as fh:
            contract_lines = fh.readlines()
        good_rows = [i for i, l in enumerate(contract_lines)
                     if l.lstrip().startswith("|")
                     and "atomics_good.cpp" in l]
        if not good_rows:
            failures.append("mutation: atomics_contract.md has no row for "
                            "atomics_good.cpp to drop")
        else:
            tmp = tempfile.mkdtemp(prefix="tca_analyze_selftest_")
            try:
                fx_dst = os.path.join(tmp, FIXTURE_DIR)
                os.makedirs(fx_dst)
                for name in os.listdir(os.path.join(root, FIXTURE_DIR)):
                    shutil.copy(os.path.join(root, FIXTURE_DIR, name),
                                os.path.join(fx_dst, name))
                mutated = os.path.join(tmp, "contract_dropped.md")
                with open(mutated, "w", encoding="utf-8") as fh:
                    fh.writelines(l for i, l in enumerate(contract_lines)
                                  if i != good_rows[0])
                expect("mutation/dropped-row",
                       [_fixture("atomics_good.cpp")], mutated,
                       ["atomic-unregistered-order"], checks=["atomics"],
                       tmp_root=tmp)
                # Mutation test 2: corrupting the registered order (relaxed ->
                # acquire) must fire BOTH directions: the relaxed site is now
                # unregistered and the acquire row is stale.
                corrupted = os.path.join(tmp, "contract_corrupted.md")
                with open(corrupted, "w", encoding="utf-8") as fh:
                    for i, l in enumerate(contract_lines):
                        fh.write(l.replace("relaxed", "acquire")
                                 if i == good_rows[0] else l)
                expect("mutation/corrupted-order",
                       [_fixture("atomics_good.cpp")], corrupted,
                       ["atomic-unregistered-order", "contract-stale-row"],
                       checks=["atomics"], tmp_root=tmp)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)

        # Mutation test 3: the real tree's table is load-bearing — dropping
        # its first data row must produce a finding against the live tree.
        real_contract = os.path.join(root, DEFAULT_CONTRACT)
        if os.path.isfile(real_contract):
            rows, _ = parse_contract_table(real_contract)
            if rows:
                with open(real_contract, "r", encoding="utf-8") as fh:
                    lines = fh.readlines()
                tmp_table = tempfile.NamedTemporaryFile(
                    "w", suffix=".md", delete=False, encoding="utf-8")
                try:
                    tmp_table.writelines(
                        l for i, l in enumerate(lines, start=1)
                        if i != rows[0].line)
                    tmp_table.close()
                    found = analyze(root, tree_files(root), tmp_table.name,
                                    checks=["atomics"])
                    if not any(f.kind == "atomic-unregistered-order"
                               for f in found):
                        failures.append(
                            "mutation/tree-table: dropping the first contract "
                            "row produced no atomic-unregistered-order "
                            "finding — the cross-verify is not load-bearing")
                finally:
                    os.unlink(tmp_table.name)
            else:
                failures.append("mutation/tree-table: docs/memory_model.md "
                                "has no parseable contract rows")

    # Suppression honored + fingerprints stable across runs.
    first = analyze(root, [_fixture("cas_bad.cpp")], None,
                    checks=["cas-idiom"])
    second = analyze(root, [_fixture("cas_bad.cpp")], None,
                     checks=["cas-idiom"])
    if [f.fingerprint for f in first] != [f.fingerprint for f in second]:
        failures.append("fingerprints are not stable across runs")
    if first and any(not f.fingerprint for f in first):
        failures.append("empty fingerprint on a finding")

    # Baseline diff logic: a fresh finding against an empty baseline is
    # NEW; a baselined one is not.
    if first:
        new, gone = diff_baseline(first, {})
        if len(new) != len(first) or gone:
            failures.append("baseline diff: empty baseline must mark all "
                            "findings NEW")
        accepted = {f.fingerprint: "x" for f in first}
        new, gone = diff_baseline(first, accepted)
        if new or gone:
            failures.append("baseline diff: accepted fingerprints must "
                            "not re-fire")

    if failures:
        print("tca_analyze --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    if checks is None:
        print(f"tca_analyze --self-test OK ({len(CHECKS)} checks, "
              f"{len(ALL_KINDS)} finding kinds, {len(PROJECT_FIXTURES)} "
              "project-rule fixtures, contract mutations verified)")
    else:
        print(f"tca_analyze --self-test OK (checks: "
              f"{', '.join(sorted(set(checks)))})")
    return 0


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tca_analyze.py",
        description="AST-grounded concurrency analyzer "
                    "(see docs/static-analysis.md)")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root (default: the checkout "
                             "containing this script)")
    parser.add_argument("--build-dir", default="build",
                        help="build dir holding compile_commands.json")
    parser.add_argument("--baseline", default=None,
                        help=f"baseline path (default: {DEFAULT_BASELINE})")
    parser.add_argument("--contract", default=None,
                        help=f"ordering-contract table (default: "
                             f"{DEFAULT_CONTRACT})")
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "builtin", "libclang"))
    parser.add_argument("--check", action="append", dest="checks",
                        choices=sorted(CHECKS),
                        help="run only this check (repeatable)")
    parser.add_argument("--require", action="store_true",
                        help="fail instead of SKIP when the requested "
                             "frontend cannot run")
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="explicit files to analyze (default: src/ "
                             "tree)")
    args = parser.parse_args(argv)

    if args.list_checks:
        for name in sorted(CHECKS):
            print(f"{name}: {', '.join(CHECKS[name])}")
        return 0

    root = os.path.abspath(args.root)

    if args.self_test:
        return self_test(root, args.checks)
    if args.update_baseline and args.checks:
        print("error: --update-baseline rewrites the whole baseline; run "
              "it without --check", file=sys.stderr)
        return 2

    use_libclang = False
    if args.frontend == "libclang":
        if not libclang_available():
            if args.require:
                print("error: --frontend libclang --require, but the "
                      "python clang bindings are not importable",
                      file=sys.stderr)
                return 2
            print("tca_analyze: SKIP — python libclang bindings not "
                  "available (builtin frontend via --frontend auto, or "
                  "--require to make this an error)")
            return 0
        use_libclang = True
    elif args.frontend == "auto":
        use_libclang = libclang_available()

    build_dir = args.build_dir
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    db = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db) and not args.paths:
        print(f"note: {os.path.relpath(db, root)} not found — analyzing "
              "the src/ tree directly (configure with cmake to export "
              "the compile DB)")

    if args.paths:
        files = [os.path.relpath(os.path.abspath(p), root)
                 .replace(os.sep, "/") for p in args.paths]
        contract_path = args.contract
    else:
        files = tree_files(root)
        contract_path = args.contract or os.path.join(root,
                                                      DEFAULT_CONTRACT)
        if not os.path.isfile(contract_path):
            print(f"error: ordering-contract table not found at "
                  f"{contract_path}", file=sys.stderr)
            return 2

    findings = analyze(root, files, contract_path, checks=args.checks,
                       build_dir=build_dir, use_libclang=use_libclang)

    frontend_name = "libclang+builtin" if use_libclang else "builtin"
    print(f"tca_analyze: {len(files)} files, frontend={frontend_name}, "
          f"{len(findings)} finding(s)")

    baseline_path = args.baseline or os.path.join(root, DEFAULT_BASELINE)
    if args.update_baseline:
        write_baseline(baseline_path, findings)
        print(f"baseline updated: {os.path.relpath(baseline_path, root)} "
              f"({len(findings)} accepted finding(s))")
        for f in findings:
            print(f"  {f.render()}")
        return 0

    baseline = load_baseline(baseline_path)
    if baseline is None:
        print(f"error: no baseline at {baseline_path} — run with "
              "--update-baseline to create one", file=sys.stderr)
        for f in findings:
            print(f"  {f.render()}", file=sys.stderr)
        return 1

    if args.checks:
        kinds = {k for c in args.checks for k in CHECKS[c]}
        baseline = {fp: desc for fp, desc in baseline.items()
                    if desc.split(" ", 1)[0] in kinds}
    new, gone = diff_baseline(findings, baseline)
    if new:
        print(f"\n{len(new)} NEW finding(s) vs baseline:", file=sys.stderr)
        for f in new:
            print(f"  {f.render()}", file=sys.stderr)
        print("\nFix the findings, suppress with "
              "`// tca-analyze: allow(<kind>) <reason>`, or (for an "
              "accepted burn-down debt) --update-baseline.",
              file=sys.stderr)
        return 1
    if gone:
        print(f"\n{len(gone)} baselined finding(s) no longer fire — "
              "shrink the baseline with --update-baseline:",
              file=sys.stderr)
        for fp, desc in sorted(gone.items()):
            print(f"  {fp} {desc}", file=sys.stderr)
        return 1
    print("clean vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
