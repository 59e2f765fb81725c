#!/usr/bin/env python3
"""tca-lint: project-invariant linter for the TCA codebase.

Checks the invariants that Clang's thread-safety analysis and clang-tidy
cannot express because they are *project* conventions, not language rules
(docs/static-analysis.md):

  raw-throw      no `throw std::...` in src/ — errors go through the
                 tca::Error hierarchy (src/runtime/error.hpp) so every
                 failure carries an ErrorCode the sweeps can dispatch on.
  raw-stdio      no printf/fprintf/puts/fputs in src/ outside src/obs/ —
                 diagnostics go through the structured log sink
                 (obs/log.hpp) so they land in JSONL, not interleaved
                 stderr garbage under a thread pool.
  explicit-bits  every explicit-enumeration entry point guards 2^n blowup
                 with tca::require_explicit_bits before allocating.
  span-required  every public engine entry emits a TCA_SPAN so exponential
                 wall-clock is attributable in Chrome traces.
  checkpoint-det no wall-clock / randomness in src/runtime/ (the
                 checkpointed paths): resume must be bit-identical, so
                 only steady_clock (monotonic, never serialized) is
                 allowed there.
  memory-model-stale
                 every data row of docs/memory_model.md (the ordering-
                 contract table that scripts/tca_analyze.py cross-
                 verifies) must point at a file that still exists and a
                 symbol that still occurs in it. The deep semantic check
                 (orders match actual sites) lives in tca_analyze.py;
                 this rule is the cheap config-staleness guard that also
                 runs when the analyzer is skipped.
  hot-path-roots every entry in HOT_PATH_ROOTS — the registry of
                 TCA_HOT_PATH-annotated hot loops that tca_analyze.py's
                 hot-path check audits (src/core/contracts.hpp) — must
                 still match its file. Deleting or moving an annotation
                 without updating the registry is a finding, so the
                 hot-path audit can never silently lose coverage.

Suppression policy (docs/static-analysis.md): a finding is suppressed by
`// tca-lint: allow(<rule>) <reason>` on the same line or the line(s)
immediately above; the reason is mandatory by convention and enforced in
review. Weak memory orders are not a lint rule: tca_analyze.py's
atomic-unregistered-order check requires a docs/memory_model.md row for
every non-seq_cst site.

Exit codes: 0 clean, 1 findings, 2 internal/self-test failure.

`--self-test` runs every rule against embedded good/bad fixtures and
fails if any rule misses its bad fixture (rule rot) or fires on its good
fixture (false positives). tests/CMakeLists.txt registers this as the
`lint_selftest` test; `lint_tree` runs the real tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys
import tempfile
from typing import Callable, Iterable

SRC_EXTENSIONS = {".hpp", ".cpp", ".h", ".cc", ".hpp.in"}

ALLOW_TAG = re.compile(r"tca-lint:\s*allow\(([\w,-]+)\)")


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based; 0 == whole file
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass(frozen=True)
class SourceFile:
    relpath: str  # repo-relative, forward slashes
    text: str

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()


def _suppressed(lines: list[str], line_no: int, rule: str) -> bool:
    """True if `rule` is allowed on 1-based `line_no` (same line or the
    run of comment lines immediately above)."""
    candidates = [line_no]
    probe = line_no - 1
    while probe >= 1 and lines[probe - 1].lstrip().startswith("//"):
        candidates.append(probe)
        probe -= 1
    for cand in candidates:
        for match in ALLOW_TAG.finditer(lines[cand - 1]):
            if rule in match.group(1).split(","):
                return True
    return False


def _grep_rule(
    rule: str,
    pattern: re.Pattern[str],
    message: str,
    *,
    exempt_dirs: tuple[str, ...] = (),
) -> Callable[[SourceFile], list[Finding]]:
    def check(src: SourceFile) -> list[Finding]:
        if any(src.relpath.startswith(d) for d in exempt_dirs):
            return []
        out = []
        lines = src.lines
        for i, line in enumerate(lines, start=1):
            if pattern.search(line) and not _suppressed(lines, i, rule):
                out.append(Finding(src.relpath, i, rule, message))
        return out

    return check


# --- required-call rules (explicit-bits, span-required) -----------------


def _function_bodies(text: str, name_pattern: str) -> list[tuple[int, str]]:
    """Yields (1-based line, body) for each definition of a function whose
    signature matches `name_pattern` immediately before its '('. A match
    is a definition if a '{' appears after the closing paren of the
    argument list before any ';'. Brace-counted, comment-naive — fine for
    this codebase's formatting."""
    bodies = []
    for match in re.finditer(name_pattern + r"\s*\(", text):
        # Walk to the ')' closing the argument list.
        depth, i = 0, match.end() - 1
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        else:
            continue
        # Definition? Find '{' before ';' (allowing initializer lists,
        # noexcept, attributes, TCA_* annotation macros in between).
        j = i + 1
        while j < len(text) and text[j] != "{" and text[j] != ";":
            j += 1
        if j >= len(text) or text[j] == ";":
            continue
        depth, k = 0, j
        while k < len(text):
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        line = text.count("\n", 0, match.start()) + 1
        bodies.append((line, text[j : k + 1]))
    return bodies


@dataclasses.dataclass(frozen=True)
class EntryPoint:
    file: str  # repo-relative
    name: str  # regex matched immediately before '('
    short: str  # plain function name, for delegation detection


def _required_call_rule(
    rule: str,
    entries: tuple[EntryPoint, ...],
    required: str,
    message: str,
) -> Callable[[SourceFile], list[Finding]]:
    def check(src: SourceFile) -> list[Finding]:
        out = []
        lines = src.lines
        for entry in entries:
            if src.relpath != entry.file:
                continue
            bodies = _function_bodies(src.text, entry.name)
            if not bodies:
                out.append(
                    Finding(
                        src.relpath,
                        0,
                        rule,
                        f"entry point '{entry.name}' not found — the "
                        f"tca_lint.py config is stale; update ENTRY_POINTS",
                    )
                )
                continue
            for line, body in bodies:
                delegates = re.search(
                    re.escape(entry.short) + r"\s*\(", body
                )
                if required in body or delegates:
                    continue
                if not _suppressed(lines, line, rule):
                    out.append(
                        Finding(src.relpath, line, rule,
                                f"'{entry.short}': {message}")
                    )
        return out

    return check


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


RULES: dict[str, Callable[[SourceFile], list[Finding]]] = {
    "raw-throw": _grep_rule(
        "raw-throw",
        re.compile(r"\bthrow\s+std\s*::"),
        "raw std:: exception — throw a tca::Error subclass "
        "(src/runtime/error.hpp) so the failure carries an ErrorCode",
    ),
    "raw-stdio": _grep_rule(
        "raw-stdio",
        re.compile(r"(?<![\w.])(?:std\s*::\s*)?(?:fprintf|printf|puts|fputs)"
                   r"\s*\("),
        "raw stdio output — emit a structured event via obs::log_event "
        "(obs/log.hpp) instead",
        exempt_dirs=("src/obs/",),
    ),
    "explicit-bits": _required_call_rule(
        "explicit-bits",
        EXPLICIT_BITS_ENTRIES,
        "require_explicit_bits",
        "explicit-enumeration entry point must call "
        "tca::require_explicit_bits before allocating 2^n state",
    ),
    "span-required": _required_call_rule(
        "span-required",
        SPAN_ENTRIES,
        "TCA_SPAN",
        "public engine entry must open a TCA_SPAN "
        "(obs/trace.hpp) so its wall-clock is attributable",
    ),
    "checkpoint-det": _grep_rule(
        "checkpoint-det",
        re.compile(r"system_clock|random_device|\bstd::rand\b|\bsrand\b|"
                   r"\blocaltime\b|\bgmtime\b|\btime\s*\(\s*(?:NULL|nullptr|0)?"
                   r"\s*\)"),
        "wall-clock / randomness in a checkpointed path — resume must be "
        "deterministic; use steady_clock or plumb entropy in explicitly",
        exempt_dirs=(),
    ),
}

# checkpoint-det applies only to src/runtime/ (the checkpointed machinery).
CHECKPOINT_DET_SCOPE = "src/runtime/"


# --- tree-level rules (memory-model-stale, hot-path-roots) --------------

MEMORY_MODEL_DOC = "docs/memory_model.md"

# Registry of TCA_HOT_PATH-annotated roots (src/core/contracts.hpp).
# scripts/tca_analyze.py audits the loops under these for blocking
# constructs; this registry pins each annotation in place so removing
# one is a visible config change, not silent coverage loss. Format:
# (repo-relative file, regex that must match the file text).
HOT_PATH_ROOTS: tuple[tuple[str, str], ...] = (
    ("src/core/thread_pool.cpp",
     r"TCA_HOT_PATH\s+void\s+ThreadPool::drain\b"),
    ("src/core/batch_kernels.cpp",
     r"TCA_HOT_PATH\s+void\s+BatchStepper::step\b"),
    ("src/core/batch_kernels.cpp",
     r"TCA_HOT_PATH\s+void\s+BatchStepper::sweep\b"),
    ("src/core/batch_kernels_impl.hpp",
     r"TCA_HOT_PATH\s+void\s+step\b"),
    ("src/core/batch_kernels_impl.hpp",
     r"TCA_HOT_PATH\s+void\s+sweep\b"),
    ("src/core/batch_kernels_impl.hpp",
     r"TCA_HOT_PATH\s+void\s+step_code_range\b"),
    ("src/core/batch_kernels_impl.hpp",
     r"TCA_HOT_PATH\s+void\s+sweep_code_range\b"),
    ("src/phasespace/sharded_build.cpp",
     r"\(unsigned\s+worker_id\)\s*TCA_HOT_PATH\s*\{"),
    ("src/phasespace/classify.cpp",
     r"\(std::size_t\s+b,\s*std::size_t\s+e\)\s*TCA_HOT_PATH\s*\{"),
    ("src/phasespace/successor_store.cpp",
     r"TCA_HOT_PATH\s+inline\s+void\s+merge_word\b"),
    ("src/phasespace/successor_store.cpp",
     r"TCA_HOT_PATH\s+void\s+FlatStore::put_range\b"),
    ("src/phasespace/successor_store.cpp",
     r"TCA_HOT_PATH\s+void\s+PackedStore::put_range\b"),
)

_CONTRACT_ORDERS = {"relaxed", "consume", "acquire", "release",
                    "acq_rel", "seq_cst"}


def _contract_rows(doc_text: str) -> list[tuple[int, str, str]]:
    """(1-based line, file, symbol) for each data row of the ordering-
    contract table. Header/separator rows and rows whose orders cell
    contains no known order token are skipped — tca_analyze.py owns the
    malformed-row diagnostics; here we only need the pointers."""
    rows = []
    for i, line in enumerate(doc_text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        cells = [c.strip().strip("`").strip()
                 for c in stripped.strip("|").split("|")]
        if len(cells) < 4:
            continue
        file_cell, symbol_cell, orders_cell = cells[0], cells[1], cells[2]
        order_tokens = set(re.findall(r"[a-z_]+", orders_cell))
        if not (order_tokens & _CONTRACT_ORDERS):
            continue  # header / separator / prose row
        if not file_cell or not symbol_cell:
            continue
        rows.append((i, file_cell, symbol_cell))
    return rows


def check_memory_model(
    doc_text: str | None, sources: dict[str, str]
) -> list[Finding]:
    """memory-model-stale: every contract row must point at an existing
    file and a symbol that still occurs in it. `sources` maps repo-
    relative paths to file text; `doc_text` is None when the doc itself
    is missing."""
    rule = "memory-model-stale"
    if doc_text is None:
        return [Finding(MEMORY_MODEL_DOC, 0, rule,
                        "docs/memory_model.md is missing but the codebase "
                        "uses atomics — the ordering-contract table is "
                        "load-bearing (scripts/tca_analyze.py)")]
    out = []
    for line, file_cell, symbol_cell in _contract_rows(doc_text):
        text = sources.get(file_cell)
        if text is None:
            out.append(Finding(
                MEMORY_MODEL_DOC, line, rule,
                f"contract row points at '{file_cell}' which does not "
                f"exist — delete or retarget the row"))
            continue
        if not re.search(r"\b" + re.escape(symbol_cell) + r"\b", text):
            out.append(Finding(
                MEMORY_MODEL_DOC, line, rule,
                f"contract row registers symbol '{symbol_cell}' which no "
                f"longer occurs in '{file_cell}' — stale row"))
    return out


def check_hot_path_roots(
    roots: tuple[tuple[str, str], ...], sources: dict[str, str]
) -> list[Finding]:
    """hot-path-roots: every registered TCA_HOT_PATH annotation must
    still match its file (stale registry == silent audit-coverage loss,
    same policy as the ENTRY_POINTS staleness findings)."""
    rule = "hot-path-roots"
    out = []
    for relpath, pattern in roots:
        text = sources.get(relpath)
        if text is None:
            out.append(Finding(
                relpath, 0, rule,
                f"HOT_PATH_ROOTS entry points at missing file — the "
                f"tca_lint.py registry is stale"))
            continue
        if not re.search(pattern, text):
            out.append(Finding(
                relpath, 0, rule,
                f"registered hot-path root /{pattern}/ no longer matches "
                f"— restore the TCA_HOT_PATH annotation or update "
                f"HOT_PATH_ROOTS (and docs/memory_model.md if orderings "
                f"moved)"))
    return out


def lint_file(src: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    for rule, check in RULES.items():
        if rule == "checkpoint-det" and not src.relpath.startswith(
            CHECKPOINT_DET_SCOPE
        ):
            continue
        findings.extend(check(src))
    return findings


def iter_sources(root: pathlib.Path) -> Iterable[SourceFile]:
    src_root = root / "src"
    for path in sorted(src_root.rglob("*")):
        if not path.is_file():
            continue
        name = path.name
        if not any(name.endswith(ext) for ext in SRC_EXTENSIONS):
            continue
        rel = path.relative_to(root).as_posix()
        yield SourceFile(rel, path.read_text(encoding="utf-8",
                                            errors="replace"))


def lint_tree(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    sources: dict[str, str] = {}
    for src in iter_sources(root):
        sources[src.relpath] = src.text
        findings.extend(lint_file(src))
    doc = root / MEMORY_MODEL_DOC
    doc_text = (doc.read_text(encoding="utf-8", errors="replace")
                if doc.is_file() else None)
    findings.extend(check_memory_model(doc_text, sources))
    findings.extend(check_hot_path_roots(HOT_PATH_ROOTS, sources))
    return findings


# --- self-test ----------------------------------------------------------

# Each rule: fixtures that MUST fire and fixtures that MUST stay quiet.
# A rule whose bad fixture stops firing has rotted; a rule that fires on
# its good fixture is a false-positive generator. Both fail the build.
_SELFTEST = {
    "raw-throw": {
        "bad": [("src/core/x.cpp",
                 'void f() { throw std::runtime_error("boom"); }\n')],
        "good": [
            ("src/core/x.cpp",
             'void f() { throw tca::RuntimeError("boom", code); }\n'),
            ("src/core/x.cpp",
             "// tca-lint: allow(raw-throw) must look like the real thing\n"
             "void f() { throw std::bad_alloc(); }\n"),
        ],
    },
    "raw-stdio": {
        "bad": [
            ("src/core/x.cpp", 'void f() { std::fprintf(stderr, "x"); }\n'),
            ("src/aca/y.cpp", 'void f() { printf("x"); }\n'),
        ],
        "good": [
            ("src/obs/sink.cpp", 'void f() { std::fprintf(stderr, "x"); }\n'),
            ("src/core/x.cpp",
             'void f() { std::snprintf(buf, sizeof buf, "%d", v); }\n'),
            ("src/core/x.cpp",
             '// tca-lint: allow(raw-stdio) pre-main, sink unavailable\n'
             'void f() { std::fprintf(stderr, "x"); }\n'),
        ],
    },
    "explicit-bits": {
        "bad": [("src/rules/analyze.cpp",
                 "std::vector<State> truth_table(const Rule& r, "
                 "std::uint32_t arity) {\n"
                 "  return make_table(r, arity);\n"
                 "}\n")],
        "good": [
            ("src/rules/analyze.cpp",
             "std::vector<State> truth_table(const Rule& r, "
             "std::uint32_t arity) {\n"
             "  tca::require_explicit_bits(arity, 20, \"truth_table\");\n"
             "  return make_table(r, arity);\n"
             "}\n"),
            # Delegating overloads funnel into the checked definition.
            ("src/rules/analyze.cpp",
             "std::vector<State> truth_table(const Rule& r) {\n"
             "  return truth_table(r, default_arity(r));\n"
             "}\n"
             "std::vector<State> truth_table(const Rule& r, "
             "std::uint32_t arity) {\n"
             "  tca::require_explicit_bits(arity, 20, \"truth_table\");\n"
             "  return make_table(r, arity);\n"
             "}\n"),
        ],
    },
    "span-required": {
        "bad": [("src/runtime/checkpoint.cpp",
                 "void save_checkpoint(const std::string& p, "
                 "const Checkpoint& c) {\n"
                 "  write(p, c);\n"
                 "}\n"
                 "Checkpoint load_checkpoint(const std::string& p) {\n"
                 "  TCA_SPAN(\"checkpoint_load\");\n"
                 "  return read(p);\n"
                 "}\n")],
        "good": [("src/runtime/checkpoint.cpp",
                  "void save_checkpoint(const std::string& p, "
                  "const Checkpoint& c) {\n"
                  "  TCA_SPAN(\"checkpoint_save\");\n"
                  "  write(p, c);\n"
                  "}\n"
                  "Checkpoint load_checkpoint(const std::string& p) {\n"
                  "  TCA_SPAN(\"checkpoint_load\");\n"
                  "  return read(p);\n"
                  "}\n")],
    },
    "checkpoint-det": {
        "bad": [
            ("src/runtime/x.cpp",
             "auto t = std::chrono::system_clock::now();\n"),
            ("src/runtime/x.cpp", "std::random_device rd;\n"),
        ],
        "good": [
            ("src/runtime/x.cpp",
             "auto t = std::chrono::steady_clock::now();\n"),
            # Outside src/runtime/ the rule does not apply (log timestamps
            # are wall-clock on purpose).
            ("src/obs/log.cpp",
             "auto t = std::chrono::system_clock::now();\n"),
            ("src/runtime/x.cpp",
             "// tca-lint: allow(checkpoint-det) manifest stamp only\n"
             "auto t = std::chrono::system_clock::now();\n"),
        ],
    },
}


def self_test() -> int:
    failures = []
    for rule, cases in sorted(_SELFTEST.items()):
        for kind in ("bad", "good"):
            for relpath, text in cases[kind]:
                src = SourceFile(relpath, text)
                hits = [f for f in lint_file(src) if f.rule == rule]
                if kind == "bad" and not hits:
                    failures.append(
                        f"{rule}: MUST fire on bad fixture {relpath!r} "
                        f"but stayed quiet (rule rot)")
                if kind == "good" and hits:
                    failures.append(
                        f"{rule}: fired on good fixture {relpath!r}: "
                        f"{hits[0].render()} (false positive)")
    # The entry-point configs must also self-check staleness: a missing
    # function is a finding, not a silent pass.
    stale = SourceFile("src/rules/analyze.cpp", "int unrelated;\n")
    if not any(f.rule == "explicit-bits" and f.line == 0
               for f in lint_file(stale)):
        failures.append("explicit-bits: stale entry-point config must be "
                        "reported as a finding")

    # memory-model-stale: good table quiet, dead file / dead symbol fire,
    # missing doc fires.
    mm_sources = {"src/core/x.cpp":
                  "std::atomic<int> flag;\n"
                  "int f() { return flag.load(std::memory_order_relaxed); }"
                  "\n"}
    mm_header = ("| file | symbol | orders | happens-before |\n"
                 "|------|--------|--------|----------------|\n")
    good_doc = mm_header + \
        "| `src/core/x.cpp` | `flag` | `relaxed` | advisory poll |\n"
    if check_memory_model(good_doc, mm_sources):
        failures.append("memory-model-stale: fired on a live contract row "
                        "(false positive)")
    dead_file_doc = mm_header + \
        "| `src/core/gone.cpp` | `flag` | `relaxed` | advisory |\n"
    if not check_memory_model(dead_file_doc, mm_sources):
        failures.append("memory-model-stale: MUST fire on a row whose "
                        "file is gone (rule rot)")
    dead_symbol_doc = mm_header + \
        "| `src/core/x.cpp` | `retired` | `relaxed` | advisory |\n"
    if not check_memory_model(dead_symbol_doc, mm_sources):
        failures.append("memory-model-stale: MUST fire on a row whose "
                        "symbol is gone (rule rot)")
    if not check_memory_model(None, mm_sources):
        failures.append("memory-model-stale: MUST fire when the doc "
                        "itself is missing (rule rot)")

    # hot-path-roots: live annotation quiet; stripped annotation and
    # missing file fire.
    hp_roots = (("src/core/x.cpp", r"TCA_HOT_PATH\s+void\s+step\b"),)
    live = {"src/core/x.cpp": "TCA_HOT_PATH void step(int* p) { ++*p; }\n"}
    if check_hot_path_roots(hp_roots, live):
        failures.append("hot-path-roots: fired on a live annotation "
                        "(false positive)")
    stripped = {"src/core/x.cpp": "void step(int* p) { ++*p; }\n"}
    if not check_hot_path_roots(hp_roots, stripped):
        failures.append("hot-path-roots: MUST fire when the annotation "
                        "is stripped (rule rot)")
    if not check_hot_path_roots(hp_roots, {}):
        failures.append("hot-path-roots: MUST fire when the registered "
                        "file is gone (rule rot)")

    # The in-tree registry itself must be live (otherwise lint_tree on
    # this very checkout would fail anyway — surface it here with a
    # clearer message).
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    if (repo_root / "src").is_dir():
        tree_sources = {s.relpath: s.text for s in iter_sources(repo_root)}
        stale_roots = check_hot_path_roots(HOT_PATH_ROOTS, tree_sources)
        for f in stale_roots:
            failures.append(f"hot-path-roots: in-tree registry stale: "
                            f"{f.render()}")
    if failures:
        print("tca-lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 2
    n_fixtures = sum(
        len(c["bad"]) + len(c["good"]) for c in _SELFTEST.values())
    print(f"tca-lint self-test OK: {len(RULES) + 2} rules, "
          f"{n_fixtures} fixtures (every rule fires and stays quiet)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: the checkout "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every rule against embedded good/bad "
                             "fixtures and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        print("memory-model-stale")
        print("hot-path-roots")
        return 0
    if args.self_test:
        return self_test()

    if not (args.root / "src").is_dir():
        print(f"tca-lint: no src/ under {args.root}", file=sys.stderr)
        return 2
    findings = lint_tree(args.root)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"tca-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("tca-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
