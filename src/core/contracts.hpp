#pragma once
// Concurrency-contract annotation macros (docs/static-analysis.md,
// docs/memory_model.md). These are the machine-checkable counterpart of
// the thread-safety annotations in core/annotations.hpp: where TSA
// proves lock discipline, these macros mark the *lock-free* contracts
// that scripts/tca_analyze.py audits:
//
//  * TCA_HOT_PATH — marks a function or lambda whose loops are hot
//    (executed per state / per chunk / per word of a phase-space build).
//    The analyzer's hot-path-blocking check enforces that no mutex
//    acquisition, blocking IO, or throwing allocation appears inside a
//    loop of an annotated root: allocations must be hoisted to setup,
//    locks belong at the boundary, IO belongs to the cold path. catch
//    blocks, `throw` statements and `static` one-shot initialization are
//    exempt (failure paths and one-time setup are cold by definition).
//    Lambdas passed to SuccessorStore::for_each_range are implicit roots
//    — the store calls them once per 4096-entry block, 2^n/4096 times.
//    The annotated roots are registered in scripts/tca_analyze.py
//    (HOT_PATH_ROOTS) so a rename cannot silently drop the check.
//
//  * TCA_JOINED_BEFORE_SCOPE_EXIT — placed immediately before a thread
//    spawn whose callable captures locals by reference, asserting that
//    the spawned thread is joined before those locals die. The
//    analyzer's capture-lifetime check flags every by-reference capture
//    handed to std::thread / a std::vector<std::thread> without this
//    marker. The string argument is the justification ("joined at the
//    barrier below"), mandatory by construction.
//
// Expansion: TCA_HOT_PATH becomes __attribute__((hot)) on GCC/Clang —
// a real optimizer hint, so the contract and the codegen agree on what
// is hot — and nothing elsewhere. The join marker compiles away
// entirely; it exists for the analyzer and the reader.

#if defined(__GNUC__) || defined(__clang__)
#define TCA_HOT_PATH __attribute__((hot))
#else
#define TCA_HOT_PATH
#endif

#define TCA_JOINED_BEFORE_SCOPE_EXIT(why) \
  static_assert(sizeof(why) > 0, "join justification required")
