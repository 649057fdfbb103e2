// The wearlock-lint rule set. Every rule is a pure function from
// lexed source to diagnostics; the driver (lint.h) owns file
// collection, NOLINT suppression and output formatting.
//
// Rule ids are stable identifiers: they appear in diagnostics
// ("file:line: rule-id: message"), in NOLINT(rule-id) suppressions and
// in docs/static-analysis.md. Add new rules to AllRules() and to the
// dispatch in RunLint().
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "source.h"

namespace wearlock::lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Stable catalogue, in severity-ish order (shown by --list-rules).
const std::vector<RuleInfo>& AllRules();

// -- Per-file rules ---------------------------------------------------

/// determinism: wall-clock and ambient randomness are banned in library
/// code; simulated time comes from sim::VirtualClock and randomness
/// from sim::Rng so every figure regenerates bit-identically.
void CheckDeterminism(const SourceFile& file, std::vector<Diagnostic>* out);

/// banned-api: stdio writes outside src/obs/log.cpp (library code logs
/// through obs::Log), unbounded C string APIs (sprintf/strcpy/strcat/
/// gets/atoi) and raw new/delete (use std::make_unique / containers).
void CheckBannedApi(const SourceFile& file, std::vector<Diagnostic>* out);

/// header-hygiene: every header opens with #pragma once or an
/// #ifndef/#define guard before any other preprocessor directive.
/// (Self-containment is enforced by the generated one-include TUs the
/// lint_header_selfcontained CMake target compiles; see --gen-header-tus.)
void CheckHeaderHygiene(const SourceFile& file, std::vector<Diagnostic>* out);

/// shared-state: mutable namespace-scope or static-storage state must
/// be const, atomic, a synchronization primitive, thread_local, or
/// carry a "// lint: guarded-by(<mutex>)" annotation naming an
/// identifier declared elsewhere in the same file.
void CheckSharedState(const SourceFile& file, std::vector<Diagnostic>* out);

/// hot-path-alloc: a function annotated "// lint: hot-path" must not
/// allocate - no std::vector<...>(...) construction, no push_back, no
/// resize, no raw new anywhere in its body (scratch comes from
/// dsp::Workspace slots and cached dsp::FftPlan tables instead).
/// Suppress an intentional cold branch with NOLINT(hot-path-alloc).
void CheckHotPathAlloc(const SourceFile& file, std::vector<Diagnostic>* out);

// -- Flow-aware (use-site) rules --------------------------------------
// These run on the token stream + scope walker in analysis.h rather
// than on raw line matches: they know which function a token is in and
// which mutexes the enclosing scopes hold.

/// guarded-by: every use of a global annotated
/// "// lint: guarded-by(<mutex>)" must occur inside a scope that holds
/// <mutex> via a lock_guard/scoped_lock/unique_lock/shared_lock. The
/// shared-state rule demands the annotation exist; this rule makes it
/// mean something at every access site.
void CheckGuardedBy(const SourceFile& file, std::vector<Diagnostic>* out);

/// modeled-time: file-local assignment-chain taint from host-timing
/// sources (TimeHostMs/TimeHostMedianMs/HostTimer::ElapsedMs/
/// ElapsedHostMs). Tainted values may not reach the modeled-time
/// surfaces that must stay bit-identical across thread counts:
/// `proto_ms`-style accumulators (any variable named proto_ms or
/// annotated "// lint: modeled-time"), functions that write such an
/// accumulator (e.g. the `charge` lambda), comparisons against
/// *budget*/*deadline* identifiers, obs::SessionRecord field writes,
/// and WL_* metrics whose name contains "modeled".
void CheckModeledTime(const SourceFile& file, std::vector<Diagnostic>* out);

/// slot-ownership: "CSlot::kX" / "RSlot::kY" may be referenced only
/// from the slot's documented owner function(s), per the checked-in
/// manifest (tools/lint/slot_owners.txt). An owner of "*" allows any
/// context; a slot missing from the manifest is itself a finding.
using SlotManifest = std::map<std::string, std::set<std::string>>;
void CheckSlotOwnership(const SourceFile& file, const SlotManifest& manifest,
                        std::vector<Diagnostic>* out);

/// discarded-outcome: calling an outcome-returning API (WirelessLink
/// TrySend*, FaultPlan::Parse, ...) as a bare expression statement
/// throws the outcome away - the exact bug [[nodiscard]] catches at
/// compile time, enforced here for un-compiled contexts too. A
/// `(void)` cast is an explicit, visible discard and passes.
void CheckDiscardedOutcome(const SourceFile& file,
                           std::vector<Diagnostic>* out);

// -- Project-level rule -----------------------------------------------

/// layer-dag: quoted includes must be rooted at src/ and follow the
/// architecture DAG (obs importable everywhere, importing nothing):
///
///   dsp, crypto, obs -> (nothing)
///   sim              -> obs
///   audio            -> dsp, sim
///   modem, sensors   -> dsp, audio*, sim      (*modem only)
///   protocol         -> everything
///
/// Also rejects include cycles among the scanned files.
void CheckLayerDag(const std::vector<SourceFile>& files,
                   std::vector<Diagnostic>* out);

/// test-only-export: every function declared in a src/ header must be
/// referenced by some scanned file outside tests/ - library code (its
/// own .cpp included), bench/, tools/, examples/ or the benchmark
/// harness. A declaration or definition is not a reference; names match
/// unqualified, so a name any production file uses counts. The rule
/// judges the whole tree, so it runs only when the scan includes a
/// tests/ file. Constructors, destructors and operators are exempt.
void CheckTestOnlyExport(const std::vector<SourceFile>& files,
                         std::vector<Diagnostic>* out);

}  // namespace wearlock::lint
