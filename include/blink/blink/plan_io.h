/// \file
/// Plan serialization: compiled CollectivePlans as durable artifacts (§3.2,
/// §5 — TreeGen/CodeGen are one-time costs amortized over millions of
/// iterations, so the compiled schedule must survive process restarts
/// instead of being repaid at every startup).
///
/// The format is a compact little-endian binary stream. A store file opens
/// with a header carrying a magic tag, the format version, and a fabric
/// fingerprint — a hash of the server shapes, link parameters, and the
/// registered backend names — so a stale or mismatched plan is rejected at
/// load time, never executed. Each record then carries the plan's identity
/// (kind, bytes, root, backend *name* — ids are re-resolved at import), its
/// chunking decision, the phase-2 exchange strategy, result metadata, and
/// the full sim::Program.
///
/// Tree-set provenance is deliberately not persisted: the schedule no longer
/// depends on the TreeSets it was compiled from, so a loaded plan simply has
/// an empty tree_sets() list.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "blink/blink/codegen.h"
#include "blink/blink/plan.h"
#include "blink/blink/treegen.h"
#include "blink/sim/fabric.h"
#include "blink/sim/program.h"
#include "blink/topology/topology.h"

namespace blink {

/// Store-file magic tag: "BLKP", little-endian.
inline constexpr std::uint32_t kPlanStoreMagic = 0x504b4c42u;
/// Store format version; bumped on any layout change, and read_plan_store
/// rejects other versions. v2: records carry the phase-2 exchange strategy
/// (Phase2Strategy). v3: result metadata grows the chunk-pipelining fields
/// (pipeline depth, per-phase chunk counts) and the fabric fingerprint
/// covers per-server NIC rate overrides. v4: the header carries the fabric's
/// per-component health fingerprints (one per server plus the NIC tier, with
/// per-link health folded in) and records carry their channel footprint, so
/// a warm load can skip exactly the plans a health event invalidated instead
/// of rejecting the whole file. v5: sim::max_min_rates fills each connected
/// component of flows on its own, which moves some simulated makespans by a
/// few ulps and can flip near-tie bake-off winners, so v4 plans are not
/// reused.
inline constexpr std::uint32_t kPlanStoreVersion = 5;

/// Incremental FNV-1a (64-bit), the hasher behind fabric_fingerprint() and
/// CollectiveBackend::planning_fingerprint(). Multi-byte values hash their
/// little-endian in-memory representation.
class FingerprintHasher {
 public:
  /// Hashes \p n raw bytes starting at \p data.
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  /// Hashes a 64-bit value.
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  /// Hashes a 32-bit value.
  void i32(std::int32_t v) { bytes(&v, sizeof v); }
  /// Hashes a double's bit pattern.
  void f64(double v) { bytes(&v, sizeof v); }
  /// Hashes a string, length-prefixed so "ab"+"c" and "a"+"bc" differ.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// The current hash value.
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// Fingerprint of everything structural a plan's routed schedule depends on:
/// every server's topology (GPU count, NVLink edges and lane bandwidth,
/// NVSwitch, the PCIe hierarchy), the fabric calibration parameters, and the
/// backend names in registration order (channel ids and backend ids must
/// mean the same thing in the loading process as in the saving one).
/// CollectiveEngine::fabric_fingerprint() additionally folds in each
/// backend's planning_fingerprint(), so configuration knobs that change what
/// lowering emits (chunk policy, tree-generation options, phase-2 exchange
/// and partition-sizing policies) separate stores too.
std::uint64_t fabric_fingerprint(const std::vector<topo::Topology>& servers,
                                 const sim::FabricParams& params,
                                 const std::vector<std::string>& backend_names);

/// Hashes every planning knob of TreeGenOptions into \p fp, for backends'
/// planning_fingerprint() implementations. One definition, so a knob added
/// to the struct separates every backend's stores at once instead of only
/// the backends whose hand-rolled hash was updated.
void hash_options(const TreeGenOptions& treegen, FingerprintHasher* fp);
/// Hashes every planning knob of CodeGenOptions into \p fp (see the
/// TreeGenOptions overload).
void hash_options(const CodeGenOptions& codegen, FingerprintHasher* fp);

/// The store file an engine with \p fingerprint reads and writes under
/// \p dir; the fingerprint is part of the name so engines with different
/// fabrics can share one directory.
std::string plan_store_file(const std::string& dir, std::uint64_t fingerprint);

/// One serialized plan, independent of any live engine: the backend travels
/// by name and is re-resolved to an id at import.
struct PlanRecord {
  /// Stable backend name (CollectiveBackend::name()) re-resolved at import.
  std::string backend_name;
  /// CollectiveKind as an integer, range-checked on read.
  int kind = 0;
  /// Root GPU rank the plan was compiled for.
  int root = 0;
  /// Per-GPU buffer size the plan was compiled for.
  double bytes = 0.0;
  /// Chunk size the schedule was emitted at.
  std::uint64_t chunk_bytes = 0;
  /// Phase2Strategy as an integer, range-checked on read.
  int phase2 = 0;
  /// Result metadata; timing unfilled, as in a freshly compiled plan.
  CollectiveResult meta;
  /// The full routed schedule.
  sim::Program program;
  /// Sorted channel ids the plan depends on (program routes plus bake-off
  /// decision channels); see CollectivePlan::channel_footprint(). Empty for
  /// records written by pre-v4 tooling — treated as "depends on everything
  /// healthy", i.e. always adopted.
  std::vector<int> footprint;
};

/// A whole store file: the structural fabric fingerprint, the per-component
/// health fingerprints at save time (empty for stores written by simple
/// tooling, meaning "saved healthy"), and the plan records.
struct PlanStoreFile {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> component_fingerprints;
  std::vector<PlanRecord> records;
};

// --- stream-level primitives (exposed for tests) ----------------------------

/// Appends \p program's serialized form to \p out.
void serialize_program(const sim::Program& program, std::string* out);
/// Parses a program starting at \p *pos (advanced past it). Throws
/// std::invalid_argument on truncated or internally inconsistent input (the
/// parsed program must pass sim::Program::validate()).
sim::Program deserialize_program(std::string_view buf, std::size_t* pos);

/// Appends \p record's serialized form to \p out.
void serialize_plan_record(const PlanRecord& record, std::string* out);
/// Parses a plan record starting at \p *pos (advanced past it); throws
/// std::invalid_argument on corrupt input.
PlanRecord deserialize_plan_record(std::string_view buf, std::size_t* pos);

// --- whole-file store -------------------------------------------------------

/// Writes header + records atomically (temp file + rename), so a concurrent
/// reader never sees a half-written store.
void write_plan_store(const std::string& path, const PlanStoreFile& file);

/// Convenience overload writing a store with no component health
/// fingerprints (interpreted as "saved healthy" at load).
void write_plan_store(const std::string& path, std::uint64_t fingerprint,
                      const std::vector<PlanRecord>& records);

/// Reads a store written by write_plan_store. Throws std::invalid_argument
/// when the file is missing or unreadable, the magic or format version does
/// not match, \p expected_fingerprint differs from the header's (a plan
/// saved against a different fabric must never execute), or the content is
/// corrupt or truncated. Component-fingerprint mismatches are *not* checked
/// here — they are per-record concerns the caller (PlanCache::load) filters.
PlanStoreFile read_plan_store_file(const std::string& path,
                                   std::uint64_t expected_fingerprint);

/// Record-only convenience wrapper over read_plan_store_file.
std::vector<PlanRecord> read_plan_store(const std::string& path,
                                        std::uint64_t expected_fingerprint);

}  // namespace blink
