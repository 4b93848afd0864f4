// Composite collective algorithm strings (DESIGN.md §15).
//
// MCR-DL's backend strings name *where* an operation runs ("nccl", "mpi",
// "auto"). Composite strings additionally name *how*: an algorithm assembled
// from several sub-operations on (possibly different) backends — the paper's
// mix-and-match idea applied inside a single collective. Two families exist:
//
//   "hier:<intra>+<inter>"  Two-level hierarchical allreduce: an intra-node
//                           reduce to each node leader on <intra>, an
//                           allreduce over the leaders on <inter>, and an
//                           intra-node broadcast back on <intra>. The two
//                           backends are independently selectable, so NVLink
//                           traffic can ride NCCL while the NIC hop rides
//                           MPI — one rank-list shape per level, costed by
//                           the same CommShape machinery as any flat op.
//
//   "rsag[:<backend>]"      Ring-style decomposition of allreduce into
//                           reduce-scatter + allgather on one backend (the
//                           default backend when omitted). Exposes the
//                           classic bandwidth-optimal two-phase form as a
//                           first-class algorithm choice.
//
// Composite strings are accepted anywhere a backend string is (including as
// online-tuner arms behind "auto") once CollConfig::enabled is set; with the
// subsystem disabled they are rejected exactly like any unknown backend name,
// so default-config runs stay byte-identical.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace mcrdl::coll {

// Opt-in configuration (surfaced as McrDlOptions::coll).
struct CollConfig {
  // Accept composite algorithm strings in the resolve stage. Off by default:
  // composite strings then fail resolution as unknown backends and the
  // pipeline bypasses its coll stage.
  bool enabled = false;
  // Interleave chunks of independent composites: a composite allreduce is
  // split into `chunks` slices whose phases progress concurrently, so one
  // slice's inter-node hop overlaps another's intra-node work.
  bool overlap = false;
  int chunks = 4;
  // Offer composite algorithms as additional "auto" arms to the online tuner
  // (requires online_tuning.enabled to matter).
  bool tuner_arms = false;
};

enum class CompositeAlgo { Hier, Rsag };

// A parsed composite algorithm string. Backend fields hold whatever the
// string named; validation against the initialised backend set (and filling
// in the default for a bare "rsag") happens at resolve time, where the
// runtime knows what init() loaded.
struct CompositeSpec {
  CompositeAlgo algo = CompositeAlgo::Hier;
  std::string intra;  // hier: intra-node backend; rsag: the single backend
  std::string inter;  // hier only
  std::string text;   // canonical string form (used as the tuner arm / label)
};

// Parses a composite algorithm string; nullopt when `name` is not in a
// composite grammar at all (a plain backend name). Malformed composite
// strings ("hier:", "hier:a") throw InvalidArgument — they were unmistakably
// meant as composites, so silently treating them as backend names would turn
// a typo into a confusing unknown-backend error downstream.
std::optional<CompositeSpec> parse(const std::string& name);

// One registry row per composite family, for tooling (mcrdl_info).
struct CompositeInfo {
  std::string pattern;
  std::string description;
};
const std::vector<CompositeInfo>& registered_composites();

// The composite arm strings offered to the online tuner for a given
// initialised backend set: every ordered backend pair as "hier:a+b" plus one
// "rsag:<b>" per backend. Deterministic order (follows `backends`).
std::vector<std::string> composite_arms(const std::vector<std::string>& backends);

}  // namespace mcrdl::coll
