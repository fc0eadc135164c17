// The benchmark's deterministic world: the synthetic zones akadns-serve
// publishes for (--synthetic N, --seed S), the replay corpus sent at it,
// and the byte-exact answer expected for every corpus entry.
//
// The generator and the traced harness both build it from the same
// (zones, seed) the server is given, so every answer can be verified
// without a side channel. For zone updates it also tracks a few popular
// "churn" zones: each can be evolved to any generation
// (workload::evolved_zone), rendered as a master file for the server's
// --zone/SIGHUP path, and answered through a reference Responder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/responder.hpp"
#include "workload/population.hpp"
#include "workload/replay.hpp"
#include "workload/zones.hpp"

namespace perfbench {

using Bytes = std::vector<std::uint8_t>;

struct WorldConfig {
  std::size_t zones = 500;
  std::uint64_t seed = 1;
  std::size_t corpus = 4096;
  /// Share of the corpus drawn from the random-subdomain attack.
  double attack = 0.0;
  /// Popular zones that receive updates (evolved generations).
  std::size_t churn_zones = 8;
};

struct ChurnZone {
  std::size_t rank = 0;
  akadns::zone::ZonePtr base;         // generation 0, as synthesized
  std::vector<std::size_t> entries;   // corpus entries answered from this zone
  std::size_t probe_pos = 0;          // index into `entries` of the probe query
  std::uint32_t gen = 1;              // generation the server holds
};

class World {
 public:
  explicit World(const WorldConfig& config);

  const akadns::workload::ReplayCorpus& corpus() const noexcept { return corpus_; }
  const akadns::workload::HostedZones& zones() const noexcept { return zones_; }

  /// Expected answer (transaction id 0) per corpus entry, with every churn
  /// zone at generation 1 — the version the server loads from its --zone
  /// files at start.
  const std::vector<Bytes>& expected() const noexcept { return expected_; }

  std::vector<ChurnZone>& churn() noexcept { return churn_; }
  /// Churn zone index per corpus entry, or -1.
  int churn_of(std::size_t entry) const noexcept { return entry_churn_[entry]; }
  /// Position of `entry` inside its churn zone's entry list.
  std::size_t churn_pos(std::size_t entry) const noexcept { return entry_pos_[entry]; }

  /// Expected answers for churn zone `c`'s entries at generation `gen`.
  std::vector<Bytes> answers_at(std::size_t c, std::uint32_t gen);
  /// Churn zone `c` at generation `gen` in master-file form.
  std::string master_file(std::size_t c, std::uint32_t gen) const;
  akadns::zone::Zone zone_at(std::size_t c, std::uint32_t gen) const;

 private:
  akadns::workload::HostedZones zones_;
  akadns::workload::ResolverPopulation population_;
  akadns::workload::ReplayCorpus corpus_;
  std::vector<Bytes> expected_;
  std::vector<ChurnZone> churn_;
  std::vector<int> entry_churn_;
  std::vector<std::size_t> entry_pos_;
  /// Reference store: the synthetic zones, with churn zones overwritten
  /// at whatever generation answers_at() last asked for.
  akadns::zone::ZoneStore& reference_;
  akadns::server::Responder responder_;
};

/// True when `got` is `want` apart from the transaction id.
inline bool same_answer(const std::uint8_t* got, std::size_t len, const Bytes& want) {
  if (len != want.size() || len < 2) return false;
  for (std::size_t i = 2; i < len; ++i) {
    if (got[i] != want[i]) return false;
  }
  return true;
}

}  // namespace perfbench
