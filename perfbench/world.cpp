#include "world.hpp"

#include "dns/wire.hpp"
#include "net/loadgen.hpp"
#include "zone/zone_parser.hpp"

namespace perfbench {
namespace {

namespace wl = akadns::workload;

wl::HostedZonesConfig hosted_config(const WorldConfig& config) {
  wl::HostedZonesConfig zc;
  zc.zone_count = config.zones;
  return zc;
}

// The population and mix settings akadns-loadgen uses, so a corpus here
// is the corpus `akadns-loadgen --synthetic N --seed S` would send.
wl::PopulationConfig population_config() {
  wl::PopulationConfig pc;
  pc.resolver_count = 10'000;
  return pc;
}

wl::ReplayMixConfig mix_config(const WorldConfig& config) {
  wl::ReplayMixConfig mix;
  mix.corpus_size = config.corpus;
  mix.attack_fraction = config.attack;
  mix.random_subdomain_weight = 1.0;
  mix.direct_query_weight = 0.0;
  mix.spoofed_weight = 0.0;
  mix.seed = config.seed;
  return mix;
}

akadns::server::ResponderConfig reference_config() {
  akadns::server::ResponderConfig rc;
  rc.enable_answer_cache = false;
  return rc;
}

// How far down the popularity ranking to look for zones whose answers
// visibly change under evolution.
constexpr std::size_t kChurnCandidates = 64;

}  // namespace

World::World(const WorldConfig& config)
    : zones_(hosted_config(config), config.seed),
      population_(population_config(), config.seed ^ 0xC0FFEEULL),
      corpus_(mix_config(config), population_, zones_),
      reference_(zones_.store()),
      responder_(reference_, reference_config()) {
  expected_ = akadns::net::expected_responses(corpus_, reference_);

  const std::size_t n = corpus_.size();
  entry_churn_.assign(n, -1);
  entry_pos_.assign(n, 0);
  const std::size_t candidates = std::min(kChurnCandidates, zones_.zone_count());
  std::vector<std::vector<std::size_t>> by_rank(candidates);
  for (std::size_t e = 0; e < n; ++e) {
    auto view = akadns::dns::decode_query_view(corpus_.entries()[e].wire);
    if (!view) continue;
    const auto zone = reference_.find_best_compiled(view.value().question.name);
    if (!zone) continue;
    for (std::size_t r = 0; r < candidates; ++r) {
      if (zone->apex() == zones_.apex(r)) {
        by_rank[r].push_back(e);
        break;
      }
    }
  }

  // A churn zone needs a legitimate query whose answer differs between
  // generations: that query is the probe that sees an update land.
  for (std::size_t r = 0; r < candidates && churn_.size() < config.churn_zones; ++r) {
    if (by_rank[r].empty()) continue;
    ChurnZone cz;
    cz.rank = r;
    cz.base = reference_.find_zone(zones_.apex(r));
    cz.entries = by_rank[r];
    churn_.push_back(cz);
    auto gen1 = answers_at(churn_.size() - 1, 1);
    bool found = false;
    for (std::size_t i = 0; i < cz.entries.size() && !found; ++i) {
      const std::size_t e = cz.entries[i];
      if (!corpus_.entries()[e].is_attack && gen1[i] != expected_[e]) {
        churn_.back().probe_pos = i;
        found = true;
      }
    }
    if (!found) {
      reference_.force_publish(*cz.base);
      churn_.pop_back();
      continue;
    }
    const int c = static_cast<int>(churn_.size() - 1);
    for (std::size_t i = 0; i < cz.entries.size(); ++i) {
      entry_churn_[cz.entries[i]] = c;
      entry_pos_[cz.entries[i]] = i;
      expected_[cz.entries[i]] = std::move(gen1[i]);
    }
  }
}

akadns::zone::Zone World::zone_at(std::size_t c, std::uint32_t gen) const {
  return wl::evolved_zone(*churn_[c].base, gen);
}

std::string World::master_file(std::size_t c, std::uint32_t gen) const {
  return akadns::zone::to_master_file(zone_at(c, gen));
}

std::vector<Bytes> World::answers_at(std::size_t c, std::uint32_t gen) {
  reference_.force_publish(zone_at(c, gen));
  std::vector<Bytes> out;
  out.reserve(churn_[c].entries.size());
  for (const std::size_t e : churn_[c].entries) {
    const auto& entry = corpus_.entries()[e];
    auto wire = responder_.respond_wire(entry.wire, entry.source);
    out.push_back(wire ? std::move(*wire) : Bytes{});
  }
  return out;
}

}  // namespace perfbench
