// Versioned zone store: the nameserver-side container of published zone
// snapshots. Publishing replaces the zone pointer atomically (snapshot
// semantics, matching the paper's metadata pipeline where the Management
// Portal publishes validated zone versions and nameservers subscribe).
// Serial regressions are rejected, mirroring serial-based zone transfer
// rules (RFC 1996 / 5936).
//
// Every accepted publish compiles the snapshot into a CompiledZone
// (answer-ready node table + wire fragments) before the swap, so the hot
// read path only ever sees fully-built snapshots. Three publish shapes
// exist, cheapest first: publish_compiled() installs an already-compiled
// snapshot shared with another store (replica seeding), apply_delta()
// incrementally recompiles only the nodes a ZoneDiff touches, and
// publish() compiles from scratch. The query-time entry point,
// find_best_compiled(), does longest-suffix matching with one incremental
// hash pass over the query name — zero heap allocations even on the miss
// path, which is what a REFUSED flood exercises.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "obs/registry.hpp"
#include "zone/compiled_zone.hpp"
#include "zone/zone.hpp"
#include "zone/zone_transfer.hpp"

namespace akadns::zone {

/// Cumulative cost of publish-time compilation (telemetry surface).
struct CompileStats {
  obs::Counter compiles;              // from-scratch compiles
  obs::Counter incremental_compiles;  // delta-driven recompiles
  obs::Counter adopted;               // pre-compiled snapshots installed
  obs::Counter total_micros;
  obs::Gauge last_micros;
  obs::Gauge last_nodes;
  obs::Gauge last_fragments;
  /// Nodes shared with the previous snapshot by the last incremental
  /// compile — the work the delta path avoided redoing.
  obs::Gauge last_reused_nodes;

  /// akadns_zone_compile_total{path=...} counters plus last-compile
  /// gauges (Max across machines: "the worst latest compile").
  void register_into(obs::MetricRegistry& reg, const obs::LabelSet& base) const {
    const auto path = [&](const char* name, const obs::Counter& c) {
      reg.counter("akadns_zone_compile_total", obs::with(base, "path", name), c,
                  "publish-time zone compiles by path");
    };
    path("full", compiles);
    path("incremental", incremental_compiles);
    path("adopted", adopted);
    reg.counter("akadns_zone_compile_micros_total", base, total_micros,
                "cumulative publish-time compile cost");
    reg.gauge("akadns_zone_compile_last_micros", base, last_micros,
              obs::GaugeAgg::Max, "cost of the most recent compile");
    reg.gauge("akadns_zone_compile_last_nodes", base, last_nodes,
              obs::GaugeAgg::Max, "nodes in the most recent compiled snapshot");
    reg.gauge("akadns_zone_compile_last_fragments", base, last_fragments,
              obs::GaugeAgg::Max, "fragments in the most recent compiled snapshot");
    reg.gauge("akadns_zone_compile_last_reused_nodes", base, last_reused_nodes,
              obs::GaugeAgg::Max, "nodes the last incremental compile reused");
  }
};

class ZoneStore {
 public:
  /// Publishes a zone snapshot. Returns false (and keeps the old version)
  /// if a zone with the same apex and a serial >= the new one exists.
  /// Compilation happens before the swap; readers never see a half-built
  /// snapshot.
  bool publish(Zone zone);
  bool publish(ZonePtr zone);

  /// Force-publishes regardless of serial (operator override path).
  void force_publish(Zone zone);
  void force_publish(ZonePtr zone);

  /// Applies an IXFR delta to the stored snapshot, incrementally
  /// recompiling only the nodes the diff touches. Fails — leaving the
  /// store untouched — when no zone exists at the diff's apex, the stored
  /// serial does not match diff.from_serial, or the diff names a record
  /// the base does not hold: the RFC 1995 "fall back to AXFR" cases.
  /// Returns the newly installed snapshot on success.
  Result<CompiledZonePtr> apply_delta(const ZoneDiff& diff);

  /// Installs an already-compiled snapshot (shared with the compiling
  /// store — no recompilation, just the swap). Serial rules apply unless
  /// `force`; returns false when rejected.
  bool publish_compiled(CompiledZonePtr compiled, bool force = false);

  /// Force-installs every compiled snapshot of `other` (replica seeding:
  /// the snapshots are shared, not recompiled).
  void adopt(const ZoneStore& other);

  /// Removes a zone; returns true if it existed.
  bool remove(const DnsName& apex);

  /// The compiled zone whose apex is the longest suffix of `qname`, or
  /// nullptr. Allocation-free: one probe sequence of the hashed apex
  /// index per populated depth instead of materializing suffix names.
  CompiledZonePtr find_best_compiled(const DnsName& qname) const noexcept;

  /// The zone whose apex is the longest suffix of `qname`, or nullptr.
  ZonePtr find_best_zone(const DnsName& qname) const;

  /// Exact-apex fetch.
  ZonePtr find_zone(const DnsName& apex) const;

  /// Exact-apex fetch of the compiled snapshot.
  CompiledZonePtr find_compiled(const DnsName& apex) const;

  bool has_zone(const DnsName& apex) const { return find_entry(apex) != nullptr; }

  std::size_t zone_count() const noexcept { return zone_count_; }
  std::size_t total_records() const noexcept;

  /// Apexes of all hosted zones, sorted into canonical order per call.
  std::vector<DnsName> zone_apexes() const;

  /// Monotone counter incremented on every successful publish/remove;
  /// the staleness detector and the answer cache use it as a cheap
  /// change signal.
  std::uint64_t generation() const noexcept { return generation_; }

  const CompileStats& compile_stats() const noexcept { return compile_stats_; }

 private:
  using Entry = std::pair<const DnsName, CompiledZonePtr>;
  /// One index slot (null `entry` = empty). The apex depth is checked on
  /// the key, and only on a full hash match.
  struct ApexSlot {
    std::uint64_t hash = 0;
    std::unique_ptr<Entry> entry;
  };

  void store(ZonePtr zone);
  void install(CompiledZonePtr compiled);
  void note_compile(const CompiledZone& compiled);
  std::size_t home_slot(std::uint64_t hash) const noexcept;
  void place(ApexSlot slot) noexcept;
  Entry& index_insert(const DnsName& apex);
  void index_erase(const Entry& entry);
  /// The indexed entry whose apex is the trailing `depth` labels of
  /// `name` (suffix hash `hash`), or nullptr.
  Entry* probe(std::uint64_t hash, std::size_t depth, const DnsName& name) const noexcept;
  Entry* find_entry(const DnsName& apex) const noexcept {
    return probe(apex.suffix_hash(), apex.label_count(), apex);
  }

  /// The hosted zones, one slot per apex: a linear-probing table over apex
  /// suffix hashes, power-of-two sized, at most half full, backward-shift erase.
  std::vector<ApexSlot> apex_index_;
  std::size_t zone_count_ = 0;
  /// Apexes per label depth — lets the miss path skip depths without
  /// touching the index, and stays exact when a depth empties.
  std::array<std::uint32_t, 128> apex_depths_{};
  std::uint64_t generation_ = 0;
  CompileStats compile_stats_;
};

}  // namespace akadns::zone
