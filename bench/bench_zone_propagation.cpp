// Zone propagation bench: what a zone update costs end to end.
//
// Four sections. (1) Full vs incremental recompile across zone size ×
// delta size — the case for compile_incremental is that a 1-record
// change in a 100k-record zone should cost the delta, not the zone.
// (2) The publisher pipeline: diff + journal + incremental compile per
// publish, sustained over a long serial chain. (3) Publish-to-visible
// latency at a subscriber, for both the in-process adoption path and
// the wire-style delta-replay path. (4) Zone-store scale: load time,
// per-publish cost (new apex, republish, remove), find_best_compiled
// hit/miss cost and RSS against the number of hosted zones, from 10^3
// up to 10^6 with --scale-only (10^5 in the default run, which keeps it
// cheap), stopping early at the largest count that fits in half of
// MemAvailable.
//
//   bench_zone_propagation [--scale-only]
//
// With AKADNS_BENCH_JSON=<path> every row is also written as JSON (the
// CI artifact; BENCH_zone_scale.json is the --scale-only curve).

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "propagation/zone_publisher.hpp"
#include "propagation/zone_subscriber.hpp"
#include "zone/compiled_zone.hpp"
#include "zone/zone_builder.hpp"

namespace akadns {
namespace {

using zone::CompiledZone;
using zone::Zone;
using zone::ZoneBuilder;

double elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
      .count();
}

// A zone with `hosts` A records; `serial` rotates the first `churn`
// addresses so consecutive serials differ in exactly `churn` records.
Zone make_zone(std::size_t hosts, std::uint32_t serial, std::size_t churn) {
  ZoneBuilder builder("bench.example", serial);
  builder.soa("ns1.bench.example", "hostmaster.bench.example", serial);
  builder.ns("@", "ns1.bench.example");
  builder.a("ns1", "10.0.0.1");
  for (std::size_t i = 0; i < hosts; ++i) {
    const std::uint32_t rotate = i < churn ? serial : 0;
    builder.a("h" + std::to_string(i), "10." + std::to_string((i >> 14) & 255) + "." +
                                           std::to_string((i >> 6) & 255) + "." +
                                           std::to_string((i + rotate) % 250 + 1));
  }
  return builder.build();
}

void compile_section() {
  bench::subheading("recompile cost: full vs incremental");
  std::printf("  %-10s %-8s %14s %14s %10s\n", "zone", "delta", "full (us)", "incr (us)",
              "speedup");

  for (const std::size_t hosts : {1'000ULL, 10'000ULL, 50'000ULL}) {
    for (const std::size_t churn : {1ULL, 16ULL, 256ULL}) {
      const auto base = std::make_shared<const Zone>(make_zone(hosts, 1, churn));
      const auto next = std::make_shared<const Zone>(make_zone(hosts, 2, churn));
      const zone::ZoneDiff diff = zone::diff_zones(*base, *next);
      const auto compiled_base = CompiledZone::compile(base);

      constexpr int kReps = 5;
      double full_us = 0.0;
      double incr_us = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        const auto scratch = CompiledZone::compile(next);
        full_us += elapsed_us(t0);

        t0 = std::chrono::steady_clock::now();
        const auto incremental = CompiledZone::compile_incremental(*compiled_base, next, diff);
        incr_us += elapsed_us(t0);

        if (incremental->content_hash() != scratch->content_hash()) {
          std::printf("  !! incremental diverged from scratch at %zu/%zu\n", hosts, churn);
          return;
        }
      }
      full_us /= kReps;
      incr_us /= kReps;

      const std::string label =
          std::to_string(hosts) + " rr x " + std::to_string(churn) + " delta";
      std::printf("  %-10zu %-8zu %14.1f %14.1f %9.1fx\n", hosts, churn, full_us, incr_us,
                  full_us / incr_us);
      bench::print_row((label + ": full compile").c_str(), full_us, "us");
      bench::print_row((label + ": incremental").c_str(), incr_us, "us");
      bench::print_row((label + ": speedup").c_str(), full_us / incr_us, "x");
    }
  }
}

void publisher_section() {
  bench::subheading("publisher pipeline: diff + journal + incremental compile");
  MonotonicClock clock;

  for (const std::size_t hosts : {1'000ULL, 10'000ULL}) {
    propagation::ZonePublisher publisher(clock);
    auto seeded = publisher.publish(make_zone(hosts, 1, 16));
    if (!seeded.ok()) {
      std::printf("  !! seed publish failed: %s\n", seeded.error().c_str());
      return;
    }

    constexpr std::uint32_t kPublishes = 64;
    std::vector<Zone> versions;
    versions.reserve(kPublishes);
    for (std::uint32_t serial = 2; serial <= 1 + kPublishes; ++serial) {
      versions.push_back(make_zone(hosts, serial, 16));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (Zone& version : versions) {
      auto result = publisher.publish(std::move(version));
      if (!result.ok()) {
        std::printf("  !! publish failed: %s\n", result.error().c_str());
        return;
      }
    }
    const double per_publish_us = elapsed_us(t0) / kPublishes;

    const auto stats = publisher.stats();
    const std::string label = std::to_string(hosts) + " rr zone";
    bench::print_row((label + ": publish (diff+compile)").c_str(), per_publish_us, "us");
    bench::print_count_row((label + ": incremental publishes").c_str(), stats.incremental);
    bench::print_count_row((label + ": full publishes").c_str(), stats.full);
    bench::print_count_row((label + ": journal deltas retained").c_str(),
                           publisher.journal_stats().appended -
                               publisher.journal_stats().evicted);
  }
}

void visibility_section() {
  bench::subheading("publish -> subscriber-visible latency");
  MonotonicClock clock;

  for (const bool adopt : {true, false}) {
    propagation::ZonePublisher publisher(clock);
    if (!publisher.publish(make_zone(10'000, 1, 16)).ok()) return;

    zone::ZoneStore replica;
    propagation::ZoneSubscriber subscriber(replica, {.adopt_compiled = adopt});
    subscriber.attach(publisher);

    constexpr std::uint32_t kPublishes = 32;
    for (std::uint32_t serial = 2; serial <= 1 + kPublishes; ++serial) {
      if (!publisher.publish(make_zone(10'000, serial, 16)).ok()) return;
      subscriber.poll(clock.now());
    }

    const auto& stats = subscriber.stats();
    const char* path = adopt ? "adopt (in-process)" : "delta replay (wire-style)";
    bench::print_row((std::string(path) + ": last latency").c_str(),
                     static_cast<double>(stats.last_latency_ns) / 1e3, "us");
    bench::print_row((std::string(path) + ": max latency").c_str(),
                     static_cast<double>(stats.max_latency_ns) / 1e3, "us");
    bench::print_count_row((std::string(path) + ": updates applied").c_str(), stats.updates);
  }
}

/// Resident set size of this process, from /proc/self/statm.
double rss_mib() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// MemAvailable from /proc/meminfo, in MiB (0 when unreadable).
double available_mib() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/meminfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "MemAvailable: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

zone::ZonePtr minimal_zone(const std::string& apex, std::uint32_t serial) {
  return std::make_shared<const Zone>(ZoneBuilder(apex, serial).build());
}

std::string scale_apex(std::size_t i) { return "z" + std::to_string(i) + ".scale"; }

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Mean ns per find_best_compiled over `qnames`, repeated `rounds` times.
double lookup_ns(const zone::ZoneStore& store, const std::vector<dns::DnsName>& qnames,
                 int rounds, std::size_t& found) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const dns::DnsName& q : qnames) found += store.find_best_compiled(q) != nullptr;
  }
  return elapsed_us(t0) * 1e3 / static_cast<double>(qnames.size() * rounds);
}

void scale_section(std::size_t max_zones) {
  bench::subheading("zone-store scale: load, per-publish and lookup cost vs zone count");
  std::printf("  %-9s %9s %10s %10s %10s %10s %9s %9s %9s\n", "zones", "load (s)", "new (us)",
              "repub (us)", "remove (us)", "hit (ns)", "miss (ns)", "rss (MiB)", "B/apex");
  constexpr std::size_t kOps = 1000;  // timed ops per round; at most 10^3 keeps apexes distinct
  constexpr int kRounds = 5;          // each per-op cost is the median round
  double bytes_per_apex = 0.0;
  std::size_t measured = 0;
  for (std::size_t n = 1'000; n <= max_zones; n *= 10) {
    ::malloc_trim(0);
    const double base_mib = rss_mib();
    // Half of what is free now, so the box keeps room for everything else.
    const double budget_mib = available_mib() / 2.0;
    const double need_mib = bytes_per_apex * 1.25 * static_cast<double>(n) / (1024.0 * 1024.0);
    if (need_mib > budget_mib) {
      std::printf("  memory limit: %zu zones need ~%.0f MiB, budget %.0f MiB\n", n, need_mib,
                  budget_mib);
      break;
    }

    std::vector<zone::ZonePtr> zones;
    zones.reserve(n);
    for (std::size_t i = 0; i < n; ++i) zones.push_back(minimal_zone(scale_apex(i), 1));
    zone::ZoneStore store;
    auto t0 = std::chrono::steady_clock::now();
    for (const zone::ZonePtr& z : zones) store.publish(z);
    const double load_s = elapsed_us(t0) / 1e6;
    zones.clear();  // the store's snapshots pin them from here on
    const double loaded_mib = rss_mib();

    // Spread the timed ops over the whole store rather than one end of it.
    std::vector<zone::ZonePtr> fresh;
    for (std::size_t k = 0; k < kOps; ++k) {
      fresh.push_back(minimal_zone("z" + std::to_string(k * n / kOps) + "n.scale", 1));
    }
    std::vector<double> new_us;
    std::vector<double> republish_us;
    std::vector<double> remove_us;
    std::size_t applied = 0;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<zone::ZonePtr> next;
      for (std::size_t k = 0; k < kOps; ++k) {
        next.push_back(minimal_zone(scale_apex(k * n / kOps),
                                    static_cast<std::uint32_t>(2 + round)));
      }
      t0 = std::chrono::steady_clock::now();
      for (const zone::ZonePtr& z : fresh) applied += store.publish(z);
      new_us.push_back(elapsed_us(t0) / kOps);
      t0 = std::chrono::steady_clock::now();
      for (const zone::ZonePtr& z : next) applied += store.publish(z);
      republish_us.push_back(elapsed_us(t0) / kOps);
      t0 = std::chrono::steady_clock::now();
      for (const zone::ZonePtr& z : fresh) applied += store.remove(z->apex());
      remove_us.push_back(elapsed_us(t0) / kOps);
    }
    if (applied != 3 * kOps * kRounds || store.zone_count() != n) {
      std::printf("  !! %zu of %zu timed operations applied\n", applied, 3 * kOps * kRounds);
      return;
    }

    Rng rng(n);
    std::vector<dns::DnsName> hits;
    std::vector<dns::DnsName> misses;
    for (int i = 0; i < 4096; ++i) {
      hits.push_back(dns::DnsName::from("www." + scale_apex(rng.next_below(n))));
      misses.push_back(dns::DnsName::from("www.nx" + std::to_string(i) + ".scale"));
    }
    std::size_t found = 0;
    const double hit_ns = lookup_ns(store, hits, 50, found);
    const double miss_ns = lookup_ns(store, misses, 50, found);
    if (found != hits.size() * 50) {
      std::printf("  !! %zu of %zu hit lookups found their zone\n", found, hits.size() * 50);
      return;
    }

    bytes_per_apex = (loaded_mib - base_mib) * 1024.0 * 1024.0 / static_cast<double>(n);
    const double new_med = median(new_us);
    const double republish_med = median(republish_us);
    const double remove_med = median(remove_us);
    std::printf("  %-9zu %9.3f %10.2f %10.2f %10.2f %10.1f %9.1f %9.1f %9.0f\n", n, load_s,
                new_med, republish_med, remove_med, hit_ns, miss_ns, loaded_mib, bytes_per_apex);
    const std::string label = std::to_string(n) + " zones";
    bench::print_row((label + ": load").c_str(), load_s, "s");
    bench::print_row((label + ": publish new apex").c_str(), new_med, "us");
    bench::print_row((label + ": republish").c_str(), republish_med, "us");
    bench::print_row((label + ": remove").c_str(), remove_med, "us");
    bench::print_row((label + ": find_best_compiled hit").c_str(), hit_ns, "ns");
    bench::print_row((label + ": find_best_compiled miss").c_str(), miss_ns, "ns");
    bench::print_row((label + ": rss").c_str(), loaded_mib, "MiB");
    bench::print_row((label + ": rss per apex").c_str(), bytes_per_apex, "B");
    measured = n;
  }
  std::printf("  limits: %zu zones (10^6 with --scale-only), memory budget half of MemAvailable\n",
              max_zones);
  bench::print_count_row("largest zone count measured", measured);
}

}  // namespace
}  // namespace akadns

int main(int argc, char** argv) {
  const bool scale_only = argc == 2 && std::strcmp(argv[1], "--scale-only") == 0;
  if (argc > 1 && !scale_only) {
    std::fprintf(stderr, "usage: %s [--scale-only]\n", argv[0]);
    return 2;
  }
  akadns::bench::heading("Zone propagation: incremental recompile and fan-out",
                         "§3.2 zone updates; live reload under load");
  if (!scale_only) {
    akadns::compile_section();
    akadns::publisher_section();
    akadns::visibility_section();
  }
  akadns::scale_section(scale_only ? 1'000'000 : 100'000);
  std::printf("\n");
  return 0;
}
