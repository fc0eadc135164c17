#include "zone/zone_store.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "zone/zone_builder.hpp"
#include "zone/zone_transfer.hpp"

namespace akadns::zone {
namespace {

using dns::DnsName;

Zone simple_zone(std::string_view apex, std::uint32_t serial) {
  return ZoneBuilder(apex, serial)
      .ns("@", std::string("ns1.") + std::string(apex))
      .a("ns1", "10.0.0.1")
      .a("www", "10.0.0.2")
      .build();
}

TEST(ZoneStore, PublishAndFind) {
  ZoneStore store;
  EXPECT_TRUE(store.publish(simple_zone("example.com", 1)));
  EXPECT_EQ(store.zone_count(), 1u);
  EXPECT_TRUE(store.has_zone(DnsName::from("example.com")));
  const auto zone = store.find_zone(DnsName::from("example.com"));
  ASSERT_NE(zone, nullptr);
  EXPECT_EQ(zone->serial(), 1u);
}

TEST(ZoneStore, SerialMustIncrease) {
  ZoneStore store;
  EXPECT_TRUE(store.publish(simple_zone("example.com", 5)));
  EXPECT_FALSE(store.publish(simple_zone("example.com", 5)));
  EXPECT_FALSE(store.publish(simple_zone("example.com", 4)));
  EXPECT_TRUE(store.publish(simple_zone("example.com", 6)));
  EXPECT_EQ(store.find_zone(DnsName::from("example.com"))->serial(), 6u);
}

TEST(ZoneStore, ForcePublishOverridesSerial) {
  ZoneStore store;
  store.publish(simple_zone("example.com", 10));
  store.force_publish(simple_zone("example.com", 2));
  EXPECT_EQ(store.find_zone(DnsName::from("example.com"))->serial(), 2u);
}

TEST(ZoneStore, LongestSuffixMatch) {
  ZoneStore store;
  store.publish(simple_zone("com", 1));
  store.publish(simple_zone("example.com", 1));
  store.publish(simple_zone("deep.example.com", 1));

  EXPECT_EQ(store.find_best_zone(DnsName::from("www.deep.example.com"))->apex().to_string(),
            "deep.example.com.");
  EXPECT_EQ(store.find_best_zone(DnsName::from("www.example.com"))->apex().to_string(),
            "example.com.");
  EXPECT_EQ(store.find_best_zone(DnsName::from("other.com"))->apex().to_string(), "com.");
  EXPECT_EQ(store.find_best_zone(DnsName::from("example.org")), nullptr);
}

TEST(ZoneStore, ApexItselfMatches) {
  ZoneStore store;
  store.publish(simple_zone("example.com", 1));
  const auto zone = store.find_best_zone(DnsName::from("example.com"));
  ASSERT_NE(zone, nullptr);
  EXPECT_EQ(zone->apex().to_string(), "example.com.");
}

TEST(ZoneStore, RemoveZone) {
  ZoneStore store;
  store.publish(simple_zone("example.com", 1));
  EXPECT_TRUE(store.remove(DnsName::from("example.com")));
  EXPECT_FALSE(store.remove(DnsName::from("example.com")));
  EXPECT_EQ(store.find_best_zone(DnsName::from("www.example.com")), nullptr);
}

TEST(ZoneStore, GenerationAdvancesOnChange) {
  ZoneStore store;
  const auto g0 = store.generation();
  store.publish(simple_zone("a.com", 1));
  const auto g1 = store.generation();
  EXPECT_GT(g1, g0);
  store.publish(simple_zone("a.com", 1));  // rejected: no change
  EXPECT_EQ(store.generation(), g1);
  store.remove(DnsName::from("a.com"));
  EXPECT_GT(store.generation(), g1);
}

TEST(ZoneStore, SnapshotsAreStable) {
  ZoneStore store;
  store.publish(simple_zone("example.com", 1));
  const auto snapshot = store.find_zone(DnsName::from("example.com"));
  store.publish(simple_zone("example.com", 2));
  // The old snapshot is still valid and unchanged (readers never see
  // partial updates — mirrors the paper's atomic metadata swap).
  EXPECT_EQ(snapshot->serial(), 1u);
  EXPECT_EQ(store.find_zone(DnsName::from("example.com"))->serial(), 2u);
}

TEST(ZoneStore, TotalRecordsAndApexes) {
  ZoneStore store;
  store.publish(simple_zone("a.com", 1));
  store.publish(simple_zone("b.com", 1));
  EXPECT_EQ(store.zone_count(), 2u);
  EXPECT_GT(store.total_records(), 0u);
  const auto apexes = store.zone_apexes();
  ASSERT_EQ(apexes.size(), 2u);
  EXPECT_EQ(apexes[0].to_string(), "a.com.");
  EXPECT_EQ(apexes[1].to_string(), "b.com.");
}

TEST(ZoneStore, RemovingLastApexAtDepthFallsBackToParent) {
  ZoneStore store;
  store.publish(simple_zone("example", 1));
  store.publish(simple_zone("a.example", 1));
  store.publish(simple_zone("b.a.example", 1));
  const auto q = DnsName::from("www.b.a.example");
  EXPECT_EQ(store.find_best_compiled(q)->apex().to_string(), "b.a.example.");
  EXPECT_TRUE(store.remove(DnsName::from("b.a.example")));
  EXPECT_EQ(store.find_best_compiled(q)->apex().to_string(), "a.example.");
  EXPECT_TRUE(store.remove(DnsName::from("a.example")));
  EXPECT_EQ(store.find_best_compiled(q)->apex().to_string(), "example.");
  store.publish(simple_zone("b.a.example", 1));  // the depth comes back
  EXPECT_EQ(store.find_best_compiled(q)->apex().to_string(), "b.a.example.");
}

TEST(ZoneStore, IndexSurvivesGrowthAndMassRemoval) {
  ZoneStore store;
  constexpr int kZones = 3000;
  for (int i = 0; i < kZones; ++i) store.publish(simple_zone("z" + std::to_string(i) + ".com", 1));
  for (int i = 0; i < kZones; i += 2) store.remove(DnsName::from("z" + std::to_string(i) + ".com"));
  for (int i = 0; i < kZones; ++i) {
    const auto best = store.find_best_compiled(DnsName::from("www.z" + std::to_string(i) + ".com"));
    if (i % 2 == 0) {
      EXPECT_EQ(best, nullptr) << i;
    } else {
      ASSERT_NE(best, nullptr) << i;
      EXPECT_EQ(best->apex(), DnsName::from("z" + std::to_string(i) + ".com"));
    }
  }
}

// Property: after any sequence of publish / republish / force_publish /
// apply_delta / adopt / remove, the hashed apex index answers exactly
// like a brute-force longest-suffix scan over zone_apexes() (which must
// list exactly the model's apexes, in canonical order), and hands
// out the newest snapshot of the apex it picks.
class ApexIndexProperty {
 public:
  explicit ApexIndexProperty(std::uint64_t seed) : rng_(seed) {
    // Nested apexes, a crowd at one depth, and a lone deep apex whose
    // removal empties its depth.
    pool_ = {".", "example", "a.example", "b.a.example", "c.b.a.example", "d.example", "flat",
             "q.w.e.r.t.lone"};
    for (int i = 0; i < 48; ++i) pool_.push_back("z" + std::to_string(i) + ".flat");
    for (const std::string& apex : pool_) {
      const std::string rel = apex == "." ? "" : "." + apex;
      for (const std::string& q : {apex, "www" + rel, "x.y" + rel}) {
        queries_.push_back(DnsName::from(q));
      }
    }
    queries_.push_back(DnsName::from("nx.invalid"));
    queries_.push_back(DnsName::from("e.x.a.m.p.l.e.lone"));
  }

  ::testing::AssertionResult step() {
    const DnsName apex = DnsName::from(pool_[rng_.next_below(pool_.size())]);
    const auto serial = static_cast<std::uint32_t>(rng_.next_int(1, 12));
    const auto it = serials_.find(apex);
    switch (rng_.next_below(6)) {
      case 0: {  // publish: accepted only when the serial moves forward
        const bool fresh = it == serials_.end() || it->second < serial;
        if (store_.publish(make(apex, serial)) != fresh) return fail("publish", apex);
        if (fresh) serials_[apex] = serial;
        break;
      }
      case 1:  // republish of an existing apex with the next serial
        if (it == serials_.end()) break;
        if (!store_.publish(make(apex, it->second + 1))) return fail("republish", apex);
        ++it->second;
        break;
      case 2:
        store_.force_publish(make(apex, serial));
        serials_[apex] = serial;
        break;
      case 3: {
        const std::uint32_t from = it == serials_.end() ? serial : it->second;
        const ZoneDiff diff = diff_zones(make(apex, from), make(apex, from + 1));
        const bool applied = store_.apply_delta(diff).ok();
        if (applied != (it != serials_.end())) return fail("apply_delta", apex);
        if (applied) ++it->second;
        break;
      }
      case 4: {
        ZoneStore other;
        for (std::uint64_t n = rng_.next_below(3) + 1; n-- > 0;) {
          const DnsName extra = DnsName::from(pool_[rng_.next_below(pool_.size())]);
          const auto extra_serial = static_cast<std::uint32_t>(rng_.next_int(1, 12));
          other.force_publish(make(extra, extra_serial));
          serials_[extra] = extra_serial;
        }
        store_.adopt(other);
        break;
      }
      default:
        if (store_.remove(apex) != (it != serials_.end())) return fail("remove", apex);
        serials_.erase(apex);
        break;
    }
    return check();
  }

 private:
  Zone make(const DnsName& apex, std::uint32_t serial) {
    return ZoneBuilder(apex.to_string(), serial)
        .a("www", "10.0.0." + std::to_string(serial % 250 + 1))
        .build();
  }

  ::testing::AssertionResult fail(const char* op, const DnsName& apex) {
    return ::testing::AssertionFailure() << op << " " << apex.to_string() << " disagreed";
  }

  ::testing::AssertionResult check() {
    const std::vector<DnsName> apexes = store_.zone_apexes();
    std::vector<DnsName> model;  // canonical order, as zone_apexes() promises
    for (const auto& [apex, serial] : serials_) model.push_back(apex);
    if (apexes != model) {
      return ::testing::AssertionFailure() << apexes.size() << " apexes, want " << model.size();
    }
    for (const DnsName& q : queries_) {
      std::optional<DnsName> want;
      for (const DnsName& apex : apexes) {
        if (q.is_subdomain_of(apex) && (!want || apex.label_count() > want->label_count())) {
          want = apex;
        }
      }
      const CompiledZonePtr got = store_.find_best_compiled(q);
      const ZonePtr got_zone = store_.find_best_zone(q);
      if (!want) {
        if (got || got_zone) return ::testing::AssertionFailure() << q.to_string() << " hit";
        continue;
      }
      if (!got || got->apex() != *want || got->serial() != serials_.at(*want) || !got_zone ||
          got_zone->apex() != *want) {
        return ::testing::AssertionFailure()
               << q.to_string() << " -> " << (got ? got->apex().to_string() : "miss")
               << ", want " << want->to_string() << " serial " << serials_.at(*want);
      }
    }
    return ::testing::AssertionSuccess();
  }

  Rng rng_;
  std::vector<std::string> pool_;
  std::vector<DnsName> queries_;
  std::map<DnsName, std::uint32_t> serials_;  // the model: apex -> newest serial
  ZoneStore store_;
};

TEST(ZoneStore, ApexIndexMatchesBruteForceOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ApexIndexProperty prop(seed);
    for (int step = 0; step < 400; ++step) {
      ASSERT_TRUE(prop.step()) << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace akadns::zone
