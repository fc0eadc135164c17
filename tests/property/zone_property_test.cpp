// Property tests for zone semantics: randomly generated zones must obey
// the RFC 1034/4592 lookup invariants, survive the master-file round
// trip, and agree between the zone tree and a naive reference model.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "zone/zone_builder.hpp"
#include "zone/zone_parser.hpp"

namespace akadns::zone {
namespace {

using dns::DnsName;
using dns::RecordType;

struct GeneratedZone {
  Zone zone;
  std::vector<DnsName> a_names;        // names owning A records
  std::vector<DnsName> wildcard_parents;
  std::vector<DnsName> delegation_cuts;
};

std::string random_label(Rng& rng) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz";
  std::string label;
  const auto len = 1 + rng.next_below(8);
  for (std::uint64_t i = 0; i < len; ++i) label.push_back(kAlphabet[rng.next_below(26)]);
  return label;
}

GeneratedZone generate_zone(Rng& rng) {
  ZoneBuilder builder("gen.example", 1);
  builder.soa("ns1.gen.example", "hostmaster.gen.example", 1);
  builder.ns("@", "ns1.gen.example");
  builder.a("ns1", "10.0.0.1");
  GeneratedZone out{Zone(DnsName::from("gen.example"), 1), {}, {}, {}};
  out.a_names.push_back(DnsName::from("ns1.gen.example"));
  std::set<std::string> used{"ns1"};

  const auto hosts = 3 + rng.next_below(25);
  for (std::uint64_t i = 0; i < hosts; ++i) {
    std::string owner = random_label(rng);
    if (rng.next_bool(0.3)) owner += "." + random_label(rng);  // two-level
    if (!used.insert(owner).second) continue;
    builder.a(owner, Ipv4Addr(192, 0, 2, static_cast<std::uint8_t>(i + 1)).to_string());
    out.a_names.push_back(DnsName::from(owner + ".gen.example"));
  }
  // A wildcard under its own subtree.
  if (rng.next_bool(0.6)) {
    const std::string parent = "w" + random_label(rng);
    if (used.insert("*." + parent).second) {
      builder.a("*." + parent, "10.9.9.9");
      out.wildcard_parents.push_back(DnsName::from(parent + ".gen.example"));
    }
  }
  // An in-zone delegation with glue.
  if (rng.next_bool(0.5)) {
    const std::string cut = "d" + random_label(rng);
    if (used.insert(cut).second) {
      builder.ns(cut, "ns." + cut + ".gen.example");
      builder.a("ns." + cut, "10.0.1.1");
      out.delegation_cuts.push_back(DnsName::from(cut + ".gen.example"));
    }
  }
  out.zone = builder.build();
  return out;
}

class ZoneProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZoneProperty, EveryInsertedNameAnswers) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const auto generated = generate_zone(rng);
    for (const auto& name : generated.a_names) {
      // Skip names that fell below a delegation cut (referral territory).
      bool below_cut = false;
      for (const auto& cut : generated.delegation_cuts) {
        if (name.is_subdomain_of(cut)) below_cut = true;
      }
      if (below_cut) continue;
      const auto result = generated.zone.lookup(name, RecordType::A);
      EXPECT_EQ(result.status, LookupStatus::Answer) << name.to_string();
      for (const auto& rr : result.records) {
        EXPECT_EQ(rr.name, name);  // owner always equals qname
      }
    }
  }
}

TEST_P(ZoneProperty, LookupNeverReturnsEmptyAnswer) {
  Rng rng(GetParam() ^ 1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto generated = generate_zone(rng);
    for (int probe = 0; probe < 100; ++probe) {
      const auto qname =
          DnsName::from(random_label(rng) + "." + random_label(rng) + ".gen.example");
      const auto result = generated.zone.lookup(qname, RecordType::A);
      switch (result.status) {
        case LookupStatus::Answer:
        case LookupStatus::CnameChase:
          EXPECT_FALSE(result.records.empty());
          break;
        case LookupStatus::Referral:
          EXPECT_FALSE(result.authority.empty());
          EXPECT_EQ(result.authority[0].type(), RecordType::NS);
          break;
        case LookupStatus::NoData:
        case LookupStatus::NxDomain:
          ASSERT_FALSE(result.authority.empty());
          EXPECT_EQ(result.authority[0].type(), RecordType::SOA);
          break;
      }
    }
  }
}

TEST_P(ZoneProperty, WildcardCoversItsSubtree) {
  Rng rng(GetParam() ^ 2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto generated = generate_zone(rng);
    for (const auto& parent : generated.wildcard_parents) {
      const auto probe = parent.prepend(random_label(rng));
      ASSERT_TRUE(probe);
      const auto result = generated.zone.lookup(*probe, RecordType::A);
      EXPECT_EQ(result.status, LookupStatus::Answer) << probe->to_string();
      EXPECT_TRUE(result.wildcard_match);
    }
  }
}

TEST_P(ZoneProperty, DelegationSubtreeAlwaysReferral) {
  Rng rng(GetParam() ^ 3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto generated = generate_zone(rng);
    for (const auto& cut : generated.delegation_cuts) {
      for (int probe = 0; probe < 5; ++probe) {
        const auto below = cut.prepend(random_label(rng));
        ASSERT_TRUE(below);
        const auto result = generated.zone.lookup(*below, RecordType::A);
        EXPECT_EQ(result.status, LookupStatus::Referral) << below->to_string();
      }
    }
  }
}

TEST_P(ZoneProperty, RecordCountMatchesAllRecords) {
  Rng rng(GetParam() ^ 4);
  for (int trial = 0; trial < 20; ++trial) {
    const auto generated = generate_zone(rng);
    EXPECT_EQ(generated.zone.all_records().size(), generated.zone.record_count());
    EXPECT_TRUE(generated.zone.validate().empty());
  }
}

TEST_P(ZoneProperty, MasterFileRoundTripPreservesLookups) {
  Rng rng(GetParam() ^ 5);
  for (int trial = 0; trial < 10; ++trial) {
    const auto generated = generate_zone(rng);
    const auto text = to_master_file(generated.zone);
    const auto reparsed = parse_master_file(text, {});
    ASSERT_TRUE(reparsed) << reparsed.error();
    EXPECT_EQ(reparsed.value().record_count(), generated.zone.record_count());
    // Probe equivalence over both known names and random names.
    auto probe_equal = [&](const DnsName& qname) {
      const auto a = generated.zone.lookup(qname, RecordType::A);
      const auto b = reparsed.value().lookup(qname, RecordType::A);
      EXPECT_EQ(a.status, b.status) << qname.to_string();
      EXPECT_EQ(a.records, b.records) << qname.to_string();
    };
    for (const auto& name : generated.a_names) probe_equal(name);
    for (int probe = 0; probe < 30; ++probe) {
      probe_equal(DnsName::from(random_label(rng) + ".gen.example"));
    }
  }
}

TEST_P(ZoneProperty, RemoveIsInverseOfAdd) {
  Rng rng(GetParam() ^ 6);
  for (int trial = 0; trial < 10; ++trial) {
    auto generated = generate_zone(rng);
    const auto before = generated.zone.record_count();
    const auto owner = DnsName::from("tmp" + random_label(rng) + ".gen.example");
    ASSERT_TRUE(generated.zone.add(dns::make_a(owner, Ipv4Addr(203, 0, 113, 1), 60)));
    EXPECT_EQ(generated.zone.record_count(), before + 1);
    EXPECT_EQ(generated.zone.remove(owner, RecordType::A), 1u);
    EXPECT_EQ(generated.zone.record_count(), before);
    EXPECT_EQ(generated.zone.rrsets_at(owner), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace akadns::zone
