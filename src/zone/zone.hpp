// Authoritative zone data model and lookup (RFC 1034 §4.3.2 semantics).
//
// A Zone holds the RRsets of one zone cut: the apex SOA/NS plus all
// in-zone names, in-zone delegations (NS RRsets below the apex, which
// produce referrals), and wildcards. Zones are immutable once published
// to a store — the Management Portal / Communication-Control pipeline in
// the paper publishes whole-zone snapshots with monotonically increasing
// serials, which we mirror by treating Zone as a value that a ZoneStore
// swaps atomically.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dns/rr.hpp"

namespace akadns::zone {

using dns::DnsName;
using dns::RecordType;
using dns::ResourceRecord;

/// An RRset: all records sharing (name, type). TTLs within a set are
/// normalized to the first record's TTL on insert (RFC 2181 §5.2).
struct RrSet {
  std::vector<ResourceRecord> records;

  bool empty() const noexcept { return records.empty(); }
  std::uint32_t ttl() const noexcept { return records.empty() ? 0 : records.front().ttl; }
};

/// Outcome of a zone lookup.
enum class LookupStatus {
  Answer,     // matching RRset found (records)
  CnameChase, // name exists and owns a CNAME of another type than asked
  Referral,   // name is at/below an in-zone delegation (NS in authority)
  NoData,     // name exists but not with the requested type (SOA in auth)
  NxDomain,   // name does not exist in the zone (SOA in authority)
};

struct LookupResult {
  LookupStatus status = LookupStatus::NxDomain;
  std::vector<ResourceRecord> records;    // answers (or the CNAME)
  std::vector<ResourceRecord> authority;  // NS for referral, SOA for negative
  std::vector<ResourceRecord> additional; // glue for referrals
  bool wildcard_match = false;
};

class Zone {
 public:
  /// Creates an empty zone rooted at `apex` with the given serial.
  Zone(DnsName apex, std::uint32_t serial);

  const DnsName& apex() const noexcept { return apex_; }
  std::uint32_t serial() const noexcept { return serial_; }

  /// Adds one record. Rejects (returns false) records whose owner name is
  /// not at/below the apex, OPT pseudo-records, and CNAME coexistence
  /// violations (a CNAME must be the only RRset at its node).
  bool add(ResourceRecord rr);

  /// Removes the RRset (name, type); returns number of records removed.
  std::size_t remove(const DnsName& name, RecordType type);

  /// Removes one exact record (owner, type, TTL, rdata all matching);
  /// returns false when the zone holds no such record — the IXFR
  /// "deletion of a record the base does not hold" case.
  bool remove_record(const ResourceRecord& rr);

  /// Rewrites the zone serial in place, both the cached value and the
  /// serial field of the apex SOA rdata — the only mutation an applied
  /// IXFR delta performs beyond record add/remove.
  void set_soa_serial(std::uint32_t serial);

  /// True when `name` exists in RFC 4592 terms: it owns records, or it is
  /// an empty non-terminal with records somewhere below it. One
  /// lower_bound probe — canonical order groups subtrees.
  bool subtree_exists(const DnsName& name) const;

  /// The RRset at (name, type), or nullptr.
  const RrSet* find(const DnsName& name, RecordType type) const;

  /// All RRsets at an exact name in RecordType order, or nullptr if the
  /// name owns nothing — the zone compiler's iteration surface. The
  /// returned map (and every record in it) lives as long as the zone.
  const std::map<RecordType, RrSet>* rrsets_at(const DnsName& name) const;

  /// Full RFC 1034 lookup: exact match, in-zone delegation referral,
  /// CNAME, wildcard synthesis, NODATA, NXDOMAIN.
  LookupResult lookup(const DnsName& qname, RecordType qtype) const;

  /// The apex SOA record (present for any well-formed zone).
  std::optional<ResourceRecord> soa() const;

  /// Negative-caching TTL: min(SOA TTL, SOA.minimum) per RFC 2308.
  std::uint32_t negative_ttl() const;

  /// All records in canonical order (SOA first) — the AXFR view.
  std::vector<ResourceRecord> all_records() const;

  /// All owner names that exist in the zone (for the NXDOMAIN filter's
  /// valid-name tree, §4.3.4 of the paper).
  std::vector<DnsName> all_names() const;

  std::size_t record_count() const noexcept { return record_count_; }
  std::size_t name_count() const noexcept { return nodes_.size(); }

  /// Structural validation: apex SOA present, exactly one SOA, apex NS
  /// present, delegation NS targets resolvable or external, CNAME rules.
  /// Returns a list of human-readable problems (empty = valid). This is
  /// the "Management Portal validates the metadata" step of §3.2.
  std::vector<std::string> validate() const;

 private:
  struct Node {
    std::map<RecordType, RrSet> rrsets;
  };

  const Node* find_node(const DnsName& name) const;
  /// Finds the nearest delegation NS RRset strictly between apex and
  /// qname (exclusive of apex, inclusive of qname itself).
  const RrSet* find_delegation(const DnsName& qname, DnsName& owner_out) const;
  void attach_negative_authority(LookupResult& result) const;
  void attach_glue(const RrSet& ns_set, LookupResult& result) const;

  DnsName apex_;
  std::uint32_t serial_;
  // Canonical DNS order (DnsName::operator<=>), which groups subtrees.
  std::map<DnsName, Node> nodes_;
  std::size_t record_count_ = 0;
};

using ZonePtr = std::shared_ptr<const Zone>;

}  // namespace akadns::zone
