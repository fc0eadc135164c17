#include "zone/zone.hpp"

#include <algorithm>

namespace akadns::zone {

using dns::CnameRecord;
using dns::NsRecord;
using dns::SoaRecord;

Zone::Zone(DnsName apex, std::uint32_t serial) : apex_(std::move(apex)), serial_(serial) {}

bool Zone::add(ResourceRecord rr) {
  if (rr.type() == RecordType::OPT || rr.type() == RecordType::ANY) return false;
  if (!rr.name.is_subdomain_of(apex_)) return false;

  Node& node = nodes_[rr.name];
  const bool adding_cname = rr.type() == RecordType::CNAME;
  const bool node_has_cname = node.rrsets.contains(RecordType::CNAME);
  const bool node_has_other = std::any_of(
      node.rrsets.begin(), node.rrsets.end(),
      [](const auto& kv) { return kv.first != RecordType::CNAME; });
  // RFC 1034 §3.6.2: a CNAME node may own no other data.
  if ((adding_cname && node_has_other) || (!adding_cname && node_has_cname)) {
    if (node.rrsets.empty()) nodes_.erase(rr.name);
    return false;
  }
  if (rr.type() == RecordType::SOA && rr.name != apex_) {
    if (node.rrsets.empty()) nodes_.erase(rr.name);
    return false;
  }

  RrSet& set = node.rrsets[rr.type()];
  if (!set.records.empty()) {
    rr.ttl = set.records.front().ttl;  // RFC 2181 §5.2: uniform RRset TTL
    // Suppress exact duplicates.
    for (const auto& existing : set.records) {
      if (existing.rdata == rr.rdata) return true;
    }
    // Only a single SOA/CNAME per node.
    if (rr.type() == RecordType::SOA || rr.type() == RecordType::CNAME) return false;
  }
  set.records.push_back(std::move(rr));
  ++record_count_;
  return true;
}

std::size_t Zone::remove(const DnsName& name, RecordType type) {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) return 0;
  auto set_it = it->second.rrsets.find(type);
  if (set_it == it->second.rrsets.end()) return 0;
  const std::size_t n = set_it->second.records.size();
  it->second.rrsets.erase(set_it);
  if (it->second.rrsets.empty()) nodes_.erase(it);
  record_count_ -= n;
  return n;
}

bool Zone::remove_record(const ResourceRecord& rr) {
  auto it = nodes_.find(rr.name);
  if (it == nodes_.end()) return false;
  auto set_it = it->second.rrsets.find(rr.type());
  if (set_it == it->second.rrsets.end()) return false;
  auto& records = set_it->second.records;
  auto match = std::find(records.begin(), records.end(), rr);
  if (match == records.end()) return false;
  records.erase(match);
  if (records.empty()) it->second.rrsets.erase(set_it);
  if (it->second.rrsets.empty()) nodes_.erase(it);
  --record_count_;
  return true;
}

void Zone::set_soa_serial(std::uint32_t serial) {
  serial_ = serial;
  auto it = nodes_.find(apex_);
  if (it == nodes_.end()) return;
  auto set_it = it->second.rrsets.find(RecordType::SOA);
  if (set_it == it->second.rrsets.end() || set_it->second.records.empty()) return;
  std::get<SoaRecord>(set_it->second.records.front().rdata).serial = serial;
}

bool Zone::subtree_exists(const DnsName& name) const {
  auto it = nodes_.lower_bound(name);
  return it != nodes_.end() && (it->first == name || it->first.is_subdomain_of(name));
}

const Zone::Node* Zone::find_node(const DnsName& name) const {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

const std::map<RecordType, RrSet>* Zone::rrsets_at(const DnsName& name) const {
  const Node* node = find_node(name);
  return node ? &node->rrsets : nullptr;
}

const RrSet* Zone::find(const DnsName& name, RecordType type) const {
  const Node* node = find_node(name);
  if (!node) return nullptr;
  auto it = node->rrsets.find(type);
  return it == node->rrsets.end() ? nullptr : &it->second;
}

std::optional<ResourceRecord> Zone::soa() const {
  const RrSet* set = find(apex_, RecordType::SOA);
  if (!set || set->records.empty()) return std::nullopt;
  return set->records.front();
}

std::uint32_t Zone::negative_ttl() const {
  const auto soa_rr = soa();
  if (!soa_rr) return 0;
  const auto& soa_data = std::get<SoaRecord>(soa_rr->rdata);
  return std::min(soa_rr->ttl, soa_data.minimum);
}

const RrSet* Zone::find_delegation(const DnsName& qname, DnsName& owner_out) const {
  // Walk candidate cut points from just below the apex down toward qname.
  // A node with an NS RRset that is not the apex is a zone cut.
  const std::size_t apex_labels = apex_.label_count();
  for (std::size_t depth = apex_labels + 1; depth <= qname.label_count(); ++depth) {
    const DnsName candidate = qname.suffix(depth);
    if (const RrSet* ns = find(candidate, RecordType::NS)) {
      owner_out = candidate;
      return ns;
    }
  }
  return nullptr;
}

void Zone::attach_negative_authority(LookupResult& result) const {
  if (auto soa_rr = soa()) {
    soa_rr->ttl = negative_ttl();
    result.authority.push_back(*std::move(soa_rr));
  }
}

void Zone::attach_glue(const RrSet& ns_set, LookupResult& result) const {
  for (const auto& ns_rr : ns_set.records) {
    const auto& target = std::get<NsRecord>(ns_rr.rdata).nameserver;
    if (!target.is_subdomain_of(apex_)) continue;
    for (const RecordType t : {RecordType::A, RecordType::AAAA}) {
      if (const RrSet* glue = find(target, t)) {
        result.additional.insert(result.additional.end(), glue->records.begin(),
                                 glue->records.end());
      }
    }
  }
}

LookupResult Zone::lookup(const DnsName& qname, RecordType qtype) const {
  LookupResult result;
  if (!qname.is_subdomain_of(apex_)) {
    result.status = LookupStatus::NxDomain;  // out of bailiwick; caller guards
    return result;
  }

  // 1. Delegation check: if qname sits at/below an in-zone cut, refer —
  //    unless the query is for the cut's NS at the cut itself from the
  //    parent side, which is still a referral (we are not authoritative
  //    below the cut).
  DnsName cut_owner;
  if (const RrSet* cut = find_delegation(qname, cut_owner)) {
    result.status = LookupStatus::Referral;
    result.authority = cut->records;
    attach_glue(*cut, result);
    return result;
  }

  // 2. Exact node match.
  if (const Node* node = find_node(qname)) {
    if (const auto it = node->rrsets.find(qtype); it != node->rrsets.end()) {
      result.status = LookupStatus::Answer;
      result.records = it->second.records;
      return result;
    }
    if (qtype == RecordType::ANY) {
      result.status = LookupStatus::Answer;
      for (const auto& [t, set] : node->rrsets) {
        result.records.insert(result.records.end(), set.records.begin(), set.records.end());
      }
      return result;
    }
    if (const auto it = node->rrsets.find(RecordType::CNAME); it != node->rrsets.end()) {
      result.status = LookupStatus::CnameChase;
      result.records = it->second.records;
      return result;
    }
    result.status = LookupStatus::NoData;
    attach_negative_authority(result);
    return result;
  }

  // 3. Empty non-terminal check: if any existing name is below qname,
  //    the name "exists" with no data (RFC 4592 §2.2.2) -> NODATA.
  if (subtree_exists(qname)) {
    result.status = LookupStatus::NoData;
    attach_negative_authority(result);
    return result;
  }

  // 4. Wildcard: find the closest encloser, then look for "*" child.
  for (std::size_t depth = qname.label_count(); depth-- > apex_.label_count();) {
    const DnsName encloser = qname.suffix(depth);
    const auto wildcard = encloser.prepend("*");
    if (!wildcard) continue;
    if (const Node* wnode = find_node(*wildcard)) {
      auto synthesize = [&](const RrSet& set) {
        for (ResourceRecord rr : set.records) {
          rr.name = qname;  // RFC 4592: owner becomes the query name
          result.records.push_back(std::move(rr));
        }
      };
      result.wildcard_match = true;
      if (const auto it = wnode->rrsets.find(qtype); it != wnode->rrsets.end()) {
        result.status = LookupStatus::Answer;
        synthesize(it->second);
        return result;
      }
      if (const auto it = wnode->rrsets.find(RecordType::CNAME); it != wnode->rrsets.end()) {
        result.status = LookupStatus::CnameChase;
        synthesize(it->second);
        return result;
      }
      result.status = LookupStatus::NoData;
      attach_negative_authority(result);
      return result;
    }
    // Wildcards only apply at the closest encloser (RFC 4592). If this
    // suffix exists — as a node or as an empty non-terminal with
    // descendants — it is the closest encloser and higher wildcards are
    // blocked.
    if (subtree_exists(encloser)) break;
  }

  result.status = LookupStatus::NxDomain;
  attach_negative_authority(result);
  return result;
}

std::vector<ResourceRecord> Zone::all_records() const {
  std::vector<ResourceRecord> out;
  out.reserve(record_count_);
  // SOA first (AXFR convention).
  if (auto soa_rr = soa()) out.push_back(*soa_rr);
  for (const auto& [name, node] : nodes_) {
    for (const auto& [type, set] : node.rrsets) {
      if (type == RecordType::SOA) continue;
      out.insert(out.end(), set.records.begin(), set.records.end());
    }
  }
  return out;
}

std::vector<DnsName> Zone::all_names() const {
  std::vector<DnsName> out;
  out.reserve(nodes_.size());
  for (const auto& [name, node] : nodes_) out.push_back(name);
  return out;
}

std::vector<std::string> Zone::validate() const {
  std::vector<std::string> problems;
  const RrSet* soa_set = find(apex_, RecordType::SOA);
  if (!soa_set || soa_set->records.empty()) {
    problems.push_back("missing apex SOA");
  } else if (soa_set->records.size() > 1) {
    problems.push_back("multiple apex SOA records");
  }
  const RrSet* apex_ns = find(apex_, RecordType::NS);
  if (!apex_ns || apex_ns->records.empty()) {
    problems.push_back("missing apex NS");
  }
  for (const auto& [name, node] : nodes_) {
    const bool has_cname = node.rrsets.contains(RecordType::CNAME);
    if (has_cname && node.rrsets.size() > 1) {
      problems.push_back("CNAME coexists with other data at " + name.to_string());
    }
    // In-zone delegation targets below the cut need glue.
    if (name != apex_) {
      if (const auto it = node.rrsets.find(RecordType::NS); it != node.rrsets.end()) {
        for (const auto& rr : it->second.records) {
          const auto& target = std::get<NsRecord>(rr.rdata).nameserver;
          if (target.is_subdomain_of(name) &&
              !find(target, RecordType::A) && !find(target, RecordType::AAAA)) {
            problems.push_back("delegation " + name.to_string() + " lacks glue for " +
                               target.to_string());
          }
        }
      }
    }
  }
  return problems;
}

}  // namespace akadns::zone
