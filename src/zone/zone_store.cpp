#include "zone/zone_store.hpp"

#include <algorithm>
#include <bit>

namespace akadns::zone {

void ZoneStore::note_compile(const CompiledZone& compiled) {
  compile_stats_.total_micros += compiled.compile_micros();
  compile_stats_.last_micros = compiled.compile_micros();
  compile_stats_.last_nodes = compiled.node_count();
  compile_stats_.last_fragments = compiled.fragment_count();
  compile_stats_.last_reused_nodes = compiled.reused_nodes();
}

void ZoneStore::install(CompiledZonePtr compiled) {
  Entry* entry = find_entry(compiled->apex());
  if (!entry) entry = &index_insert(compiled->apex());
  entry->second = std::move(compiled);
  ++generation_;
}

void ZoneStore::store(ZonePtr zone) {
  CompiledZonePtr compiled = CompiledZone::compile(std::move(zone));
  ++compile_stats_.compiles;
  note_compile(*compiled);
  install(std::move(compiled));
}

bool ZoneStore::publish(Zone zone) {
  return publish(std::make_shared<const Zone>(std::move(zone)));
}

bool ZoneStore::publish(ZonePtr zone) {
  const Entry* entry = find_entry(zone->apex());
  if (entry && entry->second->serial() >= zone->serial()) return false;
  store(std::move(zone));
  return true;
}

void ZoneStore::force_publish(Zone zone) {
  force_publish(std::make_shared<const Zone>(std::move(zone)));
}

void ZoneStore::force_publish(ZonePtr zone) { store(std::move(zone)); }

Result<CompiledZonePtr> ZoneStore::apply_delta(const ZoneDiff& diff) {
  auto fail = [](std::string what) { return Result<CompiledZonePtr>::failure(std::move(what)); };
  const Entry* entry = find_entry(diff.apex);
  if (!entry) return fail("no zone at " + diff.apex.to_string() + " (fall back to AXFR)");
  const CompiledZonePtr& current = entry->second;
  if (current->serial() != diff.from_serial) {
    return fail("serial mismatch: have " + std::to_string(current->serial()) + ", diff from " +
                std::to_string(diff.from_serial) + " (fall back to AXFR)");
  }
  auto next = apply_diff(current->zone(), diff);
  if (!next) return fail(next.error());
  CompiledZonePtr compiled = CompiledZone::compile_incremental(
      *current, std::make_shared<const Zone>(std::move(next).take()), diff);
  ++compile_stats_.incremental_compiles;
  note_compile(*compiled);
  install(compiled);
  return compiled;
}

bool ZoneStore::publish_compiled(CompiledZonePtr compiled, bool force) {
  const Entry* entry = find_entry(compiled->apex());
  if (!force && entry && entry->second->serial() >= compiled->serial()) return false;
  ++compile_stats_.adopted;
  install(std::move(compiled));
  return true;
}

void ZoneStore::adopt(const ZoneStore& other) {
  for (const ApexSlot& slot : other.apex_index_) {
    if (slot.entry) publish_compiled(slot.entry->second, /*force=*/true);
  }
}

bool ZoneStore::remove(const DnsName& apex) {
  const Entry* entry = find_entry(apex);
  if (!entry) return false;
  index_erase(*entry);
  ++generation_;
  return true;
}

std::size_t ZoneStore::home_slot(std::uint64_t hash) const noexcept {
  // Fibonacci hashing spreads the FNV suffix hash over the top bits.
  return (hash * 0x9e3779b97f4a7c15ULL) >> (64 - std::countr_zero(apex_index_.size()));
}

void ZoneStore::place(ApexSlot slot) noexcept {
  std::size_t i = home_slot(slot.hash);
  while (apex_index_[i].entry) i = (i + 1) & (apex_index_.size() - 1);
  apex_index_[i] = std::move(slot);
}

ZoneStore::Entry& ZoneStore::index_insert(const DnsName& apex) {
  if ((zone_count_ + 1) * 2 > apex_index_.size()) {
    // Keep the load at most 1/2: double the table and re-place every slot.
    std::vector<ApexSlot> old(std::max<std::size_t>(16, apex_index_.size() * 2));
    old.swap(apex_index_);  // apex_index_ is now the larger, empty table
    for (ApexSlot& slot : old) {
      if (slot.entry) place(std::move(slot));
    }
  }
  auto entry = std::make_unique<Entry>(apex, nullptr);
  Entry& placed = *entry;
  place({apex.suffix_hash(), std::move(entry)});
  ++zone_count_;
  ++apex_depths_[apex.label_count()];
  return placed;
}

void ZoneStore::index_erase(const Entry& entry) {
  const std::size_t mask = apex_index_.size() - 1;
  std::size_t hole = home_slot(entry.first.suffix_hash());
  while (apex_index_[hole].entry.get() != &entry) hole = (hole + 1) & mask;
  --zone_count_;
  --apex_depths_[entry.first.label_count()];
  // Backward-shift: pull later members of the probe run into the hole
  // unless their home slot lies cyclically in (hole, j].
  for (std::size_t j = (hole + 1) & mask; apex_index_[j].entry; j = (j + 1) & mask) {
    if (((j - home_slot(apex_index_[j].hash)) & mask) >= ((j - hole) & mask)) {
      apex_index_[hole] = std::move(apex_index_[j]);
      hole = j;
    }
  }
  apex_index_[hole] = {};
}

ZoneStore::Entry* ZoneStore::probe(std::uint64_t hash, std::size_t depth,
                                   const DnsName& name) const noexcept {
  if (apex_index_.empty()) return nullptr;
  const std::size_t mask = apex_index_.size() - 1;
  for (std::size_t i = home_slot(hash); apex_index_[i].entry; i = (i + 1) & mask) {
    const ApexSlot& slot = apex_index_[i];
    if (slot.hash == hash && slot.entry->first.equals_tail_of(name, depth)) {
      return slot.entry.get();
    }
  }
  return nullptr;
}

CompiledZonePtr ZoneStore::find_best_compiled(const DnsName& qname) const noexcept {
  const std::size_t qn = qname.label_count();  // <= 127 by DnsName limits
  std::uint64_t hashes[128];
  std::uint64_t h = DnsName::kSuffixHashSeed;
  hashes[0] = h;
  for (std::size_t depth = 1; depth <= qn; ++depth) {
    h = DnsName::suffix_hash_extend(h, qname.label(qn - depth));
    hashes[depth] = h;
  }
  // Longest-suffix match, deepest first; skip depths with no apex at all.
  for (std::size_t depth = qn + 1; depth-- > 0;) {
    if (apex_depths_[depth] == 0) continue;
    if (const Entry* entry = probe(hashes[depth], depth, qname)) return entry->second;
  }
  return nullptr;
}

ZonePtr ZoneStore::find_best_zone(const DnsName& qname) const {
  CompiledZonePtr best = find_best_compiled(qname);
  return best ? best->source() : nullptr;
}

ZonePtr ZoneStore::find_zone(const DnsName& apex) const {
  const Entry* entry = find_entry(apex);
  return entry ? entry->second->source() : nullptr;
}

CompiledZonePtr ZoneStore::find_compiled(const DnsName& apex) const {
  const Entry* entry = find_entry(apex);
  return entry ? entry->second : nullptr;
}

std::size_t ZoneStore::total_records() const noexcept {
  std::size_t total = 0;
  for (const ApexSlot& slot : apex_index_) {
    if (slot.entry) total += slot.entry->second->zone().record_count();
  }
  return total;
}

std::vector<DnsName> ZoneStore::zone_apexes() const {
  std::vector<DnsName> out;
  out.reserve(zone_count_);
  for (const ApexSlot& slot : apex_index_) {
    if (slot.entry) out.push_back(slot.entry->first);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace akadns::zone
