// RFC 1035 §5 master-file parser (the common subset: $ORIGIN, $TTL,
// "@", relative names, omitted name/TTL/class repetition, parentheses
// for multi-line RDATA, ';' comments, quoted TXT strings).
//
// This is the ingestion path of the paper's Management Portal: enterprise
// zones arrive as zone files / zone transfers, are validated, and are
// then published to the nameservers.
#pragma once

#include <string_view>

#include "common/result.hpp"
#include "zone/zone.hpp"

namespace akadns::zone {

struct ParseOptions {
  /// Default origin when the file has no $ORIGIN (may be root).
  DnsName origin;
  /// Default TTL when neither the record nor $TTL specify one.
  std::uint32_t default_ttl = 3600;
};

/// Parses a master file into a Zone rooted at the SOA owner name.
/// Returns an error with a line number on the first malformed entry.
Result<Zone> parse_master_file(std::string_view text, const ParseOptions& options);

/// Serializes a zone back to master-file text (round-trip support).
std::string to_master_file(const Zone& zone);

}  // namespace akadns::zone
