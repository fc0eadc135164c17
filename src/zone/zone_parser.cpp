#include "zone/zone_parser.hpp"

#include <charconv>
#include <optional>
#include <vector>

#include "common/strings.hpp"

namespace akadns::zone {
namespace {

using dns::AaaaRecord;
using dns::ARecord;
using dns::CaaRecord;
using dns::CnameRecord;
using dns::MxRecord;
using dns::NsRecord;
using dns::PtrRecord;
using dns::RData;
using dns::SoaRecord;
using dns::SrvRecord;
using dns::TxtRecord;

struct Token {
  std::string text;
  bool quoted = false;
};

struct LogicalLine {
  int line_no = 1;
  bool leading_ws = false;  // physical line started with blank => owner omitted
  std::vector<Token> tokens;
};

/// Splits master-file text into logical lines: ';' comments stripped,
/// '(' ... ')' groups joined, '"' quoting honored. Records whether each
/// logical line began with whitespace (RFC 1035 §5.1: a blank owner field
/// means "same owner as the previous RR").
Result<std::vector<LogicalLine>> tokenize(std::string_view text) {
  std::vector<LogicalLine> lines;
  std::vector<Token> current;
  std::string token;
  bool in_quotes = false;
  bool token_active = false;
  bool token_was_quoted = false;
  bool at_line_start = true;
  bool leading_ws = false;
  int paren_depth = 0;
  int line_no = 1;
  int logical_start = 1;

  auto flush_token = [&] {
    if (token_active) {
      current.push_back(Token{token, token_was_quoted});
      token.clear();
      token_active = false;
      token_was_quoted = false;
    }
  };
  auto flush_line = [&] {
    flush_token();
    if (!current.empty()) {
      lines.push_back(LogicalLine{logical_start, leading_ws, std::move(current)});
      current.clear();
    }
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (at_line_start && paren_depth == 0 && current.empty() && !token_active && c != '\n' &&
        c != '\r') {
      leading_ws = (c == ' ' || c == '\t');
      at_line_start = false;
    }
    if (in_quotes) {
      if (c == '"') {
        in_quotes = false;
      } else if (c == '\\' && i + 1 < text.size()) {
        token += text[++i];
        token_active = true;
      } else if (c == '\n') {
        return Result<std::vector<LogicalLine>>::failure(
            "line " + std::to_string(line_no) + ": unterminated quoted string");
      } else {
        token += c;
        token_active = true;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        token_active = true;
        token_was_quoted = true;
        break;
      case ';':
        while (i < text.size() && text[i] != '\n') ++i;
        --i;  // reprocess the newline
        break;
      case '(':
        flush_token();
        ++paren_depth;
        break;
      case ')':
        flush_token();
        if (--paren_depth < 0) {
          return Result<std::vector<LogicalLine>>::failure(
              "line " + std::to_string(line_no) + ": unbalanced ')'");
        }
        break;
      case '\n':
        ++line_no;
        at_line_start = true;
        if (paren_depth == 0) {
          flush_line();
          logical_start = line_no;
        } else {
          flush_token();
        }
        break;
      case ' ':
      case '\t':
      case '\r':
        flush_token();
        break;
      default:
        token += c;
        token_active = true;
        break;
    }
  }
  if (in_quotes) {
    return Result<std::vector<LogicalLine>>::failure(
        "unterminated quoted string at end of file");
  }
  if (paren_depth != 0) {
    return Result<std::vector<LogicalLine>>::failure(
        "unbalanced '(' at end of file");
  }
  flush_line();
  return lines;
}

std::optional<std::uint32_t> parse_u32(std::string_view s) {
  std::uint32_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::uint16_t> parse_u16(std::string_view s) {
  const auto v = parse_u32(s);
  if (!v || *v > 0xFFFF) return std::nullopt;
  return static_cast<std::uint16_t>(*v);
}

/// TTLs may carry unit suffixes (1h30m etc., BIND extension).
std::optional<std::uint32_t> parse_ttl(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t total = 0;
  std::uint64_t current = 0;
  bool have_digits = false;
  bool have_units = false;
  for (const char raw : s) {
    const char c = akadns::ascii_lower(raw);
    if (c >= '0' && c <= '9') {
      current = current * 10 + static_cast<std::uint64_t>(c - '0');
      if (current > 0xFFFFFFFFULL) return std::nullopt;
      have_digits = true;
      continue;
    }
    std::uint64_t mult = 0;
    switch (c) {
      case 's': mult = 1; break;
      case 'm': mult = 60; break;
      case 'h': mult = 3600; break;
      case 'd': mult = 86400; break;
      case 'w': mult = 604800; break;
      default: return std::nullopt;
    }
    if (!have_digits) return std::nullopt;
    total += current * mult;
    current = 0;
    have_digits = false;
    have_units = true;
  }
  if (have_digits) {
    if (have_units) return std::nullopt;  // e.g. "1h30" is malformed
    total += current;
  }
  if (total > 0xFFFFFFFFULL) return std::nullopt;
  return static_cast<std::uint32_t>(total);
}

/// Resolves a possibly-relative name against the origin. "@" = origin.
std::optional<DnsName> resolve_name(std::string_view text, const DnsName& origin) {
  if (text == "@") return origin;
  if (!text.empty() && text.back() == '.') return DnsName::parse(text);
  const auto relative = DnsName::parse(text);
  if (!relative) return std::nullopt;
  return relative->concat(origin);
}

Result<RData> parse_rdata(dns::RecordType type, const std::vector<Token>& fields,
                          const DnsName& origin) {
  auto fail = [](std::string what) { return Result<RData>::failure(std::move(what)); };
  auto need = [&](std::size_t n) { return fields.size() == n; };
  auto name_at = [&](std::size_t i) { return resolve_name(fields[i].text, origin); };

  switch (type) {
    case dns::RecordType::A: {
      if (!need(1)) return fail("A takes one address");
      const auto addr = Ipv4Addr::parse(fields[0].text);
      if (!addr) return fail("bad IPv4 address: " + fields[0].text);
      return RData{ARecord{*addr}};
    }
    case dns::RecordType::AAAA: {
      if (!need(1)) return fail("AAAA takes one address");
      const auto addr = Ipv6Addr::parse(fields[0].text);
      if (!addr) return fail("bad IPv6 address: " + fields[0].text);
      return RData{AaaaRecord{*addr}};
    }
    case dns::RecordType::NS: {
      if (!need(1)) return fail("NS takes one name");
      const auto n = name_at(0);
      if (!n) return fail("bad NS target");
      return RData{NsRecord{*n}};
    }
    case dns::RecordType::CNAME: {
      if (!need(1)) return fail("CNAME takes one name");
      const auto n = name_at(0);
      if (!n) return fail("bad CNAME target");
      return RData{CnameRecord{*n}};
    }
    case dns::RecordType::PTR: {
      if (!need(1)) return fail("PTR takes one name");
      const auto n = name_at(0);
      if (!n) return fail("bad PTR target");
      return RData{PtrRecord{*n}};
    }
    case dns::RecordType::SOA: {
      if (!need(7)) return fail("SOA takes mname rname serial refresh retry expire minimum");
      SoaRecord soa;
      const auto mname = name_at(0);
      const auto rname = name_at(1);
      if (!mname || !rname) return fail("bad SOA names");
      soa.mname = *mname;
      soa.rname = *rname;
      const auto serial = parse_u32(fields[2].text);
      const auto refresh = parse_ttl(fields[3].text);
      const auto retry = parse_ttl(fields[4].text);
      const auto expire = parse_ttl(fields[5].text);
      const auto minimum = parse_ttl(fields[6].text);
      if (!serial || !refresh || !retry || !expire || !minimum) {
        return fail("bad SOA numeric field");
      }
      soa.serial = *serial;
      soa.refresh = *refresh;
      soa.retry = *retry;
      soa.expire = *expire;
      soa.minimum = *minimum;
      return RData{soa};
    }
    case dns::RecordType::TXT: {
      if (fields.empty()) return fail("TXT needs at least one string");
      TxtRecord txt;
      for (const auto& f : fields) txt.strings.push_back(f.text);
      return RData{txt};
    }
    case dns::RecordType::MX: {
      if (!need(2)) return fail("MX takes preference exchange");
      const auto pref = parse_u16(fields[0].text);
      const auto exch = name_at(1);
      if (!pref || !exch) return fail("bad MX fields");
      return RData{MxRecord{*pref, *exch}};
    }
    case dns::RecordType::SRV: {
      if (!need(4)) return fail("SRV takes priority weight port target");
      const auto prio = parse_u16(fields[0].text);
      const auto weight = parse_u16(fields[1].text);
      const auto port = parse_u16(fields[2].text);
      const auto target = name_at(3);
      if (!prio || !weight || !port || !target) return fail("bad SRV fields");
      return RData{SrvRecord{*prio, *weight, *port, *target}};
    }
    case dns::RecordType::CAA: {
      if (!need(3)) return fail("CAA takes flags tag value");
      const auto flags = parse_u32(fields[0].text);
      if (!flags || *flags > 255) return fail("bad CAA flags");
      return RData{CaaRecord{static_cast<std::uint8_t>(*flags), fields[1].text, fields[2].text}};
    }
    default:
      return fail("unsupported record type in zone file");
  }
}

}  // namespace

Result<Zone> parse_master_file(std::string_view text, const ParseOptions& options) {
  auto tokenized = tokenize(text);
  if (!tokenized) return Result<Zone>::failure(tokenized.error());

  DnsName origin = options.origin;
  std::uint32_t default_ttl = options.default_ttl;
  DnsName last_owner = origin;
  bool have_owner = false;

  struct PendingRecord {
    ResourceRecord rr;
    int line;
  };
  std::vector<PendingRecord> records;
  std::optional<DnsName> apex;
  std::uint32_t serial = 0;

  for (const auto& logical : tokenized.value()) {
    const int line_no = logical.line_no;
    const auto& tokens = logical.tokens;
    auto fail = [line_no = line_no](std::string what) {
      return Result<Zone>::failure("line " + std::to_string(line_no) + ": " + std::move(what));
    };
    // Directives.
    if (tokens[0].text == "$ORIGIN") {
      if (tokens.size() != 2) return fail("$ORIGIN takes one name");
      const auto n = DnsName::parse(tokens[1].text);
      if (!n) return fail("bad $ORIGIN name");
      origin = *n;
      continue;
    }
    if (tokens[0].text == "$TTL") {
      if (tokens.size() != 2) return fail("$TTL takes one value");
      const auto ttl = parse_ttl(tokens[1].text);
      if (!ttl) return fail("bad $TTL value");
      default_ttl = *ttl;
      continue;
    }
    if (tokens[0].text.starts_with("$")) return fail("unknown directive " + tokens[0].text);

    // Record line: [owner] [ttl] [class] type rdata...
    // RFC 1035 §5.1: the owner field is present iff the physical line did
    // not start with whitespace.
    std::size_t idx = 0;
    DnsName owner = last_owner;
    if (!logical.leading_ws) {
      const auto n = resolve_name(tokens[0].text, origin);
      if (!n) return fail("bad owner name " + tokens[0].text);
      owner = *n;
      have_owner = true;
      idx = 1;
    } else if (!have_owner) {
      return fail("record without owner name");
    }
    last_owner = owner;

    std::uint32_t ttl = default_ttl;
    // Optional TTL and class in either order (both BIND-accepted).
    for (int pass = 0; pass < 2 && idx < tokens.size(); ++pass) {
      if (!tokens[idx].quoted) {
        if (const auto t = parse_ttl(tokens[idx].text);
            t && !dns::parse_record_type(tokens[idx].text)) {
          ttl = *t;
          ++idx;
          continue;
        }
        if (iequals(tokens[idx].text, "IN") || iequals(tokens[idx].text, "CH")) {
          ++idx;
          continue;
        }
      }
      break;
    }
    if (idx >= tokens.size()) return fail("missing record type");
    const auto type = dns::parse_record_type(tokens[idx].text);
    if (!type) return fail("unknown record type " + tokens[idx].text);
    ++idx;

    std::vector<Token> rdata_fields(tokens.begin() + static_cast<std::ptrdiff_t>(idx),
                                    tokens.end());
    auto rdata = parse_rdata(*type, rdata_fields, origin);
    if (!rdata) return fail(rdata.error());

    ResourceRecord rr;
    rr.name = owner;
    rr.ttl = ttl;
    rr.rdata = std::move(rdata).take();
    if (rr.type() == dns::RecordType::SOA) {
      if (apex) return Result<Zone>::failure("line " + std::to_string(line_no) +
                                             ": duplicate SOA record");
      apex = owner;
      serial = std::get<SoaRecord>(rr.rdata).serial;
    }
    records.push_back(PendingRecord{std::move(rr), line_no});
  }

  if (!apex) return Result<Zone>::failure("zone file has no SOA record");

  Zone zone(*apex, serial);
  for (auto& pending : records) {
    const std::string description = pending.rr.to_string();
    if (!zone.add(std::move(pending.rr))) {
      return Result<Zone>::failure("line " + std::to_string(pending.line) +
                                   ": record rejected (out of zone or CNAME conflict): " +
                                   description);
    }
  }
  return zone;
}

std::string to_master_file(const Zone& zone) {
  std::string out;
  out += "$ORIGIN " + zone.apex().to_string() + "\n";
  for (const auto& rr : zone.all_records()) {
    out += rr.to_string() + "\n";
  }
  return out;
}

}  // namespace akadns::zone
