// perfbench-trace: the benchmark's traced, in-process replay of one
// akadns-serve worker.
//
//   perfbench-trace --zones N --seed S --corpus C [--attack F]
//                   [--defense 0|1 --penalty P --threshold T] --workers W
//                   --batch B --packets P [--update-every U] --spans PATH
//
// Replays the workload's packets over a real loopback socket through the
// public calls a serve worker makes, in the worker's order:
//   net::UdpBatch::recv → dns::decode_query_view →
//   [defense::DefenseEngine score → enqueue → begin_phase/next/observe/end_phase] →
//   server::Responder::respond_view_into → net::UdpBatch::send
// and, every U packets, propagation::ZonePublisher::publish of the next
// churn-zone generation followed by ZoneSubscriber::poll on each of the W
// worker replicas. Every call is a span (name, start, end, parent, request
// id) kept in memory and written to PATH as CSV when the run ends. Two
// probe passes time ZoneStore::find_best_compiled and publish_compiled on
// their own; they are not on the worker path. Passes alternate tracing on
// and off so the throughput cost of the spans is measured. Heap
// allocations inside respond calls are counted by the replaced global
// operator new below. Every answer is checked byte for byte against the
// World's expected answer. One JSON summary line goes to stdout.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/clock.hpp"
#include "defense/defense_engine.hpp"
#include "defense/filter_chain.hpp"
#include "dns/wire.hpp"
#include "net/socket.hpp"
#include "net/udp_batch.hpp"
#include "propagation/zone_publisher.hpp"
#include "propagation/zone_subscriber.hpp"
#include "server/query_context.hpp"
#include "server/responder.hpp"
#include "world.hpp"
#include "zone/compiled_zone.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace akadns;
using perfbench::Bytes;

enum Name : std::uint8_t {
  kBatchSpan,
  kRecv,
  kDecode,
  kRespondHit,
  kRespondMiss,
  kScore,
  kEnqueue,
  kBeginPhase,
  kNext,
  kObserve,
  kEndPhase,
  kSend,
  kPublish,
  kAdopt,
  kLookup,
  kZonePublish,
};
const char* const kNames[] = {
    "worker.batch",       "net.recv",         "dns.decode",          "server.respond_hit",
    "server.respond_miss", "defense.score",   "defense.enqueue",     "defense.begin_phase",
    "defense.next",       "defense.observe",  "defense.end_phase",   "net.send",
    "propagation.publish", "propagation.adopt", "zone.lookup",       "zone.publish",
};

struct Span {
  std::int64_t start, end;
  std::int64_t parent, req;
  Name name;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. With `on` false every call is a no-op, which
/// is the untraced harness the overhead ratio compares against.
struct Tracer {
  bool on = false;
  std::vector<Span> spans;

  std::int64_t start() const { return on ? now_ns() : 0; }
  void record(Name name, std::int64_t start, std::int64_t parent, std::int64_t req) {
    if (on) spans.push_back(Span{start, now_ns(), parent, req, name});
  }
  /// Opens a parent span whose end is filled in by close().
  std::int64_t open(Name name) {
    if (!on) return -1;
    spans.push_back(Span{now_ns(), 0, -1, -1, name});
    return static_cast<std::int64_t>(spans.size() - 1);
  }
  void close(std::int64_t id) {
    if (id >= 0) spans[static_cast<std::size_t>(id)].end = now_ns();
  }
};

struct Options {
  perfbench::WorldConfig world;
  bool defense = false;
  double penalty = 200.0;
  std::uint64_t threshold = 200;
  std::size_t workers = 2;
  std::size_t batch = 1;
  std::size_t packets = 16384;
  std::size_t update_every = 0;
  std::string spans_path;
};

int bound_socket(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int buf = 1 << 22;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(a);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
    ::close(fd);
    return -1;
  }
  port = ntohs(a.sin_port);
  return fd;
}

dns::Rcode rcode_of(const Bytes& wire) {
  return wire.size() >= 4 ? static_cast<dns::Rcode>(wire[3] & 0x0F) : dns::Rcode::ServFail;
}

class Harness {
 public:
  explicit Harness(const Options& opts)
      : opts_(opts),
        world_(opts.world),
        publisher_(clock_),
        batch_(std::max<std::size_t>(1, opts.batch)),
        pool_(std::make_unique<BufferPool>()),
        engine_(defense::DefenseConfig{}, clock_) {
    // The server's state at start: the synthetic zones plus every churn
    // zone at generation 1, which is what the World's reference holds now.
    publisher_.adopt(world_.zones().store());
    for (std::size_t w = 0; w < std::max<std::size_t>(1, opts.workers); ++w) {
      replicas_.push_back(std::make_unique<zone::ZoneStore>());
      subscribers_.push_back(std::make_unique<propagation::ZoneSubscriber>(*replicas_.back()));
      subscribers_.back()->attach(publisher_);
    }
    responder_ = std::make_unique<server::Responder>(*replicas_[0], server::ResponderConfig{});
    if (opts.defense) {
      // One serve worker's chain: its share of the server-wide threshold.
      filters::NxDomainFilter::Config nx;
      nx.penalty = opts.penalty;
      nx.nxdomain_threshold = std::max<std::uint64_t>(1, opts.threshold / opts.workers);
      engine_.install_filter(
          defense::nxdomain_factory(nx, defense::zone_store_hooks(*replicas_[0])));
      engine_.install_filter(defense::hopcount_factory());
    }
    for (auto& cz : world_.churn()) {
      std::vector<Bytes> cur;
      for (const std::size_t e : cz.entries) cur.push_back(world_.expected()[e]);
      churn_answers_.push_back(std::move(cur));
    }
  }

  ~Harness() {
    if (server_fd_ >= 0) ::close(server_fd_);
    if (client_fd_ >= 0) ::close(client_fd_);
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  bool open_sockets() {
    std::uint16_t server_port = 0, client_port = 0;
    server_fd_ = bound_socket(server_port);
    client_fd_ = bound_socket(client_port);
    if (server_fd_ < 0 || client_fd_ < 0) return false;
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    to.sin_port = htons(server_port);
    return ::connect(client_fd_, reinterpret_cast<sockaddr*>(&to), sizeof(to)) == 0;
  }

  /// Replays `packets` corpus entries through the worker path; returns
  /// the pass's wall time in seconds.
  double pass(std::size_t packets, bool traced) {
    tracer_.on = traced;
    if (traced) {
      tracer_.spans.clear();
      tracer_.spans.reserve(packets * 12);
    }
    pass_first_ = next_seq_;
    const auto t0 = now_ns();
    for (std::size_t done = 0; done < packets;) {
      const std::size_t k = std::min(batch_.capacity(), packets - done);
      client_send(k);
      const std::size_t sent = serve_batch(k);
      client_receive(sent);
      done += k;
      if (opts_.update_every > 0 && ++since_update_ >= opts_.update_every / batch_.capacity()) {
        since_update_ = 0;
        update();
      }
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  /// zone.lookup: find_best_compiled alone, for the last pass's queries.
  /// Appends to the spans of the last traced pass.
  void lookup_probe(std::size_t count) {
    tracer_.on = true;
    for (std::uint64_t seq = pass_first_; seq < pass_first_ + count; ++seq) {
      auto view = dns::decode_query_view(world_.corpus().entries()[entry_of(seq)].wire);
      if (!view) continue;
      const auto t = tracer_.start();
      auto zone = replicas_[0]->find_best_compiled(view.value().question.name);
      tracer_.record(kLookup, t, -1, static_cast<std::int64_t>(seq));
      sink_ += zone != nullptr;
    }
  }

  /// zone.publish: publish_compiled of a new churn-zone version into the
  /// replica that holds all N zones.
  void publish_probe(std::size_t count) {
    tracer_.on = true;
    for (std::size_t i = 0; i < count && !world_.churn().empty(); ++i) {
      const std::size_t c = i % world_.churn().size();
      const std::uint32_t gen = world_.churn()[c].gen + 1000 + static_cast<std::uint32_t>(i);
      auto compiled = zone::CompiledZone::compile(
          std::make_shared<const zone::Zone>(world_.zone_at(c, gen)));
      const auto t = tracer_.start();
      sink_ += replicas_[0]->publish_compiled(std::move(compiled), /*force=*/true);
      tracer_.record(kZonePublish, t, -1, -1);
    }
  }

  bool write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("name,start_ns,end_ns,parent,req\n", f);
    for (const auto& s : tracer_.spans) {
      std::fprintf(f, "%s,%lld,%lld,%lld,%lld\n", kNames[s.name], (long long)s.start,
                   (long long)s.end, (long long)s.parent, (long long)s.req);
    }
    return std::fclose(f) == 0;
  }

  std::string summary(const std::vector<double>& traced_pps,
                      const std::vector<double>& untraced_pps) const {
    std::ostringstream os;
    os.precision(10);
    const auto list = [&os](const std::vector<double>& v) {
      os << '[';
      for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
      os << ']';
    };
    os << "{\"queries\":" << queries_ << ",\"answered\":" << answered_
       << ",\"mismatched\":" << mismatched_ << ",\"lost\":" << lost_
       << ",\"respond_calls\":" << respond_calls_ << ",\"respond_allocs\":" << respond_allocs_
       << ",\"updates\":" << updates_ << ",\"spans\":" << tracer_.spans.size()
       << ",\"traced_pps\":";
    list(traced_pps);
    os << ",\"untraced_pps\":";
    list(untraced_pps);
    os << '}';
    return os.str();
  }

 private:
  std::size_t entry_of(std::uint64_t seq) const {
    return static_cast<std::size_t>(seq % world_.corpus().size());
  }

  void client_send(std::size_t k) {
    tx_ids_.resize(k);
    tx_iov_.resize(2 * k);
    tx_hdrs_.assign(k, mmsghdr{});
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t seq = next_seq_++;
      const auto& wire = world_.corpus().entries()[entry_of(seq)].wire;
      const auto txid = static_cast<std::uint16_t>(seq & 0xFFFF);
      tx_ids_[i] = {static_cast<std::uint8_t>(txid >> 8), static_cast<std::uint8_t>(txid)};
      tx_iov_[2 * i] = iovec{tx_ids_[i].data(), 2};
      tx_iov_[2 * i + 1] = iovec{const_cast<std::uint8_t*>(wire.data()) + 2, wire.size() - 2};
      tx_hdrs_[i].msg_hdr.msg_iov = &tx_iov_[2 * i];
      tx_hdrs_[i].msg_hdr.msg_iovlen = 2;
    }
    for (std::size_t done = 0; done < k;) {
      const int r = ::sendmmsg(client_fd_, tx_hdrs_.data() + done,
                               static_cast<unsigned>(k - done), 0);
      if (r > 0) done += static_cast<std::size_t>(r);
    }
    queries_ += k;
  }

  std::int64_t req_of(std::span<const std::uint8_t> wire) const {
    // Transaction ids are the low 16 bits of the sequence number.
    const std::uint64_t txid = static_cast<std::uint64_t>(wire[0]) << 8 | wire[1];
    const std::uint64_t base = next_seq_ & ~std::uint64_t{0xFFFF};
    const std::uint64_t seq = base | txid;
    return static_cast<std::int64_t>(seq < next_seq_ ? seq : seq - 0x10000);
  }

  void respond(std::span<const std::uint8_t> wire, dns::QueryView& view, const Endpoint& client,
               Bytes& out, std::int64_t parent, std::int64_t req) {
    const auto hits = responder_->answer_cache().stats().hits.value();
    const auto allocs = g_allocs.load(std::memory_order_relaxed);
    const auto t = tracer_.start();
    responder_->respond_view_into(wire, view, client, sim_now(), out);
    const bool hit = responder_->answer_cache().stats().hits.value() != hits;
    tracer_.record(hit ? kRespondHit : kRespondMiss, t, parent, req);
    respond_allocs_ += g_allocs.load(std::memory_order_relaxed) - allocs;
    ++respond_calls_;
  }

  SimTime sim_now() const { return SimTime::from_nanos(now_ns() - epoch_); }

  /// One worker cycle over `k` queued datagrams; returns responses sent.
  std::size_t serve_batch(std::size_t k) {
    const std::int64_t root = tracer_.open(kBatchSpan);
    std::size_t received = 0;
    std::size_t want = 0;
    while (received < k) {
      auto t = tracer_.start();
      const int n = batch_.recv(server_fd_);
      tracer_.record(kRecv, t, root, -1);
      if (n <= 0) continue;
      received += static_cast<std::size_t>(n);
      for (int i = 0; i < n; ++i) {
        const auto wire = batch_.packet(static_cast<std::size_t>(i));
        const std::int64_t req = req_of(wire);
        t = tracer_.start();
        auto view = dns::decode_query_view(wire);
        tracer_.record(kDecode, t, root, req);
        if (!view) continue;
        const Endpoint client =
            net::endpoint_from_sockaddr(batch_.source(static_cast<std::size_t>(i)));
        if (!opts_.defense) {
          respond(wire, view.value(), client, batch_.response(static_cast<std::size_t>(i)), root,
                  req);
          ++want;
          continue;
        }
        server::QueryContext ctx;
        ctx.view = std::move(view).value();
        ctx.parsed = true;
        ctx.source = client;
        ctx.ip_ttl = 64;
        ctx.arrival = engine_.clock().now();
        t = tracer_.start();
        ctx.score = engine_.score(0, ctx.filter_view(ctx.arrival));
        tracer_.record(kScore, t, root, req);
        t = tracer_.start();
        ctx.wire = pool_->copy_of(wire);
        const double score = ctx.score;
        engine_.enqueue(0, std::move(ctx), score);
        tracer_.record(kEnqueue, t, root, req);
      }
      if (opts_.defense) want += release(root);
      t = tracer_.start();
      const std::size_t sent = want > 0 ? batch_.send(server_fd_) : 0;
      tracer_.record(kSend, t, root, -1);
      answered_ += sent;
      tracer_.close(root);
      return sent;
    }
    tracer_.close(root);
    return 0;
  }

  /// The defense release phase: answers every queued query into the
  /// batch's response slots (all queries share the client's address).
  std::size_t release(std::int64_t root) {
    if (!engine_.has_pending()) return 0;
    auto t = tracer_.start();
    const bool any = engine_.begin_phase();
    tracer_.record(kBeginPhase, t, root, -1);
    if (!any) return 0;
    std::size_t slot = 0;
    while (true) {
      t = tracer_.start();
      auto item = engine_.next(0);
      if (!item) {
        tracer_.record(kNext, t, root, -1);
        break;
      }
      const std::int64_t req = req_of(item->bytes());
      tracer_.record(kNext, t, root, req);
      Bytes& out = batch_.response(slot++);
      respond(item->bytes(), item->view, item->source, out, root, req);
      t = tracer_.start();
      engine_.observe_response(0, item->filter_view(engine_.clock().now()), rcode_of(out));
      tracer_.record(kObserve, t, root, req);
    }
    t = tracer_.start();
    engine_.end_phase();
    tracer_.record(kEndPhase, t, root, -1);
    return slot;
  }

  void client_receive(std::size_t expected) {
    std::size_t got = 0;
    rx_bufs_.resize(64);
    rx_iov_.resize(64);
    rx_hdrs_.resize(64);
    while (got < expected) {
      pollfd pfd{client_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 200) <= 0) break;
      for (std::size_t i = 0; i < rx_hdrs_.size(); ++i) {
        rx_iov_[i] = iovec{rx_bufs_[i].data(), rx_bufs_[i].size()};
        rx_hdrs_[i] = mmsghdr{};
        rx_hdrs_[i].msg_hdr.msg_iov = &rx_iov_[i];
        rx_hdrs_[i].msg_hdr.msg_iovlen = 1;
      }
      const int n = ::recvmmsg(client_fd_, rx_hdrs_.data(), static_cast<unsigned>(rx_hdrs_.size()),
                               MSG_DONTWAIT, nullptr);
      for (int i = 0; i < n; ++i) {
        const std::uint8_t* buf = rx_bufs_[i].data();
        const std::size_t len = rx_hdrs_[i].msg_len;
        ++got;
        if (len < 12) {
          ++mismatched_;
          continue;
        }
        const std::size_t e = entry_of(static_cast<std::uint64_t>(req_of({buf, len})));
        const int c = world_.churn_of(e);
        const Bytes& want =
            c < 0 ? world_.expected()[e] : churn_answers_[c][world_.churn_pos(e)];
        if (!perfbench::same_answer(buf, len, want)) ++mismatched_;
      }
    }
    lost_ += expected - std::min(expected, got);
  }

  /// The next churn-zone generation, published and adopted by every
  /// worker replica; the expected answers follow (outside any span).
  void update() {
    if (world_.churn().empty()) return;
    const std::size_t c = next_zone_;
    next_zone_ = (next_zone_ + 1) % world_.churn().size();
    const std::uint32_t gen = ++world_.churn()[c].gen;
    zone::Zone zone = world_.zone_at(c, gen);
    auto t = tracer_.start();
    const bool ok = static_cast<bool>(publisher_.publish(std::move(zone)));
    tracer_.record(kPublish, t, -1, -1);
    for (auto& sub : subscribers_) {
      t = tracer_.start();
      sub->poll(clock_.now());
      tracer_.record(kAdopt, t, -1, -1);
    }
    if (!ok) ++mismatched_;
    churn_answers_[c] = world_.answers_at(c, gen);
    ++updates_;
  }

  Options opts_;
  perfbench::World world_;
  MonotonicClock clock_;
  propagation::ZonePublisher publisher_;
  std::vector<std::unique_ptr<zone::ZoneStore>> replicas_;
  std::vector<std::unique_ptr<propagation::ZoneSubscriber>> subscribers_;
  std::unique_ptr<server::Responder> responder_;
  net::UdpBatch batch_;
  // Queued packets release into the pool; it must outlive the engine.
  std::unique_ptr<BufferPool> pool_;
  defense::DefenseEngine<server::QueryContext> engine_;
  std::vector<std::vector<Bytes>> churn_answers_;
  Tracer tracer_;
  int server_fd_ = -1, client_fd_ = -1;
  std::int64_t epoch_ = now_ns();
  std::uint64_t next_seq_ = 0, pass_first_ = 0;
  std::size_t next_zone_ = 0, since_update_ = 0;
  std::uint64_t queries_ = 0, answered_ = 0, mismatched_ = 0, lost_ = 0;
  std::uint64_t respond_calls_ = 0, respond_allocs_ = 0, updates_ = 0, sink_ = 0;
  std::vector<std::array<std::uint8_t, 2>> tx_ids_;
  std::vector<iovec> tx_iov_;
  std::vector<mmsghdr> tx_hdrs_;
  std::vector<std::array<std::uint8_t, 1500>> rx_bufs_;
  std::vector<iovec> rx_iov_;
  std::vector<mmsghdr> rx_hdrs_;
};

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    const auto count = [v] { return std::strtoull(v, nullptr, 10); };
    if (arg == "--zones") {
      opts.world.zones = count();
    } else if (arg == "--seed") {
      opts.world.seed = count();
    } else if (arg == "--corpus") {
      opts.world.corpus = count();
    } else if (arg == "--attack") {
      opts.world.attack = std::strtod(v, nullptr);
    } else if (arg == "--defense") {
      opts.defense = count() != 0;
    } else if (arg == "--penalty") {
      opts.penalty = std::strtod(v, nullptr);
    } else if (arg == "--threshold") {
      opts.threshold = count();
    } else if (arg == "--workers") {
      opts.workers = std::max<std::size_t>(1, count());
    } else if (arg == "--batch") {
      opts.batch = std::max<std::size_t>(1, count());
    } else if (arg == "--packets") {
      opts.packets = count();
    } else if (arg == "--update-every") {
      opts.update_every = count();
    } else if (arg == "--spans") {
      opts.spans_path = v;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (opts.spans_path.empty() || opts.packets == 0) {
    std::fprintf(stderr, "usage: %s --zones N --seed S --corpus C --packets P --spans PATH\n",
                 argv[0]);
    return 2;
  }

  Harness harness(opts);
  if (!harness.open_sockets()) {
    std::fprintf(stderr, "cannot open loopback sockets\n");
    return 1;
  }
  harness.pass(opts.packets, /*traced=*/false);  // warm the cache and filters
  std::vector<double> traced, untraced;
  for (int round = 0; round < 3; ++round) {
    traced.push_back(static_cast<double>(opts.packets) / harness.pass(opts.packets, true));
    untraced.push_back(static_cast<double>(opts.packets) / harness.pass(opts.packets, false));
  }
  // The last traced pass's spans stay; the probes append to them.
  harness.lookup_probe(opts.packets);
  harness.publish_probe(32);
  if (!harness.write_spans(opts.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", opts.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", harness.summary(traced, untraced).c_str());
  return 0;
}
