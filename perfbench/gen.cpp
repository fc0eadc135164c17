// perfbench-gen: the benchmark's open-loop load generator.
//
//   perfbench-gen --zones N --seed S --corpus C [--attack F] --zone-dir DIR
//
// Builds the World for (N, S) — the zones `akadns-serve --synthetic N
// --seed S` publishes — writes one master file per churn zone at
// generation 1 into DIR (the server loads them with --zone), prints one
// JSON ready line, then obeys commands on stdin, one per line, answering
// each with one JSON line on stdout:
//
//   target PORT PID          the server's UDP port, and the pid to SIGHUP
//   sockets LPORT:W ...      client source ports and the worker each reaches
//   run RATE SECONDS UPDATE_MS LAT_PATH LATE_PATH
//   quit
//
// `run` is one open-loop phase. Read i is due at start + i/RATE and goes
// out on socket i % sockets; its latency runs from the due time, not the
// send time, so a stall in the generator or the server is charged to
// every query it delays (no coordinated omission), and how late each send
// was is recorded separately. One thread sends and receives every read.
// Every answer is compared byte for byte with the World's expected answer.
// Transaction ids run on across phases, so an answer that outlives its
// read's timeout finds a free slot in the next phase instead of another
// read's. A read times out 200 ms after it was actually sent.
//
// With UPDATE_MS > 0 the phase also updates zones every UPDATE_MS, from a
// seeded offset: the next churn zone's file is replaced by its next
// generation and the server gets SIGHUP, then that zone is probed on every
// worker's flow every 0.5 ms until each returns the new bytes. The fixed
// spacing is not a multiple of the server's 50 ms reload poll, so the
// updates sweep its phase evenly and the visibility median is steady. A
// second thread does the rename and the kill, so file-system latency
// never stalls the reads. A read of a churn zone, or a probe, may carry
// any generation from the newest one every worker had been seen serving
// when it was sent up to the newest one issued: however far the server
// (or a stalled generator) lags, an older answer is never accepted and a
// newer one never rejected. Legit latencies and send lateness
// (microseconds, float64) go to LAT_PATH / LATE_PATH.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "world.hpp"

namespace {

using perfbench::Bytes;

constexpr std::size_t kBatch = 32;
constexpr std::uint16_t kProbeBit = 0x8000;
constexpr std::size_t kSlots = 0x8000;  // read transaction ids per socket
constexpr std::int64_t kReadTimeoutNs = 200'000'000;
constexpr std::int64_t kProbeIntervalNs = 500'000;
constexpr std::int64_t kUpdateTimeoutNs = 3'000'000'000;
constexpr std::size_t kStopOperator = SIZE_MAX;

std::int64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Client {
  int fd = -1;
  std::size_t worker = 0;
};

struct ClassCount {
  std::uint64_t sent = 0, answered = 0, mismatched = 0, timed_out = 0;
  void json(std::ostream& os, const char* name) const {
    os << '"' << name << "\":{\"sent\":" << sent << ",\"answered\":" << answered
       << ",\"mismatched\":" << mismatched << ",\"timed_out\":" << timed_out << '}';
  }
};

struct Update {
  std::size_t zone = 0;
  std::uint32_t gen = 0;    // the generation this update installs
  std::size_t plan = 0;     // index into the phase's planned updates
  std::int64_t issued = 0;  // 0 until the operator has issued it
  std::int64_t next_probe = 0;
  std::vector<std::int64_t> visible;  // per worker, -1 until seen
  bool done = false;
};

struct Probe {
  std::size_t update = SIZE_MAX;
  std::size_t worker = 0;
  std::uint32_t floor = 0;  // the zone's confirmed generation at send
};

class Generator {
 public:
  Generator(perfbench::World& world, std::string zone_dir, std::uint64_t seed)
      : world_(world), zone_dir_(std::move(zone_dir)), rng_(seed ^ 0x5eedULL) {
    const std::size_t k = world_.churn().size();
    history_.resize(k);
    confirmed_.assign(k, 1);
    for (std::size_t c = 0; c < k; ++c) {
      std::vector<Bytes> gen1;
      for (const std::size_t e : world_.churn()[c].entries) gen1.push_back(world_.expected()[e]);
      history_[c].push_back(std::move(gen1));
    }
    cursor_ = rng_.next_u64() % world_.corpus().size();
  }

  ~Generator() {
    for (auto& c : clients_) ::close(c.fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  std::string zone_file(std::size_t c) const {
    return zone_dir_ + "/churn" + std::to_string(c) + ".zone";
  }

  /// Writes `text` beside churn zone `c`'s file, under `staged`; the
  /// update itself is then one rename() (atomic for the server's reader,
  /// and cheap enough not to stall the send loop).
  bool stage_zone(const std::string& staged, const std::string& text) const {
    std::ofstream out(staged, std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
  }
  bool install_zone(std::size_t c, const std::string& staged) const {
    return ::rename(staged.c_str(), zone_file(c).c_str()) == 0;
  }

  void set_target(std::uint16_t port, pid_t pid) {
    port_ = port;
    pid_ = pid;
  }

  std::string set_sockets(const std::vector<std::pair<std::uint16_t, std::size_t>>& ports) {
    for (auto& c : clients_) ::close(c.fd);
    clients_.clear();
    workers_ = 0;
    for (const auto& [lport, worker] : ports) {
      const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) return "socket failed";
      const int buf = 1 << 22;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
      sockaddr_in local{};
      local.sin_family = AF_INET;
      local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      local.sin_port = htons(lport);
      sockaddr_in remote = local;
      remote.sin_port = htons(port_);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&local), sizeof(local)) != 0 ||
          ::connect(fd, reinterpret_cast<sockaddr*>(&remote), sizeof(remote)) != 0) {
        ::close(fd);
        return std::string("bind/connect failed: ") + std::strerror(errno);
      }
      clients_.push_back(Client{fd, worker});
      workers_ = std::max(workers_, worker + 1);
    }
    return {};
  }

  std::string run(double rate, double seconds, double update_ms, const std::string& lat_path,
                  const std::string& late_path);

 private:
  // Sends `n` reads starting at sequence `first`, spread over the sockets.
  void send_reads(std::uint64_t first, std::uint64_t n, std::int64_t now);
  void receive();
  void on_read_answer(std::size_t s, const std::uint8_t* buf, std::size_t len, std::int64_t now);
  void on_probe_answer(const std::uint8_t* buf, std::size_t len, std::int64_t now);
  // The operator: on its own thread, for each update the generator thread
  // requests, renames the staged zone file into place and SIGHUPs the
  // server, so file-system latency never stalls the read schedule.
  void operate(std::size_t count);
  // Generator thread, at an update's planned time: switch the expected
  // answers to the new generation and hand the update to the operator.
  void start_update(std::size_t j);
  void send_probes(std::int64_t now);
  void expire(std::int64_t now, bool all);

  std::size_t entry_of(std::uint64_t seq) const {
    return static_cast<std::size_t>((cursor_ + seq) % world_.corpus().size());
  }
  std::int64_t due(std::uint64_t seq) const {
    return t0_ + static_cast<std::int64_t>(static_cast<double>(seq) * 1e9 / rate_);
  }
  std::int64_t sent_at(std::uint64_t seq) const {
    return due(seq) + static_cast<std::int64_t>(late_us_[seq] * 1e3);
  }
  // Socket and transaction id of read `seq` of this phase.
  std::size_t socket_of(std::uint64_t seq) const {
    return static_cast<std::size_t>(seq % clients_.size());
  }
  std::uint16_t txid_of(std::uint64_t seq) const {
    return static_cast<std::uint16_t>((txid_base_ + seq / clients_.size()) % kSlots);
  }
  // The generation of churn zone `c` that entry position `pos`'s answer
  // `buf` carries, searched from the newest down to `floor`; 0 if none.
  std::uint32_t generation_of(std::size_t c, std::size_t pos, std::uint32_t floor,
                              const std::uint8_t* buf, std::size_t len) const {
    const std::uint32_t newest = world_.churn()[c].gen;
    const auto& tables = history_[c];
    for (std::size_t i = 0; i < tables.size() && newest - i >= floor; ++i) {
      if (perfbench::same_answer(buf, len, tables[i][pos])) {
        return newest - static_cast<std::uint32_t>(i);
      }
    }
    return 0;
  }
  bool matches(std::size_t entry, std::uint32_t floor, const std::uint8_t* buf,
               std::size_t len) const {
    const int c = world_.churn_of(entry);
    if (c < 0) return perfbench::same_answer(buf, len, world_.expected()[entry]);
    return generation_of(static_cast<std::size_t>(c), world_.churn_pos(entry), floor, buf,
                         len) != 0;
  }
  // Describes a wrong answer on stderr (the first few of each phase).
  void report_mismatch(std::size_t entry, const std::uint8_t* buf, std::size_t len) {
    if (++mismatch_reports_ > 5) return;
    const int c = world_.churn_of(entry);
    const Bytes& want = c < 0 ? world_.expected()[entry]
                              : history_[c].front()[world_.churn_pos(entry)];
    const auto hex = [](const std::uint8_t* p, std::size_t n) {
      std::string out;
      char byte[3];
      for (std::size_t i = 0; i < n; ++i) {
        std::snprintf(byte, sizeof byte, "%02x", p[i]);
        out += byte;
      }
      return out;
    };
    const std::string got_hex = hex(buf, len), want_hex = hex(want.data(), want.size());
    std::fprintf(stderr,
                 "mismatch: entry %zu (%s, churn zone %d, generation %u)\n"
                 "  got  %s\n  want %s\n",
                 entry, world_.corpus().entries()[entry].is_attack ? "attack" : "legit", c,
                 c < 0 ? 0u : world_.churn()[static_cast<std::size_t>(c)].gen, got_hex.c_str(),
                 want_hex.c_str());
  }
  ClassCount& klass(std::size_t entry) {
    return world_.corpus().entries()[entry].is_attack ? attack_ : legit_;
  }

  perfbench::World& world_;
  std::string zone_dir_;
  akadns::Rng rng_;
  std::uint16_t port_ = 0;
  pid_t pid_ = 0;
  std::vector<Client> clients_;
  std::size_t workers_ = 0;
  std::uint64_t cursor_ = 0;
  std::uint64_t txid_base_ = 0;
  std::size_t next_zone_ = 0;
  // Expected answers of each churn zone's entries per generation, newest
  // (world_.churn()[c].gen) first, down to at least confirmed_[c]: a read
  // in flight across an update, or answered by a worker that has not
  // adopted it yet, carries an older one.
  std::vector<std::deque<std::vector<Bytes>>> history_;
  // Per churn zone, the newest generation every worker has been seen
  // serving; no worker can answer with an older one afterwards.
  std::vector<std::uint32_t> confirmed_;

  // ---- per-phase state ----
  double rate_ = 1.0;
  std::int64_t t0_ = 0;
  std::uint64_t sent_ = 0, oldest_ = 0;
  std::vector<std::vector<std::uint64_t>> slots_;  // seq + 1, 0 = free
  // Per slot, the read's zone's confirmed generation when it was sent.
  std::vector<std::vector<std::uint32_t>> floors_;
  ClassCount legit_, attack_;
  std::uint64_t unexpected_ = 0, send_errors_ = 0, mismatch_reports_ = 0;
  std::vector<double> latencies_us_, late_us_;
  // Updates planned for this phase: zone, generation, answers, file text.
  struct Planned {
    std::size_t zone;
    std::uint32_t gen;
    std::vector<Bytes> answers;
    std::string staged;  // master file at `gen`, renamed into place on issue
    std::int64_t at;
  };
  std::vector<Planned> planned_;
  // Per planned update: 0 until issued, then the issue time (-1: failed).
  std::unique_ptr<std::atomic<std::int64_t>[]> issued_;
  // Updates handed to the operator so far (kStopOperator: stop).
  std::atomic<std::size_t> requested_{0};
  std::vector<Update> updates_;
  std::vector<Probe> probe_of_;  // by probe txid
  std::uint64_t probe_seq_ = 0, probes_sent_ = 0, probe_mismatched_ = 0;
  std::uint64_t updates_failed_ = 0;
  std::vector<double> visible_ms_;
  // Send scatter/gather storage, per socket, reused across calls.
  std::vector<std::vector<mmsghdr>> tx_hdrs_;
  std::vector<std::vector<iovec>> tx_iovs_;
  std::vector<std::vector<std::array<std::uint8_t, 2>>> tx_ids_;
  // Receive storage.
  std::vector<std::array<std::uint8_t, 1500>> rx_bufs_ =
      std::vector<std::array<std::uint8_t, 1500>>(64);
  std::vector<iovec> rx_iov_ = std::vector<iovec>(64);
  std::vector<mmsghdr> rx_hdrs_ = std::vector<mmsghdr>(64);
  std::vector<pollfd> pfds_;
};

void Generator::send_reads(std::uint64_t first, std::uint64_t n, std::int64_t now) {
  const std::size_t k = clients_.size();
  // At most kBatch reads per socket per call, so the reserved capacity
  // never reallocates under the iovec pointers taken below.
  auto& hdrs = tx_hdrs_;
  auto& iovs = tx_iovs_;
  auto& ids = tx_ids_;
  hdrs.resize(k);
  iovs.resize(k);
  ids.resize(k);
  for (std::size_t s = 0; s < k; ++s) {
    hdrs[s].clear();
    iovs[s].clear();
    ids[s].clear();
    hdrs[s].reserve(kBatch);
    iovs[s].reserve(2 * kBatch);
    ids[s].reserve(kBatch);
  }
  for (std::uint64_t seq = first; seq < first + n; ++seq) {
    const std::size_t s = socket_of(seq);
    const std::uint16_t txid = txid_of(seq);
    auto& slot = slots_[s][txid];
    if (slot != 0) {  // an older read still unanswered in this slot
      ++klass(entry_of(slot - 1)).timed_out;
    }
    slot = seq + 1;
    const int c = world_.churn_of(entry_of(seq));
    floors_[s][txid] = c < 0 ? 0 : confirmed_[static_cast<std::size_t>(c)];
    const auto& wire = world_.corpus().entries()[entry_of(seq)].wire;
    ids[s].push_back({static_cast<std::uint8_t>(txid >> 8), static_cast<std::uint8_t>(txid)});
    iovs[s].push_back(iovec{ids[s].back().data(), 2});
    iovs[s].push_back(iovec{const_cast<std::uint8_t*>(wire.data()) + 2, wire.size() - 2});
    mmsghdr h{};
    h.msg_hdr.msg_iov = &iovs[s][iovs[s].size() - 2];
    h.msg_hdr.msg_iovlen = 2;
    hdrs[s].push_back(h);
    ++klass(entry_of(seq)).sent;
    late_us_.push_back(static_cast<double>(now - due(seq)) / 1e3);
  }
  for (std::size_t s = 0; s < k; ++s) {
    std::size_t done = 0;
    while (done < hdrs[s].size()) {
      const int r = ::sendmmsg(clients_[s].fd, hdrs[s].data() + done,
                               static_cast<unsigned>(hdrs[s].size() - done), 0);
      if (r > 0) {
        done += static_cast<std::size_t>(r);
      } else if (r < 0 && errno != EAGAIN && errno != EINTR) {
        send_errors_ += hdrs[s].size() - done;
        break;
      }
    }
  }
}

void Generator::on_read_answer(std::size_t s, const std::uint8_t* buf, std::size_t len,
                               std::int64_t now) {
  const std::uint16_t txid = static_cast<std::uint16_t>(buf[0] << 8 | buf[1]);
  auto& slot = slots_[s][txid];
  if (slot == 0) {
    ++unexpected_;  // answered after its timeout
    return;
  }
  const std::uint64_t seq = slot - 1;
  slot = 0;
  const std::size_t e = entry_of(seq);
  auto& cls = klass(e);
  ++cls.answered;
  if (!matches(e, floors_[s][txid], buf, len)) {
    ++cls.mismatched;
    report_mismatch(e, buf, len);
    return;
  }
  if (!world_.corpus().entries()[e].is_attack) {
    latencies_us_.push_back(static_cast<double>(now - due(seq)) / 1e3);
  }
}

void Generator::on_probe_answer(const std::uint8_t* buf, std::size_t len, std::int64_t now) {
  const std::uint16_t txid = static_cast<std::uint16_t>(buf[0] << 8 | buf[1]) & ~kProbeBit;
  const Probe probe = probe_of_[txid];
  if (probe.update >= updates_.size()) return;
  Update& up = updates_[probe.update];
  const std::uint32_t got =
      generation_of(up.zone, world_.churn()[up.zone].probe_pos, probe.floor, buf, len);
  if (got == 0) {
    ++probe_mismatched_;
  } else if (got >= up.gen && up.visible[probe.worker] < 0) {
    up.visible[probe.worker] = now;
  }
  if (!up.done && std::all_of(up.visible.begin(), up.visible.end(),
                              [](std::int64_t v) { return v >= 0; })) {
    up.done = true;
    confirmed_[up.zone] = std::max(confirmed_[up.zone], up.gen);
    const auto last = *std::max_element(up.visible.begin(), up.visible.end());
    visible_ms_.push_back(static_cast<double>(last - up.issued) / 1e6);
  }
}

void Generator::receive() {
  auto& bufs = rx_bufs_;
  auto& iov = rx_iov_;
  auto& hdrs = rx_hdrs_;
  // One poll() over every socket, then recvmmsg only where data waits:
  // the generator's own syscalls are what limits the rate it can offer.
  pfds_.resize(clients_.size());
  for (std::size_t s = 0; s < clients_.size(); ++s) pfds_[s] = pollfd{clients_[s].fd, POLLIN, 0};
  if (::poll(pfds_.data(), pfds_.size(), 0) <= 0) return;
  for (std::size_t s = 0; s < clients_.size(); ++s) {
    if (!(pfds_[s].revents & POLLIN)) continue;
    while (true) {
      for (std::size_t i = 0; i < hdrs.size(); ++i) {
        iov[i] = iovec{bufs[i].data(), bufs[i].size()};
        hdrs[i] = mmsghdr{};
        hdrs[i].msg_hdr.msg_iov = &iov[i];
        hdrs[i].msg_hdr.msg_iovlen = 1;
      }
      const int n = ::recvmmsg(clients_[s].fd, hdrs.data(), static_cast<unsigned>(hdrs.size()),
                               MSG_DONTWAIT, nullptr);
      if (n <= 0) break;
      const std::int64_t t = mono_ns();
      for (int i = 0; i < n; ++i) {
        const std::size_t len = hdrs[i].msg_len;
        const std::uint8_t* buf = bufs[i].data();
        if (len < 12) {
          ++unexpected_;
        } else if (buf[0] & 0x80) {
          on_probe_answer(buf, len, t);
        } else {
          on_read_answer(s, buf, len, t);
        }
      }
      if (static_cast<std::size_t>(n) < hdrs.size()) break;
    }
  }
}

void Generator::operate(std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
    std::size_t requested = requested_.load(std::memory_order_acquire);
    while (requested <= j) {
      requested_.wait(requested, std::memory_order_acquire);
      requested = requested_.load(std::memory_order_acquire);
    }
    if (requested == kStopOperator) return;
    const Planned& p = planned_[j];
    const std::int64_t start = mono_ns();
    const bool ok = install_zone(p.zone, p.staged) && ::kill(pid_, SIGHUP) == 0;
    issued_[j].store(ok ? start : -1, std::memory_order_release);
  }
}

void Generator::start_update(std::size_t j) {
  Planned& p = planned_[j];
  Update up;
  up.zone = p.zone;
  up.gen = p.gen;
  up.plan = j;
  up.visible.assign(workers_, -1);
  // The expected answers move before the file does, so no answer of the
  // new generation can arrive ahead of them.
  history_[p.zone].push_front(std::move(p.answers));
  world_.churn()[p.zone].gen = p.gen;
  next_zone_ = (p.zone + 1) % world_.churn().size();
  updates_.push_back(std::move(up));
  requested_.store(j + 1, std::memory_order_release);
  requested_.notify_one();
}

void Generator::send_probes(std::int64_t now) {
  for (std::size_t u = 0; u < updates_.size(); ++u) {
    Update& up = updates_[u];
    if (up.done) continue;
    if (up.issued == 0) {
      up.issued = issued_[up.plan].load(std::memory_order_acquire);
      if (up.issued == 0) continue;  // the operator is still at it
      if (up.issued < 0) {
        up.done = true;
        ++updates_failed_;
        continue;
      }
      up.next_probe = up.issued;
    }
    if (now < up.next_probe) continue;
    if (now - up.issued > kUpdateTimeoutNs) {
      up.done = true;
      ++updates_failed_;
      continue;
    }
    up.next_probe = now + kProbeIntervalNs;
    const perfbench::ChurnZone& cz = world_.churn()[up.zone];
    const auto& entry = world_.corpus().entries()[cz.entries[cz.probe_pos]];
    for (std::size_t w = 0; w < workers_; ++w) {
      if (up.visible[w] >= 0) continue;
      const auto it = std::find_if(clients_.begin(), clients_.end(),
                                   [w](const Client& c) { return c.worker == w; });
      const auto txid = static_cast<std::uint16_t>(probe_seq_++ % kSlots);
      probe_of_[txid] = Probe{u, w, confirmed_[up.zone]};
      Bytes wire = entry.wire;
      wire[0] = static_cast<std::uint8_t>((txid | kProbeBit) >> 8);
      wire[1] = static_cast<std::uint8_t>(txid);
      if (::send(it->fd, wire.data(), wire.size(), 0) > 0) ++probes_sent_;
    }
  }
}

void Generator::expire(std::int64_t now, bool all) {
  while (oldest_ < sent_ && (all || sent_at(oldest_) + kReadTimeoutNs < now)) {
    auto& slot = slots_[socket_of(oldest_)][txid_of(oldest_)];
    if (slot == oldest_ + 1) {
      ++klass(entry_of(oldest_)).timed_out;
      slot = 0;
    }
    ++oldest_;
  }
}

std::string Generator::run(double rate, double seconds, double update_ms,
                           const std::string& lat_path, const std::string& late_path) {
  if (clients_.empty()) return "{\"error\":\"no sockets\"}";
  rate_ = rate;
  const auto total = static_cast<std::uint64_t>(std::llround(rate * seconds));
  slots_.assign(clients_.size(), std::vector<std::uint64_t>(kSlots, 0));
  floors_.assign(clients_.size(), std::vector<std::uint32_t>(kSlots, 0));
  // Nothing of the last phase is in flight any more: generations older
  // than every worker's are of no use.
  for (std::size_t c = 0; c < history_.size(); ++c) {
    while (world_.churn()[c].gen + 1 - history_[c].size() < confirmed_[c]) history_[c].pop_back();
  }
  legit_ = {};
  attack_ = {};
  unexpected_ = send_errors_ = mismatch_reports_ = 0;
  latencies_us_.clear();
  late_us_.clear();
  latencies_us_.reserve(total);
  late_us_.reserve(total);
  sent_ = oldest_ = 0;
  updates_.clear();
  visible_ms_.clear();
  probe_of_.assign(kSlots, Probe{});
  probes_sent_ = probe_mismatched_ = updates_failed_ = 0;

  // Plan the phase's updates before the clock starts, so computing the
  // new answers never stalls the send loop.
  planned_.clear();
  const std::int64_t span_ns = static_cast<std::int64_t>(seconds * 1e9);
  if (update_ms > 0 && !world_.churn().empty()) {
    std::vector<std::uint32_t> gen(world_.churn().size());
    for (std::size_t c = 0; c < gen.size(); ++c) gen[c] = world_.churn()[c].gen;
    const auto interval = static_cast<std::int64_t>(update_ms * 1e6);
    std::int64_t at =
        static_cast<std::int64_t>(rng_.next_below(static_cast<std::uint64_t>(interval)));
    std::size_t zone = next_zone_;
    while (true) {
      at += interval;
      if (at >= span_ns) break;
      const std::uint32_t g = ++gen[zone];
      const std::string staged = zone_file(zone) + ".g" + std::to_string(g);
      if (!stage_zone(staged, world_.master_file(zone, g))) {
        return "{\"error\":\"cannot stage zone file\"}";
      }
      planned_.push_back(Planned{zone, g, world_.answers_at(zone, g), staged, at});
      zone = (zone + 1) % gen.size();
    }
  }

  t0_ = mono_ns() + 2'000'000;
  for (auto& p : planned_) p.at += t0_;
  issued_ = std::make_unique<std::atomic<std::int64_t>[]>(planned_.size());
  for (std::size_t j = 0; j < planned_.size(); ++j) issued_[j].store(0);
  requested_.store(0);
  std::thread operator_thread([this, n = planned_.size()] { operate(n); });
  std::size_t next_update = 0;
  const std::int64_t end = t0_ + span_ns;
  std::int64_t last_send = t0_;
  while (true) {
    const std::int64_t now = mono_ns();
    if (now >= t0_ && sent_ < total) {
      const auto due_n = std::min<std::uint64_t>(
          total, static_cast<std::uint64_t>(static_cast<double>(now - t0_) * rate / 1e9) + 1);
      while (sent_ < due_n) {
        const std::uint64_t n = std::min<std::uint64_t>(due_n - sent_, kBatch * clients_.size());
        send_reads(sent_, n, now);
        sent_ += n;
      }
      last_send = now;
    }
    if (next_update < planned_.size() && now >= planned_[next_update].at) {
      start_update(next_update++);
    }
    send_probes(now);
    receive();
    expire(now, false);
    const bool reads_done = sent_ >= total && oldest_ >= sent_;
    const bool updates_done =
        next_update >= planned_.size() &&
        std::all_of(updates_.begin(), updates_.end(), [](const Update& u) { return u.done; });
    if (now >= end && reads_done && updates_done) break;
    if (now >= end + kUpdateTimeoutNs + kReadTimeoutNs) {
      expire(now, true);
      for (auto& u : updates_) {
        if (!u.done) ++updates_failed_;
        u.done = true;
      }
      break;
    }
  }
  requested_.store(kStopOperator, std::memory_order_release);
  requested_.notify_one();
  operator_thread.join();
  cursor_ = (cursor_ + total) % world_.corpus().size();
  txid_base_ += (total + clients_.size() - 1) / clients_.size();

  const auto dump = [](const std::string& path, const std::vector<double>& v) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(double)));
    return static_cast<bool>(out);
  };
  if (!dump(lat_path, latencies_us_) || !dump(late_path, late_us_)) {
    return "{\"error\":\"cannot write samples\"}";
  }
  std::ostringstream os;
  os.precision(9);
  os << "{\"reads\":" << total << ",\"send_s\":" << static_cast<double>(last_send - t0_) / 1e9
     << ',';
  legit_.json(os, "legit");
  os << ',';
  attack_.json(os, "attack");
  os << ",\"unexpected\":" << unexpected_ << ",\"send_errors\":" << send_errors_
     << ",\"updates\":" << updates_.size() << ",\"updates_failed\":" << updates_failed_
     << ",\"probes\":" << probes_sent_ << ",\"probe_mismatched\":" << probe_mismatched_
     << ",\"visible_ms\":[";
  for (std::size_t i = 0; i < visible_ms_.size(); ++i) os << (i ? "," : "") << visible_ms_[i];
  os << "]}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::WorldConfig config;
  std::string zone_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--zones") {
      config.zones = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--corpus") {
      config.corpus = std::strtoull(v, nullptr, 10);
    } else if (arg == "--attack") {
      config.attack = std::strtod(v, nullptr);
    } else if (arg == "--zone-dir") {
      zone_dir = v;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (zone_dir.empty() || config.zones == 0 || config.corpus == 0) {
    std::fprintf(stderr, "usage: %s --zones N --seed S --corpus C [--attack F] --zone-dir DIR\n",
                 argv[0]);
    return 2;
  }

  perfbench::World world(config);
  Generator gen(world, zone_dir, config.seed);
  std::ostringstream ready;
  ready << "{\"ready\":true,\"entries\":" << world.corpus().size()
        << ",\"attack_entries\":" << world.corpus().attack_count() << ",\"zone_files\":[";
  for (std::size_t c = 0; c < world.churn().size(); ++c) {
    const std::string staged = gen.zone_file(c) + ".g1";
    if (!gen.stage_zone(staged, world.master_file(c, 1)) || !gen.install_zone(c, staged)) {
      std::fprintf(stderr, "cannot write %s\n", gen.zone_file(c).c_str());
      return 1;
    }
    ready << (c ? "," : "") << '"' << gen.zone_file(c) << '"';
  }
  ready << "]}";
  std::cout << ready.str() << std::endl;

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "quit") break;
    if (cmd == "target") {
      unsigned port = 0;
      long pid = 0;
      in >> port >> pid;
      gen.set_target(static_cast<std::uint16_t>(port), static_cast<pid_t>(pid));
      std::cout << "{\"ok\":true}" << std::endl;
    } else if (cmd == "sockets") {
      std::vector<std::pair<std::uint16_t, std::size_t>> ports;
      std::string tok;
      while (in >> tok) {
        const auto colon = tok.find(':');
        if (colon == std::string::npos) continue;
        ports.emplace_back(static_cast<std::uint16_t>(std::stoul(tok.substr(0, colon))),
                           std::stoul(tok.substr(colon + 1)));
      }
      const std::string err = gen.set_sockets(ports);
      std::cout << (err.empty() ? "{\"ok\":true}" : "{\"error\":\"" + err + "\"}") << std::endl;
    } else if (cmd == "run") {
      double rate = 0, seconds = 0, update_ms = 0;
      std::string lat, late;
      in >> rate >> seconds >> update_ms >> lat >> late;
      if (rate <= 0 || seconds <= 0 || late.empty()) {
        std::cout << "{\"error\":\"bad run command\"}" << std::endl;
        continue;
      }
      std::cout << gen.run(rate, seconds, update_ms, lat, late) << std::endl;
    } else {
      std::cout << "{\"error\":\"unknown command\"}" << std::endl;
    }
  }
  return 0;
}
