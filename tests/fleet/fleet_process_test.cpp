// Real-process supervision: fork/exec the actual akadns-serve binary
// (path injected at compile time), handshake via the ready line, kill
// it, and watch the supervisor repopulate the PoP. This is the one test
// layer where the subject is a process, not a class.

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dns/wire.hpp"
#include "fleet/machine_process.hpp"
#include "fleet/supervisor.hpp"
#include "net/socket.hpp"

#ifndef AKADNS_SERVE_BIN
#error "AKADNS_SERVE_BIN must point at the akadns-serve binary"
#endif

namespace akadns::fleet {
namespace {

SpawnSpec tiny_serve(const std::string& id) {
  SpawnSpec spec;
  spec.id = id;
  spec.binary = AKADNS_SERVE_BIN;
  spec.args = {"--synthetic", "5",  "--seed",       "3", "--workers", "1",
               "--port",      "0",  "--stats-port", "0"};
  return spec;
}

TEST(MachineProcess, HandshakeReportsEphemeralPortsAndExitsClean) {
  MachineProcess machine(tiny_serve("m0"));
  auto spawned = machine.spawn();
  ASSERT_TRUE(spawned) << spawned.error();
  ASSERT_TRUE(machine.wait_ready(15000)) << "no ready line within budget";

  ASSERT_TRUE(machine.ready().has_value());
  const net::ReadyLine& ready = *machine.ready();
  EXPECT_GT(ready.pid, 0);
  EXPECT_EQ(ready.pid, static_cast<std::int64_t>(machine.pid()));
  EXPECT_NE(ready.udp_port, 0);   // --port 0 resolved to a real bind
  EXPECT_NE(ready.tcp_port, 0);
  EXPECT_NE(ready.stats_port, 0);
  EXPECT_EQ(ready.zones, 5u);
  EXPECT_EQ(ready.workers, 1u);

  EXPECT_TRUE(machine.send_signal(SIGTERM));
  ASSERT_TRUE(machine.wait_exit(10000));
  EXPECT_EQ(machine.exit_code(), 0);
  EXPECT_EQ(machine.term_signal(), 0);
}

// Holds a daemon's drain open: a TCP client that pipelines queries and
// never reads leaves more response bytes owed (~9 MB of REFUSED answers)
// than the loopback buffers absorb (the server's send buffer tops out at
// tcp_wmem's 4 MiB), so the drain waits for its 5 s deadline. Returns
// the client socket; closing it releases the drain.
int stall_drain(std::uint16_t tcp_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_storage dst{};
  const socklen_t len =
      net::sockaddr_from_endpoint(Endpoint{IpAddr(Ipv4Addr(127, 0, 0, 1)), tcp_port}, dst);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&dst), len), 0);
  const std::string label(60, 'x');  // a ~250-byte qname: ~270-byte answers
  const auto wire = dns::encode(dns::make_query(
      1, dns::DnsName::from(label + "." + label + "." + label + "." + label + ".invalid"),
      dns::RecordType::A));
  std::vector<std::uint8_t> frames;
  for (int i = 0; i < 32768; ++i) {
    frames.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
    frames.push_back(static_cast<std::uint8_t>(wire.size() & 0xff));
    frames.insert(frames.end(), wire.begin(), wire.end());
  }
  for (std::size_t off = 0; off < frames.size();) {
    const ssize_t n = ::send(fd, frames.data() + off, frames.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  return fd;
}

TEST(MachineProcess, SecondSigtermForcesImmediateExitCode3) {
  MachineProcess machine(tiny_serve("m0"));
  auto spawned = machine.spawn();
  ASSERT_TRUE(spawned) << spawned.error();
  ASSERT_TRUE(machine.wait_ready(15000));
  const int client = stall_drain(machine.ready()->tcp_port);

  // Idempotent-but-escalating: the first SIGTERM begins the drain, an
  // impatient second one must not be swallowed — it forces _exit(3).
  // The daemon wakes on the first signal at once; the unread TCP answers
  // keep its drain running, so the second lands mid-drain (and after the
  // first was delivered: undelivered standard signals coalesce).
  EXPECT_TRUE(machine.send_signal(SIGTERM));
  EXPECT_FALSE(machine.wait_exit(200)) << "drain finished before the second SIGTERM";
  EXPECT_TRUE(machine.send_signal(SIGTERM));
  ASSERT_TRUE(machine.wait_exit(10000));
  EXPECT_EQ(machine.exit_code(), 3);
  ::close(client);
}

TEST(MachineProcess, SigkillIsReportedAsSignalDeath) {
  MachineProcess machine(tiny_serve("m0"));
  auto spawned = machine.spawn();
  ASSERT_TRUE(spawned) << spawned.error();
  ASSERT_TRUE(machine.wait_ready(15000));

  EXPECT_TRUE(machine.send_signal(SIGKILL));
  ASSERT_TRUE(machine.wait_exit(10000));
  EXPECT_EQ(machine.exit_code(), -1);
  EXPECT_EQ(machine.term_signal(), SIGKILL);
  // The handshake survives into Exited: the supervisor logs the dead
  // machine's last known ports.
  EXPECT_TRUE(machine.ready().has_value());
}

TEST(Supervisor, RestartsAKilledMachineOnFreshPorts) {
  SupervisorConfig config;
  config.serve_binary = AKADNS_SERVE_BIN;
  config.machines = 2;
  config.common_args = {"--synthetic", "5", "--seed", "3", "--workers", "1",
                        "--stats-port", "0"};
  config.backoff_min_ms = 100;

  std::vector<Supervisor::Event> events;
  Supervisor supervisor(config, [&](const Supervisor::Event& event) {
    events.push_back(event);
  });
  auto started = supervisor.start();
  ASSERT_TRUE(started) << started.error();
  ASSERT_EQ(events.size(), 2u);  // both Up
  EXPECT_EQ(supervisor.up_count(), 2u);

  // Drill: kill machine 0 and poll until the supervisor brings it back.
  ASSERT_TRUE(supervisor.signal_machine(0, SIGKILL));
  bool restarted = false;
  for (int i = 0; i < 1500 && !restarted; ++i) {
    supervisor.poll();
    for (const auto& event : events) {
      if (event.kind == Supervisor::EventKind::Up && event.index == 0 &&
          event.restarts == 1) {
        restarted = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(restarted) << "machine 0 never came back";
  EXPECT_EQ(supervisor.restarts(0), 1u);
  EXPECT_EQ(supervisor.up_count(), 2u);

  // The Down event recorded the signal death; the replacement reported
  // a usable (almost certainly different) port in its fresh handshake.
  bool saw_down = false;
  for (const auto& event : events) {
    if (event.kind == Supervisor::EventKind::Down && event.index == 0) {
      saw_down = true;
      EXPECT_EQ(event.term_signal, SIGKILL);
    }
  }
  EXPECT_TRUE(saw_down);
  ASSERT_TRUE(supervisor.machine(0).ready().has_value());
  EXPECT_NE(supervisor.machine(0).ready()->udp_port, 0);

  // The cross-thread view agrees with the direct slot access.
  const auto views = supervisor.snapshot();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].id, "m0");
  EXPECT_EQ(views[0].state, MachineProcess::State::Ready);
  EXPECT_EQ(views[0].restarts, 1u);
  ASSERT_TRUE(views[0].ready.has_value());
  EXPECT_EQ(views[0].ready->udp_port, supervisor.machine(0).ready()->udp_port);

  supervisor.stop();
  EXPECT_EQ(supervisor.up_count(), 0u);
  for (std::size_t i = 0; i < supervisor.size(); ++i) {
    EXPECT_EQ(supervisor.machine(i).state(), MachineProcess::State::Exited);
    EXPECT_EQ(supervisor.machine(i).exit_code(), 0) << "machine " << i
                                                    << " did not drain cleanly";
  }
}

TEST(Supervisor, StartFailureNamesTheBrokenMachine) {
  SupervisorConfig config;
  config.serve_binary = "/nonexistent/akadns-serve";
  config.machines = 2;
  config.ready_timeout_ms = 2000;

  Supervisor supervisor(config, [](const Supervisor::Event&) {});
  auto started = supervisor.start();
  ASSERT_FALSE(started);
  EXPECT_NE(started.error().find("m0"), std::string::npos) << started.error();
}

}  // namespace
}  // namespace akadns::fleet
