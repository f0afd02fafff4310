#include "cluster/socket_cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

namespace ecdb {
namespace {

constexpr const char* kChildFlagPrefix = "--ecdb-socket-node=";

/// Control-plane read timeout. Generous: a child may be mid-quiesce or
/// mid-WAL-replay when interrogated, but a child that takes longer than
/// this is wedged and the supervisor must not hang with it.
constexpr int kCtlTimeoutSec = 30;

int ListenLoopback(uint16_t* port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 64) != 0) {
    close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

int ConnectLoopback(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

void SetRecvTimeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line from a blocking fd, buffering leftovers
/// in `*buf` across calls. False on EOF/timeout/error.
bool ReadLineFd(int fd, std::string* buf, std::string* line) {
  for (;;) {
    size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buf, 0, nl);
      buf->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

std::string ExePath() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return std::string(buf);
}

/// key=value (space-separated) serialization of the fan-out config. Paths
/// must not contain spaces — every path the runtime generates is a temp or
/// build-tree path, which never does.
std::string EncodeChildConfig(const SocketClusterConfig& c, NodeId id,
                              uint16_t ctl_port, bool restarted) {
  std::ostringstream out;
  out << "id=" << id << " n=" << c.num_nodes << " ctl=" << ctl_port
      << " proto=" << static_cast<int>(c.protocol)
      << " cc=" << static_cast<int>(c.cc_policy)
      << " clients=" << c.clients_per_node << " coalesce=" << (c.coalesce ? 1 : 0)
      << " timeout=" << c.timeout_us << " termwin=" << c.termination_window_us
      << " seed=" << c.seed << " ol=" << (c.open_loop ? 1 : 0)
      << " rate=" << c.arrivals_per_sec_per_node
      << " inflight=" << c.max_in_flight_per_node
      << " attempts=" << c.max_attempts << " rows=" << c.rows_per_partition
      << " ppt=" << c.partitions_per_txn << " theta=" << c.theta
      << " telem=" << (c.telemetry ? 1 : 0) << " tint=" << c.telemetry_interval_us
      << " restarted=" << (restarted ? 1 : 0)
      << " acked=" << (c.track_acked ? 1 : 0);
  if (!c.wal_dir.empty()) out << " waldir=" << c.wal_dir;
  if (!c.telemetry_dir.empty()) out << " tdir=" << c.telemetry_dir;
  return out.str();
}

struct ChildSetup {
  SocketNodeConfig node;
  uint16_t ctl_port = 0;
};

ChildSetup DecodeChildConfig(const std::string& blob) {
  ChildSetup setup;
  SocketClusterConfig c;  // defaults for anything unmentioned
  NodeId id = 0;
  bool restarted = false;
  std::string tdir;
  std::istringstream in(blob);
  std::string kv;
  while (in >> kv) {
    size_t eq = kv.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "id") id = static_cast<NodeId>(std::stoul(val));
    else if (key == "n") c.num_nodes = static_cast<uint32_t>(std::stoul(val));
    else if (key == "ctl") setup.ctl_port = static_cast<uint16_t>(std::stoul(val));
    else if (key == "proto") c.protocol = static_cast<CommitProtocol>(std::stoi(val));
    else if (key == "cc") c.cc_policy = static_cast<CcPolicy>(std::stoi(val));
    else if (key == "clients") c.clients_per_node = static_cast<uint32_t>(std::stoul(val));
    else if (key == "coalesce") c.coalesce = val != "0";
    else if (key == "timeout") c.timeout_us = std::stoll(val);
    else if (key == "termwin") c.termination_window_us = std::stoll(val);
    else if (key == "seed") c.seed = std::stoull(val);
    else if (key == "ol") c.open_loop = val != "0";
    else if (key == "rate") c.arrivals_per_sec_per_node = std::stod(val);
    else if (key == "inflight") c.max_in_flight_per_node = static_cast<uint32_t>(std::stoul(val));
    else if (key == "attempts") c.max_attempts = static_cast<uint32_t>(std::stoul(val));
    else if (key == "rows") c.rows_per_partition = static_cast<uint32_t>(std::stoul(val));
    else if (key == "ppt") c.partitions_per_txn = static_cast<uint32_t>(std::stoul(val));
    else if (key == "theta") c.theta = std::stod(val);
    else if (key == "telem") c.telemetry = val != "0";
    else if (key == "tint") c.telemetry_interval_us = std::stoll(val);
    else if (key == "restarted") restarted = val != "0";
    else if (key == "acked") c.track_acked = val != "0";
    else if (key == "waldir") c.wal_dir = val;
    else if (key == "tdir") tdir = val;
  }

  SocketNodeConfig& n = setup.node;
  n.id = id;
  n.restarted = restarted;
  n.track_acked = c.track_acked;
  n.cluster.num_nodes = c.num_nodes;
  n.cluster.clients_per_node = c.clients_per_node;
  n.cluster.protocol = c.protocol;
  n.cluster.cc_policy = c.cc_policy;
  n.cluster.commit.timeout_us = c.timeout_us;
  n.cluster.commit.termination_window_us = c.termination_window_us;
  n.cluster.commit.keep_decision_ledger = true;
  n.cluster.seed = c.seed;
  n.cluster.coalesce_transport = c.coalesce;
  n.cluster.wal_dir = c.wal_dir;
  n.cluster.open_loop.enabled = c.open_loop;
  n.cluster.open_loop.arrivals_per_sec_per_node = c.arrivals_per_sec_per_node;
  n.cluster.open_loop.max_in_flight_per_node = c.max_in_flight_per_node;
  n.cluster.open_loop.max_attempts = c.max_attempts;
  n.cluster.telemetry.enabled = c.telemetry;
  n.cluster.telemetry.sample_interval_us = c.telemetry_interval_us;
  n.ycsb.num_partitions = c.num_nodes;
  n.ycsb.rows_per_partition = c.rows_per_partition;
  n.ycsb.partitions_per_txn = c.partitions_per_txn;
  n.ycsb.theta = c.theta;
  if (!tdir.empty()) {
    n.telemetry_jsonl = tdir + "/socket_node" + std::to_string(id) + ".jsonl";
    n.telemetry_prom = tdir + "/socket_node" + std::to_string(id) + ".prom";
  }
  return setup;
}

/// Node-process command loop: connects back to the supervisor, announces
/// its data port, then serves control commands until STOP.
void RunSocketNodeChild(const std::string& blob) {
  // A peer process dying mid-write raises SIGPIPE; the transport handles
  // the write error, so the default terminate-on-signal must go.
  signal(SIGPIPE, SIG_IGN);

  ChildSetup setup = DecodeChildConfig(blob);
  SocketNode host(setup.node);
  const uint16_t data_port = host.Listen();

  int ctl = ConnectLoopback(setup.ctl_port);
  if (ctl < 0) _exit(3);
  {
    std::ostringstream hello;
    hello << "HELLO " << setup.node.id << " " << data_port << "\n";
    const std::string line = hello.str();
    if (!WriteAll(ctl, line.data(), line.size())) _exit(3);
  }

  bool halted = false;
  std::string rdbuf, line;
  while (ReadLineFd(ctl, &rdbuf, &line)) {
    std::istringstream cmd(line);
    std::string verb;
    cmd >> verb;
    if (verb == "PEERS") {
      for (NodeId i = 0; i < setup.node.cluster.num_nodes; ++i) {
        uint32_t port = 0;
        if (!(cmd >> port)) break;
        if (i != setup.node.id && port != 0) {
          host.SetPeerPort(i, static_cast<uint16_t>(port));
        }
      }
    } else if (verb == "START") {
      host.Start();
      WriteAll(ctl, "READY\n", 6);
    } else if (verb == "QUIESCE") {
      host.Quiesce();
    } else if (verb == "COUNT") {
      std::ostringstream out;
      out << "COUNT " << host.committed() << "\n";
      const std::string s = out.str();
      WriteAll(ctl, s.data(), s.size());
    } else if (verb == "HALT") {
      if (!halted) host.Stop();
      halted = true;
      WriteAll(ctl, "HALTED\n", 7);
    } else if (verb == "STATS") {
      // Thread-confined state: valid only after HALT stopped the worker.
      const NodeCore* node = &host.node();
      const ClusterStats node_stats = NodeCore::Aggregate(
          std::array{node}, 0, 0, host.network().stats());
      const NodeStats& s = node_stats.total;
      const SocketIoStats io = host.io_stats();
      std::ostringstream out;
      out << "STATS id=" << setup.node.id
          << " committed=" << s.txns_committed
          << " attempts_aborted=" << s.txns_aborted
          << " offered=" << s.open_loop_offered
          << " rejected=" << s.open_loop_rejected
          << " taborted=" << s.open_loop_aborted
          << " dup=" << node_stats.duplicate_decisions_suppressed
          << " term=" << s.termination_rounds
          << " walf=" << node_stats.wal_group_flushes
          << " walr=" << host.node().wal().Size()
          << " bin=" << io.bytes_in << " bout=" << io.bytes_out
          << " rdc=" << io.read_calls << " wvc=" << io.writev_calls
          << " pw=" << io.partial_writes << " eag=" << io.eagain_stalls
          << " epw=" << io.epoll_waits << " efw=" << io.eventfd_wakes
          << " rec=" << io.reconnects << " fout=" << io.frames_out
          << " mout=" << io.messages_out << " fin=" << io.frames_in
          << " min=" << io.messages_in << " odrop=" << io.overflow_drops
          << " creset=" << io.corrupt_resets << "\n";
      const std::string str = out.str();
      WriteAll(ctl, str.data(), str.size());
    } else if (verb == "LAT") {
      std::ostringstream out;
      out << "LAT";
      for (const auto& [bucket, count] :
           host.node().stats().latency.NonZeroBuckets()) {
        out << " " << bucket << ":" << count;
      }
      out << "\n";
      const std::string str = out.str();
      WriteAll(ctl, str.data(), str.size());
    } else if (verb == "STOP") {
      WriteAll(ctl, "BYE\n", 4);
      break;
    }
  }
  if (!halted) host.Stop();
  close(ctl);
}

uint64_t ParseKeyed(const std::string& line, const char* key) {
  const std::string pat = std::string(" ") + key + "=";
  size_t at = line.find(pat);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + pat.size(), nullptr, 10);
}

}  // namespace

bool MaybeRunSocketNodeChild(int argc, char** argv) {
  const size_t prefix_len = std::strlen(kChildFlagPrefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kChildFlagPrefix, prefix_len) == 0) {
      RunSocketNodeChild(std::string(argv[i] + prefix_len));
      return true;
    }
  }
  return false;
}

uint64_t SocketRunStats::Committed() const {
  uint64_t sum = 0;
  for (const auto& n : nodes) sum += n.committed;
  return sum;
}
uint64_t SocketRunStats::Offered() const {
  uint64_t sum = 0;
  for (const auto& n : nodes) sum += n.offered;
  return sum;
}
uint64_t SocketRunStats::Rejected() const {
  uint64_t sum = 0;
  for (const auto& n : nodes) sum += n.rejected;
  return sum;
}
uint64_t SocketRunStats::TerminalAborted() const {
  uint64_t sum = 0;
  for (const auto& n : nodes) sum += n.terminal_aborted;
  return sum;
}
uint64_t SocketRunStats::DuplicateDecisionsSuppressed() const {
  uint64_t sum = 0;
  for (const auto& n : nodes) sum += n.duplicate_decisions_suppressed;
  return sum;
}
SocketIoStats SocketRunStats::Io() const {
  SocketIoStats sum;
  for (const auto& n : nodes) {
    sum.bytes_in += n.io.bytes_in;
    sum.bytes_out += n.io.bytes_out;
    sum.read_calls += n.io.read_calls;
    sum.writev_calls += n.io.writev_calls;
    sum.partial_writes += n.io.partial_writes;
    sum.eagain_stalls += n.io.eagain_stalls;
    sum.epoll_waits += n.io.epoll_waits;
    sum.eventfd_wakes += n.io.eventfd_wakes;
    sum.reconnects += n.io.reconnects;
    sum.frames_out += n.io.frames_out;
    sum.messages_out += n.io.messages_out;
    sum.frames_in += n.io.frames_in;
    sum.messages_in += n.io.messages_in;
    sum.overflow_drops += n.io.overflow_drops;
    sum.corrupt_resets += n.io.corrupt_resets;
  }
  return sum;
}

SocketCluster::SocketCluster(SocketClusterConfig config)
    : config_(std::move(config)) {
  children_.resize(config_.num_nodes);
}

SocketCluster::~SocketCluster() {
  if (started_ && !stopped_) Stop();
  if (ctl_listen_ >= 0) close(ctl_listen_);
}

bool SocketCluster::Spawn(NodeId id, bool restarted) {
  const std::string exe = ExePath();
  if (exe.empty()) return false;
  const std::string flag =
      kChildFlagPrefix + EncodeChildConfig(config_, id, ctl_port_, restarted);
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Child: re-exec ourselves with the node marker. execv never returns
    // on success; a fork without exec would carry this process's threads'
    // locks in undefined states, so failure is fatal.
    char* argv[3];
    argv[0] = const_cast<char*>(exe.c_str());
    argv[1] = const_cast<char*>(flag.c_str());
    argv[2] = nullptr;
    execv(exe.c_str(), argv);
    _exit(127);
  }
  Child& c = children_[id];
  c.pid = pid;
  c.ctl = -1;
  c.port = 0;
  c.live = true;
  c.rdbuf.clear();
  return true;
}

bool SocketCluster::AcceptHello(NodeId* out_id) {
  int fd = accept(ctl_listen_, nullptr, nullptr);
  if (fd < 0) return false;
  SetRecvTimeout(fd, kCtlTimeoutSec);
  std::string buf, line;
  if (!ReadLineFd(fd, &buf, &line)) {
    close(fd);
    return false;
  }
  std::istringstream in(line);
  std::string verb;
  uint32_t id = 0, port = 0;
  in >> verb >> id >> port;
  if (verb != "HELLO" || id >= config_.num_nodes || port == 0) {
    close(fd);
    return false;
  }
  Child& c = children_[id];
  if (c.ctl >= 0) close(c.ctl);
  c.ctl = fd;
  c.port = static_cast<uint16_t>(port);
  c.rdbuf = std::move(buf);  // anything the child already pipelined
  *out_id = static_cast<NodeId>(id);
  return true;
}

bool SocketCluster::SendLine(NodeId id, const std::string& line) {
  Child& c = children_[id];
  if (!c.live || c.ctl < 0) return false;
  std::string out = line;
  out.push_back('\n');
  return WriteAll(c.ctl, out.data(), out.size());
}

bool SocketCluster::ReadLine(NodeId id, std::string* line) {
  Child& c = children_[id];
  if (!c.live || c.ctl < 0) return false;
  return ReadLineFd(c.ctl, &c.rdbuf, line);
}

void SocketCluster::BroadcastPeers() {
  std::ostringstream out;
  out << "PEERS";
  for (const Child& c : children_) out << " " << c.port;
  const std::string line = out.str();
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (children_[id].live) SendLine(id, line);
  }
}

void SocketCluster::ReapChild(NodeId id) {
  Child& c = children_[id];
  if (c.ctl >= 0) {
    close(c.ctl);
    c.ctl = -1;
  }
  if (c.pid > 0) {
    waitpid(c.pid, nullptr, 0);
    c.pid = -1;
  }
  c.live = false;
  c.port = 0;
}

bool SocketCluster::Start() {
  started_ = true;
  ctl_listen_ = ListenLoopback(&ctl_port_);
  if (ctl_listen_ < 0) return false;
  SetRecvTimeout(ctl_listen_, kCtlTimeoutSec);  // bounds accept() too
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (!Spawn(id, /*restarted=*/false)) return false;
  }
  // Hellos arrive in whatever order the processes came up.
  for (uint32_t i = 0; i < config_.num_nodes; ++i) {
    NodeId id = 0;
    if (!AcceptHello(&id)) return false;
    SetRecvTimeout(children_[id].ctl, kCtlTimeoutSec);
  }
  BroadcastPeers();
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (!SendLine(id, "START")) return false;
  }
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    std::string line;
    if (!ReadLine(id, &line) || line != "READY") return false;
  }
  return true;
}

void SocketCluster::RunFor(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

uint64_t SocketCluster::TotalCommitted() {
  uint64_t sum = 0;
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (!children_[id].live) continue;
    if (!SendLine(id, "COUNT")) continue;
    std::string line;
    if (!ReadLine(id, &line)) continue;
    std::istringstream in(line);
    std::string verb;
    uint64_t count = 0;
    in >> verb >> count;
    if (verb == "COUNT") sum += count;
  }
  return sum;
}

bool SocketCluster::Kill(NodeId id) {
  Child& c = children_[id];
  if (!c.live || c.pid <= 0) return false;
  kill(c.pid, SIGKILL);
  ReapChild(id);
  return true;
}

bool SocketCluster::Restart(NodeId id) {
  if (children_[id].live) return false;
  if (!Spawn(id, /*restarted=*/true)) return false;
  NodeId got = 0;
  if (!AcceptHello(&got) || got != id) return false;
  SetRecvTimeout(children_[id].ctl, kCtlTimeoutSec);
  // Everyone (including the newcomer) learns the replacement's port; the
  // initiator sides re-dial it on their backoff schedule.
  BroadcastPeers();
  if (!SendLine(id, "START")) return false;
  std::string line;
  return ReadLine(id, &line) && line == "READY";
}

void SocketCluster::Quiesce(double drain_seconds) {
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (children_[id].live) SendLine(id, "QUIESCE");
  }
  RunFor(drain_seconds);
}

SocketRunStats SocketCluster::Stop() {
  SocketRunStats run;
  if (stopped_) return run;
  stopped_ = true;
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    Child& c = children_[id];
    if (!c.live) continue;
    std::string line;
    if (!SendLine(id, "HALT") || !ReadLine(id, &line) || line != "HALTED") {
      // Wedged child: reap with prejudice, no report.
      if (c.pid > 0) kill(c.pid, SIGKILL);
      ReapChild(id);
      continue;
    }
    SocketNodeReport report;
    report.id = id;
    if (SendLine(id, "STATS") && ReadLine(id, &line) &&
        line.rfind("STATS ", 0) == 0) {
      report.committed = ParseKeyed(line, "committed");
      report.attempts_aborted = ParseKeyed(line, "attempts_aborted");
      report.offered = ParseKeyed(line, "offered");
      report.rejected = ParseKeyed(line, "rejected");
      report.terminal_aborted = ParseKeyed(line, "taborted");
      report.duplicate_decisions_suppressed = ParseKeyed(line, "dup");
      report.termination_rounds = ParseKeyed(line, "term");
      report.wal_group_flushes = ParseKeyed(line, "walf");
      report.wal_records = ParseKeyed(line, "walr");
      report.io.bytes_in = ParseKeyed(line, "bin");
      report.io.bytes_out = ParseKeyed(line, "bout");
      report.io.read_calls = ParseKeyed(line, "rdc");
      report.io.writev_calls = ParseKeyed(line, "wvc");
      report.io.partial_writes = ParseKeyed(line, "pw");
      report.io.eagain_stalls = ParseKeyed(line, "eag");
      report.io.epoll_waits = ParseKeyed(line, "epw");
      report.io.eventfd_wakes = ParseKeyed(line, "efw");
      report.io.reconnects = ParseKeyed(line, "rec");
      report.io.frames_out = ParseKeyed(line, "fout");
      report.io.messages_out = ParseKeyed(line, "mout");
      report.io.frames_in = ParseKeyed(line, "fin");
      report.io.messages_in = ParseKeyed(line, "min");
      report.io.overflow_drops = ParseKeyed(line, "odrop");
      report.io.corrupt_resets = ParseKeyed(line, "creset");
    }
    if (SendLine(id, "LAT") && ReadLine(id, &line) &&
        line.rfind("LAT", 0) == 0) {
      std::istringstream in(line.substr(3));
      std::string pair;
      while (in >> pair) {
        size_t colon = pair.find(':');
        if (colon == std::string::npos) continue;
        run.latency.AddBucket(std::strtoull(pair.c_str(), nullptr, 10),
                              std::strtoull(pair.c_str() + colon + 1, nullptr,
                                            10));
      }
    }
    if (SendLine(id, "STOP")) {
      ReadLine(id, &line);  // BYE (best effort)
    }
    ReapChild(id);
    run.nodes.push_back(report);
  }
  return run;
}

}  // namespace ecdb
