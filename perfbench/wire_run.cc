#include "wire_run.h"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "analysis/analysis_context.h"
#include "common/thread_pool.h"
#include "netio/ingest_server.h"

namespace perfbench {
namespace {

// A closed-loop wait longer than this means a digest never reached its
// slot; the generator then writes on regardless and the run reports it.
constexpr auto kGateTimeout = std::chrono::seconds(20);
// Hard ceiling on one run beyond its window, set-up included.
constexpr double kMaxOverrunSeconds = 40.0;

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

class Stopwatch {
 public:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

// Non-blocking client socket connected to the listener at `path`; -1 on
// failure.
int ConnectUds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Writes streams[i] to fds[i] for every connection at once, sending on
// whichever socket has room, so the server sees several readable
// connections per round as it would with independent routers. Blocks in
// poll() while every socket is full. False on a socket error or when
// `abort` is raised.
bool WriteStreams(const std::vector<int>& fds,
                  const std::vector<std::vector<std::uint8_t>>& streams,
                  const std::atomic<bool>& abort) {
  std::vector<std::size_t> sent(fds.size(), 0);
  std::vector<pollfd> pending;
  std::vector<std::size_t> which;
  while (true) {
    pending.clear();
    which.clear();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (sent[i] < streams[i].size()) {
        pending.push_back(pollfd{fds[i], POLLOUT, 0});
        which.push_back(i);
      }
    }
    if (pending.empty()) return true;
    if (abort.load(std::memory_order_acquire)) return false;
    const int ready =
        ::poll(pending.data(), static_cast<nfds_t>(pending.size()), 100);
    if (ready < 0 && errno != EINTR) return false;
    for (std::size_t p = 0; ready > 0 && p < pending.size(); ++p) {
      if (pending[p].revents == 0) continue;
      const std::size_t i = which[p];
      const ssize_t n =
          ::send(fds[i], streams[i].data() + sent[i],
                 streams[i].size() - sent[i], MSG_NOSIGNAL);
      if (n > 0) {
        sent[i] += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        return false;
      }
    }
  }
}

// Closed-loop handshake between the serve thread (which sees offers land)
// and the generator (which waits for them).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t complete = 0;  ///< Epochs [0, complete) fully offered.
  bool stop_writing = false;
};

}  // namespace

WireRunResult RunWire(Inputs* inputs, const WireRunOptions& options,
                      std::vector<EncodedEpoch>* ahead) {
  WireRunResult result;
  const WorkloadSpec& spec = inputs->spec;
  const std::uint64_t capacity = spec.ring.capacity;
  const std::uint64_t buffers = ahead->size();
  for (std::uint64_t epoch = 0; epoch < buffers; ++epoch) {
    EncodeEpoch(inputs, epoch, &(*ahead)[epoch]);
  }
  const Stopwatch clock;

  dcs::ThreadPool pool(kPoolThreads);
  dcs::AnalysisContext context;
  context.pool = &pool;
  dcs::EpochRing ring(spec.ring, context);
  dcs::FrameDispatcher dispatcher(&ring, &pool);

  Gate gate;
  std::atomic<bool> generator_done{false};
  std::atomic<bool> server_gone{false};
  clockid_t generator_clock{};
  pthread_getcpuclockid(pthread_self(), &generator_clock);
  const dcs::IngestServer* server_view = nullptr;

  // Serve-thread state, read by the generator only after the join.
  bool window_open = false;
  bool window_closed = false;
  double window_t0 = 0.0;
  double process_cpu0 = 0.0;
  double generator_cpu0 = 0.0;
  std::uint64_t complete = 0;

  dcs::IngestServerOptions server_options;
  server_options.pool = &pool;
  server_options.after_round = [&]() -> bool {
    const double now = clock.Now();
    for (dcs::DcsReport& report : ring.TakeReports()) {
      result.reports.push_back(std::move(report));
      result.report_out_s.push_back(now);
    }
    if (result.setup_s == 0.0 && !result.reports.empty()) result.setup_s = now;
    bool stop = false;
    if (options.setup_only) {
      stop = !result.reports.empty();
    } else {
      if (!window_open && result.reports.size() >= capacity) {
        window_open = true;
        window_t0 = now;
        result.window_begin = result.reports.size();
        process_cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
        generator_cpu0 = CpuSeconds(generator_clock);
      }
      if (window_open && !window_closed && now - window_t0 >= options.seconds) {
        window_closed = true;
        result.window_end = result.reports.size();
        result.window_s = now - window_t0;
        result.process_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;
        result.generator_cpu_s = CpuSeconds(generator_clock) - generator_cpu0;
      }
      stop = window_closed;
    }
    // An epoch is complete once every router's digest was offered to its
    // slot (accepted or refused), or once the ring closed it.
    const std::uint64_t before = complete;
    while (true) {
      if (ring.started() && complete < ring.head_epoch()) {
        ++complete;
        continue;
      }
      const dcs::DcsMonitor* monitor = ring.monitor_for_epoch(complete);
      if (monitor != nullptr &&
          monitor->ingest_stats().accepted +
                  monitor->ingest_stats().rejected_total() >=
              spec.routers) {
        ++complete;
        continue;
      }
      break;
    }
    if (complete != before || stop) {
      std::lock_guard<std::mutex> lock(gate.mu);
      gate.complete = complete;
      gate.stop_writing = gate.stop_writing || stop;
      gate.cv.notify_all();
    }
    if (options.setup_only && stop) return false;
    if (generator_done.load(std::memory_order_acquire)) {
      const dcs::IngestServerStats stats = server_view->stats();
      if (stats.connections_closed == stats.connections_accepted) return false;
    }
    return true;
  };
  dcs::IngestServer server(server_options, &dispatcher);
  server_view = &server;
  const dcs::Status listen = server.ListenUds(options.socket_path);
  if (!listen.ok()) {
    result.error = listen.ToString();
    return result;
  }
  dcs::Status serve_status;
  std::thread serve_thread([&] {
    serve_status = server.Serve();
    server_gone.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.stop_writing = true;
    gate.cv.notify_all();
  });

  std::vector<int> fds;
  for (std::size_t i = 0; i < kConnections; ++i) {
    const int fd = ConnectUds(options.socket_path);
    if (fd < 0) {
      result.error = "connect " + options.socket_path + ": " + std::strerror(errno);
      break;
    }
    fds.push_back(fd);
  }
  // Epoch e may be written once epoch e - (capacity - 1) is complete.
  auto may_write = [&](std::uint64_t epoch) {
    return gate.stop_writing || gate.complete + capacity >= epoch + 2;
  };
  std::uint64_t encoded = buffers;  // The next epoch to encode.
  for (std::uint64_t epoch = 0; result.error.empty();) {
    bool open = false;
    {
      std::lock_guard<std::mutex> lock(gate.mu);
      if (gate.stop_writing) break;
      open = may_write(epoch);
    }
    if (encoded <= epoch || (!open && encoded < epoch + buffers)) {
      EncodeEpoch(inputs, encoded, &(*ahead)[encoded % buffers]);
      ++encoded;
      continue;
    }
    if (!open) {
      std::unique_lock<std::mutex> lock(gate.mu);
      const bool opened =
          gate.cv.wait_for(lock, kGateTimeout, [&] { return may_write(epoch); });
      if (gate.stop_writing) break;
      // A digest never reached its slot: write on regardless, and the run
      // fails its gate.
      if (!opened) ++result.gate_timeouts;
    }
    if (clock.Now() > options.seconds + kMaxOverrunSeconds) {
      result.error = "run exceeded its time ceiling";
      break;
    }
    const EncodedEpoch& next = (*ahead)[epoch % buffers];
    if (!WriteStreams(fds, next.streams, server_gone)) {
      if (!options.setup_only) result.error = "write to the center failed";
      break;
    }
    result.written_s.push_back(clock.Now());
    result.digests_written += spec.routers;
    result.wire_bytes_written += next.bytes;
    ++epoch;
  }
  for (int fd : fds) {
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
  }
  generator_done.store(true, std::memory_order_release);
  if (!result.error.empty()) server.RequestStop();
  serve_thread.join();
  if (result.error.empty() && !serve_status.ok()) {
    result.error = serve_status.ToString();
  }
  result.dispatch = dispatcher.stats();
  result.ring = ring.stats();
  return result;
}

}  // namespace perfbench
