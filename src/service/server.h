// A minimal Unix-domain-socket front end for the wire protocol: one
// accept loop, one thread per connection, one ProtocolHandler per
// connection (pinned to a per-connection client identity, so tenants
// cannot write into each other's lanes by sending a forged <client>
// token). The accept loop joins each connection thread soon after it
// finishes, so a long-lived daemon holds the stacks of live connections
// only.
//
// Lifecycle is split so teardown never runs on a connection thread:
// `request_stop()` is async-signal-thread-safe in spirit (flag + cv) and
// is what SIGINT/SIGTERM handlers and the SHUTDOWN verb call; the thread
// parked in `wait()` -- bosphorusd's main -- then performs the actual
// teardown via `stop()`: close the listener, drain the SolveService
// (which cancels every job and unblocks RESULT waits), shut down the
// connection sockets, join the connection threads, unlink the path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bosphorus/service.h"
#include "service/protocol.h"

namespace bosphorus::service {

/// SIGPIPE-safe full write: send() with MSG_NOSIGNAL, retried over
/// EINTR and short writes. A peer that already hung up yields false with
/// errno == EPIPE instead of a process-killing signal, so one rude
/// client can never take a worker (or the daemon) down with it.
bool write_all_nosignal(int fd, const std::string& data);

/// Serve `service` over a Unix socket at `socket_path` (see file comment).
class SocketServer {
public:
    SocketServer(SolveService& service, std::string socket_path);
    /// Runs stop().
    ~SocketServer();

    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;

    /// Bind + listen + start the accept loop. Fails with kIoError when
    /// the socket cannot be bound, and refuses to clobber an existing
    /// path that is not a socket.
    Status start();

    /// Ask the server to stop; returns immediately. Callable from any
    /// thread (a signal-watcher thread, a connection thread handling the
    /// SHUTDOWN verb). The thread blocked in wait() wakes up and is
    /// expected to call stop().
    void request_stop();

    /// Block until request_stop() is called.
    void wait();

    /// Full teardown (see file comment). Must not be called from a
    /// connection thread -- call request_stop() there instead. Idempotent;
    /// concurrent callers serialise, later ones no-op.
    void stop();

private:
    void accept_loop();
    void serve_connection(int fd, uint64_t client_id);
    /// Join the connection threads that have finished serving.
    void reap_finished_connections();

    SolveService& service_;
    const std::string socket_path_;

    int listen_fd_ = -1;
    std::thread accept_thread_;
    std::atomic<bool> stopping_{false};

    // guards conn_fds_ / conn_threads_ / finished_conns_ / next_client_
    std::mutex mu_;
    std::vector<int> conn_fds_;  // live connections (owning thread erases)
    std::vector<std::thread> conn_threads_;  // not yet joined
    // Threads that left serve_connection; the accept loop joins them.
    std::vector<std::thread::id> finished_conns_;
    uint64_t next_client_ = 1;

    std::mutex stop_mu_;  // serialises stop(); stopped_ = teardown done
    bool stopped_ = false;

    std::mutex wait_mu_;  // guards stop_requested_
    std::condition_variable wait_cv_;
    bool stop_requested_ = false;
};

}  // namespace bosphorus::service
