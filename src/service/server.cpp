#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace bosphorus::service {

namespace {

/// Buffered line reader over a socket fd. Returns false on EOF / error /
/// a line exceeding the cap (a sanity bound, not a protocol limit --
/// instance payloads arrive as many short lines).
class LineStream {
public:
    explicit LineStream(int fd) : fd_(fd) {}

    bool next(std::string& out) {
        out.clear();
        for (;;) {
            const size_t nl = buf_.find('\n', pos_);
            if (nl != std::string::npos) {
                out.assign(buf_, pos_, nl - pos_);
                pos_ = nl + 1;
                if (pos_ > (1u << 16)) {  // keep the buffer from creeping
                    buf_.erase(0, pos_);
                    pos_ = 0;
                }
                if (!out.empty() && out.back() == '\r') out.pop_back();
                return true;
            }
            if (buf_.size() - pos_ > kMaxLine) return false;
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n <= 0) return false;  // EOF, error, or shutdown()
            buf_.append(chunk, size_t(n));
        }
    }

private:
    static constexpr size_t kMaxLine = 1u << 20;
    int fd_;
    std::string buf_;
    size_t pos_ = 0;
};

}  // namespace

bool write_all_nosignal(int fd, const std::string& data) {
#ifdef MSG_NOSIGNAL
    constexpr int kFlags = MSG_NOSIGNAL;
#else
    constexpr int kFlags = 0;  // rely on the caller ignoring SIGPIPE
#endif
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, kFlags);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;  // errno preserved (EPIPE for dead peers)
        off += size_t(n);
    }
    return true;
}

SocketServer::SocketServer(SolveService& service, std::string socket_path)
    : service_(service), socket_path_(std::move(socket_path)) {}

SocketServer::~SocketServer() { stop(); }

Status SocketServer::start() {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        return Status::io_error(std::string("socket(): ") +
                                std::strerror(errno));

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path_.size() >= sizeof(addr.sun_path)) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return Status::invalid_argument("socket path too long: " +
                                        socket_path_);
    }
    std::strncpy(addr.sun_path, socket_path_.c_str(),
                 sizeof(addr.sun_path) - 1);

    // Reclaim a stale socket left by a crashed daemon -- but only a
    // socket; refuse to unlink a regular file at that path.
    struct stat st{};
    if (::lstat(socket_path_.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode)) {
            ::close(listen_fd_);
            listen_fd_ = -1;
            return Status::io_error(socket_path_ +
                                    " exists and is not a socket");
        }
        ::unlink(socket_path_.c_str());
    }

    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(listen_fd_, 64) < 0) {
        const Status bind_err = Status::io_error(
            "bind/listen on " + socket_path_ + ": " + std::strerror(errno));
        ::close(listen_fd_);
        listen_fd_ = -1;
        return bind_err;
    }

    accept_thread_ = std::thread([this] { accept_loop(); });
    return Status();
}

void SocketServer::accept_loop() {
    while (!stopping_.load(std::memory_order_acquire)) {
        // Poll with a timeout so a stop() request is noticed promptly
        // even when no client ever connects.
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, /*timeout_ms=*/200);
        reap_finished_connections();
        if (rc <= 0) continue;  // timeout or EINTR: re-check the flag
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;

        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_.load(std::memory_order_acquire)) {
            ::close(fd);
            break;
        }
        conn_fds_.push_back(fd);
        const uint64_t client_id = next_client_++;
        conn_threads_.emplace_back(
            [this, fd, client_id] { serve_connection(fd, client_id); });
    }
}

void SocketServer::serve_connection(int fd, uint64_t client_id) {
    ProtocolHandler handler(service_);
    // The connection IS the tenant: requests cannot reach another
    // client's lane or sessions whatever tokens they send.
    handler.set_forced_client("conn-" + std::to_string(client_id));

    LineStream stream(fd);
    const ProtocolHandler::LineReader reader = [&stream](std::string& out) {
        return stream.next(out);
    };
    std::string request;
    std::string response;
    while (stream.next(request)) {
        const ProtocolAction action = handler.handle(request, reader, response);
        if (!write_all_nosignal(fd, response)) {
            // A client that hung up mid-RESULT is routine churn, not a
            // server problem: count it and let this thread retire. The
            // job itself is unaffected and stays retained for pickup.
            if (errno == EPIPE || errno == ECONNRESET)
                service_.note_client_disconnect();
            break;
        }
        if (action == ProtocolAction::kQuit) break;
        if (action == ProtocolAction::kShutdown) {
            request_stop();  // the wait()ing thread performs the teardown
            break;
        }
    }
    // The owning thread is the only closer of its fd; deregister first so
    // stop() never shuts down a recycled descriptor.
    {
        std::lock_guard<std::mutex> lk(mu_);
        conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
        finished_conns_.push_back(std::this_thread::get_id());
    }
    ::close(fd);
}

void SocketServer::reap_finished_connections() {
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const std::thread::id id : finished_conns_) {
            const auto it = std::find_if(
                conn_threads_.begin(), conn_threads_.end(),
                [id](const std::thread& t) { return t.get_id() == id; });
            done.push_back(std::move(*it));
            conn_threads_.erase(it);
        }
        finished_conns_.clear();
    }
    // Each has left serve_connection; the join only waits out its exit.
    for (std::thread& t : done) t.join();
}

void SocketServer::request_stop() {
    {
        std::lock_guard<std::mutex> lk(wait_mu_);
        stop_requested_ = true;
    }
    wait_cv_.notify_all();
}

void SocketServer::wait() {
    std::unique_lock<std::mutex> lk(wait_mu_);
    wait_cv_.wait(lk, [this] { return stop_requested_; });
}

void SocketServer::stop() {
    request_stop();
    std::lock_guard<std::mutex> teardown(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
    stopping_.store(true, std::memory_order_release);

    // 1. No new connections.
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }

    // 2. Drain the service: cancels queued + running jobs, wakes every
    //    connection thread parked in a RESULT wait.
    service_.shutdown();

    // 3. Unblock connection reads and join the handlers. Threads close
    //    their own fds on the way out (serve_connection).
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
        threads.swap(conn_threads_);
        finished_conns_.clear();
    }
    for (std::thread& t : threads) t.join();

    ::unlink(socket_path_.c_str());
}

}  // namespace bosphorus::service
