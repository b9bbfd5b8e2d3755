#include "serve/socket.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <list>
#include <thread>

#include "support/file_io.h"

namespace wasabi::serve {

namespace {

/** Send all of @p data, tolerating partial writes. MSG_NOSIGNAL keeps
 * a client that hung up from killing the daemon with SIGPIPE. */
bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Serve one connection: newline-framed requests in, one response
 * line per request out. Returns true if a shutdown was requested. */
bool
serveConnection(Server &server, int fd)
{
    std::string buf;
    char chunk[4096];
    bool shutdown = false;
    for (;;) {
        size_t nl;
        while ((nl = buf.find('\n')) == std::string::npos) {
            ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                return shutdown; // EOF or error: drop the connection
            buf.append(chunk, static_cast<size_t>(n));
        }
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (line.empty())
            continue;
        Server::Handled h = server.handle(line);
        if (!sendAll(fd, h.response + "\n"))
            return shutdown;
        if (h.shutdown)
            return true;
    }
}

} // namespace

int
serveUnixSocket(Server &server, const std::string &socket_path)
{
    if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path))
        throw support::IoError("io.socket", socket_path,
                               "socket path too long");
    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0)
        throw support::IoError("io.socket", socket_path,
                               std::strerror(errno));
    ::unlink(socket_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd, 16) != 0) {
        int saved = errno;
        ::close(listen_fd);
        throw support::IoError("io.socket", socket_path,
                               std::strerror(saved));
    }

    /** One connection's handler thread, joined when the entry is
     * destroyed. `done` is the last thing the thread sets, so
     * destroying a done entry does not block. The atomic makes the
     * entry immovable, and a std::list keeps it in place while its
     * thread refers to it. */
    struct Connection {
        std::thread thread;
        std::atomic<bool> done{false};

        ~Connection()
        {
            if (thread.joinable())
                thread.join();
        }
    };
    std::atomic<bool> stopping{false};
    std::list<Connection> connections; // after `stopping`: joined first

    while (!stopping.load()) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (stopping.load()) {
            ::close(fd);
            break;
        }
        // Join the handlers of connections that have ended, so a
        // long-lived daemon holds threads (and their stacks) only for
        // open connections.
        connections.remove_if(
            [](const Connection &conn) { return conn.done.load(); });
        Connection &c = connections.emplace_back();
        c.thread = std::thread([&server, &stopping, &c, fd, listen_fd] {
            if (serveConnection(server, fd)) {
                // Wake the accept() above so the daemon can exit.
                stopping.store(true);
                ::shutdown(listen_fd, SHUT_RDWR);
            }
            ::close(fd);
            c.done.store(true);
        });
    }
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
    connections.clear(); // joins the handlers still serving
    return 0;
}

} // namespace wasabi::serve
