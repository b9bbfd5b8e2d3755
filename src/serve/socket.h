/**
 * @file
 * Unix-domain-socket transport for the serve daemon: a SOCK_STREAM
 * listener speaking the line-oriented JSON protocol (protocol.h), one
 * handler thread per open connection (a finished connection's thread
 * is joined at the next accept). The transport owns no
 * request logic — every line goes through Server::handle, so socket
 * clients and `--request` driver runs observe identical behavior.
 */

#ifndef WASABI_SERVE_SOCKET_H
#define WASABI_SERVE_SOCKET_H

#include <string>

#include "serve/server.h"

namespace wasabi::serve {

/**
 * Bind @p socket_path (unlinking a stale socket first), accept
 * connections, and serve request lines until a client sends
 * {"op": "shutdown"}. Returns 0 on orderly shutdown.
 * @throws support::IoError ("io.socket") when the socket cannot be
 * created or bound. Per-connection I/O errors only drop that
 * connection; per-request errors are structured responses
 * (Server::handle never throws) — the daemon outlives both.
 */
int serveUnixSocket(Server &server, const std::string &socket_path);

} // namespace wasabi::serve

#endif // WASABI_SERVE_SOCKET_H
