/**
 * @file
 * Dependency-free POSIX TCP primitives for the serving layer.
 *
 * TcpConn wraps a connected socket as a move-only fd owner with
 * explicit non-blocking IO results (Ok / WouldBlock / Eof / Error --
 * no errno spelunking at call sites, no SIGPIPE), TcpListener wraps a
 * non-blocking accept loop, and Poller wraps poll(2) over a caller-
 * built fd set. Everything is loopback/cluster plumbing: no TLS, no
 * name resolution beyond dotted quads, by design -- the daemon fronts
 * *encrypted* traffic, and its deployment story puts transport
 * security in the usual terminators. This layer never includes
 * tfhe/ (lint-enforced): bytes in, bytes out.
 */

#ifndef STRIX_NET_SOCKET_H
#define STRIX_NET_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <poll.h>

namespace strix {

/** Move-only owner of a connected TCP socket. */
class TcpConn
{
  public:
    /** IO outcome for the non-blocking read/write paths. */
    enum class IoResult
    {
        Ok,         //!< made progress (>= 1 byte, or had nothing to do)
        WouldBlock, //!< kernel buffer empty/full; poll and retry
        Eof,        //!< peer closed its end
        Error       //!< connection is dead (reset, EPIPE, ...)
    };

    TcpConn() = default;
    /** Adopt @p fd (already connected; caller loses ownership). */
    explicit TcpConn(int fd) : fd_(fd) {}
    ~TcpConn() { close(); }

    TcpConn(TcpConn &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    TcpConn &operator=(TcpConn &&other) noexcept;
    TcpConn(const TcpConn &) = delete;
    TcpConn &operator=(const TcpConn &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }
    void close();

    /** Toggle O_NONBLOCK. Returns false if the fcntl failed. */
    bool setNonBlocking(bool on);
    /** Disable Nagle: a queued reply is written as soon as it is whole. */
    bool setNoDelay(bool on);

    /**
     * Read up to @p cap bytes into @p buf; @p got is the byte count
     * on Ok. EINTR retries internally; 0-byte reads report Eof.
     */
    IoResult readSome(void *buf, size_t cap, size_t &got);

    /**
     * Write up to @p len bytes from @p buf; @p put is the byte count
     * on Ok (may be a short write). SIGPIPE is suppressed.
     */
    IoResult writeSome(const void *buf, size_t len, size_t &put);

    /** Blocking: read exactly @p len bytes. False on EOF/error. */
    bool readFull(void *buf, size_t len);
    /** Blocking: write all of @p len bytes. False on error. */
    bool writeFull(const void *buf, size_t len);

    /**
     * Blocking connect to @p host (dotted quad) : @p port. Returns an
     * invalid conn on failure.
     */
    static TcpConn connect(const std::string &host, uint16_t port);
    /** connect("127.0.0.1", port). */
    static TcpConn connectLoopback(uint16_t port);

  private:
    int fd_ = -1;
};

/** Non-blocking listening socket. */
class TcpListener
{
  public:
    TcpListener() = default;
    ~TcpListener() { close(); }

    TcpListener(TcpListener &&other) noexcept : fd_(other.fd_),
                                                port_(other.port_)
    {
        other.fd_ = -1;
        other.port_ = 0;
    }
    TcpListener &operator=(TcpListener &&other) noexcept;
    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /**
     * Bind + listen on 127.0.0.1:@p port (0 = kernel-assigned
     * ephemeral port, reported by port()). The accept path is
     * non-blocking. Returns an invalid listener on failure.
     */
    static TcpListener listenLoopback(uint16_t port, int backlog = 64);

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }
    /** The bound port (resolves port-0 binds). */
    uint16_t port() const { return port_; }
    void close();

    /**
     * Accept one pending connection (already non-blocking, TCP_NODELAY
     * set); an invalid TcpConn when none is pending.
     */
    TcpConn accept();

  private:
    int fd_ = -1;
    uint16_t port_ = 0;
};

/** poll(2) over a caller-built fd set. */
class Poller
{
  public:
    void clear();
    /** Add @p fd, watching for readability and/or writability. */
    void add(int fd, bool want_read, bool want_write);
    /**
     * Block up to @p timeout_ms (-1 = forever, 0 = poll). Returns the
     * number of ready fds (0 on timeout; EINTR retries internally).
     */
    int wait(int timeout_ms);
    bool readable(int fd) const;
    bool writable(int fd) const;
    /** Error/hangup flagged (the read path will observe Eof/Error). */
    bool errored(int fd) const;

  private:
    const struct pollfd *find(int fd) const;
    std::vector<struct pollfd> slots_;
};

} // namespace strix

#endif // STRIX_NET_SOCKET_H
