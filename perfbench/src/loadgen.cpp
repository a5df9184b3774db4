#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util.h"

using namespace strix;

namespace perfbench {

const char *
requestSpanName(MsgType type)
{
    switch (type) {
    case MsgType::Ping:
        return "request.ping";
    case MsgType::RegisterTenant:
        return "request.register";
    case MsgType::Bootstrap:
        return "request.bootstrap";
    case MsgType::ApplyLut:
        return "request.apply_lut";
    case MsgType::EvalCircuit:
        return "request.circuit";
    default:
        return "request.other";
    }
}

bool
LoadGen::connect(uint16_t port)
{
    if (conns_.size() >= kMaxConns) {
        error_ = "generator connection cap reached";
        return false;
    }
    Conn c;
    c.tcp = TcpConn::connectLoopback(port);
    if (!c.tcp.valid() || !c.tcp.setNonBlocking(true) ||
        !c.tcp.setNoDelay(true)) {
        error_ = "cannot connect to 127.0.0.1:" + std::to_string(port);
        return false;
    }
    conns_.push_back(std::move(c));
    return true;
}

size_t
LoadGen::inflightTotal() const
{
    size_t n = 0;
    for (const Conn &c : conns_)
        n += c.open.size();
    return n;
}

uint64_t
LoadGen::send(size_t conn, MsgType type, uint64_t tenant,
              const std::vector<uint8_t> &payload, uint64_t tag,
              uint64_t due_us, uint32_t parent_span)
{
    Conn &c = conns_[conn];
    const uint64_t id = next_id_++;
    const uint64_t t0 = nowNs();
    WireMessage m;
    m.type = type;
    m.tenant = tenant;
    m.request_id = id;
    m.payload = payload;
    std::vector<uint8_t> frame = encodeMessage(m);
    m.payload = {};
    if (c.out.empty())
        c.out = std::move(frame);
    else
        c.out.insert(c.out.end(), frame.begin(), frame.end());
    flush(c);
    InFlight f;
    f.type = type;
    f.tag = tag;
    const uint64_t sent = nowNs();
    f.sent_us = sent / 1000;
    if (trace_.enabled()) {
        f.span = trace_.add(requestSpanName(type), t0, 0, parent_span, id);
        trace_.add("net.frame", t0, sent, f.span, id);
    }
    const uint64_t due = due_us != 0 ? due_us : f.sent_us;
    late_ms_.push_back(double(f.sent_us - std::min(f.sent_us, due)) / 1e3);
    c.open.emplace(id, f);
    ++sent_;
    return id;
}

bool
LoadGen::flush(Conn &c)
{
    while (c.out_off < c.out.size()) {
        size_t put = 0;
        const TcpConn::IoResult r = c.tcp.writeSome(
            c.out.data() + c.out_off, c.out.size() - c.out_off, put);
        if (r == TcpConn::IoResult::WouldBlock)
            return true;
        if (r != TcpConn::IoResult::Ok) {
            error_ = "connection write failed";
            return false;
        }
        c.out_off += put;
    }
    c.out.clear();
    c.out_off = 0;
    return true;
}

bool
LoadGen::pump(uint64_t wait_us, const ReplyFn &on_reply)
{
    poller_.clear();
    for (Conn &c : conns_) {
        if (!flush(c))
            return false;
        poller_.add(c.tcp.fd(), true, c.out_off < c.out.size());
    }
    // poll(2) takes whole milliseconds: wait on it for the whole part,
    // and cover a sub-millisecond rest in short sleeps between
    // non-blocking polls, so neither a scheduled send nor a reply
    // waits for a rounded-up timeout.
    const uint64_t until = nowUs() + wait_us;
    if (wait_us >= 1000) {
        poller_.wait(int(std::min<uint64_t>(wait_us / 1000, 50)));
    } else {
        while (poller_.wait(0) == 0) {
            const uint64_t now = nowUs();
            if (now >= until)
                break;
            std::this_thread::sleep_for(std::chrono::microseconds(
                std::min<uint64_t>(until - now, 200)));
        }
    }
    for (Conn &c : conns_) {
        if (poller_.writable(c.tcp.fd()) && !flush(c))
            return false;
        if (!poller_.readable(c.tcp.fd()) && !poller_.errored(c.tcp.fd()))
            continue;
        for (;;) {
            size_t got = 0;
            const TcpConn::IoResult r =
                c.tcp.readSome(rbuf_.data(), rbuf_.size(), got);
            if (r == TcpConn::IoResult::WouldBlock)
                break;
            if (r != TcpConn::IoResult::Ok) {
                error_ = "server closed a connection";
                return false;
            }
            c.decoder.feed(rbuf_.data(), got);
            if (got < rbuf_.size())
                break;
        }
        WireMessage reply;
        try {
            while (c.decoder.next(reply)) {
                const uint64_t now = nowUs();
                auto it = c.open.find(reply.request_id);
                if (it == c.open.end()) {
                    error_ = "reply for an unknown request id";
                    return false;
                }
                const InFlight req = it->second;
                c.open.erase(it);
                const size_t idx = size_t(&c - conns_.data());
                on_reply(idx, req, reply, now);
                if (req.span != 0)
                    trace_.end(req.span);
            }
        } catch (const std::exception &e) {
            error_ = std::string("malformed reply framing: ") + e.what();
            return false;
        }
    }
    return true;
}

bool
LoadGen::call(size_t conn, MsgType type, uint64_t tenant,
              const std::vector<uint8_t> &payload, WireMessage &reply,
              uint64_t timeout_us)
{
    const uint64_t id = send(conn, type, tenant, payload, 0);
    const uint64_t deadline = nowUs() + timeout_us;
    bool got = false;
    while (!got) {
        if (nowUs() > deadline) {
            error_ = "no reply within the setup timeout";
            return false;
        }
        if (!pump(10000, [&](size_t, const InFlight &, WireMessage &m,
                             uint64_t) {
                if (m.request_id == id) {
                    reply = std::move(m);
                    got = true;
                }
            }))
            return false;
    }
    return true;
}

} // namespace perfbench
