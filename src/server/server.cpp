/**
 * @file
 * StrixServer implementation: one poll loop that also steps circuit
 * runs, and the shared BatchExecutor doing the actual PBS work.
 */

#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "server/wire_codec.h"
#include "tfhe/bootstrap.h"
#include "tfhe/gates.h"

namespace strix {

namespace {

bool
futureReady(const std::future<LweCiphertext> &f)
{
    return f.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

/**
 * Whether two bundles are the same tenant keys: equal parameters and
 * equal mask seeds. The key bodies are not compared: honest keysets
 * drawn from different seeds have different mask seeds, so this tells
 * a re-upload apart from a key rotation without reading the key
 * material.
 */
bool
sameKeys(const EvalKeys &a, const EvalKeys &b)
{
    const TfheParams &p = a.params(), &q = b.params();
    return p.name == q.name && p.n == q.n && p.N == q.N && p.k == q.k &&
           p.l_bsk == q.l_bsk && p.bg_bits == q.bg_bits &&
           p.l_ksk == q.l_ksk && p.ks_base_bits == q.ks_base_bits &&
           p.lwe_noise == q.lwe_noise && p.glwe_noise == q.glwe_noise &&
           p.lambda == q.lambda &&
           a.seeds().bsk_mask == b.seeds().bsk_mask &&
           a.seeds().ksk_mask == b.seeds().ksk_mask;
}

} // namespace

StrixServer::CircuitJob::CircuitJob(std::shared_ptr<const EvalKeys> keys,
                                    Circuit c, CircuitPlan p,
                                    std::vector<LweCiphertext> inputs)
    : bundle(std::move(keys)), circuit(std::move(c)), plan(std::move(p)),
      sign_tv(signTestVector(bundle->params().N)),
      run(circuit, plan, bundle->params().n, std::move(inputs))
{
}

StrixServer::StrixServer(Options opts)
    : opts_(opts), clock_(std::make_shared<SteadyWaitableClock>()),
      executor_(std::make_shared<BatchExecutor>(opts.exec, clock_)),
      cache_(opts.cache_budget_bytes)
{
}

StrixServer::StrixServer() : StrixServer(Options()) {}

StrixServer::~StrixServer()
{
    stop();
}

bool
StrixServer::start()
{
    panicIfNot(!running_.load() && !loop_.joinable(),
               "StrixServer: start() called twice");
    listener_ = TcpListener::listenLoopback(opts_.port);
    if (!listener_.valid())
        return false;
    port_ = listener_.port();
    running_.store(true);
    loop_ = std::thread([this] { run(); });
    return true;
}

void
StrixServer::stop()
{
    stop_requested_.store(true);
    if (loop_.joinable())
        loop_.join();
    executor_->shutdown();
    running_.store(false);
}

StrixServer::Stats
StrixServer::stats() const
{
    Stats s;
    s.conns_accepted = conns_accepted_.load();
    s.requests = requests_.load();
    s.ok_replies = ok_replies_.load();
    s.error_replies = error_replies_.load();
    s.busy_rejects = busy_rejects_.load();
    s.deadline_misses = deadline_misses_.load();
    s.protocol_errors = protocol_errors_.load();
    return s;
}

void
StrixServer::sendOk(ConnState &c, const WireMessage &m,
                    std::vector<uint8_t> payload)
{
    WireMessage reply;
    reply.type = MsgType::Ok;
    reply.tenant = m.tenant;
    reply.request_id = m.request_id;
    reply.payload = std::move(payload);
    c.out.queue(encodeMessage(reply));
    ok_replies_.fetch_add(1, std::memory_order_relaxed);
}

void
StrixServer::sendErr(ConnState &c, uint64_t tenant, uint64_t request_id,
                     WireError code, const std::string &text)
{
    c.out.queue(encodeError(tenant, request_id, code, text));
    error_replies_.fetch_add(1, std::memory_order_relaxed);
}

void
StrixServer::handleRegister(ConnState &c, const WireMessage &m)
{
    std::shared_ptr<const EvalKeys> keys;
    try {
        keys = decodeEvalKeysPayload(m.payload);
    } catch (const std::exception &e) {
        sendErr(c, m.tenant, m.request_id, WireError::BadPayload,
                e.what());
        return;
    }
    std::shared_ptr<const EvalKeys> resident =
        cache_.getOrInsert(m.tenant, keys);
    // The cache keeps a resident bundle and drops the new one, so a
    // tenant id already bound to other keys must be refused: answering
    // Ok would run the client's later requests under the old keys.
    if (resident != keys && !sameKeys(*resident, *keys)) {
        sendErr(c, m.tenant, m.request_id, WireError::BadPayload,
                "tenant already registered with other keys");
        return;
    }
    sendOk(c, m, {});
}

void
StrixServer::handleCompute(ConnState &c, WireMessage &&m,
                           uint64_t now_us)
{
    if (m.payload.size() > opts_.max_request_payload_bytes) {
        sendErr(c, m.tenant, m.request_id, WireError::PayloadTooLarge,
                "request payload over the compute cap");
        return;
    }
    if (pendings_.size() >= opts_.max_queue_depth) {
        busy_rejects_.fetch_add(1, std::memory_order_relaxed);
        sendErr(c, m.tenant, m.request_id, WireError::Busy,
                "server queue full; retry with backoff");
        return;
    }
    size_t &tenant_inflight = inflight_[m.tenant];
    if (tenant_inflight >= opts_.max_inflight_per_tenant) {
        if (tenant_inflight == 0)
            inflight_.erase(m.tenant);
        busy_rejects_.fetch_add(1, std::memory_order_relaxed);
        sendErr(c, m.tenant, m.request_id, WireError::Busy,
                "tenant in-flight cap reached; retry with backoff");
        return;
    }
    std::shared_ptr<const EvalKeys> bundle = cache_.lookup(m.tenant);
    if (!bundle) {
        if (tenant_inflight == 0)
            inflight_.erase(m.tenant);
        sendErr(c, m.tenant, m.request_id, WireError::UnknownTenant,
                "tenant not registered (or evicted); re-register");
        return;
    }
    const TfheParams &p = bundle->params();

    Pending pend;
    pend.conn_id = c.id;
    pend.tenant = m.tenant;
    pend.request_id = m.request_id;
    // Saturate: a deadline past the end of the clock never expires.
    pend.deadline_abs_us =
        m.deadline_us == 0 ? 0
                           : now_us + std::min(m.deadline_us,
                                               UINT64_MAX - now_us);
    try {
        switch (m.type) {
        case MsgType::Bootstrap: {
            BootstrapRequest req = decodeBootstrapPayload(m.payload);
            if (req.ct.dim() != p.n || req.tv.size() != p.N)
                throw std::runtime_error(
                    "request shape does not match tenant parameters");
            pend.single = executor_->submit(bundle, std::move(req.ct),
                                            std::move(req.tv));
            break;
        }
        case MsgType::ApplyLut: {
            ApplyLutRequest req = decodeApplyLutPayload(m.payload);
            // A LUT wider than the ring cannot be laid out on the test
            // vector (makeIntTestVector would abort the daemon).
            if (req.ct.dim() != p.n || req.msg_space > p.N)
                throw std::runtime_error(
                    "request shape does not match tenant parameters");
            TorusPolynomial tv = makeIntTestVector(
                p.N, req.msg_space,
                [t = std::move(req.table)](int64_t v) {
                    return t[static_cast<size_t>(v) % t.size()];
                });
            pend.single = executor_->submit(bundle, std::move(req.ct),
                                            std::move(tv));
            break;
        }
        case MsgType::EvalCircuit: {
            CircuitRequest req = decodeCircuitPayload(m.payload);
            for (const LweCiphertext &ct : req.inputs)
                if (ct.dim() != p.n)
                    throw std::runtime_error(
                        "input ciphertext does not match tenant "
                        "parameters");
            CircuitPlan plan = analyzeCircuit(req.circuit, p);
            if (!plan.feasible()) {
                std::ostringstream os;
                os << "no feasible noise plan:";
                for (const std::string &d : plan.diagnostics())
                    os << " " << d << ";";
                if (tenant_inflight == 0)
                    inflight_.erase(m.tenant);
                sendErr(c, m.tenant, m.request_id,
                        WireError::Infeasible, os.str());
                return;
            }
            // The job owns bundle + request for the eval's whole
            // lifetime (pinning the tenant resident); each level's PBS
            // feed the shared executor, coalescing with the
            // Bootstrap/ApplyLut traffic of every session.
            pend.circuit = std::make_unique<CircuitJob>(
                bundle, std::move(req.circuit), std::move(plan),
                std::move(req.inputs));
            submitLevel(*pend.circuit);
            break;
        }
        default:
            panic("handleCompute: unreachable type");
        }
    } catch (const std::exception &e) {
        if (tenant_inflight == 0)
            inflight_.erase(m.tenant);
        sendErr(c, m.tenant, m.request_id, WireError::BadPayload,
                e.what());
        return;
    }
    ++tenant_inflight;
    pendings_.push_back(std::move(pend));
}

void
StrixServer::handleMessage(ConnState &c, WireMessage &&m,
                           uint64_t now_us)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    const bool draining = stop_requested_.load();
    switch (m.type) {
    case MsgType::Ping:
        sendOk(c, m, std::move(m.payload)); // echo
        break;
    case MsgType::RegisterTenant:
        if (draining) {
            sendErr(c, m.tenant, m.request_id,
                    WireError::ShuttingDown, "server is draining");
            break;
        }
        handleRegister(c, m);
        break;
    case MsgType::Bootstrap:
    case MsgType::ApplyLut:
    case MsgType::EvalCircuit:
        if (draining) {
            sendErr(c, m.tenant, m.request_id,
                    WireError::ShuttingDown, "server is draining");
            break;
        }
        handleCompute(c, std::move(m), now_us);
        break;
    default:
        sendErr(c, m.tenant, m.request_id, WireError::UnknownType,
                "unknown message type");
        break;
    }
}

bool
StrixServer::serviceReadable(ConnState &c, uint64_t now_us)
{
    if (rbuf_.empty())
        rbuf_.resize(64 * 1024);
    while (c.out.pendingBytes() < kMaxUnsentBytes) {
        size_t got = 0;
        const TcpConn::IoResult r =
            c.conn.readSome(rbuf_.data(), rbuf_.size(), got);
        if (r == TcpConn::IoResult::WouldBlock)
            return true;
        if (r != TcpConn::IoResult::Ok)
            return false; // Eof / Error: drop the connection
        try {
            c.dec.feed(rbuf_.data(), got);
            WireMessage m;
            while (c.dec.next(m))
                handleMessage(c, std::move(m), now_us);
        } catch (const std::exception &e) {
            // Malformed outer framing: no trustworthy resync point.
            // Answer with a structured error frame, then close once
            // it has flushed -- hostile bytes never crash the loop.
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            sendErr(c, 0, 0, WireError::Protocol, e.what());
            c.closing = true;
            return true;
        }
    }
    return true; // at the egress cap
}

void
StrixServer::acceptPending()
{
    for (;;) {
        TcpConn nc = listener_.accept();
        if (!nc.valid())
            return;
        const uint64_t id = next_conn_id_++;
        ConnState st;
        st.id = id;
        st.conn = std::move(nc);
        st.dec = FrameDecoder(opts_.limits);
        conns_.emplace(id, std::move(st));
        conns_accepted_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
StrixServer::submitLevel(CircuitJob &job)
{
    job.level.clear();
    for (const LweCiphertext &lin : job.run.pending())
        job.level.push_back(executor_->submit(job.bundle, lin, job.sign_tv));
}

bool
StrixServer::advanceCircuit(CircuitJob &job, std::string &fail)
{
    if (job.run.done())
        return true;
    for (const std::future<LweCiphertext> &f : job.level)
        if (!futureReady(f))
            return false;
    std::vector<LweCiphertext> outs;
    outs.reserve(job.level.size());
    try {
        for (std::future<LweCiphertext> &f : job.level)
            outs.push_back(f.get());
    } catch (const std::exception &e) {
        fail = e.what();
        return true;
    }
    job.run.complete(std::move(outs));
    submitLevel(job);
    return job.run.done();
}

void
StrixServer::completeFinished()
{
    for (auto it = pendings_.begin(); it != pendings_.end();) {
        Pending &pend = *it;
        std::vector<LweCiphertext> cts;
        std::string fail;
        if (pend.circuit) {
            if (!advanceCircuit(*pend.circuit, fail)) {
                ++it;
                continue;
            }
            if (fail.empty())
                cts = pend.circuit->run.outputs();
        } else {
            if (!futureReady(pend.single)) {
                ++it;
                continue;
            }
            try {
                cts.push_back(pend.single.get());
            } catch (const std::exception &e) {
                fail = e.what();
            }
        }
        const uint64_t done_us = clock_->nowMicros();
        const bool missed = pend.deadline_abs_us != 0 &&
                            done_us > pend.deadline_abs_us;
        if (missed)
            deadline_misses_.fetch_add(1, std::memory_order_relaxed);
        auto cit = conns_.find(pend.conn_id);
        if (cit != conns_.end() && !cit->second.closing) {
            ConnState &c = cit->second;
            if (!fail.empty()) {
                sendErr(c, pend.tenant, pend.request_id,
                        WireError::Internal, fail);
            } else if (missed) {
                sendErr(c, pend.tenant, pend.request_id,
                        WireError::DeadlineExceeded,
                        "completed after the request deadline");
            } else {
                WireMessage reply;
                reply.tenant = pend.tenant;
                reply.request_id = pend.request_id;
                sendOk(c, reply, encodeCiphertexts(cts));
            }
        }
        auto fit = inflight_.find(pend.tenant);
        if (fit != inflight_.end() && --fit->second == 0)
            inflight_.erase(fit);
        it = pendings_.erase(it);
    }
}

void
StrixServer::flushSenders()
{
    std::vector<uint64_t> dead;
    for (auto &[id, c] : conns_) {
        if (!c.out.empty()) {
            const TcpConn::IoResult r = c.out.flushTo(c.conn);
            if (r == TcpConn::IoResult::Eof ||
                r == TcpConn::IoResult::Error) {
                dead.push_back(id);
                continue;
            }
        }
        if (c.closing && c.out.empty())
            dead.push_back(id);
    }
    for (uint64_t id : dead)
        conns_.erase(id);
}

void
StrixServer::run()
{
    Poller poller;
    uint64_t close_at_us = 0; //!< drain deadline for unsent replies
    for (;;) {
        const bool draining = stop_requested_.load();
        completeFinished();
        // Drain must not depend on the executor's own flush policy: a
        // long flush_delay_us would strand admitted work (and us)
        // forever. Force everything queued due each pass, including
        // the circuit levels completeFinished just submitted.
        if (draining && !pendings_.empty())
            executor_->flushNow();
        flushSenders();
        if (draining && pendings_.empty()) {
            // Every request is answered; a peer that stopped reading
            // must not hold stop() past the grace.
            const uint64_t now_us = clock_->nowMicros();
            if (close_at_us == 0)
                close_at_us = now_us + kDrainGraceUs;
            const bool flushed = std::all_of(
                conns_.begin(), conns_.end(),
                [](const auto &e) { return e.second.out.empty(); });
            if (flushed || now_us >= close_at_us)
                break;
        }
        poller.clear();
        poller.add(executor_->completionFd(), true, false);
        if (!draining)
            poller.add(listener_.fd(), true, false);
        for (const auto &[id, c] : conns_) {
            (void)id;
            const bool read = !draining && !c.closing &&
                              c.out.pendingBytes() < kMaxUnsentBytes;
            poller.add(c.conn.fd(), read, !c.out.empty());
        }
        // A completed future signals the executor's pipe, which wakes
        // this wait; the next pass's completeFinished() then sees it.
        // The heartbeat bounds how fast stop() is noticed.
        poller.wait(20);
        executor_->drainCompletions();
        const uint64_t now_us = clock_->nowMicros();
        if (!draining && poller.readable(listener_.fd()))
            acceptPending();
        std::vector<uint64_t> dead;
        for (auto &[id, c] : conns_) {
            const int fd = c.conn.fd();
            if (poller.errored(fd) ||
                (!c.closing && poller.readable(fd) &&
                 !serviceReadable(c, now_us)))
                dead.push_back(id);
        }
        for (uint64_t id : dead)
            conns_.erase(id);
    }
    conns_.clear();
    listener_.close();
}

} // namespace strix
