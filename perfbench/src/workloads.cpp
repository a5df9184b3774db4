#include "workloads.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>

#include "common/parallel.h"
#include "inputs.h"
#include "layers.h"
#include "loadgen.h"
#include "poly/simd.h"
#include "server/server.h"
#include "server/wire_codec.h"
#include "trace.h"
#include "util.h"

using namespace strix;

namespace perfbench {

namespace {

/** Setups per untraced run; setup_s is their median. */
constexpr int kSetupReps = 3;
constexpr uint64_t kCallTimeoutUs = 60'000'000;
constexpr uint64_t kDrainTimeoutUs = 60'000'000;
constexpr uint64_t kPingPeriodUs = 20'000;
constexpr uint64_t kChurnPeriodUs = 2'000'000;
constexpr uint64_t kChurnOffsetUs = 500'000;
/** Distinct churn keysets: more than the budget's churn slots (2). */
constexpr uint32_t kChurnKeysets = 3;
constexpr uint64_t kFirstChurnTenant = 100;
constexpr uint32_t kTenants = 2;
/** Sweep width of pbs_sweep: the executor's target_batch. */
constexpr size_t kSweepWidth = 16;

/** What a serving workload runs; both are closed loops at set I. */
struct ServeSpec
{
    size_t window = 0; //!< requests outstanding per tenant
    bool circuits = false;
    bool churn = false;
    double tail_q = 0.99;
};

ServeSpec
serveSpec(const std::string &workload)
{
    ServeSpec s;
    if (workload == "serve_set1") {
        s.window = 2;
    } else { // circuit_churn
        s.window = 1;
        s.circuits = true;
        s.churn = true;
        s.tail_q = 0.90;
    }
    return s;
}

struct Tenant
{
    uint64_t id = 0;
    std::unique_ptr<ClientKeyset> keys;
    std::vector<ServeRequest> pool;
    std::vector<CircuitItem> circuits;
    size_t next = 0;                //!< next pool entry to send
    std::vector<uint64_t> freed_at; //!< replies whose slot is not refilled
};

/** A running daemon with its tenants and the generator's connections. */
struct Rig
{
    std::unique_ptr<StrixServer> server;
    std::vector<Tenant> tenants; //!< tenant i sends on connection i
    std::unique_ptr<LoadGen> gen;
    size_t ping_conn = 0;
    size_t churn_conn = 0;
    std::vector<uint8_t> evk2; //!< tenant 0's upload (probe input)

    ~Rig()
    {
        gen.reset();
        if (server)
            server->stop();
    }
};

/** "" for an Ok reply, else the failure reason (error code name). */
std::string
errorReason(const WireMessage &m)
{
    if (m.type == MsgType::Ok)
        return "";
    if (m.type != MsgType::Error)
        return "unexpected_reply_type";
    try {
        return wireErrorName(decodeErrorPayload(m.payload).code);
    } catch (const std::exception &) {
        return "malformed_error_reply";
    }
}

/** Decode-check an Ok reply; "" when every output is right. */
std::string
checkLut(const WireMessage &m, const ClientKeyset &keys, int64_t expect)
{
    const std::vector<LweCiphertext> out = decodeCiphertexts(m.payload);
    if (out.size() != 1)
        return "reply holds " + std::to_string(out.size()) +
               " ciphertexts, expected 1";
    const int64_t got = keys.decryptInt(out[0], kMsgSpace);
    if (got != expect)
        return "decrypted " + std::to_string(got) + ", LUT gives " +
               std::to_string(expect);
    return "";
}

std::string
checkCircuit(const WireMessage &m, const ClientKeyset &keys,
             const std::vector<bool> &expect)
{
    const std::vector<LweCiphertext> out = decodeCiphertexts(m.payload);
    if (out.size() != expect.size())
        return "reply holds " + std::to_string(out.size()) +
               " output bits, expected " + std::to_string(expect.size());
    for (size_t b = 0; b < out.size(); ++b)
        if (keys.decryptBit(out[b]) != expect[b])
            return "output bit " + std::to_string(b) +
                   " differs from Circuit::evalPlain";
    return "";
}

/**
 * Classify a compute reply: counts it in @p phase and returns true
 * only when it is Ok and decode-checks.
 */
bool
judge(const WireMessage &m, const std::string &phase, Report &report,
      const std::function<std::string()> &check)
{
    const std::string reason = errorReason(m);
    if (!reason.empty()) {
        report.fail(phase, reason);
        return false;
    }
    std::string bad;
    try {
        bad = check();
    } catch (const std::exception &e) {
        bad = std::string("undecodable reply: ") + e.what();
    }
    if (!bad.empty()) {
        report.mismatch(phase, bad);
        return false;
    }
    report.succeed(phase);
    return true;
}

/** Blocking setup round trip, counted in the "setup" phase. */
bool
setupCall(Rig &rig, size_t conn, MsgType type, uint64_t tenant,
          const std::vector<uint8_t> &payload, Report &report,
          const std::function<std::string(const WireMessage &)> &check)
{
    report.attempt("setup");
    WireMessage reply;
    if (!rig.gen->call(conn, type, tenant, payload, reply, kCallTimeoutUs)) {
        report.abort("setup: " + rig.gen->error());
        return false;
    }
    if (!judge(reply, "setup", report, [&] { return check(reply); })) {
        report.abort("setup: " + std::string(requestSpanName(type)) +
                     " for tenant " + std::to_string(tenant) +
                     " was not answered with a correct Ok");
        return false;
    }
    return true;
}

/**
 * Start a daemon, make and register the tenants' keys, connect, and
 * run one warm-up request per tenant. Returns the set-up seconds; key
 * registration round trips are appended to @p register_ms.
 */
double
setupRig(const ServeSpec &spec, uint64_t seed,
         SpanStore &trace, Report &report, Rig &rig,
         std::vector<double> &register_ms)
{
    const uint64_t t_start = nowUs();
    const uint32_t root = trace.begin("setup");
    for (uint32_t i = 0; i < kTenants; ++i) {
        ScopedSpan s(trace, "tfhe.keygen", root);
        Tenant t;
        t.id = i + 1;
        t.keys = std::make_unique<ClientKeyset>(
            paramsSetI(), deriveSeed(seed, "tenant" + std::to_string(i)));
        rig.tenants.push_back(std::move(t));
    }
    StrixServer::Options opts;
    if (spec.churn)
        opts.cache_budget_bytes =
            4 * rig.tenants[0].keys->evalKeys()->residentBytes();
    {
        ScopedSpan s(trace, "server.start", root);
        rig.server = std::make_unique<StrixServer>(opts);
        if (!rig.server->start()) {
            report.abort("setup: the daemon could not bind a loopback port");
            return 0;
        }
    }
    rig.gen = std::make_unique<LoadGen>(trace);
    {
        ScopedSpan s(trace, "net.connect", root);
        const size_t conns = kTenants + 1 + (spec.churn ? 1 : 0);
        for (size_t c = 0; c < conns; ++c)
            if (!rig.gen->connect(rig.server->port())) {
                report.abort("setup: " + rig.gen->error());
                return 0;
            }
        rig.ping_conn = kTenants;
        rig.churn_conn = kTenants + 1;
    }
    for (size_t i = 0; i < rig.tenants.size(); ++i) {
        Tenant &t = rig.tenants[i];
        std::vector<uint8_t> evk2;
        {
            ScopedSpan s(trace, "tfhe.evk2_encode", root);
            evk2 = encodeEvalKeysPayload(*t.keys->evalKeys(),
                                         EvalKeysFormat::Seeded);
        }
        const uint64_t t0 = nowUs();
        if (!setupCall(rig, i, MsgType::RegisterTenant, t.id, evk2, report,
                       [](const WireMessage &) { return std::string(); }))
            return 0;
        register_ms.push_back(double(nowUs() - t0) / 1e3);
        if (i == 0)
            rig.evk2 = std::move(evk2);
    }
    const uint32_t warm = trace.begin("warmup", root);
    for (size_t i = 0; i < rig.tenants.size(); ++i) {
        Tenant &t = rig.tenants[i];
        const uint64_t wseed = deriveSeed(seed, "warmup" + std::to_string(i));
        bool ok;
        if (spec.circuits) {
            const CircuitItem it =
                makeCircuitPool(buildAdder(8), *t.keys, wseed, 1)[0];
            ok = setupCall(rig, i, MsgType::EvalCircuit, t.id, it.payload,
                           report, [&](const WireMessage &m) {
                               return checkCircuit(m, *t.keys, it.expect);
                           });
        } else {
            const ServeRequest r = makeServePool(*t.keys, wseed, 1)[0];
            ok = setupCall(rig, i, r.type, t.id, r.payload, report,
                           [&](const WireMessage &m) {
                               return checkLut(m, *t.keys, r.expect);
                           });
        }
        if (!ok)
            return 0;
    }
    trace.end(warm);
    trace.end(root);
    return double(nowUs() - t_start) / 1e6;
}

/** The churn connection's uploads: distinct EVK2 frames and their order. */
struct Churn
{
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<uint32_t> order;
    size_t next = 0; //!< uploads sent so far (tenant id offset)
};

/** What one measured stretch of serving load produced. */
struct LoadStats
{
    std::vector<double> latency_ms; //!< compute requests; misses = kMissed
    std::vector<double> register_ms;
    std::vector<double> req_bytes;
    std::vector<double> reply_bytes;
    uint64_t ok_in_window = 0;
    double seconds = 0;
};

/** "bootstrap", "apply_lut", ...: the phase suffix of a request type. */
std::string
kind(MsgType type)
{
    return requestSpanName(type) + std::string("request.").size();
}

/**
 * Drive @p seconds of the workload's load through the generator, then
 * wait for every outstanding reply. Each tenant's window is refilled
 * as its replies arrive. Pings (and churn uploads) run beside the load
 * on their own connections.
 */
LoadStats
runLoad(Rig &rig, const ServeSpec &spec, double seconds,
        const std::string &phase, Churn *churn, SpanStore &trace,
        Report &report)
{
    LoadStats ls;
    ls.seconds = seconds;
    LoadGen &gen = *rig.gen;
    const uint32_t span = trace.begin(phase);
    const uint64_t t0 = nowUs() + 1000;
    const uint64_t end = t0 + uint64_t(seconds * 1e6);
    uint64_t next_ping = t0;
    uint64_t next_churn = t0 + kChurnOffsetUs;

    auto sendCompute = [&](size_t t, uint64_t due) {
        Tenant &ten = rig.tenants[t];
        const size_t n = spec.circuits ? ten.circuits.size() : ten.pool.size();
        const size_t idx = ten.next++ % n;
        const MsgType type =
            spec.circuits ? MsgType::EvalCircuit : ten.pool[idx].type;
        const std::vector<uint8_t> &payload =
            spec.circuits ? ten.circuits[idx].payload : ten.pool[idx].payload;
        report.attempt(phase + "." + kind(type));
        ls.req_bytes.push_back(double(kMsg1HeaderBytes + payload.size()));
        gen.send(t, type, ten.id, payload, (uint64_t(t) << 32) | idx, due,
                 span);
    };

    auto onReply = [&](size_t, const LoadGen::InFlight &f, WireMessage &m,
                       uint64_t now) {
        const std::string ph = phase + "." + kind(f.type);
        if (f.type == MsgType::Ping ||
            f.type == MsgType::RegisterTenant) {
            if (judge(m, ph, report, [] { return std::string(); }) &&
                f.type == MsgType::RegisterTenant)
                ls.register_ms.push_back(double(now - f.sent_us) / 1e3);
            return;
        }
        Tenant &ten = rig.tenants[f.tag >> 32];
        const size_t idx = f.tag & 0xffffffffu;
        const uint32_t check = trace.begin("client.check", f.span,
                                           m.request_id);
        const bool good = judge(m, ph, report, [&] {
            return spec.circuits
                       ? checkCircuit(m, *ten.keys, ten.circuits[idx].expect)
                       : checkLut(m, *ten.keys, ten.pool[idx].expect);
        });
        trace.end(check);
        // Timed from the send; a failed request is later than any limit.
        ls.latency_ms.push_back(good ? double(now - f.sent_us) / 1e3
                                     : kMissed);
        if (good) {
            ls.reply_bytes.push_back(
                double(kMsg1HeaderBytes + m.payload.size()));
            if (now <= end)
                ++ls.ok_in_window;
        }
        ten.freed_at.push_back(now);
    };

    for (;;) {
        const uint64_t now = nowUs();
        uint64_t wake = now + 50'000;
        if (now < end) {
            for (size_t t = 0; t < rig.tenants.size(); ++t) {
                Tenant &ten = rig.tenants[t];
                size_t freed = 0;
                while (gen.inflight(t) < spec.window)
                    sendCompute(t, freed < ten.freed_at.size()
                                       ? ten.freed_at[freed++]
                                       : now);
                ten.freed_at.clear();
            }
            if (now >= next_ping) {
                report.attempt(phase + ".ping");
                gen.send(rig.ping_conn, MsgType::Ping, 0, {}, 0, next_ping,
                         span);
                next_ping += kPingPeriodUs;
            }
            if (churn && now >= next_churn) {
                const uint64_t tenant = kFirstChurnTenant + churn->next;
                const std::vector<uint8_t> &evk2 =
                    churn->payloads[churn->order[churn->next %
                                                 churn->order.size()]];
                report.attempt(phase + ".register");
                gen.send(rig.churn_conn, MsgType::RegisterTenant, tenant,
                         evk2, 0, next_churn, span);
                ++churn->next;
                next_churn += kChurnPeriodUs;
            }
            wake = std::min({wake, end, next_ping});
            if (churn)
                wake = std::min(wake, next_churn);
        } else if (gen.inflightTotal() == 0) {
            break;
        } else if (now > end + kDrainTimeoutUs) {
            report.abort(phase + ": replies still outstanding 60 s after "
                                 "the load stopped");
            break;
        }
        const uint64_t t = nowUs();
        if (!gen.pump(wake > t ? wake - t : 0, onReply)) {
            report.abort(phase + ": " + gen.error());
            break;
        }
    }
    trace.end(span);
    return ls;
}

void
runContext(const RunOptions &o, const TfheParams &p, Report &report)
{
    report.context("source", jsonString(o.source_id));
    report.context("nproc",
                   std::to_string(std::thread::hardware_concurrency()));
    report.context("kernels", jsonString(activeKernels().name));
    report.context("build_type", jsonString(PERFBENCH_BUILD_TYPE));
    report.context("pool_threads",
                   std::to_string(ThreadPool::defaultThreadCount()));
    report.context("params",
                   jsonString(p.name + " n=" + std::to_string(p.n) +
                              " N=" + std::to_string(p.N)));
    report.context("seconds", jsonNumber(o.seconds));
}

/**
 * Latency readings of a run, with their sample counts in the context.
 * Untraced runs report the median as op_p50_ms; the tail and the key
 * registration median go to the context line only, because on a shared
 * host their run-to-run spread is wider than any usable regression
 * bound (see README). Traced runs report those two as gen.* metrics.
 */
void
latencyReport(const std::vector<double> &lat_ms, double tail_q,
              const std::vector<double> &register_ms, bool traced,
              Report &report)
{
    const Summary s = summarize(lat_ms, tail_q);
    const double reg = median(register_ms);
    if (traced) {
        report.metric("gen.op_tail_ms", s.tail, "ms");
        report.metric("gen.register_p50_ms", reg, "ms");
    } else {
        report.metric("op_p50_ms", s.p50, "ms");
        report.context("op_tail_ms", jsonNumber(s.tail));
        report.context("register_p50_ms", jsonNumber(reg));
    }
    report.context("op_samples", std::to_string(s.n));
    report.context("op_missed", std::to_string(s.missed));
    report.context("op_tail_nominal_q", jsonNumber(tail_q));
    report.context("op_tail_q", jsonNumber(s.tail_q));
    report.context("register_samples", std::to_string(register_ms.size()));
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

/** Per-layer metrics of the generator, wire, daemon and its caches. */
struct ServingLayers
{
    BatchExecutor::Stats exec; //!< counters over the traced stretch
    size_t target_batch = 16;
    StrixServer::Stats server;
    CacheStats cache;
    double keys_resident_bytes = 0;
    std::vector<double> req_bytes;
    std::vector<double> reply_bytes;
    std::vector<double> late_ms;
    uint64_t sent = 0;
    double overhead_pct = 0;
};

void
servingLayerMetrics(const ServingLayers &l, const SpanStore &trace,
                    Report &report)
{
    const double sweeps = double(std::max<uint64_t>(l.exec.sweeps, 1));
    const double width = double(l.exec.swept_lwes) / sweeps;
    report.metric("tfhe.exec_mean_width", width, "count");
    report.metric("tfhe.exec_occupancy", width / double(l.target_batch),
                  "ratio");
    report.metric("tfhe.exec_deadline_flush_share",
                  double(l.exec.deadline_flushes) / sweeps, "ratio");
    const Summary ping = summarize(trace.durationsUs("request.ping"), 0.99);
    report.metric("net.ping_p50_us", ping.p50, "us");
    report.metric("net.ping_p99_us", ping.tail, "us");
    report.context("ping_samples", std::to_string(ping.n));
    report.metric("net.req_bytes", mean(l.req_bytes), "bytes");
    report.metric("net.reply_bytes", mean(l.reply_bytes), "bytes");
    report.metric("server.busy_rejects", double(l.server.busy_rejects),
                  "count");
    report.metric("server.error_replies", double(l.server.error_replies),
                  "count");
    report.metric("server.deadline_misses",
                  double(l.server.deadline_misses), "count");
    report.metric("tfhe.keygen_ms",
                  median(trace.durationsUs("tfhe.keygen")) / 1e3, "ms");
    report.metric("tfhe.keys_resident_mb",
                  l.keys_resident_bytes / (1024.0 * 1024.0), "MiB");
    report.metric("tfhe.cache_inserts", double(l.cache.inserts), "count");
    report.metric("tfhe.cache_evictions", double(l.cache.evictions),
                  "count");
    report.metric("gen.late_p99_ms", summarize(l.late_ms, 0.99).tail, "ms");
    report.metric("gen.sent", double(l.sent), "count");
    report.metric("trace.overhead_pct", l.overhead_pct, "%");
}

BatchExecutor::Stats
statsDelta(const BatchExecutor::Stats &a, const BatchExecutor::Stats &b)
{
    BatchExecutor::Stats d = b;
    d.submitted -= a.submitted;
    d.completed -= a.completed;
    d.sweeps -= a.sweeps;
    d.swept_lwes -= a.swept_lwes;
    d.size_flushes -= a.size_flushes;
    d.deadline_flushes -= a.deadline_flushes;
    d.drain_flushes -= a.drain_flushes;
    return d;
}

void
runServe(const RunOptions &o, Report &report)
{
    const ServeSpec spec = serveSpec(o.workload);
    runContext(o, paramsSetI(), report);
    SpanStore trace(o.trace);
    std::vector<double> setup_s, register_ms;
    std::unique_ptr<Rig> rig;
    const int reps = o.trace ? 1 : kSetupReps;
    for (int r = 0; r < reps; ++r) {
        rig.reset();
        if (r == reps - 1)
            report.context("rss_from_last_setup",
                           restartPeakRss() ? "true" : "false");
        rig = std::make_unique<Rig>();
        setup_s.push_back(
            setupRig(spec, o.seed, trace, report, *rig, register_ms));
        if (report.aborted())
            return;
    }

    // Input pools: generated after set-up, outside its clock.
    const Circuit adder = buildAdder(8);
    for (size_t t = 0; t < rig->tenants.size(); ++t) {
        Tenant &ten = rig->tenants[t];
        const std::string tag = std::to_string(t);
        if (spec.circuits)
            ten.circuits = makeCircuitPool(
                adder, *ten.keys, deriveSeed(o.seed, "circuits" + tag), 16);
        else
            ten.pool = makeServePool(*ten.keys,
                                     deriveSeed(o.seed, "pool" + tag), 128);
    }
    Churn churn;
    if (spec.churn) {
        for (uint32_t k = 0; k < kChurnKeysets; ++k) {
            const ClientKeyset keys(
                paramsSetI(), deriveSeed(o.seed, "churn" + std::to_string(k)));
            churn.payloads.push_back(encodeEvalKeysPayload(
                *keys.evalKeys(), EvalKeysFormat::Seeded));
        }
        churn.order =
            makeChurnOrder(deriveSeed(o.seed, "churn-order"), 64,
                           kChurnKeysets);
    }
    Churn *churn_ptr = spec.churn ? &churn : nullptr;
    report.context("workload_digest",
                   jsonString(std::to_string(
                       spec.circuits ? digest(rig->tenants[0].circuits)
                                     : digest(rig->tenants[0].pool))));

    if (!o.trace) {
        const LoadStats ls = runLoad(*rig, spec, o.seconds, "measure",
                                     churn_ptr, trace, report);
        if (report.aborted())
            return;
        report.metric("setup_s", median(setup_s), "s");
        report.metric("peak_rss_mb", peakRssMiB(), "MiB");
        report.metric("ops_per_s", double(ls.ok_in_window) / ls.seconds,
                      "1/s");
        latencyReport(ls.latency_ms, spec.tail_q,
                      spec.churn ? ls.register_ms : register_ms, false,
                      report);
        report.context("setup_samples", std::to_string(setup_s.size()));
        return;
    }

    // Traced run: the same load untraced, then traced; the difference
    // is the tracing overhead. Per-layer metrics come from the traced
    // half and the probes that follow it.
    const double half = o.seconds / 2;
    trace.setEnabled(false);
    const LoadStats plain =
        runLoad(*rig, spec, half, "untraced", churn_ptr, trace, report);
    trace.setEnabled(true);
    rig->gen->clearLate();
    const BatchExecutor::Stats e0 = rig->server->executorStats();
    const LoadStats traced =
        runLoad(*rig, spec, half, "traced", churn_ptr, trace, report);
    if (report.aborted())
        return;
    ServingLayers l;
    l.exec = statsDelta(e0, rig->server->executorStats());
    l.target_batch = rig->server->options().exec.target_batch;
    l.server = rig->server->stats();
    l.cache = rig->server->cacheStats();
    l.keys_resident_bytes = double(l.cache.resident_bytes);
    l.req_bytes = traced.req_bytes;
    l.reply_bytes = traced.reply_bytes;
    l.late_ms = rig->gen->lateMs();
    l.sent = rig->gen->sent();
    l.overhead_pct = 100.0 *
                     (double(plain.ok_in_window) -
                      double(traced.ok_in_window)) /
                     double(std::max<uint64_t>(plain.ok_in_window, 1));
    servingLayerMetrics(l, trace, report);
    latencyReport(traced.latency_ms, spec.tail_q,
                  spec.churn ? traced.register_ms : register_ms, true,
                  report);

    const Tenant &first = rig->tenants[0];
    const ServerContext ctx(first.keys->evalKeys());
    ProbeInputs in;
    in.keys = first.keys.get();
    in.server = &ctx;
    in.requests.assign(first.pool.begin(),
                       first.pool.begin() +
                           long(std::min<size_t>(first.pool.size(), 32)));
    in.circuits.assign(first.circuits.begin(),
                       first.circuits.begin() +
                           long(std::min<size_t>(first.circuits.size(), 8)));
    in.reply_cts = spec.circuits ? adder.numOutputs() : 1;
    in.evk2 = rig->evk2;
    probeLayers(in, o.seed, trace, report);

    DirectLoad dl;
    for (const Tenant &t : rig->tenants)
        dl.tenants.push_back(t.keys.get());
    dl.window = spec.window;
    dl.seconds = 2;
    replayDirect(dl, o.seed, trace, report);
    report.context("spans", std::to_string(trace.size()));
    if (!o.trace_path.empty() && !trace.writeJson(o.trace_path))
        report.abort("cannot write the trace to " + o.trace_path);
}

/** pbs_sweep's in-process state: the keyset and the installed bundle. */
struct SweepRig
{
    std::unique_ptr<ClientKeyset> keys;
    std::vector<uint8_t> evk2;
    std::unique_ptr<ServerContext> server;
};

/**
 * Run one width-16 sweep over items [first, first + 16) and check it;
 * adds the outputs that decode to their LUT result to @p right and
 * returns the sweep's milliseconds.
 */
double
sweepOnce(const SweepRig &rig, const std::vector<SweepItem> &items,
          size_t first, const std::string &phase, SpanStore &trace,
          uint32_t parent, Report &report, uint64_t &right)
{
    std::vector<LweCiphertext> cts;
    std::vector<const TorusPolynomial *> tvs;
    for (size_t i = 0; i < kSweepWidth; ++i) {
        const SweepItem &it = items[(first + i) % items.size()];
        cts.push_back(it.ct);
        tvs.push_back(&it.tv);
    }
    const uint64_t t0 = nowNs();
    const std::vector<LweCiphertext> out =
        rig.server->bootstrapBatch(cts.data(), tvs.data(), kSweepWidth);
    const uint64_t t1 = nowNs();
    trace.add("load.sweep", t0, t1, parent);
    for (size_t i = 0; i < kSweepWidth; ++i)
        right += checkPbsOutput(*rig.keys, out[i],
                                items[(first + i) % items.size()].expect,
                                phase, report);
    return double(t1 - t0) / 1e6;
}

double
singleOnce(const SweepRig &rig, const SweepItem &it,
           const std::string &phase, SpanStore &trace, uint32_t parent,
           Report &report)
{
    const uint64_t t0 = nowNs();
    const LweCiphertext out = rig.server->bootstrap(it.ct, it.tv);
    const uint64_t t1 = nowNs();
    trace.add("load.single", t0, t1, parent);
    checkPbsOutput(*rig.keys, out, it.expect, phase, report);
    return double(t1 - t0) / 1e6;
}

/**
 * Keygen, EVK2 round trip into a fresh ServerContext (the key
 * install, appended to @p install_ms), and one warm-up sweep and
 * single bootstrap. Returns the set-up seconds.
 */
double
setupSweep(uint64_t seed, SpanStore &trace, Report &report, SweepRig &rig,
           std::vector<double> &install_ms)
{
    const uint64_t t_start = nowUs();
    const uint32_t root = trace.begin("setup");
    {
        ScopedSpan s(trace, "tfhe.keygen", root);
        rig.keys = std::make_unique<ClientKeyset>(
            paramsSetI(), deriveSeed(seed, "tenant0"));
    }
    {
        ScopedSpan s(trace, "tfhe.evk2_encode", root);
        rig.evk2 = encodeEvalKeysPayload(*rig.keys->evalKeys(),
                                         EvalKeysFormat::Seeded);
    }
    {
        const uint64_t t0 = nowUs();
        ScopedSpan s(trace, "install", root);
        rig.server =
            std::make_unique<ServerContext>(decodeEvalKeysPayload(rig.evk2));
        install_ms.push_back(double(nowUs() - t0) / 1e3);
    }
    {
        ScopedSpan s(trace, "warmup", root);
        const std::vector<SweepItem> warm = makeSweepPool(
            *rig.keys, deriveSeed(seed, "warmup0"), kSweepWidth);
        uint64_t right = 0;
        sweepOnce(rig, warm, 0, "setup", trace, s.id(), report, right);
        singleOnce(rig, warm[0], "setup", trace, s.id(), report);
    }
    trace.end(root);
    return double(nowUs() - t_start) / 1e6;
}

struct SweepStats
{
    std::vector<double> sweep_ms;
    uint64_t sweep_ok = 0; //!< sweep outputs that decode-checked
    double sweep_s = 0;    //!< wall time of the sweep phase
    std::vector<double> single_ms;

    /** Decode-checked PBS per second of the sweep phase. */
    double pbsPerS() const { return double(sweep_ok) / sweep_s; }
};

/** 60% of @p seconds in width-16 sweeps, then 40% in single PBS. */
SweepStats
measureSweeps(const SweepRig &rig, const std::vector<SweepItem> &pool,
              double seconds, const std::string &phase, SpanStore &trace,
              Report &report)
{
    SweepStats st;
    const uint32_t span = trace.begin(phase);
    const uint64_t t0 = nowUs();
    const uint64_t split = t0 + uint64_t(0.6 * seconds * 1e6);
    const uint64_t end = t0 + uint64_t(seconds * 1e6);
    for (size_t i = 0; nowUs() < split; ++i)
        st.sweep_ms.push_back(sweepOnce(rig, pool, i * kSweepWidth,
                                        phase + ".sweep", trace, span,
                                        report, st.sweep_ok));
    st.sweep_s = double(nowUs() - t0) / 1e6;
    for (size_t i = 0; nowUs() < end; ++i)
        st.single_ms.push_back(singleOnce(rig, pool[i % pool.size()],
                                          phase + ".single", trace, span,
                                          report));
    trace.end(span);
    return st;
}

void
runPbsSweep(const RunOptions &o, Report &report)
{
    runContext(o, paramsSetI(), report);
    SpanStore trace(o.trace);
    std::vector<double> setup_s, install_ms;
    std::unique_ptr<SweepRig> rig;
    const int reps = o.trace ? 1 : kSetupReps;
    for (int r = 0; r < reps; ++r) {
        rig.reset();
        if (r == reps - 1)
            report.context("rss_from_last_setup",
                           restartPeakRss() ? "true" : "false");
        rig = std::make_unique<SweepRig>();
        setup_s.push_back(setupSweep(o.seed, trace, report, *rig, install_ms));
    }
    const std::vector<SweepItem> pool =
        makeSweepPool(*rig->keys, deriveSeed(o.seed, "pool"), 64);
    report.context("workload_digest",
                   jsonString(std::to_string(digest(pool))));

    if (!o.trace) {
        const SweepStats st =
            measureSweeps(*rig, pool, o.seconds, "measure", trace, report);
        report.metric("setup_s", median(setup_s), "s");
        report.metric("peak_rss_mb", peakRssMiB(), "MiB");
        report.metric("ops_per_s", st.pbsPerS(), "1/s");
        // The timed op is one sweep. A single bootstrap() runs on one
        // core, whose speed on a shared host follows the host's load
        // (16 to 26 ms between runs of one build); a sweep uses every
        // pool thread and moves far less. The single PBS median stays
        // in the context.
        latencyReport(st.sweep_ms, 0.99, install_ms, false, report);
        report.context("pbs_ms", jsonNumber(median(st.single_ms)));
        report.context("pbs_samples", std::to_string(st.single_ms.size()));
        report.context("setup_samples", std::to_string(setup_s.size()));
        return;
    }

    trace.setEnabled(false);
    const SweepStats plain =
        measureSweeps(*rig, pool, o.seconds / 2, "untraced", trace, report);
    trace.setEnabled(true);
    const SweepStats traced =
        measureSweeps(*rig, pool, o.seconds / 2, "traced", trace, report);

    ProbeInputs in;
    in.keys = rig->keys.get();
    in.server = rig->server.get();
    for (size_t i = 0; i < 32; ++i)
        in.requests.push_back(
            {MsgType::Bootstrap,
             encodeBootstrapPayload(pool[i].ct, pool[i].tv), pool[i].expect});
    in.evk2 = rig->evk2;
    probeLayers(in, o.seed, trace, report);

    DirectLoad dl;
    dl.tenants.push_back(rig->keys.get());
    dl.window = kSweepWidth;
    dl.seconds = 2;
    ServingLayers l;
    l.exec = replayDirect(dl, o.seed, trace, report);
    pingIdleDaemon(200, trace, report);
    l.keys_resident_bytes = double(rig->server->evalKeys()->residentBytes());
    for (const ServeRequest &r : in.requests)
        l.req_bytes.push_back(double(kMsg1HeaderBytes + r.payload.size()));
    l.reply_bytes.push_back(double(
        kMsg1HeaderBytes + encodeCiphertexts({pool[0].ct}).size()));
    l.sent = plain.sweep_ms.size() + plain.single_ms.size() +
             traced.sweep_ms.size() + traced.single_ms.size();
    l.overhead_pct =
        100.0 * (plain.pbsPerS() - traced.pbsPerS()) / plain.pbsPerS();
    servingLayerMetrics(l, trace, report);
    latencyReport(traced.sweep_ms, 0.99, install_ms, true, report);
    report.context("spans", std::to_string(trace.size()));
    if (!o.trace_path.empty() && !trace.writeJson(o.trace_path))
        report.abort("cannot write the trace to " + o.trace_path);
}

} // namespace

void
Report::mismatch(const std::string &phase, const std::string &what)
{
    fail(phase, "mismatch");
    mismatches_.push_back(phase + ": " + what);
}

void
Report::abort(const std::string &what)
{
    if (abort_.empty())
        abort_ = what;
}

uint64_t
Report::attempted() const
{
    uint64_t n = 0;
    for (const auto &[name, p] : phases_)
        n += p.attempted;
    return n;
}

uint64_t
Report::failed() const
{
    uint64_t n = 0;
    for (const auto &[name, p] : phases_)
        for (const auto &[reason, count] : p.failed)
            n += count;
    return n;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "pbs_sweep", "serve_set1", "circuit_churn"};
    return names;
}

void
runWorkload(const RunOptions &opts, Report &report)
{
    const CpuTicks start = cpuTicks();
    if (opts.workload == "pbs_sweep")
        runPbsSweep(opts, report);
    else
        runServe(opts, report);
    // A shared virtual machine slows every timing when the hypervisor
    // takes its CPUs; the share taken tells that apart from the code.
    report.context("host_steal_pct", jsonNumber(stealPct(start, cpuTicks())));
}

} // namespace perfbench
