#include "layers.h"

#include <atomic>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "loadgen.h"
#include "poly/negacyclic_fft.h"
#include "server/server.h"
#include "server/wire_codec.h"
#include "tfhe/bootstrap.h"
#include "tfhe/decompose.h"
#include "tfhe/glwe.h"
#include "tfhe/keyswitch.h"
#include "util.h"
#include "workloads/circuit_analysis.h"

using namespace strix;

namespace perfbench {

namespace {

/** Median duration of the spans named @p name, in @p scale units. */
double
spanMedian(const SpanStore &trace, const std::string &name, double scale)
{
    return median(trace.durationsUs(name)) / scale;
}

/** poly and tfhe kernels, one PBS split, and the widths of the sweeps. */
void
probeKernels(const ProbeInputs &in, uint64_t seed, SpanStore &trace,
             Report &report)
{
    const ClientKeyset &keys = *in.keys;
    const ServerContext &server = *in.server;
    const TfheParams &p = keys.params();
    const BootstrappingKey &bsk = server.bsk();
    const GadgetParams &g = bsk.bit(0).gadget();
    const NegacyclicFft &fft = NegacyclicFft::get(p.N);
    const size_t rows = size_t(p.k + 1) * g.levels;
    const size_t half = p.N / 2;

    // A GLWE with uniform components stands in for a blind-rotation
    // accumulator: its digits are as dense as the real ones.
    Rng rng(deriveSeed(seed, "probe-glwe"));
    GlweCiphertext glwe(p.k, p.N);
    for (uint32_t c = 0; c <= p.k; ++c)
        for (size_t i = 0; i < p.N; ++i)
            glwe.poly(c)[i] = rng.uniformTorus32();

    std::vector<int32_t> digits(rows * p.N);
    std::vector<Cplx> fdigits(rows * half);
    std::vector<FreqPolynomial> frows(rows, FreqPolynomial(half));
    for (int rep = 0; rep < 200; ++rep) {
        {
            ScopedSpan s(trace, "tfhe.decompose");
            gadgetDecomposePolyInto(digits.data(), glwe.poly(0), g);
        }
        for (uint32_t c = 1; c <= p.k; ++c)
            gadgetDecomposePolyInto(digits.data() + size_t(c) * g.levels *
                                                        p.N,
                                    glwe.poly(c), g);
        {
            ScopedSpan s(trace, "poly.fft_fwd_batch");
            fft.forwardBatch(fdigits.data(), digits.data(), rows);
        }
        for (size_t r = 0; r < rows; ++r)
            std::copy(fdigits.begin() + long(r * half),
                      fdigits.begin() + long((r + 1) * half),
                      frows[r].begin());
        const GgswFft &ggsw = bsk.bit(size_t(rep) % bsk.n());
        std::vector<FreqPolynomial> acc(p.k + 1, FreqPolynomial(half));
        {
            ScopedSpan s(trace, "poly.mac");
            for (size_t r = 0; r < rows; ++r)
                for (uint32_t c = 0; c <= p.k; ++c)
                    NegacyclicFft::mulAccumulate(acc[c], frows[r],
                                                 ggsw.row(r, c));
        }
        TorusPolynomial out(p.N);
        {
            ScopedSpan s(trace, "poly.fft_inv");
            fft.inverse(out, acc[0]);
        }
    }

    // External products cycle through every BSK bit, so the key
    // streams from memory as it does inside a blind rotation.
    PbsScratch scratch;
    GlweCiphertext prod(p.k, p.N);
    for (int cycle = 0; cycle < 2; ++cycle)
        for (uint32_t i = 0; i < bsk.n(); ++i) {
            ScopedSpan s(trace, "tfhe.ext_product");
            bsk.bit(i).externalProduct(prod, glwe, scratch);
        }

    const std::vector<SweepItem> items =
        makeSweepPool(keys, deriveSeed(seed, "probe-pbs"), 16);
    for (int rep = 0; rep < 8; ++rep) {
        const SweepItem &it = items[size_t(rep)];
        GlweCiphertext acc = GlweCiphertext::trivial(p.k, it.tv);
        {
            ScopedSpan s(trace, "tfhe.blind_rotate");
            blindRotate(acc, it.ct, bsk, scratch);
        }
        LweCiphertext big;
        for (int r = 0; r < 20; ++r) {
            ScopedSpan s(trace, "tfhe.sample_extract");
            big = sampleExtract(acc);
        }
        LweCiphertext small;
        {
            ScopedSpan s(trace, "tfhe.keyswitch");
            small = keySwitch(big, server.ksk());
        }
        checkPbsOutput(keys, small, it.expect, "probe.split_pbs", report);
        LweCiphertext whole;
        {
            ScopedSpan s(trace, "tfhe.bootstrap");
            whole = server.bootstrap(it.ct, it.tv);
        }
        checkPbsOutput(keys, whole, it.expect, "probe.bootstrap", report);
    }

    for (size_t width : {size_t(1), size_t(2), size_t(16)}) {
        std::vector<LweCiphertext> cts;
        std::vector<const TorusPolynomial *> tvs;
        for (size_t i = 0; i < width; ++i) {
            cts.push_back(items[i].ct);
            tvs.push_back(&items[i].tv);
        }
        const std::string name = "tfhe.sweep.w" + std::to_string(width);
        for (int rep = 0; rep < 8; ++rep) {
            std::vector<LweCiphertext> out;
            {
                ScopedSpan s(trace, name);
                out = server.bootstrapBatch(cts.data(), tvs.data(), width);
            }
            for (size_t i = 0; i < width; ++i)
                checkPbsOutput(keys, out[i], items[i].expect,
                               "probe.sweep", report);
        }
    }

    const double pbs_ms = spanMedian(trace, "tfhe.bootstrap", 1e3);
    const double ext_us = spanMedian(trace, "tfhe.ext_product", 1);
    const double se_us = spanMedian(trace, "tfhe.sample_extract", 1);
    const double ks_ms = spanMedian(trace, "tfhe.keyswitch", 1e3);
    report.metric("poly.fft_fwd_batch_us",
                  spanMedian(trace, "poly.fft_fwd_batch", 1), "us");
    report.metric("poly.mac_us", spanMedian(trace, "poly.mac", 1), "us");
    report.metric("poly.fft_inv_us", spanMedian(trace, "poly.fft_inv", 1),
                  "us");
    report.metric("tfhe.decompose_us",
                  spanMedian(trace, "tfhe.decompose", 1), "us");
    report.metric("tfhe.ext_product_us", ext_us, "us");
    report.metric("tfhe.blind_rotate_ms",
                  spanMedian(trace, "tfhe.blind_rotate", 1e3), "ms");
    report.metric("tfhe.sample_extract_us", se_us, "us");
    report.metric("tfhe.keyswitch_ms", ks_ms, "ms");
    // Share of one PBS explained by its disjoint parts: n external
    // products, the sample extraction and the keyswitch. The rest is
    // the CMux glue (rotation, subtraction) and the modulus switch.
    report.metric("tfhe.pbs_split_coverage",
                  (double(bsk.n()) * ext_us / 1e3 + se_us / 1e3 + ks_ms) /
                      pbs_ms,
                  "ratio");

    // Bytes each PBS reads, computed from the key shapes: every
    // frequency-domain BSK row once per blind rotation, every KSK row
    // once per keyswitch.
    const double bsk_bytes = double(bsk.n()) * double(rows) *
                             double(p.k + 1) * double(half) * sizeof(Cplx);
    const double ksk_bytes = double(server.ksk().inDim()) *
                             double(server.ksk().gadget().levels) *
                             double(server.ksk().outDim() + 1) *
                             sizeof(Torus32);
    report.metric("tfhe.bsk_bytes_per_pbs", bsk_bytes, "bytes");
    report.metric("tfhe.ksk_bytes_per_pbs", ksk_bytes, "bytes");
    report.metric("tfhe.pbs_gbps", (bsk_bytes + ksk_bytes) / pbs_ms / 1e6,
                  "GB/s");
    report.metric("tfhe.sweep_ms_w1", spanMedian(trace, "tfhe.sweep.w1", 1e3),
                  "ms");
    report.metric("tfhe.sweep_ms_w2", spanMedian(trace, "tfhe.sweep.w2", 1e3),
                  "ms");
    report.metric("tfhe.sweep_ms_w16",
                  spanMedian(trace, "tfhe.sweep.w16", 1e3), "ms");
}

/** Wire codec, EVK2 decode and the circuit planner. */
void
probeCodecsAndPlanner(const ProbeInputs &in, uint64_t seed,
                      SpanStore &trace, Report &report)
{
    const ClientKeyset &keys = *in.keys;
    for (int rep = 0; rep < 4; ++rep)
        for (const ServeRequest &r : in.requests) {
            ScopedSpan s(trace, "server.decode_req");
            if (r.type == MsgType::Bootstrap)
                decodeBootstrapPayload(r.payload);
            else
                decodeApplyLutPayload(r.payload);
        }
    for (int rep = 0; rep < 4; ++rep)
        for (const CircuitItem &c : in.circuits) {
            ScopedSpan s(trace, "server.decode_req");
            decodeCircuitPayload(c.payload);
        }
    const std::vector<LweCiphertext> reply(
        in.reply_cts, keys.encryptInt(1, kMsgSpace));
    for (int rep = 0; rep < 200; ++rep) {
        ScopedSpan s(trace, "server.encode_reply");
        encodeCiphertexts(reply);
    }
    report.metric("server.decode_req_us",
                  spanMedian(trace, "server.decode_req", 1), "us");
    report.metric("server.encode_reply_us",
                  spanMedian(trace, "server.encode_reply", 1), "us");

    for (int rep = 0; rep < 2; ++rep) {
        ScopedSpan s(trace, "tfhe.evk2_decode");
        decodeEvalKeysPayload(in.evk2);
    }
    report.metric("tfhe.evk2_bytes", double(in.evk2.size()), "bytes");
    report.metric("tfhe.evk2_decode_ms",
                  spanMedian(trace, "tfhe.evk2_decode", 1e3), "ms");

    const Circuit adder = buildAdder(8);
    CircuitPlan plan;
    for (int rep = 0; rep < 20; ++rep) {
        ScopedSpan s(trace, "workloads.plan");
        plan = analyzeCircuit(adder, keys.params());
    }
    report.metric("workloads.plan_us", spanMedian(trace, "workloads.plan", 1),
                  "us");
    report.metric("workloads.plan_pbs", double(plan.pbsCount()), "count");
    report.metric("workloads.plan_depth", double(plan.depth()), "count");
    report.metric("workloads.plan_elision", plan.elisionRatio(), "ratio");

    const std::vector<CircuitItem> items = makeCircuitPool(
        adder, keys, deriveSeed(seed, "probe-circuit"), 3);
    for (const CircuitItem &it : items) {
        std::vector<LweCiphertext> out;
        {
            ScopedSpan s(trace, "workloads.circuit_inproc");
            out = adder.evalEncrypted(*in.server, it.inputs, plan);
        }
        report.attempt("probe.circuit");
        bool right = out.size() == it.expect.size();
        for (size_t b = 0; right && b < out.size(); ++b)
            right = keys.decryptBit(out[b]) == it.expect[b];
        if (right)
            report.succeed("probe.circuit");
        else
            report.mismatch("probe.circuit", "adder output differs from "
                                             "Circuit::evalPlain");
    }
    report.metric("workloads.circuit_inproc_ms",
                  spanMedian(trace, "workloads.circuit_inproc", 1e3), "ms");
}

/** One submitted direct request. */
struct Submitted
{
    std::future<LweCiphertext> result;
    uint64_t submit_us = 0;
    const ClientKeyset *keys = nullptr;
    int64_t expect = 0;
};

/**
 * Wait for @p s, check it, and record its span; returns the latency in
 * ms, or kMissed when the sweep failed (the executor then delivers its
 * exception through the future).
 */
double
collect(Submitted &s, uint64_t request, SpanStore &trace, Report &report,
        std::mutex &m)
{
    LweCiphertext out;
    bool swept = true;
    try {
        out = s.result.get();
    } catch (const std::exception &) {
        swept = false;
    }
    const uint64_t ready = nowUs();
    trace.add("exec.direct", s.submit_us * 1000, ready * 1000, 0, request);
    std::lock_guard<std::mutex> lock(m);
    if (!swept) {
        report.attempt("probe.exec_direct");
        report.fail("probe.exec_direct", "sweep_error");
        return kMissed;
    }
    checkPbsOutput(*s.keys, out, s.expect, "probe.exec_direct", report);
    return double(ready - s.submit_us) / 1e3;
}

} // namespace

bool
checkPbsOutput(const ClientKeyset &keys, const LweCiphertext &ct,
               int64_t expect, const std::string &phase, Report &report)
{
    report.attempt(phase);
    const int64_t got = keys.decryptInt(ct, kMsgSpace);
    if (got != expect) {
        report.mismatch(phase, "decrypted " + std::to_string(got) +
                                   ", LUT gives " + std::to_string(expect));
        return false;
    }
    report.succeed(phase);
    return true;
}

void
probeLayers(const ProbeInputs &in, uint64_t seed, SpanStore &trace,
            Report &report)
{
    probeKernels(in, seed, trace, report);
    probeCodecsAndPlanner(in, seed, trace, report);
}

BatchExecutor::Stats
replayDirect(const DirectLoad &load, uint64_t seed, SpanStore &trace,
             Report &report)
{
    BatchExecutor exec;
    std::vector<std::vector<SweepItem>> items;
    for (size_t t = 0; t < load.tenants.size(); ++t)
        items.push_back(makeSweepPool(
            *load.tenants[t],
            deriveSeed(seed, "direct" + std::to_string(t)), 32));
    std::mutex m;
    std::vector<double> lat_ms;
    uint64_t completed = 0;
    std::atomic<uint64_t> next_request{1};
    auto submit = [&](size_t t, size_t i) {
        const SweepItem &it = items[t][i % items[t].size()];
        Submitted s;
        s.submit_us = nowUs();
        s.keys = load.tenants[t];
        s.expect = it.expect;
        s.result = exec.submit(load.tenants[t]->evalKeys(), it.ct, it.tv);
        return s;
    };
    // One caller thread per tenant keeps `window` requests outstanding,
    // as the generator does on the wire.
    const uint64_t end = nowUs() + uint64_t(load.seconds * 1e6);
    std::vector<std::thread> callers;
    for (size_t t = 0; t < load.tenants.size(); ++t)
        callers.emplace_back([&, t] {
            std::deque<Submitted> open;
            size_t i = 0;
            while (nowUs() < end || !open.empty()) {
                while (nowUs() < end && open.size() < load.window)
                    open.push_back(submit(t, i++));
                const double ms = collect(open.front(), next_request++,
                                          trace, report, m);
                open.pop_front();
                std::lock_guard<std::mutex> lock(m);
                lat_ms.push_back(ms);
                if (nowUs() <= end && ms != kMissed)
                    ++completed;
            }
        });
    for (std::thread &c : callers)
        c.join();
    const Summary s = summarize(lat_ms, 0.99);
    report.metric("tfhe.exec_direct_req_per_s",
                  double(completed) / load.seconds, "1/s");
    report.metric("tfhe.exec_direct_p50_ms", s.p50, "ms");
    report.metric("tfhe.exec_direct_p99_ms", s.tail, "ms");
    exec.drain();
    return exec.stats();
}

void
pingIdleDaemon(size_t count, SpanStore &trace, Report &report)
{
    StrixServer server;
    LoadGen gen(trace);
    if (!server.start() || !gen.connect(server.port())) {
        report.abort("ping probe: cannot start or reach an idle daemon");
        return;
    }
    for (size_t i = 0; i < count; ++i) {
        WireMessage reply;
        report.attempt("probe.ping");
        if (gen.call(0, MsgType::Ping, 0, {}, reply, 5'000'000) &&
            reply.type == MsgType::Ok)
            report.succeed("probe.ping");
        else
            report.fail("probe.ping", "no_ok_reply");
    }
    server.stop();
}

} // namespace perfbench
