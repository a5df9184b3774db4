/**
 * @file
 * CircuitAnalyzer tests: elision accounting on the paper's parameter
 * sets, decode-identity of planned vs naive evaluation (exhaustive on
 * the fast exact context), bit-identity of no-elision plans, the
 * PlanRun stepper driven through BatchExecutor::submit futures,
 * levelization unification, and the infeasible-budget diagnostics
 * contract.
 */

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/test_util.h"
#include "tfhe/batch_executor.h"
#include "workloads/circuit.h"
#include "workloads/circuit_analysis.h"
#include "workloads/circuit_client.h"

namespace strix {
namespace {

/** Fast zero-noise split keyset shared by the evaluation tests. */
test::TestKeys &
exactKeys()
{
    static test::TestKeys keys(test::fastParams(), test::kSeedCircuit);
    return keys;
}

std::vector<bool>
toBits(uint64_t v, uint32_t n)
{
    std::vector<bool> bits(n);
    for (uint32_t i = 0; i < n; ++i)
        bits[i] = (v >> i) & 1;
    return bits;
}

uint64_t
fromBits(const std::vector<bool> &bits)
{
    uint64_t v = 0;
    for (size_t i = 0; i < bits.size(); ++i)
        v |= uint64_t(bits[i]) << i;
    return v;
}

/**
 * Step a PlanRun the way the serving daemon does: each level's linear
 * forms go out as BatchExecutor::submit futures under @p keys, and
 * the run advances once they all resolve.
 */
std::vector<LweCiphertext>
evalThroughFutures(BatchExecutor &exec,
                   const std::shared_ptr<const EvalKeys> &keys,
                   const Circuit &c, const CircuitPlan &plan,
                   const std::vector<LweCiphertext> &inputs)
{
    const TorusPolynomial tv = signTestVector(keys->params().N);
    PlanRun run(c, plan, keys->params().n, inputs);
    while (!run.done()) {
        std::vector<std::future<LweCiphertext>> futs;
        for (const LweCiphertext &lin : run.pending())
            futs.push_back(exec.submit(keys, lin, tv));
        std::vector<LweCiphertext> outs;
        for (std::future<LweCiphertext> &f : futs)
            outs.push_back(f.get());
        run.complete(std::move(outs));
    }
    return run.outputs();
}

std::vector<LweCiphertext>
encryptBits(const std::vector<bool> &bits)
{
    std::vector<LweCiphertext> out;
    out.reserve(bits.size());
    for (bool b : bits)
        out.push_back(exactKeys().client.encryptBit(b));
    return out;
}

std::vector<bool>
decryptBits(const std::vector<LweCiphertext> &cts)
{
    std::vector<bool> out;
    out.reserve(cts.size());
    for (const auto &ct : cts)
        out.push_back(exactKeys().client.decryptBit(ct));
    return out;
}

TEST(CircuitAnalysis, Adder8ElidesAtLeastQuarterAtSetI)
{
    // The acceptance bar: on the XOR-heavy 8-bit ripple-carry adder
    // at parameter set I, at least 25% of the naive PBS ops go away
    // and the plan still proves the default 6-sigma budget.
    Circuit c = buildAdder(8);
    CircuitPlan plan = analyzeCircuit(c, paramsSetI());
    ASSERT_TRUE(plan.feasible()) << plan.summary();
    EXPECT_EQ(plan.naivePbsCount(), c.pbsCount());
    EXPECT_GE(plan.elisionRatio(), 0.25) << plan.summary();
    // With majority fusion the carry chain costs one PBS per bit:
    // And(a0,b0) + 7 majority gates.
    EXPECT_EQ(plan.pbsCount(), 8u) << plan.summary();
    EXPECT_TRUE(plan.diagnostics().empty());
}

TEST(CircuitAnalysis, XorChainNeedsNoBootstraps)
{
    // A parity tree is torus-linear end to end: every PBS elides and
    // the planned depth collapses to zero.
    Circuit c("parity4");
    Wire a = c.input(), b = c.input(), d = c.input(), e = c.input();
    Wire x1 = c.gate(GateOp::Xor, a, b);
    Wire x2 = c.gate(GateOp::Xor, d, e);
    c.output(c.gate(GateOp::Xnor, x1, x2));
    CircuitPlan plan = analyzeCircuit(c, paramsSetI());
    ASSERT_TRUE(plan.feasible()) << plan.summary();
    EXPECT_EQ(plan.pbsCount(), 0u);
    EXPECT_EQ(plan.depth(), 0u);
    EXPECT_DOUBLE_EQ(plan.elisionRatio(), 1.0);
}

TEST(CircuitAnalysis, XorFeedingAndGateIsNotElided)
{
    // A wide (+-1/4) wire would wrap And's +-1/8-grid linear form, so
    // an XOR consumed by And must keep its bootstrap.
    Circuit c("xorand");
    Wire a = c.input(), b = c.input(), d = c.input();
    Wire x = c.gate(GateOp::Xor, a, b);
    c.output(c.gate(GateOp::And, x, d));
    CircuitPlan plan = analyzeCircuit(c, paramsSetI());
    ASSERT_TRUE(plan.feasible());
    EXPECT_EQ(plan.node(x).action, PlanAction::Bootstrap);
    EXPECT_EQ(plan.pbsCount(), 2u);
}

TEST(CircuitAnalysis, FusionToggleChangesAccounting)
{
    Circuit c = buildAdder(8);
    AnalysisOptions no_fuse;
    no_fuse.fuse_majority = false;
    CircuitPlan fused = analyzeCircuit(c, paramsSetI());
    CircuitPlan plain = analyzeCircuit(c, paramsSetI(), no_fuse);
    ASSERT_TRUE(fused.feasible());
    ASSERT_TRUE(plain.feasible());
    // Majority fusion strictly reduces the surviving PBS count (it
    // also unlocks the carry-chain XOR elisions).
    EXPECT_LT(fused.pbsCount(), plain.pbsCount());
    AnalysisOptions off;
    off.elide = false;
    off.fuse_majority = false;
    CircuitPlan naive = analyzeCircuit(c, paramsSetI(), off);
    EXPECT_EQ(naive.pbsCount(), c.pbsCount());
    EXPECT_EQ(naive.elidedPbs(), 0u);
}

TEST(CircuitAnalysis, PlannedLevelsMatchNaiveDepthWithoutElision)
{
    // Satellite: one level computation. A no-elision plan must agree
    // with Circuit::depth()/toWorkloadGraph() everywhere.
    Circuit c = buildAdder(4);
    AnalysisOptions off;
    off.elide = false;
    off.fuse_majority = false;
    CircuitPlan plan = analyzeCircuit(c, paramsSetI(), off);
    EXPECT_EQ(plan.depth(), c.depth());
    WorkloadGraph naive_g = c.toWorkloadGraph();
    WorkloadGraph plan_g = c.toWorkloadGraph(plan);
    ASSERT_EQ(plan_g.layers().size(), naive_g.layers().size());
    for (size_t i = 0; i < plan_g.layers().size(); ++i)
        EXPECT_EQ(plan_g.layers()[i].pbs_count,
                  naive_g.layers()[i].pbs_count)
            << "layer " << i;
}

TEST(CircuitAnalysis, PlannedWorkloadGraphCountsSurvivingPbsOnly)
{
    Circuit c = buildAdder(8);
    CircuitPlan plan = analyzeCircuit(c, paramsSetI());
    WorkloadGraph g = c.toWorkloadGraph(plan);
    EXPECT_EQ(g.totalPbs(), plan.pbsCount());
    EXPECT_EQ(g.layers().size(), plan.depth());
}

TEST(CircuitAnalysis, NoElisionPlanIsBitIdenticalToNaive)
{
    // With nothing elided and no MUX, the planned path runs the exact
    // linear forms gates.cpp runs and bootstrapBatch is documented
    // bit-identical to bootstrap -- so ciphertexts must match raw.
    const uint32_t bits = 2;
    Circuit c = buildAdder(bits);
    AnalysisOptions off;
    off.elide = false;
    off.fuse_majority = false;
    CircuitPlan plan = analyzeCircuit(c, exactKeys().server.params(), off);
    ASSERT_TRUE(plan.feasible());
    auto in = encryptBits(toBits(0b1011, 2 * bits));
    auto naive = c.evalEncrypted(exactKeys().server, in);
    auto planned = c.evalEncrypted(exactKeys().server, in, plan);
    ASSERT_EQ(planned.size(), naive.size());
    for (size_t i = 0; i < naive.size(); ++i)
        EXPECT_EQ(planned[i].raw(), naive[i].raw()) << "output " << i;
}

TEST(CircuitAnalysis, PlannedAdderDecodesIdenticallyExhaustive)
{
    const uint32_t bits = 2;
    Circuit c = buildAdder(bits);
    CircuitPlan plan = analyzeCircuit(c, exactKeys().server.params());
    ASSERT_TRUE(plan.feasible()) << plan.summary();
    EXPECT_GT(plan.elidedPbs(), 0u);
    for (uint64_t a = 0; a < 4; ++a)
        for (uint64_t b = 0; b < 4; ++b) {
            auto in = encryptBits(toBits(a | (b << bits), 2 * bits));
            auto naive =
                decryptBits(c.evalEncrypted(exactKeys().server, in));
            auto planned = decryptBits(
                c.evalEncrypted(exactKeys().server, in, plan));
            EXPECT_EQ(planned, naive) << a << "+" << b;
            EXPECT_EQ(fromBits(planned), a + b) << a << "+" << b;
        }
}

TEST(CircuitAnalysis, PlannedComparatorAndMuxDecodeIdentically)
{
    // Exhaustive over a circuit mixing AndNY/Xnor/Or (less-than) and
    // a MUX consumer, which exercises the two-PBS sweep entries.
    const uint32_t bits = 2;
    Circuit c("ltmux");
    std::vector<Wire> a(bits), b(bits);
    for (uint32_t i = 0; i < bits; ++i)
        a[i] = c.input();
    for (uint32_t i = 0; i < bits; ++i)
        b[i] = c.input();
    Wire lt = c.gate(GateOp::AndNY, a[0], b[0]);
    for (uint32_t i = 1; i < bits; ++i) {
        Wire bi_gt = c.gate(GateOp::AndNY, a[i], b[i]);
        Wire eq = c.gate(GateOp::Xnor, a[i], b[i]);
        Wire keep = c.gate(GateOp::And, eq, lt);
        lt = c.gate(GateOp::Or, bi_gt, keep);
    }
    c.output(lt);
    c.output(c.mux(lt, a[0], b[0])); // min(a,b) bit 0
    CircuitPlan plan = analyzeCircuit(c, exactKeys().server.params());
    ASSERT_TRUE(plan.feasible()) << plan.summary();
    for (uint64_t av = 0; av < 4; ++av)
        for (uint64_t bv = 0; bv < 4; ++bv) {
            auto in = encryptBits(toBits(av | (bv << bits), 2 * bits));
            auto naive =
                decryptBits(c.evalEncrypted(exactKeys().server, in));
            auto planned = decryptBits(
                c.evalEncrypted(exactKeys().server, in, plan));
            EXPECT_EQ(planned, naive) << av << "<" << bv;
            EXPECT_EQ(planned[0], av < bv);
        }
}

TEST(CircuitAnalysis, AsyncPathMatchesSyncBitForBit)
{
    // The executor's lanes run the same bootstrapKeySwitch as the
    // synchronous calls; stepping the plan through its futures must
    // therefore reproduce the sync planned ciphertexts exactly.
    const uint32_t bits = 2;
    Circuit c = buildAdder(bits);
    CircuitPlan plan = analyzeCircuit(c, exactKeys().server.params());
    auto in = encryptBits(toBits(0b0111, 2 * bits));
    auto sync_out = c.evalEncrypted(exactKeys().server, in, plan);
    BatchExecutor exec;
    auto async_out = evalThroughFutures(
        exec, exactKeys().client.evalKeys(), c, plan, in);
    ASSERT_EQ(async_out.size(), sync_out.size());
    for (size_t i = 0; i < sync_out.size(); ++i)
        EXPECT_EQ(async_out[i].raw(), sync_out[i].raw());
}

TEST(CircuitAnalysis, AsyncPathCoalescesThroughBatchExecutor)
{
    const uint32_t bits = 2;
    Circuit c = buildAdder(bits);
    CircuitPlan plan = analyzeCircuit(c, exactKeys().server.params());
    BatchExecutor::Options o;
    o.target_batch = 4;
    o.flush_delay_us = 0; // flush on the dispatcher's next pass
    BatchExecutor exec(o);
    auto in = encryptBits(toBits(0b1001, 2 * bits));
    auto naive = decryptBits(c.evalEncrypted(exactKeys().server, in));
    auto coalesced = decryptBits(evalThroughFutures(
        exec, exactKeys().client.evalKeys(), c, plan, in));
    EXPECT_EQ(coalesced, naive);
    EXPECT_GT(exec.stats().submitted, 0u);
}

TEST(CircuitAnalysis, InfeasibleBudgetRejectsWithWireChain)
{
    // An absurd z cannot be met even with every gate bootstrapped:
    // the analyzer must refuse (not silently under-bootstrap) and
    // name the offending wire with a chain of noise contributors.
    Circuit c = buildAdder(2);
    AnalysisOptions opts;
    opts.z = 1e9;
    CircuitPlan plan = analyzeCircuit(c, paramsSetI(), opts);
    EXPECT_FALSE(plan.feasible());
    ASSERT_FALSE(plan.diagnostics().empty());
    const std::string &diag = plan.diagnostics().front();
    EXPECT_NE(diag.find("[budget-infeasible]"), std::string::npos) << diag;
    EXPECT_NE(diag.find("adder2:w"), std::string::npos) << diag;
    EXPECT_NE(diag.find("wire chain:"), std::string::npos) << diag;
    EXPECT_NE(diag.find("-> w"), std::string::npos) << diag;
    EXPECT_NE(plan.summary().find("INFEASIBLE"), std::string::npos);
}

TEST(CircuitAnalysisDeathTest, EvalRejectsInfeasiblePlan)
{
    Circuit c = buildAdder(2);
    AnalysisOptions opts;
    opts.z = 1e9;
    CircuitPlan plan = analyzeCircuit(c, exactKeys().server.params(), opts);
    ASSERT_FALSE(plan.feasible());
    auto in = encryptBits(toBits(0, 4));
    EXPECT_DEATH(c.evalEncrypted(exactKeys().server, in, plan),
                 "infeasible");
}

TEST(CircuitAnalysisDeathTest, EvalRejectsForeignPlan)
{
    Circuit small = buildAdder(2);
    Circuit big = buildAdder(4);
    CircuitPlan plan = analyzeCircuit(small, exactKeys().server.params());
    auto in = encryptBits(toBits(0, 8));
    EXPECT_DEATH(big.evalEncrypted(exactKeys().server, in, plan),
                 "another circuit");
}

TEST(CircuitAnalysis, CheapestSufficientUnelidePinsSharedTrunk)
{
    // Three elided XOR chains: a noisy decoy, a shared trunk, and a
    // cheap arm. Both surviving bootstraps Xor(trunk, decoy) and
    // Xor(trunk, cheap) overdraw a budget tuned so that un-eliding
    // the shared trunk alone restores both, while pinning the
    // max-variance decoy first would fix only one sink and spend a
    // second PBS on the trunk anyway.
    const NoiseModel model(paramsSetI());
    const double V = 100.0 * std::max({model.pbsOutput(),
                                       model.freshLwe(),
                                       model.modSwitch()});
    // A chain of k XORs over variance-V inputs accumulates 4V(k+1):
    // decoy 20V > trunk 16V > cheap 12V. Budget b^2 = 26V sits
    // between the unpinned linear forms (36V, 28V) and the
    // trunk-pinned ones (~20V, ~12V), with modSwitch/pbsOutput terms
    // at most V/25 of slack.
    Circuit c("unelide");
    auto chain = [&c](int stages) {
        Wire w = c.gate(GateOp::Xor, c.input(), c.input());
        for (int i = 1; i < stages; ++i)
            w = c.gate(GateOp::Xor, w, c.input());
        return w;
    };
    Wire decoy = chain(4);
    Wire trunk = chain(3);
    Wire cheap = chain(2);
    // Built first = lower wire id = the front violation the revert
    // step reasons about; its cone holds both decoy and trunk.
    Wire x1 = c.gate(GateOp::Xor, trunk, decoy);
    Wire x2 = c.gate(GateOp::Xor, trunk, cheap);
    c.output(c.gate(GateOp::And, x1, c.input()));
    c.output(c.gate(GateOp::And, x2, c.input()));

    AnalysisOptions opts;
    opts.input_variance = V;
    opts.z = 0.25 / std::sqrt(26.0 * V); // decodableStddev(2,z)^2=26V

    CircuitPlan cost = analyzeCircuit(c, paramsSetI(), opts);
    ASSERT_TRUE(cost.feasible()) << cost.summary();

    // One shared pin: x1 + x2 + two output Ands + trunk = 5 PBS,
    // where pinning decoy and then trunk would spend 6.
    EXPECT_EQ(cost.pbsCount(), 5u) << cost.summary();
    EXPECT_EQ(cost.node(trunk).action, PlanAction::Bootstrap);
    EXPECT_EQ(cost.node(decoy).action, PlanAction::Linear);
}

TEST(CircuitAnalysis, PredictedStddevTracksEncodingAndSummary)
{
    Circuit c = buildAdder(8);
    CircuitPlan plan = analyzeCircuit(c, paramsSetI());
    const NoiseModel model(paramsSetI());
    for (Wire w : c.outputs()) {
        const CircuitPlan::Node &n = plan.node(w);
        const uint64_t space =
            n.encoding == WireEncoding::Wide4 ? 2 : 4;
        EXPECT_LT(plan.predictedStddev(w),
                  NoiseModel::decodableStddev(space, plan.z()))
            << "output wire " << w;
    }
    // Elided sum bits are wide (two bootstrapped operands, weight 1
    // each): variance 2 * pbsOutput plus the fused-carry combination.
    EXPECT_NE(plan.summary().find("adder8"), std::string::npos);
    EXPECT_NE(plan.summary().find("8/37"), std::string::npos)
        << plan.summary();
    (void)model;
}

} // namespace
} // namespace strix
