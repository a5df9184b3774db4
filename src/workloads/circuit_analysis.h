/**
 * @file
 * Static noise-budget analysis and bootstrap-eliding circuit plans.
 *
 * The naive Circuit::evalEncrypted path bootstraps every 2-input gate
 * -- the Strix premise that PBS dominates everything, paid in full.
 * But a PBS is only *required* when a gate's output must return to
 * the standard +-1/8 sign encoding with fresh noise; XOR-shaped gates
 * are torus-linear and can defer that normalization. This module is
 * the compile-time pass that decides, per gate, whether the PBS can
 * be elided, and proves with the analytic NoiseModel that every
 * deferred bootstrap still decodes:
 *
 *  - **XOR/XNOR elision.** A bit b is encrypted as phase (2b-1)*e
 *    with amplitude e = 1/8. For operands of amplitude e, the
 *    combination sum_i (1/(4 e_i)) * x_i + 1/4 has phase +-1/4 whose
 *    sign is the XOR of the operand bits (this is exactly the linear
 *    form gateXor feeds its sign bootstrap). Skipping the bootstrap
 *    leaves a *wide* wire of amplitude 1/4 that decodes by sign like
 *    any other, XORs onward with weight 1, negates for free (NOT /
 *    XNOR), and re-enters the standard domain through any later sign
 *    bootstrap. Non-XOR gates cannot consume wide wires (their
 *    +-1/8-grid linear forms wrap the torus), so a gate is elided
 *    only when every transitive consumer is XOR-shaped, a free NOT,
 *    or a primary output.
 *
 *  - **Majority fusion.** The ripple-carry idiom
 *    `Or(And(x,y), And(Xor(x,y), z))` is the 3-input majority, and
 *    majority of three +-1/8 wires is the *sign of x + y + z*: one
 *    PBS replaces three, and it frees the Xor(x,y) wire (its And
 *    consumer disappears) for elision. Fused And/Or nodes are never
 *    computed.
 *
 *  - **Noise-budget proof.** Per-wire worst-case variance is
 *    propagated through NoiseModel: fresh inputs, linear-combination
 *    growth for elided gates, pbsOutput() at each surviving
 *    bootstrap, modSwitch() at each PBS input. A plan is *feasible*
 *    when every surviving PBS input and every primary output keeps
 *    its phase inside the decoding margin at z standard deviations
 *    (the budget knob). When an elision overdraws the budget the
 *    analyzer un-elides the cheapest sufficient wire in the
 *    violation's cone -- the first single trial pin, in descending
 *    variance order, that restores every budget, so a shared trunk
 *    fixes all its sinks with one PBS -- and falls back to the
 *    max-variance wire when no single pin suffices; when even the
 *    all-bootstrap plan cannot meet the budget it reports lint-style
 *    diagnostics with the offending wire chain instead of silently
 *    under-bootstrapping.
 *
 *  - **Levelization.** The surviving PBS ops are levelized by
 *    dependency depth so a PlanRun hands out all PBS of a level at
 *    once -- one bootstrapBatch sweep in Circuit::evalEncrypted(plan),
 *    or one volley of BatchExecutor futures in the serving daemon --
 *    turning the latency-bound gate stream into width-bound batches.
 *    This is the single level computation Circuit::levels()/depth()/
 *    toWorkloadGraph() now delegate to.
 *
 * The reference for the optimization framing is Benhamouda et al.,
 * "Optimization of Bootstrapping in Circuits" (see PAPERS.md).
 */

#ifndef STRIX_WORKLOADS_CIRCUIT_ANALYSIS_H
#define STRIX_WORKLOADS_CIRCUIT_ANALYSIS_H

#include <cstdint>
#include <string>
#include <vector>

#include "tfhe/noise.h"
#include "workloads/circuit.h"

namespace strix {

/** How a node is realized by the planned evaluation. */
enum class PlanAction : uint8_t
{
    Wire,      //!< Input/Const: a value appears, nothing is computed
    Linear,    //!< LWE linear combination only -- PBS elided (free)
    Bootstrap, //!< linear combination + sign PBS + KS (1 PBS; MUX: 2)
    Fused,     //!< absorbed into a majority bootstrap, never computed
};

/** Sign-encoding amplitude of a wire's phase. */
enum class WireEncoding : uint8_t
{
    Std8,  //!< +-1/8: fresh encryptions and bootstrap outputs
    Wide4, //!< +-1/4: elided XOR/XNOR chains (decodes by sign)
};

/** Analysis knobs. */
struct AnalysisOptions
{
    /**
     * Noise budget in standard deviations: every surviving PBS input
     * and every primary output must keep its predicted phase stddev
     * below margin/z, where margin is the distance from the nominal
     * phase to the nearest decoding boundary (1/8 for standard-gate
     * linear forms, 1/4 for wide wires). Higher z = stricter budget;
     * an unmeetable z yields an infeasible plan with diagnostics.
     */
    double z = 6.0;

    /** Allow XOR/XNOR PBS elision (off = bootstrap every gate). */
    bool elide = true;

    /** Recognize Or(And(x,y),And(Xor(x,y),z)) as one majority PBS. */
    bool fuse_majority = true;

    /**
     * Variance of the primary-input ciphertexts. Negative means
     * "fresh client encryption" (NoiseModel::freshLwe()); pass
     * pbsOutput() when chaining circuits on bootstrapped outputs.
     */
    double input_variance = -1.0;
};

/**
 * The reusable output of the analysis: per-node action, level
 * assignment and predicted variance, plus plan-wide PBS accounting
 * and feasibility diagnostics. Produced by CircuitAnalyzer (or the
 * analyzeCircuit convenience) and consumed by
 * Circuit::evalEncrypted(server, inputs, plan) and
 * Circuit::toWorkloadGraph(plan).
 */
class CircuitPlan
{
  public:
    /** Per-node plan entry. */
    struct Node
    {
        PlanAction action = PlanAction::Bootstrap;
        WireEncoding encoding = WireEncoding::Std8;
        /** PBS level (Wire/Linear nodes: level of their operands). */
        uint32_t level = 0;
        /** Predicted worst-case variance of the node's output wire. */
        double variance = 0.0;
        /**
         * Predicted variance at the PBS decision (linear form +
         * modulus switch); 0 for non-bootstrap nodes. MUX reports the
         * larger of its two linear forms.
         */
        double pbs_input_variance = 0.0;
        /** Bootstraps this node performs (0, 1, or 2 for MUX). */
        uint8_t pbs = 0;
        /** True for the majority bootstrap replacing a fused idiom. */
        bool majority = false;
        /** Majority operands (valid when majority is true). */
        Wire maj_x = 0, maj_y = 0, maj_z = 0;
    };

    const std::vector<Node> &nodes() const { return nodes_; }
    const Node &node(Wire w) const { return nodes_[w]; }
    size_t numNodes() const { return nodes_.size(); }

    /** Max PBS level (0 = no bootstraps survive). */
    uint32_t depth() const { return depth_; }

    /** Surviving bootstraps under this plan. */
    uint64_t pbsCount() const { return pbs_count_; }

    /** Bootstraps the naive path would run. */
    uint64_t naivePbsCount() const { return naive_pbs_; }

    /** PBS removed by elision + fusion (naive - planned). */
    uint64_t elidedPbs() const { return naive_pbs_ - pbs_count_; }

    /** Elided fraction of the naive PBS count, in [0, 1]. */
    double elisionRatio() const
    {
        return naive_pbs_ == 0
                   ? 0.0
                   : double(elidedPbs()) / double(naive_pbs_);
    }

    /** Predicted phase stddev of wire @p w. */
    double predictedStddev(Wire w) const;

    /** Budget (stddev multiplier) the plan was proven against. */
    double z() const { return z_; }

    /**
     * True when every surviving PBS input and primary output meets
     * the z-sigma budget. Infeasible plans carry diagnostics() and
     * are rejected by Circuit::evalEncrypted(plan).
     */
    bool feasible() const { return feasible_; }

    /**
     * Lint-style diagnostics (one string per violated budget, with a
     * wire chain tracing the dominant noise contributors); empty when
     * feasible.
     */
    const std::vector<std::string> &diagnostics() const
    {
        return diagnostics_;
    }

    /** One-line accounting summary for benches and examples. */
    std::string summary() const;

  private:
    friend class CircuitAnalyzer;

    std::vector<Node> nodes_;
    std::string circuit_name_;
    uint32_t depth_ = 0;
    uint64_t pbs_count_ = 0;
    uint64_t naive_pbs_ = 0;
    double z_ = 6.0;
    bool feasible_ = true;
    std::vector<std::string> diagnostics_;
};

/**
 * The dataflow pass: builds a CircuitPlan for one (circuit, params)
 * pair. Stateless between calls; cheap enough to run per-request, but
 * the plan is reusable across any number of evaluations under any
 * EvalKeys bundle with the same parameters.
 */
class CircuitAnalyzer
{
  public:
    CircuitAnalyzer(const Circuit &circuit, const TfheParams &params,
                    const AnalysisOptions &options = {})
        : circuit_(circuit), params_(params), options_(options)
    {
    }

    /** Run the analysis. */
    CircuitPlan plan() const;

    /**
     * Params-free naive levelization: every 2-input gate and MUX is
     * one PBS level above its operands, NOT rides its operand's
     * level, inputs/consts sit at level 0. This is the single level
     * computation Circuit::levels()/depth()/toWorkloadGraph() use.
     */
    static std::vector<uint32_t> naiveLevels(const Circuit &circuit);

  private:
    const Circuit &circuit_;
    const TfheParams &params_;
    AnalysisOptions options_;
};

/** Convenience: CircuitAnalyzer(circuit, params, options).plan(). */
CircuitPlan analyzeCircuit(const Circuit &circuit,
                           const TfheParams &params,
                           const AnalysisOptions &options = {});

/**
 * One plan-driven evaluation, stepped level by level. The run never
 * bootstraps anything itself: pending() hands out the next level's
 * linear forms, the caller runs each through a sign PBS+KS (under
 * signTestVector(N)) however it likes -- one bootstrapBatch sweep, or
 * a volley of BatchExecutor futures resolved later -- and complete()
 * takes the outputs back and evaluates the free nodes up to the next
 * PBS level. Circuit::evalEncrypted(server, inputs, plan) drives it
 * synchronously; the serving daemon advances it from its event loop,
 * so no thread blocks per circuit.
 *
 *     PlanRun run(circuit, plan, params.n, inputs);
 *     while (!run.done())
 *         run.complete(server.bootstrapBatch(run.pending(), tv));
 *     std::vector<LweCiphertext> out = run.outputs();
 *
 * Holds references to @p circuit and @p plan: both must outlive the
 * run. Not thread-safe; one owner steps it.
 */
class PlanRun
{
  public:
    /**
     * Start a run of @p plan over @p circuit at LWE dimension
     * @p lwe_n and evaluate up to the first PBS level. Panics if the
     * plan is infeasible or was built for another circuit, or on a
     * wrong input count.
     */
    PlanRun(const Circuit &circuit, const CircuitPlan &plan,
            uint32_t lwe_n, std::vector<LweCiphertext> inputs);

    /** True once every level has been evaluated. */
    bool done() const { return level_ > plan_.depth(); }

    /**
     * The current level's linear forms, each to be sign-bootstrapped
     * and keyswitched (MUX contributes two). Empty once done().
     */
    const std::vector<LweCiphertext> &pending() const { return lins_; }

    /**
     * Hand back the PBS+KS outputs of pending(), in order, and advance
     * to the next level that bootstraps (or to done()). Panics on a
     * size mismatch or after done().
     */
    void complete(std::vector<LweCiphertext> outs);

    /** The encrypted primary outputs. Panics unless done(). */
    std::vector<LweCiphertext> outputs() const;

  private:
    /** Collect the PBS of level_, evaluating PBS-free levels on the
     * way. */
    void prepareLevel();
    /** Evaluate the free (Wire/Linear) nodes of level_. */
    void evalFreeNodes();

    const Circuit &circuit_;
    const CircuitPlan &plan_;
    const uint32_t lwe_n_;
    std::vector<LweCiphertext> inputs_;
    size_t next_input_ = 0;
    std::vector<std::vector<Wire>> by_level_;
    std::vector<LweCiphertext> vals_;
    uint32_t level_ = 0;
    std::vector<LweCiphertext> lins_; //!< pending linear forms
    std::vector<Wire> owners_;        //!< node of each lins_ entry
};

} // namespace strix

#endif // STRIX_WORKLOADS_CIRCUIT_ANALYSIS_H
