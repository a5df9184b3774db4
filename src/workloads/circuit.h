/**
 * @file
 * Boolean circuits over bootstrapped gates.
 *
 * TFHE's gate API evaluates arbitrary boolean circuits; this module
 * provides the netlist, three consumers, and a small standard-cell
 * library:
 *
 *   - functional evaluation in cleartext (reference);
 *   - homomorphic evaluation on a ServerContext (every 2-input gate
 *     is one PBS + KS, MUX is two PBS + one KS, NOT is free); the
 *     client+server convenience wrapper for single-process use lives
 *     in workloads/circuit_client.h so that this header -- and every
 *     server-side TU that includes it -- stays free of
 *     tfhe/client_keyset.h and the secret keys it carries;
 *   - lowering to a WorkloadGraph: gates are levelized by dependency
 *     depth and each level becomes one batchable layer, which is how
 *     a gate workload is scheduled on Strix or a GPU.
 *
 * Builders for ripple-carry adders, comparators, and multipliers are
 * provided as realistic workload generators.
 */

#ifndef STRIX_WORKLOADS_CIRCUIT_H
#define STRIX_WORKLOADS_CIRCUIT_H

#include <cstdint>
#include <string>
#include <vector>

#include "strix/graph.h"
#include "tfhe/gates.h"

namespace strix {

class CircuitPlan; // workloads/circuit_analysis.h

/** Gate kinds supported by the netlist. */
enum class GateOp
{
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Xnor,
    AndNY, //!< (not a) and b
    AndYN, //!< a and (not b)
    Not,   //!< free (no bootstrap)
    Mux,   //!< sel ? a : b (two bootstraps)
    Input, //!< primary input (no computation)
    Const, //!< constant wire (no computation)
};

/** A wire is identified by the index of the node driving it. */
using Wire = uint32_t;

/**
 * Gate netlist in topological construction order (operands must
 * already exist when a gate is added).
 */
class Circuit
{
  public:
    explicit Circuit(std::string name = "circuit") : name_(std::move(name))
    {
    }

    const std::string &name() const { return name_; }

    /** One netlist node (read-only view for analysis passes). */
    struct Node
    {
        GateOp op;
        Wire a = 0, b = 0, c = 0; //!< c = MUX's third operand
        bool const_value = false;
    };

    /** Read a node by wire index (for CircuitAnalyzer). */
    const Node &node(Wire w) const { return nodes_[w]; }

    /** Primary-input wires in encryption order. */
    const std::vector<Wire> &inputWires() const { return inputs_; }

    /** Add a primary input; returns its wire. */
    Wire input(const std::string &label = "");

    /** Add a constant wire. */
    Wire constant(bool value);

    /** Add a 2-input gate. */
    Wire gate(GateOp op, Wire a, Wire b);

    /** Add a NOT (free). */
    Wire notGate(Wire a);

    /** Add a MUX: sel ? hi : lo. */
    Wire mux(Wire sel, Wire hi, Wire lo);

    /** Mark a wire as a primary output. */
    void output(Wire w, const std::string &label = "");

    size_t numNodes() const { return nodes_.size(); }
    size_t numInputs() const { return inputs_.size(); }
    size_t numOutputs() const { return outputs_.size(); }
    const std::vector<Wire> &outputs() const { return outputs_; }

    /** Count of bootstraps needed (gates = 1, MUX = 2, NOT/wiring = 0). */
    uint64_t pbsCount() const;

    /** Logic depth in bootstrapped-gate levels. */
    uint32_t depth() const;

    /** Evaluate in cleartext. inputs.size() must equal numInputs(). */
    std::vector<bool> evalPlain(const std::vector<bool> &inputs) const;

    /**
     * Evaluate homomorphically on the server: @p inputs are encrypted
     * bit ciphertexts in primary-input order; the returned vector
     * holds the encrypted primary outputs. Compiles against
     * ServerContext alone -- the evaluation path cannot touch a
     * secret key by construction.
     */
    std::vector<LweCiphertext>
    evalEncrypted(const ServerContext &server,
                  const std::vector<LweCiphertext> &inputs) const;

    /**
     * Plan-driven homomorphic evaluation: executes @p plan (from
     * CircuitAnalyzer, see workloads/circuit_analysis.h) level by
     * level, landing all surviving PBS of a level in one
     * bootstrapBatch sweep and evaluating elided gates as free LWE
     * linear combinations. Panics if the plan is infeasible or was
     * built for a different circuit. Outputs are decode-identical to
     * the naive path (and bit-identical for MUX-free circuits when
     * the plan elides nothing). This drives a PlanRun to completion;
     * callers that resolve each level asynchronously -- the serving
     * daemon, through BatchExecutor futures -- step a PlanRun
     * themselves. Defined in circuit_analysis.cpp.
     */
    std::vector<LweCiphertext>
    evalEncrypted(const ServerContext &server,
                  const std::vector<LweCiphertext> &inputs,
                  const CircuitPlan &plan) const;

    /**
     * Lower to a layered PBS/KS workload graph: gates at the same
     * dependency level are independent and batch into one layer.
     */
    WorkloadGraph toWorkloadGraph() const;

    /**
     * Lower the *planned* circuit: layers follow the plan's
     * levelization and count only surviving bootstraps. Defined in
     * circuit_analysis.cpp.
     */
    WorkloadGraph toWorkloadGraph(const CircuitPlan &plan) const;

  private:
    /**
     * Bootstrapped-gate level of each node (inputs/const/not =
     * 0-ish). Delegates to CircuitAnalyzer::naiveLevels -- the single
     * level computation shared with the planner.
     */
    std::vector<uint32_t> levels() const;

    std::string name_;
    std::vector<Node> nodes_;
    std::vector<Wire> inputs_;
    std::vector<Wire> outputs_;
};

/** n-bit ripple-carry adder: inputs a[0..n), b[0..n); outputs sum + carry. */
Circuit buildAdder(uint32_t bits);

/** n-bit equality comparator: output a == b. */
Circuit buildEqualityComparator(uint32_t bits);

/** n-bit unsigned less-than comparator: output a < b. */
Circuit buildLessThan(uint32_t bits);

/** n x n -> 2n bit array multiplier. */
Circuit buildMultiplier(uint32_t bits);

} // namespace strix

#endif // STRIX_WORKLOADS_CIRCUIT_H
