/**
 * @file
 * CircuitAnalyzer implementation: majority fusion, XOR elision,
 * worst-case variance propagation, budget relaxation, levelization,
 * and the level stepper (PlanRun) behind plan-driven evaluation.
 */

#include "workloads/circuit_analysis.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "tfhe/gates.h"

namespace strix {

namespace {

/** Phase amplitude of an encoding (distance of +-e to the decision
 * boundaries at 0 and 1/2; both are e for e <= 1/4). */
double
amplitude(WireEncoding enc)
{
    return enc == WireEncoding::Std8 ? 0.125 : 0.25;
}

/**
 * msg_space whose decoding margin equals the encoding's amplitude
 * (margin = 1/(2*space)), so budgets route through the existing
 * NoiseModel::decodableStddev API: +-1/8 margins behave like a
 * 4-message space, +-1/4 like a 2-message space.
 */
uint64_t
marginSpace(WireEncoding enc)
{
    return enc == WireEncoding::Std8 ? 4 : 2;
}

/** XOR/XNOR linear weight normalizing amplitude e to 1/4: 1/(4e). */
int32_t
xorWeight(WireEncoding enc)
{
    return enc == WireEncoding::Std8 ? 2 : 1;
}

bool
isXorShaped(GateOp op)
{
    return op == GateOp::Xor || op == GateOp::Xnor;
}

const char *
opName(GateOp op)
{
    switch (op) {
      case GateOp::And: return "And";
      case GateOp::Or: return "Or";
      case GateOp::Xor: return "Xor";
      case GateOp::Nand: return "Nand";
      case GateOp::Nor: return "Nor";
      case GateOp::Xnor: return "Xnor";
      case GateOp::AndNY: return "AndNY";
      case GateOp::AndYN: return "AndYN";
      case GateOp::Not: return "Not";
      case GateOp::Mux: return "Mux";
      case GateOp::Input: return "Input";
      case GateOp::Const: return "Const";
    }
    return "?";
}

/** Scratch state the analysis loop iterates on. */
struct Analysis
{
    // Fusion state: maj[o] = {x,y,z} for a fused Or; fused_away
    // marks its absorbed And operands.
    struct Maj
    {
        Wire x, y, z;
    };
    std::map<Wire, Maj> maj;
    std::vector<char> fused_away;

    std::vector<char> elided; // Xor/Xnor with the PBS deferred

    // Forward-pass results.
    std::vector<WireEncoding> enc;
    std::vector<double> var;
    std::vector<double> pbs_in; // variance at the PBS decision
    std::vector<uint32_t> level;
};

/** Effective operand wires of a node under the current fusion state
 * (empty for fused-away and valueless nodes). */
void
effectiveOperands(const Circuit &c, const Analysis &a, Wire w,
                  std::vector<Wire> &out)
{
    out.clear();
    if (a.fused_away[w])
        return;
    auto it = a.maj.find(w);
    if (it != a.maj.end()) {
        out = {it->second.x, it->second.y, it->second.z};
        return;
    }
    const Circuit::Node &n = c.node(w);
    switch (n.op) {
      case GateOp::Input:
      case GateOp::Const:
        break;
      case GateOp::Not:
        out = {n.a};
        break;
      case GateOp::Mux:
        out = {n.a, n.b, n.c};
        break;
      default:
        out = {n.a, n.b};
    }
}

/** Variance of sum_i w_i * x_i with duplicate wires accumulated
 * first (Xor(a, a) carries weight 4a, not two independent 2a draws),
 * then handed to NoiseModel::linearCombination. */
double
weightedVariance(const std::vector<std::pair<Wire, int32_t>> &terms,
                 const std::vector<double> &var)
{
    std::vector<Wire> wires;
    std::vector<int32_t> w;
    std::vector<double> v;
    for (const auto &[wire, weight] : terms) {
        auto it = std::find(wires.begin(), wires.end(), wire);
        if (it != wires.end()) {
            w[size_t(it - wires.begin())] += weight;
        } else {
            wires.push_back(wire);
            w.push_back(weight);
            v.push_back(var[wire]);
        }
    }
    return NoiseModel::linearCombination(w, v);
}

} // namespace

std::vector<uint32_t>
CircuitAnalyzer::naiveLevels(const Circuit &c)
{
    std::vector<uint32_t> lvl(c.numNodes(), 0);
    for (Wire i = 0; i < c.numNodes(); ++i) {
        const Circuit::Node &n = c.node(i);
        switch (n.op) {
          case GateOp::Input:
          case GateOp::Const:
            lvl[i] = 0;
            break;
          case GateOp::Not:
            lvl[i] = lvl[n.a]; // free, stays on its operand's level
            break;
          case GateOp::Mux:
            lvl[i] =
                std::max(lvl[n.a], std::max(lvl[n.b], lvl[n.c])) + 1;
            break;
          default:
            lvl[i] = std::max(lvl[n.a], lvl[n.b]) + 1;
        }
    }
    return lvl;
}

CircuitPlan
CircuitAnalyzer::plan() const
{
    const size_t nn = circuit_.numNodes();
    const NoiseModel model(params_);
    const double input_var = options_.input_variance >= 0
                                 ? options_.input_variance
                                 : model.freshLwe();
    const double z = options_.z;
    panicIfNot(z > 0.0, "CircuitAnalyzer: z budget must be positive");

    std::vector<char> is_output(nn, 0);
    for (Wire w : circuit_.outputs())
        is_output[w] = 1;

    Analysis a;
    a.fused_away.assign(nn, 0);
    a.elided.assign(nn, 0);

    // ---- Majority fusion: Or(And(x,y), And(Xor(x,y), z)). ----
    if (options_.fuse_majority) {
        std::vector<uint32_t> consumers(nn, 0);
        std::vector<Wire> ops;
        for (Wire i = 0; i < nn; ++i) {
            effectiveOperands(circuit_, a, i, ops);
            for (Wire o : ops)
                ++consumers[o];
        }
        for (Wire i = 0; i < nn; ++i) {
            const Circuit::Node &n = circuit_.node(i);
            if (n.op != GateOp::Or || n.a == n.b)
                continue;
            // Both operands: single-use non-output And gates.
            auto fusibleAnd = [&](Wire w) {
                return circuit_.node(w).op == GateOp::And &&
                       consumers[w] == 1 && !is_output[w];
            };
            if (!fusibleAnd(n.a) || !fusibleAnd(n.b))
                continue;
            // One And is gen = And(x,y); the other is
            // prop = And(t, z) with t = Xor over the same {x, y}.
            auto match = [&](Wire gen, Wire prop) -> bool {
                const Circuit::Node &g = circuit_.node(gen);
                const Circuit::Node &p = circuit_.node(prop);
                for (auto [t, zz] :
                     {std::pair<Wire, Wire>{p.a, p.b}, {p.b, p.a}}) {
                    const Circuit::Node &tn = circuit_.node(t);
                    if (tn.op != GateOp::Xor)
                        continue;
                    const bool same =
                        (tn.a == g.a && tn.b == g.b) ||
                        (tn.a == g.b && tn.b == g.a);
                    if (!same)
                        continue;
                    a.maj[i] = {g.a, g.b, zz};
                    a.fused_away[gen] = 1;
                    a.fused_away[prop] = 1;
                    return true;
                }
                return false;
            };
            if (!match(n.a, n.b))
                match(n.b, n.a);
        }
    }

    // ---- Relaxation loop: elide greedily, un-elide / un-fuse until
    // every budget holds (or nothing is left to revert). ----
    CircuitPlan plan;
    plan.circuit_name_ = circuit_.name();
    plan.z_ = z;
    plan.naive_pbs_ = circuit_.pbsCount();

    std::vector<Wire> ops;
    std::vector<std::pair<Wire, int32_t>> terms;
    std::vector<Wire> pinned; // un-elided by the relaxation loop
    // Cheapest-sufficient trial machinery. A trial pins one candidate
    // from the violation cone and lets the next loop pass *be* the
    // simulation (same eligibility / forward-pass / budget code): an
    // empty violation list accepts the pin, otherwise the next
    // candidate is tried, and when no single pin suffices the greedy
    // fallback below takes over on the recomputed base state.
    std::deque<Wire> trial_cands;
    bool trialing = false;
    bool trials_exhausted = false;
    constexpr size_t kMaxTrials = 64;
    for (;;) {
        // Structural elision eligibility under the current fusion
        // state: every consumer takes wide wires (XOR-shaped, or a
        // NOT that itself only feeds such consumers); outputs decode
        // any amplitude by sign. Reverse-topological pass.
        std::vector<char> wide_ok(nn, 1);
        for (Wire i = nn; i-- > 0;) {
            effectiveOperands(circuit_, a, i, ops);
            const GateOp op = circuit_.node(i).op;
            for (Wire o : ops) {
                if (isXorShaped(op))
                    continue; // weight-1 wide operand is fine
                if (op == GateOp::Not) {
                    if (!wide_ok[i])
                        wide_ok[o] = 0;
                    continue;
                }
                wide_ok[o] = 0; // +-1/8 linear forms wrap on wide
            }
        }
        for (Wire i = 0; i < nn; ++i) {
            const bool eligible = options_.elide &&
                                  isXorShaped(circuit_.node(i).op) &&
                                  !a.fused_away[i] && wide_ok[i];
            if (!eligible)
                a.elided[i] = 0;
            else if (a.elided[i] == 0 && options_.elide)
                a.elided[i] = 1;
        }
        // Nodes the relaxation has pinned to Bootstrap stay pinned.
        for (Wire w : pinned)
            a.elided[w] = 0;

        // Forward pass: encoding, variance, level per wire.
        a.enc.assign(nn, WireEncoding::Std8);
        a.var.assign(nn, 0.0);
        a.pbs_in.assign(nn, 0.0);
        a.level.assign(nn, 0);
        for (Wire i = 0; i < nn; ++i) {
            if (a.fused_away[i])
                continue;
            const Circuit::Node &n = circuit_.node(i);
            effectiveOperands(circuit_, a, i, ops);
            uint32_t max_lvl = 0;
            for (Wire o : ops)
                max_lvl = std::max(max_lvl, a.level[o]);
            auto it = a.maj.find(i);
            if (it != a.maj.end()) {
                terms = {{it->second.x, 1},
                         {it->second.y, 1},
                         {it->second.z, 1}};
                a.pbs_in[i] =
                    weightedVariance(terms, a.var) + model.modSwitch();
                a.var[i] = model.pbsOutput();
                a.level[i] = max_lvl + 1;
                continue;
            }
            switch (n.op) {
              case GateOp::Input:
                a.var[i] = input_var;
                break;
              case GateOp::Const:
                a.var[i] = 0.0; // trivial ciphertext
                break;
              case GateOp::Not:
                a.enc[i] = a.enc[n.a];
                a.var[i] = a.var[n.a];
                a.level[i] = a.level[n.a];
                break;
              case GateOp::Xor:
              case GateOp::Xnor: {
                terms = {{n.a, xorWeight(a.enc[n.a])},
                         {n.b, xorWeight(a.enc[n.b])}};
                const double lin = weightedVariance(terms, a.var);
                if (a.elided[i]) {
                    a.enc[i] = WireEncoding::Wide4;
                    a.var[i] = lin;
                    a.level[i] = max_lvl;
                } else {
                    a.pbs_in[i] = lin + model.modSwitch();
                    a.var[i] = model.pbsOutput();
                    a.level[i] = max_lvl + 1;
                }
                break;
              }
              case GateOp::Mux: {
                // Two sign PBS (sel&hi, !sel&lo), each keyswitched,
                // summed with the +1/8 bias at dimension n.
                terms = {{n.a, 1}, {n.b, 1}};
                const double lin1 = weightedVariance(terms, a.var);
                terms = {{n.a, 1}, {n.c, 1}};
                const double lin2 = weightedVariance(terms, a.var);
                a.pbs_in[i] =
                    std::max(lin1, lin2) + model.modSwitch();
                a.var[i] = 2.0 * model.pbsOutput();
                a.level[i] = max_lvl + 1;
                break;
              }
              default: { // And/Or/Nand/Nor/AndNY/AndYN
                terms = {{n.a, 1}, {n.b, 1}};
                a.pbs_in[i] =
                    weightedVariance(terms, a.var) + model.modSwitch();
                a.var[i] = model.pbsOutput();
                a.level[i] = max_lvl + 1;
                break;
              }
            }
        }

        // Budget checks: every surviving PBS input and every primary
        // output must sit z sigmas inside its decoding margin.
        struct Violation
        {
            Wire wire;
            bool at_output;
            double stddev, budget, margin;
        };
        std::vector<Violation> violations;
        for (Wire i = 0; i < nn; ++i) {
            if (a.pbs_in[i] <= 0.0)
                continue;
            // Surviving XOR-shaped bootstraps decide at +-1/4, every
            // other linear form at the +-1/8 grid.
            const WireEncoding lin_enc =
                isXorShaped(circuit_.node(i).op) && !a.maj.count(i)
                    ? WireEncoding::Wide4
                    : WireEncoding::Std8;
            const double budget =
                NoiseModel::decodableStddev(marginSpace(lin_enc), z);
            const double sd = std::sqrt(a.pbs_in[i]);
            if (sd >= budget)
                violations.push_back(
                    {i, false, sd, budget, amplitude(lin_enc)});
        }
        for (Wire w : circuit_.outputs()) {
            const double budget =
                NoiseModel::decodableStddev(marginSpace(a.enc[w]), z);
            const double sd = std::sqrt(a.var[w]);
            if (sd >= budget)
                violations.push_back(
                    {w, true, sd, budget, amplitude(a.enc[w])});
        }
        if (trialing) {
            trialing = false;
            if (violations.empty())
                break; // the trial pin restored every budget: keep it
            pinned.pop_back(); // trial failed; back to the base pins
            if (!trial_cands.empty()) {
                pinned.push_back(trial_cands.front());
                trial_cands.pop_front();
                trialing = true;
                continue;
            }
            // No single pin suffices. Recompute the base state so the
            // greedy fallback reverts against honest numbers.
            trials_exhausted = true;
            continue;
        }
        if (violations.empty())
            break; // feasible

        // Revert the strongest noise source in the violation's
        // ancestor cone: an elided XOR first, then a fused majority.
        const Violation &v = violations.front();
        std::vector<char> in_cone(nn, 0);
        std::deque<Wire> queue{v.wire};
        in_cone[v.wire] = 1;
        while (!queue.empty()) {
            Wire cur = queue.front();
            queue.pop_front();
            effectiveOperands(circuit_, a, cur, ops);
            for (Wire o : ops)
                if (!in_cone[o]) {
                    in_cone[o] = 1;
                    queue.push_back(o);
                }
        }
        if (!trials_exhausted) {
            std::vector<Wire> cands;
            for (Wire i = 0; i < nn; ++i)
                if (in_cone[i] && a.elided[i])
                    cands.push_back(i);
            std::sort(cands.begin(), cands.end(),
                      [&](Wire l, Wire r) {
                          return a.var[l] != a.var[r]
                                     ? a.var[l] > a.var[r]
                                     : l < r;
                      });
            if (cands.size() > kMaxTrials)
                cands.resize(kMaxTrials);
            if (cands.size() > 1) {
                trial_cands.assign(cands.begin() + 1, cands.end());
                pinned.push_back(cands.front());
                trialing = true;
                continue;
            }
            // 0 or 1 candidate: the greedy revert below is already
            // the cheapest move.
        }
        trials_exhausted = false;
        Wire best = 0;
        double best_var = -1.0;
        for (Wire i = 0; i < nn; ++i)
            if (in_cone[i] && a.elided[i] && a.var[i] > best_var) {
                best = i;
                best_var = a.var[i];
            }
        if (best_var >= 0.0) {
            pinned.push_back(best);
            continue;
        }
        Wire unfuse = nn;
        for (Wire i = 0; i < nn; ++i)
            if (in_cone[i] && a.maj.count(i)) {
                unfuse = i;
                break;
            }
        if (unfuse < nn) {
            // Restore gen/prop; the eligibility pass above re-clamps
            // any elision that depended on this fusion.
            a.fused_away[circuit_.node(unfuse).a] = 0;
            a.fused_away[circuit_.node(unfuse).b] = 0;
            a.maj.erase(unfuse);
            continue;
        }

        // Nothing left to revert: the budget is infeasible even with
        // every gate bootstrapped. Report, do not under-bootstrap.
        plan.feasible_ = false;
        const size_t cap = 8;
        for (size_t vi = 0; vi < violations.size() && vi < cap; ++vi) {
            const Violation &bad = violations[vi];
            std::ostringstream os;
            os << plan.circuit_name_ << ":w" << bad.wire
               << ": [budget-infeasible] "
               << opName(circuit_.node(bad.wire).op)
               << (bad.at_output ? " output wire" : " PBS input")
               << " predicted stddev " << bad.stddev
               << " exceeds budget " << bad.budget << " (margin "
               << bad.margin << " at z=" << z << "); wire chain:";
            // Follow the dominant noise contributor to its origin.
            Wire cur = bad.wire;
            for (int hop = 0; hop < 16; ++hop) {
                os << "\n    " << (hop ? "-> " : "") << "w" << cur
                   << " (" << opName(circuit_.node(cur).op)
                   << ", level " << a.level[cur] << ", stddev "
                   << std::sqrt(a.var[cur]) << ")";
                effectiveOperands(circuit_, a, cur, ops);
                // Stop at inputs/consts and at bootstrap boundaries
                // (but chain *through* the violating node itself).
                if (ops.empty() || (hop > 0 && a.pbs_in[cur] > 0.0))
                    break;
                Wire next = ops.front();
                for (Wire o : ops)
                    if (a.var[o] > a.var[next])
                        next = o;
                if (next == cur)
                    break;
                cur = next;
            }
            plan.diagnostics_.push_back(os.str());
        }
        break;
    }

    // ---- Finalize the plan. ----
    plan.nodes_.resize(nn);
    for (Wire i = 0; i < nn; ++i) {
        CircuitPlan::Node &out = plan.nodes_[i];
        const Circuit::Node &n = circuit_.node(i);
        out.encoding = a.enc[i];
        out.level = a.level[i];
        out.variance = a.var[i];
        out.pbs_input_variance = a.pbs_in[i];
        if (a.fused_away[i]) {
            out.action = PlanAction::Fused;
            continue;
        }
        auto it = a.maj.find(i);
        if (it != a.maj.end()) {
            out.action = PlanAction::Bootstrap;
            out.majority = true;
            out.maj_x = it->second.x;
            out.maj_y = it->second.y;
            out.maj_z = it->second.z;
            out.pbs = 1;
            continue;
        }
        switch (n.op) {
          case GateOp::Input:
          case GateOp::Const:
            out.action = PlanAction::Wire;
            break;
          case GateOp::Not:
            out.action = PlanAction::Linear;
            break;
          case GateOp::Mux:
            out.action = PlanAction::Bootstrap;
            out.pbs = 2;
            break;
          default:
            out.action =
                a.elided[i] ? PlanAction::Linear : PlanAction::Bootstrap;
            out.pbs = a.elided[i] ? 0 : 1;
        }
    }
    for (Wire i = 0; i < nn; ++i) {
        if (plan.nodes_[i].pbs > 0) {
            plan.pbs_count_ += plan.nodes_[i].pbs;
            plan.depth_ = std::max(plan.depth_, plan.nodes_[i].level);
        }
        // Fused nodes report the level of the majority that absorbed
        // them (they are never computed).
        if (plan.nodes_[i].action == PlanAction::Fused) {
            for (const auto &[o, m] : a.maj)
                if (circuit_.node(o).a == i || circuit_.node(o).b == i)
                    plan.nodes_[i].level = plan.nodes_[o].level;
        }
    }
    return plan;
}

double
CircuitPlan::predictedStddev(Wire w) const
{
    panicIfNot(w < nodes_.size(), "CircuitPlan: wire out of range");
    return std::sqrt(nodes_[w].variance);
}

std::string
CircuitPlan::summary() const
{
    std::ostringstream os;
    os << circuit_name_ << ": " << pbs_count_ << "/" << naive_pbs_
       << " PBS (" << elidedPbs() << " elided, "
       << int(elisionRatio() * 1000.0 + 0.5) / 10.0 << "%), depth "
       << depth_ << ", z=" << z_
       << (feasible_ ? "" : ", INFEASIBLE");
    return os.str();
}

CircuitPlan
analyzeCircuit(const Circuit &circuit, const TfheParams &params,
               const AnalysisOptions &options)
{
    return CircuitAnalyzer(circuit, params, options).plan();
}

// ---------------------------------------------------------------------
// Plan-driven evaluation (declared in workloads/circuit.h; lives here
// so circuit.cpp stays free of plan internals).
// ---------------------------------------------------------------------

namespace {

void
addWeighted(LweCiphertext &acc, const LweCiphertext &x, int32_t w)
{
    LweCiphertext t = x;
    if (w < 0) {
        t.negate();
        w = -w;
    }
    if (w == 2)
        t.scalarMulAssign(2);
    acc.addAssign(t);
}

/**
 * The linear form each gate's sign bootstrap decides on -- weight-
 * and bias-identical to gates.cpp (integer arithmetic mod 2^32 is
 * order-independent, so results match bit for bit). Elided XOR/XNOR
 * wires reuse the same form directly as their output. @p lin2 is
 * filled only for MUX (its second PBS).
 */
LweCiphertext
linearForm(const Circuit &c, const CircuitPlan &plan, Wire w,
           const std::vector<LweCiphertext> &vals, uint32_t lwe_n,
           LweCiphertext *lin2 = nullptr)
{
    const Circuit::Node &n = c.node(w);
    const CircuitPlan::Node &p = plan.node(w);
    auto bias = [&](int mult, uint64_t space) {
        return LweCiphertext::trivial(lwe_n,
                                      encodeMessage(mult, space));
    };
    if (p.majority) {
        LweCiphertext lin = bias(0, 8); // zero bias: sign(x+y+z)
        addWeighted(lin, vals[p.maj_x], 1);
        addWeighted(lin, vals[p.maj_y], 1);
        addWeighted(lin, vals[p.maj_z], 1);
        return lin;
    }
    const int32_t wa = xorWeight(plan.node(n.a).encoding);
    const int32_t wb = xorWeight(plan.node(n.b).encoding);
    switch (n.op) {
      case GateOp::Xor: {
        LweCiphertext lin = bias(1, 4);
        addWeighted(lin, vals[n.a], wa);
        addWeighted(lin, vals[n.b], wb);
        return lin;
      }
      case GateOp::Xnor: {
        LweCiphertext lin = bias(-1, 4);
        addWeighted(lin, vals[n.a], -wa);
        addWeighted(lin, vals[n.b], -wb);
        return lin;
      }
      case GateOp::And: {
        LweCiphertext lin = bias(-1, 8);
        lin.addAssign(vals[n.a]);
        lin.addAssign(vals[n.b]);
        return lin;
      }
      case GateOp::Or: {
        LweCiphertext lin = bias(1, 8);
        lin.addAssign(vals[n.a]);
        lin.addAssign(vals[n.b]);
        return lin;
      }
      case GateOp::Nand: {
        LweCiphertext lin = bias(1, 8);
        lin.subAssign(vals[n.a]);
        lin.subAssign(vals[n.b]);
        return lin;
      }
      case GateOp::Nor: {
        LweCiphertext lin = bias(-1, 8);
        lin.subAssign(vals[n.a]);
        lin.subAssign(vals[n.b]);
        return lin;
      }
      case GateOp::AndNY: {
        LweCiphertext lin = bias(-1, 8);
        lin.subAssign(vals[n.a]);
        lin.addAssign(vals[n.b]);
        return lin;
      }
      case GateOp::AndYN: {
        LweCiphertext lin = bias(-1, 8);
        lin.addAssign(vals[n.a]);
        lin.subAssign(vals[n.b]);
        return lin;
      }
      case GateOp::Mux: {
        LweCiphertext lin1 = bias(-1, 8);
        lin1.addAssign(vals[n.a]);
        lin1.addAssign(vals[n.b]);
        panicIfNot(lin2 != nullptr, "mux needs two linear forms");
        *lin2 = bias(-1, 8);
        lin2->subAssign(vals[n.a]);
        lin2->addAssign(vals[n.c]);
        return lin1;
      }
      default:
        panic("linearForm: node has no linear form");
    }
}

} // namespace

PlanRun::PlanRun(const Circuit &circuit, const CircuitPlan &plan,
                 uint32_t lwe_n, std::vector<LweCiphertext> inputs)
    : circuit_(circuit), plan_(plan), lwe_n_(lwe_n),
      inputs_(std::move(inputs))
{
    panicIfNot(plan.numNodes() == circuit.numNodes(),
               "evalEncrypted(plan): plan built for another circuit");
    panicIfNot(plan.feasible(),
               "evalEncrypted(plan): plan is infeasible for the "
               "requested noise budget -- see plan.diagnostics()");
    panicIfNot(inputs_.size() == circuit.numInputs(),
               "evalEncrypted(plan): wrong input count");

    // Group nodes by plan level; PBS nodes sweep first, then the
    // free nodes of the level evaluate in construction (= topological)
    // order, so linear chains may ride the same level as the
    // bootstraps they consume.
    by_level_.resize(plan.depth() + 1);
    for (Wire i = 0; i < circuit.numNodes(); ++i)
        by_level_[std::min<uint32_t>(plan.node(i).level, plan.depth())]
            .push_back(i);
    vals_.resize(circuit.numNodes());
    prepareLevel();
}

void
PlanRun::prepareLevel()
{
    for (; !done(); ++level_) {
        for (Wire w : by_level_[level_]) {
            const CircuitPlan::Node &p = plan_.node(w);
            if (p.action != PlanAction::Bootstrap || p.level != level_)
                continue;
            if (circuit_.node(w).op == GateOp::Mux) {
                LweCiphertext lin2;
                lins_.push_back(
                    linearForm(circuit_, plan_, w, vals_, lwe_n_, &lin2));
                lins_.push_back(std::move(lin2));
                owners_.push_back(w);
                owners_.push_back(w);
            } else {
                lins_.push_back(
                    linearForm(circuit_, plan_, w, vals_, lwe_n_));
                owners_.push_back(w);
            }
        }
        if (!lins_.empty())
            return; // the caller bootstraps this level
        evalFreeNodes();
    }
}

void
PlanRun::complete(std::vector<LweCiphertext> outs)
{
    panicIfNot(!done(), "PlanRun::complete: run already done");
    panicIfNot(outs.size() == lins_.size(),
               "PlanRun::complete: one output per pending PBS");
    const Torus32 mu8 = encodeMessage(1, 8);
    for (size_t i = 0; i < owners_.size(); ++i) {
        const Wire w = owners_[i];
        if (circuit_.node(w).op == GateOp::Mux) {
            // u1 + u2 + 1/8 after keyswitching each half:
            // decode-identical to gateMux (which keyswitches the sum
            // once).
            vals_[w] = std::move(outs[i]);
            vals_[w].addAssign(outs[i + 1]);
            vals_[w].addAssign(LweCiphertext::trivial(lwe_n_, mu8));
            ++i; // consumed the pair
        } else {
            vals_[w] = std::move(outs[i]);
        }
    }
    lins_.clear();
    owners_.clear();
    evalFreeNodes();
    ++level_;
    prepareLevel();
}

void
PlanRun::evalFreeNodes()
{
    const Torus32 mu8 = encodeMessage(1, 8);
    for (Wire w : by_level_[level_]) {
        const CircuitPlan::Node &p = plan_.node(w);
        const Circuit::Node &n = circuit_.node(w);
        switch (p.action) {
          case PlanAction::Wire:
            vals_[w] = n.op == GateOp::Input
                           ? std::move(inputs_[next_input_++])
                           : LweCiphertext::trivial(
                                 lwe_n_, n.const_value ? mu8 : 0u - mu8);
            break;
          case PlanAction::Linear:
            if (n.op == GateOp::Not) {
                vals_[w] = vals_[n.a];
                vals_[w].negate();
            } else {
                vals_[w] = linearForm(circuit_, plan_, w, vals_, lwe_n_);
            }
            break;
          case PlanAction::Bootstrap:
          case PlanAction::Fused:
            break; // bootstrapped via pending() / never computed
        }
    }
}

std::vector<LweCiphertext>
PlanRun::outputs() const
{
    panicIfNot(done(), "PlanRun::outputs: run not done");
    std::vector<LweCiphertext> out;
    out.reserve(circuit_.numOutputs());
    for (Wire w : circuit_.outputs())
        out.push_back(vals_[w]);
    return out;
}

std::vector<LweCiphertext>
Circuit::evalEncrypted(const ServerContext &server,
                       const std::vector<LweCiphertext> &inputs,
                       const CircuitPlan &plan) const
{
    PlanRun run(*this, plan, server.params().n, inputs);
    const TorusPolynomial tv = signTestVector(server.params().N);
    while (!run.done())
        run.complete(server.bootstrapBatch(run.pending(), tv));
    return run.outputs();
}

WorkloadGraph
Circuit::toWorkloadGraph(const CircuitPlan &plan) const
{
    panicIfNot(plan.numNodes() == nodes_.size(),
               "toWorkloadGraph(plan): plan built for another circuit");
    WorkloadGraph g(name_);
    std::map<uint32_t, uint64_t> pbs_per_level;
    for (Wire i = 0; i < nodes_.size(); ++i)
        if (plan.node(i).pbs > 0)
            pbs_per_level[plan.node(i).level] += plan.node(i).pbs;
    for (const auto &[level, pbs] : pbs_per_level)
        g.addLayer({"level-" + std::to_string(level), pbs,
                    /*linear_macs=*/pbs * 2});
    return g;
}

} // namespace strix
