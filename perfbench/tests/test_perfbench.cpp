/**
 * @file
 * Tests of the benchmark's own machinery: seeded inputs are
 * reproducible and seed-dependent, the percentile rule and span self
 * times give known answers on synthetic data.
 *
 * Build the package (see perfbench/README.md) and run
 * `perfbench_tests`; it prints each failed check and exits non-zero
 * if any failed.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "inputs.h"
#include "trace.h"
#include "util.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i)
        v.push_back(double(i)); // descending: summarize must sort
    return v;
}

void
testPercentileRule()
{
    // 1000 samples: p99 has exactly ten samples beyond it.
    Summary s = summarize(oneTo(1000), 0.99);
    CHECK(s.n == 1000);
    CHECK(s.p50 == 500);
    CHECK(s.tail == 990);
    CHECK(s.tail_q == 0.99);

    // 100 samples: p99 has one beyond, so the tail drops to p90.
    s = summarize(oneTo(100), 0.99);
    CHECK(s.p50 == 50);
    CHECK(s.tail == 90);
    CHECK(s.tail_q == 0.90);

    // 50 samples at a nominal p90: the rule lowers it to p80.
    s = summarize(oneTo(50), 0.90);
    CHECK(s.tail == 40);
    CHECK(s.tail_q == 0.80);

    // Too few samples for the rule: the tail reads as the median.
    s = summarize(oneTo(5), 0.99);
    CHECK(s.p50 == 3);
    CHECK(s.tail == 3);

    // A missed request counts as later than any limit.
    std::vector<double> v = oneTo(99);
    v.push_back(kMissed);
    s = summarize(v, 0.99);
    CHECK(s.missed == 1);
    CHECK(s.tail == 90);
    v.assign(20, kMissed);
    CHECK(summarize(v, 0.5).p50 == kMissed);
    CHECK(jsonNumber(kMissed) == "1e9");

    CHECK(summarize({}, 0.99).n == 0);
    CHECK(median({4, 1, 3}) == 3);
}

void
testSelfTime()
{
    SpanStore off(false);
    CHECK(off.add("x", 0, 10) == 0);
    CHECK(off.size() == 0);

    SpanStore t(true);
    // Times are nanoseconds; durations and self times read in us.
    const uint32_t parent = t.add("request", 100000, 200000);
    t.add("child", 110000, 130000, parent);
    t.add("child", 120000, 150000, parent); // overlaps the first child
    t.add("child", 190000, 240000, parent); // clipped at the parent's end
    t.add("other", 100000, 200000);         // not a child
    const uint32_t leaf = t.add("leaf", 0, 7000, parent);
    CHECK(t.selfTimeUs(parent) == 100 - 40 - 10);
    CHECK(t.selfTimeUs(leaf) == 7);
    CHECK(t.durationsUs("child").size() == 3);
    CHECK(t.durationsUs("child")[0] == 20);
}

void
testSeededInputs()
{
    // Payloads, at a tiny parameter set so the test stays fast.
    const strix::TfheParams p = strix::testParams(16, 64);
    const strix::ClientKeyset keys(p, deriveSeed(7, "tenant0"));
    CHECK(digest(makeServePool(keys, 11, 16)) ==
          digest(makeServePool(keys, 11, 16)));
    CHECK(digest(makeServePool(keys, 11, 16)) !=
          digest(makeServePool(keys, 12, 16)));
    CHECK(digest(makeSweepPool(keys, 11, 8)) ==
          digest(makeSweepPool(keys, 11, 8)));
    CHECK(digest(makeSweepPool(keys, 11, 8)) !=
          digest(makeSweepPool(keys, 12, 8)));
    const strix::Circuit adder = strix::buildAdder(4);
    CHECK(digest(makeCircuitPool(adder, keys, 11, 4)) ==
          digest(makeCircuitPool(adder, keys, 11, 4)));
    CHECK(digest(makeCircuitPool(adder, keys, 11, 4)) !=
          digest(makeCircuitPool(adder, keys, 12, 4)));

    // Requests alternate between the two compute types.
    const auto pool = makeServePool(keys, 11, 4);
    CHECK(pool[0].type == strix::MsgType::Bootstrap);
    CHECK(pool[1].type == strix::MsgType::ApplyLut);

    // Churn order visits every keyset before repeating one.
    const auto order = makeChurnOrder(5, 9, 3);
    CHECK(order == makeChurnOrder(5, 9, 3));
    for (size_t k = 0; k + 2 < order.size(); ++k)
        CHECK(std::set<uint32_t>(order.begin() + long(k),
                                 order.begin() + long(k + 3))
                  .size() == 3);

    // Derived seeds depend on both the seed and the label.
    CHECK(deriveSeed(1, "pool0") != deriveSeed(2, "pool0"));
    CHECK(deriveSeed(1, "pool0") != deriveSeed(1, "pool1"));
    CHECK(deriveSeed(1, "pool0") == deriveSeed(1, "pool0"));
}

} // namespace

int
main()
{
    testPercentileRule();
    testSelfTime();
    testSeededInputs();
    if (failures != 0) {
        std::printf("%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("all perfbench tests passed\n");
    return 0;
}
