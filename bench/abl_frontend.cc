/**
 * @file
 * Front-end bench for the event-service loop and hot/cold text
 * layout, measured both ways the paper measures gem5:
 *
 *  1. Service order and speed. Three scenarios (mixed-kind tick
 *     storm, same-tick burst drain, transient response storm) run on
 *     the real EventQueue with fixed seeds. Each folds every serviced
 *     event into an order-sensitive digest, which must equal the
 *     constant pinned below: the digests a plain virtual-process()
 *     queue with no layout annotations produced for the same
 *     scenarios. Host ns per serviced event is reported, not gated.
 *
 *  2. Modeled Top-Down. The same profiled simulation runs on the
 *     stock text layout ("before") and on the hot/cold split with
 *     THP-backed text ("after"); event entries are virtual in both.
 *     Front-end-bound% must drop, the fig. 2/3-style evidence that
 *     the layout work attacks the bottleneck the paper diagnosed
 *     rather than some accidental slack.
 *
 * Both checks are deterministic. Writes BENCH_frontend.json.
 * Options: --json <path>, --quick, --reps <n>.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/eventq.hh"

using namespace g5p;

namespace
{

/** Deterministic per-event stride source. */
struct Lcg
{
    std::uint64_t state;
    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    }
};

/** Order-sensitive digest: proves bit-identical service order. */
struct Digest
{
    std::uint64_t value = 0x243f'6a88'85a3'08d3ULL;
    void
    fold(std::uint64_t token, std::uint64_t tick)
    {
        value = (value << 7 | value >> 57) ^ (token * 0x9e3779b97f4a7c15ULL + tick);
    }
};

constexpr int numKinds = 8;

struct ScenarioParams
{
    int stormEvents = 256;
    int stormFires = 1500;
    int burstWidth = 64;
    int burstRounds = 4000;
    int callbackChain = 200000;
};

/** Instantiate event template @p E<K> with K = @p kind % 8. */
template <template <int> class E, typename... Args>
std::unique_ptr<sim::Event>
makeKind(int kind, Args &&...args)
{
    switch (kind % numKinds) {
      case 0: return std::make_unique<E<0>>(args...);
      case 1: return std::make_unique<E<1>>(args...);
      case 2: return std::make_unique<E<2>>(args...);
      case 3: return std::make_unique<E<3>>(args...);
      case 4: return std::make_unique<E<4>>(args...);
      case 5: return std::make_unique<E<5>>(args...);
      case 6: return std::make_unique<E<6>>(args...);
      default: return std::make_unique<E<7>>(args...);
    }
}

/** @{ Scenario 1: mixed-kind tick storm (self-rescheduling mix). */
struct StormState
{
    Digest *digest;
    Lcg lcg;
    std::uint64_t token;
    int firesLeft;
};

template <int K>
class StormEvent : public sim::Event
{
  public:
    StormEvent(sim::EventQueue &eq, StormState st)
        : eq_(eq), st_(st)
    {
    }

    void
    process() override
    {
        st_.digest->fold(st_.token + K, eq_.curTick());
        if (--st_.firesLeft > 0)
            eq_.schedule(*this, eq_.curTick() + 1 +
                         st_.lcg.next() % 1000);
    }

  private:
    sim::EventQueue &eq_;
    StormState st_;
};

std::uint64_t
runStorm(const ScenarioParams &p, Digest &digest)
{
    sim::EventQueue eq;
    std::vector<std::unique_ptr<sim::Event>> events;
    events.reserve(p.stormEvents);
    Lcg seeder{0x5eedULL};
    for (int i = 0; i < p.stormEvents; ++i) {
        StormState st{&digest, Lcg{seeder.next()},
                      (std::uint64_t)i, p.stormFires};
        events.push_back(makeKind<StormEvent>(i, eq, st));
        eq.schedule(*events.back(), 1 + (Tick)(i % 97));
    }
    return eq.serviceUntil(maxTick - 1);
}
/** @} */

/** @{ Scenario 2: same-tick burst drain (chain append + promote). */
template <int K>
class BurstEvent : public sim::Event
{
  public:
    BurstEvent(sim::EventQueue &eq, Digest &digest)
        : eq_(eq), digest_(digest)
    {
    }

    void process() override { digest_.fold(K * 131 + 7, eq_.curTick()); }

  private:
    sim::EventQueue &eq_;
    Digest &digest_;
};

std::uint64_t
runBurst(const ScenarioParams &p, Digest &digest)
{
    sim::EventQueue eq;
    std::vector<std::unique_ptr<sim::Event>> events;
    for (int i = 0; i < p.burstWidth; ++i)
        events.push_back(makeKind<BurstEvent>(i, eq, digest));
    std::uint64_t serviced = 0;
    for (int round = 0; round < p.burstRounds; ++round) {
        Tick t = eq.curTick() + 1;
        for (auto &ev : events)
            eq.schedule(*ev, t);
        serviced += eq.serviceUntil(t);
    }
    return serviced;
}
/** @} */

/**
 * @{ Scenario 3: transient response storm (pooled one-shots in a
 * live mixed queue). This is the production shape of dynamic
 * events: cache/DRAM/TLB continuations are allocated at event rate
 * and fire interleaved with the tick events that spawned them — not
 * as an isolated monomorphic chain. Drivers of four kinds
 * self-reschedule and, per fire, launch one pooled auto-delete
 * response a few ticks out, so the queue stays ~drivers + in-flight
 * responses deep and service alternates kinds, exactly the mix the
 * service loop's process() call sees in a real run.
 */
struct DriverState
{
    Digest *digest;
    Lcg lcg;
    int *budget;
};

template <int K>
class DriverEvent : public sim::Event
{
  public:
    DriverEvent(sim::EventQueue &eq, DriverState st)
        : eq_(eq), st_(st)
    {
    }

    void
    process() override
    {
        st_.digest->fold(100 + K, eq_.curTick());
        if (*st_.budget <= 0)
            return;
        --*st_.budget;
        Digest *d = st_.digest;
        sim::EventQueue *q = &eq_;
        // One pooled response per fire, like a cache access
        // completing: two captured pointers keep the closure in
        // std::function's inline storage.
        eq_.scheduleOneShot(eq_.curTick() + 1 + st_.lcg.next() % 24,
                            [d, q] { d->fold(0x7e57, q->curTick()); },
                            "resp");
        eq_.schedule(*this, eq_.curTick() + 2 + st_.lcg.next() % 40);
    }

  private:
    sim::EventQueue &eq_;
    DriverState st_;
};

constexpr int numDrivers = 32;

std::uint64_t
runResponses(const ScenarioParams &p, Digest &digest)
{
    sim::EventQueue eq;
    int budget = p.callbackChain;
    std::vector<std::unique_ptr<sim::Event>> drivers;
    drivers.reserve(numDrivers);
    Lcg seeder{0xd21e5ULL};
    for (int i = 0; i < numDrivers; ++i) {
        DriverState st{&digest, Lcg{seeder.next()}, &budget};
        // Kinds 0..3 only: four driver kinds, as the scenario says.
        drivers.push_back(makeKind<DriverEvent>(i % 4, eq, st));
        eq.schedule(*drivers.back(), 1 + (Tick)(i % 13));
    }
    return eq.serviceUntil(maxTick - 1);
}
/** @} */

// ===============================================================
// Harness.
// ===============================================================

using clock_type = std::chrono::steady_clock;

/** Events serviced and the order digest one scenario must produce. */
struct Order
{
    std::uint64_t serviced;
    std::uint64_t digest;
};

struct Scenario
{
    const char *name;
    std::uint64_t (*run)(const ScenarioParams &, Digest &);
    /** Recorded from a plain virtual-process() queue. */
    Order full;
    Order quick;
};

const Scenario scenarios[] = {
    {"mixed-kind tick storm", runStorm,
     {384000, 0x843e64098ce21da8ULL}, {76800, 0xad29adce6bc02d73ULL}},
    {"same-tick burst drain", runBurst,
     {256000, 0x9d86d3313c1ab16aULL}, {51200, 0x607b2eccc1e74c97ULL}},
    {"transient response storm", runResponses,
     {400032, 0x7978a53a0201f8a9ULL}, {80032, 0xc1194ea4cb9349fcULL}},
};

struct Measured
{
    double ns = 0;
    Order order{0, 0};
};

Measured
timeOnce(const Scenario &s, const ScenarioParams &p)
{
    Digest digest;
    auto start = clock_type::now();
    std::uint64_t serviced = s.run(p, digest);
    auto end = clock_type::now();
    Measured m;
    m.ns = (double)std::chrono::duration_cast<
        std::chrono::nanoseconds>(end - start).count();
    m.order = {serviced, digest.value};
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_frontend.json";
    bool quick = false;
    int reps = 11;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = std::max(1, std::atoi(argv[++i]));
        } else {
            std::printf("options: --json <path> | --quick | "
                        "--reps <n>\n");
            return arg == "--help" ? 0 : 2;
        }
    }

    ScenarioParams p;
    if (quick) {
        p.stormFires = 300;
        p.burstRounds = 800;
        p.callbackChain = 40000;
        reps = std::min(reps, 5);
    }

    // One warm-up run primes pools, page tables and branch history;
    // min-of-reps rejects scheduler noise. Digests are deterministic,
    // so every rep must produce the same one.
    std::printf("# abl_frontend: EventQueue service loop "
                "(min of %d reps)\n", reps);
    std::printf("%-26s %10s %12s %7s\n", "scenario", "events",
                "ns/op", "order");
    bool orders_ok = true;
    std::vector<Measured> results;
    for (const Scenario &s : scenarios) {
        Measured best = timeOnce(s, p);
        for (int rep = 0; rep < reps; ++rep) {
            Measured m = timeOnce(s, p);
            if (m.ns < best.ns)
                best = m;
        }
        const Order &want = quick ? s.quick : s.full;
        bool same = best.order.serviced == want.serviced &&
                    best.order.digest == want.digest;
        orders_ok = orders_ok && same;
        std::printf("%-26s %10llu %12.2f %7s\n", s.name,
                    (unsigned long long)best.order.serviced,
                    best.ns / (double)best.order.serviced,
                    same ? "match" : "DIFF");
        if (!same)
            std::printf("  got %llu events, digest %016llx; pinned "
                        "%llu, %016llx\n",
                        (unsigned long long)best.order.serviced,
                        (unsigned long long)best.order.digest,
                        (unsigned long long)want.serviced,
                        (unsigned long long)want.digest);
        results.push_back(best);
    }
    std::printf("event pool on huge pages: %s\n",
                sim::EventPool::usingHugePages() ? "yes"
                                                 : "no (fallback)");

    // ------------------------------------------------------------
    // Modeled Top-Down: before (stock text layout) vs after (the
    // hot/cold split and order file, THP-backed text), same profiled
    // simulation with virtual event entries in both legs. hotLayout
    // densifies the fetched text and thpCode backs the packed hot
    // pages with huge pages — the icache/iTLB share of front-end
    // bound.
    // ------------------------------------------------------------
    core::RunConfig cfg;
    cfg.workload = "water_nsquared";
    cfg.cpuModel = os::CpuModel::O3;
    cfg.platform = host::xeonConfig();
    cfg.workloadScale = 0.1;
    cfg.maxGuestInsts = quick ? 4000 : 12000;

    std::fprintf(stderr, "  running modeled Top-Down legs ...\n");
    core::RunResult before = core::runProfiledSimulation(cfg);
    cfg.tuning.hotLayout = true;
    cfg.tuning.thpCode = true;
    core::RunResult after = core::runProfiledSimulation(cfg);

    double fe_before = before.topdown.frontendBound();
    double fe_after = after.topdown.frontendBound();
    core::printBanner(std::cout,
        "Modeled Top-Down: O3/water_nsquared, stock vs hot "
        "layout + THP text");
    {
        core::Table table({"leg", "retiring", "bad spec", "FE bound",
                           "BE bound"});
        table.addRow({"before (stock layout)",
                      fmtPercent(before.topdown.retiring),
                      fmtPercent(
                          before.topdown.badSpeculation),
                      fmtPercent(fe_before),
                      fmtPercent(before.topdown.backendBound)});
        table.addRow({"after (hot layout+THP)",
                      fmtPercent(after.topdown.retiring),
                      fmtPercent(after.topdown.badSpeculation),
                      fmtPercent(fe_after),
                      fmtPercent(after.topdown.backendBound)});
        table.print(std::cout);
    }
    std::printf("front-end bound: %.2f%% -> %.2f%% "
                "(delta %+.2f pts)\n", 100 * fe_before,
                100 * fe_after, 100 * (fe_after - fe_before));

    // ------------------------------------------------------------
    // JSON artifact.
    // ------------------------------------------------------------
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"frontend\",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Measured &m = results[i];
        const Order &want = quick ? scenarios[i].quick
                                  : scenarios[i].full;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"ns_per_op\": "
                      "%.3f, \"order_match\": %s}%s\n",
                      scenarios[i].name,
                      m.ns / (double)m.order.serviced,
                      m.order.digest == want.digest &&
                              m.order.serviced == want.serviced
                          ? "true"
                          : "false",
                      i + 1 < results.size() ? "," : "");
        json << buf;
    }
    json << "  ],\n";
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "  \"order_digests_match\": %s,\n"
                  "  \"event_pool_huge_pages\": %s,\n"
                  "  \"topdown_frontend_bound_before\": %.5f,\n"
                  "  \"topdown_frontend_bound_after\": %.5f\n}\n",
                  orders_ok ? "true" : "false",
                  sim::EventPool::usingHugePages() ? "true" : "false",
                  fe_before, fe_after);
    json << buf;
    if (!json) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());

    // The acceptance checks.
    int failures = 0;
    if (!orders_ok) {
        std::printf("FAIL: service-order digests diverge from the "
                    "pinned service order\n");
        ++failures;
    }
    if (fe_after >= fe_before) {
        std::printf("FAIL: modeled front-end bound did not drop "
                    "(%.4f -> %.4f)\n", fe_before, fe_after);
        ++failures;
    }
    return failures ? 1 : 0;
}
