/**
 * @file
 * PR 9 dispatch-table suite: the devirtualized event dispatch must be
 * an *observationally invisible* optimization. Two layers here:
 *
 *  - EventDispatch unit tests against a private table instance:
 *    dense kind assignment, per-handler idempotence, the same-name
 *    collision contract, and table overflow — without poisoning the
 *    process-global table the real queues dispatch through.
 *
 *  - The fallback batching contract (PR 6 × PR 9): a pending
 *    fallback-kind event (an out-of-tree Event subclass that never
 *    registered a handler) must make batchingAllowed() refuse, and
 *    the refusal must lift the moment the last such event leaves the
 *    queue.
 *
 * Whole-machine service order is pinned by the dispatch_* rows of
 * tests/test_golden.cc: all four CPU models and a 4-core Timing
 * coherence stress, recorded with every event serviced through
 * virtual process().
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "base/sim_error.hh"
#include "sim/event_dispatch.hh"
#include "sim/eventq.hh"

using namespace g5p;

namespace
{

// ---------------------------------------------------------------
// EventDispatch table contracts (private instance).
// ---------------------------------------------------------------

void handlerA(sim::Event &) {}
void handlerB(sim::Event &) {}

/** Family of distinct function pointers for the overflow test. */
template <std::size_t N>
void
numberedHandler(sim::Event &)
{
}

/** Register @p Count distinct handlers into @p d, returning kinds. */
template <std::size_t... I>
std::vector<sim::EventKind>
registerMany(sim::EventDispatch &d, std::index_sequence<I...>)
{
    return {d.registerKind("kind" + std::to_string(I),
                           &numberedHandler<I>)...};
}

TEST(EventDispatchTable, RegistrationIsDenseAndIdempotent)
{
    sim::EventDispatch d;
    EXPECT_EQ(d.numKinds(), 1u); // fallback slot
    EXPECT_EQ(d.kindName(sim::fallbackKind), "fallback");

    sim::EventKind a = d.registerKind("a", &handlerA);
    sim::EventKind b = d.registerKind("b", &handlerB);
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 2);
    EXPECT_EQ(d.numKinds(), 3u);
    EXPECT_EQ(d.handler(a), &handlerA);
    EXPECT_EQ(d.handler(b), &handlerB);
    EXPECT_EQ(d.kindName(a), "a");
    EXPECT_EQ(d.kindName(b), "b");

    // Re-registration of the same handler is idempotent — same kind,
    // no new slot — even under a different name.
    EXPECT_EQ(d.registerKind("a", &handlerA), a);
    EXPECT_EQ(d.registerKind("a-again", &handlerA), a);
    EXPECT_EQ(d.numKinds(), 3u);
}

TEST(EventDispatchTable, SameNameDifferentHandlerCollides)
{
    sim::EventDispatch d;
    d.registerKind("tick", &handlerA);
    // Kind names are identities: binding a second handler under an
    // existing name is a programming error, not a silent re-bind.
    EXPECT_THROW(d.registerKind("tick", &handlerB),
                 InvariantError);
}

TEST(EventDispatchTable, OverflowThrowsInsteadOfDegrading)
{
    sim::EventDispatch d;
    // Slots 1..255 (0 is the reserved fallback) accept distinct
    // handlers; the 256th distinct registration must throw.
    auto kinds =
        registerMany(d, std::make_index_sequence<255>{});
    EXPECT_EQ(kinds.size(), 255u);
    EXPECT_EQ(d.numKinds(), 256u);
    EXPECT_THROW(d.registerKind("one-too-many", &handlerA),
                 InvariantError);
    // The failed registration must not have clobbered anything.
    EXPECT_EQ(d.numKinds(), 256u);
    EXPECT_EQ(d.handler(kinds.back()), &numberedHandler<254>);
}

TEST(EventDispatchTable, FallbackSlotRoutesThroughVirtualProcess)
{
    // The reserved kind-0 slot is pre-wired to call process(), so a
    // queue can dispatch *every* event through the table uniformly.
    class Probe : public sim::Event
    {
      public:
        explicit Probe(int &hits) : hits_(hits) {}
        void process() override { ++hits_; }

      private:
        int &hits_;
    };

    sim::EventDispatch d;
    int hits = 0;
    Probe p(hits);
    d.invoke(sim::fallbackKind, p);
    EXPECT_EQ(hits, 1);
}

TEST(EventDispatchTable, InTreeWrappersCarryRegisteredKinds)
{
    // The migrated wrappers must never be fallback-kind: that would
    // silently re-virtualize the hot path *and* disable batching.
    sim::EventFunctionWrapper fn([] {}, "probe");
    EXPECT_NE(fn.kind(), sim::fallbackKind);
    EXPECT_NE(sim::EventDispatch::global().handler(fn.kind()),
              sim::EventDispatch::global().handler(sim::fallbackKind));
}

// ---------------------------------------------------------------
// Fallback-kind events vs. the PR 6 batching contract.
// ---------------------------------------------------------------

/** Out-of-tree-style event: virtual process(), never calls setKind. */
class ForeignEvent : public sim::Event
{
  public:
    explicit ForeignEvent(int &fired) : fired_(fired) {}
    void process() override { ++fired_; }

  private:
    int &fired_;
};

TEST(DispatchBatching, PendingFallbackEventRefusesBatching)
{
    sim::EventQueue q;
    ASSERT_TRUE(q.batchingAllowed());
    EXPECT_EQ(q.numFallbackPending(), 0u);

    // Kind-tagged events leave batching alone.
    int wrapped_fired = 0;
    sim::EventFunctionWrapper wrapped([&] { ++wrapped_fired; },
                                      "wrapped");
    q.schedule(wrapped, 10);
    EXPECT_TRUE(q.batchingAllowed());

    // A pending fallback-kind event must refuse batching: the
    // batching contract was audited only for in-tree handlers, and
    // an unknown process() override may observe curTick mid-batch.
    int foreign_fired = 0;
    ForeignEvent foreign(foreign_fired);
    q.schedule(foreign, 20);
    EXPECT_FALSE(q.batchingAllowed());
    EXPECT_EQ(q.numFallbackPending(), 1u);

    // Descheduling it lifts the refusal immediately.
    q.deschedule(foreign);
    EXPECT_TRUE(q.batchingAllowed());
    EXPECT_EQ(q.numFallbackPending(), 0u);

    // ... and so does servicing it.
    q.schedule(foreign, 20);
    ForeignEvent foreign2(foreign_fired);
    q.schedule(foreign2, 30);
    EXPECT_EQ(q.numFallbackPending(), 2u);
    q.serviceUntil(25);
    EXPECT_EQ(foreign_fired, 1);
    EXPECT_FALSE(q.batchingAllowed()) << "one fallback still pending";
    q.serviceUntil(100);
    EXPECT_EQ(foreign_fired, 2);
    EXPECT_EQ(wrapped_fired, 1);
    EXPECT_TRUE(q.batchingAllowed());

    // setBatchingAllowed(false) still composes with the fallback
    // count (the run loop's own refusal is independent).
    q.setBatchingAllowed(false);
    EXPECT_FALSE(q.batchingAllowed());
    q.setBatchingAllowed(true);
    EXPECT_TRUE(q.batchingAllowed());
}

TEST(DispatchBatching, ClearResetsFallbackCount)
{
    sim::EventQueue q;
    int fired = 0;
    ForeignEvent a(fired), b(fired);
    q.schedule(a, 10);
    q.schedule(b, 20);
    EXPECT_EQ(q.numFallbackPending(), 2u);
    q.clear();
    EXPECT_EQ(q.numFallbackPending(), 0u);
    EXPECT_TRUE(q.batchingAllowed());
}

} // namespace
