// Unit tests for the discrete-event simulator core.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace adhoc {
namespace {

/// Agent that floods (forwards every first receipt) — enough to exercise
/// the simulator mechanics in isolation from protocol logic.
class RelayAll final : public Agent {
  public:
    explicit RelayAll(std::size_t n) : seen_(n, 0) {}
    void start(Simulator& sim, NodeId source, Rng&) override {
        seen_[source] = 1;
        sim.transmit(source, {});
    }
    void on_receive(Simulator& sim, NodeId node, const Transmission&, Rng&) override {
        if (seen_[node]) return;
        seen_[node] = 1;
        sim.transmit(node, {});
    }

  private:
    std::vector<char> seen_;
};

/// Agent where only the source transmits.
class SourceOnly final : public Agent {
  public:
    void start(Simulator& sim, NodeId source, Rng&) override { sim.transmit(source, {}); }
    void on_receive(Simulator&, NodeId, const Transmission&, Rng&) override {}
};

/// Agent that abuses transmit twice to verify idempotence.
class DoubleSender final : public Agent {
  public:
    void start(Simulator& sim, NodeId source, Rng&) override {
        sim.transmit(source, {});
        sim.transmit(source, {});
    }
    void on_receive(Simulator&, NodeId, const Transmission&, Rng&) override {}
};

/// Agent exercising timers: source transmits only after two chained timers.
class TimerChain final : public Agent {
  public:
    void start(Simulator& sim, NodeId, Rng&) override {
        sim.schedule_timer(0, 1.0, /*timer_kind=*/1);
    }
    void on_receive(Simulator&, NodeId, const Transmission&, Rng&) override {}
    void on_timer(Simulator& sim, NodeId node, std::size_t kind, Rng&) override {
        if (kind == 1) {
            EXPECT_DOUBLE_EQ(sim.now(), 1.0);
            sim.schedule_timer(node, 2.5, /*timer_kind=*/2);
        } else {
            EXPECT_DOUBLE_EQ(sim.now(), 3.5);
            sim.transmit(node, {});
        }
    }
};

TEST(Simulator, FloodReachesEveryone) {
    const Graph g = path_graph(5);
    Simulator sim(g);
    RelayAll agent(5);
    Rng rng(1);
    const auto result = sim.run(0, agent, rng);
    EXPECT_TRUE(result.full_delivery);
    EXPECT_EQ(result.forward_count, 5u);
    EXPECT_EQ(result.received_count, 5u);
    // Path of 5: the far end transmits at t=4; its (redundant) delivery
    // back to node 3 is the final event at t=5.
    EXPECT_DOUBLE_EQ(result.completion_time, 5.0);
}

TEST(Simulator, RejectsSourceOutsideTheGraph) {
    const Graph g = path_graph(5);
    Simulator sim(g);
    RelayAll agent(5);
    Rng rng(1);
    try {
        sim.run(7, agent, rng);
        ADD_FAILURE() << "source 7 of a 5-node graph ran";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("source 7"), std::string::npos) << what;
        EXPECT_NE(what.find("5-node"), std::string::npos) << what;
    }
}

TEST(Simulator, SourceOnlyCoversNeighborsOnly) {
    const Graph g = star_graph(4);
    Simulator sim(g);
    SourceOnly agent;
    Rng rng(1);
    const auto result = sim.run(0, agent, rng);
    EXPECT_TRUE(result.full_delivery);  // star center covers all
    EXPECT_EQ(result.forward_count, 1u);

    const Graph p = path_graph(4);
    Simulator sim2(p);
    const auto r2 = sim2.run(0, agent, rng);
    EXPECT_FALSE(r2.full_delivery);
    EXPECT_EQ(r2.received_count, 2u);  // source + neighbor
}

TEST(Simulator, TransmitIsIdempotent) {
    const Graph g = path_graph(3);
    Simulator sim(g);
    DoubleSender agent;
    Rng rng(1);
    const auto result = sim.run(0, agent, rng);
    EXPECT_EQ(result.forward_count, 1u);
    // Neighbor 1 received exactly one copy: one delivery event.
    EXPECT_EQ(result.received_count, 2u);
}

TEST(Simulator, TimerChainAdvancesClock) {
    const Graph g = path_graph(2);
    Simulator sim(g);
    TimerChain agent;
    Rng rng(1);
    const auto result = sim.run(0, agent, rng);
    EXPECT_EQ(result.forward_count, 1u);
    EXPECT_DOUBLE_EQ(result.completion_time, 4.5);  // tx at 3.5 + 1 hop
}

TEST(Simulator, TraceRecordsTransmitAndReceive) {
    const Graph g = path_graph(3);
    Simulator sim(g);
    sim.enable_trace();
    RelayAll agent(3);
    Rng rng(1);
    const auto result = sim.run(0, agent, rng);
    EXPECT_EQ(result.trace.count(TraceKind::kTransmit), 3u);
    // Deliveries: 0->1, 1->{0,2}, 2->1 = 4 receive events.
    EXPECT_EQ(result.trace.count(TraceKind::kReceive), 4u);
}

TEST(Simulator, LossyMediumDropsDeliveries) {
    const Graph g = path_graph(4);
    MediumConfig medium;
    medium.loss_probability = 1.0;  // every link drops
    Simulator sim(g, medium);
    RelayAll agent(4);
    Rng rng(1);
    const auto result = sim.run(0, agent, rng);
    EXPECT_EQ(result.forward_count, 1u);  // only the source ever held the packet
    EXPECT_EQ(result.received_count, 1u);
    EXPECT_FALSE(result.full_delivery);
}

TEST(Simulator, JitterDelaysDeliveries) {
    const Graph g = path_graph(2);
    MediumConfig medium;
    medium.jitter = 5.0;
    Simulator sim(g, medium);
    SourceOnly agent;
    Rng rng(7);
    const auto result = sim.run(0, agent, rng);
    EXPECT_GE(result.completion_time, 1.0);
    EXPECT_LE(result.completion_time, 6.0);
}

TEST(Simulator, DeterministicAcrossRuns) {
    const Graph g = grid_graph(3, 3);
    RelayAll a1(9), a2(9);
    Simulator s1(g), s2(g);
    Rng r1(5), r2(5);
    const auto x = s1.run(4, a1, r1);
    const auto y = s2.run(4, a2, r2);
    EXPECT_EQ(x.transmitted, y.transmitted);
    EXPECT_DOUBLE_EQ(x.completion_time, y.completion_time);
}

TEST(Simulator, ResultMasksConsistent) {
    const Graph g = cycle_graph(6);
    Simulator sim(g);
    RelayAll agent(6);
    Rng rng(3);
    const auto result = sim.run(2, agent, rng);
    std::size_t tx = 0, rx = 0;
    for (std::size_t v = 0; v < 6; ++v) {
        tx += result.transmitted[v] != 0;
        rx += result.received[v] != 0;
    }
    EXPECT_EQ(tx, result.forward_count);
    EXPECT_EQ(rx, result.received_count);
}

}  // namespace
}  // namespace adhoc
