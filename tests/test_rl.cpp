/**
 * @file
 * Unit tests for the tabular RL substrate: Q-table mechanics,
 * Q-learning and SARSA updates, and serialization.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "rl/agent.hpp"
#include "rl/qtable.hpp"

namespace artmem::rl {
namespace {

TEST(QTable, InitAndAccess)
{
    QTable q(3, 4, 0.5);
    EXPECT_EQ(q.states(), 3);
    EXPECT_EQ(q.actions(), 4);
    EXPECT_DOUBLE_EQ(q.at(2, 3), 0.5);
    q.at(1, 2) = 7.0;
    EXPECT_DOUBLE_EQ(q.at(1, 2), 7.0);
}

TEST(QTable, BestActionAndTies)
{
    QTable q(2, 3);
    q.at(0, 1) = 2.0;
    q.at(0, 2) = 1.0;
    EXPECT_EQ(q.best_action(0), 1);
    EXPECT_DOUBLE_EQ(q.max_q(0), 2.0);
    // All-zero row: ties break to action 0.
    EXPECT_EQ(q.best_action(1), 0);
}

TEST(QTable, EpsilonZeroIsGreedy)
{
    QTable q(1, 4);
    q.at(0, 3) = 1.0;
    Rng rng(1);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(q.select(0, 0.0, rng), 3);
}

TEST(QTable, EpsilonOneExploresAllActions)
{
    QTable q(1, 4);
    q.at(0, 3) = 1.0;
    Rng rng(1);
    std::vector<int> seen(4, 0);
    for (int i = 0; i < 400; ++i)
        ++seen[q.select(0, 1.0, rng)];
    for (int a = 0; a < 4; ++a)
        EXPECT_GT(seen[a], 40) << a;
}

TEST(QTable, SaveLoadRoundTrip)
{
    QTable q(3, 2);
    q.at(0, 0) = 1.25;
    q.at(2, 1) = -3.5;
    std::stringstream ss;
    q.save(ss);
    QTable loaded = QTable::load(ss);
    EXPECT_EQ(loaded.states(), 3);
    EXPECT_EQ(loaded.actions(), 2);
    EXPECT_DOUBLE_EQ(loaded.at(0, 0), 1.25);
    EXPECT_DOUBLE_EQ(loaded.at(2, 1), -3.5);
    EXPECT_DOUBLE_EQ(loaded.at(1, 1), 0.0);
}

TEST(QTable, TryLoadRejectsMalformedBlobs)
{
    const auto rejects = [](const std::string& blob) {
        std::istringstream in(blob);
        std::string error;
        const auto table = QTable::try_load(in, &error);
        EXPECT_FALSE(table.has_value()) << blob;
        EXPECT_FALSE(error.empty()) << blob;
        return !table.has_value();
    };
    EXPECT_TRUE(rejects(""));                           // empty stream
    EXPECT_TRUE(rejects("garbage 2 3\n0 0 0\n0 0 0"));  // wrong magic
    EXPECT_TRUE(rejects("qtable -2 3\n"));              // negative dims
    EXPECT_TRUE(rejects("qtable 0 5\n"));               // zero dims
    EXPECT_TRUE(rejects("qtable 99999999 99999999\n")); // implausible dims
    EXPECT_TRUE(rejects("qtable 2 2\n1 2\n3"));         // truncated body
    EXPECT_TRUE(rejects("qtable 2 2\n1 2\nx 4"));       // non-numeric body
    EXPECT_TRUE(rejects("qtable 2 2\n1 2\nnan 4"));     // non-finite entry
    EXPECT_TRUE(rejects("qtable 2 2\n1 inf\n3 4"));     // non-finite entry
}

TEST(QTable, TryLoadAcceptsWhatSaveProduces)
{
    QTable q(3, 2);
    q.at(0, 1) = -2.5;
    q.at(2, 0) = 11.0;
    std::stringstream blob;
    q.save(blob);
    const auto loaded = QTable::try_load(blob);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->states(), 3);
    EXPECT_EQ(loaded->actions(), 2);
    EXPECT_DOUBLE_EQ(loaded->at(0, 1), -2.5);
    EXPECT_DOUBLE_EQ(loaded->at(2, 0), 11.0);
}

TEST(QTable, MemoryFootprintIsSmall)
{
    // Section 6.4: the two ArtMem Q-tables occupy < 10 KB together.
    QTable migration(12, 10);
    QTable threshold(12, 5);
    EXPECT_LT(migration.memory_bytes() + threshold.memory_bytes(),
              10u * 1024);
}

AgentConfig
greedy_config(Algorithm algo = Algorithm::kQLearning)
{
    AgentConfig cfg;
    cfg.alpha = 0.5;
    cfg.gamma = 0.5;
    cfg.epsilon = 0.0;
    cfg.algorithm = algo;
    return cfg;
}

TEST(TdAgent, FirstStepDoesNotUpdate)
{
    TdAgent agent(2, 2, greedy_config(), 1);
    agent.step(100.0, 0);
    EXPECT_EQ(agent.updates(), 0u);
    for (int s = 0; s < 2; ++s)
        for (int a = 0; a < 2; ++a)
            EXPECT_DOUBLE_EQ(agent.table().at(s, a), 0.0);
}

TEST(TdAgent, QLearningUpdateFormula)
{
    TdAgent agent(2, 2, greedy_config(), 1);
    agent.reset(0, 1);            // pretend we took action 1 in state 0
    agent.table().at(1, 0) = 4.0; // max_a Q(1, a) = 4
    agent.step(2.0, 1);
    // Q(0,1) += 0.5 * (2 + 0.5*4 - 0) = 2.0
    EXPECT_DOUBLE_EQ(agent.table().at(0, 1), 2.0);
    EXPECT_EQ(agent.updates(), 1u);
}

TEST(TdAgent, SarsaUsesChosenAction)
{
    // Make the greedy next action have a different value than the max
    // by seeding Q so both algorithms diverge only under exploration;
    // with epsilon=0 greedy == max, so force the difference via reset.
    AgentConfig cfg = greedy_config(Algorithm::kSarsa);
    TdAgent agent(2, 2, cfg, 1);
    agent.reset(0, 0);
    agent.table().at(1, 0) = 3.0;
    agent.table().at(1, 1) = 5.0;
    agent.step(1.0, 1);
    // Greedy chooses action 1 (value 5): target = 1 + 0.5*5.
    EXPECT_DOUBLE_EQ(agent.table().at(0, 0), 0.5 * (1.0 + 2.5));
}

TEST(TdAgent, ConvergesOnTwoArmedBandit)
{
    // State 0 only; action 1 pays +1, action 0 pays -1. The agent must
    // learn to prefer action 1.
    AgentConfig cfg;
    cfg.alpha = 0.2;
    cfg.gamma = 0.0;
    cfg.epsilon = 0.2;
    TdAgent agent(1, 2, cfg, 7);
    int action = agent.step(0.0, 0);
    for (int i = 0; i < 500; ++i) {
        const double reward = action == 1 ? 1.0 : -1.0;
        action = agent.step(reward, 0);
    }
    EXPECT_EQ(agent.table().best_action(0), 1);
    EXPECT_GT(agent.table().at(0, 1), agent.table().at(0, 0));
}

TEST(TdAgent, ClearHistorySkipsUpdate)
{
    TdAgent agent(2, 2, greedy_config(), 1);
    agent.reset(0, 0);
    agent.clear_history();
    agent.step(5.0, 1);
    EXPECT_EQ(agent.updates(), 0u);
}

TEST(TdAgent, SetTableRequiresMatchingShape)
{
    TdAgent agent(2, 2, greedy_config(), 1);
    QTable q(2, 2);
    q.at(0, 1) = 9.0;
    agent.set_table(std::move(q));
    EXPECT_DOUBLE_EQ(agent.table().at(0, 1), 9.0);
}

class GridWorldConvergence
    : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(GridWorldConvergence, LearnsShortestChain)
{
    // 5-state chain: move right (action 1) to reach the terminal state
    // and get +10; moving left (action 0) pays -0.1 and goes back.
    AgentConfig cfg;
    cfg.alpha = 0.3;
    cfg.gamma = 0.9;
    cfg.epsilon = 0.3;
    cfg.algorithm = GetParam();
    TdAgent agent(5, 2, cfg, 3);
    for (int episode = 0; episode < 300; ++episode) {
        int state = 0;
        agent.clear_history();
        int action = agent.step(0.0, state);
        for (int t = 0; t < 50 && state < 4; ++t) {
            double reward;
            if (action == 1) {
                ++state;
                reward = state == 4 ? 10.0 : 0.0;
            } else {
                state = std::max(0, state - 1);
                reward = -0.1;
            }
            action = agent.step(reward, state);
        }
    }
    // Every non-terminal state should prefer moving right.
    for (int s = 0; s < 4; ++s)
        EXPECT_EQ(agent.table().best_action(s), 1) << "state " << s;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, GridWorldConvergence,
                         ::testing::Values(Algorithm::kQLearning,
                                           Algorithm::kSarsa));

}  // namespace
}  // namespace artmem::rl
