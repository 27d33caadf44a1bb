/**
 * @file
 * Temporal-difference control agent over a tabular Q-function.
 *
 * Supports both off-policy Q-learning (the paper's default, Algorithm 1)
 * and on-policy SARSA (compared in Section 6.3.5). One TdAgent instance
 * owns one Q-table; ArtMem runs two of them — one choosing the migration
 * number, one adjusting the hotness threshold (Section 4.2).
 */
#ifndef ARTMEM_RL_AGENT_HPP
#define ARTMEM_RL_AGENT_HPP

#include <cmath>
#include <string>

#include "rl/qtable.hpp"
#include "util/rng.hpp"

namespace artmem::telemetry {
class TraceSink;
}  // namespace artmem::telemetry

namespace artmem::rl {

/** Which TD update rule the agent applies. */
enum class Algorithm {
    kQLearning,  ///< target = r + gamma * max_a' Q(s', a')
    kSarsa,      ///< target = r + gamma * Q(s', a') for the chosen a'
};

/** Hyperparameters; defaults are the paper's tuned values (Fig. 15). */
struct AgentConfig {
    double alpha = std::exp(-2.0);    ///< learning rate (~0.135)
    double gamma = std::exp(-1.0);    ///< discount factor (~0.368)
    double epsilon = 0.3;             ///< exploration probability
    Algorithm algorithm = Algorithm::kQLearning;
};

/** One Q-table plus the online TD control loop around it. */
class TdAgent
{
  public:
    /**
     * @param states  State-space size (includes any sentinel states).
     * @param actions Action-space size.
     * @param config  Hyperparameters.
     * @param seed    Exploration RNG seed.
     */
    TdAgent(int states, int actions, const AgentConfig& config,
            std::uint64_t seed);

    /**
     * Advance one decision step: update Q(s, a) for the previous step
     * using @p reward and the observed @p new_state, then epsilon-
     * greedily choose and remember the next action.
     *
     * The first call performs no update (there is no previous step).
     *
     * @return the chosen action for @p new_state.
     */
    int step(double reward, int new_state);

    /**
     * Prime the agent's "previous step" without learning, e.g. the
     * paper initializes state to k with the no-migration action.
     */
    void reset(int state, int action);

    /** Forget the previous step (next step() will not update). */
    void clear_history();

    /** The underlying table (e.g. for Q(k, 0) = 1 initialization). */
    QTable& table() { return table_; }

    /** Read-only table. */
    const QTable& table() const { return table_; }

    /** Replace the table (Fig. 14 cross-training); dimensions must match. */
    void set_table(QTable table);

    /** Hyperparameters in use. */
    const AgentConfig& config() const { return config_; }

    /** TD updates performed so far. */
    std::uint64_t updates() const { return updates_; }

    /**
     * Attach a trace sink for kRl "q_update" events (nullptr detaches).
     * @p label names the agent in the event args ("migration" /
     * "threshold"). Events are stamped with the sink's simulated-time
     * cursor, which the engine advances at tick/decision edges — the
     * agent itself has no clock.
     */
    void set_telemetry(telemetry::TraceSink* sink, std::string label);

  private:
    QTable table_;
    AgentConfig config_;
    Rng rng_;
    int prev_state_ = -1;
    int prev_action_ = -1;
    std::uint64_t updates_ = 0;
    telemetry::TraceSink* trace_ = nullptr;
    std::string label_;
};

}  // namespace artmem::rl

#endif  // ARTMEM_RL_AGENT_HPP
