#include "rl/agent.hpp"

#include "telemetry/trace.hpp"
#include "util/logging.hpp"

namespace artmem::rl {

TdAgent::TdAgent(int states, int actions, const AgentConfig& config,
                 std::uint64_t seed)
    : table_(states, actions), config_(config), rng_(seed)
{
    if (config.alpha <= 0.0 || config.alpha > 1.0)
        fatal("TdAgent: alpha must be in (0,1]");
    if (config.gamma < 0.0 || config.gamma >= 1.0)
        fatal("TdAgent: gamma must be in [0,1)");
    if (config.epsilon < 0.0 || config.epsilon > 1.0)
        fatal("TdAgent: epsilon must be in [0,1]");
}

int
TdAgent::step(double reward, int new_state)
{
    // Choose the next action first: SARSA's target needs it.
    const int next_action = table_.select(new_state, config_.epsilon, rng_);
    if (prev_state_ >= 0) {
        const double future = config_.algorithm == Algorithm::kSarsa
                                  ? table_.at(new_state, next_action)
                                  : table_.max_q(new_state);
        double& q = table_.at(prev_state_, prev_action_);
        q += config_.alpha * (reward + config_.gamma * future - q);
        ++updates_;
        if (trace_ != nullptr) [[unlikely]] {
            trace_->instant(
                telemetry::Category::kRl, "q_update", trace_->sim_time(),
                telemetry::Args()
                    .add("agent", label_)
                    .add("s", prev_state_)
                    .add("a", prev_action_)
                    .add("r", reward)
                    .add("s2", new_state)
                    .add("a2", next_action)
                    .add("q", q)
                    .str());
        }
    }
    prev_state_ = new_state;
    prev_action_ = next_action;
    return next_action;
}

void
TdAgent::reset(int state, int action)
{
    prev_state_ = state;
    prev_action_ = action;
}

void
TdAgent::clear_history()
{
    prev_state_ = -1;
    prev_action_ = -1;
}

void
TdAgent::set_telemetry(telemetry::TraceSink* sink, std::string label)
{
    trace_ = sink;
    label_ = std::move(label);
}

void
TdAgent::set_table(QTable table)
{
    if (table.states() != table_.states() ||
        table.actions() != table_.actions()) {
        fatal("TdAgent::set_table: dimension mismatch");
    }
    table_ = std::move(table);
}

}  // namespace artmem::rl
