// detlint fixture: the state threads may share — must produce no
// findings. An atomic job counter and one result slot per job index,
// the sweep runner's pattern, with no lock anywhere.
#include <atomic>
#include <cstddef>
#include <vector>

struct FixtureSharedState {
    std::atomic<std::size_t> next_job{0};
    std::vector<double> result_slots;
};
