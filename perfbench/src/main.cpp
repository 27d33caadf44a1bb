/**
 * @file
 * perfbench — the repository benchmark.
 *
 *   perfbench --workload <ycsb|s2_tx_storm|tenants16|policy_sweep>
 *             --seed N --seconds S --trace <0|1>
 *             [--quick] [--spans-out FILE]
 *
 * Each repetition of a workload is one SweepRunner::map over its jobs
 * (one job, or the 54 jobs of policy_sweep on every core), run in a
 * closed loop for --seconds. --trace 0 times the library engine and
 * prints the end-to-end metrics; --trace 1 alternates traced and
 * untraced repetitions, audits invariants on the first traced one, and
 * prints the per-layer metrics. Every simulated result is compared with
 * the library's own entry point (sweep::SweepRunner::run at --jobs=1);
 * any mismatch, crash or audit failure makes the result incorrect and
 * the exit status 1. The last line of stdout is a JSON object with
 * correct, attempted, failed and metrics.
 */
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sched.h>
#include <string>
#include <thread>
#include <vector>

#include "driver.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace perfbench;
using artmem::sim::RunResult;

struct Args {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    int trace = 0;
    bool quick = false;
    std::string spans_out;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed N --seconds S "
                 "--trace <0|1> [--quick] [--spans-out FILE]\n";
    std::exit(2);
}

std::uint64_t
parse_u64(const std::string& flag, const std::string& text)
{
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size())
        usage(flag + " expects a whole number, got '" + text + "'");
    return v;
}

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (flag != "--quick") {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            value = argv[++i];
        }
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = parse_u64(flag, value);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parse_u64(flag, value));
        else if (flag == "--trace")
            a.trace = static_cast<int>(parse_u64(flag, value));
        else if (flag == "--quick")
            a.quick = true;
        else if (flag == "--spans-out")
            a.spans_out = value;
        else
            usage("unknown flag " + flag);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (a.seconds < 1)
        usage("--seconds must be at least 1");
    return a;
}

/** Shortest round-trip text of @p v; whole numbers print as integers. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    if (v == std::floor(v) && std::fabs(v) < 9.0e15)
        return std::to_string(static_cast<long long>(v));
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, end) : "0";
}

/** Linear-interpolated percentile of @p v (0 when empty). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double>& v)
{
    return percentile(v, 50.0);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** One reported metric. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Outcome bookkeeping shared by every repetition. */
struct Ledger {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_error;

    void fail(const std::string& what)
    {
        ++failed;
        if (first_error.empty())
            first_error = what;
    }
};

/** One repetition: every job of the workload through SweepRunner::map. */
struct Rep {
    std::int64_t wall_ns = 0;
    std::vector<JobOutcome> jobs;
    SpanLog log;  ///< The sweep.map span (traced modes).
};

Rep
run_rep(const Workload& w, Mode mode, std::uint64_t run_id,
        const std::vector<RunResult>& reference, Ledger& ledger)
{
    Rep rep;
    artmem::sweep::SweepRunner runner({.jobs = w.workers, .progress = false});
    const std::function<JobOutcome(std::size_t)> job = [&](std::size_t i) {
        return run_job(w.jobs[i], mode, run_id);
    };
    rep.log.set_run_id(run_id);
    const auto t0 = now_ns();
    {
        SpanLog::Scope map(mode == Mode::kLibrary ? nullptr : &rep.log,
                           Site::kMap);
        rep.jobs = runner.map(w.jobs.size(), job);
    }
    rep.wall_ns = now_ns() - t0;
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        ++ledger.attempted;
        const JobOutcome& out = rep.jobs[i];
        const std::string where = w.name + " job " + std::to_string(i) +
                                  " run " + std::to_string(run_id) + ": ";
        if (!out.error.empty()) {
            ledger.fail(where + out.error);
        } else if (const auto diff = compare(out.result, reference[i]);
                   !diff.empty()) {
            ledger.fail(where + "differs from the library result: " + diff);
        }
    }
    return rep;
}

std::uint64_t
total_accesses(const std::vector<RunResult>& results)
{
    std::uint64_t n = 0;
    for (const auto& r : results)
        n += r.accesses;
    return n;
}

/**
 * This process's peak resident set (VmHWM). getrusage()'s ru_maxrss
 * would not do: Linux carries it across execve(), so it reports the
 * launching process's peak when that was larger.
 */
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** CPUs this process may run on, ascending; never empty. */
std::vector<int>
allowed_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    if (cpus.empty())
        throw std::runtime_error("sched_getaffinity found no CPU");
    return cpus;
}

/**
 * Restrict the calling thread to @p cpus. A failure only leaves the
 * thread where the scheduler puts it, which the timing tolerates.
 */
void
set_affinity(const std::vector<int>& cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus)
        CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
}

void
pin_to(int cpu)
{
    set_affinity({cpu});
}

/** Windows of a run whose fastest set-ups are the setup_s samples. */
constexpr std::size_t kSetupWindows = 5;

std::vector<Metric>
end_to_end(const Workload& w, const Args& args,
           const std::vector<RunResult>& reference, Ledger& ledger)
{
    std::vector<double> rate;
    std::vector<double> setup;
    // A single job's fastest time for each chunk of its engine loop,
    // over every repetition so far.
    std::vector<std::int64_t> best_chunk_ns;
    const bool single = w.jobs.size() == 1;
    const double accesses = static_cast<double>(total_accesses(reference));
    const auto cpus = allowed_cpus();
    const auto start = now_ns();
    for (std::uint64_t run = 1;; ++run) {
        if (single)
            pin_to(cpus[run % cpus.size()]);
        const Rep rep = run_rep(w, Mode::kLibrary, run, reference, ledger);
        std::int64_t setup_ns = 0;
        std::int64_t run_ns = 0;
        for (const auto& j : rep.jobs) {
            setup_ns += j.setup_ns;
            run_ns += j.run_ns;
        }
        // A single job's rate excludes its set-up, which setup_s
        // reports; a sweep's rate is over the whole parallel map.
        const std::int64_t timed = single ? run_ns : rep.wall_ns;
        rate.push_back(accesses / (static_cast<double>(timed) * 1e-9));
        setup.push_back(static_cast<double>(setup_ns) * 1e-9);
        if (single) {
            const auto& chunks = rep.jobs[0].chunk_ns;
            if (best_chunk_ns.empty())
                best_chunk_ns = chunks;
            if (chunks.size() != best_chunk_ns.size()) {
                ledger.fail(w.name + " run " + std::to_string(run) +
                            ": engine loop split into " +
                            std::to_string(chunks.size()) + " chunks, not " +
                            std::to_string(best_chunk_ns.size()));
            } else {
                for (std::size_t i = 0; i < chunks.size(); ++i)
                    best_chunk_ns[i] = std::min(best_chunk_ns[i], chunks[i]);
            }
        }
        if (run >= 3 &&
            static_cast<double>(now_ns() - start) * 1e-9 >= args.seconds)
            break;
    }
    set_affinity(cpus);
    double runtime_ns = 0;
    double fast = 0;
    for (const auto& r : reference) {
        runtime_ns += static_cast<double>(r.runtime_ns);
        fast += static_cast<double>(r.totals.accesses[0]);
    }
    // On a shared host, another tenant busy on the same physical core or
    // cache slows one CPU by up to 40% for seconds to minutes, so a
    // run's median, and at times even its fastest repetition, moves by
    // a quarter or more. A single job's repetitions therefore take the
    // allowed CPUs in turn, and each chunk of its loop ran fast in some
    // repetition; the sum of those fastest chunk times is the gated
    // time. A sweep, which keeps every CPU busy, keeps its fastest map.
    // The median and fastest whole repetitions are printed beside it.
    double gated = *std::max_element(rate.begin(), rate.end());
    if (single) {
        std::int64_t best_ns = 0;
        for (const auto ns : best_chunk_ns)
            best_ns += ns;
        gated = accesses / (static_cast<double>(best_ns) * 1e-9);
    }
    // A set-up takes a few milliseconds at most, so contention covers
    // whole set-ups, and for seconds on end. The run's set-ups fall into
    // kSetupWindows consecutive windows; the median over the windows of
    // each one's fastest set-up is the gated time.
    std::vector<double> setup_window_min;
    const std::size_t per_window =
        (setup.size() + kSetupWindows - 1) / kSetupWindows;
    for (std::size_t i = 0; i < setup.size(); i += per_window) {
        const auto first = setup.begin() + static_cast<long>(i);
        const auto n = std::min(per_window, setup.size() - i);
        setup_window_min.push_back(
            *std::min_element(first, first + static_cast<long>(n)));
    }
    std::cout << "repetitions " << rate.size() << "\naccesses_per_s median "
              << number(median(rate)) << " acc/s, fastest repetition "
              << number(*std::max_element(rate.begin(), rate.end()))
              << " acc/s\nsetup_s median of all " << number(median(setup))
              << " s\n";
    return {
        {"accesses_per_s", gated, "acc/s"},
        {"setup_s", median(setup_window_min), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_runtime_ms", runtime_ns * 1e-6, "ms"},
        {"fast_ratio", ratio(fast, accesses), "ratio"},
    };
}

/** Span totals of one traced repetition. */
struct TraceAgg {
    std::int64_t self_ns[kSiteCount] = {};
    std::int64_t total_ns[kSiteCount] = {};
    std::uint64_t calls[kSiteCount] = {};
    std::vector<double> on_interval_us;
    std::vector<double> interval_host_us;
    std::vector<double> job_wall_ms;
    std::uint64_t samples = 0;
};

void
add_job(TraceAgg& agg, const JobOutcome& job)
{
    const auto& spans = job.spans.spans();
    const auto self = self_times(spans);
    std::int64_t boundary = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const auto site = static_cast<std::size_t>(s.site);
        const std::int64_t dur = s.end_ns - s.start_ns;
        agg.self_ns[site] += self[i];
        agg.total_ns[site] += dur;
        ++agg.calls[site];
        switch (s.site) {
        case Site::kJob:
            agg.job_wall_ms.push_back(static_cast<double>(dur) * 1e-6);
            break;
        case Site::kPolicyInit:
            boundary = s.end_ns;  // the first interval starts here
            break;
        case Site::kOnInterval:
            agg.on_interval_us.push_back(static_cast<double>(dur) * 1e-3);
            break;
        case Site::kTakeWindow:
            // take_window closes each decision interval.
            agg.interval_host_us.push_back(
                static_cast<double>(s.end_ns - boundary) * 1e-3);
            boundary = s.end_ns;
            break;
        default:
            break;
        }
    }
    agg.samples += job.samples_delivered;
}

/** Per-repetition layer values of one traced repetition. */
std::vector<Metric>
layer_values(const Workload& w, const Rep& rep, const TraceAgg& agg,
             double accesses)
{
    auto self = [&](Site s) {
        return static_cast<double>(agg.self_ns[static_cast<int>(s)]);
    };
    const auto samples = static_cast<double>(agg.samples);
    std::vector<Metric> v = {
        {"workloads.fill_ns_per_access", ratio(self(Site::kFill), accesses),
         "ns"},
        {"workloads.construct_ms",
         static_cast<double>(
             agg.total_ns[static_cast<int>(Site::kConstructWorkload)]) *
             1e-6,
         "ms"},
        {"memsim.prefault_ms", self(Site::kPrefault) * 1e-6, "ms"},
        {"memsim.access_ns_per_access", ratio(self(Site::kAccess), accesses),
         "ns"},
        {"memsim.pebs_drain_ns_per_sample", ratio(self(Site::kDrain), samples),
         "ns"},
        {"memsim.poll_tx_us_total", self(Site::kPollTx) * 1e-3, "us"},
        {"policies.on_samples_ns_per_sample",
         ratio(self(Site::kOnSamples), samples), "ns"},
        {"policies.on_tick_us_total", self(Site::kOnTick) * 1e-3, "us"},
        {"tenancy.interval_feedback_us_total",
         self(Site::kIntervalFeedback) * 1e-3, "us"},
        {"sim.self_ms", self(Site::kRun) * 1e-6, "ms"},
        {"sim.take_window_us_total", self(Site::kTakeWindow) * 1e-3, "us"},
        {"trace.run_wall_ms",
         static_cast<double>(agg.total_ns[static_cast<int>(Site::kRun)]) *
             1e-6,
         "ms"},
    };
    // Self time inside the driver loop, by layer: these plus sim.self_ms
    // and sim.take_window_us_total add up to trace.run_wall_ms.
    for (const char* layer : {"workloads", "memsim", "policies", "tenancy"}) {
        double ns = 0;
        for (std::size_t s = static_cast<std::size_t>(Site::kRun) + 1;
             s < kSiteCount; ++s) {
            if (site_layer(static_cast<Site>(s)) == layer)
                ns += static_cast<double>(agg.self_ns[s]);
        }
        v.push_back({std::string(layer) + ".self_ms", ns * 1e-6, "ms"});
    }
    double job_wall = 0;
    for (const double ms : agg.job_wall_ms)
        job_wall += ms;
    const auto workers = static_cast<double>(
        std::min<std::size_t>(w.workers, w.jobs.size()));
    v.push_back({"sweep.job_wall_ms_p50", median(agg.job_wall_ms), "ms"});
    v.push_back({"sweep.job_wall_ms_max",
                 *std::max_element(agg.job_wall_ms.begin(),
                                   agg.job_wall_ms.end()),
                 "ms"});
    v.push_back({"sweep.parallel_efficiency",
                 ratio(job_wall,
                       workers * static_cast<double>(rep.wall_ns) * 1e-6),
                 "ratio"});
    return v;
}

/** Simulated per-layer counts, summed over the workload's jobs. */
std::vector<Metric>
simulated_counts(const std::vector<RunResult>& reference)
{
    double recorded = 0, dropped = 0, suppressed = 0, hint = 0, migrated = 0,
           failures = 0, busy_ns = 0, opened = 0, committed = 0,
           aborted_ns = 0, quota = 0, denied = 0, grants = 0;
    double fast_min = 1.0;
    for (const auto& r : reference) {
        const auto& t = r.totals;
        recorded += static_cast<double>(r.pebs_recorded);
        dropped += static_cast<double>(r.pebs_dropped);
        suppressed += static_cast<double>(r.pebs_suppressed);
        hint += static_cast<double>(t.hint_faults);
        migrated += static_cast<double>(t.migrated_pages());
        failures += static_cast<double>(t.migration_failures());
        busy_ns += static_cast<double>(t.migration_busy_ns);
        opened += static_cast<double>(t.tx_opened);
        committed += static_cast<double>(t.tx_committed);
        aborted_ns += static_cast<double>(t.aborted_migration_ns);
        quota += static_cast<double>(t.failed_quota);
        denied += static_cast<double>(t.failed_admission);
        // A run without tenants is one tenant holding the whole machine.
        if (r.tenants.empty())
            fast_min = std::min(fast_min, r.fast_ratio);
        for (const auto& ts : r.tenants) {
            grants += static_cast<double>(ts.admission_grants);
            fast_min = std::min(fast_min, ts.fast_ratio);
        }
    }
    return {
        {"memsim.pebs_recorded", recorded, "count"},
        {"memsim.pebs_dropped", dropped, "count"},
        {"memsim.pebs_drop_ratio", ratio(dropped, recorded), "ratio"},
        {"memsim.pebs_suppressed", suppressed, "count"},
        {"memsim.hint_faults", hint, "count"},
        {"memsim.migrated_pages", migrated, "count"},
        {"memsim.migration_failures", failures, "count"},
        {"memsim.migration_success_ratio",
         ratio(migrated, migrated + failures), "ratio"},
        {"memsim.migration_busy_ms", busy_ns * 1e-6, "sim_ms"},
        {"memsim.tx_opened", opened, "count"},
        {"memsim.tx_commit_ratio", ratio(committed, opened), "ratio"},
        {"memsim.aborted_copy_ms", aborted_ns * 1e-6, "sim_ms"},
        {"tenancy.quota_denied", quota, "count"},
        {"tenancy.admission_denied", denied, "count"},
        {"tenancy.admission_grant_ratio", ratio(grants, grants + denied),
         "ratio"},
        {"tenancy.fast_ratio_min", fast_min, "ratio"},
    };
}

std::vector<Metric>
per_layer(const Workload& w, const Args& args,
          const std::vector<RunResult>& reference, Ledger& ledger)
{
    const double accesses = static_cast<double>(total_accesses(reference));

    // First traced repetition audits every decision interval.
    const Rep audited =
        run_rep(w, Mode::kTracedAudited, 1, reference, ledger);
    TraceAgg audit;
    std::uint64_t violations = 0;
    for (const auto& job : audited.jobs) {
        add_job(audit, job);
        violations += job.violations;
    }
    const auto audit_site = static_cast<int>(Site::kAudit);

    // Then alternate untraced and traced repetitions, so both see the
    // same machine conditions.
    std::vector<std::vector<Metric>> per_rep;
    std::vector<double> on_interval_us, interval_host_us;
    std::vector<double> traced_run_ms, untraced_run_ms;
    std::uint64_t intervals_per_rep = 0, calls_per_rep = 0;
    bool spans_written = false;
    const auto start = now_ns();
    for (std::uint64_t run = 2;; ++run) {
        const bool traced = run % 2 == 1;
        Rep rep = run_rep(w, traced ? Mode::kTraced : Mode::kLibrary, run,
                          reference, ledger);
        double run_ms = 0;
        for (const auto& job : rep.jobs)
            run_ms += static_cast<double>(job.run_ns) * 1e-6;
        if (!traced) {
            untraced_run_ms.push_back(run_ms);
        } else {
            traced_run_ms.push_back(run_ms);
            TraceAgg agg;
            for (const auto& job : rep.jobs)
                add_job(agg, job);
            per_rep.push_back(layer_values(w, rep, agg, accesses));
            on_interval_us.insert(on_interval_us.end(),
                                  agg.on_interval_us.begin(),
                                  agg.on_interval_us.end());
            interval_host_us.insert(interval_host_us.end(),
                                    agg.interval_host_us.begin(),
                                    agg.interval_host_us.end());
            intervals_per_rep = agg.interval_host_us.size();
            calls_per_rep = agg.on_interval_us.size();
            if (!spans_written && !args.spans_out.empty()) {
                for (const auto& job : rep.jobs)
                    rep.log.append(job.spans, 0);
                std::ofstream out(args.spans_out);
                rep.log.write_jsonl(out);
                if (!out)
                    ledger.fail("cannot write spans to " + args.spans_out);
                spans_written = true;
            }
        }
        if (traced_run_ms.size() >= 2 && untraced_run_ms.size() >= 2 &&
            static_cast<double>(now_ns() - start) * 1e-9 >= args.seconds)
            break;
    }

    // Every per-repetition value comes from the traced repetition with
    // the median driver-loop time, so the layer self times still add up
    // to that repetition's wall time.
    std::vector<std::size_t> order(traced_run_ms.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const auto mid = order.begin() + static_cast<long>(order.size() / 2);
    std::nth_element(order.begin(), mid, order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return traced_run_ms[a] < traced_run_ms[b];
                     });
    std::vector<Metric> metrics = per_rep[*mid];
    for (auto& m : simulated_counts(reference))
        metrics.push_back(std::move(m));
    metrics.push_back(
        {"policies.on_interval_us_p50", percentile(on_interval_us, 50), "us"});
    metrics.push_back(
        {"policies.on_interval_us_p90", percentile(on_interval_us, 90), "us"});
    metrics.push_back({"policies.on_interval_calls",
                       static_cast<double>(calls_per_rep), "count"});
    metrics.push_back(
        {"sim.interval_host_us_p50", percentile(interval_host_us, 50), "us"});
    metrics.push_back(
        {"sim.interval_host_us_p90", percentile(interval_host_us, 90), "us"});
    metrics.push_back(
        {"sim.intervals", static_cast<double>(intervals_per_rep), "count"});
    metrics.push_back({"verify.audit_us_per_interval",
                       ratio(static_cast<double>(audit.self_ns[audit_site]),
                             static_cast<double>(audit.calls[audit_site])) *
                           1e-3,
                       "us"});
    metrics.push_back({"verify.audits",
                       static_cast<double>(audit.calls[audit_site]), "count"});
    metrics.push_back(
        {"verify.violations", static_cast<double>(violations), "count"});
    // Each traced repetition against the untraced one just before it,
    // so a burst of host contention lands on both sides of a pair.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced_run_ms.size(); ++i)
        overhead.push_back(ratio(traced_run_ms[i], untraced_run_ms[i]) - 1.0);
    metrics.push_back(
        {"trace.overhead_pct", median(overhead) * 100.0,
         "%"});
    metrics.push_back({"trace.repetitions",
                       static_cast<double>(traced_run_ms.size()), "count"});
    std::sort(metrics.begin(), metrics.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
    std::cout << "traced repetitions " << traced_run_ms.size()
              << ", untraced " << untraced_run_ms.size() << "\n";
    return metrics;
}

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void
print_stamp(const Args& args)
{
#if ARTMEM_CHECK_INVARIANTS
    const char* invariants = "ON";
#else
    const char* invariants = "OFF";
#endif
    std::cout << "env nproc=" << std::thread::hardware_concurrency()
              << " compiler=\"" << PERFBENCH_COMPILER
              << "\" build_type=" << PERFBENCH_BUILD_TYPE
              << " ARTMEM_CHECK_INVARIANTS=" << invariants
              << " seed=" << args.seed
              << " workload=" << args.workload << " trace=" << args.trace
              << " seconds=" << args.seconds
              << (args.quick ? " quick" : "") << "\n";
}

int
run(const Args& args)
{
    const auto workload = make_workload(args.workload, args.seed, args.quick);
    if (!workload)
        usage("unknown workload '" + args.workload + "'");
    print_stamp(args);

    // The library's own path, at one worker: the reference every timed
    // and traced result must equal.
    Ledger ledger;
    artmem::sweep::SweepSpec spec;
    for (const auto& job : workload->jobs)
        spec.add(job);
    const auto reference =
        artmem::sweep::SweepRunner({.jobs = 1, .progress = false}).run(spec);
    ledger.attempted += reference.size();

    const auto metrics = args.trace == 0
                             ? end_to_end(*workload, args, reference, ledger)
                             : per_layer(*workload, args, reference, ledger);

    for (const auto& m : metrics)
        std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
    std::cout << "error_rate " << number(ratio(
                                      static_cast<double>(ledger.failed),
                                      static_cast<double>(ledger.attempted)))
              << " (" << ledger.failed << " of " << ledger.attempted
              << " runs)\n";
    if (!ledger.first_error.empty())
        std::cout << "first failure: " << ledger.first_error << "\n";

    const bool correct = ledger.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << ledger.attempted
              << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
                  << "\": {\"value\": " << number(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    try {
        return run(args);
    } catch (const std::exception& e) {
        // The reference pass has no per-job guard; fail without a result.
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
