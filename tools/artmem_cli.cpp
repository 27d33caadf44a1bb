/**
 * @file
 * artmem — the command-line front end of the library.
 *
 *   artmem list                              inventory of workloads/policies
 *   artmem run --workload=cc --policy=artmem --ratio=1:4 [--timeline]
 *   artmem run --workload=configs/s1.cfg     a MASIM config file; its
 *     phases set the accesses, so --accesses is rejected with it
 *   artmem sweep --workload=ycsb             all policies x all ratios
 *     sweep-only: --jobs=N (parallel workers; results are bit-identical
 *     to --jobs=1), --csv
 *   artmem train --workload=cc --out=q.tbl   save converged Q-tables
 *   artmem run ... --qtables=q.tbl           start from trained tables
 *   artmem trace-record --workload=s1 --out=s1.trace
 *   artmem trace-run --trace=s1.trace --policy=memtis
 *
 * Common flags: --accesses=N --seed=N
 * Observability (run and sweep; DESIGN.md section 8):
 *   --metrics-out=FILE --trace-out=BASE --trace-categories=LIST --profile
 *
 * Each subcommand accepts only the flags it reads and exits 1 naming
 * any other, so a flag never looks as if it took effect when it did not.
 * Result files go through write_file() and main returns through
 * finish_stdout(), so output that did not arrive exits 1.
 */
#include <fstream>
#include <iostream>
#include <sstream>

#include "memsim/fault_injector.hpp"
#include "sim/experiment.hpp"
#include "sweep/sweep.hpp"
#include "sweep/telemetry_merge.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/logging.hpp"
#include "util/output.hpp"
#include "util/table.hpp"
#include "workloads/trace.hpp"

namespace {

using namespace artmem;

constexpr Bytes kPage = 2ull << 20;

// Flag groups read by parse_spec() and parse_telemetry(). Each
// subcommand names the groups it reads (with sim::kTxFlags and
// tenancy::kTenancyFlags) plus its own flags.

/** The generated access stream. */
constexpr std::string_view kStreamFlags[] = {"workload", "accesses", "seed"};
/** The simulated system: policy and tier ratio. */
constexpr std::string_view kSystemFlags[] = {"policy", "ratio"};
/** Engine options besides the tx set: the audit and the fault model. */
constexpr std::string_view kEngineFlags[] = {
    "check-invariants", "fault-scenario", "fault-config", "fault-seed"};
/** Telemetry outputs. */
constexpr std::string_view kTelemetryFlags[] = {
    "metrics-out", "trace-out", "trace-categories", "profile"};

/** fatal() on the first flag @p command does not read, naming it. */
void
accept_only(const CliArgs& args, std::string_view command,
            std::initializer_list<std::span<const std::string_view>> known)
{
    args.reject_unknown(known, "artmem " + std::string(command) +
                                   " does not read it; run artmem with "
                                   "no arguments for the flag list");
}

sim::RunSpec
parse_spec(const CliArgs& args)
{
    sim::RunSpec spec;
    spec.workload = args.get_string("workload", "ycsb");
    if (workloads::is_masim_config(spec.workload) && args.has("accesses"))
        fatal("--accesses does not apply to --workload=", spec.workload,
              ": a MASIM config's phases set its accesses");
    spec.policy = args.get_string("policy", "artmem");
    spec.ratio = sim::parse_ratio_cli(args, {1, 1});
    spec.accesses = args.get_uint<std::uint64_t>("accesses", 6000000);
    spec.seed = args.get_uint<std::uint64_t>("seed", 42);
    spec.engine.check_invariants =
        args.get_bool("check-invariants", false);

    // Fault model: a built-in scenario or a fault.* config file.
    const std::string scenario = args.get_string("fault-scenario", "");
    const std::string fault_file = args.get_string("fault-config", "");
    if (!scenario.empty() && !fault_file.empty())
        fatal("--fault-scenario and --fault-config are mutually exclusive");
    if (scenario.empty() && fault_file.empty() && args.has("fault-seed"))
        fatal("--fault-seed requires --fault-scenario or --fault-config");
    if (!scenario.empty()) {
        spec.engine.faults = memsim::make_fault_scenario(
            scenario, args.get_uint<std::uint64_t>("fault-seed", 1));
    } else if (!fault_file.empty()) {
        spec.engine.faults =
            memsim::parse_fault_config(KvConfig::load(fault_file));
        if (args.has("fault-seed")) {
            spec.engine.faults.seed =
                args.get_uint<std::uint64_t>("fault-seed", 1);
        }
    }

    // Transactional migration engine (off by default = strict no-op).
    spec.engine.tx = sim::parse_tx_cli(args);

    // Multi-tenant serving (tenants <= 1 = strict no-op).
    spec.tenancy = tenancy::parse_tenancy_cli(args);
    return spec;
}

/** Telemetry output destinations parsed alongside the run spec. */
struct TelemetryOutputs {
    std::string metrics_out;  ///< Metrics JSON file ("" = off).
    std::string trace_out;    ///< Base path; writes BASE.jsonl + BASE.json.
    bool profile = false;     ///< Phase profile table on stderr.
};

telemetry::TelemetryConfig
parse_telemetry(const CliArgs& args, TelemetryOutputs& outs)
{
    outs.metrics_out = args.get_string("metrics-out", "");
    outs.trace_out = args.get_string("trace-out", "");
    outs.profile = args.get_bool("profile", false);
    if (args.has("trace-categories") && outs.trace_out.empty())
        fatal("--trace-categories requires --trace-out");
    telemetry::TelemetryConfig config;
    config.metrics = !outs.metrics_out.empty();
    config.profile = outs.profile;
    if (!outs.trace_out.empty()) {
        config.trace_categories = telemetry::parse_categories(
            args.get_string("trace-categories", "all"));
    }
    return config;
}

void
write_run_telemetry(const sim::RunResult& r, const TelemetryOutputs& outs)
{
    if (r.telemetry == nullptr)
        return;
    if (!outs.metrics_out.empty()) {
        write_file(outs.metrics_out, [&](std::ostream& os) {
            r.telemetry->metrics_registry().write_json(os);
        });
    }
    if (!outs.trace_out.empty()) {
        if (const auto* sink = r.telemetry->sink()) {
            write_file(outs.trace_out + ".jsonl",
                       [&](std::ostream& os) { sink->write_jsonl(os); });
            write_file(outs.trace_out + ".json",
                       [&](std::ostream& os) { sink->write_chrome(os); });
        }
    }
    if (outs.profile)
        r.telemetry->phase_profiler().write_table(std::cerr);
}

void
write_sweep_telemetry(const std::vector<sim::RunResult>& runs,
                      const TelemetryOutputs& outs, Table::Format format)
{
    if (!outs.metrics_out.empty()) {
        const auto merged = sweep::merge_job_metrics(runs);
        write_file(outs.metrics_out,
                   [&](std::ostream& os) { merged.write_json(os); });
        Table table({"metric", "value"});
        for (const auto& [name, value] : merged.summary_rows())
            table.row().cell(name).cell(value);
        std::cout << "merged metrics\n";
        table.emit(std::cout, format);
    }
    if (!outs.trace_out.empty()) {
        write_file(outs.trace_out + ".jsonl", [&](std::ostream& os) {
            sweep::write_merged_jsonl(os, runs);
        });
        write_file(outs.trace_out + ".json", [&](std::ostream& os) {
            sweep::write_merged_chrome(os, runs);
        });
    }
    if (outs.profile)
        sweep::merge_job_profiles(runs).write_table(std::cerr);
}

void
print_result(const sim::RunResult& r, const sim::RunSpec& spec)
{
    std::cout << "workload=" << spec.workload << " policy=" << spec.policy
              << " ratio=" << spec.ratio.label() << " seed=" << spec.seed
              << "\nruntime=" << format_fixed(r.seconds() * 1e3, 2)
              << "ms fast_ratio=" << format_fixed(r.fast_ratio, 3)
              << " migrated_pages=" << r.totals.migrated_pages()
              << " (promoted=" << r.totals.promoted_pages
              << " demoted=" << r.totals.demoted_pages
              << " exchanged=" << r.totals.exchanges
              << ") hint_faults=" << r.totals.hint_faults
              << " pebs=" << r.pebs_recorded;
    // Named only when the sample buffer overflowed between two drains.
    if (r.pebs_dropped > 0)
        std::cout << " pebs_dropped=" << r.pebs_dropped;
    if (r.totals.migration_failures() > 0 || r.pebs_suppressed > 0) {
        std::cout << " migration_failures=" << r.totals.migration_failures()
                  << " (pinned=" << r.totals.failed_pinned
                  << " transient=" << r.totals.failed_transient
                  << " contended=" << r.totals.failed_contended
                  << " no_slot=" << r.totals.failed_no_slot
                  << ") pebs_suppressed=" << r.pebs_suppressed;
    }
    if (r.totals.tx_opened > 0) {
        std::cout << "\ntx_opened=" << r.totals.tx_opened
                  << " committed=" << r.totals.tx_committed
                  << " aborted=" << r.totals.tx_aborted
                  << " retries=" << r.totals.tx_retries
                  << " busy=" << r.totals.failed_tx_busy
                  << " free_flips=" << r.totals.tx_free_flips
                  << " dual_drops=" << r.totals.tx_dual_drops
                  << " dual_reclaims=" << r.totals.tx_dual_reclaims;
    }
    std::cout << "\n";
    if (!r.tenants.empty()) {
        std::cout << "tenants=" << r.tenants.size()
                  << " quota_denied=" << r.totals.failed_quota
                  << " admission_denied=" << r.totals.failed_admission
                  << "\n";
        Table table({"tenant", "fast_ratio", "accesses", "samples",
                     "promoted", "demoted", "used_fast", "quota",
                     "denied", "grants"});
        for (std::size_t t = 0; t < r.tenants.size(); ++t) {
            const auto& ts = r.tenants[t];
            const bool unlimited =
                ts.quota == memsim::TenantLedger::kNoQuota;
            table.row()
                .cell(t)
                .cell(ts.fast_ratio, 3)
                .cell(ts.accesses[0] + ts.accesses[1])
                .cell(ts.samples)
                .cell(ts.promoted)
                .cell(ts.demoted)
                .cell(ts.used_fast)
                .cell(unlimited ? std::string("-")
                                : std::to_string(ts.quota))
                .cell(ts.quota_denied + ts.admission_denied)
                .cell(ts.admission_grants);
        }
        table.emit(std::cout, Table::Format::kTable);
    }
}

void
cmd_list(const CliArgs& args)
{
    accept_only(args, "list", {});
    std::cout << "workloads:";
    for (auto w : workloads::workload_names())
        std::cout << " " << w;
    std::cout << "\npolicies: ";
    for (auto p : sim::policy_names())
        std::cout << " " << p;
    std::cout << "\nratios:   ";
    for (const auto& r : sim::paper_ratios())
        std::cout << " " << r.label();
    std::cout << "\n";
}

void
cmd_run(const CliArgs& args)
{
    static constexpr std::string_view kOwn[] = {"timeline", "qtables"};
    accept_only(args, "run",
                {kStreamFlags, kSystemFlags, kEngineFlags, sim::kTxFlags,
                 tenancy::kTenancyFlags, kTelemetryFlags, kOwn});
    auto spec = parse_spec(args);
    spec.engine.record_timeline = args.get_bool("timeline", false);
    TelemetryOutputs touts;
    spec.engine.telemetry = parse_telemetry(args, touts);

    std::unique_ptr<policies::Policy> policy;
    const std::string qtables = args.get_string("qtables", "");
    if (!qtables.empty()) {
        if (spec.policy != "artmem")
            fatal("--qtables only applies to the artmem policy");
        core::ArtMemConfig cfg;
        cfg.seed = spec.seed;
        auto artmem_policy = sim::make_artmem(cfg);
        std::ifstream in(qtables);
        if (!in)
            fatal("cannot open ", qtables);
        std::ostringstream blob;
        blob << in.rdbuf();
        // A file the user named must load: the policy itself would only
        // warn and run from a cold start.
        std::istringstream check(blob.str());
        const std::string error = core::ArtMem::check_qtables(check, cfg);
        if (!error.empty())
            fatal("--qtables ", qtables, ": ", error);
        artmem_policy->set_pretrained_qtables(blob.str());
        policy = std::move(artmem_policy);
    } else {
        policy = sim::make_policy(spec.policy, spec.seed);
    }

    const auto r = sim::run_experiment(spec, *policy);
    print_result(r, spec);
    write_run_telemetry(r, touts);
    if (spec.engine.record_timeline) {
        Table table({"t (ms)", "accesses", "ratio", "promoted", "demoted",
                     "exchanges"});
        for (const auto& iv : r.timeline) {
            table.row()
                .cell(static_cast<double>(iv.end_time) * 1e-6, 1)
                .cell(iv.accesses)
                .cell(iv.fast_ratio, 3)
                .cell(iv.promoted)
                .cell(iv.demoted)
                .cell(iv.exchanges);
        }
        table.emit(std::cout, Table::Format::kTable);
    }
}

void
cmd_sweep(const CliArgs& args)
{
    // Every policy at every paper ratio: --policy and --ratio are not
    // read.
    static constexpr std::string_view kOwn[] = {"jobs", "csv"};
    accept_only(args, "sweep",
                {kStreamFlags, kEngineFlags, sim::kTxFlags,
                 tenancy::kTenancyFlags, kTelemetryFlags, kOwn});
    auto spec = parse_spec(args);
    TelemetryOutputs touts;
    spec.engine.telemetry = parse_telemetry(args, touts);
    const auto ratios = sim::paper_ratios();

    sweep::SweepSpec sweepspec;
    for (const auto policy : sim::policy_names()) {
        for (const auto& ratio : ratios) {
            auto job = spec;
            job.policy = std::string(policy);
            job.ratio = ratio;
            sweepspec.add(std::move(job));
        }
    }

    sweep::SweepRunner runner(
        {.jobs = args.get_uint<unsigned>("jobs", 0),
         .progress = true});
    const auto runs = runner.run(sweepspec);

    std::vector<std::string> headers = {"policy"};
    for (const auto& r : ratios)
        headers.push_back(r.label());
    Table table(std::move(headers));
    std::size_t job = 0;
    for (const auto policy : sim::policy_names()) {
        auto& row = table.row().cell(std::string(policy));
        for (std::size_t r = 0; r < ratios.size(); ++r)
            row.cell(runs[job++].seconds() * 1e3, 1);
    }
    std::cout << "runtime (ms), workload=" << spec.workload << "\n";
    const auto format = args.get_bool("csv", false) ? Table::Format::kCsv
                                                    : Table::Format::kTable;
    table.emit(std::cout, format);
    write_sweep_telemetry(runs, touts, format);
}

void
cmd_train(const CliArgs& args)
{
    // Always trains the artmem policy: --policy is not read.
    static constexpr std::string_view kOwn[] = {"ratio", "out"};
    accept_only(args, "train",
                {kStreamFlags, kEngineFlags, sim::kTxFlags,
                 tenancy::kTenancyFlags, kOwn});
    auto spec = parse_spec(args);
    const std::string out_path = args.get_string("out", "qtables.txt");
    core::ArtMemConfig cfg;
    cfg.seed = spec.seed;
    auto policy = sim::make_artmem(cfg);
    const auto r = sim::run_experiment(spec, *policy);
    write_file(out_path,
               [&](std::ostream& os) { policy->save_qtables(os); });
    print_result(r, spec);
    std::cout << "Q-tables written to " << out_path << "\n";
}

void
cmd_trace_record(const CliArgs& args)
{
    static constexpr std::string_view kOwn[] = {"out"};
    accept_only(args, "trace-record", {kStreamFlags, kOwn});
    auto spec = parse_spec(args);
    const std::string out = args.get_string("out", spec.workload + ".trace");
    auto inner = workloads::make_workload(spec.workload, kPage,
                                          spec.accesses, spec.seed);
    workloads::TraceWriter writer(std::move(inner), out, kPage);
    std::vector<PageId> buf(8192);
    while (writer.fill(buf) > 0) {
    }
    writer.close();
    std::cout << "recorded " << writer.written() << " accesses of "
              << spec.workload << " to " << out << "\n";
}

void
cmd_trace_run(const CliArgs& args)
{
    // The trace fixes the access stream, so only --seed (the policy's)
    // is read of the stream flags; tenants need per-tenant generators.
    static constexpr std::string_view kOwn[] = {"trace", "seed"};
    accept_only(args, "trace-run",
                {kSystemFlags, kEngineFlags, sim::kTxFlags, kOwn});
    const std::string path = args.get_string("trace", "");
    if (path.empty())
        fatal("trace-run requires --trace=<file>");
    auto spec = parse_spec(args);
    workloads::TraceReplay replay(path);
    auto machine_config = sim::make_machine_config(
        replay.footprint(), spec.ratio, replay.page_size());
    memsim::TieredMachine machine(machine_config);
    auto policy = sim::make_policy(spec.policy, spec.seed);
    const auto r =
        sim::run_simulation(replay, *policy, machine, spec.engine);
    spec.workload = "trace:" + path;
    print_result(r, spec);
}

}  // namespace

int
main(int argc, char** argv)
{
    const auto args = CliArgs::parse(argc, argv);
    if (args.positional().empty()) {
        std::cerr
            << "usage: artmem <list|run|sweep|train|trace-record|"
               "trace-run> [flags]\n"
               "flags: --workload=<name|FILE.cfg> --policy= --ratio=F:S "
               "--accesses=N --seed=N\n"
               "       --timeline --qtables= (run) --out= (train, "
               "trace-record) --trace= (trace-run)\n"
               "       --csv --jobs=N (sweep: CSV output, parallel "
               "workers)\n"
               "       --fault-scenario=<none|migration|degrade|blackout|"
               "pressure|abort_storm> --fault-config=<file> --fault-seed=N\n"
               "       --tx-migration (transactional copy-then-commit "
               "migrations; DESIGN.md section 10)\n"
               "       --tx-write-ratio=R --tx-max-inflight=N --tx-seed=N\n"
               "       --tenants=N (interleave N tenant workloads; "
               "DESIGN.md section 13) --tenant-quota-share=F\n"
               "       --tenant-mix=w1,w2,... --tenant-weights=a,b,... "
               "--tenant-quantum=N --tenant-phase-stride=N "
               "--tenant-config=<file>\n"
               "       --admission=<none|static|feedback> "
               "--admission-rate=N --admission-target=R --admission-max=N\n"
               "       --check-invariants (audit simulator state every "
               "interval; see DESIGN.md section 6)\n"
               "       --metrics-out=FILE --trace-out=BASE (writes "
               "BASE.jsonl + BASE.json) --profile (run, sweep)\n"
               "       --trace-categories=<all|none|engine,migration,pebs,"
               "rl,threshold> (default all; needs --trace-out)\n"
               "Each subcommand rejects the flags it does not read.\n";
        return 1;
    }
    const std::string& command = args.positional()[0];
    if (command == "list")
        cmd_list(args);
    else if (command == "run")
        cmd_run(args);
    else if (command == "sweep")
        cmd_sweep(args);
    else if (command == "train")
        cmd_train(args);
    else if (command == "trace-record")
        cmd_trace_record(args);
    else if (command == "trace-run")
        cmd_trace_run(args);
    else
        artmem::fatal("unknown command '", command, "'");
    return artmem::finish_stdout();
}
