/**
 * @file
 * Shared plumbing for the figure/table reproduction benches.
 *
 * Every bench accepts the same scale flags: the defaults regenerate the
 * figure in seconds at reduced scale; --layouts 100 --instructions
 * 1000000 (and up) approach the paper's scale. --csv writes the
 * machine-readable series next to the printed table.
 */

#ifndef INTERF_BENCH_COMMON_HH
#define INTERF_BENCH_COMMON_HH

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "interferometry/campaign.hh"
#include "interferometry/model.hh"
#include "telemetry/progress.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/generator.hh"
#include "util/logging.hh"
#include "util/options.hh"

namespace interf::bench
{

/** Scale parameters shared by all benches. */
struct Scale
{
    u32 layouts = 40;
    u64 instructions = 300000;
    u32 jobs = 0; ///< Measurement worker threads (0 = all hardware).
    std::string storeDir; ///< Campaign artifact store (empty = off).
    std::string csvPath;
    std::string jsonPath; ///< Machine-readable result file (empty = off).
    std::string telemetryDir; ///< --telemetry-out: traces + manifests.
    std::string only; ///< Restrict to benchmarks containing this text.
};

/** One machine-readable throughput row for the --json report. */
struct JsonRow
{
    std::string benchmark; ///< e.g. "micro_replay/own_stream".
    std::string config;    ///< e.g. "jobs=1 layouts=40".
    double layoutsPerSec = 0.0;
    double eventsPerSec = 0.0; ///< 0 when the bench has no event axis.
    double wallMs = 0.0;       ///< Wall time of one measured batch.
    u64 stateBytesPerLane = 0; ///< Microarchitectural hot state per
                               ///< replay (0 = not a replay row).
};

/**
 * Collects JsonRow records and writes them as a single JSON document:
 *
 *   { "schema": "interf-bench-1",
 *     "schemaVersion": 5,
 *     "rows": [ { "benchmark": ..., "config": ...,
 *                 "layouts_per_sec": ..., "events_per_sec": ...,
 *                 "wall_ms": ..., "state_bytes_per_lane": ... }, ... ],
 *     "phases": [ { "name": ..., "count": ...,
 *                   "wall_ms": ..., "thread_ms": ... }, ... ] }
 *
 * CI jobs upload this file as the perf artifact, so the field names are
 * a (small) stable interface; extend, don't rename (the document shape
 * is pinned by docs/bench-report.schema.json, which CI validates).
 * schemaVersion 2 added the version field itself and the "phases"
 * array — where the wall time went, per telemetry phase span, present
 * when telemetry was enabled for the run (--json implies it) and empty
 * otherwise. schemaVersion 3 added bench_micro_replay's rows for
 * batched multi-layout replay and schemaVersion 4 added
 * "state_bytes_per_lane" and "verify_rate" to every row. schemaVersion
 * 5 retires batched replay: its rows and "verify_rate" (the way-memo
 * hit fraction) are gone. "state_bytes_per_lane" stays — the microarchitectural hot
 * state one replay keeps (cache tag/stamp/generation arrays, predictor
 * tables, BTB, RAS; 0 for benches that are not replay rows).
 */
class JsonReport
{
  public:
    void add(JsonRow row) { rows_.push_back(std::move(row)); }

    bool empty() const { return rows_.empty(); }

    /** Write the document to @p path; fatal() if unwritable. */
    void write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write JSON report to '%s'", path.c_str());
        out << "{\n  \"schema\": \"interf-bench-1\",\n"
            << "  \"schemaVersion\": 5,\n  \"rows\": [";
        for (size_t i = 0; i < rows_.size(); ++i) {
            const JsonRow &r = rows_[i];
            out << (i ? ",\n" : "\n")
                << "    {\"benchmark\": \"" << escaped(r.benchmark)
                << "\", \"config\": \"" << escaped(r.config)
                << "\", \"layouts_per_sec\": " << num(r.layoutsPerSec)
                << ", \"events_per_sec\": " << num(r.eventsPerSec)
                << ", \"wall_ms\": " << num(r.wallMs)
                << ", \"state_bytes_per_lane\": " << r.stateBytesPerLane
                << "}";
        }
        out << "\n  ],\n  \"phases\": [";
        const auto phases = telemetry::phaseStats();
        for (size_t i = 0; i < phases.size(); ++i) {
            const telemetry::PhaseStat &p = phases[i];
            out << (i ? ",\n" : "\n")
                << "    {\"name\": \"" << escaped(p.name)
                << "\", \"count\": " << p.count
                << ", \"wall_ms\": " << num(p.wallMs)
                << ", \"thread_ms\": " << num(p.threadMs) << "}";
        }
        out << "\n  ]\n}\n";
        if (!out.flush())
            fatal("failed writing JSON report to '%s'", path.c_str());
    }

  private:
    static std::string escaped(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    /** Fixed-notation number; JSON has no Inf/NaN, map those to 0. */
    static std::string num(double v)
    {
        if (!(v == v) || v > 1e300 || v < -1e300)
            return "0";
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", v);
        return buf;
    }

    std::vector<JsonRow> rows_;
};

/**
 * The fewest layouts a bench's statistics accept, and which statistic
 * sets it; readScale() rejects a smaller --layouts with a fatal()
 * naming both, instead of letting the statistic's assertion abort.
 */
struct MinLayouts
{
    u32 count;
    const char *why;
};

/** @{ The minimums of the statistics the benches compute. */
inline constexpr MinLayouts kAnyLayouts{1, "a campaign measures one"};
inline constexpr MinLayouts kKdeLayouts{
    2, "the kernel density estimate needs 2 samples"};
inline constexpr MinLayouts kFitLayouts{
    3, "the CPI regression needs 3 samples"};
inline constexpr MinLayouts kModelLayouts{
    interferometry::PerformanceModel::kMinSamples,
    "the performance model fits CPI on three events"};
/** @} */

/** Register the shared flags on a parser. */
inline void
addScaleOptions(OptionParser &opts, u32 default_layouts = 40,
                u64 default_insts = 300000)
{
    opts.addInt("layouts", default_layouts,
                "code reorderings per benchmark (paper: 100)");
    opts.addInt("instructions", static_cast<i64>(default_insts),
                "dynamic instructions per run (paper: billions)");
    opts.addInt("jobs", 0,
                "worker threads for layout measurement (0 = one per "
                "hardware thread, 1 = serial); results are identical "
                "for any value");
    opts.addString("store", "",
                   "campaign artifact store directory: measured "
                   "batches are checkpointed there and reruns load "
                   "byte-identical samples instead of re-measuring "
                   "(empty = off)");
    opts.addString("csv", "", "also write results to this CSV file");
    opts.addString("json", "",
                   "write a machine-readable throughput report "
                   "(benchmark, config, layouts/sec, events/sec, "
                   "wall ms, per-phase durations) to this file");
    opts.addString("telemetry-out", "",
                   "enable telemetry and write the Perfetto-loadable "
                   "phase trace plus per-campaign run manifests into "
                   "this directory (empty = off)");
    opts.addFlag("progress",
                 "live campaign progress ticker on stderr (TTY only; "
                 "implies telemetry)");
    opts.addString("only", "",
                   "restrict to benchmarks whose name contains this");
}

/** Read the shared flags back; fatal() if --layouts is below @p min. */
inline Scale
readScale(const OptionParser &opts, MinLayouts min = kAnyLayouts)
{
    Scale s;
    s.layouts = static_cast<u32>(opts.getInt("layouts"));
    s.instructions = static_cast<u64>(opts.getInt("instructions"));
    s.storeDir = opts.getString("store");
    s.csvPath = opts.getString("csv");
    s.jsonPath = opts.getString("json");
    s.telemetryDir = opts.getString("telemetry-out");
    s.only = opts.getString("only");
    if (opts.getInt("layouts") < min.count)
        fatal("--layouts must be >= %u (%s), got %lld", min.count, min.why,
              static_cast<long long>(opts.getInt("layouts")));
    if (opts.getInt("instructions") <
        static_cast<i64>(trace::kMinInstructionBudget))
        fatal("--instructions must be >= %llu",
              static_cast<unsigned long long>(trace::kMinInstructionBudget));
    if (opts.getInt("jobs") < 0)
        fatal("--jobs must be >= 0");
    s.jobs = static_cast<u32>(opts.getInt("jobs"));
    // Both outputs need phase spans recorded: --telemetry-out for the
    // trace + manifests, --json for the embedded per-phase durations.
    if (!s.telemetryDir.empty())
        telemetry::setOutputDir(s.telemetryDir);
    else if (!s.jsonPath.empty() || opts.getFlag("progress"))
        telemetry::enable();
    if (opts.getFlag("progress"))
        telemetry::installStderrProgressTicker();
    return s;
}

/**
 * For a bench that runs one profile, where --only has nothing to select
 * among: fatal() on a non-empty --only instead of ignoring it. Call
 * after readScale(), so its --layouts check comes first.
 */
inline void
rejectOnly(const Scale &scale)
{
    if (!scale.only.empty())
        fatal("--only '%s' selects nothing: this bench runs one profile "
              "(--benchmark picks it where the bench has that flag)",
              scale.only.c_str());
}

/**
 * End-of-main telemetry hook for every bench: with --telemetry-out,
 * exports the accumulated spans as a Chrome trace-event file
 * (trace.json, loadable at ui.perfetto.dev) into the output directory.
 * Campaign manifests land there on their own as campaigns destruct.
 */
inline void
finishTelemetry(const Scale &scale)
{
    if (scale.telemetryDir.empty() || !telemetry::enabled())
        return;
    telemetry::writeChromeTrace(scale.telemetryDir + "/trace.json");
}

/** Campaign configuration at the requested scale. */
inline interferometry::CampaignConfig
campaignConfig(const Scale &scale)
{
    interferometry::CampaignConfig cfg;
    cfg.instructionBudget = scale.instructions;
    cfg.initialLayouts = scale.layouts;
    cfg.maxLayouts = scale.layouts;
    cfg.jobs = scale.jobs;
    cfg.storeDir = scale.storeDir;
    return cfg;
}

/** Should this benchmark run under the --only filter? */
inline bool
selected(const Scale &scale, const std::string &name)
{
    return scale.only.empty() ||
           name.find(scale.only) != std::string::npos;
}

} // namespace interf::bench

#endif // INTERF_BENCH_COMMON_HH
