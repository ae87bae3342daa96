/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload suite|campaign-parallel|optimize --seed N
 *             --seconds S --trace 0|1 [--scale full|tiny]
 *             [--corrupt-sample]
 *
 * One closed-loop workload runs back to back for S seconds. wall_s and
 * layouts_per_s are the fastest iteration's, setup_s the median over
 * the iterations. The workload seed picks the layout seeds
 * (CampaignConfig::layoutSeedBase) and the search and page seeds
 * (OptConfig::seed, OptConfig::pageSeed); the profiles and their
 * behaviour seeds stay fixed, because they are the benchmark's
 * programs.
 *
 * After the timed loop, outside the timed region, a fixed subset of the
 * workload's layouts (and the optimizer champion) is re-derived through
 * Machine::runReference and the measurement protocol; every sample that
 * is not byte-equal counts as one failed operation.
 *
 * With --trace 1 the run also drives one more iteration through the
 * layers' public calls, each wrapped in a span (spans.hh), and then
 * probes single layers: recorded per-structure streams, the protocol,
 * PinSim, the stores, the optimizer and differential-replay headroom.
 * It prints the per-layer metrics instead of the end-to-end ones.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analyze/analyze.hh"
#include "bpred/btb.hh"
#include "bpred/factory.hh"
#include "cache/hierarchy.hh"
#include "core/runner.hh"
#include "core/timing.hh"
#include "exec/threadpool.hh"
#include "interferometry/campaign.hh"
#include "interferometry/model.hh"
#include "interferometry/predict.hh"
#include "opt/neighborhood.hh"
#include "opt/optimizer.hh"
#include "pinsim/pinsim.hh"
#include "store/fitness.hh"
#include "store/store.hh"
#include "telemetry/telemetry.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "util/digest.hh"
#include "util/random.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

#include "spans.hh"

namespace fs = std::filesystem;
using namespace interf;
using interferometry::CampaignConfig;
using perfbench::nowNs;
using perfbench::Span;
using perfbench::Tracer;

namespace
{

// ------------------------------------------------------------ options

enum class Workload { Suite, Parallel, Optimize };

struct Options
{
    Workload workload = Workload::Suite;
    std::string workloadName;
    u64 seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool corrupt = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload suite|campaign-parallel|"
                 "optimize --seed N --seconds S --trace 0|1\n"
                 "                 [--scale full|tiny] "
                 "[--corrupt-sample]\n",
                 msg.c_str());
    std::exit(2);
}

u64
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-')
        usage(flag + " wants a non-negative integer, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--corrupt-sample") {
            o.corrupt = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            have_workload = true;
            o.workloadName = v;
            if (v == "suite")
                o.workload = Workload::Suite;
            else if (v == "campaign-parallel")
                o.workload = Workload::Parallel;
            else if (v == "optimize")
                o.workload = Workload::Optimize;
            else
                usage("unknown workload '" + v + "'");
        } else if (a == "--seed") {
            o.seed = parseU64(a, v);
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseU64(a, v));
            if (o.seconds < 1)
                usage("--seconds must be >= 1");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            o.trace = v == "1";
        } else if (a == "--scale") {
            if (v != "full" && v != "tiny")
                usage("--scale wants full or tiny");
            o.tiny = v == "tiny";
        } else {
            usage("unknown flag " + a);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

// -------------------------------------------------------------- scale

/** Work per iteration. The full scale is what the benchmark measures;
 *  the tiny scale only exercises every path (the self-test). */
struct Scale
{
    u32 suiteLayouts;    ///< Table-1 layouts per profile, no escalation.
    u64 suiteInsts;
    u32 parallelLayouts; ///< Fixed layout count, no escalation.
    u64 parallelInsts;
    u32 optBudget;       ///< Candidate evaluations per search.
    u64 optInsts;
    u32 probeLayouts;    ///< Layouts per single-layer probe.
};

constexpr Scale kFull{12, 300'000, 256, 1'000'000, 64, 1'000'000, 8};
constexpr Scale kTiny{6, 20'000, 12, 40'000, 12, 40'000, 3};

/** Scratch space (stores, span dumps), under the working directory. */
const std::string kOutDir = ".bench_out";

const char *const kParallelProfile = "445.gobmk";
const char *const kOptProfile = "403.gcc";
const char *const kSuiteProbeProfile = "429.mcf";

/** Layout i of a campaign uses seed base + i; seeds never overlap. */
u64
layoutSeedBase(u64 seed)
{
    return 1000 + seed * 1'000'003ULL;
}

CampaignConfig
suiteConfig(const Scale &s, u64 seed)
{
    CampaignConfig cfg;
    cfg.instructionBudget = s.suiteInsts;
    // A fixed count: with escalation the number of layouts, and so the
    // work, would depend on the seed (see perfbench/NOTES.md).
    cfg.initialLayouts = s.suiteLayouts;
    cfg.maxLayouts = s.suiteLayouts;
    cfg.jobs = 1;
    cfg.layoutSeedBase = layoutSeedBase(seed);
    return cfg;
}

CampaignConfig
parallelConfig(const Scale &s, u64 seed)
{
    CampaignConfig cfg;
    cfg.instructionBudget = s.parallelInsts;
    cfg.initialLayouts = s.parallelLayouts;
    cfg.maxLayouts = s.parallelLayouts;
    cfg.randomizeHeap = true;
    cfg.physicalPages = true;
    cfg.jobs = exec::ThreadPool::hardwareWorkers();
    cfg.layoutSeedBase = layoutSeedBase(seed);
    return cfg;
}

opt::OptConfig
optConfig(const Scale &s, u64 seed)
{
    opt::OptConfig oc;
    oc.instructionBudget = s.optInsts;
    oc.seed = seed + 1;
    oc.budget = s.optBudget;
    oc.strategy = opt::Strategy::Anneal;
    oc.jobs = 1;
    oc.pageSeed = seed + 1;
    return oc;
}

/** Campaign-style layout recipe for the optimize workload's probes. */
CampaignConfig
optProbeConfig(const Scale &s, u64 seed)
{
    CampaignConfig cfg;
    cfg.instructionBudget = s.optInsts;
    cfg.jobs = 1;
    cfg.layoutSeedBase = layoutSeedBase(seed);
    return cfg;
}

// ---------------------------------------------------- digests, stats

void
mixMeasurement(Digest &d, const core::Measurement &m)
{
    d.mix(m.layoutSeed);
    d.mixDouble(m.cpi);
    d.mixDouble(m.mpki);
    d.mixDouble(m.l1iMpki);
    d.mixDouble(m.l1dMpki);
    d.mixDouble(m.l2Mpki);
    d.mixDouble(m.btbMpki);
    d.mix(m.cycles);
    d.mix(m.instructions);
    d.mix(m.condBranches);
    d.mix(m.mispredicts);
    d.mix(m.l1iMisses);
    d.mix(m.l1dMisses);
    d.mix(m.l2Misses);
    d.mix(m.btbMisses);
}

u64
samplesDigest(const std::vector<core::Measurement> &samples)
{
    Digest d;
    d.mix(samples.size());
    for (const auto &m : samples)
        mixMeasurement(d, m);
    return d.value();
}

bool
sameMeasurement(const core::Measurement &a, const core::Measurement &b)
{
    return samplesDigest({a}) == samplesDigest({b});
}

bool
sameRun(const core::RunResult &a, const core::RunResult &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.condBranches == b.condBranches &&
           a.mispredicts == b.mispredicts && a.l1iMisses == b.l1iMisses &&
           a.l1dMisses == b.l1dMisses && a.l2Misses == b.l2Misses &&
           a.l2InstMisses == b.l2InstMisses &&
           a.l2PrefMisses == b.l2PrefMisses &&
           a.l2DataMisses == b.l2DataMisses && a.btbMisses == b.btbMisses &&
           a.rasMispredicts == b.rasMispredicts;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in [0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
seconds(u64 ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// --------------------------------------------------- timed workloads

/** One closed-loop pass over a workload. */
struct Iteration
{
    double wallS = 0.0;
    double setupS = 0.0; ///< Campaign / FitnessOracle constructions.
    double evalS = 0.0;  ///< Inside the layout-evaluation calls.
    u64 layouts = 0;     ///< Fresh layout evaluations.
    u64 failed = 0;      ///< Store reloads that lost or changed samples.
    u64 digest = 0;      ///< Every output of the pass.
};

/** One suite profile's outputs, kept for the checks. */
struct SuiteProfileOut
{
    std::vector<core::Measurement> samples;
    bool significant = false;
    double predictedPerfectCpi = 0.0; ///< Significant profiles only.
};

/** The first iteration's outputs: what the checks re-derive. */
struct Outputs
{
    std::vector<SuiteProfileOut> suite; ///< Indexed like specSuite().
    std::vector<core::Measurement> samples; ///< campaign-parallel.
    opt::OptResult opt;                     ///< optimize.
};

Iteration
runSuite(const Scale &s, u64 seed, Outputs *keep)
{
    Iteration it;
    const CampaignConfig cfg = suiteConfig(s, seed);
    Digest d;
    const u64 t0 = nowNs();
    pinsim::PinSim sim(bpred::figureCandidateSpecs());
    for (const auto &entry : workloads::specSuite()) {
        const u64 s0 = nowNs();
        interferometry::Campaign camp(entry.profile, cfg);
        const u64 s1 = nowNs();
        interferometry::CampaignResult res = camp.run();
        const u64 s2 = nowNs();
        it.setupS += seconds(s1 - s0);
        it.evalS += seconds(s2 - s1);
        it.layouts += res.measuredLayouts;

        interferometry::PerformanceModel model(entry.profile.name,
                                               res.samples);
        const interferometry::Table1Row row = model.table1Row();
        d.mixString(entry.profile.name);
        d.mix(samplesDigest(res.samples));
        d.mixBool(res.significant);
        d.mixDouble(row.slope);
        d.mixDouble(row.intercept);
        SuiteProfileOut out;
        out.significant = res.significant;
        if (entry.expectSignificant) {
            std::vector<std::vector<pinsim::PredictorResult>> per_layout;
            per_layout.reserve(res.layoutsUsed);
            for (u32 i = 0; i < res.layoutsUsed; ++i) {
                trace::LayoutTables tables(camp.plan(),
                                           camp.codeLayoutFor(i));
                per_layout.push_back(sim.replay(camp.plan(), tables));
            }
            const std::vector<double> mpki =
                pinsim::averageMpki(per_layout);
            interferometry::PredictorEvaluator eval(model, model.meanCpi());
            for (size_t k = 0; k < mpki.size(); ++k)
                d.mixDouble(eval.evaluate(sim.predictorName(k), mpki[k]).cpi);
            out.predictedPerfectCpi = eval.evaluatePerfect().cpi;
            d.mixDouble(out.predictedPerfectCpi);
        }
        if (keep) {
            out.samples = std::move(res.samples);
            keep->suite.push_back(std::move(out));
        }
    }
    it.wallS = seconds(nowNs() - t0);
    it.digest = d.value();
    return it;
}

Iteration
runParallel(const Scale &s, u64 seed, const std::string &store_dir,
            Outputs *keep)
{
    Iteration it;
    fs::remove_all(store_dir);
    CampaignConfig cfg = parallelConfig(s, seed);
    cfg.storeDir = store_dir;
    const auto &profile = workloads::specFor(kParallelProfile).profile;
    const u64 t0 = nowNs();
    interferometry::Campaign camp(profile, cfg);
    const u64 t1 = nowNs();
    std::vector<core::Measurement> samples =
        camp.measureLayouts(0, s.parallelLayouts);
    const u64 t2 = nowNs();
    // Warm reopen: every sample comes back from disk, none re-measured.
    store::CampaignStore warm(
        store_dir,
        store::campaignKey(camp.program(), profile.behaviourSeed, cfg));
    const std::vector<core::Measurement> loaded = warm.loadSamples();
    const u64 t3 = nowNs();
    it.wallS = seconds(t3 - t0);
    it.setupS = seconds(t1 - t0);
    it.evalS = seconds(t2 - t1);
    it.layouts = camp.measuredLayouts();
    if (camp.measuredLayouts() != s.parallelLayouts ||
        samplesDigest(loaded) != samplesDigest(samples))
        ++it.failed;
    it.digest = samplesDigest(samples);
    if (keep)
        keep->samples = std::move(samples);
    return it;
}

Iteration
runOptimize(const Scale &s, u64 seed, const std::string &store_dir,
            Outputs *keep)
{
    Iteration it;
    fs::remove_all(store_dir);
    opt::OptConfig oc = optConfig(s, seed);
    oc.storeDir = store_dir;
    const auto &profile = workloads::specFor(kOptProfile).profile;
    const u64 t0 = nowNs();
    opt::FitnessOracle oracle(profile, oc);
    const u64 t1 = nowNs();
    opt::OptResult res = opt::makeOptimizer(oracle, oc)->run();
    const u64 t2 = nowNs();
    it.wallS = seconds(t2 - t0);
    it.setupS = seconds(t1 - t0);
    it.evalS = seconds(t2 - t1);
    it.layouts = res.freshEvals;
    Digest d;
    d.mixString(res.trajectory.dump());
    mixMeasurement(d, res.bestSample);
    it.digest = d.value();
    if (keep)
        keep->opt = std::move(res);
    return it;
}

Iteration
runIteration(const Options &o, const Scale &s, Outputs *keep)
{
    const std::string store_dir = kOutDir + "/store";
    Iteration it;
    switch (o.workload) {
      case Workload::Suite:
        it = runSuite(s, o.seed, keep);
        break;
      case Workload::Parallel:
        it = runParallel(s, o.seed, store_dir, keep);
        break;
      case Workload::Optimize:
        it = runOptimize(s, o.seed, store_dir, keep);
        break;
    }
    fs::remove_all(store_dir);
    return it;
}

// ------------------------------------------------------ output check

/**
 * Re-derive layout @p index of @p camp outside the kernel: the
 * reference model's counters must equal the kernel's truth, and the
 * protocol over them (same noise seed) must give back @p sample byte
 * for byte.
 */
bool
layoutReproduces(const interferometry::Campaign &camp, core::Machine &ref,
                 core::MeasurementRunner &runner, u32 index,
                 const core::Measurement &sample)
{
    const CampaignConfig &cfg = camp.config();
    const layout::CodeLayout code = camp.codeLayoutFor(index);
    const layout::HeapLayout heap = camp.heapLayoutFor(index);
    const layout::PageMap pages = camp.pageMapFor(index);
    const core::RunResult truth =
        ref.runReference(camp.program(), camp.trace(), code, heap, pages);
    const trace::LayoutTables tables(camp.plan(), code, heap, pages,
                                     cfg.machine.hierarchy.l1i.lineBytes);
    const core::MeasuredRun run = runner.measureWithTruth(
        camp.plan(), tables, cfg.layoutSeedBase + index);
    return sameRun(truth, run.truth) && sameMeasurement(run.sample, sample);
}

struct CheckResult
{
    u64 checked = 0;
    u64 failed = 0;
    double predictErrPct = -1.0; ///< suite only; < 0 elsewhere.
};

void
checkLayouts(interferometry::Campaign &camp,
             const std::vector<core::Measurement> &samples,
             const std::vector<u32> &indices, CheckResult &r)
{
    core::Machine ref(camp.config().machine);
    core::MeasurementRunner runner(camp.config().machine,
                                   camp.config().runner);
    for (u32 i : indices) {
        ++r.checked;
        if (i >= samples.size() ||
            !layoutReproduces(camp, ref, runner, i, samples[i]))
            ++r.failed;
    }
}

CheckResult
checkSuite(const Scale &s, u64 seed, const Outputs &out)
{
    CheckResult r;
    const CampaignConfig cfg = suiteConfig(s, seed);
    const auto &suite = workloads::specSuite();
    double err_sum = 0.0;
    u32 err_n = 0;
    for (size_t p = 0; p < suite.size(); ++p) {
        const bool audited = p % 6 == 0;
        if (!audited && !suite[p].expectSignificant)
            continue;
        const SuiteProfileOut &po = out.suite[p];
        const u32 used = static_cast<u32>(po.samples.size());
        interferometry::Campaign camp(suite[p].profile, cfg);
        if (audited)
            checkLayouts(camp, po.samples, {0, used - 1}, r);
        if (!suite[p].expectSignificant)
            continue;
        // Ground truth the paper never had: the same layouts with the
        // predictor actually made perfect, without noise.
        core::Machine perfect(cfg.machine.withPredictor("perfect"));
        double cpi_sum = 0.0;
        for (u32 i = 0; i < used; ++i) {
            const trace::LayoutTables tables(
                camp.plan(), camp.codeLayoutFor(i), camp.heapLayoutFor(i),
                camp.pageMapFor(i), cfg.machine.hierarchy.l1i.lineBytes);
            cpi_sum += perfect.replay(camp.plan(), tables).cpi();
        }
        const double truth = cpi_sum / used;
        err_sum += 100.0 * std::fabs(po.predictedPerfectCpi - truth) / truth;
        ++err_n;
    }
    r.predictErrPct = err_n ? err_sum / err_n : 0.0;
    return r;
}

CheckResult
checkParallel(const Scale &s, u64 seed, const Outputs &out)
{
    CheckResult r;
    const CampaignConfig cfg = parallelConfig(s, seed);
    interferometry::Campaign camp(
        workloads::specFor(kParallelProfile).profile, cfg);
    const u32 n = s.parallelLayouts;
    checkLayouts(camp, out.samples, {0, n / 2, n - 1}, r);
    return r;
}

CheckResult
checkOptimize(const Scale &s, u64 seed, const Outputs &out)
{
    CheckResult r;
    const opt::OptConfig oc = optConfig(s, seed);
    const auto &profile = workloads::specFor(kOptProfile).profile;
    const trace::Program prog = workloads::buildProgram(profile);
    trace::TraceGenerator gen(prog, profile.behaviourSeed);
    const trace::Trace trace = gen.makeTrace(oc.instructionBudget);
    const trace::ReplayPlan plan(prog, trace);

    const opt::CandidateLayout &best = out.opt.best;
    const u64 digest = best.digest(out.opt.trajectory.baseKey);
    const layout::CodeLayout code = layout::Linker().link(prog, best.code);
    layout::HeapKey hk;
    hk.randomize = oc.randomizeHeap;
    hk.seed = best.heapSeed;
    const layout::HeapLayout heap(prog, hk);
    const layout::PageMap pages = oc.physicalPages
                                      ? layout::PageMap(oc.pageSeed)
                                      : layout::PageMap();
    core::Machine ref(oc.machine);
    const core::RunResult truth =
        ref.runReference(prog, trace, code, heap, pages);
    const trace::LayoutTables tables(plan, code, heap, pages,
                                     oc.machine.hierarchy.l1i.lineBytes);
    core::MeasurementRunner runner(oc.machine, oc.runner);
    const core::MeasuredRun run =
        runner.measureWithTruth(plan, tables, digest);
    ++r.checked;
    if (!sameRun(truth, run.truth) ||
        !sameMeasurement(run.sample, out.opt.bestSample) ||
        digest != out.opt.trajectory.finalDigest ||
        out.opt.bestSample.cycles != out.opt.trajectory.finalCycles)
        ++r.failed;
    return r;
}

/** Flip one bit of one kept sample (self-test of the check). */
void
corruptOneSample(Workload w, Outputs &out)
{
    switch (w) {
      case Workload::Suite:
        out.suite.front().samples.front().cycles ^= 1;
        break;
      case Workload::Parallel:
        out.samples.front().cycles ^= 1;
        break;
      case Workload::Optimize:
        out.opt.bestSample.cycles ^= 1;
        break;
    }
}

// -------------------------------------------------------- traced run

/** A profile's program, trace and plan, each built under its span. */
struct ProfileCtx
{
    const workloads::WorkloadProfile *profile = nullptr;
    trace::Program prog;
    trace::Trace trace;
    trace::ReplayPlan plan;
};

std::unique_ptr<ProfileCtx>
buildCtx(const workloads::WorkloadProfile &profile, u64 insts,
         const core::MachineConfig &machine)
{
    auto c = std::make_unique<ProfileCtx>();
    c->profile = &profile;
    {
        Span span("workloads.build");
        c->prog = workloads::buildProgram(profile);
    }
    {
        Span span("trace.generate");
        trace::TraceGenerator gen(c->prog, profile.behaviourSeed);
        c->trace = gen.makeTrace(insts);
        c->trace.validate(c->prog);
    }
    {
        Span span("trace.plan_compile");
        c->plan = trace::ReplayPlan(c->prog, c->trace);
    }
    {
        Span span("analyze.sound");
        analyze::requireSoundMachine(machine, &c->plan,
                                     "benchmark machine config");
    }
    return c;
}

/** Campaign layout @p index of @p cfg, as Campaign::codeLayoutFor,
 *  heapLayoutFor and pageMapFor derive it, turned into replay tables. */
trace::LayoutTables
campaignTables(const ProfileCtx &c, const CampaignConfig &cfg,
               const layout::Linker &linker, u32 index)
{
    const u64 seed = cfg.layoutSeedBase + index;
    const layout::CodeLayout code = [&] {
        Span span("layout.link");
        layout::LayoutKey key;
        key.seed = seed;
        return linker.link(c.prog, key);
    }();
    const layout::HeapLayout heap = [&] {
        Span span("layout.heap");
        layout::HeapKey key;
        key.randomize = cfg.randomizeHeap;
        key.seed = seed;
        return layout::HeapLayout(c.prog, key);
    }();
    const layout::PageMap pages =
        cfg.physicalPages ? layout::PageMap(seed) : layout::PageMap();
    Span span("trace.tables");
    return trace::LayoutTables(c.plan, code, heap, pages,
                               cfg.machine.hierarchy.l1i.lineBytes);
}

/** Busy time and capacity of exec::parallelForChunks calls. */
struct ChunkStats
{
    double busyNs = 0.0;     ///< Sum of chunk durations.
    double capacityNs = 0.0; ///< Sum of workers x call wall time.
    double slowestNs = 0.0;  ///< Sum over calls of the slowest chunk.
    double meanNs = 0.0;     ///< Sum over calls of the mean chunk.

    double imbalance() const { return meanNs > 0 ? slowestNs / meanNs : 0; }
    double efficiency() const
    {
        return capacityNs > 0 ? busyNs / capacityNs : 0;
    }
};

/**
 * Measure layouts [0, count) the way Campaign::measureLayouts fans them
 * out: contiguous chunks on @p jobs workers, one MeasurementRunner per
 * chunk, each layout's steps timed by its own span.
 */
std::vector<core::Measurement>
measureChunked(const ProfileCtx &c, const CampaignConfig &cfg, u32 count,
               u32 jobs, ChunkStats &stats)
{
    std::vector<core::Measurement> out(count);
    exec::ThreadPool pool(jobs);
    const layout::Linker linker;
    std::mutex mutex;
    std::vector<u64> chunk_ns; // Guarded by mutex.
    const u64 t0 = nowNs();
    exec::parallelForChunks(pool, count, [&](size_t begin, size_t end) {
        Span chunk("exec.chunk");
        const u64 c0 = nowNs();
        core::MeasurementRunner runner(cfg.machine, cfg.runner);
        for (size_t k = begin; k < end; ++k) {
            Span layout_span("core.layout");
            const u32 index = static_cast<u32>(k);
            const trace::LayoutTables tables =
                campaignTables(c, cfg, linker, index);
            Span measure("core.measure");
            out[k] = runner.measure(c.plan, tables,
                                    cfg.layoutSeedBase + index);
        }
        const u64 dt = nowNs() - c0;
        std::lock_guard<std::mutex> lock(mutex);
        chunk_ns.push_back(dt);
    });
    const double wall = static_cast<double>(nowNs() - t0);
    if (!chunk_ns.empty()) {
        double sum = 0.0, slowest = 0.0;
        for (u64 ns : chunk_ns) {
            sum += static_cast<double>(ns);
            slowest = std::max(slowest, static_cast<double>(ns));
        }
        stats.busyNs += sum;
        stats.capacityNs += wall * pool.workers();
        stats.slowestNs += slowest;
        stats.meanNs += sum / static_cast<double>(chunk_ns.size());
    }
    return out;
}

/** What the traced iteration leaves for the probes. */
struct Traced
{
    double wallS = 0.0; ///< The traced iteration, probes excluded.
    u64 layouts = 0;    ///< Layout evaluations it made.
    u64 events = 0;     ///< Replayed events over those layouts.
    u64 failed = 0;     ///< Decomposed results differing from the run's.
    ChunkStats chunks;
    std::unique_ptr<ProfileCtx> ref; ///< The probes' profile.
    CampaignConfig refCfg;           ///< Its layout recipe.
    std::vector<core::Measurement> samples; ///< For the *_mpki metrics.
    std::unique_ptr<opt::FitnessOracle> oracle; ///< optimize only.
    opt::OptResult optResult;                   ///< optimize only.
};

/**
 * Write @p t's samples as one batch of a fresh CampaignStore in the
 * empty directory @p dir, under the probe profile's campaign key, then
 * reopen it warm and reload them, each step under its span. False when
 * the reload changes any byte.
 */
bool
storeRoundTrip(const std::string &dir, const Traced &t)
{
    const u64 key = store::campaignKey(
        t.ref->prog, t.ref->profile->behaviourSeed, t.refCfg);
    {
        Span span("store.append");
        store::CampaignStore st(dir, key);
        st.appendBatch(0, t.samples);
    }
    std::vector<core::Measurement> loaded;
    {
        Span span("store.load");
        store::CampaignStore st(dir, key);
        loaded = st.loadSamples();
    }
    return samplesDigest(loaded) == samplesDigest(t.samples);
}

Traced
tracedSuite(const Scale &s, u64 seed, const Outputs &base)
{
    Traced t;
    t.refCfg = suiteConfig(s, seed);
    const CampaignConfig &cfg = t.refCfg;
    const auto &suite = workloads::specSuite();
    const layout::Linker linker;
    const u64 t0 = nowNs();
    {
        Span iteration("workload.iteration");
        pinsim::PinSim sim(bpred::figureCandidateSpecs());
        for (size_t p = 0; p < suite.size(); ++p) {
            const auto &entry = suite[p];
            const std::vector<core::Measurement> &want =
                base.suite[p].samples;
            const u32 used = static_cast<u32>(want.size());
            std::unique_ptr<ProfileCtx> c =
                buildCtx(entry.profile, cfg.instructionBudget, cfg.machine);
            std::vector<core::Measurement> samples =
                measureChunked(*c, cfg, used, 1, t.chunks);
            t.layouts += used;
            t.events += used * c->plan.eventCount();
            if (samplesDigest(samples) != samplesDigest(want))
                ++t.failed;
            std::optional<interferometry::PerformanceModel> model;
            {
                Span span("interferometry.model");
                model.emplace(entry.profile.name, samples);
                (void)model->table1Row();
            }
            if (entry.expectSignificant) {
                std::vector<std::vector<pinsim::PredictorResult>> per_layout;
                for (u32 i = 0; i < used; ++i) {
                    Span span("pinsim.replay");
                    layout::LayoutKey key;
                    key.seed = cfg.layoutSeedBase + i;
                    const trace::LayoutTables tables(
                        c->plan, linker.link(c->prog, key));
                    per_layout.push_back(sim.replay(c->plan, tables));
                }
                const std::vector<double> mpki =
                    pinsim::averageMpki(per_layout);
                Span span("interferometry.model");
                interferometry::PredictorEvaluator eval(*model,
                                                        model->meanCpi());
                for (size_t k = 0; k < mpki.size(); ++k)
                    (void)eval.evaluate(sim.predictorName(k), mpki[k]);
                (void)eval.evaluatePerfect();
            }
            t.samples.insert(t.samples.end(), samples.begin(),
                             samples.end());
            if (entry.profile.name == kSuiteProbeProfile)
                t.ref = std::move(c);
        }
    }
    t.wallS = seconds(nowNs() - t0);
    return t;
}

Traced
tracedParallel(const Options &o, const Scale &s, const Outputs &base)
{
    Traced t;
    t.refCfg = parallelConfig(s, o.seed);
    const CampaignConfig &cfg = t.refCfg;
    const auto &profile = workloads::specFor(kParallelProfile).profile;
    const std::string dir = kOutDir + "/traced-store";
    fs::remove_all(dir);
    const u64 t0 = nowNs();
    {
        Span iteration("workload.iteration");
        t.ref = buildCtx(profile, cfg.instructionBudget, cfg.machine);
        t.samples = measureChunked(*t.ref, cfg, s.parallelLayouts, cfg.jobs,
                                   t.chunks);
        if (!storeRoundTrip(dir, t))
            ++t.failed;
    }
    t.wallS = seconds(nowNs() - t0);
    fs::remove_all(dir);
    t.layouts = s.parallelLayouts;
    t.events = t.layouts * t.ref->plan.eventCount();
    if (samplesDigest(t.samples) != samplesDigest(base.samples))
        ++t.failed;
    return t;
}

Traced
tracedOptimize(const Options &o, const Scale &s, const Outputs &base)
{
    Traced t;
    opt::OptConfig oc = optConfig(s, o.seed);
    oc.storeDir = kOutDir + "/traced-fitness";
    fs::remove_all(oc.storeDir);
    const auto &profile = workloads::specFor(kOptProfile).profile;
    // The search's set-up is one opaque constructor; its parts are
    // timed by building the same program, trace and plan beside it.
    t.ref = buildCtx(profile, oc.instructionBudget, oc.machine);
    const u64 t0 = nowNs();
    {
        Span iteration("workload.iteration");
        {
            Span span("opt.oracle_setup");
            t.oracle = std::make_unique<opt::FitnessOracle>(profile, oc);
        }
        Span span("opt.search");
        t.optResult = opt::makeOptimizer(*t.oracle, oc)->run();
    }
    t.wallS = seconds(nowNs() - t0);
    if (t.optResult.trajectory.dump() != base.opt.trajectory.dump())
        ++t.failed;
    // The search hides its per-layout steps, so they are timed on
    // seeded layouts of the same program.
    t.refCfg = optProbeConfig(s, o.seed);
    const u32 n = 4 * s.probeLayouts;
    t.samples = measureChunked(*t.ref, t.refCfg, n, 1, t.chunks);
    t.layouts = t.optResult.freshEvals + n;
    t.events = n * t.ref->plan.eventCount();
    return t;
}

// ---------------------------------------------- single-layer probes

/** One layout's per-structure access streams, in kernel order. */
struct Streams
{
    std::vector<Addr> fetch; ///< Physical fetch lines.
    std::vector<Addr> data;  ///< Physical data addresses.
    std::vector<Addr> condPc;
    std::vector<u8> condTaken;
    std::vector<Addr> btbPc;
    std::vector<u32> btbTarget; ///< Target site token, as the kernel.
    /** @{ Stream positions where the warmup ends (stats restart). */
    size_t fetchWarm = 0, dataWarm = 0, condWarm = 0, btbWarm = 0;
    /** @} */
};

/** Record the streams Machine::replay feeds each structure. */
Streams
recordStreams(const trace::ReplayPlan &plan,
              const trace::LayoutTables &tables,
              const core::MachineConfig &m)
{
    using trace::ReplayPlan;
    Streams st;
    const u32 line_bytes = m.hierarchy.l1i.lineBytes;
    const u64 line_mask = ~static_cast<u64>(line_bytes - 1);
    const size_t n = plan.eventCount();
    const size_t warm = static_cast<size_t>(static_cast<double>(n) *
                                            m.warmupFraction);
    Addr last_line = ~Addr{0};
    size_t mem = 0;
    for (size_t e = 0; e < n; ++e) {
        if (e == warm) {
            st.fetchWarm = st.fetch.size();
            st.dataWarm = st.data.size();
            st.condWarm = st.condPc.size();
            st.btbWarm = st.btbPc.size();
        }
        const u32 s = plan.site[e];
        const Addr addr = tables.siteAddr[s];
        const Addr first = addr & line_mask;
        const Addr last = (addr + plan.bytes[e] - 1) & line_mask;
        for (Addr line = first; line <= last; line += line_bytes) {
            if (line == last_line)
                continue;
            last_line = line;
            st.fetch.push_back(tables.pages().translate(line));
        }
        for (u32 k = 0; k < plan.nMem[e]; ++k)
            st.data.push_back(tables.dataAddr[mem++]);
        const u8 f = plan.flags[e];
        if (!(f & ReplayPlan::kHasBranch))
            continue;
        const Addr pc = tables.branchAddr[s];
        if (f & ReplayPlan::kCond) {
            st.condPc.push_back(pc);
            st.condTaken.push_back((f & ReplayPlan::kTaken) ? 1 : 0);
        }
        if (f & ReplayPlan::kReturn) {
            last_line = ~Addr{0};
            continue;
        }
        if (f & ReplayPlan::kTaken) {
            st.btbPc.push_back(pc);
            st.btbTarget.push_back(plan.targetSite[e]);
            last_line = ~Addr{0};
        }
    }
    return st;
}

/** Cost and misses of one structure fed its stream alone. */
struct Alone
{
    double nsPerAccess = 0.0;
    u64 misses = 0; ///< After the warmup, like the kernel's counters.
};

/**
 * Time @p step over stream positions [0, n), fastest of three passes
 * on freshly reset state; @p reset restores power-on state and @p
 * misses reads the counter that restarted at position @p warm.
 */
template <typename Reset, typename Step, typename ClearStats,
          typename Misses>
Alone
timeAlone(size_t n, size_t warm, Reset reset, Step step,
          ClearStats clear_stats, Misses misses)
{
    Alone a;
    u64 best = ~u64{0};
    for (int pass = 0; pass < 3; ++pass) {
        reset();
        const u64 t0 = nowNs();
        for (size_t i = 0; i < warm; ++i)
            step(i);
        clear_stats();
        for (size_t i = warm; i < n; ++i)
            step(i);
        best = std::min(best, nowNs() - t0);
        a.misses = misses();
    }
    a.nsPerAccess = n ? static_cast<double>(best) / static_cast<double>(n)
                      : 0.0;
    return a;
}

struct StreamCosts
{
    Alone l1i, data, xeon, btb, ltage;
};

StreamCosts
probeStreams(const trace::ReplayPlan &plan,
             const trace::LayoutTables &tables,
             const core::MachineConfig &m, const core::RunResult &full)
{
    const Streams st = recordStreams(plan, tables, m);
    StreamCosts c;
    {
        cache::MemoryHierarchy h(m.hierarchy);
        c.l1i = timeAlone(
            st.fetch.size(), st.fetchWarm, [&] { h.reset(); },
            [&](size_t i) { (void)h.fetchInst(st.fetch[i]); },
            [&] { h.clearStats(); }, [&] { return h.stats().l1i.misses; });
        c.data = timeAlone(
            st.data.size(), st.dataWarm, [&] { h.reset(); },
            [&](size_t i) { (void)h.accessData(st.data[i]); },
            [&] { h.clearStats(); }, [&] { return h.stats().l1d.misses; });
    }
    auto predictor_alone = [&](const std::string &spec) {
        bpred::PredictorPtr p = bpred::makePredictor(spec);
        u64 misses = 0;
        return timeAlone(
            st.condPc.size(), st.condWarm,
            [&] {
                p->reset();
                misses = 0;
            },
            [&](size_t i) {
                const bool taken = st.condTaken[i] != 0;
                misses += p->predictAndTrain(st.condPc[i], taken) != taken;
            },
            [&] { misses = 0; }, [&] { return misses; });
    };
    c.xeon = predictor_alone(m.predictorSpec);
    c.ltage = predictor_alone("ltage");
    {
        bpred::Btb btb(m.btbSets, m.btbWays);
        u64 misses = 0;
        c.btb = timeAlone(
            st.btbPc.size(), st.btbWarm,
            [&] {
                btb.reset();
                misses = 0;
            },
            [&](size_t i) {
                const bpred::BtbResult hit =
                    btb.lookupUpdate(st.btbPc[i], st.btbTarget[i]);
                misses += !(hit.hit && hit.target == st.btbTarget[i]);
            },
            [&] { misses = 0; }, [&] { return misses; });
    }
    auto line = [](const char *what, u64 alone, u64 kernel) {
        std::printf("stream %-22s alone %10llu  replay %10llu  %s\n", what,
                    static_cast<unsigned long long>(alone),
                    static_cast<unsigned long long>(kernel),
                    alone == kernel ? "match" : "MISMATCH");
    };
    line("l1i misses", c.l1i.misses, full.l1iMisses);
    line("l1d misses", c.data.misses, full.l1dMisses);
    line("xeon mispredicts", c.xeon.misses, full.mispredicts);
    line("btb misses", c.btb.misses, full.btbMisses);
    return c;
}

/**
 * Protocol cost: MeasurementRunner::measure minus Machine::replay on
 * the same tables, fastest of many. An event-free plan leaves replay
 * with only the power-on reset both calls pay, so the difference is the
 * protocol alone instead of a small gap between two large times.
 */
double
probeProtocolUs(const ProfileCtx &c, const CampaignConfig &cfg)
{
    const trace::ReplayPlan plan;
    const layout::Linker linker;
    const trace::LayoutTables tables(
        plan, linker.link(c.prog, layout::LayoutKey::identity()),
        layout::HeapLayout(c.prog, layout::HeapKey::deterministic()));
    core::Machine machine(cfg.machine);
    core::MeasurementRunner runner(cfg.machine, cfg.runner);
    u64 best_measure = ~u64{0}, best_replay = ~u64{0};
    for (int rep = 0; rep < 200; ++rep) {
        u64 t0 = nowNs();
        (void)runner.measure(plan, tables, cfg.layoutSeedBase + rep);
        best_measure = std::min(best_measure, nowNs() - t0);
        t0 = nowNs();
        (void)machine.replay(plan, tables);
        best_replay = std::min(best_replay, nowNs() - t0);
    }
    return (static_cast<double>(best_measure) -
            static_cast<double>(best_replay)) /
           1e3;
}

/**
 * Differential-replay headroom: the fraction of events whose fetch
 * line or data line differs between a parent layout and one child of
 * each move kind, averaged over a fixed sample of proposals.
 */
std::vector<double>
probeChangedEvents(const ProfileCtx &c, const core::MachineConfig &m,
                   u64 seed, u32 samples)
{
    const layout::Linker linker;
    const layout::PageMap pages(seed + 1);
    const u32 iline = m.hierarchy.l1i.lineBytes;
    const u32 dline = m.hierarchy.l1d.lineBytes;
    auto tables_of = [&](const opt::CandidateLayout &cand) {
        layout::HeapKey hk;
        hk.randomize = true;
        hk.seed = cand.heapSeed;
        return trace::LayoutTables(c.plan, linker.link(c.prog, cand.code),
                                   layout::HeapLayout(c.prog, hk), pages,
                                   iline);
    };
    opt::CandidateLayout parent;
    layout::LayoutKey key;
    key.seed = layoutSeedBase(seed);
    parent.code = linker.specFor(c.prog, key);
    parent.heapSeed = key.seed;
    const trace::LayoutTables pt = tables_of(parent);
    const opt::Neighborhood nb(c.prog, true);
    const trace::ReplayPlan &plan = c.plan;
    std::vector<double> out;
    for (u32 k = 0; k < opt::kMoveKinds; ++k) {
        const auto kind = static_cast<opt::MoveKind>(k);
        if (!nb.kindAvailable(kind)) {
            out.push_back(0.0);
            continue;
        }
        Rng rng(seed * opt::kMoveKinds + k + 1);
        double frac_sum = 0.0;
        for (u32 j = 0; j < samples; ++j) {
            opt::CandidateLayout child = parent;
            nb.proposeOfKind(kind, child, rng);
            const trace::LayoutTables ct = tables_of(child);
            u64 changed = 0;
            size_t mem = 0;
            for (size_t e = 0; e < plan.eventCount(); ++e) {
                const u32 s = plan.site[e];
                const Addr pa = pt.siteAddr[s], ca = ct.siteAddr[s];
                const u32 b = plan.bytes[e] - 1;
                bool diff = pages.translate(pa / iline * iline) !=
                                pages.translate(ca / iline * iline) ||
                            pages.translate((pa + b) / iline * iline) !=
                                pages.translate((ca + b) / iline * iline);
                for (u32 r = 0; r < plan.nMem[e]; ++r, ++mem)
                    diff |= pt.dataAddr[mem] / dline !=
                            ct.dataAddr[mem] / dline;
                changed += diff;
            }
            frac_sum += static_cast<double>(changed) /
                        static_cast<double>(plan.eventCount());
        }
        out.push_back(frac_sum / samples);
    }
    return out;
}

// ------------------------------------------------------------ report

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, u64 attempted, u64 failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    jsonNumber(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

/** Per-layer metrics from the traced iteration plus the probes. */
std::vector<Metric>
layerMetrics(const Options &o, const Scale &s, Traced &t,
             const std::vector<Iteration> &its, u64 &failed)
{
    Tracer &tracer = Tracer::global();
    const ProfileCtx &ref = *t.ref;
    const CampaignConfig &cfg = t.refCfg;
    const core::MachineConfig &machine = cfg.machine;

    // Probe spans stay out of the traced iteration's totals; the
    // optimize workload's set-up parts were recorded before it.
    const auto spans = tracer.totals();
    tracer.setEnabled(false);
    auto mean_ns = [&](const char *name) {
        auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.meanNs();
    };

    const layout::Linker linker;
    std::vector<trace::LayoutTables> tables;
    for (u32 i = 0; i < s.probeLayouts; ++i)
        tables.push_back(campaignTables(ref, cfg, linker, i));

    // Kernel alone.
    core::Machine mach(machine);
    core::RunResult first_run;
    u64 replay_ns = 0;
    for (u32 i = 0; i < tables.size(); ++i) {
        const u64 t0 = nowNs();
        core::RunResult r = mach.replay(ref.plan, tables[i]);
        replay_ns += nowNs() - t0;
        if (i == 0)
            first_run = r;
    }
    const double replay_ns_per_event =
        static_cast<double>(replay_ns) /
        static_cast<double>(tables.size() * ref.plan.eventCount());

    const StreamCosts streams =
        probeStreams(ref.plan, tables[0], machine, first_run);
    const double protocol_us = probeProtocolUs(ref, cfg);

    // PinSim, per layout.
    double pinsim_us = mean_ns("pinsim.replay") / 1e3;
    if (o.workload != Workload::Suite) {
        pinsim::PinSim sim(bpred::figureCandidateSpecs());
        const u64 t0 = nowNs();
        for (const auto &tab : tables)
            (void)sim.replay(ref.plan, tab);
        pinsim_us = static_cast<double>(nowNs() - t0) / 1e3 /
                    static_cast<double>(tables.size());
    }

    // Models: PerformanceModel + table1Row + PredictorEvaluator.
    double model_ms = 0.0;
    if (o.workload == Workload::Suite) {
        auto it = spans.find("interferometry.model");
        const double profiles =
            static_cast<double>(workloads::specSuite().size());
        model_ms = it == spans.end()
                       ? 0.0
                       : static_cast<double>(it->second.totalNs) / 1e6 /
                             profiles;
    } else {
        const u64 t0 = nowNs();
        interferometry::PerformanceModel model(ref.profile->name, t.samples);
        (void)model.table1Row();
        interferometry::PredictorEvaluator eval(model, model.meanCpi());
        (void)eval.evaluatePerfect();
        model_ms = static_cast<double>(nowNs() - t0) / 1e6;
    }

    // Fitness store: per-entry save and load.
    const u64 key = store::campaignKey(ref.prog, ref.profile->behaviourSeed,
                                       cfg);
    double fit_save_us = 0.0, fit_load_us = 0.0;
    {
        const std::string dir = kOutDir + "/probe-fitness";
        fs::remove_all(dir);
        const store::FitnessStore fstore(dir, key);
        const size_t n = std::min<size_t>(t.samples.size(), 64);
        const u64 t0 = nowNs();
        for (size_t i = 0; i < n; ++i)
            fstore.save(key + i, t.samples[i]);
        const u64 t1 = nowNs();
        for (size_t i = 0; i < n; ++i) {
            const std::optional<core::Measurement> m = fstore.load(key + i);
            if (!m || !sameMeasurement(*m, t.samples[i]))
                ++failed;
        }
        fit_save_us = static_cast<double>(t1 - t0) / 1e3 / n;
        fit_load_us = static_cast<double>(nowNs() - t1) / 1e3 / n;
        fs::remove_all(dir);
    }

    // Optimizer: proposal and evaluation cost, cache hits.
    opt::OptConfig oc = optConfig(s, o.seed);
    std::unique_ptr<opt::FitnessOracle> own_oracle;
    opt::FitnessOracle *oracle = t.oracle.get();
    double cache_hit_frac = 0.0;
    if (oracle == nullptr) {
        // A short search on the probe profile stands in for the
        // optimize workload's own.
        oc.instructionBudget = cfg.instructionBudget;
        oc.budget = std::max<u32>(8, s.optBudget / 4);
        own_oracle =
            std::make_unique<opt::FitnessOracle>(*ref.profile, oc);
        oracle = own_oracle.get();
        t.optResult = opt::makeOptimizer(*oracle, oc)->run();
    }
    {
        const double evals = static_cast<double>(t.optResult.freshEvals +
                                                 t.optResult.cachedEvals);
        cache_hit_frac =
            evals > 0 ? static_cast<double>(t.optResult.cachedEvals) / evals
                      : 0.0;
    }
    opt::Neighborhood nb(oracle->program(), oc.randomizeHeap);
    Rng rng(o.seed + 7);
    opt::CandidateLayout walker = oracle->seededCandidate(o.seed + 11);
    const u32 proposals = 1000;
    const u64 p0 = nowNs();
    for (u32 i = 0; i < proposals; ++i)
        (void)nb.propose(walker, rng);
    const double propose_us =
        static_cast<double>(nowNs() - p0) / 1e3 / proposals;
    double evaluate_ns = 0.0;
    const u32 eval_calls = 3;
    for (u32 call = 0; call < eval_calls; ++call) {
        std::vector<opt::CandidateLayout> cands(oc.proposalsPerStep, walker);
        for (auto &cand : cands)
            (void)nb.propose(cand, rng);
        const u64 t0 = nowNs();
        (void)oracle->evaluate(cands);
        evaluate_ns += static_cast<double>(nowNs() - t0);
    }
    const double evaluate_ms = evaluate_ns / 1e6 / eval_calls;

    const std::vector<double> changed = probeChangedEvents(
        ref, machine, o.seed, o.tiny ? 2 : 8);

    // Serial share of the untraced iterations.
    std::vector<double> serial;
    for (const Iteration &it : its)
        serial.push_back(1.0 - it.evalS / it.wallS);
    std::vector<double> untraced_wall;
    for (const Iteration &it : its)
        untraced_wall.push_back(it.wallS);

    auto layout_durations = [&]() {
        std::vector<double> us;
        auto it = spans.find("core.layout");
        if (it != spans.end())
            for (u64 ns : it->second.durationsNs)
                us.push_back(static_cast<double>(ns) / 1e3);
        return us;
    }();

    const double events_per_layout =
        layout_durations.empty()
            ? 0.0
            : static_cast<double>(t.events) /
                  static_cast<double>(layout_durations.size());
    double l1i = 0, l1d = 0, l2 = 0, mpki = 0, btb = 0;
    for (const auto &m : t.samples) {
        l1i += m.l1iMpki;
        l1d += m.l1dMpki;
        l2 += m.l2Mpki;
        mpki += m.mpki;
        btb += m.btbMpki;
    }
    const double ns = static_cast<double>(std::max<size_t>(1, t.samples.size()));

    std::vector<Metric> m = {
        {"workloads.build_ms", mean_ns("workloads.build") / 1e6, "ms"},
        {"trace.generate_ms", mean_ns("trace.generate") / 1e6, "ms"},
        {"trace.plan_compile_ms", mean_ns("trace.plan_compile") / 1e6, "ms"},
        {"trace.tables_us", mean_ns("trace.tables") / 1e3, "us"},
        {"analyze.sound_ms", mean_ns("analyze.sound") / 1e6, "ms"},
        {"layout.link_us", mean_ns("layout.link") / 1e3, "us"},
        {"layout.heap_us", mean_ns("layout.heap") / 1e3, "us"},
        {"core.replay_ns_per_event", replay_ns_per_event, "ns"},
        {"core.events_per_layout", events_per_layout, "count"},
        {"core.protocol_us", protocol_us, "us"},
        {"core.layout_us_p50", percentile(layout_durations, 0.50), "us"},
        {"core.layout_us_p99", percentile(layout_durations, 0.99), "us"},
        {"core.layout_samples", static_cast<double>(layout_durations.size()),
         "count"},
        {"cache.l1i_ns_per_fetch", streams.l1i.nsPerAccess, "ns"},
        {"cache.data_ns_per_access", streams.data.nsPerAccess, "ns"},
        {"cache.l1i_mpki", l1i / ns, "mpki"},
        {"cache.l1d_mpki", l1d / ns, "mpki"},
        {"cache.l2_mpki", l2 / ns, "mpki"},
        {"bpred.xeon_ns_per_branch", streams.xeon.nsPerAccess, "ns"},
        {"bpred.btb_ns_per_lookup", streams.btb.nsPerAccess, "ns"},
        {"bpred.mpki", mpki / ns, "mpki"},
        {"bpred.btb_mpki", btb / ns, "mpki"},
        {"pinsim.us_per_layout", pinsim_us, "us"},
        {"bpred.ltage_ns_per_branch", streams.ltage.nsPerAccess, "ns"},
        {"interferometry.model_ms", model_ms, "ms"},
        {"store.append_ms", mean_ns("store.append") / 1e6, "ms"},
        {"store.load_ms", mean_ns("store.load") / 1e6, "ms"},
        {"store.fitness_save_us", fit_save_us, "us"},
        {"store.fitness_load_us", fit_load_us, "us"},
        {"opt.evaluate_ms", evaluate_ms, "ms"},
        {"opt.propose_us", propose_us, "us"},
        {"opt.cache_hit_frac", cache_hit_frac, "ratio"},
        {"opt.changed_event_frac.proc_swap", changed[0], "ratio"},
        {"opt.changed_event_frac.proc_reinsert", changed[1], "ratio"},
        {"opt.changed_event_frac.file_block_move", changed[2], "ratio"},
        {"opt.changed_event_frac.heap_shuffle", changed[3], "ratio"},
        {"exec.serial_frac", median(serial), "ratio"},
        {"exec.chunk_imbalance", t.chunks.imbalance(), "ratio"},
        {"exec.efficiency", t.chunks.efficiency(), "ratio"},
        {"trace_overhead_frac", t.wallS / median(untraced_wall) - 1.0,
         "ratio"},
    };
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const Scale &s = o.tiny ? kTiny : kFull;
    // The program's own telemetry stays off: the benchmark times the
    // layers from outside.
    telemetry::disable();
    fs::create_directories(kOutDir);

    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, "
                "scale %s, %u hardware threads\n",
                o.workloadName.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, o.tiny ? "tiny" : "full",
                exec::ThreadPool::hardwareWorkers());

    // Timed closed loop.
    std::vector<Iteration> its;
    Outputs keep;
    u64 attempted = 0, failed = 0;
    const u64 start = nowNs();
    do {
        const size_t index = its.size();
        Iteration it = runIteration(o, s, index == 0 ? &keep : nullptr);
        attempted += it.layouts;
        failed += it.failed;
        if (it.digest != (its.empty() ? it.digest : its.front().digest))
            ++failed; // Same seed, same inputs: outputs must repeat.
        std::printf("iteration %zu: wall %.4f s, setup %.4f s, eval %.4f s, "
                    "%llu layouts, digest %s\n",
                    index, it.wallS, it.setupS, it.evalS,
                    static_cast<unsigned long long>(it.layouts),
                    digestHex(it.digest).c_str());
        its.push_back(it);
    } while (seconds(nowNs() - start) < o.seconds);
    const double peak_rss_mb = peakRssMb();

    // Output check, outside the timed region.
    if (o.corrupt)
        corruptOneSample(o.workload, keep);
    CheckResult chk;
    switch (o.workload) {
      case Workload::Suite:
        chk = checkSuite(s, o.seed, keep);
        break;
      case Workload::Parallel:
        chk = checkParallel(s, o.seed, keep);
        break;
      case Workload::Optimize:
        chk = checkOptimize(s, o.seed, keep);
        break;
    }
    failed += chk.failed;
    for (size_t p = 0; p < keep.suite.size(); ++p)
        std::printf("suite %-16s %3zu layouts%s\n",
                    workloads::specSuite()[p].profile.name.c_str(),
                    keep.suite[p].samples.size(),
                    keep.suite[p].significant ? ", significant" : "");
    std::printf("check: %llu layouts re-derived through runReference, "
                "%llu mismatched\n",
                static_cast<unsigned long long>(chk.checked),
                static_cast<unsigned long long>(chk.failed));

    std::vector<double> wall, setup, rate;
    for (const Iteration &it : its) {
        wall.push_back(it.wallS);
        setup.push_back(it.setupS);
        rate.push_back(static_cast<double>(it.layouts) / it.evalS);
    }
    // Other tenants' load only ever adds time, and on a shared host it
    // comes in episodes as long as a run: the fastest iteration is the
    // steady estimate of the workload's own cost (see NOTES.md).
    const double wall_s = *std::min_element(wall.begin(), wall.end());
    const double layouts_per_s = *std::max_element(rate.begin(), rate.end());
    const double failed_frac =
        attempted ? static_cast<double>(failed) / attempted : 0.0;
    std::printf("samples digest %s\n", digestHex(its.front().digest).c_str());
    std::printf("median of %zu iterations: wall %.4f s, %.1f layouts/s\n",
                its.size(), median(wall), median(rate));
    std::printf("e2e wall_s %.4f s | setup_s %.4f s | layouts_per_s %.1f 1/s"
                " | peak_rss_mb %.1f MiB | failed_frac %.4g ratio",
                wall_s, median(setup), layouts_per_s, peak_rss_mb,
                failed_frac);
    if (o.workload == Workload::Suite)
        std::printf(" | predict_err_pct %.4f %%", chk.predictErrPct);
    if (o.workload == Workload::Optimize) {
        const auto &tr = keep.opt.trajectory;
        std::printf(" | opt_gain_pct %.4f %%",
                    100.0 *
                        (static_cast<double>(tr.initialCycles) -
                         static_cast<double>(tr.finalCycles)) /
                        static_cast<double>(tr.initialCycles));
        Digest d;
        d.mixString(tr.dump());
        std::printf("\ntrajectory digest %s", digestHex(d.value()).c_str());
    }
    std::printf("\n");

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"wall_s", wall_s, "s"},
            {"setup_s", median(setup), "s"},
            {"layouts_per_s", layouts_per_s, "1/s"},
            {"peak_rss_mb", peak_rss_mb, "MiB"},
        };
    } else {
        Tracer::global().setEnabled(true);
        Traced t;
        switch (o.workload) {
          case Workload::Suite:
            t = tracedSuite(s, o.seed, keep);
            break;
          case Workload::Parallel:
            t = tracedParallel(o, s, keep);
            break;
          case Workload::Optimize:
            t = tracedOptimize(o, s, keep);
            break;
        }
        // campaign-parallel writes its store on the blocking path; the
        // other workloads' store cost is taken on their probe profile.
        const std::string probe_store = kOutDir + "/probe-store";
        fs::remove_all(probe_store);
        if (o.workload != Workload::Parallel &&
            !storeRoundTrip(probe_store, t))
            ++t.failed;
        fs::remove_all(probe_store);
        attempted += t.layouts;
        failed += t.failed;
        metrics = layerMetrics(o, s, t, its, failed);
        fs::remove_all(kOutDir + "/traced-fitness");
        const std::string path = kOutDir + "/spans-" + o.workloadName +
                                 ".json";
        if (!Tracer::global().writeChromeTrace(path))
            std::printf("warning: could not write %s\n", path.c_str());
        for (const auto &[name, tot] : Tracer::global().totals())
            std::printf("span %-24s %6llu calls %12.3f ms total %12.3f ms "
                        "self\n",
                        name.c_str(), static_cast<unsigned long long>(tot.count),
                        static_cast<double>(tot.totalNs) / 1e6,
                        static_cast<double>(tot.selfNs) / 1e6);
        for (const Metric &m : metrics)
            std::printf("layer %-40s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}
