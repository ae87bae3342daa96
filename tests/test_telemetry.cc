/** @file Tests for the campaign telemetry layer: the determinism
 *  invariant (telemetry observes, never participates), metric shard
 *  aggregation, histogram bucket semantics, Chrome-trace export, run
 *  manifests and their atomic writes. */

#include <unistd.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/threadpool.hh"
#include "interferometry/campaign.hh"
#include "opt/optimizer.hh"
#include "store/serialize.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/progress.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "util/json.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using telemetry::Registry;
using telemetry::RunManifest;

/** RAII: telemetry enabled for one test, state cleared around it. */
struct TelemetryOn
{
    TelemetryOn()
    {
        telemetry::resetForTest();
        telemetry::enable();
    }
    ~TelemetryOn()
    {
        telemetry::disable();
        telemetry::resetForTest();
    }
};

std::string
tempDir(const char *tag)
{
    auto dir = std::filesystem::temp_directory_path() /
               (std::string("interf-telem-") + tag + "-" +
                std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

interferometry::CampaignConfig
quickConfig(u32 jobs)
{
    interferometry::CampaignConfig cfg;
    cfg.instructionBudget = 60000;
    cfg.initialLayouts = 6;
    cfg.maxLayouts = 6;
    cfg.jobs = jobs;
    return cfg;
}

u64
campaignChecksum(u32 jobs)
{
    auto cfg = quickConfig(jobs);
    interferometry::Campaign camp(workloads::defaultProfile("camp"),
                                  cfg);
    return store::samplesChecksum(camp.measureLayouts(0, 6));
}

/** The tentpole invariant: telemetry on/off cannot change a sample
 *  byte, serial or parallel. */
TEST(TelemetryDeterminism, SamplesIdenticalOnOrOff)
{
    telemetry::disable();
    const u64 off_serial = campaignChecksum(1);
    const u64 off_parallel = campaignChecksum(4);
    {
        TelemetryOn on;
        EXPECT_EQ(campaignChecksum(1), off_serial);
        EXPECT_EQ(campaignChecksum(4), off_parallel);
    }
    EXPECT_EQ(off_parallel, off_serial);
}

/** PR 10's flavor of the invariant: with the flight recorder writing
 *  and a progress observer subscribed, samples are still byte-identical
 *  to the telemetry-off run at every jobs value. */
TEST(TelemetryDeterminism, SamplesIdenticalWithRecorderAndProgressOn)
{
    telemetry::disable();
    const u32 jobs_axis[] = {1, 4};
    u64 off[2];
    for (int j = 0; j < 2; ++j)
        off[j] = campaignChecksum(jobs_axis[j]);

    const std::string dir = tempDir("recorder-det");
    {
        TelemetryOn on;
        telemetry::setOutputDir(dir); // Starts the flight recorder.
        auto prev = telemetry::setProgressObserver(
            [](const telemetry::ProgressEvent &) {});
        for (int j = 0; j < 2; ++j)
            EXPECT_EQ(campaignChecksum(jobs_axis[j]), off[j])
                << "jobs " << jobs_axis[j];
        telemetry::setProgressObserver(std::move(prev));
    } // TelemetryOn teardown stops + seals the recorder.
    std::filesystem::remove_all(dir);
}

/** Installs a progress observer that keeps each task's last event;
 *  restores the previous observer on destruction. Events arrive from
 *  pool workers too, hence the lock. */
struct LastProgress
{
    LastProgress()
    {
        prev_ = telemetry::setProgressObserver(
            [this](const telemetry::ProgressEvent &ev) {
                std::lock_guard<std::mutex> lock(mutex_);
                last_[ev.task] = ev;
            });
    }
    ~LastProgress() { telemetry::setProgressObserver(std::move(prev_)); }

    /** The last event published for @p task (done = 0 if none). */
    telemetry::ProgressEvent of(const std::string &task)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = last_.find(task);
        return it == last_.end() ? telemetry::ProgressEvent() : it->second;
    }

  private:
    std::mutex mutex_;
    std::map<std::string, telemetry::ProgressEvent> last_;
    telemetry::ProgressObserver prev_;
};

/** The same invariant for the optimizer, the layout evaluator's second
 *  caller: its trajectory and best sample are byte-identical with the
 *  flight recorder writing and a progress observer subscribed, and the
 *  search's one tracker ends at the full budget. */
TEST(TelemetryDeterminism, OptimizerIdenticalWithRecorderAndProgressOn)
{
    const auto profile = workloads::defaultProfile("opt-telem");
    opt::OptConfig cfg;
    cfg.instructionBudget = 30000;
    cfg.budget = 10;
    cfg.proposalsPerStep = 3;
    cfg.blameLayouts = 4;
    cfg.seed = 7;
    cfg.strategy = opt::Strategy::Anneal;
    cfg.randomizeHeap = true;
    u64 fresh_evals = 0;
    auto search = [&](u32 jobs) {
        opt::OptConfig c = cfg;
        c.jobs = jobs;
        opt::FitnessOracle oracle(profile, c);
        const opt::OptResult res = opt::makeOptimizer(oracle, c)->run();
        fresh_evals = res.freshEvals;
        return res.trajectory.dump() +
               std::to_string(store::samplesChecksum({res.bestSample}));
    };

    telemetry::disable();
    const u32 jobs_axis[] = {1, 4};
    std::string off[2];
    for (int j = 0; j < 2; ++j)
        off[j] = search(jobs_axis[j]);
    EXPECT_EQ(off[0], off[1]);

    const std::string dir = tempDir("recorder-opt");
    {
        TelemetryOn on;
        telemetry::setOutputDir(dir); // Starts the flight recorder.
        LastProgress progress;
        for (int j = 0; j < 2; ++j) {
            EXPECT_EQ(search(jobs_axis[j]), off[j])
                << "jobs " << jobs_axis[j];
            const telemetry::ProgressEvent ev = progress.of("opt.anneal");
            EXPECT_EQ(ev.done, cfg.budget) << "jobs " << jobs_axis[j];
            EXPECT_EQ(ev.fresh, fresh_evals) << "jobs " << jobs_axis[j];
            EXPECT_EQ(ev.cached + ev.fresh, ev.done);
        }
    }
    std::filesystem::remove_all(dir);
}

/** Campaign progress, ticked from pool workers: a partially cached
 *  batch ends at done = count with the store hits and fresh
 *  measurements split out. */
TEST(TelemetryProgress, CampaignTrackerCountsCachedAndFreshLayouts)
{
    const std::string dir = tempDir("progress-store");
    auto cfg = quickConfig(4);
    cfg.storeDir = dir;
    {
        interferometry::Campaign cold(workloads::defaultProfile("camp"),
                                      cfg);
        cold.measureLayouts(0, 5);
    }
    {
        TelemetryOn on;
        LastProgress progress;
        interferometry::Campaign warm(workloads::defaultProfile("camp"),
                                      cfg);
        warm.measureLayouts(0, 8);
        const telemetry::ProgressEvent ev =
            progress.of("campaign.measure");
        EXPECT_EQ(ev.total, 8u);
        EXPECT_EQ(ev.done, 8u);
        EXPECT_EQ(ev.cached, 5u);
        EXPECT_EQ(ev.fresh, 3u);
    }
    std::filesystem::remove_all(dir);
}

TEST(TelemetryCore, DisabledByDefaultAndRecordingNoOps)
{
    telemetry::resetForTest();
    telemetry::disable();
    auto counter = Registry::global().counter("test.disabled");
    counter.add(5);
    telemetry::ScopedSpan span("test.disabled_span");
    for (const auto &c : Registry::global().snapshot().counters) {
        if (c.name == "test.disabled") {
            EXPECT_EQ(c.value, 0u);
        }
    }
}

TEST(TelemetryCore, CountersAggregateAcrossPoolThreads)
{
    TelemetryOn on;
    auto counter = Registry::global().counter("test.pool_adds");
    {
        exec::ThreadPool pool(4);
        exec::parallelFor(pool, 1000,
                          [&](size_t) { counter.add(1); });
        // Shards of live worker threads must already be visible...
        bool found = false;
        for (const auto &c : Registry::global().snapshot().counters)
            if (c.name == "test.pool_adds") {
                found = true;
                EXPECT_EQ(c.value, 1000u);
            }
        EXPECT_TRUE(found);
    }
    // ...and survive the workers' death via the retired fold.
    for (const auto &c : Registry::global().snapshot().counters) {
        if (c.name == "test.pool_adds") {
            EXPECT_EQ(c.value, 1000u);
        }
    }
}

TEST(TelemetryCore, GaugeKeepsLastValue)
{
    TelemetryOn on;
    auto gauge = Registry::global().gauge("test.gauge");
    gauge.set(7);
    gauge.set(-3);
    for (const auto &g : Registry::global().snapshot().gauges) {
        if (g.name == "test.gauge") {
            EXPECT_EQ(g.value, -3);
        }
    }
}

TEST(TelemetryHistogram, BucketBoundariesAreUpperInclusive)
{
    TelemetryOn on;
    auto histo = Registry::global().histogram("test.le",
                                              {10, 20, 50});
    // "le" semantics: a value lands in the first bucket whose upper
    // bound >= value; exactly-on-boundary goes to that bucket.
    histo.record(0);   // -> le 10
    histo.record(10);  // -> le 10 (boundary inclusive)
    histo.record(11);  // -> le 20
    histo.record(20);  // -> le 20
    histo.record(50);  // -> le 50
    histo.record(51);  // -> overflow
    histo.record(9999);// -> overflow
    for (const auto &h : Registry::global().snapshot().histograms) {
        if (h.name != "test.le")
            continue;
        ASSERT_EQ(h.bounds, (std::vector<u64>{10, 20, 50}));
        ASSERT_EQ(h.counts.size(), 3u);
        EXPECT_EQ(h.counts[0], 2u);
        EXPECT_EQ(h.counts[1], 2u);
        EXPECT_EQ(h.counts[2], 1u);
        EXPECT_EQ(h.overflow, 2u);
        EXPECT_EQ(h.sum, 0u + 10 + 11 + 20 + 50 + 51 + 9999);
        EXPECT_EQ(h.total(), 7u);
    }
}

TEST(TelemetryHistogram, RegistrationIsIdempotentByName)
{
    TelemetryOn on;
    auto a = Registry::global().histogram("test.same", {1, 2});
    auto b = Registry::global().histogram("test.same", {1, 2});
    a.record(1);
    b.record(2);
    for (const auto &h : Registry::global().snapshot().histograms) {
        if (h.name == "test.same") {
            EXPECT_EQ(h.total(), 2u);
        }
    }
}

TEST(TelemetrySpans, PhaseStatsSinceReportsOnlyTheDelta)
{
    TelemetryOn on;
    { telemetry::ScopedSpan s("test.phase_a"); }
    auto base = telemetry::phaseStats();
    { telemetry::ScopedSpan s("test.phase_a"); }
    { telemetry::ScopedSpan s("test.phase_b"); }
    auto delta = telemetry::phaseStatsSince(base);
    u64 a_count = 0, b_count = 0;
    for (const auto &p : delta) {
        if (p.name == "test.phase_a")
            a_count = p.count;
        if (p.name == "test.phase_b")
            b_count = p.count;
    }
    EXPECT_EQ(a_count, 1u);
    EXPECT_EQ(b_count, 1u);
}

/** The per-name aggregates behind phaseStats() are monotonic: pushing
 *  more spans than the ring holds overwrites raw records (counted, by
 *  name) but never loses a count from the aggregate. */
TEST(TelemetrySpans, PhaseStatsSurviveRingWrapAround)
{
    TelemetryOn on;
    auto base = telemetry::phaseStats();
    ASSERT_EQ(telemetry::droppedSpans(), 0u);
    constexpr u64 kRing = 1 << 16; // span.cc's kRingCapacity.
    constexpr u64 kSpans = kRing + 5000;
    for (u64 i = 0; i < kSpans; ++i) {
        telemetry::ScopedSpan span("test.wrap");
    }
    u64 wrap_count = 0;
    for (const auto &p : telemetry::phaseStatsSince(base))
        if (p.name == "test.wrap")
            wrap_count = p.count;
    EXPECT_EQ(wrap_count, kSpans);
    // The ring started empty, so every overwritten record was ours.
    EXPECT_EQ(telemetry::droppedSpans(), kSpans - kRing);
    u64 dropped_by_name = 0;
    for (const auto &[name, count] : telemetry::droppedSpansByName())
        if (name == "test.wrap")
            dropped_by_name = count;
    EXPECT_EQ(dropped_by_name, kSpans - kRing);
}

/** Spans closed concurrently on pool workers all land in the ring with
 *  unique ids, and each one's parent is the span that enqueued the
 *  work on the main thread — the causal chain the flow arrows draw. */
TEST(TelemetrySpans, ConcurrentPoolWorkerSpansRecordCausalIds)
{
    TelemetryOn on;
    auto base = telemetry::phaseStats();
    {
        telemetry::ScopedSpan parent("test.enqueue_parent");
        exec::ThreadPool pool(4);
        exec::parallelFor(pool, 512, [](size_t) {
            telemetry::ScopedSpan s("test.worker_span");
        });
    }
    u64 workers = 0, parents = 0;
    for (const auto &p : telemetry::phaseStatsSince(base)) {
        if (p.name == "test.worker_span")
            workers = p.count;
        if (p.name == "test.enqueue_parent")
            parents = p.count;
    }
    EXPECT_EQ(workers, 512u);
    EXPECT_EQ(parents, 1u);

    const std::string dir = tempDir("causal");
    const std::string path = dir + "/trace.json";
    telemetry::writeChromeTrace(path);
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parseFile(path, doc, &error)) << error;
    u64 parent_id = 0;
    for (const auto &ev : doc.get("traceEvents").elements())
        if (ev.get("ph").asString() == "X" &&
            ev.get("name").asString() == "test.enqueue_parent")
            parent_id = ev.get("args").get("span_id").asU64();
    ASSERT_NE(parent_id, 0u);
    std::set<u64> worker_ids;
    size_t flow_starts = 0;
    for (const auto &ev : doc.get("traceEvents").elements()) {
        const std::string ph = ev.get("ph").asString();
        if (ph == "s")
            ++flow_starts;
        if (ph != "X" ||
            ev.get("name").asString() != "test.worker_span")
            continue;
        worker_ids.insert(ev.get("args").get("span_id").asU64());
        EXPECT_EQ(ev.get("args").get("parent_span_id").asU64(),
                  parent_id);
    }
    EXPECT_EQ(worker_ids.size(), 512u); // All distinct, all in the ring.
    EXPECT_GE(flow_starts, 1u); // Cross-thread arrows were emitted.
    std::filesystem::remove_all(dir);
}

/** The exported trace must be valid Chrome trace-event JSON: "M"
 *  metadata naming every thread plus "X" complete events with ts/dur
 *  and "s"/"f" flow arrows, all on pid 1 — exactly what Perfetto
 *  loads. */
TEST(TelemetryTrace, ChromeTraceExportIsSchemaValid)
{
    TelemetryOn on;
    telemetry::setCurrentThreadName("test-main");
    { telemetry::ScopedSpan s("test.trace_span"); }
    {
        exec::ThreadPool pool(2);
        exec::parallelFor(pool, 8, [](size_t) {
            telemetry::ScopedSpan s("test.pool_span");
        });
    }
    const std::string dir = tempDir("trace");
    const std::string path = dir + "/trace.json";
    telemetry::writeChromeTrace(path);

    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parseFile(path, doc, &error)) << error;
    ASSERT_TRUE(doc.get("traceEvents").isArray());
    EXPECT_EQ(doc.get("otherData").get("schema").asString(),
              "interf-trace-1");

    std::set<std::string> thread_names;
    bool saw_span = false, saw_pool_span = false;
    for (const auto &ev : doc.get("traceEvents").elements()) {
        ASSERT_TRUE(ev.get("name").isString());
        ASSERT_TRUE(ev.get("ph").isString());
        ASSERT_TRUE(ev.get("pid").isNumber());
        ASSERT_TRUE(ev.get("tid").isNumber());
        EXPECT_EQ(ev.get("pid").asInt(), 1);
        const std::string ph = ev.get("ph").asString();
        if (ph == "M") {
            if (ev.get("name").asString() == "thread_name")
                thread_names.insert(
                    ev.get("args").get("name").asString());
            continue;
        }
        if (ph == "s" || ph == "f") {
            EXPECT_EQ(ev.get("cat").asString(), "flow");
            EXPECT_TRUE(ev.get("id").isNumber());
            EXPECT_TRUE(ev.get("ts").isNumber());
            continue;
        }
        ASSERT_EQ(ph, "X");
        EXPECT_TRUE(ev.get("ts").isNumber());
        EXPECT_TRUE(ev.get("dur").isNumber());
        if (ev.get("name").asString() == "test.trace_span")
            saw_span = true;
        if (ev.get("name").asString() == "test.pool_span")
            saw_pool_span = true;
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_pool_span);
    EXPECT_TRUE(thread_names.count("test-main"));
    EXPECT_TRUE(thread_names.count("pool-worker-0"));
    std::filesystem::remove_all(dir);
}

TEST(TelemetryManifest, RoundTripsThroughJson)
{
    RunManifest m;
    m.benchmark = "401.bzip2";
    m.configDigest = "00ff00ff00ff00ff";
    m.storeKey = m.configDigest;
    m.storeDir = "/tmp/store/00ff00ff00ff00ff";
    m.instructionBudget = 1'000'000;
    m.jobs = 4;
    m.layoutsUsed = 100;
    m.layoutsMeasured = 60;
    m.layoutsCached = 40;
    m.storeBatchesCommitted = 3;
    m.storeCommitMs = 12.5;
    m.wallMs = 543.25;
    m.layoutsPerSec = 110.4;
    m.phases.push_back({"replay.batch", 6, 500.0, 1200.0});
    m.verifyErrors = 0;
    m.verifyWarnings = 2;
    m.logWarns = 3;
    m.logInforms = 9;
    m.recentWarnings = {"warning one", "warning two"};
    m.spansDropped = 7;
    m.spansDroppedByName = {{"replay.batch", 4}, {"store.commit", 3}};
    m.regressionRan = true;
    m.regressionSignificant = true;
    m.enoughMpkiRange = true;
    m.slope = 1.25;
    m.intercept = 0.5;
    m.r2 = 0.95;

    RunManifest back;
    std::string error;
    ASSERT_TRUE(back.fromJson(m.toJson(), &error)) << error;
    EXPECT_EQ(back.benchmark, m.benchmark);
    EXPECT_EQ(back.configDigest, m.configDigest);
    EXPECT_EQ(back.storeKey, m.storeKey);
    EXPECT_EQ(back.storeDir, m.storeDir);
    EXPECT_EQ(back.instructionBudget, m.instructionBudget);
    EXPECT_EQ(back.jobs, m.jobs);
    EXPECT_EQ(back.layoutsUsed, m.layoutsUsed);
    EXPECT_EQ(back.layoutsMeasured, m.layoutsMeasured);
    EXPECT_EQ(back.layoutsCached, m.layoutsCached);
    EXPECT_EQ(back.storeBatchesCommitted, m.storeBatchesCommitted);
    EXPECT_DOUBLE_EQ(back.storeCommitMs, m.storeCommitMs);
    EXPECT_DOUBLE_EQ(back.wallMs, m.wallMs);
    EXPECT_DOUBLE_EQ(back.layoutsPerSec, m.layoutsPerSec);
    ASSERT_EQ(back.phases.size(), 1u);
    EXPECT_EQ(back.phases[0].name, "replay.batch");
    EXPECT_EQ(back.phases[0].count, 6u);
    EXPECT_DOUBLE_EQ(back.phases[0].wallMs, 500.0);
    EXPECT_DOUBLE_EQ(back.phases[0].threadMs, 1200.0);
    EXPECT_EQ(back.verifyWarnings, m.verifyWarnings);
    EXPECT_EQ(back.logWarns, m.logWarns);
    EXPECT_EQ(back.recentWarnings, m.recentWarnings);
    EXPECT_EQ(back.spansDropped, 7u);
    EXPECT_EQ(back.spansDroppedByName, m.spansDroppedByName);
    EXPECT_TRUE(back.regressionRan);
    EXPECT_TRUE(back.regressionSignificant);
    EXPECT_DOUBLE_EQ(back.slope, m.slope);
    EXPECT_DOUBLE_EQ(back.intercept, m.intercept);
    EXPECT_DOUBLE_EQ(back.r2, m.r2);
}

TEST(TelemetryManifest, RejectsWrongSchema)
{
    Json doc = Json::object();
    doc.set("schema", "not-a-manifest");
    RunManifest m;
    std::string error;
    EXPECT_FALSE(m.fromJson(doc, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(TelemetryManifest, LoadReportsMissingFile)
{
    RunManifest m;
    std::string error;
    EXPECT_FALSE(m.load("/nonexistent/manifest.json", &error));
    EXPECT_FALSE(error.empty());
}

TEST(TelemetryManifest, WriteAtomicRoundTripsViaFile)
{
    const std::string dir = tempDir("manifest");
    const std::string path = dir + "/m.json";
    RunManifest m;
    m.benchmark = "camp";
    m.configDigest = "0123456789abcdef";
    m.writeAtomic(path);
    RunManifest back;
    std::string error;
    ASSERT_TRUE(back.load(path, &error)) << error;
    EXPECT_EQ(back.benchmark, "camp");
    // No temp sibling may survive the rename.
    size_t files = 0;
    for ([[maybe_unused]] const auto &f :
         std::filesystem::directory_iterator(dir))
        ++files;
    EXPECT_EQ(files, 1u);
    std::filesystem::remove_all(dir);
}

/** A crash after the temp write but before the rename must leave the
 *  previous manifest intact — the reader never sees a torn file. */
TEST(TelemetryAtomicWriteDeathTest, CrashBeforeRenameKeepsOriginal)
{
    const std::string dir = tempDir("crash");
    const std::string path = dir + "/m.json";
    RunManifest original;
    original.benchmark = "before-crash";
    original.configDigest = "0123456789abcdef";
    original.writeAtomic(path);

    RunManifest update;
    update.benchmark = "after-crash";
    update.configDigest = "fedcba9876543210";
    EXPECT_DEATH(
        {
            telemetry::detail::g_crashAfterTmpWrite.store(true);
            update.writeAtomic(path);
        },
        "");

    RunManifest survivor;
    std::string error;
    ASSERT_TRUE(survivor.load(path, &error)) << error;
    EXPECT_EQ(survivor.benchmark, "before-crash");
    std::filesystem::remove_all(dir);
}

/** End to end: a campaign run with a store and an output directory
 *  leaves a schema-valid manifest in both places. */
TEST(TelemetryManifest, CampaignWritesManifestNextToStore)
{
    const std::string store_dir = tempDir("store");
    const std::string out_dir = tempDir("out");
    {
        TelemetryOn on;
        telemetry::setOutputDir(out_dir);
        auto cfg = quickConfig(1);
        cfg.storeDir = store_dir;
        interferometry::Campaign camp(workloads::defaultProfile("camp"),
                                      cfg);
        auto result = camp.run();
        EXPECT_EQ(result.layoutsUsed, 6u);
    } // Campaign destructor writes the manifests.

    // Next to the store entry.
    std::string store_manifest;
    for (const auto &key_dir :
         std::filesystem::directory_iterator(store_dir)) {
        auto candidate = key_dir.path() / "run-manifest.json";
        if (std::filesystem::exists(candidate))
            store_manifest = candidate.string();
    }
    ASSERT_FALSE(store_manifest.empty());
    RunManifest m;
    std::string error;
    ASSERT_TRUE(m.load(store_manifest, &error)) << error;
    EXPECT_EQ(m.benchmark, "camp");
    EXPECT_EQ(m.layoutsMeasured, 6u);
    EXPECT_TRUE(m.regressionRan);
    EXPECT_EQ(m.storeBatchesCommitted, 1u);
    EXPECT_FALSE(m.phases.empty());

    // And into the output directory.
    size_t out_manifests = 0;
    for (const auto &f : std::filesystem::directory_iterator(out_dir))
        if (f.path().filename().string().rfind("manifest-", 0) == 0) {
            ++out_manifests;
            RunManifest om;
            ASSERT_TRUE(om.load(f.path().string(), &error)) << error;
            EXPECT_EQ(om.benchmark, "camp");
        }
    EXPECT_EQ(out_manifests, 1u);
    std::filesystem::remove_all(store_dir);
    std::filesystem::remove_all(out_dir);
}

} // anonymous namespace
