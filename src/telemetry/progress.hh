/**
 * @file
 * Live progress events: what a long campaign is doing, right now.
 *
 * Campaign::measureLayouts and the optimizers publish typed
 * ProgressEvents (done/total, cache hits, fresh measurements, a
 * layouts-per-second EMA and an ETA). Two consumers exist: an optional
 * in-process observer — the benches and interf_opt install a TTY-gated
 * stderr ticker behind --progress — and the flight recorder, so
 * `interf_trace --tail` on a running process's output dir shows the
 * same numbers post-hoc or from another terminal.
 *
 * Everything follows the telemetry invariants: publishing is gated on
 * telemetry::enabled() (one relaxed load when off), observers only
 * observe, and nothing here feeds back into a measurement.
 */

#ifndef INTERF_TELEMETRY_PROGRESS_HH
#define INTERF_TELEMETRY_PROGRESS_HH

#include <functional>
#include <mutex>
#include <string>

#include "telemetry/telemetry.hh"
#include "util/types.hh"

namespace interf::telemetry
{

/** One progress snapshot for a named long-running task. */
struct ProgressEvent
{
    std::string task;      ///< "campaign.measure", "opt.anneal", ...
    u64 tsNs = 0;          ///< Telemetry-epoch-relative publish time.
    u64 done = 0;          ///< Work units finished.
    u64 total = 0;         ///< Work units expected (0 = unknown).
    u64 cached = 0;        ///< Units served from a cache/store.
    u64 fresh = 0;         ///< Units measured fresh.
    double ratePerSec = 0; ///< EMA of units/second (0 = not yet known).
    double etaSec = 0;     ///< Estimated seconds remaining (0 = n/a).
};

/**
 * Publish @p event to the installed observer and the flight recorder.
 * No-ops on one relaxed load when telemetry is disabled. The observer
 * runs on the publishing thread — keep it cheap (the stderr ticker is).
 */
void publishProgress(const ProgressEvent &event);

/** Install (or clear, with nullptr) the process-wide progress
 *  observer. Returns the previous observer. */
using ProgressObserver = std::function<void(const ProgressEvent &)>;
ProgressObserver setProgressObserver(ProgressObserver observer);

/**
 * Install the stderr progress ticker: a single rewriting status line
 * ("\r…") per task, final state flushed with a newline. TTY-gated —
 * when stderr is not a terminal this installs nothing and returns
 * false, so piped/CI output stays clean. Benches and interf_opt call
 * this behind --progress.
 */
bool installStderrProgressTicker();

/**
 * Rate/ETA bookkeeping for one task, publish-throttled so callers can
 * tick per work unit without flooding observers: publishes at most
 * every ~100 ms, plus always on the final unit. Construction snapshots
 * telemetry::enabled() — a tracker built while disabled is inert.
 * add() takes an internal lock, so pool workers tick one tracker
 * directly.
 */
class ProgressTracker
{
  public:
    ProgressTracker(std::string task, u64 total);

    /** Count more units as done (of which @p cached served from a
     *  cache, @p fresh measured); publishes if due. Thread-safe. */
    void add(u64 done, u64 cached, u64 fresh);

    /** Publish the current state unconditionally (end of task); later
     *  add() calls are ignored. */
    void finish();

  private:
    void publish(u64 ts_ns);

    std::mutex mutex_; ///< Guards everything below.
    std::string task_;
    u64 total_ = 0;
    u64 done_ = 0;
    u64 cached_ = 0;
    u64 fresh_ = 0;
    u64 startNs_ = 0;
    u64 lastPublishNs_ = 0;
    u64 lastRateNs_ = 0;   ///< Last EMA sample time.
    u64 lastRateDone_ = 0; ///< done_ at the last EMA sample.
    double emaRate_ = 0.0; ///< Units/second, exponentially smoothed.
    bool active_ = false;
};

} // namespace interf::telemetry

#endif // INTERF_TELEMETRY_PROGRESS_HH
