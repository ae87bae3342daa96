#include "telemetry/progress.hh"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <mutex>

#include "telemetry/recorder.hh"
#include "util/logging.hh"

namespace interf::telemetry
{

namespace
{

/** Publish throttle: at most one event per task per this interval. */
constexpr u64 kPublishIntervalNs = 100'000'000; // 100 ms

/** EMA half-life-ish smoothing for the units/second rate. */
constexpr double kEmaAlpha = 0.3;

std::mutex g_observerMutex;
ProgressObserver g_observer;

/** Render one event as a single rewriting stderr line. */
void
stderrTicker(const ProgressEvent &ev)
{
    // One shared line: concurrent tasks interleave, which is fine for a
    // human glancing at a terminal — the flight log has the full feed.
    std::string line = strprintf("\r[%s] %llu", ev.task.c_str(),
                                 (unsigned long long)ev.done);
    if (ev.total > 0)
        line += strprintf("/%llu", (unsigned long long)ev.total);
    line += strprintf(" (%llu cached, %llu fresh)",
                      (unsigned long long)ev.cached,
                      (unsigned long long)ev.fresh);
    if (ev.ratePerSec > 0)
        line += strprintf(" %.1f/s", ev.ratePerSec);
    if (ev.etaSec > 0)
        line += strprintf(" eta %.0fs", ev.etaSec);
    line += "\x1b[K"; // Clear the remnants of a longer previous line.
    const bool final_tick = ev.total > 0 && ev.done >= ev.total;
    if (final_tick)
        line += "\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

} // anonymous namespace

void
publishProgress(const ProgressEvent &event)
{
    if (!enabled())
        return;
    recorder::recordProgress(event);
    ProgressObserver observer;
    {
        std::lock_guard<std::mutex> lock(g_observerMutex);
        observer = g_observer;
    }
    if (observer)
        observer(event);
}

ProgressObserver
setProgressObserver(ProgressObserver observer)
{
    std::lock_guard<std::mutex> lock(g_observerMutex);
    std::swap(g_observer, observer);
    return observer;
}

bool
installStderrProgressTicker()
{
    if (::isatty(STDERR_FILENO) == 0)
        return false;
    setProgressObserver(stderrTicker);
    return true;
}

ProgressTracker::ProgressTracker(std::string task, u64 total)
    : task_(std::move(task)), total_(total)
{
    if (!enabled())
        return;
    active_ = true;
    startNs_ = nowNs();
    lastRateNs_ = startNs_;
}

void
ProgressTracker::add(u64 done, u64 cached, u64 fresh)
{
    // Publishing stays under the lock so observers and the flight log
    // see one task's events in order.
    std::lock_guard<std::mutex> lock(mutex_);
    if (!active_)
        return;
    done_ += done;
    cached_ += cached;
    fresh_ += fresh;
    const u64 ts = nowNs();
    const bool final_unit = total_ > 0 && done_ >= total_;
    if (!final_unit && ts - lastPublishNs_ < kPublishIntervalNs)
        return;
    // Fold the window since the last EMA sample into the rate. Windows
    // are >= the publish interval, so the instantaneous rate is
    // reasonably denoised before smoothing.
    if (ts > lastRateNs_ && done_ > lastRateDone_) {
        const double window =
            static_cast<double>(ts - lastRateNs_) / 1e9;
        const double inst =
            static_cast<double>(done_ - lastRateDone_) / window;
        emaRate_ = emaRate_ == 0.0
                       ? inst
                       : kEmaAlpha * inst + (1.0 - kEmaAlpha) * emaRate_;
        lastRateNs_ = ts;
        lastRateDone_ = done_;
    }
    lastPublishNs_ = ts;
    publish(ts);
}

void
ProgressTracker::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!active_)
        return;
    publish(nowNs());
    active_ = false;
}

void
ProgressTracker::publish(u64 ts_ns)
{
    ProgressEvent ev;
    ev.task = task_;
    ev.tsNs = ts_ns;
    ev.done = done_;
    ev.total = total_;
    ev.cached = cached_;
    ev.fresh = fresh_;
    ev.ratePerSec = emaRate_;
    if (emaRate_ > 0 && total_ > done_)
        ev.etaSec = static_cast<double>(total_ - done_) / emaRate_;
    publishProgress(ev);
}

} // namespace interf::telemetry
