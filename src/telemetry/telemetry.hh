/**
 * @file
 * Campaign telemetry: enablement, thread identity, output plumbing.
 *
 * The telemetry layer (metrics.hh registry, span.hh phase spans,
 * manifest.hh run manifests) makes every campaign auditable: what ran,
 * where the wall time went, what came from the cache, what the
 * verifiers said. Two invariants govern all of it:
 *
 *  1. **Determinism.** Telemetry observes; it never participates.
 *     Enabling it must not change a single sample byte, at any worker
 *     count — tests/test_telemetry.cc proves this.
 *  2. **Zero cost when off.** Every recording call is gated on one
 *     relaxed atomic load (enabled()); the hot-path counters in the
 *     replay passes and thread pool are additionally compile-time
 *     guarded (INTERF_TELEMETRY_HOTPATH, a CMake knob) so a build can
 *     strip them entirely.
 *
 * Enablement: off by default. `INTERF_TELEMETRY=1` in the environment
 * turns it on; `--telemetry-out DIR` on the benches calls enable() and
 * directs the trace/manifest files to DIR; `INTERF_TELEMETRY=0` is a
 * hard off that wins over enable() — the escape hatch when comparing
 * against an instrumented run.
 */

#ifndef INTERF_TELEMETRY_TELEMETRY_HH
#define INTERF_TELEMETRY_TELEMETRY_HH

#include <atomic>
#include <string>
#include <vector>

#include "util/types.hh"

/**
 * Compile-time guard for hot-path counters (replay passes, thread
 * pool). Configure with -DINTERF_TELEMETRY_HOTPATH=OFF to compile them
 * out entirely; everything else in the telemetry layer stays available.
 */
#ifndef INTERF_TELEMETRY_HOTPATH
#define INTERF_TELEMETRY_HOTPATH 1
#endif

namespace interf::telemetry
{

namespace detail
{
extern std::atomic<bool> g_enabled;
/** Test hook: abort() between tmp write and rename (crash testing). */
extern std::atomic<bool> g_crashAfterTmpWrite;
} // namespace detail

/** Is telemetry recording? One relaxed load: safe on any hot path. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Turn recording on (unless the INTERF_TELEMETRY=0 hard-off is set, in
 * which case this is a no-op and a one-time warning is printed).
 */
void enable();

/** Turn recording off (tests; comparing instrumented vs not). */
void disable();

/**
 * Directory campaign manifests (and bench trace exports) are written
 * to; empty means "only next to the store, if any". setOutputDir
 * creates the directory and implies enable().
 */
void setOutputDir(const std::string &dir);
std::string outputDir();

/**
 * Name the calling thread for trace export (Perfetto thread tracks).
 * Cheap (one mutex acquisition); call once per thread. Unnamed threads
 * export as "thread-<tid>".
 */
void setCurrentThreadName(const std::string &name);

/** Small dense id of the calling thread (assigned on first use). */
u32 currentTid();

/** Snapshot of tid -> name for every thread seen so far. */
std::vector<std::pair<u32, std::string>> threadNames();

/** Nanoseconds since the process-wide telemetry epoch (steady clock). */
u64 nowNs();

/** Nanoseconds of CPU time consumed by the calling thread. */
u64 threadCpuNs();

/**
 * Write @p content to @p path atomically: temp sibling, flush, rename.
 * A reader (or a crash) never observes a half-written file. fatal() on
 * I/O errors.
 */
void writeFileAtomic(const std::string &path, const std::string &content);

/** @{ Counts of warn()/inform() messages captured since enable(), and
 *  the most recent warning texts (newest last, bounded) — the log
 *  sink's view, embedded into run manifests. */
struct LogCaptureSnapshot
{
    u64 warns = 0;
    u64 informs = 0;
    std::vector<std::string> recentWarnings;
};
LogCaptureSnapshot logCapture();
/** @} */

/** Reset all telemetry state (tests): metrics, spans, log capture. */
void resetForTest();

} // namespace interf::telemetry

#endif // INTERF_TELEMETRY_TELEMETRY_HH
