/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The benchmark times each layer from outside, by opening a span around
 * every call it makes into that layer's public API. Spans are kept in
 * per-thread buffers (no locking on the recording path), collected once
 * the traced work has finished, and written out at the end. A span's
 * self time is its duration minus the time its child spans on the same
 * thread cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One finished span. */
struct SpanRecord
{
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1; ///< Index of the enclosing span in the same buffer.
    unsigned thread = 0;

    std::uint64_t durationNs() const { return endNs - startNs; }
};

/** Totals of every span sharing one name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0;
    std::vector<std::uint64_t> durationsNs;

    double meanNs() const
    {
        return count ? static_cast<double>(totalNs) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

/**
 * Process-wide recorder. Each thread appends to its own buffer; the
 * registry of buffers is the only shared state, touched once per
 * thread. totals() and writeChromeTrace() must run after every
 * recording thread is idle.
 */
class Tracer
{
  public:
    static Tracer &global()
    {
        static Tracer tracer;
        return tracer;
    }

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Open a span on the calling thread; returns its buffer slot. */
    int open(const char *name)
    {
        Buffer &b = local();
        SpanRecord r;
        r.name = name;
        r.parent = b.stack.empty() ? -1 : b.stack.back();
        r.thread = b.thread;
        r.startNs = nowNs();
        b.spans.push_back(r);
        const int slot = static_cast<int>(b.spans.size()) - 1;
        b.stack.push_back(slot);
        return slot;
    }

    void close(int slot)
    {
        Buffer &b = local();
        b.spans[static_cast<size_t>(slot)].endNs = nowNs();
        b.stack.pop_back();
    }

    /** Per-name totals with self time, over every thread's spans. */
    std::map<std::string, SpanTotals> totals() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::map<std::string, SpanTotals> out;
        for (const auto &b : buffers_) {
            std::vector<std::uint64_t> child_ns(b->spans.size(), 0);
            for (const auto &s : b->spans)
                if (s.parent >= 0)
                    child_ns[static_cast<size_t>(s.parent)] +=
                        s.durationNs();
            for (size_t i = 0; i < b->spans.size(); ++i) {
                const SpanRecord &s = b->spans[i];
                SpanTotals &t = out[s.name];
                ++t.count;
                t.totalNs += s.durationNs();
                t.selfNs += s.durationNs() - std::min(child_ns[i],
                                                      s.durationNs());
                t.durationsNs.push_back(s.durationNs());
            }
        }
        return out;
    }

    /** Write every span as a Chrome trace-event JSON document. */
    bool writeChromeTrace(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::ofstream out(path);
        if (!out)
            return false;
        std::uint64_t origin = ~std::uint64_t{0};
        for (const auto &b : buffers_)
            for (const auto &s : b->spans)
                origin = std::min(origin, s.startNs);
        out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [";
        bool first = true;
        for (const auto &b : buffers_) {
            for (const auto &s : b->spans) {
                out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
                    << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                    << s.thread << ", \"ts\": "
                    << static_cast<double>(s.startNs - origin) / 1e3
                    << ", \"dur\": "
                    << static_cast<double>(s.durationNs()) / 1e3 << "}";
                first = false;
            }
        }
        out << "\n]}\n";
        return static_cast<bool>(out.flush());
    }

  private:
    struct Buffer
    {
        std::vector<SpanRecord> spans;
        std::vector<int> stack;
        unsigned thread = 0;
    };

    Buffer &local()
    {
        thread_local Buffer *buffer = nullptr;
        if (buffer == nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::make_unique<Buffer>());
            buffer = buffers_.back().get();
            buffer->thread = static_cast<unsigned>(buffers_.size());
        }
        return *buffer;
    }

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_; ///< Guards buffers_ (the registry only).
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** RAII span; records nothing while the tracer is disabled. */
class Span
{
  public:
    explicit Span(const char *name)
    {
        Tracer &t = Tracer::global();
        if (t.enabled())
            slot_ = t.open(name);
    }

    ~Span()
    {
        if (slot_ >= 0)
            Tracer::global().close(slot_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int slot_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
