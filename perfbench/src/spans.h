/**
 * @file
 * In-memory span recorder for the traced run. Spans are opened and
 * closed by the benchmark around its own calls into recsim layers, on
 * the benchmark's thread, so they nest strictly: each span records its
 * name, start, end, the span open when it began (its parent) and an
 * optional work count. Nothing is written until the run ends.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    struct Record
    {
        const char* name = "";
        uint64_t start_ns = 0;
        uint64_t end_ns = 0;
        /** Index of the enclosing span, -1 for a root. */
        int64_t parent = -1;
        /** Work the span covered (rows, lookups, ...); 0 if none. */
        uint64_t count = 0;
    };

    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its index.
     *  @p name must outlive the recorder (a string literal). */
    std::size_t begin(const char* name, uint64_t count = 0);
    /** Close span @p index, which must be the innermost open one. */
    void end(std::size_t index);

    const std::vector<Record>& records() const { return records_; }

    /** Duration minus the time its direct children cover, ms. */
    double selfMs(std::size_t index) const;

    /** Self time of every span named @p name, ms, in record order. */
    std::vector<double> selfTimesMs(const std::string& name) const;

    /**
     * For each span named @p root, the summed self time of the spans
     * named @p name beneath it (at any depth), ms. One value per root,
     * 0 where none occurred.
     */
    std::vector<double> sumPerRootMs(const std::string& root,
                                     const std::string& name) const;

    /** Summed count of every span named @p name. */
    uint64_t totalCount(const std::string& name) const;

    /** Write a Chrome trace (ph "X" events, parent index in args). */
    bool writeChromeTrace(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Record> records_;
    std::vector<std::size_t> open_;
    /** Per record: summed duration of its direct children, ns. */
    std::vector<uint64_t> child_ns_;
};

/** RAII span; a no-op when the recorder is disabled. */
class Span
{
  public:
    Span(SpanRecorder& rec, const char* name, uint64_t count = 0)
        : rec_(rec.enabled() ? &rec : nullptr)
    {
        if (rec_ != nullptr)
            index_ = rec_->begin(name, count);
    }
    ~Span()
    {
        if (rec_ != nullptr)
            rec_->end(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    SpanRecorder* rec_;
    std::size_t index_ = 0;
};

} // namespace perfbench
